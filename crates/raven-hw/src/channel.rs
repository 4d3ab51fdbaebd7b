//! The USB write/read paths and their interceptor chain — the reproduction's
//! analog of the Linux dynamic-linking (`LD_PRELOAD`) hook the paper's
//! malware uses.
//!
//! In the paper, the malicious shared library wraps the `write(2)` system
//! call: every buffer the control software sends to the USB boards first
//! passes through the wrapper, which may log it, mutate bytes in place, or
//! forward it unchanged (Fig. 4). [`WriteInterceptor`] captures exactly that
//! contract: interceptors see the raw bytes *after* the software safety
//! checks and *before* the board — the TOCTOU window of §III.
//!
//! The same hook point hosts the defense: the paper argues the detector
//! belongs "at lower layers of control structure and just before the
//! commands are going to be executed on the physical robot" (§IV.C), so the
//! chain has a fixed guard slot for the dynamic-model detector in
//! `raven-detect` ([`UsbChannel::write_guarded`]): downstream of the
//! malware side ([`UsbChannel::install_first`]), upstream of the transit
//! faults ([`UsbChannel::install`], e.g. chaos frame drops).

use simbus::SimTime;

/// Metadata an interceptor can inspect, mirroring what the paper's wrapper
/// checks before acting ("checking the process name and the file
/// descriptor", §III.C.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteContext {
    /// Virtual time of the write.
    pub time: SimTime,
    /// Monotonic sequence number of the write on this channel.
    pub seq: u64,
    /// Name of the writing process.
    pub process: &'static str,
    /// File descriptor being written.
    pub fd: i32,
}

/// What an interceptor decided to do with a write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteAction {
    /// Deliver the (possibly mutated) buffer downstream.
    Forward,
    /// Suppress the write entirely; downstream sees nothing.
    Drop,
}

/// A hook on the USB write path.
///
/// Implementations may mutate `buf` in place (the injection attack), copy it
/// out (the eavesdropping attack), or veto delivery (the detector's
/// mitigation). Returning [`WriteAction::Drop`] stops the chain: later
/// interceptors do not run, matching a wrapper that never calls the real
/// `write`.
///
/// `Send` so a whole rig (and any `Simulation` owning one) can migrate
/// between fleet worker threads.
pub trait WriteInterceptor: std::fmt::Debug + Send {
    /// Inspects and possibly mutates one outgoing buffer.
    fn on_write(&mut self, buf: &mut Vec<u8>, ctx: &WriteContext) -> WriteAction;

    /// Human-readable name for diagnostics.
    fn name(&self) -> &str;
}

/// A hook on the USB read (feedback) path. `Send` for the same reason as
/// [`WriteInterceptor`]: fleet workers move rigs across threads.
pub trait ReadInterceptor: std::fmt::Debug + Send {
    /// Inspects and possibly mutates one incoming buffer.
    fn on_read(&mut self, buf: &mut Vec<u8>, ctx: &WriteContext);

    /// Human-readable name for diagnostics.
    fn name(&self) -> &str;
}

/// Outcome of pushing one buffer through the write path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteOutcome {
    /// The delivered bytes, or `None` if an interceptor dropped the write.
    pub delivered: Option<Vec<u8>>,
    /// Whether any interceptor changed the bytes relative to the input.
    pub mutated: bool,
}

/// The USB write path: an ordered interceptor chain in front of the board,
/// with a guard slot between its upstream and downstream halves.
///
/// # Example
///
/// ```
/// use raven_hw::channel::{UsbChannel, WriteAction, WriteContext, WriteInterceptor};
/// use simbus::SimTime;
///
/// #[derive(Debug)]
/// struct Nop;
/// impl WriteInterceptor for Nop {
///     fn on_write(&mut self, _buf: &mut Vec<u8>, _ctx: &WriteContext) -> WriteAction {
///         WriteAction::Forward
///     }
///     fn name(&self) -> &str { "nop" }
/// }
///
/// let mut ch = UsbChannel::new();
/// ch.install(Box::new(Nop));
/// let out = ch.write(vec![1, 2, 3], SimTime::ZERO);
/// assert_eq!(out.delivered, Some(vec![1, 2, 3]));
/// ```
#[derive(Debug, Default)]
pub struct UsbChannel {
    /// Runs before the guard slot, in order.
    upstream: Vec<Box<dyn WriteInterceptor>>,
    /// Runs after the guard slot, in order.
    downstream: Vec<Box<dyn WriteInterceptor>>,
    read_chain: Vec<Box<dyn ReadInterceptor>>,
    seq: u64,
    writes: u64,
    drops: u64,
    mutations: u64,
}

impl UsbChannel {
    /// Process name the RAVEN control software presents.
    pub const PROCESS: &'static str = "r2_control";
    /// File descriptor of the USB board device node.
    pub const BOARD_FD: i32 = 7;

    /// Creates an empty channel (no interceptors — the clean system).
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a write interceptor to the end of the chain (runs last,
    /// downstream of the guard slot).
    pub fn install(&mut self, interceptor: Box<dyn WriteInterceptor>) {
        self.downstream.push(interceptor);
    }

    /// Prepends a write interceptor (runs first — how `LD_PRELOAD` shadows
    /// every later hook — upstream of the guard slot).
    pub fn install_first(&mut self, interceptor: Box<dyn WriteInterceptor>) {
        self.upstream.insert(0, interceptor);
    }

    /// Appends a read interceptor.
    pub fn install_read(&mut self, interceptor: Box<dyn ReadInterceptor>) {
        self.read_chain.push(interceptor);
    }

    /// Removes every interceptor whose name matches.
    pub fn uninstall(&mut self, name: &str) {
        self.upstream.retain(|i| i.name() != name);
        self.downstream.retain(|i| i.name() != name);
        self.read_chain.retain(|i| i.name() != name);
    }

    /// Names of the installed write interceptors, in execution order (the
    /// guard slot sits between the upstream and downstream ones).
    pub fn write_chain_names(&self) -> Vec<&str> {
        self.upstream.iter().chain(&self.downstream).map(|i| i.name()).collect()
    }

    /// Pushes a buffer through the write chain with an empty guard slot.
    pub fn write(&mut self, buf: Vec<u8>, time: SimTime) -> WriteOutcome {
        self.write_guarded(buf, time, None)
    }

    /// Pushes a buffer through the write chain: the upstream interceptors,
    /// then `guard`, then the downstream ones. The guard's drops and
    /// rewrites count in [`drops`](Self::drops) and
    /// [`mutations`](Self::mutations) like any interceptor's.
    pub fn write_guarded(
        &mut self,
        buf: Vec<u8>,
        time: SimTime,
        guard: Option<&mut dyn WriteInterceptor>,
    ) -> WriteOutcome {
        let ctx = WriteContext { time, seq: self.seq, process: Self::PROCESS, fd: Self::BOARD_FD };
        self.seq += 1;
        self.writes += 1;

        let original = buf.clone();
        let mut current = buf;
        // A drop stops the chain: later interceptors do not run.
        let dropped_in = |chain: &mut [Box<dyn WriteInterceptor>], buf: &mut Vec<u8>| {
            chain.iter_mut().any(|i| i.on_write(buf, &ctx) == WriteAction::Drop)
        };
        let dropped = dropped_in(&mut self.upstream, &mut current)
            || guard.is_some_and(|g| g.on_write(&mut current, &ctx) == WriteAction::Drop)
            || dropped_in(&mut self.downstream, &mut current);
        let mutated = current != original;
        self.mutations += u64::from(mutated);
        self.drops += u64::from(dropped);
        WriteOutcome { delivered: (!dropped).then_some(current), mutated }
    }

    /// Pushes a feedback buffer through the read chain, returning the bytes
    /// the control software ultimately sees.
    pub fn read(&mut self, buf: Vec<u8>, time: SimTime) -> Vec<u8> {
        let ctx = WriteContext { time, seq: self.seq, process: Self::PROCESS, fd: Self::BOARD_FD };
        let mut current = buf;
        for interceptor in &mut self.read_chain {
            interceptor.on_read(&mut current, &ctx);
        }
        current
    }

    /// Total writes attempted.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Writes suppressed by an interceptor.
    pub fn drops(&self) -> u64 {
        self.drops
    }

    /// Writes whose bytes were changed in flight.
    pub fn mutations(&self) -> u64 {
        self.mutations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    struct AddOne;
    impl WriteInterceptor for AddOne {
        fn on_write(&mut self, buf: &mut Vec<u8>, _ctx: &WriteContext) -> WriteAction {
            for b in buf.iter_mut() {
                *b = b.wrapping_add(1);
            }
            WriteAction::Forward
        }
        fn name(&self) -> &str {
            "add-one"
        }
    }

    #[derive(Debug)]
    struct DropAll;
    impl WriteInterceptor for DropAll {
        fn on_write(&mut self, _buf: &mut Vec<u8>, _ctx: &WriteContext) -> WriteAction {
            WriteAction::Drop
        }
        fn name(&self) -> &str {
            "drop-all"
        }
    }

    #[derive(Debug)]
    struct SeqRecorder(Vec<u64>);
    impl WriteInterceptor for SeqRecorder {
        fn on_write(&mut self, _buf: &mut Vec<u8>, ctx: &WriteContext) -> WriteAction {
            self.0.push(ctx.seq);
            WriteAction::Forward
        }
        fn name(&self) -> &str {
            "seq-recorder"
        }
    }

    #[test]
    fn empty_chain_forwards_unchanged() {
        let mut ch = UsbChannel::new();
        let out = ch.write(vec![1, 2, 3], SimTime::ZERO);
        assert_eq!(out.delivered, Some(vec![1, 2, 3]));
        assert!(!out.mutated);
        assert_eq!(ch.writes(), 1);
        assert_eq!(ch.drops(), 0);
    }

    #[test]
    fn interceptors_run_in_order_and_compose() {
        let mut ch = UsbChannel::new();
        ch.install(Box::new(AddOne));
        ch.install(Box::new(AddOne));
        let out = ch.write(vec![10], SimTime::ZERO);
        assert_eq!(out.delivered, Some(vec![12]));
        assert!(out.mutated);
        assert_eq!(ch.mutations(), 1);
    }

    #[test]
    fn install_first_runs_before_existing() {
        #[derive(Debug)]
        struct FailIfNotFirst;
        impl WriteInterceptor for FailIfNotFirst {
            fn on_write(&mut self, buf: &mut Vec<u8>, _ctx: &WriteContext) -> WriteAction {
                assert_eq!(buf[0], 10, "must see the original bytes");
                WriteAction::Forward
            }
            fn name(&self) -> &str {
                "first"
            }
        }
        let mut ch = UsbChannel::new();
        ch.install(Box::new(AddOne));
        ch.install_first(Box::new(FailIfNotFirst));
        assert_eq!(ch.write_chain_names(), vec!["first", "add-one"]);
        let out = ch.write(vec![10], SimTime::ZERO);
        assert_eq!(out.delivered, Some(vec![11]));
    }

    #[test]
    fn drop_stops_the_chain() {
        let mut ch = UsbChannel::new();
        ch.install(Box::new(DropAll));
        ch.install(Box::new(AddOne)); // must never run
        let out = ch.write(vec![1], SimTime::ZERO);
        assert_eq!(out.delivered, None);
        assert_eq!(ch.drops(), 1);
    }

    /// Appends its tag byte, so the delivered bytes spell the run order.
    #[derive(Debug)]
    struct Tag(u8);
    impl WriteInterceptor for Tag {
        fn on_write(&mut self, buf: &mut Vec<u8>, _ctx: &WriteContext) -> WriteAction {
            buf.push(self.0);
            WriteAction::Forward
        }
        fn name(&self) -> &str {
            "tag"
        }
    }

    #[test]
    fn guard_slot_runs_between_upstream_and_downstream() {
        let mut ch = UsbChannel::new();
        ch.install(Box::new(Tag(b'd')));
        ch.install_first(Box::new(Tag(b'u')));
        let out = ch.write_guarded(Vec::new(), SimTime::ZERO, Some(&mut Tag(b'g')));
        assert_eq!(out.delivered.as_deref(), Some(&b"ugd"[..]));
        assert_eq!(ch.write(Vec::new(), SimTime::ZERO).delivered.as_deref(), Some(&b"ud"[..]));
    }

    #[test]
    fn guard_drop_stops_the_downstream_interceptors() {
        #[derive(Debug)]
        struct MustNotRun;
        impl WriteInterceptor for MustNotRun {
            fn on_write(&mut self, _buf: &mut Vec<u8>, _ctx: &WriteContext) -> WriteAction {
                panic!("downstream interceptor ran after the guard dropped the write");
            }
            fn name(&self) -> &str {
                "must-not-run"
            }
        }
        let mut ch = UsbChannel::new();
        ch.install(Box::new(MustNotRun));
        let out = ch.write_guarded(vec![1], SimTime::ZERO, Some(&mut DropAll));
        assert_eq!(out.delivered, None);
        assert!(!out.mutated);
        assert_eq!((ch.writes(), ch.drops(), ch.mutations()), (1, 1, 0));
    }

    #[test]
    fn guard_rewrite_counts_as_a_mutation() {
        let mut ch = UsbChannel::new();
        let out = ch.write_guarded(vec![1], SimTime::ZERO, Some(&mut AddOne));
        assert_eq!(out.delivered, Some(vec![2]));
        assert!(out.mutated);
        assert_eq!((ch.drops(), ch.mutations()), (0, 1));
    }

    #[test]
    fn uninstall_by_name() {
        let mut ch = UsbChannel::new();
        ch.install(Box::new(AddOne));
        ch.install(Box::new(DropAll));
        ch.uninstall("drop-all");
        assert_eq!(ch.write_chain_names(), vec!["add-one"]);
        assert!(ch.write(vec![0], SimTime::ZERO).delivered.is_some());
    }

    #[test]
    fn sequence_numbers_increase() {
        let mut ch = UsbChannel::new();
        ch.install(Box::new(SeqRecorder(Vec::new())));
        for _ in 0..5 {
            ch.write(vec![0], SimTime::ZERO);
        }
        // Recorder is boxed inside; verify indirectly via counters.
        assert_eq!(ch.writes(), 5);
    }

    #[test]
    fn read_chain_mutates_feedback() {
        #[derive(Debug)]
        struct Zero;
        impl ReadInterceptor for Zero {
            fn on_read(&mut self, buf: &mut Vec<u8>, _ctx: &WriteContext) {
                buf.fill(0);
            }
            fn name(&self) -> &str {
                "zero"
            }
        }
        let mut ch = UsbChannel::new();
        ch.install_read(Box::new(Zero));
        assert_eq!(ch.read(vec![1, 2, 3], SimTime::ZERO), vec![0, 0, 0]);
        ch.uninstall("zero");
        assert_eq!(ch.read(vec![1, 2, 3], SimTime::ZERO), vec![1, 2, 3]);
    }
}
