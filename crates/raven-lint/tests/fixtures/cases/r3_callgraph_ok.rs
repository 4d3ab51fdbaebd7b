//! R3 (call-graph) negative: the same two-deep panic, but the only call
//! chain into it is `#[cfg(test)]`-gated — and a second panic lives in a
//! function nothing reaches. The hot root calls a local closure named
//! like the panicking `sink`, which must not link to it. None may fire.

pub struct Sim {
    buf: Vec<u8>,
}

impl Sim {
    pub fn step(&mut self) -> u8 {
        let sink = |buf: &[u8]| buf.first().copied().unwrap_or(0);
        sink(&self.buf)
    }
}

fn relay(buf: &[u8]) -> u8 {
    sink(buf)
}

fn sink(buf: &[u8]) -> u8 {
    *buf.first().unwrap() // only reachable via the cfg(test) call below
}

pub fn never_called() -> u8 {
    panic!("unreachable from Sim::step")
}

#[cfg(test)]
mod tests {
    #[test]
    fn gated() {
        super::relay(&[1]);
    }
}
