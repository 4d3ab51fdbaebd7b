//! Approximate workspace call graph over the parsed items.
//!
//! Resolution order per call site: `self.method()` via the enclosing
//! impl type, `self.field.method()` via the struct's declared field type
//! (wrappers peeled, aliases expanded, `dyn Trait` fanned out to every
//! `impl Trait for X`), `Type::method()` and `ident.method()` via exact
//! qualified lookup. A receiver that resolves to a *foreign* type
//! (vendor/std — nothing parsed under that name) produces no edge;
//! a receiver that cannot be resolved at all (chained calls, local
//! `let` bindings) falls back to *every* method with that name — the
//! graph over-approximates rather than misses a panic. Test code is
//! never a target.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::lexer::SourceFile;
use crate::parse::{self, core_type, FnDecl, StructDecl};

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Receiver {
    /// `self.method()`
    SelfVal,
    /// `self.<field>.method()`
    SelfField(String),
    /// `<ident>.method()` — a parameter or local binding
    Ident(String),
    /// `<Seg>::method()` — type- or module-qualified path
    Path(String),
    /// `expr).method()`, `x.0.method()`, `a.b.c.method()` — unresolvable
    Chained,
    /// bare `func()`
    None,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Byte offset of the callee name in the file's scrubbed text.
    pub offset: usize,
    /// The callee name as written.
    pub name: String,
    pub recv: Receiver,
    /// Resolved callee indices into [`CallGraph::fns`].
    pub targets: Vec<usize>,
}

/// The workspace symbol table + call graph.
pub struct CallGraph {
    pub fns: Vec<FnDecl>,
    pub structs: BTreeMap<String, StructDecl>,
    pub aliases: BTreeMap<String, String>,
    /// trait name → implementing type names.
    pub trait_impls: BTreeMap<String, Vec<String>>,
    /// Per function (same index as `fns`): its call sites.
    pub sites: Vec<Vec<CallSite>>,
    by_qualified: BTreeMap<String, Vec<usize>>,
    methods_by_name: BTreeMap<String, Vec<usize>>,
    free_by_name: BTreeMap<String, Vec<usize>>,
    /// Type names the workspace defines something for.
    known_types: BTreeSet<String>,
}

/// BFS result: reachable fn index → the parent edge it was discovered
/// through (`None` for an entry point).
pub struct Reachability {
    pub parent: BTreeMap<usize, Option<usize>>,
}

impl Reachability {
    pub fn contains(&self, idx: usize) -> bool {
        self.parent.contains_key(&idx)
    }
}

const KEYWORDS: [&str; 24] = [
    "if", "else", "match", "while", "for", "loop", "return", "in", "as", "move", "where", "let",
    "fn", "impl", "use", "pub", "mod", "break", "continue", "dyn", "ref", "mut", "unsafe", "await",
];

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Reads the identifier ending just before `end` (exclusive); returns
/// `(start, ident)` or `None` when the preceding byte is not ident-like.
fn ident_before(s: &str, end: usize) -> Option<(usize, &str)> {
    let b = s.as_bytes();
    if end == 0 || !is_ident(b[end - 1]) {
        return None;
    }
    let mut st = end;
    while st > 0 && is_ident(b[st - 1]) {
        st -= 1;
    }
    Some((st, &s[st..end]))
}

fn skip_ws_back(s: &str, mut i: usize) -> usize {
    let b = s.as_bytes();
    while i > 0 && b[i - 1].is_ascii_whitespace() {
        i -= 1;
    }
    i
}

impl CallGraph {
    /// Parses every file and links the graph. `files[i]` is addressed by
    /// `FnDecl::file == i`.
    pub fn build(files: &[SourceFile]) -> CallGraph {
        let mut fns = Vec::new();
        let mut structs = BTreeMap::new();
        let mut aliases = BTreeMap::new();
        let mut trait_impls: BTreeMap<String, Vec<String>> = BTreeMap::new();
        for (idx, file) in files.iter().enumerate() {
            let items = parse::parse_items(file, idx);
            fns.extend(items.fns);
            for st in items.structs {
                structs.entry(st.name.clone()).or_insert(st);
            }
            for al in items.aliases {
                aliases.entry(al.name.clone()).or_insert(al.raw_type);
            }
            for (tr, ty) in items.trait_impls {
                trait_impls.entry(tr).or_default().push(ty);
            }
        }

        let mut by_qualified: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut methods_by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut free_by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut known_types: BTreeSet<String> = structs.keys().cloned().collect();
        known_types.extend(trait_impls.keys().cloned());
        for (i, f) in fns.iter().enumerate() {
            by_qualified.entry(f.qualified()).or_default().push(i);
            match &f.self_type {
                Some(t) => {
                    known_types.insert(t.clone());
                    if f.has_self {
                        methods_by_name.entry(f.name.clone()).or_default().push(i);
                    }
                }
                None => free_by_name.entry(f.name.clone()).or_default().push(i),
            }
        }

        let mut graph = CallGraph {
            fns,
            structs,
            aliases,
            trait_impls,
            sites: Vec::new(),
            by_qualified,
            methods_by_name,
            free_by_name,
            known_types,
        };
        graph.sites = (0..graph.fns.len()).map(|i| graph.extract_sites(files, i)).collect();
        graph
    }

    /// Expands type aliases and peels wrappers until a core type name is
    /// stable; returns the name and whether a lock wrapper was crossed.
    pub fn resolve_core(&self, name: &str) -> (String, bool) {
        let mut cur = name.to_string();
        let mut locked = false;
        for _ in 0..8 {
            let Some(raw) = self.aliases.get(&cur) else { break };
            let (next, lock) = core_type(raw);
            locked |= lock;
            if next == cur || next.is_empty() {
                break;
            }
            cur = next;
        }
        (cur, locked)
    }

    /// All fns named `Type::name`, fanning `Type` out to its
    /// implementations when it is a trait.
    pub fn lookup_method(&self, ty: &str, name: &str) -> Vec<usize> {
        let mut out: Vec<usize> =
            self.by_qualified.get(&format!("{ty}::{name}")).cloned().unwrap_or_default();
        if let Some(impls) = self.trait_impls.get(ty) {
            for x in impls {
                if let Some(v) = self.by_qualified.get(&format!("{x}::{name}")) {
                    out.extend(v.iter().copied());
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    fn resolve_targets(&self, caller: &FnDecl, recv: &Receiver, name: &str) -> Vec<usize> {
        let fallback = |g: &CallGraph| g.methods_by_name.get(name).cloned().unwrap_or_default();
        let via_type = |g: &CallGraph, ty: &str| -> Vec<usize> {
            let (core, _) = g.resolve_core(ty);
            let hits = g.lookup_method(&core, name);
            if !hits.is_empty() || g.known_types.contains(&core) {
                hits // resolved — trust it, even when the method is absent
            } else {
                Vec::new() // foreign type (vendor/std): no local edge
            }
        };
        let mut targets = match recv {
            Receiver::None if caller.closures.iter().any(|c| c == name) => Vec::new(),
            Receiver::None => self.free_by_name.get(name).cloned().unwrap_or_default(),
            Receiver::Path(seg) => {
                let seg = if seg == "Self" {
                    caller.self_type.clone().unwrap_or_default()
                } else {
                    seg.clone()
                };
                if seg.as_bytes().first().is_some_and(|b| b.is_ascii_uppercase()) {
                    let (core, _) = self.resolve_core(&seg);
                    self.lookup_method(&core, name)
                } else {
                    // module-qualified free call
                    self.free_by_name.get(name).cloned().unwrap_or_default()
                }
            }
            Receiver::SelfVal => match &caller.self_type {
                Some(t) => {
                    let hits = self.lookup_method(t, name);
                    if hits.is_empty() {
                        fallback(self) // trait default method on self
                    } else {
                        hits
                    }
                }
                None => fallback(self),
            },
            Receiver::SelfField(field) => {
                let field_ty = caller
                    .self_type
                    .as_ref()
                    .and_then(|t| self.structs.get(t))
                    .and_then(|st| st.fields.iter().find(|f| f.name == *field))
                    .map(|f| f.core_type.clone());
                match field_ty {
                    Some(ty) => via_type(self, &ty),
                    None => fallback(self),
                }
            }
            Receiver::Ident(id) => {
                match caller.params.iter().find(|(n, _, _)| n == id).map(|(_, t, _)| t.clone()) {
                    Some(ty) if !ty.is_empty() => via_type(self, &ty),
                    _ => fallback(self), // local binding — type unknown
                }
            }
            Receiver::Chained => fallback(self),
        };
        targets.retain(|&t| !self.fns[t].is_test);
        targets
    }

    /// Extracts and resolves the call sites in one function's body.
    fn extract_sites(&self, files: &[SourceFile], fn_idx: usize) -> Vec<CallSite> {
        let f = &self.fns[fn_idx];
        let Some((open, close)) = f.body else { return Vec::new() };
        let s = &files[f.file].scrubbed;
        let b = s.as_bytes();
        let mut out = Vec::new();
        for i in open + 1..close {
            if b[i] != b'(' {
                continue;
            }
            let e = skip_ws_back(s, i);
            let Some((st, name)) = ident_before(s, e) else { continue };
            if st > 0 && b[st - 1] == b'!' {
                continue; // macro invocation — token rules own these
            }
            if name.bytes().all(|c| c.is_ascii_digit()) || KEYWORDS.contains(&name) {
                continue;
            }
            let p = skip_ws_back(s, st);
            let recv = if p >= 2 && &s[p - 2..p] == "::" {
                match ident_before(s, skip_ws_back(s, p - 2)) {
                    Some((_, seg)) => Receiver::Path(seg.to_string()),
                    None => continue, // turbofish / qualified-path — foreign
                }
            } else if p >= 1 && b[p - 1] == b'.' {
                let q = skip_ws_back(s, p - 1);
                match ident_before(s, q) {
                    Some((rst, recv_id)) if !recv_id.bytes().all(|c| c.is_ascii_digit()) => {
                        let rp = skip_ws_back(s, rst);
                        if rp >= 1 && b[rp - 1] == b'.' {
                            let rq = skip_ws_back(s, rp - 1);
                            match ident_before(s, rq) {
                                Some((ost, "self")) if ost == 0 || b[ost - 1] != b'.' => {
                                    Receiver::SelfField(recv_id.to_string())
                                }
                                _ => Receiver::Chained,
                            }
                        } else if recv_id == "self" {
                            Receiver::SelfVal
                        } else {
                            Receiver::Ident(recv_id.to_string())
                        }
                    }
                    _ => Receiver::Chained,
                }
            } else {
                Receiver::None
            };
            let targets = self.resolve_targets(f, &recv, name);
            out.push(CallSite { offset: st, name: name.to_string(), recv, targets });
        }
        out
    }

    /// Fn indices matching an entry spec (`Type::name` or bare `name`),
    /// test code excluded.
    pub fn entry_indices(&self, spec: &str) -> Vec<usize> {
        let hits = if spec.contains("::") {
            self.by_qualified.get(spec).cloned().unwrap_or_default()
        } else {
            let mut v = self.free_by_name.get(spec).cloned().unwrap_or_default();
            v.extend(self.methods_by_name.get(spec).cloned().unwrap_or_default());
            v
        };
        hits.into_iter().filter(|&i| !self.fns[i].is_test).collect()
    }

    /// BFS over call edges from the entry specs, recording discovery
    /// parents for diagnostics.
    pub fn reachable_from(&self, entries: &[String]) -> Reachability {
        let mut parent: BTreeMap<usize, Option<usize>> = BTreeMap::new();
        let mut queue = VecDeque::new();
        for spec in entries {
            for idx in self.entry_indices(spec) {
                parent.entry(idx).or_insert(None);
                queue.push_back(idx);
            }
        }
        while let Some(cur) = queue.pop_front() {
            for site in &self.sites[cur] {
                for &t in &site.targets {
                    if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(t) {
                        e.insert(Some(cur));
                        queue.push_back(t);
                    }
                }
            }
        }
        Reachability { parent }
    }

    /// Human-readable discovery chain: `Entry → A::b → C::d`.
    pub fn chain(&self, reach: &Reachability, idx: usize) -> String {
        let mut names = vec![self.fns[idx].qualified()];
        let mut cur = idx;
        for _ in 0..32 {
            match reach.parent.get(&cur) {
                Some(Some(p)) => {
                    names.push(self.fns[*p].qualified());
                    cur = *p;
                }
                _ => break,
            }
        }
        names.reverse();
        names.join(" → ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(srcs: &[&str]) -> (Vec<SourceFile>, CallGraph) {
        let files: Vec<SourceFile> = srcs
            .iter()
            .enumerate()
            .map(|(i, s)| SourceFile::parse(&format!("f{i}.rs"), s, false))
            .collect();
        let g = CallGraph::build(&files);
        (files, g)
    }

    fn reachable_names(g: &CallGraph, entries: &[&str]) -> Vec<String> {
        let specs: Vec<String> = entries.iter().map(|s| s.to_string()).collect();
        let r = g.reachable_from(&specs);
        r.parent.keys().map(|&i| g.fns[i].qualified()).collect()
    }

    #[test]
    fn transitive_reachability_two_calls_deep() {
        let (_, g) = graph(&[
            "struct Sim { rig: Rig }\nimpl Sim {\n  fn step(&mut self) { self.rig.advance(); }\n}\n",
            "pub struct Rig;\nimpl Rig {\n  pub fn advance(&mut self) { deep_helper(); }\n}\nfn deep_helper() { }\nfn unrelated() { }\n",
        ]);
        let names = reachable_names(&g, &["Sim::step"]);
        assert_eq!(names, vec!["Sim::step", "Rig::advance", "deep_helper"]);
    }

    #[test]
    fn cfg_test_fns_are_not_targets() {
        let (_, g) = graph(&[
            "fn live() { helper(); }\n#[cfg(test)]\nmod t {\n  fn helper() { panic!(\"x\") }\n}\nfn helper() { }\n",
        ]);
        let r = g.reachable_from(&["live".to_string()]);
        let hit: Vec<_> =
            r.parent.keys().map(|&i| (g.fns[i].qualified(), g.fns[i].is_test)).collect();
        assert_eq!(hit.len(), 2);
        assert!(hit.iter().all(|(_, is_test)| !is_test));
    }

    #[test]
    fn foreign_receiver_types_produce_no_edges() {
        let (_, g) = graph(&[
            "struct S { rng: SmallRng }\nimpl S {\n  fn roll(&mut self) { self.rng.gen(); }\n}\nstruct T;\nimpl T {\n  fn gen(&self) { }\n}\n",
        ]);
        let names = reachable_names(&g, &["S::roll"]);
        assert_eq!(names, vec!["S::roll"], "SmallRng is foreign; T::gen must not link");
    }

    #[test]
    fn unresolved_receiver_falls_back_to_name_match() {
        let (_, g) = graph(&[
            "fn run() { make().go(); }\nstruct W;\nimpl W {\n  fn go(&self) { }\n}\nfn make() -> W { W }\n",
        ]);
        let names = reachable_names(&g, &["run"]);
        assert!(
            names.contains(&"W::go".to_string()),
            "chained receiver over-approximates: {names:?}"
        );
    }

    #[test]
    fn dyn_trait_fields_fan_out_to_impls() {
        let (_, g) = graph(&[
            "struct Host { policy: Box<dyn Policy> }\nimpl Host {\n  fn tick(&self) { self.policy.decide(); }\n}\n",
            "pub trait Policy {\n  fn decide(&self);\n}\nstruct Strict;\nimpl Policy for Strict {\n  fn decide(&self) { inner(); }\n}\nfn inner() { }\n",
        ]);
        let names = reachable_names(&g, &["Host::tick"]);
        assert!(names.contains(&"Strict::decide".to_string()), "{names:?}");
        assert!(names.contains(&"inner".to_string()), "{names:?}");
    }

    #[test]
    fn alias_expansion_reaches_inner_type() {
        let (_, g) = graph(&[
            "type Shared = Arc<Mutex<Det>>;\nstruct App { det: Shared }\nimpl App {\n  fn poll(&self) { self.det.assess(); }\n}\nstruct Det;\nimpl Det {\n  fn assess(&self) { }\n}\n",
        ]);
        // The field core type is the alias name; resolve_core expands it.
        assert_eq!(g.resolve_core("Shared"), ("Det".to_string(), true));
        let names = reachable_names(&g, &["App::poll"]);
        assert!(names.contains(&"Det::assess".to_string()), "{names:?}");
    }

    #[test]
    fn param_typed_receivers_resolve_exactly() {
        let (_, g) = graph(&[
            "fn drive(rig: &mut Rig) { rig.fire(); }\nstruct Rig;\nimpl Rig {\n  fn fire(&mut self) { }\n}\nstruct Other;\nimpl Other {\n  fn fire(&mut self) { }\n}\n",
        ]);
        let names = reachable_names(&g, &["drive"]);
        assert!(names.contains(&"Rig::fire".to_string()));
        assert!(!names.contains(&"Other::fire".to_string()), "param type is known: {names:?}");
    }

    #[test]
    fn path_calls_and_self_calls_resolve() {
        let (_, g) = graph(&[
            "struct A;\nimpl A {\n  fn new() -> A { A }\n  fn run(&self) { self.helper(); A::new(); Self::stat(); }\n  fn helper(&self) { }\n  fn stat() { }\n}\n",
        ]);
        let names = reachable_names(&g, &["A::run"]);
        // Declaration order: fn indices, not alphabetical.
        assert_eq!(names, vec!["A::new", "A::run", "A::helper", "A::stat"]);
    }

    #[test]
    fn chain_renders_discovery_path() {
        let (_, g) = graph(&["fn a() { b(); }\nfn b() { c(); }\nfn c() { }\n"]);
        let r = g.reachable_from(&["a".to_string()]);
        let c_idx = (0..g.fns.len()).find(|&i| g.fns[i].name == "c").unwrap();
        assert_eq!(g.chain(&r, c_idx), "a → b → c");
    }
}
