//! Cross-crate call graph over the parsed workspace.
//!
//! Resolution is deliberately modest: a call edge is created only when the
//! callee name matches a function *defined in the workspace*, preferring
//! same-file, then import-directed, then same-crate candidates. `std` and
//! truly external names simply resolve to nothing, which is exactly what
//! the taint tiers want — external sinks (`Instant::now`, `thread_rng`)
//! are modelled as *facts* inside the calling function, not as edges.
//! Ambiguity errs on the side of more edges (a taint analysis wants
//! over-approximation), but uppercase-initial bare calls, std-staple
//! method names and unimported cross-crate simple names are excluded to
//! keep the graph honest.

use crate::parse::{Call, FileIndex, FnItem};
use std::collections::BTreeMap;

/// A function's position in the workspace: `(file index, fn index)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct FnId {
    /// Index into the file list handed to [`CallGraph::build`].
    pub file: usize,
    /// Index into that file's [`FileIndex::fns`].
    pub item: usize,
}

/// The workspace call graph: every parsed function, indexed for the three
/// resolution strategies (simple name, method name, `Owner::name`).
pub struct CallGraph<'a> {
    /// The parsed files the graph was built from, in path order.
    pub files: &'a [FileIndex],
    /// Every function id, in (file, item) order — the canonical iteration
    /// order for deterministic reports.
    pub fns: Vec<FnId>,
    simple: BTreeMap<String, Vec<FnId>>,
    methods: BTreeMap<String, Vec<FnId>>,
    owned: BTreeMap<(String, String), Vec<FnId>>,
}

impl<'a> CallGraph<'a> {
    /// Build the graph indexes. `files` must be sorted by path (the
    /// workspace walker guarantees this) so ids are deterministic.
    pub fn build(files: &'a [FileIndex]) -> Self {
        let mut fns = Vec::new();
        let mut simple: BTreeMap<String, Vec<FnId>> = BTreeMap::new();
        let mut methods: BTreeMap<String, Vec<FnId>> = BTreeMap::new();
        let mut owned: BTreeMap<(String, String), Vec<FnId>> = BTreeMap::new();
        for (fi, file) in files.iter().enumerate() {
            for (ii, f) in file.fns.iter().enumerate() {
                let id = FnId { file: fi, item: ii };
                fns.push(id);
                match &f.owner {
                    None => simple.entry(f.name.clone()).or_default().push(id),
                    Some(o) => {
                        methods.entry(f.name.clone()).or_default().push(id);
                        owned
                            .entry((o.clone(), f.name.clone()))
                            .or_default()
                            .push(id);
                    }
                }
            }
        }
        CallGraph {
            files,
            fns,
            simple,
            methods,
            owned,
        }
    }

    /// The [`FnItem`] behind an id.
    pub fn item(&self, id: FnId) -> &FnItem {
        &self.files[id.file].fns[id.item]
    }

    /// Qualified display name: `sim::run_pipeline`, `fleet::SolveCache::dcf`.
    pub fn qual(&self, id: FnId) -> String {
        let file = &self.files[id.file];
        let f = self.item(id);
        match &f.owner {
            Some(o) => format!("{}::{}::{}", file.crate_name, o, f.name),
            None => format!("{}::{}", file.crate_name, f.name),
        }
    }

    /// Workspace-relative path of the file defining `id`.
    pub fn path(&self, id: FnId) -> &str {
        &self.files[id.file].path
    }

    /// Resolve one call site in `caller` to its candidate workspace
    /// targets, most-plausible-first filtering applied. An empty result
    /// means the callee is external (or too ambiguous to claim).
    pub fn resolve(&self, caller: FnId, call: &Call) -> Vec<FnId> {
        let file = &self.files[caller.file];
        if call.method {
            let name = &call.path[0];
            let cands = match self.methods.get(name) {
                Some(c) => c,
                None => return Vec::new(),
            };
            return self.prefer_local(caller.file, &file.crate_name, cands);
        }
        match call.path.as_slice() {
            [name] => {
                let cands = match self.simple.get(name) {
                    Some(c) => c.as_slice(),
                    None => return Vec::new(),
                };
                // Same file beats everything.
                let here: Vec<FnId> =
                    cands.iter().copied().filter(|id| id.file == caller.file).collect();
                if !here.is_empty() {
                    return here;
                }
                // An explicit import pins the source crate.
                if let Some(src_crate) = file.imports.get(name) {
                    let imported: Vec<FnId> = cands
                        .iter()
                        .copied()
                        .filter(|id| &self.files[id.file].crate_name == src_crate)
                        .collect();
                    if !imported.is_empty() {
                        return imported;
                    }
                }
                // Same crate (sibling module) still plausible.
                let same_crate: Vec<FnId> = cands
                    .iter()
                    .copied()
                    .filter(|id| self.files[id.file].crate_name == file.crate_name)
                    .collect();
                if !same_crate.is_empty() {
                    return same_crate;
                }
                // Glob imports are the last honest channel for bare names.
                let globbed: Vec<FnId> = cands
                    .iter()
                    .copied()
                    .filter(|id| file.glob_imports.contains(&self.files[id.file].crate_name))
                    .collect();
                globbed
            }
            [.., prev, name] => {
                let prev = if prev == "Self" {
                    match &self.item(caller).owner {
                        Some(o) => o.clone(),
                        None => return Vec::new(),
                    }
                } else {
                    prev.clone()
                };
                // A `thrifty_x::…` or crate-name first segment pins the crate.
                let crate_pin: Option<String> = call.path.first().and_then(|s| {
                    let short = s.strip_prefix("thrifty_").unwrap_or(s);
                    if s == "crate" || s == "self" {
                        Some(file.crate_name.clone())
                    } else if self.files.iter().any(|f| f.crate_name == short)
                        && call.path.len() > 2
                    {
                        Some(short.to_string())
                    } else {
                        None
                    }
                });
                if prev.chars().next().is_some_and(|c| c.is_uppercase()) {
                    // `Type::method`
                    let cands = match self.owned.get(&(prev, name.clone())) {
                        Some(c) => c.as_slice(),
                        None => return Vec::new(),
                    };
                    let pinned: Vec<FnId> = match &crate_pin {
                        Some(p) => cands
                            .iter()
                            .copied()
                            .filter(|id| &self.files[id.file].crate_name == p)
                            .collect(),
                        None => cands.to_vec(),
                    };
                    self.prefer_local(caller.file, &file.crate_name, &pinned)
                } else {
                    // `module::fn` — match free functions whose file stem or
                    // crate matches the module segment.
                    let cands = match self.simple.get(name) {
                        Some(c) => c.as_slice(),
                        None => return Vec::new(),
                    };
                    let module = prev;
                    let matched: Vec<FnId> = cands
                        .iter()
                        .copied()
                        .filter(|id| {
                            let f = &self.files[id.file];
                            (f.module == module || f.crate_name == module)
                                && crate_pin
                                    .as_ref()
                                    .is_none_or(|p| &f.crate_name == p)
                        })
                        .collect();
                    self.prefer_local(caller.file, &file.crate_name, &matched)
                }
            }
            [] => Vec::new(),
        }
    }

    /// Narrow candidates to same-file, else same-crate, else all.
    fn prefer_local(&self, file: usize, crate_name: &str, cands: &[FnId]) -> Vec<FnId> {
        let here: Vec<FnId> = cands.iter().copied().filter(|id| id.file == file).collect();
        if !here.is_empty() {
            return here;
        }
        let same: Vec<FnId> = cands
            .iter()
            .copied()
            .filter(|id| self.files[id.file].crate_name == crate_name)
            .collect();
        if !same.is_empty() {
            return same;
        }
        cands.to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parse::index_file;
    use crate::scope::test_regions;

    fn build_files(files: &[(&str, &str)]) -> Vec<FileIndex> {
        files
            .iter()
            .map(|(p, s)| {
                let toks = lex(s);
                let regions = test_regions(p, &toks);
                index_file(p, &toks, &regions)
            })
            .collect()
    }

    #[test]
    fn simple_call_resolves_same_file_first() {
        let files = build_files(&[
            ("crates/net/src/a.rs", "fn go() { helper(); } fn helper() {}"),
            ("crates/sim/src/b.rs", "fn helper() {}"),
        ]);
        let g = CallGraph::build(&files);
        let caller = FnId { file: 0, item: 0 };
        let t = g.resolve(caller, &g.item(caller).calls[0]);
        assert_eq!(t, vec![FnId { file: 0, item: 1 }]);
    }

    #[test]
    fn imported_call_resolves_cross_crate() {
        let files = build_files(&[
            (
                "crates/sim/src/a.rs",
                "use thrifty_video::nal::write_annex_b;\nfn go() { write_annex_b(&[]); }",
            ),
            ("crates/video/src/nal.rs", "pub fn write_annex_b(n: &[u8]) {}"),
        ]);
        let g = CallGraph::build(&files);
        let caller = FnId { file: 0, item: 0 };
        let t = g.resolve(caller, &g.item(caller).calls[0]);
        assert_eq!(t, vec![FnId { file: 1, item: 0 }]);
        assert_eq!(g.qual(t[0]), "video::write_annex_b");
    }

    #[test]
    fn type_method_resolves_by_owner() {
        let files = build_files(&[
            (
                "crates/sim/src/a.rs",
                "fn go() { SegmentCipher::new(1); }",
            ),
            (
                "crates/crypto/src/segment.rs",
                "impl SegmentCipher { pub fn new(k: u64) -> Self { Self } }",
            ),
        ]);
        let g = CallGraph::build(&files);
        let caller = FnId { file: 0, item: 0 };
        let t = g.resolve(caller, &g.item(caller).calls[0]);
        assert_eq!(t.len(), 1);
        assert_eq!(g.qual(t[0]), "crypto::SegmentCipher::new");
    }

    #[test]
    fn unimported_bare_name_does_not_cross_crates() {
        let files = build_files(&[
            ("crates/sim/src/a.rs", "fn go() { helper(); }"),
            ("crates/video/src/b.rs", "pub fn helper() {}"),
        ]);
        let g = CallGraph::build(&files);
        let caller = FnId { file: 0, item: 0 };
        assert!(g.resolve(caller, &g.item(caller).calls[0]).is_empty());
    }
}
