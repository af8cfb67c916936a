//! The dead-code tier: `pub` items of a library crate that nothing names.
//!
//! rustc's `dead_code` lint stops at a library's public surface, because
//! another crate might use a `pub` item. In a closed workspace that can be
//! checked. This tier looks at every bare-`pub` item declared under
//! `crates/<c>/src/` of a library crate (one whose `src/lib.rs` is in the
//! scan; `src/main.rs` and `src/bin/` are binaries) and asks whether any
//! identifier token names it outside its own file's test regions.
//!
//! Liveness is decided by identifier mentions, not call-graph edges, so a
//! function passed as a pointer (`map_or(0.0, LossPoint::air)`) or a type
//! named only in a signature counts as used. A type that its own file's
//! public signatures name (a `pub fn`'s return type, a `pub` field, a
//! `pub enum` variant, a trait impl's `type Err`) is part of that API and
//! is not flagged either. Declaration names, the self type of an `impl`
//! header and the tokens of a `pub use` re-export are not mentions (see
//! [`crate::parse::FileIndex::non_mentions`]). Every other file is a
//! caller: non-test code, integration tests, benches, examples, binaries
//! and the benchmark harness. Name collisions can only hide a dead item,
//! never flag a live one.

use crate::lexer::{Tok, TokKind};
use crate::parse::FileIndex;
use crate::report::Finding;
use crate::rules;
use crate::scope::TestRegions;
use std::collections::{BTreeMap, BTreeSet};

/// True when `path` is library source: under `crates/<c>/src/`, not a
/// binary target, in a crate whose `src/lib.rs` is among `paths`.
fn in_library(path: &str, paths: &BTreeSet<&str>) -> bool {
    let parts: Vec<&str> = path.split('/').collect();
    match parts.as_slice() {
        ["crates", c, "src", rest @ ..] => {
            !matches!(rest, ["main.rs"] | ["bin", ..])
                && paths.contains(format!("crates/{c}/src/lib.rs").as_str())
        }
        _ => false,
    }
}

/// The identifier tokens of `f` that mention an item, with their indexes.
fn mentions(f: &FileIndex) -> impl Iterator<Item = (usize, &Tok)> + '_ {
    f.code
        .iter()
        .enumerate()
        .filter(|(i, t)| t.kind == TokKind::Ident && !f.non_mentions.contains(i))
}

/// `dead-pub` findings over a whole scan. `files` pairs each parsed file
/// with its test regions.
pub fn dead_pub_findings(files: &[(&FileIndex, &TestRegions)]) -> Vec<Finding> {
    let paths: BTreeSet<&str> = files.iter().map(|(f, _)| f.path.as_str()).collect();
    let mut total: BTreeMap<&str, usize> = BTreeMap::new();
    for (f, _) in files {
        for (_, t) in mentions(f) {
            *total.entry(t.text.as_str()).or_default() += 1;
        }
    }
    let mut out = Vec::new();
    for (f, regions) in files {
        if f.pub_items.is_empty() || !in_library(&f.path, &paths) {
            continue;
        }
        // This file's own mentions, as (non-test, test) counts, and the
        // names its public signatures export.
        let mut own: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
        let mut exported: BTreeSet<&str> = BTreeSet::new();
        for (i, t) in mentions(f) {
            let e = own.entry(t.text.as_str()).or_default();
            if regions.is_test_line(t.line) {
                e.1 += 1;
            } else {
                e.0 += 1;
                if f.signatures.contains(&i) {
                    exported.insert(t.text.as_str());
                }
            }
        }
        for item in &f.pub_items {
            let name = item.name.as_str();
            let (code, test) = own.get(name).copied().unwrap_or_default();
            if total.get(name).copied().unwrap_or(0) > code + test || exported.contains(name) {
                continue; // named in another file, or by a public signature
            }
            let verdict = if code > 0 {
                "is named only in this file — drop `pub`"
            } else {
                "is named nowhere outside this file's tests — delete it with the tests that only exercise it"
            };
            out.push(Finding {
                path: f.path.clone(),
                line: item.line,
                rule: rules::DEAD_PUB.to_string(),
                message: format!("`pub {} {name}` {verdict}", item.kind),
            });
        }
    }
    out
}
