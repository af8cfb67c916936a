#![forbid(unsafe_code)]
#![deny(missing_docs)]
//! `thrifty-lint` — a workspace-wide invariant checker.
//!
//! The repo's headline results rest on three invariants that ordinary
//! tests can only spot-check: **bit-reproducible simulation** (the golden
//! figure vectors), **panic-free wire/NAL parsing** (hostile bytes must
//! become counted erasures feeding the distortion model, never aborts),
//! and **numeric discipline** in the queueing solves behind the paper's
//! delay/energy savings. This crate turns those conventions into a
//! mechanical, CI-gated guarantee: a hand-rolled comment/string-aware Rust
//! lexer plus a tiered rule engine that walks every `.rs` file in the
//! workspace.
//!
//! Run it with `cargo run -p thrifty-lint` or `thrifty lint`; add `--json`
//! for a machine-readable report. Violations exit non-zero unless waived
//! in place with an audited `// lint:allow(<rule>): <reason>` comment.
//! The report is deterministic (path-sorted, no timestamps) so two runs
//! over the same tree are byte-identical — the linter holds itself to the
//! same standard it enforces.

pub mod callgraph;
pub mod dataflow;
pub mod deadpub;
pub mod lexer;
pub mod locks;
pub mod parse;
pub mod report;
pub mod rules;
pub mod scope;
pub mod taint;
pub mod waiver;
pub mod walk;

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::io::Write as _;
use std::path::Path;

pub use report::{Finding, Report};

/// Lint one source text as if it lived at `rel_path` (workspace-relative,
/// `/` separators). The path drives rule scoping — deterministic crates,
/// wire files, test directories — so fixtures can be linted "as" any file.
pub fn scan_source(rel_path: &str, src: &str) -> Vec<Finding> {
    let toks = lexer::lex(src);
    let regions = scope::test_regions(rel_path, &toks);
    rules::check_file(rel_path, &toks, &regions)
}

/// Lint a whole set of sources together: the token tiers per file, plus
/// the call-graph tiers (transitive taint, plaintext-escape dataflow,
/// lock ordering) and the dead-`pub` tier across all of them, with waivers
/// applied once per file over the combined findings. The report also
/// counts each crate's non-test lines.
///
/// `files` is `(workspace-relative path, source text)` pairs; they are
/// sorted by path internally so reports are deterministic regardless of
/// input order.
pub fn scan_sources(files: &[(String, String)]) -> Report {
    let mut sorted: Vec<&(String, String)> = files.iter().collect();
    sorted.sort_by(|a, b| a.0.cmp(&b.0));

    // Pass 1: lex, test regions, token-tier findings, item parse, waivers,
    // non-test line counts.
    struct Pre<'a> {
        path: &'a str,
        toks: Vec<lexer::Tok>,
        regions: scope::TestRegions,
        raw: Vec<Finding>,
    }
    let mut pres: Vec<Pre<'_>> = Vec::with_capacity(sorted.len());
    let mut indexes: Vec<parse::FileIndex> = Vec::with_capacity(sorted.len());
    let mut waivers_by_path: BTreeMap<&str, Vec<waiver::Waiver>> = BTreeMap::new();
    let mut non_test_lines: BTreeMap<String, usize> = BTreeMap::new();
    for (path, src) in &sorted {
        let toks = lexer::lex(src);
        let regions = scope::test_regions(path, &toks);
        let raw = rules::check_tokens(path, &toks, &regions);
        indexes.push(parse::index_file(path, &toks, &regions));
        waivers_by_path.insert(path.as_str(), waiver::collect(&toks));
        if let Some(dir) = report::crate_dir(path) {
            let lines = (1..=src.lines().count() as u32)
                .filter(|&l| !regions.is_test_line(l))
                .count();
            *non_test_lines.entry(dir).or_default() += lines;
        }
        pres.push(Pre {
            path,
            toks,
            regions,
            raw,
        });
    }

    // Pass 2: the call-graph tiers. `waived` answers whether a well-formed
    // waiver in `path` covers `line` for `rule` — used both to silence
    // at-source facts and to stop taint at audited boundaries.
    let waived = |path: &str, line: u32, rule: &str| -> bool {
        waivers_by_path.get(path).is_some_and(|ws| {
            ws.iter().any(|w| {
                w.malformed.is_none() && w.target_line == line && w.rules.iter().any(|r| r == rule)
            })
        })
    };
    let graph = callgraph::CallGraph::build(&indexes);
    let mut extra: Vec<Finding> = taint::taint_findings(&graph, &waived);
    extra.extend(dataflow::dataflow_findings(&graph));
    extra.extend(locks::lock_findings(&graph));
    let with_regions: Vec<(&parse::FileIndex, &scope::TestRegions)> = indexes
        .iter()
        .zip(pres.iter().map(|p| &p.regions))
        .collect();
    extra.extend(deadpub::dead_pub_findings(&with_regions));

    // Pass 3: merge per file and apply waivers once over the union.
    let mut extra_by_path: BTreeMap<&str, Vec<Finding>> = BTreeMap::new();
    for f in extra {
        // Findings are keyed back to their file; the path always comes
        // from the scanned set, so the lookup below cannot miss.
        let key = pres
            .iter()
            .find(|p| p.path == f.path)
            .map(|p| p.path)
            .unwrap_or("");
        extra_by_path.entry(key).or_default().push(f);
    }
    let mut report = Report {
        findings: Vec::new(),
        files_scanned: sorted.len(),
        non_test_lines,
    };
    for pre in pres {
        let mut combined = pre.raw;
        if let Some(more) = extra_by_path.remove(pre.path) {
            combined.extend(more);
        }
        report
            .findings
            .extend(rules::apply_waivers(pre.path, &pre.toks, combined));
    }
    report.normalize();
    report
}

/// Walk every `.rs` file under `root` and produce the normalized report
/// (token tiers and call-graph tiers alike).
pub fn scan_workspace(root: &Path) -> io::Result<Report> {
    let files = walk::rust_files(root)?;
    let mut sources: Vec<(String, String)> = Vec::with_capacity(files.len());
    for rel in files {
        let src = fs::read_to_string(root.join(&rel))?;
        sources.push((rel, src));
    }
    Ok(scan_sources(&sources))
}

/// Shared CLI driver for the `thrifty-lint` binary and the `thrifty lint`
/// subcommand. Returns the process exit code: 0 clean, 1 findings, 2 usage
/// or I/O error.
pub fn run_cli(args: &[String]) -> u8 {
    let mut json = false;
    let mut root_arg: Option<String> = None;
    let mut tiers: Vec<String> = Vec::new();
    let mut baseline_arg: Option<String> = None;
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--json" => json = true,
            "--root" => match iter.next() {
                Some(r) => root_arg = Some(r.clone()),
                None => {
                    eprintln!("--root requires a path");
                    return 2;
                }
            },
            "--tier" => match iter.next() {
                Some(t) => {
                    if !rules::RULES.iter().any(|r| r.tier == t.as_str()) {
                        eprintln!(
                            "unknown tier `{t}` (known: {})",
                            known_tiers().join(", ")
                        );
                        return 2;
                    }
                    if !tiers.contains(t) {
                        tiers.push(t.clone());
                    }
                }
                None => {
                    eprintln!("--tier requires a tier name (one of: {})", known_tiers().join(", "));
                    return 2;
                }
            },
            "--baseline" => match iter.next() {
                Some(p) => baseline_arg = Some(p.clone()),
                None => {
                    eprintln!("--baseline requires a path to a committed --json report");
                    return 2;
                }
            },
            "--list-rules" => {
                // Tolerate a closed pipe (`thrifty lint --list-rules | head`):
                // a lint tool must not panic on EPIPE.
                let mut out = io::stdout().lock();
                for r in rules::RULES {
                    let _ = writeln!(out, "{:<22} [{}] {}", r.name, r.tier, r.summary);
                }
                return 0;
            }
            "--help" | "-h" => {
                let _ = writeln!(
                    io::stdout().lock(),
                    "thrifty-lint — workspace invariant checker\n\n\
                     USAGE: thrifty-lint [--json] [--root <dir>] [--tier <t>]…\n\
                            [--baseline <report.json>] [--list-rules]\n\n\
                     Walks every .rs file in the workspace and enforces the\n\
                     token tiers (determinism, panic-free, numeric) plus the\n\
                     call-graph tiers (taint, dataflow, locks, hygiene) and\n\
                     the dead-pub tier (dead); see --list-rules. `--tier`\n\
                     restricts the *report* to the named tier(s) — analysis\n\
                     always runs in full so waiver accounting stays exact.\n\
                     `--baseline` suppresses the findings recorded in a\n\
                     committed --json report. `--json` also counts each\n\
                     crate's non-test lines. Exits non-zero on any\n\
                     remaining unwaived finding. Waive locally with\n\
                     `// lint:allow(<rule>): <reason>`."
                );
                return 0;
            }
            other => {
                eprintln!("unknown argument `{other}` (try --help)");
                return 2;
            }
        }
    }
    let root = match root_arg {
        Some(r) => std::path::PathBuf::from(r),
        None => {
            let cwd = match std::env::current_dir() {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("cannot determine current directory: {e}");
                    return 2;
                }
            };
            match walk::find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!("no workspace root found above the current directory; pass --root");
                    return 2;
                }
            }
        }
    };
    let baseline: Vec<Finding> = match &baseline_arg {
        None => Vec::new(),
        Some(p) => {
            let text = match fs::read_to_string(p) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("cannot read baseline `{p}`: {e}");
                    return 2;
                }
            };
            match report::parse_baseline(&text) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("cannot parse baseline `{p}`: {e}");
                    return 2;
                }
            }
        }
    };
    match scan_workspace(&root) {
        Ok(mut report) => {
            if !tiers.is_empty() {
                report.findings.retain(|f| {
                    rules::RULES
                        .iter()
                        .any(|r| r.name == f.rule && tiers.iter().any(|t| t == r.tier))
                });
            }
            if !baseline.is_empty() {
                report.findings.retain(|f| !baseline.contains(f));
            }
            let rendered = if json {
                report.render_json()
            } else {
                report.render_text()
            };
            let _ = io::stdout().lock().write_all(rendered.as_bytes());
            if report.findings.is_empty() {
                0
            } else {
                1
            }
        }
        Err(e) => {
            eprintln!("scan failed: {e}");
            2
        }
    }
}

/// The tier names `--tier` accepts, deduplicated in declaration order.
fn known_tiers() -> Vec<&'static str> {
    let mut out: Vec<&'static str> = Vec::new();
    for r in rules::RULES {
        if !out.contains(&r.tier) {
            out.push(r.tier);
        }
    }
    out
}
