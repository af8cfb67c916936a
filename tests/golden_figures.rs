//! Golden-vector regression suite: every figure in the golden set must
//! reproduce its pinned `tests/golden/*.json` snapshot **exactly** — every
//! number bit-identical, every label byte-identical (tolerance 0).
//!
//! After an *intentional* output change, regenerate the snapshots with
//! `scripts/bless.sh` (or `GOLDEN_BLESS=1 cargo test --test golden_figures`)
//! and review the diff like any other code change.

use std::fs;
use std::path::PathBuf;

use thrifty_bench::{diff_against_golden, golden_figures, parse_table_json};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn blessing() -> bool {
    std::env::var_os("GOLDEN_BLESS").is_some_and(|v| v == "1")
}

#[test]
fn figures_match_their_golden_vectors() {
    let dir = golden_dir();
    let bless = blessing();
    if bless {
        fs::create_dir_all(&dir).expect("create tests/golden");
    }
    let mut failures = Vec::new();
    for (name, table) in golden_figures() {
        let path = dir.join(format!("{name}.json"));
        let fresh_json = table.to_json();
        if bless {
            fs::write(&path, format!("{fresh_json}\n")).expect("write golden");
            eprintln!("blessed {}", path.display());
            continue;
        }
        let Ok(stored) = fs::read_to_string(&path) else {
            failures.push(format!(
                "{name}: missing snapshot {} — run scripts/bless.sh",
                path.display()
            ));
            continue;
        };
        let Some(golden) = parse_table_json(stored.trim_end()) else {
            failures.push(format!(
                "{name}: snapshot {} is not a table JSON — re-bless or restore it",
                path.display()
            ));
            continue;
        };
        for diff in diff_against_golden(&golden, &table) {
            failures.push(format!("{name}: {diff}"));
        }
        // Belt and braces: the rendered JSON must also match byte-for-byte
        // (catches renderer changes the parsed diff would normalise away).
        if stored.trim_end() != fresh_json {
            failures.push(format!("{name}: rendered JSON differs from snapshot"));
        }
    }
    assert!(
        failures.is_empty(),
        "golden-vector mismatches (intentional? run scripts/bless.sh):\n  {}",
        failures.join("\n  ")
    );
}

#[test]
fn golden_snapshots_are_committed() {
    if blessing() {
        return; // files are being (re)written by the other test
    }
    let dir = golden_dir();
    for name in [
        "fig2_distortion",
        "fig4_gop30",
        "fig5_gop30",
        "table2",
        "headline",
        "ablation_d_percentiles",
        "fountain_matrix",
        "fault_matrix",
        "chaos_matrix",
    ] {
        assert!(
            dir.join(format!("{name}.json")).is_file(),
            "tests/golden/{name}.json missing — run scripts/bless.sh and commit it"
        );
    }
}
