//! Integration coverage for the call-graph tiers: transitive taint with
//! full chain rendering, plaintext-escape dataflow, lock-order analysis,
//! the `--tier` / `--baseline` CLI contract, and double-scan byte-identity
//! of the `--json` output for the call-graph and dead-pub rules.

use thrifty_lint::report::parse_baseline;
use thrifty_lint::{run_cli, scan_sources, scan_workspace, Report};

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// Scan an in-memory virtual workspace.
fn scan(files: &[(&str, &str)]) -> Report {
    let owned: Vec<(String, String)> = files
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect();
    scan_sources(&owned)
}

fn cli(args: &[&str]) -> u8 {
    let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    run_cli(&owned)
}

/// Materialise a virtual workspace under `target/` for CLI-level tests.
fn temp_workspace(name: &str, files: &[(&str, &str)]) -> std::path::PathBuf {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/lint-cli-tests")
        .join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    for (rel, src) in files {
        let path = dir.join(rel);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, src).unwrap();
    }
    dir
}

// ---- det-taint / panic-taint --------------------------------------------

#[test]
fn det_taint_reports_the_full_chain_with_file_and_line_per_hop() {
    let root = fixture("taint_chain_root.rs");
    let helper = fixture("taint_chain_helper.rs");
    let report = scan(&[
        ("crates/sim/src/fixture.rs", root.as_str()),
        ("crates/net/src/helper.rs", helper.as_str()),
    ]);
    assert_eq!(report.findings.len(), 1, "findings: {:?}", report.findings);
    let f = &report.findings[0];
    assert_eq!(
        (f.path.as_str(), f.line, f.rule.as_str()),
        ("crates/sim/src/fixture.rs", 6, "det-taint")
    );
    assert_eq!(
        f.message,
        "transitively reaches `Instant::now` (non-determinism): \
         sim::run_fixture (crates/sim/src/fixture.rs:6) → \
         net::stamp (crates/net/src/helper.rs:5) → \
         net::inner (crates/net/src/helper.rs:9) → \
         `Instant::now` (crates/net/src/helper.rs:9)"
    );
}

#[test]
fn waived_taint_call_site_is_an_audited_boundary_that_stops_propagation() {
    let helper = fixture("taint_chain_helper.rs");
    let report = scan(&[
        (
            "crates/sim/src/fixture.rs",
            "//! Fixture.\n\
             use thrifty_net::helper::stamp;\n\
             \n\
             pub fn run_fixture() -> u64 {\n\
                 stamp() // lint:allow(det-taint): audited fixture boundary\n\
             }\n",
        ),
        ("crates/net/src/helper.rs", helper.as_str()),
        (
            "crates/fleet/src/fixture.rs",
            "//! Fixture.\n\
             use thrifty_sim::fixture::run_fixture;\n\
             \n\
             pub fn fan_out() -> u64 {\n\
                 run_fixture()\n\
             }\n",
        ),
    ]);
    // The waiver suppresses the sim finding, counts as used (no
    // waiver-unused meta finding), and the fleet caller stays clean
    // because the audit happened at the boundary.
    assert!(report.findings.is_empty(), "findings: {:?}", report.findings);
}

#[test]
fn panic_taint_reaches_wire_files_through_same_crate_helpers() {
    let report = scan(&[
        (
            "crates/net/src/wire.rs",
            "//! Fixture.\n\
             pub fn parse_len(b: &[u8]) -> u16 {\n\
                 decode_len(b)\n\
             }\n",
        ),
        (
            "crates/net/src/dcf.rs",
            "//! Fixture.\n\
             pub fn decode_len(b: &[u8]) -> u16 {\n\
                 head(b).unwrap()\n\
             }\n\
             fn head(b: &[u8]) -> Option<u16> {\n\
                 None\n\
             }\n",
        ),
    ]);
    assert_eq!(report.findings.len(), 1, "findings: {:?}", report.findings);
    let f = &report.findings[0];
    assert_eq!(
        (f.path.as_str(), f.line, f.rule.as_str()),
        ("crates/net/src/wire.rs", 3, "panic-taint")
    );
    assert_eq!(
        f.message,
        "transitively reaches `.unwrap()` (a panic site): \
         net::parse_len (crates/net/src/wire.rs:3) → \
         net::decode_len (crates/net/src/dcf.rs:3) → \
         `.unwrap()` (crates/net/src/dcf.rs:3)"
    );
}

// ---- plaintext-escape ----------------------------------------------------

#[test]
fn plaintext_escape_flags_unencrypted_sinks_and_conditional_sanitisation() {
    let src = fixture("plaintext_escape.rs");
    let report = scan(&[("crates/sim/src/fixture.rs", src.as_str())]);
    let got: Vec<(u32, &str)> = report
        .findings
        .iter()
        .map(|f| (f.line, f.rule.as_str()))
        .collect();
    // Line 7: tainted buffer straight to the channel. Line 17: sanitised
    // only inside an `if` — the conservative join keeps it tainted, so the
    // selective-encryption path must carry a waiver. Line 12 (unconditional
    // encrypt_segment before send) is clean. Line 25: a struct literal
    // carries its tainted field into the binding, which is emitted as the
    // sink's receiver; line 24 emits a literal built from clean fields.
    assert_eq!(
        got,
        vec![
            (7, "plaintext-escape"),
            (17, "plaintext-escape"),
            (25, "plaintext-escape")
        ],
        "findings: {:?}",
        report.findings
    );
    assert!(report.findings[0]
        .message
        .contains("`pkt` carries plaintext payload bytes (from `write_annex_b` at line 4) into `.send(…)`"));
    assert!(report.findings[1]
        .message
        .contains("`cond` carries plaintext payload bytes (from `write_annex_b` at line 13) into `.send(…)`"));
    assert!(report.findings[2]
        .message
        .contains("`segment` carries plaintext payload bytes (from `write_annex_b` at line 21) into `.emit(…)`"));
}

// ---- lock-order-inversion ------------------------------------------------

#[test]
fn opposite_lock_orders_are_reported_at_both_witnesses() {
    let src = fixture("lock_order.rs");
    let report = scan(&[("crates/net/src/fixture.rs", src.as_str())]);
    let got: Vec<(u32, &str)> = report
        .findings
        .iter()
        .map(|f| (f.line, f.rule.as_str()))
        .collect();
    assert_eq!(
        got,
        vec![(11, "lock-order-inversion"), (18, "lock-order-inversion")],
        "findings: {:?}",
        report.findings
    );
    assert_eq!(
        report.findings[0].message,
        "lock `b` acquired while holding `a`, but the opposite order is taken \
         at crates/net/src/fixture.rs:18 — concurrent callers can deadlock"
    );
    assert_eq!(
        report.findings[1].message,
        "lock `a` acquired while holding `b`, but the opposite order is taken \
         at crates/net/src/fixture.rs:11 — concurrent callers can deadlock"
    );
}

#[test]
fn consistent_lock_order_with_explicit_drops_is_clean() {
    let report = scan(&[(
        "crates/net/src/fixture.rs",
        "//! Fixture.\n\
         pub struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
         impl S {\n\
             pub fn one(&self) {\n\
                 let ga = self.a.lock();\n\
                 drop(ga);\n\
                 let gb = self.b.lock();\n\
                 drop(gb);\n\
             }\n\
             pub fn two(&self) {\n\
                 let gb = self.b.lock();\n\
                 drop(gb);\n\
                 let ga = self.a.lock();\n\
                 drop(ga);\n\
             }\n\
         }\n",
    )]);
    assert!(report.findings.is_empty(), "findings: {:?}", report.findings);
}

#[test]
fn lock_inversion_is_found_across_function_boundaries() {
    let report = scan(&[(
        "crates/des/src/locks_fixture.rs",
        "//! Fixture.\n\
         pub struct E {\n\
             m: Mutex<u32>,\n\
             n: Mutex<u32>,\n\
         }\n\
         impl E {\n\
             pub fn outer(&self) {\n\
                 let g = self.m.lock();\n\
                 self.bump();\n\
                 drop(g);\n\
             }\n\
             pub fn bump(&self) {\n\
                 let h = self.n.lock();\n\
                 drop(h);\n\
             }\n\
             pub fn inverse(&self) {\n\
                 let h = self.n.lock();\n\
                 let g = self.m.lock();\n\
                 drop(g);\n\
                 drop(h);\n\
             }\n\
         }\n",
    )]);
    // `outer` holds `m` while calling `bump`, which acquires `n`; `inverse`
    // takes `n` then `m` directly. The call-under-lock edge and the direct
    // edge together form the cycle.
    let got: Vec<(u32, &str)> = report
        .findings
        .iter()
        .map(|f| (f.line, f.rule.as_str()))
        .collect();
    assert_eq!(
        got,
        vec![(9, "lock-order-inversion"), (18, "lock-order-inversion")],
        "findings: {:?}",
        report.findings
    );
}

#[test]
fn reacquiring_a_held_lock_is_a_self_deadlock() {
    let report = scan(&[(
        "crates/net/src/fixture.rs",
        "//! Fixture.\n\
         pub struct Once { a: Mutex<u32> }\n\
         impl Once {\n\
             pub fn twice(&self) {\n\
                 let g = self.a.lock();\n\
                 let h = self.a.lock();\n\
                 drop(h);\n\
                 drop(g);\n\
             }\n\
         }\n",
    )]);
    assert_eq!(report.findings.len(), 1, "findings: {:?}", report.findings);
    let f = &report.findings[0];
    assert_eq!((f.line, f.rule.as_str()), (6, "lock-order-inversion"));
    assert_eq!(
        f.message,
        "lock `a` acquired while already held — self-deadlock"
    );
}

// ---- determinism of the new tiers ---------------------------------------

#[test]
fn new_tier_json_is_byte_identical_across_scans() {
    let taint_root = fixture("taint_chain_root.rs");
    let taint_helper = fixture("taint_chain_helper.rs");
    let flow = fixture("plaintext_escape.rs");
    let locks = fixture("lock_order.rs");
    let files: Vec<(&str, &str)> = vec![
        ("crates/sim/src/taint_fixture.rs", taint_root.as_str()),
        ("crates/net/src/helper.rs", taint_helper.as_str()),
        ("crates/sim/src/flow_fixture.rs", flow.as_str()),
        ("crates/net/src/lock_fixture.rs", locks.as_str()),
    ];
    let dead = fixture("dead_pub_items.rs");
    let files: Vec<(&str, &str)> = files
        .into_iter()
        .chain([
            (
                "crates/demo/src/lib.rs",
                "//! Root.\n#![forbid(unsafe_code)]\n#![deny(missing_docs)]\npub mod items;\n",
            ),
            ("crates/demo/src/items.rs", dead.as_str()),
        ])
        .collect();
    let a = scan(&files).render_json();
    let b = scan(&files).render_json();
    assert_eq!(a, b, "double scan must be byte-identical");
    // 6 call-graph findings, and 11 dead-pub items: with no callers in
    // this scan, every `pub` item of the fixture but `Exported` is dead.
    assert!(a.contains("\"finding_count\": 17"), "json: {a}");
    assert!(a.contains("det-taint"));
    assert!(a.contains("plaintext-escape"));
    assert!(a.contains("lock-order-inversion"));
    assert!(a.contains("dead-pub"));
    assert!(a.contains("\"non_test_lines\": {"));
}

// ---- --baseline and --tier ----------------------------------------------

const BAD_DET_LIB: &str = "//! Fixture crate root.\n\
     #![forbid(unsafe_code)]\n\
     #![deny(missing_docs)]\n\
     \n\
     /// A deterministic-crate function reading the wall clock.\n\
     pub fn stamp() -> u64 {\n\
         let _t = SystemTime::now();\n\
         0\n\
     }\n";

#[test]
fn baseline_suppresses_committed_findings_end_to_end() {
    let dir = temp_workspace("baseline", &[("crates/sim/src/lib.rs", BAD_DET_LIB)]);
    let root = dir.to_string_lossy().to_string();
    // Unbaselined, the wall-clock read is a finding, and so is the
    // uncalled `pub fn` (dead-pub).
    assert_eq!(cli(&["--root", &root]), 1);
    // Commit the current report as the baseline; the same scan is clean.
    let report = scan_workspace(&dir).unwrap();
    assert_eq!(report.findings.len(), 2);
    let baseline = dir.join("baseline.json");
    std::fs::write(&baseline, report.render_json()).unwrap();
    let parsed = parse_baseline(&report.render_json()).unwrap();
    assert_eq!(parsed, report.findings, "baseline must round-trip exactly");
    assert_eq!(
        cli(&["--root", &root, "--baseline", &baseline.to_string_lossy()]),
        0
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tier_flag_restricts_the_report_without_skipping_analysis() {
    let dir = temp_workspace("tier", &[("crates/sim/src/lib.rs", BAD_DET_LIB)]);
    let root = dir.to_string_lossy().to_string();
    assert_eq!(cli(&["--root", &root, "--tier", "determinism"]), 1);
    assert_eq!(cli(&["--root", &root, "--tier", "dead"]), 1);
    // The findings are one determinism and one dead-pub finding:
    // filtering to another tier leaves the report clean.
    assert_eq!(cli(&["--root", &root, "--tier", "hygiene"]), 0);
    assert_eq!(cli(&["--root", &root, "--tier", "locks", "--tier", "dataflow"]), 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_flags_tiers_and_unreadable_baselines_are_usage_errors() {
    assert_eq!(cli(&["--tier", "bogus"]), 2);
    assert_eq!(cli(&["--tier"]), 2);
    assert_eq!(cli(&["--baseline"]), 2);
    assert_eq!(cli(&["--frobnicate"]), 2);
    let dir = temp_workspace("badbase", &[("src/lib.rs", "//! Stub.\n")]);
    let root = dir.to_string_lossy().to_string();
    // Missing baseline file.
    assert_eq!(cli(&["--root", &root, "--baseline", "no-such-file.json"]), 2);
    // Unparseable baseline file.
    let garbage = dir.join("garbage.json");
    std::fs::write(&garbage, "not a report").unwrap();
    assert_eq!(
        cli(&["--root", &root, "--baseline", &garbage.to_string_lossy()]),
        2
    );
    std::fs::remove_dir_all(&dir).ok();
}
