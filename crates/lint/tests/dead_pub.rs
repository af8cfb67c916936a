//! The `dead` tier over a virtual workspace: which `pub` items of a
//! library crate `dead-pub` flags, with which remedy, and which callers
//! keep an item live.

use thrifty_lint::{scan_sources, Finding};

const ITEMS: &str = "crates/demo/src/items.rs";

const LIB: &str = "//! Fixture crate root.\n\
     #![forbid(unsafe_code)]\n\
     #![deny(missing_docs)]\n\
     \n\
     pub mod items;\n\
     pub use items::Reexported;\n";

const INTEGRATION_TEST: (&str, &str) = (
    "crates/demo/tests/it.rs",
    "use demo::items::Holder;\n\
     \n\
     #[test]\n\
     fn calls_holder() {\n\
         assert_eq!(Holder.from_integration_test(), 2);\n\
     }\n",
);

const EXAMPLE: (&str, &str) = (
    "examples/demo.rs",
    "fn main() {\n\
         let h = demo::items::Holder;\n\
         println!(\"{}\", h.from_example());\n\
         let _ = Some(1u8).map(demo::items::as_pointer);\n\
         let _ = demo::items::make_exported();\n\
     }\n",
);

const PERFBENCH: (&str, &str) = (
    "perfbench/src/main.rs",
    "fn main() {\n\
         let _ = demo::items::Holder.from_perfbench();\n\
     }\n",
);

/// The `dead-pub` findings of the fixture library plus `callers`.
fn dead_pub(callers: &[(&str, &str)]) -> Vec<Finding> {
    let items = std::fs::read_to_string(format!(
        "{}/tests/fixtures/dead_pub_items.rs",
        env!("CARGO_MANIFEST_DIR")
    ))
    .expect("fixture");
    let mut files = vec![
        ("crates/demo/src/lib.rs".to_string(), LIB.to_string()),
        (ITEMS.to_string(), items),
    ];
    files.extend(callers.iter().map(|(p, s)| (p.to_string(), s.to_string())));
    scan_sources(&files)
        .findings
        .into_iter()
        .filter(|f| f.rule == "dead-pub")
        .collect()
}

const DELETE: &str =
    "is named nowhere outside this file's tests — delete it with the tests that only exercise it";
const DROP_PUB: &str = "is named only in this file — drop `pub`";

#[test]
fn flags_dead_items_with_their_remedy() {
    let got: Vec<(String, u32, String)> = dead_pub(&[INTEGRATION_TEST, EXAMPLE, PERFBENCH])
        .into_iter()
        .map(|f| (f.path, f.line, f.message))
        .collect();
    let want = [
        (4, format!("`pub fn dead_free_fn` {DELETE}")),
        (13, format!("`pub fn test_only` {DELETE}")),
        (18, format!("`pub fn own_file_only` {DROP_PUB}")),
        (39, format!("`pub struct Reexported` {DELETE}")),
        (42, format!("`pub struct OnlyImpl` {DELETE}")),
    ]
    .map(|(line, message)| (ITEMS.to_string(), line, message));
    assert_eq!(got, want);
}

#[test]
fn integration_tests_examples_and_the_benchmark_are_callers() {
    // Drop one caller at a time: the item only it named turns dead.
    for (without, line, name) in [
        (INTEGRATION_TEST.0, 23, "from_integration_test"),
        (EXAMPLE.0, 28, "from_example"),
        (EXAMPLE.0, 49, "as_pointer"),
        (PERFBENCH.0, 33, "from_perfbench"),
    ] {
        let callers: Vec<(&str, &str)> = [INTEGRATION_TEST, EXAMPLE, PERFBENCH]
            .into_iter()
            .filter(|(p, _)| *p != without)
            .collect();
        let findings = dead_pub(&callers);
        assert!(
            findings
                .iter()
                .any(|f| f.line == line && f.message.contains(name)),
            "without {without}, `{name}` must be flagged: {findings:?}"
        );
    }
}

#[test]
fn binaries_and_crates_without_a_library_are_out_of_scope() {
    let unused = "//! Fixture.\n\n/// Never called.\npub fn unused() {}\n";
    let files: Vec<(String, String)> = [
        ("crates/demo/src/lib.rs", LIB),
        ("crates/demo/src/main.rs", unused),
        ("crates/demo/src/bin/tool.rs", unused),
        ("crates/nolib/src/util.rs", unused),
        ("compat/shim/src/lib.rs", unused),
        ("src/lib.rs", unused),
    ]
    .iter()
    .map(|(p, s)| (p.to_string(), s.to_string()))
    .collect();
    let report = scan_sources(&files);
    assert!(
        report.findings.iter().all(|f| f.rule != "dead-pub"),
        "findings: {:?}",
        report.findings
    );
}
