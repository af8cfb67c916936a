//! Drives the `reproduce` binary end to end: argv rejection exits 2 with
//! the usage text, and a self-verifying matrix exits 0 with its rendered
//! table on stdout. Every invocation passes `--no-bench-json`, so nothing
//! is written into the working directory.

use std::process::{Command, Output};

use thrifty_bench::{chaos_matrix, Effort};

fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .arg("--no-bench-json")
        .output()
        .expect("spawn reproduce")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn unknown_subcommand_exits_2_with_usage() {
    let out = reproduce(&["fig99"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("unknown subcommand: fig99"), "{err}");
    assert!(err.contains("usage: reproduce"), "{err}");
}

#[test]
fn unknown_flag_exits_2() {
    let out = reproduce(&["table2", "--fast"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("unknown flag: --fast"));
}

#[test]
fn metrics_without_a_path_exits_2() {
    let out = reproduce(&["table2", "--metrics"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("--metrics requires a file path"));
}

#[test]
fn chaos_quick_prints_the_verified_matrix() {
    let out = reproduce(&["chaos", "--quick"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    let table = chaos_matrix(Effort {
        trials: 1,
        frames: 40,
    })
    .table;
    assert!(
        stdout.contains(&table.to_markdown()),
        "stdout lacks the chaos --quick table:\n{stdout}"
    );
}
