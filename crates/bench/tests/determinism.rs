//! End-to-end determinism of the metered reproduction path (the guarantee
//! `scripts/check.sh` re-verifies on the actual `reproduce` binary): two
//! runs from the same seed, metrics on, must produce byte-identical figure
//! output *and* byte-identical telemetry snapshots — and switching metrics
//! off must not move a single figure value.

use thrifty_analytic::params::SAMSUNG_GALAXY_S2;
use thrifty_bench::{fig12_13_with, fig7_8_with, table2_with, Effort, Table};
use thrifty_energy::SAMSUNG_GALAXY_S2_POWER;

fn smoke_effort() -> Effort {
    Effort {
        trials: 2,
        frames: 60,
    }
}

fn assert_tables_byte_identical(a: &Table, b: &Table) {
    assert_eq!(a.to_markdown(), b.to_markdown());
    assert_eq!(a.to_json(), b.to_json());
    for (ra, rb) in a.rows.iter().zip(&b.rows) {
        for ((ka, va), (kb, vb)) in ra.values.iter().zip(&rb.values) {
            assert_eq!(ka, kb);
            assert_eq!(va.to_bits(), vb.to_bits(), "{} / {ka}", ra.label);
        }
    }
}

#[test]
fn metered_double_run_is_byte_identical() {
    let effort = smoke_effort();
    let (table_a, metrics_a) =
        fig7_8_with(SAMSUNG_GALAXY_S2, SAMSUNG_GALAXY_S2_POWER, effort, true);
    let (table_b, metrics_b) =
        fig7_8_with(SAMSUNG_GALAXY_S2, SAMSUNG_GALAXY_S2_POWER, effort, true);
    assert_tables_byte_identical(&table_a, &table_b);
    assert_eq!(
        metrics_a.expect("metrics on").to_json(),
        metrics_b.expect("metrics on").to_json(),
        "telemetry snapshots must be byte-identical across runs"
    );
}

#[test]
fn metered_double_run_is_byte_identical_over_tcp() {
    let effort = smoke_effort();
    let (table_a, metrics_a) =
        fig12_13_with(SAMSUNG_GALAXY_S2, SAMSUNG_GALAXY_S2_POWER, effort, true);
    let (table_b, metrics_b) =
        fig12_13_with(SAMSUNG_GALAXY_S2, SAMSUNG_GALAXY_S2_POWER, effort, true);
    assert_tables_byte_identical(&table_a, &table_b);
    assert_eq!(
        metrics_a.expect("metrics on").to_json(),
        metrics_b.expect("metrics on").to_json()
    );
}

#[test]
fn metering_does_not_move_the_figures() {
    let effort = smoke_effort();
    let (plain, none) = table2_with(effort, false);
    assert!(none.is_none());
    let (metered, some) = table2_with(effort, true);
    assert!(some.is_some());
    assert_tables_byte_identical(&plain, &metered);
}
