#!/usr/bin/env bash
# Full local gate: everything CI runs, in the order that fails fastest.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check (crates formatted so far: thrifty-queueing, thrifty-sim, thrifty-crypto, thrifty-video, thrifty-telemetry, thrifty-energy, thrifty, thrifty-bench)"
# Extend the -p list as each crate is formatted in a change of its own.
cargo fmt --check -p thrifty-queueing -p thrifty-sim -p thrifty-crypto -p thrifty-video -p thrifty-telemetry -p thrifty-energy -p thrifty -p thrifty-bench

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> thrifty-lint (workspace invariant checker; double --json run must be byte-identical)"
lint_tmp="$(mktemp -d)"
trap 'rm -rf "$lint_tmp"' EXIT
./target/release/thrifty-lint
./target/release/thrifty-lint --json > "$lint_tmp/lint_a.json"
./target/release/thrifty-lint --json > "$lint_tmp/lint_b.json"
cmp "$lint_tmp/lint_a.json" "$lint_tmp/lint_b.json"

echo "==> thrifty-lint call-graph and dead tiers (taint, dataflow, locks, hygiene, dead; double --json run must be byte-identical)"
# --tier restricts the report only — the call-graph analysis always runs in
# full — so a tier-filtered double run gates the determinism of the
# whole-scan tiers' fixpoints (taint distances, dataflow joins, lock-order
# witnesses, dead-pub mention counts) specifically.
./target/release/thrifty-lint --json --tier taint --tier dataflow --tier locks --tier hygiene --tier dead > "$lint_tmp/tiers_a.json"
./target/release/thrifty-lint --json --tier taint --tier dataflow --tier locks --tier hygiene --tier dead > "$lint_tmp/tiers_b.json"
cmp "$lint_tmp/tiers_a.json" "$lint_tmp/tiers_b.json"

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo bench -p thrifty-bench -- --test (smoke + backend ratio gates)"
# Besides smoke-running every bench, this executes the backend_ratio_gate:
# fast must beat reference for every algorithm, fast 3DES must hold an 8x
# lead (measured ~12x with the permuted-domain core), fast AES-256 must
# hold a 3.3x lead (~4x with scalar T-table rounds, ~2.8x when they
# compiled to AVX-512 gathers), fast 3DES on a 12-segment train must run
# 1.5x its per-segment rate, bitsliced and fast 3DES on a 64-segment train
# must each run 3x the fast 3DES per-segment rate (3.6-6.7x measured over
# 300 alternating rounds; the fast read fails if fast 3DES stops handing
# full groups to the bitsliced core), fast AES-256 on a 64-segment train
# must run 1.2x its per-segment rate (1.6-2.2x measured over 300 alternating
# rounds; ~1.0x if fast AES stops handing full groups to the bitsliced
# core), and batched bitsliced AES-128 (64-segment trains) must at least
# match the fast T-table backend. The committed BENCH_cipher.json pins the
# full >=2x bitsliced headline via its own unit test.
cargo bench -p thrifty-bench -- --test

echo "==> reproduce determinism (metered double run must be byte-identical)"
# The sender encrypts in batched keystream trains, so this byte-compare
# also proves the train path end to end: a train/sequential keystream
# divergence would show up as a diff between the two runs or against the
# golden figures below.
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp" "$lint_tmp"' EXIT
./target/release/reproduce table2 fig12 --no-bench-json \
  --metrics "$tmp/metrics_a.json" > "$tmp/out_a.txt"
./target/release/reproduce table2 fig12 --no-bench-json \
  --metrics "$tmp/metrics_b.json" > "$tmp/out_b.txt"
cmp "$tmp/out_a.txt" "$tmp/out_b.txt"
cmp "$tmp/metrics_a.json" "$tmp/metrics_b.json"
./target/release/reproduce table2 fig12 --no-bench-json > "$tmp/out_plain.txt"
cmp "$tmp/out_a.txt" "$tmp/out_plain.txt"

echo "==> self-verifying matrices: faults, fountain, chaos --quick (double run must be byte-identical)"
# Each matrix runs every cell twice from its seed and against its clean
# twin, and the binary exits non-zero on any violated invariant: a
# non-reproducible cell, a faulty run beating its clean twin, an armed
# fault class injecting nothing, a reliable-transport frame loss, the
# deep-fade goodput crossover failing to appear, an unbounded recovery
# episode, a controller flap, or adaptive-RTO goodput below the fixed-RTO
# baseline. `timeout` turns a deadlock, a peeling or retransmission hang or
# a resync hang into exit 124; the two stdouts must match byte for byte.
# shellcheck disable=SC2086  # $matrix splits on purpose: "chaos --quick"
for matrix in "faults" "fountain" "chaos --quick"; do
  out="$tmp/${matrix%% *}"
  timeout 600 ./target/release/reproduce $matrix --no-bench-json > "${out}_a.txt"
  timeout 600 ./target/release/reproduce $matrix --no-bench-json > "${out}_b.txt"
  cmp "${out}_a.txt" "${out}_b.txt"
done

echo "==> fleet --quick smoke gate (N=10^4 on the event calendar; hang fails as exit 124)"
# One 10^4-flow cell on the discrete-event scale path, self-verified
# (one event per packet, double-run bit-identity, physical delays).
# `timeout` turns a calendar or sharding hang into exit 124.
timeout 300 ./target/release/reproduce fleet --quick --no-bench-json > /dev/null

echo "==> fleet scaling sweep (self-verifying; deadlock fails as exit 124)"
# The sweep asserts its own guarantees and exits non-zero on violation:
# N=1 byte-identity with the single-sender path, same-seed metered runs
# bit-reproducible, a solve-cache hit rate > 90% on the 100-flow cells, and
# each cell's analytic/simulated mean-delay ratio inside its policy class's
# band (EXPERIMENTS.md known deviation 5). It then drives the event-calendar scale
# path to N=10^5; wall-clock numbers (events/sec, peak RSS) go only to
# BENCH_fleet.json (suppressed here), so the double-run stdout byte-compare
# below also gates the scale path's reproducibility at every N. `timeout`
# turns a sharding deadlock into exit 124.
timeout 600 ./target/release/reproduce fleet --no-bench-json > "$tmp/fleet_a.txt"
timeout 600 ./target/release/reproduce fleet --no-bench-json > "$tmp/fleet_b.txt"
cmp "$tmp/fleet_a.txt" "$tmp/fleet_b.txt"

echo "==> golden-vector regression suite (tolerance 0)"
cargo test --release --test golden_figures

echo "All checks passed."
