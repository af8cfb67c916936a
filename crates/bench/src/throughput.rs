//! Cipher throughput measurement behind `BENCH_cipher.json`.
//!
//! The delay and energy gaps the paper reports all trace back to one
//! number: how many bytes per second each cipher pushes through OFB on the
//! sender's CPU. This module measures that number for every
//! (algorithm × backend) pair on MTU-sized segments and renders the result
//! — together with the wall time of each regenerated figure — as a small
//! machine-readable JSON document the `reproduce` binary writes next to its
//! Markdown output.

use std::time::{Duration, Instant};

use thrifty::crypto::aes_bitsliced::LANES;
use thrifty::crypto::{Algorithm, CipherBackend, SegmentCipher};

/// The RTP payload the paper's app ships per packet: 1500-byte Ethernet MTU
/// minus IP/UDP/RTP headers. Segment-cipher throughput is quoted at this
/// size because it is the unit the sender actually encrypts.
pub const SEGMENT_LEN: usize = 1452;

/// Measured OFB throughput of one (algorithm, backend) pair.
#[derive(Debug, Clone, Copy)]
pub struct CipherThroughput {
    /// Cipher under test.
    pub algorithm: Algorithm,
    /// Implementation backend under test.
    pub backend: CipherBackend,
    /// Segment size the measurement encrypted, in bytes.
    pub segment_len: usize,
    /// Segments encrypted per cipher call: 1 for the scalar backends,
    /// [`LANES`] for the bitsliced backend, which amortises its cost over
    /// a whole packet train exactly as the sim pipeline does.
    pub train_segments: usize,
    /// Sustained encryption rate, bytes per second.
    pub bytes_per_sec: f64,
}

impl CipherThroughput {
    /// Throughput in MB/s (10⁶ bytes), the unit the docs quote.
    fn mb_per_sec(&self) -> f64 {
        self.bytes_per_sec / 1e6
    }
}

/// Best-of samples [`measure_cipher_throughput`] takes of every pair.
const ROUNDS: usize = 5;

/// One (algorithm, backend) pair under measurement, with its buffers.
struct Subject {
    algorithm: Algorithm,
    backend: CipherBackend,
    cipher: SegmentCipher,
    /// One buffer per segment of a call.
    bufs: Vec<Vec<u8>>,
    seqs: Vec<u64>,
    /// Calls per timed batch.
    iters: u64,
    /// Fastest batch so far, seconds per call.
    best: f64,
}

impl Subject {
    /// Time `iters` calls: per segment on the scalar backends, one train
    /// of `bufs.len()` segments per call on the bitsliced one.
    fn time_batch(&mut self, iters: u64) -> Duration {
        let train_segments = self.bufs.len() as u64;
        // lint:allow(det-wall-clock): wall-clock here measures real cipher throughput; it never feeds simulated state or figure values
        let start = Instant::now();
        if train_segments == 1 {
            let buf = &mut self.bufs[0];
            for seq in 0..iters {
                self.cipher.encrypt_segment(seq, buf);
                std::hint::black_box(&**buf);
            }
        } else {
            for it in 0..iters {
                for (i, s) in self.seqs.iter_mut().enumerate() {
                    *s = it * train_segments + i as u64;
                }
                let mut views: Vec<&mut [u8]> =
                    self.bufs.iter_mut().map(|b| b.as_mut_slice()).collect();
                self.cipher.encrypt_train(&self.seqs, &mut views);
                std::hint::black_box(&*views);
            }
        }
        start.elapsed()
    }
}

/// Measure every (algorithm × backend) pair encrypting `segment_len`-byte
/// segments, spending roughly `budget` of wall time per pair.
///
/// Each pair's batch size is calibrated first; then the pairs are sampled
/// round-robin, [`ROUNDS`] batches each, and each keeps its fastest batch
/// (minimum-of-batches rejects scheduler noise without needing long runs).
/// Taking the rounds in turn spreads each pair over the whole run, so a
/// slow phase of a shared host hits every row alike rather than whichever
/// pair it happened to coincide with, and the ratios between rows hold.
pub fn measure_cipher_throughput(segment_len: usize, budget: Duration) -> Vec<CipherThroughput> {
    let key = [7u8; 32];
    let mut subjects: Vec<Subject> = Algorithm::ALL
        .iter()
        .flat_map(|&algorithm| {
            CipherBackend::ALL.iter().map(move |&backend| {
                // The scalar backends are quoted per segment, the bitsliced
                // backend per 64-segment train — the unit the sim pipeline
                // feeds it (its lane groups fill 64 segments per call).
                let train_segments = match backend {
                    CipherBackend::Bitsliced => LANES,
                    _ => 1,
                };
                Subject {
                    algorithm,
                    backend,
                    cipher: SegmentCipher::with_backend(algorithm, &key, backend)
                        .expect("32-byte key covers every algorithm"),
                    bufs: vec![vec![0xA5u8; segment_len]; train_segments],
                    seqs: vec![0u64; train_segments],
                    iters: 1,
                    best: f64::INFINITY,
                }
            })
        })
        .collect();
    for subject in &mut subjects {
        // Calibration: grow the batch until it runs long enough to time.
        let mut iters = 1u64;
        let per_iter = loop {
            let elapsed = subject.time_batch(iters);
            if elapsed >= Duration::from_millis(5) || iters >= 1 << 22 {
                break elapsed.as_secs_f64() / iters as f64;
            }
            iters *= 4;
        };
        subject.iters =
            ((budget.as_secs_f64() / ROUNDS as f64 / per_iter.max(1e-12)) as u64).clamp(1, 1 << 22);
    }
    for _ in 0..ROUNDS {
        for subject in &mut subjects {
            let per_call = subject.time_batch(subject.iters).as_secs_f64() / subject.iters as f64;
            subject.best = subject.best.min(per_call);
        }
    }
    subjects
        .into_iter()
        .map(|s| CipherThroughput {
            algorithm: s.algorithm,
            backend: s.backend,
            segment_len,
            train_segments: s.bufs.len(),
            bytes_per_sec: (segment_len * s.bufs.len()) as f64 / s.best,
        })
        .collect()
}

/// Render the `BENCH_cipher.json` document: per-cipher/per-backend
/// throughput plus the wall time each figure took to regenerate.
/// Hand-rolled JSON, like [`crate::Table::to_json`]: numbers and short
/// ASCII labels only, so escaping quotes/backslashes suffices.
pub fn bench_cipher_json(ciphers: &[CipherThroughput], figures: &[(String, f64)]) -> String {
    fn esc(s: &str) -> String {
        s.replace('\\', "\\\\").replace('"', "\\\"")
    }
    let cipher_rows: Vec<String> = ciphers
        .iter()
        .map(|t| {
            format!(
                "{{\"algorithm\": \"{}\", \"backend\": \"{}\", \"segment_bytes\": {}, \
                 \"train_segments\": {}, \"bytes_per_sec\": {:.0}, \"mb_per_sec\": {:.1}}}",
                esc(t.algorithm.name()),
                esc(t.backend.name()),
                t.segment_len,
                t.train_segments,
                t.bytes_per_sec,
                t.mb_per_sec()
            )
        })
        .collect();
    let figure_rows: Vec<String> = figures
        .iter()
        .map(|(name, secs)| format!("{{\"figure\": \"{}\", \"wall_s\": {secs:.3}}}", esc(name)))
        .collect();
    format!(
        "{{\n  \"ciphers\": [\n    {}\n  ],\n  \"figures\": [\n    {}\n  ]\n}}\n",
        cipher_rows.join(",\n    "),
        figure_rows.join(",\n    ")
    )
}

/// The keys every cipher row of `BENCH_cipher.json` must carry, in emit
/// order. Shared by the validator and its tests.
const CIPHER_ROW_KEYS: &[&str] = &[
    "\"algorithm\"",
    "\"backend\"",
    "\"segment_bytes\"",
    "\"train_segments\"",
    "\"bytes_per_sec\"",
    "\"mb_per_sec\"",
];

/// The body of the top-level JSON array called `name`, or why it is absent.
fn array_body<'a>(doc: &'a str, name: &str) -> Result<&'a str, String> {
    let tag = format!("\"{name}\": [");
    let start = doc
        .find(&tag)
        .ok_or_else(|| format!("missing \"{name}\" array"))?
        + tag.len();
    let end = doc[start..]
        .find(']')
        .ok_or_else(|| format!("unterminated \"{name}\" array"))?
        + start;
    Ok(&doc[start..end])
}

/// Shape-check a `BENCH_cipher.json` document against what
/// [`bench_cipher_json`] emits **today**: both top-level arrays present,
/// every cipher row carrying every key in [`CIPHER_ROW_KEYS`], and one row
/// for every (algorithm × backend) pair the workspace defines.
///
/// This is the anti-staleness gate: it runs as a unit test against the
/// checked-in artifact *and* inside `reproduce` immediately before the
/// file is written, so adding a backend (or a field) without re-measuring
/// the document fails loudly instead of shipping a silently outdated
/// artifact — exactly what happened when the `fast` backend landed.
pub fn validate_bench_cipher_schema(doc: &str) -> Result<(), String> {
    if doc.matches('{').count() != doc.matches('}').count()
        || doc.matches('[').count() != doc.matches(']').count()
    {
        return Err("unbalanced braces/brackets".to_string());
    }
    let ciphers = array_body(doc, "ciphers")?;
    array_body(doc, "figures")?;
    let rows: Vec<&str> = ciphers
        .split('{')
        .skip(1)
        .map(|r| r.split('}').next().unwrap_or(""))
        .collect();
    let expected = Algorithm::ALL.len() * CipherBackend::ALL.len();
    if rows.len() != expected {
        return Err(format!(
            "stale document: {} cipher rows, the workspace defines {expected} \
             (algorithm × backend) pairs — re-run `reproduce` to re-measure",
            rows.len()
        ));
    }
    for (i, row) in rows.iter().enumerate() {
        for key in CIPHER_ROW_KEYS {
            if !row.contains(key) {
                return Err(format!("cipher row {i} is missing {key}"));
            }
        }
    }
    for alg in Algorithm::ALL {
        for backend in CipherBackend::ALL {
            let alg_tag = format!("\"algorithm\": \"{}\"", alg.name());
            let backend_tag = format!("\"backend\": \"{}\"", backend.name());
            if !rows
                .iter()
                .any(|r| r.contains(&alg_tag) && r.contains(&backend_tag))
            {
                return Err(format!(
                    "no cipher row for ({}, {}) — re-run `reproduce` to re-measure",
                    alg.name(),
                    backend.name()
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_every_algorithm_backend_pair() {
        let t = measure_cipher_throughput(256, Duration::from_millis(3));
        assert_eq!(t.len(), Algorithm::ALL.len() * CipherBackend::ALL.len());
        for m in &t {
            assert!(
                m.bytes_per_sec.is_finite() && m.bytes_per_sec > 0.0,
                "{} {} must measure positive throughput",
                m.algorithm.name(),
                m.backend.name()
            );
        }
    }

    #[test]
    fn json_document_is_wellformed() {
        let ciphers = [CipherThroughput {
            algorithm: Algorithm::Aes128,
            backend: CipherBackend::Fast,
            segment_len: 1452,
            train_segments: 1,
            bytes_per_sec: 2.5e8,
        }];
        let figures = [("fig7".to_string(), 1.25)];
        let json = bench_cipher_json(&ciphers, &figures);
        assert!(json.contains("\"algorithm\": \"AES128\""));
        assert!(json.contains("\"backend\": \"fast\""));
        assert!(json.contains("\"train_segments\": 1"));
        assert!(json.contains("\"mb_per_sec\": 250.0"));
        assert!(json.contains("\"figure\": \"fig7\""));
        assert!(json.contains("\"wall_s\": 1.250"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn bitsliced_is_measured_per_train() {
        let t = measure_cipher_throughput(64, Duration::from_millis(2));
        for m in &t {
            let want = if m.backend == CipherBackend::Bitsliced {
                LANES
            } else {
                1
            };
            assert_eq!(m.train_segments, want, "{}", m.backend.name());
        }
    }

    #[test]
    fn schema_validator_accepts_what_the_emitter_produces() {
        let ciphers: Vec<CipherThroughput> = Algorithm::ALL
            .iter()
            .flat_map(|&algorithm| {
                CipherBackend::ALL
                    .iter()
                    .map(move |&backend| CipherThroughput {
                        algorithm,
                        backend,
                        segment_len: 1452,
                        train_segments: if backend == CipherBackend::Bitsliced {
                            LANES
                        } else {
                            1
                        },
                        bytes_per_sec: 1e8,
                    })
            })
            .collect();
        let json = bench_cipher_json(&ciphers, &[("table2".to_string(), 0.5)]);
        validate_bench_cipher_schema(&json).expect("emitter output must validate");
        // Dropping any single row (a stale document, as happened when the
        // `fast` backend landed without re-measuring) must be rejected.
        let stale = bench_cipher_json(&ciphers[1..], &[("table2".to_string(), 0.5)]);
        let err = validate_bench_cipher_schema(&stale).expect_err("stale doc must fail");
        assert!(err.contains("stale"), "{err}");
        // A malformed document is rejected on shape alone.
        assert!(validate_bench_cipher_schema("{}").is_err());
        assert!(validate_bench_cipher_schema("{\"ciphers\": [").is_err());
    }

    #[test]
    fn checked_in_bench_artifact_matches_todays_schema() {
        // The committed BENCH_cipher.json must carry a row for every
        // (algorithm × backend) pair the workspace currently defines —
        // the document can no longer lag behind a newly added backend.
        let doc = include_str!("../../../BENCH_cipher.json");
        validate_bench_cipher_schema(doc).expect("checked-in BENCH_cipher.json is stale");
        // And the headline result it records: bitsliced AES-128, measured
        // per 64-segment train, at least doubles the T-table backend.
        let row_mb = |alg: &str, backend: &str| -> f64 {
            let tag = format!("\"algorithm\": \"{alg}\", \"backend\": \"{backend}\"");
            let row = doc
                .lines()
                .find(|l| l.contains(&tag))
                .unwrap_or_else(|| panic!("no row for ({alg}, {backend})"));
            let (_, after) = row.split_once("\"mb_per_sec\": ").expect("mb_per_sec key");
            after
                .trim_end_matches(['}', ',', ' '])
                .parse::<f64>()
                .expect("mb_per_sec number")
        };
        let fast = row_mb("AES128", "fast");
        let bitsliced = row_mb("AES128", "bitsliced");
        assert!(
            bitsliced >= 2.0 * fast,
            "bitsliced AES-128 ({bitsliced} MB/s) must be ≥ 2× fast ({fast} MB/s)"
        );
    }
}
