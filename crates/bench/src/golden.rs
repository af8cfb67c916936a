//! Golden-vector regression support.
//!
//! The repository pins canonical JSON snapshots of a representative set of
//! figure/table outputs under `tests/golden/` (workspace root). The
//! `golden_figures` integration test re-runs each generator at the fixed
//! [`golden_effort`] and diffs the fresh output against the snapshot
//! **field by field at tolerance 0**: every number must round-trip to the
//! identical bit pattern (the renderer prints shortest-roundtrip decimals,
//! so string equality ⇔ bit equality). Regenerate the snapshots with
//! `scripts/bless.sh` after an *intentional* output change.

use crate::{
    ablation_percentiles, chaos_matrix, fault_matrix, fig2, fig4, fig5, fountain_matrix, headline,
    table2, Effort, Table,
};

/// The fixed effort every golden figure is generated at — small enough for
/// the debug-profile test suite, large enough that the sim paths exercise
/// real queues. Never change this without re-blessing.
pub fn golden_effort() -> Effort {
    Effort {
        trials: 2,
        frames: 60,
    }
}

/// The golden set: `(snapshot file stem, freshly generated table)` pairs,
/// covering the analytic-only, simulation and advisor paths of the suite.
pub fn golden_figures() -> Vec<(&'static str, Table)> {
    let effort = golden_effort();
    vec![
        ("fig2_distortion", fig2()),
        ("fig4_gop30", fig4(30, effort)),
        ("fig5_gop30", fig5(30, effort)),
        ("table2", table2(effort)),
        ("headline", headline()),
        ("ablation_d_percentiles", ablation_percentiles()),
        ("fountain_matrix", fountain_matrix(effort).table),
        ("fault_matrix", fault_matrix(effort).table),
        ("chaos_matrix", chaos_matrix(effort).table),
    ]
}

/// One parsed row: the label and its `(column, value)` pairs, where `None`
/// values are JSON `null`s (non-finite floats).
pub type ParsedRow = (String, Vec<(String, Option<f64>)>);

/// A golden snapshot parsed back into labelled fields.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedTable {
    /// The `"title"` field.
    pub title: String,
    /// One entry per row.
    pub rows: Vec<ParsedRow>,
}

/// Parse the exact JSON shape [`Table::to_json`] emits. This is not a
/// general JSON parser — it accepts the renderer's output (string keys,
/// number/null values, fixed field order) and rejects anything else with
/// `None`, which the golden test reports as a corrupt snapshot.
pub fn parse_table_json(json: &str) -> Option<ParsedTable> {
    let s = json.trim();
    let title = extract_string(s, "\"title\": \"")?;
    let rows_src = s.split_once("\"rows\": [")?.1.strip_suffix("]}")?;
    let mut rows = Vec::new();
    for obj in split_objects(rows_src) {
        let label = extract_string(&obj, "\"label\": \"")?;
        // Fields follow the label, comma-separated: "key": value
        let mut values = Vec::new();
        let after_label = obj.split_once("\"label\": \"")?.1;
        let after_label = skip_string_body(after_label)?;
        for field in split_fields(after_label) {
            let (key, raw) = parse_field(&field)?;
            let value = match raw.trim() {
                "null" => None,
                num => Some(num.parse::<f64>().ok()?),
            };
            values.push((key, value));
        }
        rows.push((label, values));
    }
    Some(ParsedTable { title, rows })
}

/// Read the string literal starting right after `prefix` (handles the
/// renderer's two escapes, `\"` and `\\`).
fn extract_string(s: &str, prefix: &str) -> Option<String> {
    let body = s.split_once(prefix)?.1;
    let mut out = String::new();
    let mut chars = body.chars();
    while let Some(c) = chars.next() {
        match c {
            '\\' => out.push(chars.next()?),
            '"' => return Some(out),
            c => out.push(c),
        }
    }
    None
}

/// Advance past a string literal's body (after its opening quote), returning
/// the remainder after the closing quote.
fn skip_string_body(s: &str) -> Option<&str> {
    let mut iter = s.char_indices();
    while let Some((i, c)) = iter.next() {
        match c {
            '\\' => {
                iter.next()?;
            }
            '"' => return Some(&s[i + 1..]),
            _ => {}
        }
    }
    None
}

/// Split a `{...}, {...}` sequence into its top-level objects.
fn split_objects(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut start = None;
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in s.char_indices() {
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' => {
                if depth == 0 {
                    start = Some(i);
                }
                depth += 1;
            }
            '}' => {
                depth -= 1;
                if depth == 0 {
                    if let Some(s0) = start.take() {
                        out.push(s[s0..=i].to_string());
                    }
                }
            }
            _ => {}
        }
    }
    out
}

/// Split `, "k": v, "k2": v2}` into its `"k": v` fields.
fn split_fields(s: &str) -> Vec<String> {
    let body = s.trim_start_matches(',').trim_end_matches('}');
    let mut out = Vec::new();
    let mut in_string = false;
    let mut escaped = false;
    let mut start = 0usize;
    for (i, c) in body.char_indices() {
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            ',' => {
                let field = body[start..i].trim();
                if !field.is_empty() {
                    out.push(field.to_string());
                }
                start = i + 1;
            }
            _ => {}
        }
    }
    let tail = body[start..].trim();
    if !tail.is_empty() {
        out.push(tail.to_string());
    }
    out
}

/// `"key": value` → `(key, value-as-raw-text)`.
fn parse_field(field: &str) -> Option<(String, String)> {
    let key = extract_string(field, "\"")?;
    let rest = field.split_once("\": ")?.1;
    Some((key, rest.trim().to_string()))
}

/// Field-by-field diff of a fresh table against its parsed golden snapshot,
/// at tolerance **zero**: values compare by f64 bit pattern (shortest
/// round-trip decimals make that well defined), labels and column names by
/// string equality. Returns human-readable mismatches; empty = identical.
pub fn diff_against_golden(golden: &ParsedTable, fresh: &Table) -> Vec<String> {
    let mut out = Vec::new();
    if golden.title != fresh.title {
        out.push(format!(
            "title: golden {:?} vs fresh {:?}",
            golden.title, fresh.title
        ));
    }
    if golden.rows.len() != fresh.rows.len() {
        out.push(format!(
            "row count: golden {} vs fresh {}",
            golden.rows.len(),
            fresh.rows.len()
        ));
        return out;
    }
    for (i, ((glabel, gvals), frow)) in golden.rows.iter().zip(&fresh.rows).enumerate() {
        if glabel != &frow.label {
            out.push(format!(
                "row {i}: label golden {glabel:?} vs fresh {:?}",
                frow.label
            ));
            continue;
        }
        if gvals.len() != frow.values.len() {
            out.push(format!(
                "row {glabel:?}: field count golden {} vs fresh {}",
                gvals.len(),
                frow.values.len()
            ));
            continue;
        }
        for ((gkey, gval), (fkey, fval)) in gvals.iter().zip(&frow.values) {
            if gkey != fkey {
                out.push(format!(
                    "row {glabel:?}: column golden {gkey:?} vs fresh {fkey:?}"
                ));
                continue;
            }
            let matches = match gval {
                None => !fval.is_finite(),
                Some(g) => fval.is_finite() && g.to_bits() == fval.to_bits(),
            };
            if !matches {
                out.push(format!(
                    "row {glabel:?}, column {gkey:?}: golden {gval:?} vs fresh {fval}"
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Row;

    fn sample() -> Table {
        Table {
            title: "A \"quoted\" title".into(),
            caption: String::new(),
            rows: vec![
                Row {
                    label: "slow, I".into(),
                    values: vec![
                        ("PSNR (dB)".into(), 7.5),
                        ("delay, \"ms\"".into(), 0.0481532),
                        ("bad".into(), f64::NAN),
                    ],
                },
                Row {
                    label: "fast, all".into(),
                    values: vec![
                        ("PSNR (dB)".into(), 1e-12),
                        ("delay, \"ms\"".into(), -3.25),
                        ("bad".into(), f64::INFINITY),
                    ],
                },
            ],
        }
    }

    #[test]
    fn parse_round_trips_the_renderer() {
        let table = sample();
        let parsed = parse_table_json(&table.to_json()).expect("parses");
        assert_eq!(parsed.title, table.title);
        assert_eq!(parsed.rows.len(), 2);
        assert_eq!(parsed.rows[0].0, "slow, I");
        assert_eq!(parsed.rows[0].1[0], ("PSNR (dB)".into(), Some(7.5)));
        assert_eq!(parsed.rows[0].1[2], ("bad".into(), None));
        assert_eq!(parsed.rows[1].1[1].0, "delay, \"ms\"");
        assert!(diff_against_golden(&parsed, &table).is_empty());
    }

    #[test]
    fn diff_reports_a_flipped_bit() {
        let table = sample();
        let parsed = parse_table_json(&table.to_json()).unwrap();
        let mut mutated = table.clone();
        mutated.rows[1].values[0].1 = f64::from_bits(1e-12f64.to_bits() + 1); // exactly one ulp
        let diffs = diff_against_golden(&parsed, &mutated);
        assert_eq!(diffs.len(), 1, "{diffs:?}");
        assert!(diffs[0].contains("PSNR"));
    }

    #[test]
    fn diff_reports_structure_changes() {
        let table = sample();
        let parsed = parse_table_json(&table.to_json()).unwrap();
        let mut mutated = table.clone();
        mutated.rows.pop();
        assert!(diff_against_golden(&parsed, &mutated)[0].contains("row count"));
        let mut relabeled = table.clone();
        relabeled.rows[0].label = "slow, P".into();
        assert!(diff_against_golden(&parsed, &relabeled)[0].contains("label"));
    }

    #[test]
    fn shortest_roundtrip_preserves_bits() {
        // The tolerance-0 contract rests on this: printing with "{v}" and
        // parsing back must reproduce the exact bit pattern.
        for v in [
            0.0481532,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            123456.789,
            2.2250738585072014e-308,
        ] {
            let reparsed: f64 = format!("{v}").parse().unwrap();
            assert_eq!(v.to_bits(), reparsed.to_bits());
        }
    }

    #[test]
    fn golden_set_is_nonempty_and_uniquely_named() {
        // Shape check only (generation cost lives in the integration test).
        let names = ["fig2_distortion", "fig4_gop30", "fig5_gop30", "table2"];
        for n in names {
            assert!(n.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'));
        }
    }
}
