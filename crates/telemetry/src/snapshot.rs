//! Plain-data snapshots of a registry, with deterministic JSON encoding.

use crate::histogram::{bucket_bounds, HistogramSnapshot};
use crate::span::{SpanSnapshot, Stage};
use std::collections::BTreeMap;

/// A frozen, plain-data copy of a [`MetricsRegistry`](crate::MetricsRegistry).
///
/// All maps are `BTreeMap`s, so iteration — and therefore
/// [`to_json`](Self::to_json) output — is deterministic. Snapshots from
/// independent registries (e.g. one per experiment cell in a parallel
/// fan-out) can be [`merge`](Self::merge)d in a fixed order to keep the
/// combined result bit-reproducible regardless of scheduling.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Stage name → span statistics (only stages that recorded anything).
    pub spans: BTreeMap<String, SpanSnapshot>,
    /// Counter name → value.
    pub counters: BTreeMap<String, u64>,
    /// Histogram name → contents.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// The span statistics for `stage`, if any interval was recorded.
    pub fn span(&self, stage: Stage) -> Option<&SpanSnapshot> {
        self.spans.get(stage.name())
    }

    /// The value of the named counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named histogram, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Fold `other` into this snapshot (sums, counts and buckets add;
    /// span maxima take the larger value).
    pub fn merge(&mut self, other: &Snapshot) {
        for (name, span) in &other.spans {
            self.spans.entry(name.clone()).or_default().merge(span);
        }
        for (name, &v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, hist) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().merge(hist);
        }
    }

    /// Serialise as a deterministic JSON object (hand-rolled — the crate
    /// is dependency-free; names are escaped, floats use Rust's
    /// shortest-roundtrip formatting).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\": {");
        push_entries(&mut out, self.spans.iter(), |out, s| {
            out.push_str(&format!(
                "{{\"count\": {}, \"total_s\": {}, \"max_s\": {}}}",
                s.count,
                json_f64(s.total_s),
                json_f64(s.max_s)
            ));
        });
        out.push_str("}, \"counters\": {");
        push_entries(&mut out, self.counters.iter(), |out, v| {
            out.push_str(&v.to_string());
        });
        out.push_str("}, \"histograms\": {");
        push_entries(&mut out, self.histograms.iter(), |out, h| {
            let buckets: Vec<String> = h
                .buckets
                .iter()
                .map(|(&i, &n)| {
                    let (lo, hi) = bucket_bounds(i);
                    format!("[{i}, {}, {}, {n}]", json_f64(lo), json_f64(hi))
                })
                .collect();
            out.push_str(&format!(
                "{{\"count\": {}, \"underflow\": {}, \"overflow\": {}, \"buckets\": [{}]}}",
                h.count(),
                h.underflow,
                h.overflow,
                buckets.join(", ")
            ));
        });
        out.push_str("}}");
        out
    }
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn push_entries<'a, V: 'a>(
    out: &mut String,
    entries: impl Iterator<Item = (&'a String, V)>,
    mut write_value: impl FnMut(&mut String, V),
) {
    for (i, (name, value)) in entries.enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{}\": ", esc(name)));
        write_value(out, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricsRegistry;

    fn sample() -> Snapshot {
        let m = MetricsRegistry::enabled();
        m.counter("pkts.I").add(3);
        m.counter("pkts.P").add(27);
        m.record_span(Stage::Encrypt, 1.5e-4);
        m.record_span(Stage::Encrypt, 0.5e-4);
        m.histogram("delay_s").record(2e-3);
        m.snapshot()
    }

    #[test]
    fn accessors_read_back_recorded_values() {
        let s = sample();
        assert_eq!(s.counter("pkts.I"), 3);
        assert_eq!(s.counter("absent"), 0);
        let enc = s.span(Stage::Encrypt).expect("encrypt span present");
        assert_eq!(enc.count, 2);
        assert!((enc.total_s - 2e-4).abs() < 1e-18);
        assert_eq!(
            s.histogram("delay_s").expect("histogram present").count(),
            1
        );
    }

    #[test]
    fn merge_is_order_independent_on_integer_metrics() {
        let mut ab = sample();
        ab.merge(&sample());
        assert_eq!(ab.counter("pkts.P"), 54);
        assert_eq!(ab.span(Stage::Encrypt).expect("span").count, 4);
        assert_eq!(ab.histogram("delay_s").expect("histogram").count(), 2);
    }

    #[test]
    fn json_is_wellformed_and_stable() {
        let json = sample().to_json();
        assert!(json.starts_with("{\"spans\": {"));
        assert!(json.contains("\"pkts.I\": 3"));
        assert!(json.contains("\"encrypt\""));
        assert!(json.contains("\"buckets\": [["));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert_eq!(json, sample().to_json(), "byte-identical across builds");
    }

    #[test]
    fn json_escapes_metric_names() {
        let m = MetricsRegistry::enabled();
        m.counter("weird\"name").inc();
        let json = m.snapshot().to_json();
        assert!(json.contains("\"weird\\\"name\": 1"));
    }
}
