//! Per-flow RNG stream derivation.
//!
//! Every flow in a fleet gets its own [`StdRng`], seeded from the run's
//! master seed mixed with a stable per-flow tag — the same
//! FNV-1a + SplitMix64 discipline `thrifty-faults` uses for fault sites.
//! A flow's draw sequence therefore depends on `(seed, flow id)` alone:
//! adding or removing flows, or re-partitioning them across shards, never
//! changes what any *other* flow sees, which is what makes an N-flow run
//! bit-reproducible and shard-count invariant.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a of a byte string (same constants as the offline proptest drop-in
/// and `thrifty-faults`); also keys the solve cache.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// SplitMix64 finaliser: decorrelates the master seed and the flow tag so
/// nearby seeds do not produce correlated flow streams.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The RNG stream for flow `flow` under master seed `seed`.
pub fn flow_rng(seed: u64, flow: usize) -> StdRng {
    let tag = format!("fleet.flow/{flow}");
    StdRng::seed_from_u64(mix(seed.wrapping_add(fnv1a(tag.as_bytes()))))
}

/// A named substream of flow `flow`: the scale path splits each flow into
/// an **arrival** and a **service** stream so arrivals can be generated
/// lazily (one draw per event) instead of precomputed as a batch, without
/// the two processes stepping on each other's draws.
///
/// The tag is hashed without per-flow string formatting — FNV-1a over the
/// tag bytes continued over the flow id's little-endian bytes — so deriving
/// 10^6 substreams costs no allocation.
pub fn flow_substream(seed: u64, flow: u64, tag: &str) -> StdRng {
    let mut h = fnv1a(tag.as_bytes());
    for b in flow.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    StdRng::seed_from_u64(mix(seed.wrapping_add(h)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn draws(rng: &mut StdRng) -> Vec<u64> {
        (0..8).map(|_| rng.gen_range(0u64..u64::MAX)).collect()
    }

    #[test]
    fn flow_streams_are_deterministic() {
        let a = draws(&mut flow_rng(42, 3));
        let b = draws(&mut flow_rng(42, 3));
        assert_eq!(a, b);
    }

    #[test]
    fn flows_get_independent_streams() {
        let a = draws(&mut flow_rng(42, 0));
        let b = draws(&mut flow_rng(42, 1));
        assert_ne!(a, b, "two flows must not share a stream");
    }

    #[test]
    fn seeds_separate_runs() {
        let a = draws(&mut flow_rng(1, 0));
        let b = draws(&mut flow_rng(2, 0));
        assert_ne!(a, b);
    }

    #[test]
    fn many_flows_all_distinct() {
        let mut streams: Vec<Vec<u64>> = (0..100).map(|f| draws(&mut flow_rng(7, f))).collect();
        streams.sort();
        streams.dedup();
        assert_eq!(streams.len(), 100, "100 flows must yield 100 streams");
    }

    #[test]
    fn substreams_are_distinct_per_tag_and_flow() {
        let mut streams: Vec<Vec<u64>> = (0..50u64)
            .flat_map(|f| {
                ["scale.arrivals", "scale.service"]
                    .into_iter()
                    .map(move |tag| (f, tag))
            })
            .map(|(f, tag)| draws(&mut flow_substream(7, f, tag)))
            .collect();
        streams.sort();
        streams.dedup();
        assert_eq!(streams.len(), 100, "50 flows x 2 tags must yield 100 streams");
        // And deterministic.
        assert_eq!(
            draws(&mut flow_substream(7, 3, "scale.arrivals")),
            draws(&mut flow_substream(7, 3, "scale.arrivals"))
        );
    }
}
