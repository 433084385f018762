//! Serializable hot-spot profile data, as carried by metrics shards and
//! the `profile` trace event.
//!
//! The interpreter-side collector (`fisec_x86::ExecProfile`) uses hash
//! maps on the hot path; this is its wire form: address-sorted vectors,
//! so serialization is deterministic, merges are order-independent, and
//! a `diff` against an earlier snapshot recovers exactly one campaign's
//! contribution (the same before/after pattern the campaign trailer uses
//! for its counters).

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Dispatch/retire tallies for one basic block.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HotBlock {
    /// Block entry EIP.
    pub addr: u32,
    /// Times the block engine dispatched this block.
    pub dispatches: u64,
    /// Instructions retired under this entry across all dispatches.
    pub retired: u64,
}

/// One instruction address still executing through the generic slow
/// path, with its operand-shape label.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlowShape {
    /// Instruction address.
    pub addr: u32,
    /// Operand-shape label (e.g. `shl32 r32, imm`).
    pub shape: String,
    /// Times the slow path ran here.
    pub count: u64,
}

/// A complete hot-spot profile: per-block tallies, slow-path sites, the
/// single-step residue and block-cache traffic. All counters are
/// monotone under [`ProfileData::merge`], which makes [`ProfileData::diff`]
/// well-defined.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProfileData {
    /// Per-block tallies, sorted by address.
    pub blocks: Vec<HotBlock>,
    /// Slow-path sites, sorted by address.
    pub slow: Vec<SlowShape>,
    /// Instructions retired through the precise single-step path.
    pub stepwise_retired: u64,
    /// Blocks decoded and inserted while profiling.
    pub cache_built: u64,
    /// Dispatches served from the block cache.
    pub cache_hits: u64,
    /// Blocks dropped by invalidation.
    pub cache_invalidated: u64,
    /// Resident blocks displaced by inserts into full sets.
    #[serde(default)]
    pub cache_conflict_evictions: u64,
}

impl ProfileData {
    /// Is there anything in this profile?
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
            && self.slow.is_empty()
            && self.stepwise_retired == 0
            && self.cache_built == 0
            && self.cache_hits == 0
            && self.cache_invalidated == 0
            && self.cache_conflict_evictions == 0
    }

    /// Total instructions the profile accounts for.
    pub fn total_retired(&self) -> u64 {
        self.blocks.iter().map(|b| b.retired).sum::<u64>() + self.stepwise_retired
    }

    /// Fold another profile into this one (order-independent, so
    /// sharded workers merge to the same state as a sequential run).
    pub fn merge(&mut self, other: &ProfileData) {
        if other.is_empty() {
            return;
        }
        merge_tallies(&mut self.blocks, &other.blocks);
        let mut slow: BTreeMap<u32, SlowShape> =
            self.slow.iter().map(|s| (s.addr, s.clone())).collect();
        for s in &other.slow {
            let e = slow.entry(s.addr).or_insert_with(|| SlowShape {
                addr: s.addr,
                shape: s.shape.clone(),
                count: 0,
            });
            e.count += s.count;
        }
        self.slow = slow.into_values().collect();
        self.stepwise_retired += other.stepwise_retired;
        self.cache_built += other.cache_built;
        self.cache_hits += other.cache_hits;
        self.cache_invalidated += other.cache_invalidated;
        self.cache_conflict_evictions += other.cache_conflict_evictions;
    }

    /// This profile minus `before` — the contribution accumulated since
    /// `before` was snapshot, assuming `before` is an earlier state of
    /// the same accumulation (every counter monotone).
    pub fn diff(&self, before: &ProfileData) -> ProfileData {
        let blocks = diff_tallies(&self.blocks, &before.blocks);
        let s0: BTreeMap<u32, u64> = before.slow.iter().map(|s| (s.addr, s.count)).collect();
        let slow = self
            .slow
            .iter()
            .filter_map(|s| {
                let count = s
                    .count
                    .saturating_sub(s0.get(&s.addr).copied().unwrap_or(0));
                (count != 0).then(|| SlowShape {
                    addr: s.addr,
                    shape: s.shape.clone(),
                    count,
                })
            })
            .collect();
        ProfileData {
            blocks,
            slow,
            stepwise_retired: self
                .stepwise_retired
                .saturating_sub(before.stepwise_retired),
            cache_built: self.cache_built.saturating_sub(before.cache_built),
            cache_hits: self.cache_hits.saturating_sub(before.cache_hits),
            cache_invalidated: self
                .cache_invalidated
                .saturating_sub(before.cache_invalidated),
            cache_conflict_evictions: self
                .cache_conflict_evictions
                .saturating_sub(before.cache_conflict_evictions),
        }
    }
}

/// Fold `other` into `into`, summing tallies per address and keeping the
/// result address-sorted.
fn merge_tallies(into: &mut Vec<HotBlock>, other: &[HotBlock]) {
    let mut map: BTreeMap<u32, HotBlock> = into.iter().map(|b| (b.addr, *b)).collect();
    for b in other {
        let e = map.entry(b.addr).or_insert(HotBlock {
            addr: b.addr,
            dispatches: 0,
            retired: 0,
        });
        e.dispatches += b.dispatches;
        e.retired += b.retired;
    }
    *into = map.into_values().collect();
}

/// `after` minus `before`, per address, dropping zero entries.
fn diff_tallies(after: &[HotBlock], before: &[HotBlock]) -> Vec<HotBlock> {
    let b0: BTreeMap<u32, HotBlock> = before.iter().map(|b| (b.addr, *b)).collect();
    after
        .iter()
        .filter_map(|b| {
            let prev = b0.get(&b.addr).copied().unwrap_or_default();
            let d = HotBlock {
                addr: b.addr,
                dispatches: b.dispatches.saturating_sub(prev.dispatches),
                retired: b.retired.saturating_sub(prev.retired),
            };
            (d.dispatches != 0 || d.retired != 0).then_some(d)
        })
        .collect()
}

impl ProfileData {
    /// Slow-path counts aggregated by shape label, heaviest first.
    pub fn slow_by_shape(&self) -> Vec<(String, u64, usize)> {
        let mut by_shape: BTreeMap<&str, (u64, usize)> = BTreeMap::new();
        for s in &self.slow {
            let e = by_shape.entry(s.shape.as_str()).or_insert((0, 0));
            e.0 += s.count;
            e.1 += 1;
        }
        let mut v: Vec<(String, u64, usize)> = by_shape
            .into_iter()
            .map(|(shape, (count, sites))| (shape.to_string(), count, sites))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ProfileData {
        ProfileData {
            blocks: vec![
                HotBlock {
                    addr: 0x1000,
                    dispatches: 2,
                    retired: 10,
                },
                HotBlock {
                    addr: 0x2000,
                    dispatches: 1,
                    retired: 3,
                },
            ],
            slow: vec![SlowShape {
                addr: 0x1004,
                shape: "shl32 r32, imm".to_string(),
                count: 4,
            }],
            stepwise_retired: 7,
            cache_built: 2,
            cache_hits: 3,
            cache_invalidated: 1,
            ..ProfileData::default()
        }
    }

    #[test]
    fn merge_folds_by_address() {
        let mut a = sample();
        let b = ProfileData {
            blocks: vec![
                HotBlock {
                    addr: 0x1000,
                    dispatches: 1,
                    retired: 5,
                },
                HotBlock {
                    addr: 0x3000,
                    dispatches: 4,
                    retired: 4,
                },
            ],
            slow: vec![SlowShape {
                addr: 0x1004,
                shape: "shl32 r32, imm".to_string(),
                count: 1,
            }],
            stepwise_retired: 1,
            ..ProfileData::default()
        };
        a.merge(&b);
        assert_eq!(a.blocks.len(), 3);
        assert_eq!(a.blocks[0].retired, 15);
        assert_eq!(a.slow[0].count, 5);
        assert_eq!(a.stepwise_retired, 8);
        assert_eq!(a.total_retired(), 30);
        // Merging an empty profile is a no-op.
        let before = a.clone();
        a.merge(&ProfileData::default());
        assert_eq!(a, before);
    }

    #[test]
    fn merge_is_order_independent() {
        let (a, b) = (sample(), {
            let mut x = sample();
            x.blocks[0].addr = 0x4000;
            x
        });
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
    }

    #[test]
    fn diff_recovers_the_increment() {
        let before = sample();
        let mut after = before.clone();
        let inc = ProfileData {
            blocks: vec![HotBlock {
                addr: 0x2000,
                dispatches: 5,
                retired: 20,
            }],
            slow: vec![SlowShape {
                addr: 0x5000,
                shape: "div32 r32".to_string(),
                count: 2,
            }],
            stepwise_retired: 3,
            cache_built: 1,
            cache_hits: 10,
            cache_invalidated: 0,
            ..ProfileData::default()
        };
        after.merge(&inc);
        assert_eq!(after.diff(&before), inc);
        assert!(before.diff(&before).is_empty());
    }

    #[test]
    fn profile_events_with_trace_fields_still_deserialize() {
        // A `profile` event as builds with a trace cache wrote it: the
        // decoder looks fields up by name, so `hot_traces` and the
        // `trace_*` counters are skipped and the rest reads back whole.
        let line = concat!(
            r#"{"event":"profile","app":"ftpd","mode":"snapshot","data":{"#,
            r#""blocks":[{"addr":4096,"dispatches":2,"retired":10},"#,
            r#"{"addr":8192,"dispatches":1,"retired":3}],"#,
            r#""hot_traces":[{"addr":4096,"dispatches":1,"retired":8}],"#,
            r#""slow":[{"addr":4100,"shape":"shl32 r32, imm","count":4}],"#,
            r#""stepwise_retired":7,"cache_built":2,"cache_hits":3,"cache_invalidated":1,"#,
            r#""cache_conflict_evictions":0,"trace_built":1,"trace_hits":2,"#,
            r#""trace_side_exits":1,"trace_invalidated":0}}"#,
        );
        let Ok(crate::TraceEvent::Profile(ev)) = crate::TraceEvent::parse_line(line) else {
            panic!("profile event must parse: {line}");
        };
        assert_eq!(ev.data, sample());
    }

    #[test]
    fn slow_aggregates_by_shape() {
        let mut p = sample();
        p.slow.push(SlowShape {
            addr: 0x9000,
            shape: "shl32 r32, imm".to_string(),
            count: 6,
        });
        p.slow.push(SlowShape {
            addr: 0x9004,
            shape: "div32 r32".to_string(),
            count: 1,
        });
        let by = p.slow_by_shape();
        assert_eq!(by[0], ("shl32 r32, imm".to_string(), 10, 2));
        assert_eq!(by[1], ("div32 r32".to_string(), 1, 1));
    }
}
