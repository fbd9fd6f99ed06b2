//! Four-core multiprogrammed workload construction (§8.1).
//!
//! Three groups of 30 mixes each, 90 total:
//!
//! * **L** (low intensity): four non-memory-intensive applications,
//! * **M** (medium): two non-memory-intensive + two memory-intensive,
//! * **H** (high): four memory-intensive applications,
//!
//! with applications randomly selected (seeded, without replacement within
//! a mix).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::apps::{memory_intensive, non_memory_intensive, AppModel};

/// Multiprogrammed workload group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MixGroup {
    /// Four non-memory-intensive applications.
    Low,
    /// Two non-memory-intensive + two memory-intensive.
    Medium,
    /// Four memory-intensive applications.
    High,
}

impl MixGroup {
    /// All groups in the paper's plotting order (L, M, H).
    pub const ALL: [MixGroup; 3] = [MixGroup::Low, MixGroup::Medium, MixGroup::High];

    /// Single-letter label used in Figure 13.
    pub fn label(self) -> &'static str {
        match self {
            MixGroup::Low => "L",
            MixGroup::Medium => "M",
            MixGroup::High => "H",
        }
    }
}

/// One four-application mix.
#[derive(Debug, Clone, PartialEq)]
pub struct MixSpec {
    /// Mix name ("H_07", ...).
    pub name: String,
    /// Group this mix belongs to.
    pub group: MixGroup,
    /// The four applications, one per core.
    pub apps: [&'static AppModel; 4],
}

/// Builds `count` mixes of `group`, deterministically from `seed`.
pub fn build_mixes(group: MixGroup, count: usize, seed: u64) -> Vec<MixSpec> {
    let mut rng = StdRng::seed_from_u64(seed ^ (group.label().as_bytes()[0] as u64) << 32);
    let intensive = memory_intensive();
    let non = non_memory_intensive();
    (0..count)
        .map(|i| {
            let apps: [&'static AppModel; 4] = match group {
                MixGroup::Low => {
                    let picks: Vec<_> = non.choose_multiple(&mut rng, 4).copied().collect();
                    [picks[0], picks[1], picks[2], picks[3]]
                }
                MixGroup::Medium => {
                    let n: Vec<_> = non.choose_multiple(&mut rng, 2).copied().collect();
                    let m: Vec<_> = intensive.choose_multiple(&mut rng, 2).copied().collect();
                    [n[0], n[1], m[0], m[1]]
                }
                MixGroup::High => {
                    let picks: Vec<_> = intensive.choose_multiple(&mut rng, 4).copied().collect();
                    [picks[0], picks[1], picks[2], picks[3]]
                }
            };
            MixSpec {
                name: format!("{}_{:02}", group.label(), i),
                group,
                apps,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::MemoryClass;

    #[test]
    fn groups_have_right_composition() {
        for g in MixGroup::ALL {
            for mix in build_mixes(g, 10, 1) {
                let intensive = mix
                    .apps
                    .iter()
                    .filter(|a| a.class() == MemoryClass::MemoryIntensive)
                    .count();
                let expect = match g {
                    MixGroup::Low => 0,
                    MixGroup::Medium => 2,
                    MixGroup::High => 4,
                };
                assert_eq!(intensive, expect, "{}", mix.name);
            }
        }
    }

    #[test]
    fn apps_within_a_mix_are_distinct() {
        for mix in MixGroup::ALL.iter().flat_map(|&g| build_mixes(g, 30, 3)) {
            let mut names: Vec<&str> = mix.apps.iter().map(|a| a.name).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), 4, "{}", mix.name);
        }
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        let a = build_mixes(MixGroup::High, 5, 7);
        let b = build_mixes(MixGroup::High, 5, 7);
        let c = build_mixes(MixGroup::High, 5, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
