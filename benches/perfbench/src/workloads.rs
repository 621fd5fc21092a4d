//! The benchmark workloads: which scenario each one sweeps, at the
//! measured size and at the smoke size the benchmark's own test runs.

use bcc_lab::{Scenario, Workload};

/// A named benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Bench {
    /// `RankDistance` adaptive grid: the sampler does the work.
    RankSampled,
    /// `WideMessages` exact-walk grid: the walk does the work.
    WideExact,
    /// `FindClique` over planted `A_k` instances: graphs and finder.
    FindClique,
}

/// Grid size: the measured one, or the tiny one the smoke test runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Size {
    Full,
    Smoke,
}

impl Size {
    pub(crate) fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Smoke => "smoke",
        }
    }
}

pub(crate) const ALL: [Bench; 3] = [Bench::RankSampled, Bench::WideExact, Bench::FindClique];

impl Bench {
    pub(crate) fn parse(name: &str) -> Option<Bench> {
        ALL.into_iter().find(|b| b.name() == name)
    }

    pub(crate) fn name(self) -> &'static str {
        match self {
            Bench::RankSampled => "rank-sampled",
            Bench::WideExact => "wide-exact",
            Bench::FindClique => "find-clique",
        }
    }

    /// Whether the records depend on the exact walk's split depth, which
    /// depends on the thread count: such references are keyed by it.
    pub(crate) fn thread_keyed(self) -> bool {
        self == Bench::WideExact
    }

    /// Whether each run also splits the grid into shards and merges them.
    pub(crate) fn shards(self) -> bool {
        self == Bench::WideExact
    }

    /// Family members per point, for workloads that compare a family
    /// against a baseline (the sampler draws `members + 1` sides).
    fn members(self) -> usize {
        match self {
            Bench::RankSampled | Bench::WideExact => 4,
            Bench::FindClique => 0,
        }
    }

    /// Sides sampled per point with `k` seed bits: the members (clamped
    /// to the `2^k` distinct secrets) plus the baseline.
    pub(crate) fn sides(self, k: u32) -> u64 {
        (self.members().min(1 << k.min(20)) + 1) as u64
    }

    /// The scenario for `seed` at `size`. The seed is folded into the
    /// grid's seeds axis, so each workload seed is a fresh set of points
    /// of the same shape.
    pub(crate) fn scenario(self, seed: u64, size: Size) -> Scenario {
        let smoke = size == Size::Smoke;
        let seeds = |count: u64| -> Vec<u64> {
            (0..count)
                .map(|i| seed.wrapping_mul(1_000_003).wrapping_add(i))
                .collect()
        };
        let name = format!("perfbench-{}-{}", self.name(), size.name());
        let builder = Scenario::builder(name);
        match self {
            Bench::RankSampled => {
                let builder = builder.workload(Workload::RankDistance {
                    members: self.members(),
                });
                if smoke {
                    builder
                        .n(&[1024])
                        .k(&[4, 6])
                        .rounds(&[8])
                        .seeds(&seeds(2))
                        .tolerance(0.25)
                        .initial_samples(1024)
                        .max_samples(1 << 14)
                        .build()
                } else {
                    builder
                        .n(&[1024, 2048, 4096])
                        .k(&[8])
                        .rounds(&[5, 6, 7, 8, 9])
                        .seeds(&seeds(12))
                        .tolerance(0.25)
                        .initial_samples(2048)
                        .max_samples(1 << 16)
                        .build()
                }
            }
            Bench::WideExact => {
                let builder = builder.workload(Workload::WideMessages {
                    members: self.members(),
                });
                if smoke {
                    builder
                        .n(&[1024])
                        .k(&[4])
                        .rounds(&[6, 10])
                        .bandwidth(&[1, 2])
                        .seeds(&seeds(2))
                        .tolerance(0.25)
                        .build()
                } else {
                    builder
                        .n(&[1024, 4096])
                        .k(&[4, 5, 6])
                        .rounds(&[8, 9, 10, 11, 12])
                        .bandwidth(&[1, 2])
                        .seeds(&seeds(3))
                        .tolerance(0.25)
                        .build()
                }
            }
            Bench::FindClique => {
                let builder = builder.workload(Workload::FindClique);
                if smoke {
                    builder
                        .n(&[256])
                        .k(&[110])
                        .seeds(&seeds(2))
                        .tolerance(0.3)
                        .initial_samples(2)
                        .max_samples(8)
                        .build()
                } else {
                    builder
                        .n(&[256, 384, 512])
                        .k(&[120, 160, 200])
                        .seeds(&seeds(12))
                        .tolerance(0.3)
                        .initial_samples(2)
                        .max_samples(8)
                        .build()
                }
            }
        }
    }
}
