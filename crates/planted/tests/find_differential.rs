//! Differential test of the Appendix B finder against the bit-at-a-time
//! reference it replaced.
//!
//! [`reference`] is the finder as it stood before the word-parallel
//! rewrite, kept here (and only here) as an oracle: adjacency gathered
//! with per-bit `has_edge`, the active mutual graph built pair by pair,
//! claims counted by `has_edge` over `C_active`, and Bron–Kerbosch
//! cloning each neighbourhood and scoring pivots through an allocated
//! AND. The library finder must agree on every [`FindOutcome`] field and
//! leave the RNG in the same state, under `BCAST(1)` and `BCAST(log n)`;
//! the library `max_clique` must return the very clique the reference
//! does.

use bcc_congest::Model;
use bcc_graphs::planted::sample_planted;
use bcc_planted::find::{activation_probability, find_planted_clique_in, FindOutcome};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

mod reference {
    use bcc_congest::{Model, Network};
    use bcc_f2::BitVec;
    use bcc_graphs::digraph::{DiGraph, UGraph};
    use bcc_planted::find::{Abort, FindOutcome};
    use rand::Rng;

    pub fn find_planted_clique_in<R: Rng + ?Sized>(
        model: Model,
        graph: &DiGraph,
        p: f64,
        rng: &mut R,
    ) -> FindOutcome {
        let n = graph.n();
        let mut net = Network::new(model);

        let active_bits: Vec<u64> = (0..n).map(|_| u64::from(rng.gen::<f64>() < p)).collect();
        let heard = net.broadcast_round(&active_bits).to_vec();
        let active: Vec<usize> = (0..n).filter(|&i| heard[i] == 1).collect();
        let n_active = active.len();

        if (n_active as f64) > 2.0 * n as f64 * p {
            return FindOutcome {
                claimed: Vec::new(),
                abort: Some(Abort::TooManyActive),
                active_count: n_active,
                active_clique_size: 0,
                rounds_used: net.rounds_used(),
            };
        }
        if n_active < 2 {
            return FindOutcome {
                claimed: Vec::new(),
                abort: Some(Abort::ActiveCliqueTooSmall),
                active_count: n_active,
                active_clique_size: n_active,
                rounds_used: net.rounds_used(),
            };
        }

        let payloads: Vec<BitVec> = (0..n)
            .map(|i| {
                let mut v = BitVec::zeros(n_active);
                if heard[i] == 1 {
                    for (slot, &j) in active.iter().enumerate() {
                        if i != j && graph.has_edge(i, j) {
                            v.set(slot, true);
                        }
                    }
                }
                v
            })
            .collect();
        let rounds = net.broadcast_bits(&payloads);
        let published = net.collect_bits(rounds, n_active);

        let mut active_graph = UGraph::empty(n_active);
        for a in 0..n_active {
            for b in (a + 1)..n_active {
                let ab = published[active[a]].get(b);
                let ba = published[active[b]].get(a);
                if ab && ba {
                    active_graph.set_edge(a, b, true);
                }
            }
        }
        let local_clique = max_clique(&active_graph);
        let active_clique: Vec<usize> = local_clique.iter().map(|&a| active[a]).collect();
        let log_n = (n as f64).log2();
        if (active_clique.len() as f64) < 0.5 * log_n * log_n {
            return FindOutcome {
                claimed: Vec::new(),
                abort: Some(Abort::ActiveCliqueTooSmall),
                active_count: n_active,
                active_clique_size: active_clique.len(),
                rounds_used: net.rounds_used(),
            };
        }

        let claims: Vec<u64> = (0..n)
            .map(|i| {
                let connected = active_clique
                    .iter()
                    .filter(|&&j| i == j || graph.has_edge(i, j))
                    .count();
                u64::from(10 * connected >= 9 * active_clique.len())
            })
            .collect();
        let heard_claims = net.broadcast_round(&claims).to_vec();
        let claimed: Vec<usize> = (0..n).filter(|&i| heard_claims[i] == 1).collect();

        FindOutcome {
            claimed,
            abort: None,
            active_count: n_active,
            active_clique_size: active_clique.len(),
            rounds_used: net.rounds_used(),
        }
    }

    pub fn max_clique(g: &UGraph) -> Vec<usize> {
        let n = g.n();
        let mut best: Vec<usize> = Vec::new();
        let mut r: Vec<usize> = Vec::new();
        let mut p = BitVec::ones(n);
        let mut x = BitVec::zeros(n);
        bron_kerbosch_max(g, &mut r, &mut p, &mut x, &mut best);
        best.sort_unstable();
        best
    }

    fn bron_kerbosch_max(
        g: &UGraph,
        r: &mut Vec<usize>,
        p: &mut BitVec,
        x: &mut BitVec,
        best: &mut Vec<usize>,
    ) {
        if p.is_zero() && x.is_zero() {
            if r.len() > best.len() {
                *best = r.clone();
            }
            return;
        }
        if r.len() + p.count_ones() <= best.len() {
            return;
        }
        for v in pivot_candidates(g, p, x) {
            let nv = g.neighbors(v).clone();
            r.push(v);
            let mut p2 = &*p & &nv;
            let mut x2 = &*x & &nv;
            bron_kerbosch_max(g, r, &mut p2, &mut x2, best);
            r.pop();
            p.set(v, false);
            x.set(v, true);
        }
    }

    fn pivot_candidates(g: &UGraph, p: &BitVec, x: &BitVec) -> Vec<usize> {
        let pivot = p
            .iter_ones()
            .chain(x.iter_ones())
            .max_by_key(|&u| (g.neighbors(u) & p).count_ones())
            .expect("P ∪ X is non-empty here");
        p.iter_ones().filter(|&v| !g.has_edge(pivot, v)).collect()
    }
}

/// Runs both finders from the same RNG state on one instance and checks
/// every outcome field and the RNG state they leave behind.
fn check(model: Model, n: usize, k: usize, p: f64, seed: u64) -> Result<FindOutcome, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let inst = sample_planted(&mut rng, n, k);
    let mut ours = rng.clone();
    let mut theirs = rng;
    let got = find_planted_clique_in(model, &inst.graph, p, &mut ours);
    let want = reference::find_planted_clique_in(model, &inst.graph, p, &mut theirs);
    prop_assert_eq!(&got.claimed, &want.claimed);
    prop_assert_eq!(got.abort, want.abort);
    prop_assert_eq!(got.active_count, want.active_count);
    prop_assert_eq!(got.active_clique_size, want.active_clique_size);
    prop_assert_eq!(got.rounds_used, want.rounds_used);
    prop_assert_eq!(ours.next_u64(), theirs.next_u64());
    Ok(got)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn word_parallel_finder_matches_the_reference(
        n in 2usize..=300,
        k_frac in 0.0f64..1.0,
        p_pick in 0usize..4,
        seed in any::<u64>(),
    ) {
        let k = ((n as f64 * k_frac) as usize).min(n);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        // The paper's rate, a rate low enough to trip the too-many-active
        // guard, a moderate rate and (on small graphs) everyone active.
        let p = match p_pick {
            0 => activation_probability(n, k.max(1)),
            1 => 1.0 / n as f64,
            2 => rng.gen_range(0.05..0.5),
            _ => if n <= 96 { 1.0 } else { 0.3 },
        };
        check(Model::bcast1(n), n, k, p, seed)?;
        check(Model::bcast_log(n), n, k, p, seed)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Sparse-to-dense random graphs have many maximum cliques of equal
    /// size, so this pins the pivot tie-break, not just the clique size.
    #[test]
    fn max_clique_returns_the_reference_clique(
        n in 1usize..90,
        density in 0.05f64..0.8,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = bcc_graphs::digraph::UGraph::random(&mut rng, n, density);
        prop_assert_eq!(bcc_graphs::clique::max_clique(&g), reference::max_clique(&g));
    }
}

#[test]
fn word_parallel_finder_matches_the_reference_on_paper_sizes() {
    // Sizes where the protocol runs to the claim round, so every step is
    // compared, not just the early aborts.
    let mut completed = 0;
    for (n, k, seed) in [(256, 110, 1), (256, 110, 2), (512, 256, 3), (300, 40, 4)] {
        let p = activation_probability(n, k);
        for model in [Model::bcast1(n), Model::bcast_log(n)] {
            let out = check(model, n, k, p, seed).unwrap();
            completed += usize::from(out.abort.is_none() && !out.claimed.is_empty());
        }
    }
    assert!(completed >= 4, "only {completed} runs reached the claims");
}
