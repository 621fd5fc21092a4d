//! The Appendix B algorithm: finding the planted clique in
//! `O(n/k · polylog n)` rounds of `BCAST(1)` (Theorem B.1).
//!
//! The protocol, verbatim from the paper:
//!
//! 1. each processor stays *active* with probability `p = log²n / k`
//!    (one round to announce);
//! 2. if more than `2np` processors are active, everyone terminates;
//! 3. each active processor broadcasts its adjacency to every other
//!    active processor (`N_active` rounds — all processors broadcast in
//!    parallel, one bit per round);
//! 4. everyone locally computes the largest clique `C_active` of the
//!    induced *mutual* subgraph; if `|C_active| < ½·log²n`, terminate;
//! 5. every processor connected (mutually) to at least 9/10 of
//!    `C_active` broadcasts a membership claim (one round).
//!
//! Every round is accounted through [`bcc_congest::Network`], so the
//! `O(n/k · log²n)` round count in the experiment tables is measured, not
//! derived.

use bcc_congest::{Model, Network};
use bcc_f2::{BitMatrix, BitVec};
use bcc_graphs::clique::max_clique;
use bcc_graphs::digraph::DiGraph;
use rand::Rng;

/// Why the protocol gave up, if it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Abort {
    /// Step 2: more than `2np` processors were active.
    TooManyActive,
    /// Step 4: the active clique was smaller than `½·log²n`.
    ActiveCliqueTooSmall,
}

/// The outcome of one protocol execution.
#[derive(Debug, Clone)]
pub struct FindOutcome {
    /// Vertices that claimed clique membership (empty on abort).
    pub claimed: Vec<usize>,
    /// The abort reason, if any.
    pub abort: Option<Abort>,
    /// Number of active processors.
    pub active_count: usize,
    /// Size of the maximum clique found among active processors.
    pub active_clique_size: usize,
    /// `BCAST(1)` rounds consumed.
    pub rounds_used: usize,
}

impl FindOutcome {
    /// Whether the claimed set is exactly `clique`.
    pub fn recovered(&self, clique: &[usize]) -> bool {
        self.claimed == clique
    }
}

/// The paper's activation probability `p = log₂²n / k`, clamped to 1.
pub fn activation_probability(n: usize, k: usize) -> f64 {
    let log_n = (n as f64).log2();
    (log_n * log_n / k as f64).min(1.0)
}

/// Runs the Appendix B protocol on `graph` with activation probability
/// `p`, in `BCAST(1)`.
///
/// # Panics
///
/// Panics if `p ∉ (0, 1]` or the graph has fewer than 2 vertices.
pub fn find_planted_clique<R: Rng + ?Sized>(graph: &DiGraph, p: f64, rng: &mut R) -> FindOutcome {
    let n = graph.n();
    assert!(n >= 2, "need at least two vertices");
    find_planted_clique_in(Model::bcast1(n), graph, p, rng)
}

/// Runs the Appendix B protocol under an arbitrary model width — the
/// `BCAST(1)` vs `BCAST(log n)` accounting ablation (footnote 2: the wide
/// model shrinks the adjacency-broadcast phase by the width factor).
///
/// # Panics
///
/// Panics if the model's processor count differs from the graph, if
/// `p ∉ (0, 1]`, or if the graph has fewer than 2 vertices.
pub fn find_planted_clique_in<R: Rng + ?Sized>(
    model: Model,
    graph: &DiGraph,
    p: f64,
    rng: &mut R,
) -> FindOutcome {
    find_on(&mut Network::new(model), graph, p, rng)
}

/// Runs the protocol on `net`, which must have no rounds elapsed.
fn find_on<R: Rng + ?Sized>(
    net: &mut Network,
    graph: &DiGraph,
    p: f64,
    rng: &mut R,
) -> FindOutcome {
    assert!(
        p > 0.0 && p <= 1.0,
        "activation probability must be in (0,1]"
    );
    let n = graph.n();
    assert!(n >= 2, "need at least two vertices");
    assert_eq!(net.model().n(), n, "model size must match the graph");
    assert_eq!(net.rounds_used(), 0, "the network must be fresh");

    // Step 1: activity announcement.
    let active_bits: Vec<u64> = (0..n).map(|_| u64::from(rng.gen::<f64>() < p)).collect();
    let heard = net.broadcast_round(&active_bits).to_vec();
    let active: Vec<usize> = (0..n).filter(|&i| heard[i] == 1).collect();
    let n_active = active.len();

    // Step 2: abort on an oversized sample.
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

    // Step 3: active processors publish their adjacency to the active set
    // (inactive processors pad with zeros — everyone broadcasts each
    // round in this model). `G_AA`, the active rows restricted to the
    // active columns, is one `BitMatrix::select`: two row selections
    // around two block transposes. The diagonal is already zero.
    let g_aa = graph.adjacency().select(&active, &active);
    let mut payloads = vec![BitVec::zeros(n_active); n];
    for (&i, row) in active.iter().zip(g_aa.into_rows()) {
        payloads[i] = row;
    }
    let rounds = net.broadcast_bits(&payloads);

    // Step 4: everyone reconstructs the active mutual subgraph `S ∧ Sᵀ`
    // from the rows `S` the active processors published, and takes its
    // maximum clique (unbounded local computation).
    let published = BitMatrix::from_rows(
        net.collect_bits(rounds, n_active)
            .into_iter()
            .zip(&heard)
            .filter_map(|(row, &h)| (h == 1).then_some(row))
            .collect(),
        n_active,
    );
    let active_graph = DiGraph::from_adjacency(published).mutual_graph();
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

    // Step 5: membership claims. Processor i checks its own row: an
    // out-edge to at least 9/10 of C_active, counting itself when it is a
    // member. (A planted clique forces both directions, so clique members
    // always pass; a non-member's out-edges to C_active are fair coins and
    // the 9/10 threshold fails them with probability exp(-Ω(|C_active|)).)
    let mut clique_mask = BitVec::zeros(n);
    for &j in &active_clique {
        clique_mask.set(j, true);
    }
    let claims: Vec<u64> = (0..n)
        .map(|i| {
            let connected = graph.row(i).and_count(&clique_mask) + usize::from(clique_mask.get(i));
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

/// Success statistics of the protocol over repeated planted instances.
#[derive(Debug, Clone, Copy)]
pub struct FindStats {
    /// Fraction of runs recovering the planted clique exactly.
    pub success_rate: f64,
    /// Mean rounds per run.
    pub mean_rounds: f64,
    /// Mean active-set size.
    pub mean_active: f64,
    /// Fraction of runs aborted.
    pub abort_rate: f64,
}

/// A running tally of the protocol over fresh `A_k` instances, drawn
/// trial by trial from one RNG stream: extending by `a` then `b` trials
/// draws exactly the instances a single extension by `a + b` would, so a
/// caller can grow its budget without replaying earlier trials.
#[derive(Debug, Clone)]
pub struct FindTally {
    n: usize,
    k: usize,
    p: f64,
    trials: usize,
    successes: usize,
    aborts: usize,
    rounds: usize,
    active: usize,
    /// One `BCAST(1)` network for every trial, cleared in between, so
    /// the round log's pages are allocated once per tally.
    net: Option<Network>,
}

impl FindTally {
    /// An empty tally over `A_k` instances on `n` vertices, run with
    /// activation probability `p`.
    pub fn new(n: usize, k: usize, p: f64) -> Self {
        FindTally {
            n,
            k,
            p,
            trials: 0,
            successes: 0,
            aborts: 0,
            rounds: 0,
            active: 0,
            net: None,
        }
    }

    /// Runs the protocol on `trials` more fresh instances.
    pub fn extend<R: Rng + ?Sized>(&mut self, trials: usize, rng: &mut R) {
        for _ in 0..trials {
            let inst = bcc_graphs::planted::sample_planted(rng, self.n, self.k);
            let net = self
                .net
                .get_or_insert_with(|| Network::new(Model::bcast1(self.n)));
            net.clear();
            let out = find_on(net, &inst.graph, self.p, rng);
            self.successes += usize::from(out.recovered(&inst.clique));
            self.aborts += usize::from(out.abort.is_some());
            self.rounds += out.rounds_used;
            self.active += out.active_count;
        }
        self.trials += trials;
    }

    /// Trials run so far.
    pub fn trials(&self) -> usize {
        self.trials
    }

    /// Trials that recovered the planted clique exactly.
    pub fn successes(&self) -> usize {
        self.successes
    }

    /// The statistics over every trial so far.
    ///
    /// # Panics
    ///
    /// Panics if no trial has run.
    pub fn stats(&self) -> FindStats {
        assert!(self.trials > 0, "need at least one trial");
        let t = self.trials as f64;
        FindStats {
            success_rate: self.successes as f64 / t,
            mean_rounds: self.rounds as f64 / t,
            mean_active: self.active as f64 / t,
            abort_rate: self.aborts as f64 / t,
        }
    }
}

/// Runs the protocol on `trials` fresh `A_k` instances.
///
/// # Panics
///
/// Panics if `trials == 0`.
pub fn measure_find<R: Rng + ?Sized>(
    n: usize,
    k: usize,
    p: f64,
    trials: usize,
    rng: &mut R,
) -> FindStats {
    let mut tally = FindTally::new(n, k, p);
    tally.extend(trials, rng);
    tally.stats()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_graphs::planted::{sample_planted, sample_rand};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn recovers_large_planted_clique() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 256;
        let k = 110; // comfortably above log²n = 64
        let p = activation_probability(n, k);
        let mut successes = 0;
        let trials = 5;
        for _ in 0..trials {
            let inst = sample_planted(&mut rng, n, k);
            let out = find_planted_clique(&inst.graph, p, &mut rng);
            if out.recovered(&inst.clique) {
                successes += 1;
            }
        }
        assert!(successes >= 4, "only {successes}/{trials} recovered");
    }

    #[test]
    fn round_count_is_active_plus_two() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 256;
        let k = 110;
        let inst = sample_planted(&mut rng, n, k);
        let out = find_planted_clique(&inst.graph, activation_probability(n, k), &mut rng);
        if out.abort.is_none() {
            assert_eq!(out.rounds_used, out.active_count + 2);
        }
    }

    #[test]
    fn round_count_well_below_trivial() {
        // Trivial: broadcast everything = n rounds. Appendix B: ~ np + 2.
        let mut rng = StdRng::seed_from_u64(3);
        let n = 512;
        let k = 256;
        let p = activation_probability(n, k); // 81/256 ≈ 0.32
        let inst = sample_planted(&mut rng, n, k);
        let out = find_planted_clique(&inst.graph, p, &mut rng);
        assert!(
            out.rounds_used < n / 2,
            "rounds {} not sublinear",
            out.rounds_used
        );
    }

    #[test]
    fn random_graph_rarely_claims_a_clique() {
        // Soundness: on A_rand the active clique is Θ(log n) ≪ ½log²n, so
        // the protocol aborts.
        let mut rng = StdRng::seed_from_u64(4);
        let n = 256;
        let g = sample_rand(&mut rng, n);
        let out = find_planted_clique(&g, activation_probability(n, 110), &mut rng);
        assert_eq!(out.abort, Some(Abort::ActiveCliqueTooSmall));
        assert!(out.claimed.is_empty());
    }

    #[test]
    fn oversized_active_set_aborts() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = sample_rand(&mut rng, 64);
        // Force p tiny so that E[active] ≈ 0.64 and any lucky streak of
        // actives above 2np = 1.28 aborts; try until we see the abort.
        let mut seen_abort = false;
        for _ in 0..200 {
            let out = find_planted_clique(&g, 0.01, &mut rng);
            if out.abort == Some(Abort::TooManyActive) {
                seen_abort = true;
                break;
            }
        }
        assert!(seen_abort, "never hit the too-many-active guard");
    }

    #[test]
    fn bcast_log_shrinks_rounds_by_the_width_factor() {
        // Ablation (a) of DESIGN.md: the adjacency phase dominates, so
        // BCAST(log n) cuts rounds by ~ the message width.
        let mut rng = StdRng::seed_from_u64(7);
        let n = 256;
        let k = 110;
        let p = activation_probability(n, k);
        let inst = sample_planted(&mut rng, n, k);
        let narrow = find_planted_clique(&inst.graph, p, &mut rng);
        let wide = super::find_planted_clique_in(
            bcc_congest::Model::bcast_log(n),
            &inst.graph,
            p,
            &mut rng,
        );
        if narrow.abort.is_none() && wide.abort.is_none() {
            let width = bcc_congest::Model::bcast_log(n).width_bits() as usize;
            assert!(
                wide.rounds_used <= narrow.rounds_used / width * 2 + 4,
                "wide {} vs narrow {} (width {width})",
                wide.rounds_used,
                narrow.rounds_used
            );
            assert!(wide.recovered(&inst.clique));
        }
    }

    #[test]
    fn tally_extensions_compose() {
        // extend(a) then extend(b) draws exactly what extend(a + b) does.
        let (n, k) = (96, 48);
        let p = activation_probability(n, k);
        for (a, b) in [(1, 1), (2, 3), (0, 4), (4, 0)] {
            let mut split_rng = StdRng::seed_from_u64(8);
            let mut split = FindTally::new(n, k, p);
            split.extend(a, &mut split_rng);
            split.extend(b, &mut split_rng);
            let mut whole_rng = StdRng::seed_from_u64(8);
            let mut whole = FindTally::new(n, k, p);
            whole.extend(a + b, &mut whole_rng);
            assert_eq!(split.trials(), whole.trials());
            assert_eq!(split.successes(), whole.successes());
            let (s, w) = (split.stats(), whole.stats());
            assert_eq!(s.success_rate.to_bits(), w.success_rate.to_bits());
            assert_eq!(s.mean_rounds.to_bits(), w.mean_rounds.to_bits());
            assert_eq!(s.mean_active.to_bits(), w.mean_active.to_bits());
            assert_eq!(s.abort_rate.to_bits(), w.abort_rate.to_bits());
            assert_eq!(split_rng.gen::<u64>(), whole_rng.gen::<u64>());
        }
    }

    #[test]
    fn measure_find_reports_consistent_stats() {
        let mut rng = StdRng::seed_from_u64(6);
        let n = 256;
        let k = 110;
        let stats = measure_find(n, k, activation_probability(n, k), 6, &mut rng);
        assert!(stats.success_rate >= 0.5, "success {}", stats.success_rate);
        assert!(stats.mean_active > 0.0);
        assert!(stats.mean_rounds > 2.0);
    }
}
