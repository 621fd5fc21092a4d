//! Property-based tests for the planted-clique crate.

use bcc_congest::run_turn_protocol;
use bcc_graphs::clique::is_directed_clique;
use bcc_graphs::planted::{row_subcube, sample_planted};
use bcc_planted::lemmas::{lemma_1_10_mean, lemma_4_4_mean};
use bcc_planted::protocols::suspect_intersection;
use bcc_planted::{bounds, clique_input, rand_input};
use bcc_stats::TruthTable;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn planted_instances_contain_directed_cliques(
        n in 4usize..40,
        frac in 0.2f64..0.9,
        seed in any::<u64>(),
    ) {
        let k = ((n as f64 * frac) as usize).clamp(2, n);
        let mut rng = StdRng::seed_from_u64(seed);
        let inst = sample_planted(&mut rng, n, k);
        prop_assert_eq!(inst.clique.len(), k);
        prop_assert!(is_directed_clique(&inst.graph, &inst.clique));
    }

    #[test]
    fn row_subcube_counts(n in 2u32..16, i in 0usize..16, seed in any::<u64>()) {
        prop_assume!((i as u32) < n);
        let mut rng = StdRng::seed_from_u64(seed);
        let k = 2 + (seed as usize % 3).min(n as usize - 2);
        let clique = bcc_graphs::planted::sample_subset(&mut rng, n as usize, k);
        let cube = row_subcube(n, i, &clique);
        // Free coordinates: n - 1 (diagonal) - (k-1 if i in clique else 0).
        let expected = if clique.contains(&i) {
            n - k as u32
        } else {
            n - 1
        };
        prop_assert_eq!(cube.free_count(), expected);
    }

    #[test]
    fn lemma_1_10_holds_for_random_functions(n in 4u32..14, seed in any::<u64>()) {
        let f = TruthTable::random(&mut StdRng::seed_from_u64(seed), n);
        prop_assert!(lemma_1_10_mean(&f) <= bounds::lemma_1_10(n as usize));
    }

    #[test]
    fn lemma_4_4_holds_on_arbitrary_large_domains(
        n in 6u32..12,
        seed in any::<u64>(),
        keep in 0.4f64..1.0,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let domain: Vec<u64> = (0..(1u64 << n))
            .filter(|_| rand::Rng::gen::<f64>(&mut rng) < keep)
            .collect();
        prop_assume!(domain.len() >= 1 << (n - 1)); // t <= 1
        let f = TruthTable::random(&mut rng, n);
        let got = lemma_4_4_mean(&f, &domain);
        prop_assert!(got <= bounds::lemma_4_4(n as usize, 1));
    }

    #[test]
    fn engine_inputs_match_graph_samples(n in 4u32..12, seed in any::<u64>()) {
        // Any sampled A_C graph row is in the corresponding engine support.
        let mut rng = StdRng::seed_from_u64(seed);
        let k = 2;
        let inst = sample_planted(&mut rng, n as usize, k);
        let input = clique_input(n, &inst.clique);
        for i in 0..n as usize {
            let packed: u64 = inst
                .graph
                .row(i)
                .iter_ones()
                .map(|j| 1u64 << j)
                .sum();
            prop_assert!(input.row(i).points().contains(&packed));
        }
    }

    #[test]
    fn transcripts_under_rand_input_are_valid(n in 2u32..8, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let proto = suspect_intersection(n, 2);
        let input = rand_input(n);
        let x = input.sample(&mut rng);
        let t = run_turn_protocol(&proto, &x);
        prop_assert_eq!(t.len(), 2 * n);
    }

    #[test]
    fn theorem_bounds_are_monotone(n in 16usize..4096, k in 1usize..8, j in 1usize..5) {
        prop_assert!(bounds::theorem_1_6(n, k + 1) > bounds::theorem_1_6(n, k));
        prop_assert!(bounds::theorem_4_1(n, k, j + 1) > bounds::theorem_4_1(n, k, j));
        prop_assert!(bounds::theorem_1_6(4 * n, k) < bounds::theorem_1_6(n, k));
    }
}

/// The finder's work counters. `graphs.clique.branches` (Bron–Kerbosch
/// nodes) and `congest.messages_logged` are tallied only under an
/// installed scope, never steer an outcome (obs on == obs off), and the
/// message count is the protocol's own accounting: `n` messages for every
/// round it used.
#[test]
fn finder_work_counters_are_exact_and_invisible() {
    use bcc_planted::find::{activation_probability, find_planted_clique, FindOutcome};

    let (n, k) = (256, 110);
    let p = activation_probability(n, k);
    let run = || -> Vec<FindOutcome> {
        let mut rng = StdRng::seed_from_u64(11);
        (0..6)
            .map(|_| {
                let inst = sample_planted(&mut rng, n, k);
                find_planted_clique(&inst.graph, p, &mut rng)
            })
            .collect()
    };
    let bare = run();
    let registry = bcc_obs::Registry::new();
    let scope = registry.install();
    let observed = run();
    drop(scope);

    for (off, on) in bare.iter().zip(&observed) {
        assert_eq!(off.claimed, on.claimed);
        assert_eq!(off.abort, on.abort);
        assert_eq!(off.active_count, on.active_count);
        assert_eq!(off.active_clique_size, on.active_clique_size);
        assert_eq!(off.rounds_used, on.rounds_used);
    }
    let snap = registry.snapshot();
    let rounds: usize = observed.iter().map(|o| o.rounds_used).sum();
    assert_eq!(
        snap.work_counter("congest.messages_logged"),
        (n * rounds) as u64
    );
    let searched = observed.iter().filter(|o| o.active_count >= 2).count();
    assert!(
        snap.work_counter("graphs.clique.branches") >= searched as u64,
        "every search expands at least its root"
    );
    assert!(searched > 0, "some trial must reach the clique search");
}
