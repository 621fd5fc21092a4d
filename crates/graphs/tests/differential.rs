//! Differential tests of the graph algorithms against the code they
//! replaced.
//!
//! [`reference`] keeps, here and only here, the Bron–Kerbosch recursion
//! `maximal_cliques` ran before the search moved onto pooled per-depth
//! buffers: fresh `P ∧ N(v)` and `X ∧ N(v)` vectors and an allocated
//! branch list per node. The library must report the same cliques in the
//! same order. `DiGraph::mutual_graph` is checked against its pairwise
//! definition.

use bcc_graphs::clique::maximal_cliques;
use bcc_graphs::digraph::{DiGraph, UGraph};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod reference {
    use bcc_f2::BitVec;
    use bcc_graphs::digraph::UGraph;

    pub fn maximal_cliques(g: &UGraph, min_size: usize) -> Vec<Vec<usize>> {
        let n = g.n();
        let mut out = Vec::new();
        let mut r: Vec<usize> = Vec::new();
        let mut p = BitVec::ones(n);
        let mut x = BitVec::zeros(n);
        bron_kerbosch_all(g, &mut r, &mut p, &mut x, min_size, &mut out);
        for c in &mut out {
            c.sort_unstable();
        }
        out
    }

    fn bron_kerbosch_all(
        g: &UGraph,
        r: &mut Vec<usize>,
        p: &mut BitVec,
        x: &mut BitVec,
        min_size: usize,
        out: &mut Vec<Vec<usize>>,
    ) {
        if p.is_zero() && x.is_zero() {
            if r.len() >= min_size {
                out.push(r.clone());
            }
            return;
        }
        if r.len() + p.count_ones() < min_size {
            return;
        }
        for v in pivot_candidates(g, p, x) {
            let nv = g.neighbors(v);
            r.push(v);
            let mut p2 = &*p & nv;
            let mut x2 = &*x & nv;
            bron_kerbosch_all(g, r, &mut p2, &mut x2, min_size, out);
            r.pop();
            p.set(v, false);
            x.set(v, true);
        }
    }

    fn pivot_candidates(g: &UGraph, p: &BitVec, x: &BitVec) -> Vec<usize> {
        let pivot = p
            .iter_ones()
            .chain(x.iter_ones())
            .max_by_key(|&u| g.neighbors(u).and_count(p))
            .expect("P ∪ X is non-empty here");
        p.and_not(g.neighbors(pivot)).iter_ones().collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn maximal_cliques_match_the_reference_recursion(
        n in 0usize..64,
        density in 0.05f64..0.8,
        min_size in 0usize..6,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = UGraph::random(&mut rng, n, density);
        prop_assert_eq!(maximal_cliques(&g, min_size), reference::maximal_cliques(&g, min_size));
    }

    #[test]
    fn mutual_graph_is_the_pairwise_definition(
        n in 0usize..150,
        density in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = DiGraph::empty(n);
        for u in 0..n {
            for v in 0..n {
                if u != v && rng.gen::<f64>() < density {
                    g.set_edge(u, v, true);
                }
            }
        }
        let mutual = g.mutual_graph();
        prop_assert_eq!(mutual.n(), n);
        for u in 0..n {
            for v in 0..n {
                let both = u != v && g.has_edge(u, v) && g.has_edge(v, u);
                prop_assert_eq!(mutual.has_edge(u, v), both, "pair ({}, {})", u, v);
            }
        }
    }
}
