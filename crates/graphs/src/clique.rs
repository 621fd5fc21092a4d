//! Clique verification and maximum-clique search.
//!
//! Appendix B of the paper has the active processors broadcast their
//! induced subgraph and then *everyone locally computes its largest clique*
//! — the model allows unbounded local computation. We implement that local
//! step with Bron–Kerbosch with pivoting over bit-packed candidate sets,
//! which is comfortably fast at the active-set sizes the protocol produces
//! (`n·p = Θ(n log²n / k)` vertices of a density-¼ mutual graph plus the
//! planted part).
//!
//! Every set operation is word-parallel through the F₂ word kernel: a
//! branch narrows `P` and `X` by one AND with the borrowed neighbourhood
//! into buffers pooled per search depth, pivots are scored with the
//! allocation-free [`BitVec::and_count`] (`kernel.words.filter`), and the
//! branch list is the index scan of `P ∧ ¬N(pivot)`. One search core
//! serves both [`max_clique`] and [`maximal_cliques`].

use bcc_f2::BitVec;

use crate::digraph::{DiGraph, UGraph};

/// Whether `set` is a clique of the undirected graph.
pub fn is_clique(g: &UGraph, set: &[usize]) -> bool {
    for (a, &u) in set.iter().enumerate() {
        for &v in &set[a + 1..] {
            if u == v || !g.has_edge(u, v) {
                return false;
            }
        }
    }
    true
}

/// Whether `set` is a directed clique (all edges in both directions).
pub fn is_directed_clique(g: &DiGraph, set: &[usize]) -> bool {
    for (a, &u) in set.iter().enumerate() {
        for &v in &set[a + 1..] {
            if u == v || !g.has_edge(u, v) || !g.has_edge(v, u) {
                return false;
            }
        }
    }
    true
}

/// A maximum clique of the undirected graph, via Bron–Kerbosch with
/// pivoting. Returns the vertices sorted.
///
/// Runs in time exponential in the worst case but fast on the random and
/// planted-clique graphs the experiments use; intended for the unbounded
/// local-computation step of Appendix B.
pub fn max_clique(g: &UGraph) -> Vec<usize> {
    let mut best = Vec::new();
    bron_kerbosch(g, 1, |r| {
        best = r.to_vec();
        r.len() + 1
    });
    best.sort_unstable();
    best
}

/// All maximal cliques of size at least `min_size`, each sorted.
pub fn maximal_cliques(g: &UGraph, min_size: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    bron_kerbosch(g, min_size, |r| {
        let mut c = r.to_vec();
        c.sort_unstable();
        out.push(c);
        min_size
    });
    out
}

/// One depth of the search: the candidate set `P`, the excluded set `X`
/// and the branch list, kept across calls so that a branch reuses the
/// buffers of the last branch at its depth instead of allocating.
struct Level {
    p: BitVec,
    x: BitVec,
    branches: Vec<u32>,
}

/// Bron–Kerbosch with Tomita pivoting. Reports every maximal clique of
/// size at least `need` to `found`, which returns the new `need`; a branch
/// that cannot reach `need` even by taking all of `P` is pruned. Adds the
/// number of search nodes to `graphs.clique.branches`.
fn bron_kerbosch(g: &UGraph, need: usize, found: impl FnMut(&[usize]) -> usize) {
    let n = g.n();
    let root = Level {
        p: BitVec::ones(n),
        x: BitVec::zeros(n),
        branches: Vec::new(),
    };
    let mut search = Search {
        g,
        r: Vec::new(),
        levels: vec![root],
        need,
        found,
        nodes: 0,
    };
    search.expand(0);
    if let Some(obs) = bcc_obs::current() {
        obs.add("graphs.clique.branches", bcc_obs::Class::Work, search.nodes);
    }
}

/// One search in progress: the graph, the clique `R` under construction,
/// the per-depth buffers, the size a reported clique must reach, the
/// callback that reports it, and the nodes expanded so far.
struct Search<'g, F> {
    g: &'g UGraph,
    r: Vec<usize>,
    levels: Vec<Level>,
    need: usize,
    found: F,
    nodes: u64,
}

impl<F: FnMut(&[usize]) -> usize> Search<'_, F> {
    /// Expands the node whose `P` and `X` are `levels[depth]`.
    fn expand(&mut self, depth: usize) {
        self.nodes += 1;
        let Level { p, x, .. } = &self.levels[depth];
        if p.is_zero() && x.is_zero() {
            if self.r.len() >= self.need {
                self.need = (self.found)(&self.r);
            }
            return;
        }
        if self.r.len() + p.count_ones() < self.need {
            return;
        }
        if self.levels.len() == depth + 1 {
            self.levels.push(Level {
                p: BitVec::zeros(0),
                x: BitVec::zeros(0),
                branches: Vec::new(),
            });
        }
        let mut branches = std::mem::take(&mut self.levels[depth].branches);
        branches.clear();
        pivot_branches(self.g, &self.levels[depth], &mut branches);
        for &v in &branches {
            let v = v as usize;
            let nv = self.g.neighbors(v);
            let (here, below) = self.levels.split_at_mut(depth + 1);
            let (cur, next) = (&here[depth], &mut below[0]);
            next.p.assign_and(&cur.p, nv);
            next.x.assign_and(&cur.x, nv);
            self.r.push(v);
            self.expand(depth + 1);
            self.r.pop();
            let cur = &mut self.levels[depth];
            cur.p.set(v, false);
            cur.x.set(v, true);
        }
        self.levels[depth].branches = branches;
    }
}

/// Appends `P \ N(pivot)` to `out`, where the pivot maximizes
/// `|N(pivot) ∩ P|` over `P ∪ X` (Tomita-style pivoting; the pivot itself
/// stays a candidate when in `P`). Ties go to the *last* maximiser in
/// `P`-then-`X` order, which fixes the traversal and so which maximum
/// clique is returned.
fn pivot_branches(g: &UGraph, level: &Level, out: &mut Vec<u32>) {
    let (p, x) = (&level.p, &level.x);
    let pivot = p
        .iter_ones()
        .chain(x.iter_ones())
        .max_by_key(|&u| g.neighbors(u).and_count(p))
        .expect("P ∪ X is non-empty here");
    p.and_not_ones_into(g.neighbors(pivot), out);
}

/// Greedily extends `seed` to a maximal clique containing it.
///
/// # Panics
///
/// Panics if `seed` is not a clique.
pub fn greedy_extend(g: &UGraph, seed: &[usize]) -> Vec<usize> {
    assert!(is_clique(g, seed), "seed must be a clique");
    let mut clique: Vec<usize> = seed.to_vec();
    for v in 0..g.n() {
        if clique.contains(&v) {
            continue;
        }
        if clique.iter().all(|&u| g.has_edge(u, v)) {
            clique.push(v);
        }
    }
    clique.sort_unstable();
    clique
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn path_graph(n: usize) -> UGraph {
        let mut g = UGraph::empty(n);
        for i in 0..n - 1 {
            g.set_edge(i, i + 1, true);
        }
        g
    }

    fn complete_graph(n: usize) -> UGraph {
        let mut g = UGraph::empty(n);
        for u in 0..n {
            for v in (u + 1)..n {
                g.set_edge(u, v, true);
            }
        }
        g
    }

    #[test]
    fn is_clique_basics() {
        let mut g = UGraph::empty(4);
        g.set_edge(0, 1, true);
        g.set_edge(1, 2, true);
        g.set_edge(0, 2, true);
        assert!(is_clique(&g, &[0, 1, 2]));
        assert!(!is_clique(&g, &[0, 1, 3]));
        assert!(is_clique(&g, &[2]));
        assert!(is_clique(&g, &[]));
    }

    #[test]
    fn directed_clique_needs_both_arcs() {
        let mut g = DiGraph::empty(3);
        g.set_edge(0, 1, true);
        assert!(!is_directed_clique(&g, &[0, 1]));
        g.set_edge(1, 0, true);
        assert!(is_directed_clique(&g, &[0, 1]));
    }

    #[test]
    fn max_clique_of_path_is_edge() {
        let g = path_graph(6);
        assert_eq!(max_clique(&g).len(), 2);
    }

    #[test]
    fn max_clique_on_complete_graph() {
        assert_eq!(max_clique(&complete_graph(7)), (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn max_clique_finds_planted() {
        let mut rng = StdRng::seed_from_u64(1);
        let planted = [3usize, 9, 17, 25, 31, 38, 39];
        let mut g = UGraph::random(&mut rng, 40, 0.25);
        for &u in &planted {
            for &v in &planted {
                if u != v {
                    g.set_edge(u, v, true);
                }
            }
        }
        let c = max_clique(&g);
        assert!(is_clique(&g, &c));
        assert!(c.len() >= planted.len());
    }

    #[test]
    fn max_clique_random_graph_is_small() {
        // Θ(log n) cliques in G(n, 1/4): for n = 60, max clique stays small.
        let mut rng = StdRng::seed_from_u64(2);
        let g = UGraph::random(&mut rng, 60, 0.25);
        let c = max_clique(&g);
        assert!(is_clique(&g, &c));
        assert!((2..=9).contains(&c.len()), "size {}", c.len());
    }

    #[test]
    fn maximal_cliques_of_triangle_plus_pendant() {
        let mut g = UGraph::empty(4);
        g.set_edge(0, 1, true);
        g.set_edge(1, 2, true);
        g.set_edge(0, 2, true);
        g.set_edge(2, 3, true);
        let mut all = maximal_cliques(&g, 1);
        all.sort();
        assert_eq!(all, vec![vec![0, 1, 2], vec![2, 3]]);
    }

    #[test]
    fn maximal_cliques_respect_min_size() {
        let g = path_graph(5);
        let all = maximal_cliques(&g, 3);
        assert!(all.is_empty());
        let edges = maximal_cliques(&g, 2);
        assert_eq!(edges.len(), 4);
    }

    #[test]
    fn maximal_cliques_are_maximal_and_distinct() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = UGraph::random(&mut rng, 18, 0.4);
        let all = maximal_cliques(&g, 1);
        let set: std::collections::BTreeSet<_> = all.iter().cloned().collect();
        assert_eq!(set.len(), all.len(), "no duplicates");
        for c in &all {
            assert!(is_clique(&g, c));
            for v in 0..g.n() {
                if !c.contains(&v) {
                    assert!(
                        !c.iter().all(|&u| g.has_edge(u, v)),
                        "clique {c:?} not maximal at {v}"
                    );
                }
            }
        }
    }

    #[test]
    fn greedy_extend_is_maximal() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = UGraph::random(&mut rng, 30, 0.5);
        let c = greedy_extend(&g, &[]);
        assert!(is_clique(&g, &c));
        for v in 0..30 {
            if !c.contains(&v) {
                assert!(!c.iter().all(|&u| g.has_edge(u, v)), "not maximal at {v}");
            }
        }
    }

    #[test]
    fn max_clique_agrees_with_enumeration() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..10 {
            let g = UGraph::random(&mut rng, 14, 0.5);
            let best = max_clique(&g);
            let all = maximal_cliques(&g, 1);
            let enumerated_best = all.iter().map(Vec::len).max().unwrap_or(0);
            assert_eq!(best.len(), enumerated_best);
        }
    }
}
