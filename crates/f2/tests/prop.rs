//! Property-based tests for the F₂ substrate.

use bcc_f2::kernel::{Kernel, WordKernel, STREAM_WORDS};
use bcc_f2::subcube::Subcube64;
use bcc_f2::{gauss, sparse_budget, BitMatrix, BitVec, ConsistentSet};
use proptest::prelude::*;

fn arb_bitvec(len: usize) -> impl Strategy<Value = BitVec> {
    proptest::collection::vec(any::<bool>(), len).prop_map(|v| BitVec::from_bools(&v))
}

fn arb_matrix(nrows: usize, ncols: usize) -> impl Strategy<Value = BitMatrix> {
    proptest::collection::vec(arb_bitvec(ncols), nrows)
        .prop_map(move |rows| BitMatrix::from_rows(rows, ncols))
}

proptest! {
    #[test]
    fn xor_commutes(a in arb_bitvec(80), b in arb_bitvec(80)) {
        prop_assert_eq!(&a ^ &b, &b ^ &a);
    }

    #[test]
    fn dot_is_bilinear(a in arb_bitvec(40), b in arb_bitvec(40), c in arb_bitvec(40)) {
        // <a + b, c> = <a, c> + <b, c>
        let lhs = (&a ^ &b).dot(&c);
        let rhs = a.dot(&c) ^ b.dot(&c);
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn matvec_is_linear(m in arb_matrix(6, 8), x in arb_bitvec(8), y in arb_bitvec(8)) {
        let lhs = m.mul_vec(&(&x ^ &y));
        let rhs = &m.mul_vec(&x) ^ &m.mul_vec(&y);
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn left_mul_matches_transpose(m in arb_matrix(7, 5), x in arb_bitvec(7)) {
        prop_assert_eq!(m.left_mul_vec(&x), m.transpose().mul_vec(&x));
    }

    #[test]
    fn rank_subadditive_under_stacking(a in arb_matrix(4, 6), b in arb_matrix(3, 6)) {
        let mut rows: Vec<BitVec> = a.iter_rows().cloned().collect();
        rows.extend(b.iter_rows().cloned());
        let stacked = BitMatrix::from_rows(rows, 6);
        let r = gauss::rank(&stacked);
        prop_assert!(r <= gauss::rank(&a) + gauss::rank(&b));
        prop_assert!(r >= gauss::rank(&a).max(gauss::rank(&b)));
    }

    #[test]
    fn solve_returns_actual_solutions(m in arb_matrix(6, 6), b in arb_bitvec(6)) {
        if let Some(x) = gauss::solve(&m, &b) {
            prop_assert_eq!(m.mul_vec(&x), b);
        } else {
            // Inconsistent: b not in column space, rank([A|b]) > rank(A).
            let aug = m.hconcat(&BitMatrix::from_rows(
                b.iter().map(|bit| BitVec::from_bools(&[bit])).collect(),
                1,
            ));
            prop_assert_eq!(gauss::rank(&aug), gauss::rank(&m) + 1);
        }
    }

    #[test]
    fn kernel_dimension_theorem(m in arb_matrix(5, 9)) {
        let basis = gauss::kernel_basis(&m);
        prop_assert_eq!(basis.len(), 9 - gauss::rank(&m));
        for v in &basis {
            prop_assert!(m.mul_vec(v).is_zero());
        }
    }

    #[test]
    fn subcube_contains_iff_enumerated(mask in 0u64..64, value in 0u64..64, x in 0u64..64) {
        let value = value & mask;
        let cube = Subcube64::with_fixed(6, mask, value);
        let enumerated: std::collections::BTreeSet<u64> = cube.iter().collect();
        prop_assert_eq!(enumerated.contains(&x), cube.contains(x));
        prop_assert_eq!(enumerated.len() as u64, cube.len());
    }

    #[test]
    fn subcube_fix_then_contains(bits in proptest::collection::vec((0u32..10, any::<bool>()), 0..6)) {
        let mut cube = Some(Subcube64::new(10));
        let mut assignment: std::collections::BTreeMap<u32, bool> = Default::default();
        let mut consistent = true;
        for (i, b) in bits {
            if let Some(&prev) = assignment.get(&i) {
                if prev != b {
                    consistent = false;
                }
            }
            assignment.entry(i).or_insert(b);
            cube = cube.and_then(|c| c.fixed(i, b));
        }
        prop_assert_eq!(cube.is_some(), consistent);
        if let Some(c) = cube {
            for x in c.iter().take(64) {
                for (&i, &b) in &assignment {
                    prop_assert_eq!((x >> i) & 1 == 1, b);
                }
            }
        }
    }

    #[test]
    fn echelon_preserves_row_space(m in arb_matrix(5, 7)) {
        let e = gauss::echelon(&m);
        let mut rows: Vec<BitVec> = m.iter_rows().cloned().collect();
        rows.extend(e.matrix.iter_rows().cloned());
        let stacked = BitMatrix::from_rows(rows, 7);
        prop_assert_eq!(gauss::rank(&stacked), e.rank());
    }

    #[test]
    fn consistent_set_roundtrips_bitvec(mask in arb_bitvec(300)) {
        let set = ConsistentSet::from_bitvec(&mask);
        prop_assert_eq!(set.count(), mask.count_ones());
        prop_assert_eq!(set.to_bitvec(), mask.clone());
        prop_assert!(set.iter().eq(mask.iter_ones()));
        // The representation always follows the word-budget rule.
        prop_assert_eq!(set.is_sparse(), set.count() <= sparse_budget(300));
        prop_assert_eq!(set.clone(), set);
    }

    #[test]
    fn consistent_set_filter_agrees_with_bitvec_ops(
        mask in arb_bitvec(300),
        plane_mask in arb_bitvec(300),
        keep in any::<bool>(),
    ) {
        // assign_filtered against the BitVec algebra it replaces:
        // keep = alive AND plane, drop = alive AND NOT plane.
        let set = ConsistentSet::from_bitvec(&mask);
        let mut child = ConsistentSet::empty(0);
        child.assign_filtered(&set, plane_mask.as_words(), keep);
        let expected = if keep {
            &mask & &plane_mask
        } else {
            mask.and_not(&plane_mask)
        };
        prop_assert_eq!(child.to_bitvec(), expected.clone());
        prop_assert_eq!(child.count(), expected.count_ones());
        prop_assert_eq!(child.is_sparse(), child.count() <= sparse_budget(300));
        // Both polarities partition the parent.
        let mut other = ConsistentSet::empty(0);
        other.assign_filtered(&set, plane_mask.as_words(), !keep);
        prop_assert_eq!(child.count() + other.count(), set.count());
    }

    #[test]
    fn consistent_set_build_matches_indices(
        indices in proptest::collection::btree_set(0u32..300, 0..80usize),
    ) {
        let sorted: Vec<u32> = indices.into_iter().collect();
        let set = ConsistentSet::from_indices(300, &sorted);
        prop_assert_eq!(set.count(), sorted.len());
        prop_assert!(set.iter().map(|i| i as u32).eq(sorted.iter().copied()));
        for &i in &sorted {
            prop_assert!(set.contains(i as usize));
        }
    }

    #[test]
    fn demotion_flag_tracks_the_budget_exactly_at_the_boundary(
        // prop_filter concentrates every case within two elements of the
        // dense↔sparse demotion boundary — the sizes where an off-by-one
        // in the budget comparison would actually flip the representation
        // (uniform sizes would hit this window in a small minority of
        // cases).
        indices in proptest::collection::btree_set(0u32..300, 1..=80usize)
            .prop_filter("within 2 of the sparse budget", |s| {
                s.len().abs_diff(sparse_budget(300)) <= 2
            }),
    ) {
        let sorted: Vec<u32> = indices.into_iter().collect();
        let set = ConsistentSet::from_indices(300, &sorted);
        prop_assert_eq!(set.is_sparse(), set.count() <= sparse_budget(300));
        prop_assert!(set.iter().map(|i| i as u32).eq(sorted.iter().copied()));
    }
}

// ---------------------------------------------------------------------
// The kernel layer: every `WordKernel` method pinned bitwise against the
// scalar oracle. On hosts without AVX2 (or off x86-64) `lane_kernels()`
// is empty and these properties degenerate to vacuous truths — the
// `kernel-matrix` CI leg is what guarantees an AVX2 host runs them.
// ---------------------------------------------------------------------

/// Every non-scalar kernel the host can run (to be pinned against
/// [`Kernel::scalar`]).
fn lane_kernels() -> Vec<Kernel> {
    Kernel::avx2().into_iter().collect()
}

/// Word slices sized 0..=12 so lane bodies (4 words per step), scalar
/// tails and the empty case all occur.
fn arb_words() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(any::<u64>(), 0..=12)
}

/// `chacha12_blocks` of every lane kernel against the scalar oracle.
fn assert_stream_matches_scalar(key: &[u32; 8], counter: u64) {
    let mut want = [0u32; STREAM_WORDS];
    Kernel::scalar().chacha12_blocks(key, counter, &mut want);
    for k in lane_kernels() {
        let mut got = [0u32; STREAM_WORDS];
        k.chacha12_blocks(key, counter, &mut got);
        assert_eq!(want, got, "counter {counter:#x} under {}", k.name());
    }
}

#[test]
fn kernel_stream_matches_scalar_across_counter_word_carries() {
    let key = [
        0x0302_0100,
        0x0706_0504,
        0x0b0a_0908,
        0x0f0e_0d0c,
        0x1312_1110,
        0x1716_1514,
        0x1b1a_1918,
        0x1f1e_1d1c,
    ];
    // 2^32 − 3: the eight blocks carry from counter word 12 into 13.
    // u64::MAX − 3: they wrap the whole 64-bit counter.
    for counter in [0, 1 << 32, (1 << 32) - 3, u64::MAX - 3] {
        assert_stream_matches_scalar(&key, counter);
    }
    // Blocks are consecutive: a call at counter c + 1 starts with the
    // second block of the call at c.
    let s = Kernel::scalar();
    let mut at0 = [0u32; STREAM_WORDS];
    let mut at1 = [0u32; STREAM_WORDS];
    s.chacha12_blocks(&key, (1 << 32) - 3, &mut at0);
    s.chacha12_blocks(&key, (1 << 32) - 2, &mut at1);
    assert_eq!(at0[16..], at1[..STREAM_WORDS - 16]);
}

/// Reference bit-at-a-time slice (the loop `BitVec::slice` replaced).
fn slice_reference(v: &BitVec, lo: usize, hi: usize) -> BitVec {
    let mut out = BitVec::zeros(hi - lo);
    for i in lo..hi {
        if v.get(i) {
            out.set(i - lo, true);
        }
    }
    out
}

/// Reference bit-at-a-time concat (the loop `BitVec::concat` replaced).
fn concat_reference(a: &BitVec, b: &BitVec) -> BitVec {
    let mut out = BitVec::zeros(a.len() + b.len());
    for i in 0..a.len() {
        if a.get(i) {
            out.set(i, true);
        }
    }
    for i in 0..b.len() {
        if b.get(i) {
            out.set(a.len() + i, true);
        }
    }
    out
}

proptest! {
    #[test]
    fn kernel_bulk_ops_match_scalar(a in arb_words(), b in arb_words()) {
        let s = Kernel::scalar();
        for k in lane_kernels() {
            prop_assert_ne!(k.name(), s.name());
            for op in 0..4usize {
                let mut want = a.clone();
                let mut got = a.clone();
                match op {
                    0 => { s.and_in_place(&mut want, &b); k.and_in_place(&mut got, &b) }
                    1 => { s.or_in_place(&mut want, &b); k.or_in_place(&mut got, &b) }
                    2 => { s.xor_in_place(&mut want, &b); k.xor_in_place(&mut got, &b) }
                    _ => { s.and_not_in_place(&mut want, &b); k.and_not_in_place(&mut got, &b) }
                }
                prop_assert_eq!(&want, &got, "op {} under {}", op, k.name());
            }
        }
    }

    #[test]
    fn kernel_stream_matches_scalar(
        key in proptest::collection::vec(any::<u32>(), 8),
        counter in any::<u64>(),
    ) {
        let key: [u32; 8] = key.try_into().expect("eight key words");
        assert_stream_matches_scalar(&key, counter);
    }

    #[test]
    fn kernel_counts_and_folds_match_scalar(a in arb_words(), b in arb_words()) {
        let s = Kernel::scalar();
        for k in lane_kernels() {
            prop_assert_eq!(k.count_ones(&a), s.count_ones(&a));
            prop_assert_eq!(k.dot(&a, &b), s.dot(&a, &b));
            prop_assert_eq!(k.or_and_fold(&a), s.or_and_fold(&a));
        }
    }

    #[test]
    fn kernel_filter_family_matches_scalar(
        a in arb_words(),
        plane in proptest::collection::vec(any::<u64>(), 12),
        keep in any::<bool>(),
    ) {
        let s = Kernel::scalar();
        for k in lane_kernels() {
            prop_assert_eq!(
                k.filter_count(&a, &plane, keep),
                s.filter_count(&a, &plane, keep)
            );
            let mut want = vec![0u64; a.len()];
            let mut got = vec![!0u64; a.len()];
            s.filter_into(&a, &plane, keep, &mut want);
            k.filter_into(&a, &plane, keep, &mut got);
            prop_assert_eq!(&want, &got);
            let mut want_idx = Vec::new();
            let mut got_idx = Vec::new();
            s.filter_indices(&a, &plane, keep, &mut want_idx);
            k.filter_indices(&a, &plane, keep, &mut got_idx);
            prop_assert_eq!(&want_idx, &got_idx);
            want_idx.clear();
            got_idx.clear();
            s.ones_indices(&a, &mut want_idx);
            k.ones_indices(&a, &mut got_idx);
            prop_assert_eq!(&want_idx, &got_idx);
        }
    }

    #[test]
    fn kernel_radix_passes_match_scalar(
        keys in proptest::collection::vec(any::<u64>(), 0..40),
        byte in 0u32..8,
    ) {
        let shift = byte * 8;
        let s = Kernel::scalar();
        for k in lane_kernels() {
            let mut want_hist = [0usize; 256];
            let mut got_hist = [0usize; 256];
            s.byte_histogram(&keys, shift, &mut want_hist);
            k.byte_histogram(&keys, shift, &mut got_hist);
            prop_assert!(want_hist == got_hist, "histogram under {}", k.name());
            // Scatter with the offsets a radix pass would derive.
            let mut offsets = [0usize; 256];
            let mut sum = 0usize;
            for (b, o) in offsets.iter_mut().enumerate() {
                *o = sum;
                sum += want_hist[b];
            }
            let mut want_out = vec![0u64; keys.len()];
            let mut got_out = vec![!0u64; keys.len()];
            let mut off2 = offsets;
            s.byte_scatter(&keys, shift, &mut offsets, &mut want_out);
            k.byte_scatter(&keys, shift, &mut off2, &mut got_out);
            prop_assert_eq!(&want_out, &got_out);
            prop_assert!(offsets == off2, "advanced offsets under {}", k.name());
        }
    }

    #[test]
    fn kernel_shift_family_matches_scalar(
        src in arb_words(),
        lo_bit in 0usize..800,
        out_len in 0usize..12,
        base in arb_words(),
    ) {
        let s = Kernel::scalar();
        for k in lane_kernels() {
            let mut want = vec![!0u64; out_len];
            let mut got = vec![0u64; out_len];
            s.extract_shifted(&src, lo_bit, &mut want);
            k.extract_shifted(&src, lo_bit, &mut got);
            prop_assert_eq!(&want, &got, "extract at {} under {}", lo_bit, k.name());
            // or_shifted_into: size the output so every bit fits (its
            // contract for out-of-range bits requires them to be zero).
            let bit_offset = lo_bit % 130;
            let words = src.len() + bit_offset / 64 + 2;
            let mut want = base.clone();
            want.resize(words, 0);
            let mut got = want.clone();
            s.or_shifted_into(&src, bit_offset, &mut want);
            k.or_shifted_into(&src, bit_offset, &mut got);
            prop_assert_eq!(&want, &got, "or-shift at {} under {}", bit_offset, k.name());
        }
    }

    #[test]
    fn kernel_partition_split_matches_scalar_at_the_demotion_boundary(
        // Parent occupancies concentrated around the dense↔sparse budget
        // (300/64 -> 5 words) so both child regimes and the boundary
        // itself occur; universe 300 leaves a 44-bit tail word.
        indices in proptest::collection::btree_set(0u32..300, 1..=24usize),
        plane_mask in arb_bitvec(300),
        keep in any::<bool>(),
    ) {
        let sorted: Vec<u32> = indices.into_iter().collect();
        let parent = ConsistentSet::from_indices(300, &sorted);
        let scalar = Kernel::scalar();
        let mut want = ConsistentSet::empty(0);
        want.assign_filtered_with(&parent, plane_mask.as_words(), keep, &scalar);
        for k in lane_kernels() {
            let mut got = ConsistentSet::empty(0);
            got.assign_filtered_with(&parent, plane_mask.as_words(), keep, &k);
            prop_assert_eq!(got.repr(), want.repr());
            prop_assert_eq!(got.count(), want.count());
            prop_assert!(got.iter().eq(want.iter()), "points differ under {}", k.name());
        }
    }

    #[test]
    fn slice_matches_the_bitwise_reference(
        bits in proptest::collection::vec(any::<bool>(), 300),
        len in 0usize..=300,
        a in 0usize..=300,
        b in 0usize..=300,
    ) {
        let v = BitVec::from_bools(&bits[..len]);
        let (lo, hi) = (a.min(b).min(len), a.max(b).min(len));
        prop_assert_eq!(v.slice(lo, hi), slice_reference(&v, lo, hi));
    }

    #[test]
    fn concat_matches_the_bitwise_reference(
        bits_a in proptest::collection::vec(any::<bool>(), 200),
        bits_b in proptest::collection::vec(any::<bool>(), 200),
        len_a in 0usize..=200,
        len_b in 0usize..=200,
    ) {
        let a = BitVec::from_bools(&bits_a[..len_a]);
        let b = BitVec::from_bools(&bits_b[..len_b]);
        let cat = a.concat(&b);
        prop_assert_eq!(cat.len(), a.len() + b.len());
        prop_assert_eq!(cat, concat_reference(&a, &b));
    }
}

/// The bit-by-bit transpose the block transpose replaced: one `set` per
/// one bit.
fn transpose_reference(m: &BitMatrix) -> BitMatrix {
    let mut t = BitMatrix::zeros(m.ncols(), m.nrows());
    for (i, row) in m.iter_rows().enumerate() {
        for j in row.iter_ones() {
            t.set(j, i, true);
        }
    }
    t
}

/// A seeded random matrix; `density` picks all-zero, sparse, half or
/// all-one rows so that every block pattern shows up.
fn seeded_matrix(nrows: usize, ncols: usize, density: u8, seed: u64) -> BitMatrix {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let rows = (0..nrows)
        .map(|_| match density % 4 {
            0 => BitVec::zeros(ncols),
            1 => (0..ncols).map(|_| rng.gen_range(0..8) == 0).collect(),
            2 => BitVec::random(&mut rng, ncols),
            _ => BitVec::ones(ncols),
        })
        .collect();
    BitMatrix::from_rows(rows, ncols)
}

#[test]
fn block_transpose_matches_the_bitwise_reference_on_edge_shapes() {
    let shapes = [
        (0, 0),
        (0, 5),
        (0, 64),
        (5, 0),
        (64, 0),
        (1, 1),
        (63, 63),
        (64, 64),
        (65, 65),
        (63, 65),
        (65, 64),
        (64, 63),
        (1, 130),
        (130, 1),
        (257, 300),
    ];
    for (nrows, ncols) in shapes {
        for density in 0..4 {
            let m = seeded_matrix(nrows, ncols, density, (nrows * 1000 + ncols) as u64);
            let t = m.transpose();
            assert_eq!((t.nrows(), t.ncols()), (ncols, nrows));
            assert_eq!(
                t,
                transpose_reference(&m),
                "{nrows}x{ncols} density {density}"
            );
            assert_eq!(t.transpose(), m, "{nrows}x{ncols} twice");
        }
    }
}

proptest! {
    #[test]
    fn block_transpose_matches_the_bitwise_reference(
        nrows in 0usize..200,
        ncols in 0usize..200,
        density in 0u8..4,
        seed in any::<u64>(),
    ) {
        let m = seeded_matrix(nrows, ncols, density, seed);
        let t = m.transpose();
        prop_assert_eq!(&t, &transpose_reference(&m));
        prop_assert_eq!(t.transpose(), m);
    }

    #[test]
    fn select_matches_entrywise_gather(
        nrows in 1usize..150,
        ncols in 1usize..150,
        rows in proptest::collection::vec(any::<u64>(), 0..140),
        cols in proptest::collection::vec(any::<u64>(), 0..140),
        seed in any::<u64>(),
    ) {
        // Arbitrary orders, with repeats.
        let rows: Vec<usize> = rows.iter().map(|&r| r as usize % nrows).collect();
        let cols: Vec<usize> = cols.iter().map(|&c| c as usize % ncols).collect();
        let m = seeded_matrix(nrows, ncols, 2, seed);
        let got = m.select(&rows, &cols);
        prop_assert_eq!((got.nrows(), got.ncols()), (rows.len(), cols.len()));
        for (a, &i) in rows.iter().enumerate() {
            for (b, &j) in cols.iter().enumerate() {
                prop_assert_eq!(got.get(a, b), m.get(i, j));
            }
        }
    }
}
