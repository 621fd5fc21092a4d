//! The kernel keystream is the vendored `ChaCha12Rng` stream, bit for
//! bit, under every F2 kernel.
//!
//! `KernelChaCha12Rng` refills 128 words (eight blocks) at a time through
//! `WordKernel::chacha12_blocks`; the stand-in generator computes one
//! block at a time and stays the oracle. Both kernels are constructed
//! explicitly, so these checks run whatever `BCC_KERNEL` says.

use bcc_core::{KernelChaCha12Rng, ProductInput, RowSupport};
use bcc_f2::kernel::Kernel;
use proptest::prelude::*;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha12Rng;

/// Every kernel the host can run.
fn kernels() -> Vec<Kernel> {
    let mut ks = vec![Kernel::scalar()];
    ks.extend(Kernel::avx2());
    ks
}

/// Draws `ops` from both generators (`true` = `next_u64`, `false` =
/// `next_u32`) and asserts every value agrees.
fn assert_same_stream(seed: u64, ops: &[bool]) {
    for kernel in kernels() {
        let mut oracle = ChaCha12Rng::seed_from_u64(seed);
        let mut rng = KernelChaCha12Rng::seed_from_u64(seed).with_kernel(kernel);
        for (i, &wide) in ops.iter().enumerate() {
            let (want, got) = if wide {
                (oracle.next_u64(), rng.next_u64())
            } else {
                (u64::from(oracle.next_u32()), u64::from(rng.next_u32()))
            };
            assert_eq!(want, got, "draw {i} of seed {seed} under {kernel:?}");
        }
    }
}

#[test]
fn u64_draws_match_the_stand_in_over_many_refills() {
    for seed in [0, 1, 0xB17, u64::MAX] {
        assert_same_stream(seed, &[true; 1000]);
    }
}

#[test]
fn odd_offsets_straddle_the_refill_boundary() {
    // One leading u32 puts every later u64 at an odd word offset, so the
    // 64th u64 spans words 127 and 128: the last word of one refill and
    // the first of the next. Two more leading u32s move the seam again.
    for lead in 1..=3 {
        let mut ops = vec![false; lead];
        ops.extend([true; 300]);
        assert_same_stream(7, &ops);
    }
    // Two u32s end the first refill (words 126 and 127); after words
    // 128..255, a u64 spans words 255 and 256, the second seam.
    let mut ops = vec![true; 63];
    ops.extend([false, false, true]);
    ops.extend(vec![false; 125]);
    ops.extend([true, true]);
    assert_same_stream(8, &ops);
}

#[test]
fn from_seed_matches_the_stand_in() {
    let seed: [u8; 32] = std::array::from_fn(|i| (i as u8).wrapping_mul(37));
    for kernel in kernels() {
        let mut oracle = ChaCha12Rng::from_seed(seed);
        let mut rng = KernelChaCha12Rng::from_seed(seed).with_kernel(kernel);
        let mut want = [0u8; 1029];
        let mut got = [0u8; 1029];
        oracle.fill_bytes(&mut want);
        rng.fill_bytes(&mut got);
        assert_eq!(want, got, "under {kernel:?}");
    }
}

proptest! {
    #[test]
    fn mixed_interleavings_match_the_stand_in(
        seed in any::<u64>(),
        ops in proptest::collection::vec(any::<bool>(), 0..600),
    ) {
        assert_same_stream(seed, &ops);
    }

    #[test]
    fn sample_into_draws_what_sample_draws(
        seed in any::<u64>(),
        n in 1usize..12,
        bits in 1u32..10,
        draws in 1usize..40,
    ) {
        let input = ProductInput::uniform(n, bits)
            .with_row(0, RowSupport::explicit(bits, vec![0, (1 << bits) - 1]));
        let mut a = KernelChaCha12Rng::seed_from_u64(seed);
        let mut b = KernelChaCha12Rng::seed_from_u64(seed);
        let mut buf = vec![0u64; n];
        for _ in 0..draws {
            input.sample_into(&mut b, &mut buf);
            prop_assert_eq!(input.sample(&mut a), buf.clone());
        }
        prop_assert_eq!(a.next_u64(), b.next_u64());
    }
}
