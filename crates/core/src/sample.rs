//! Monte-Carlo transcript-distance estimation for instances beyond exact
//! reach.
//!
//! With `T ≤ 64` turns a transcript packs into a `u64`, so the empirical
//! transcript histograms are exact objects and the only error is sampling
//! noise (`≈ sqrt(|support| / samples)` upward bias on TV). Every estimate
//! reports a Hoeffding-style radius through the returned sample counts.
//!
//! # Histogram representation
//!
//! Transcripts are batched into a reusable [`TranscriptArena`] of packed
//! `u64` keys and *sorted* — no per-sample hashing. A key stores turn `t`
//! at bit `63 − t` (the bit-reversed packing), so the keys of any prefix
//! length group contiguously under the full-key sort order: one sort pays
//! for TV merges at every depth, which is what
//! [`crate::exec::SampledEstimator`] exploits for whole depth profiles.
//! The sort itself is [`radix_sort_u64`], an LSD radix sort that skips
//! the constant low bytes the bit-reversed packing produces.
//!
//! # Wide transcripts
//!
//! `BCAST(w)` transcripts get the same treatment at `w` bits per turn:
//! [`wide_prefix_key`] stores turn `t`'s message in bits
//! `[64 − (t+1)·w, 64 − t·w)` — turn-major from the top of the key — so
//! `t`-turn prefixes again group contiguously and a TV merge at turn
//! depth `t` is a merge at *bit* depth `t·w`. At `w = 1` this packing is
//! exactly [`prefix_key`]'s bit-reversal, which is what pins the width-1
//! wide sampler to the bit sampler bit for bit
//! (`crates/core/tests/differential.rs`).
//!
//! # Keystream
//!
//! The estimators in [`crate::exec`] draw from [`KernelChaCha12Rng`]:
//! the vendored `ChaCha12Rng`'s stream, word for word, refilled eight
//! blocks at a time by the F2 kernel's
//! [`WordKernel::chacha12_blocks`] (counted as `kernel.words.stream`).

use bcc_congest::turn::run_turn_protocol;
use bcc_congest::wide::{run_wide_protocol, WideTranscript, WideTurnProtocol};
use bcc_congest::TurnProtocol;
use bcc_f2::kernel::{self, Kernel, WordKernel, STREAM_BLOCKS, STREAM_WORDS};
use bcc_stats::sampling::MeanEstimator;
use rand::{Rng, RngCore, SeedableRng};

use crate::input::ProductInput;

/// A ChaCha12 generator whose keystream comes from an F2 [`Kernel`].
///
/// Its stream is bitwise the vendored `rand_chacha::ChaCha12Rng`'s for
/// the same seed, under every kernel: the kernel only decides how the
/// blocks are computed ([`WordKernel::chacha12_blocks`], eight per
/// refill). [`SeedableRng`] constructors use [`kernel::active`];
/// [`KernelChaCha12Rng::with_kernel`] picks one explicitly.
#[derive(Clone, Debug)]
pub struct KernelChaCha12Rng {
    kernel: Kernel,
    key: [u32; 8],
    /// The block counter of the next refill's first block.
    counter: u64,
    buffer: [u32; STREAM_WORDS],
    /// The next unread word of `buffer`; `STREAM_WORDS` when drained.
    index: usize,
}

impl KernelChaCha12Rng {
    /// This generator computing its blocks with `kernel` (the stream is
    /// the same under every kernel).
    pub fn with_kernel(mut self, kernel: Kernel) -> Self {
        self.kernel = kernel;
        self
    }

    fn refill(&mut self) {
        self.kernel
            .chacha12_blocks(&self.key, self.counter, &mut self.buffer);
        self.counter = self.counter.wrapping_add(STREAM_BLOCKS as u64);
        self.index = 0;
    }
}

impl SeedableRng for KernelChaCha12Rng {
    type Seed = [u8; 32];

    fn from_seed(seed: [u8; 32]) -> Self {
        let mut key = [0u32; 8];
        for (word, chunk) in key.iter_mut().zip(seed.chunks_exact(4)) {
            *word = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        KernelChaCha12Rng {
            kernel: kernel::active(),
            key,
            counter: 0,
            buffer: [0; STREAM_WORDS],
            index: STREAM_WORDS,
        }
    }
}

impl RngCore for KernelChaCha12Rng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        if self.index == STREAM_WORDS {
            self.refill();
        }
        let word = self.buffer[self.index];
        self.index += 1;
        word
    }

    /// Two consecutive words, low first — the stand-in's order, also
    /// across a block or refill boundary.
    #[inline]
    fn next_u64(&mut self) -> u64 {
        if self.index + 1 < STREAM_WORDS {
            let lo = u64::from(self.buffer[self.index]);
            let hi = u64::from(self.buffer[self.index + 1]);
            self.index += 2;
            (hi << 32) | lo
        } else {
            let lo = u64::from(self.next_u32());
            let hi = u64::from(self.next_u32());
            (hi << 32) | lo
        }
    }
}

/// Reusable buffers of packed transcript keys: hold one across a sweep of
/// comparisons to amortize allocations.
#[derive(Debug, Default)]
pub struct TranscriptArena {
    side_a: Vec<u64>,
    side_b: Vec<u64>,
}

impl TranscriptArena {
    /// An empty arena.
    pub fn new() -> Self {
        TranscriptArena::default()
    }
}

/// Packs a transcript's bits with turn `t` at bit `63 − t`, so prefixes
/// order contiguously (see the module docs).
#[inline]
pub(crate) fn prefix_key(packed_transcript: u64) -> u64 {
    packed_transcript.reverse_bits()
}

/// Packs a wide transcript with turn `t`'s `w`-bit message at bits
/// `[64 − (t+1)·w, 64 − t·w)` (turn-major from the top), so `t`-turn
/// prefixes group contiguously under the full-key sort order at bit depth
/// `t·w`. The width-1 packing coincides with [`prefix_key`] of the
/// single-bit transcript.
#[inline]
pub fn wide_prefix_key(transcript: &WideTranscript) -> u64 {
    let width = transcript.width();
    let mut key = 0u64;
    for t in 0..transcript.len() {
        key |= transcript.message(t) << (64 - (t + 1) * width);
    }
    key
}

/// Fills `out` with `samples` sorted keys drawn by `draw` — the generic
/// core of [`collect_sorted_keys`] and [`collect_sorted_wide_keys`], and
/// the per-batch chunk collector of the adaptive estimators.
pub(crate) fn collect_sorted_keys_with<R, F>(
    mut draw: F,
    samples: usize,
    rng: &mut R,
    out: &mut Vec<u64>,
) where
    R: Rng + ?Sized,
    F: FnMut(&mut R) -> u64,
{
    out.clear();
    out.reserve(samples);
    for _ in 0..samples {
        out.push(draw(rng));
    }
    radix_sort_u64(out);
}

/// Fills `out` with `samples` sorted prefix keys of `protocol` run on
/// inputs that `sampler` draws into one reused buffer of `n` words.
pub(crate) fn collect_sorted_keys<P, R, F>(
    protocol: &P,
    mut sampler: F,
    samples: usize,
    rng: &mut R,
    out: &mut Vec<u64>,
) where
    P: TurnProtocol + ?Sized,
    R: Rng + ?Sized,
    F: FnMut(&mut R, &mut [u64]),
{
    let mut inputs = vec![0u64; protocol.n()];
    collect_sorted_keys_with(
        |rng| {
            sampler(rng, &mut inputs);
            prefix_key(run_turn_protocol(protocol, &inputs).as_u64())
        },
        samples,
        rng,
        out,
    );
}

/// The wide sibling of [`collect_sorted_keys`]: sorted [`wide_prefix_key`]s
/// of `protocol` run on inputs `sampler` draws into one reused buffer.
pub(crate) fn collect_sorted_wide_keys<P, R, F>(
    protocol: &P,
    mut sampler: F,
    samples: usize,
    rng: &mut R,
    out: &mut Vec<u64>,
) where
    P: WideTurnProtocol + ?Sized,
    R: Rng + ?Sized,
    F: FnMut(&mut R, &mut [u64]),
{
    let mut inputs = vec![0u64; protocol.n()];
    collect_sorted_keys_with(
        |rng| {
            sampler(rng, &mut inputs);
            wide_prefix_key(&run_wide_protocol(protocol, &inputs))
        },
        samples,
        rng,
        out,
    );
}

/// Adapts a sampler that returns an owned input vector to the buffer
/// form [`collect_sorted_keys`] takes.
fn into_buffer<R: ?Sized>(
    mut sample: impl FnMut(&mut R) -> Vec<u64>,
) -> impl FnMut(&mut R, &mut [u64]) {
    move |rng, inputs| {
        let drawn = sample(rng);
        assert_eq!(drawn.len(), inputs.len(), "one input per processor");
        inputs.copy_from_slice(&drawn);
    }
}

/// Merges two sorted key arrays into `out` (cleared first), preserving
/// duplicates — the incremental half of the adaptive estimator: a grown
/// budget merges its freshly sorted batch into the keys already drawn
/// instead of re-sampling and re-sorting from scratch.
pub(crate) fn merge_sorted_u64(a: &[u64], b: &[u64], out: &mut Vec<u64>) {
    debug_assert!(a.windows(2).all(|w| w[0] <= w[1]));
    debug_assert!(b.windows(2).all(|w| w[0] <= w[1]));
    bcc_obs::add_keys_merged((a.len() + b.len()) as u64);
    out.clear();
    out.reserve(a.len() + b.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        if a[i] <= b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

/// Merges `k` sorted key arrays into `out` (cleared first) in one pass
/// with a binary heap of cursors, preserving duplicates. For a wide
/// family of `m` member chunks this writes each key **once** —
/// `O(N log m)` comparisons for `N` output keys — where the pairwise
/// fold it replaces re-copied early chunks at every step (`Σ i·Δ ≈ m²Δ/2`
/// merge writes per batch). Delegates to [`merge_sorted_u64`] below
/// three lists, and counts its output into [`keys_merged_total`].
pub(crate) fn merge_sorted_k_u64(lists: &[&[u64]], out: &mut Vec<u64>) {
    match lists {
        [] => out.clear(),
        [a] => {
            bcc_obs::add_keys_merged(a.len() as u64);
            out.clear();
            out.extend_from_slice(a);
        }
        [a, b] => merge_sorted_u64(a, b, out),
        _ => {
            debug_assert!(lists.iter().all(|l| l.windows(2).all(|w| w[0] <= w[1])));
            let total: usize = lists.iter().map(|l| l.len()).sum();
            bcc_obs::add_keys_merged(total as u64);
            out.clear();
            out.reserve(total);
            // Min-heap of (next key, list index); the list index
            // tie-break is irrelevant to the output (keys are a
            // multiset) but keeps the heap order total.
            let mut heap = std::collections::BinaryHeap::with_capacity(lists.len());
            let mut cursors = vec![0usize; lists.len()];
            for (li, l) in lists.iter().enumerate() {
                if let Some(&k) = l.first() {
                    heap.push(std::cmp::Reverse((k, li)));
                }
            }
            while let Some(std::cmp::Reverse((k, li))) = heap.pop() {
                out.push(k);
                cursors[li] += 1;
                if let Some(&next) = lists[li].get(cursors[li]) {
                    heap.push(std::cmp::Reverse((next, li)));
                }
            }
        }
    }
}

/// Below this length the comparison sort's cache behaviour beats the
/// counting passes, and the scratch allocation is not worth it.
const RADIX_CUTOFF: usize = 256;

/// Beyond this many varying bytes the counting passes' scattered writes
/// cost more than a comparison sort (measured in
/// `criterion_micro/transcript_sort`), so the hybrid falls back.
const RADIX_MAX_VARYING_BYTES: u32 = 4;

/// The cumulative number of keys this process has written through the
/// sorted-key merges (`merge_sorted_u64` and the k-way heap merge).
///
/// The companion of [`keys_sorted_total`] for the *merge* half of the
/// adaptive layer's work contract: a k-way fold of `m` member chunks
/// writes each key once per fold level, where the pairwise fold it
/// replaced re-copied early chunks `O(m)` times. The counter now lives
/// in `bcc_obs` (this is a delegation kept for compatibility); the
/// work-counting tests (`crates/core/tests/work.rs`) pin the *scoped*
/// per-run `exec.keys_merged` counter against the pairwise baseline,
/// which — unlike this process-wide monotone total — is immune to
/// concurrent runs.
pub fn keys_merged_total() -> u64 {
    bcc_obs::keys_merged_total()
}

/// The cumulative number of keys this process has fed through
/// [`radix_sort_u64`], its comparison-sort fallback included.
///
/// An incremental estimator that claims "1× final-budget sort work" is
/// pinned by the work-counting tests (`crates/core/tests/work.rs`)
/// against the scoped per-run `exec.keys_sorted` counter; this
/// process-wide monotone total (now hosted by `bcc_obs`, delegation
/// kept for compatibility) remains the whole-process observable —
/// meaningful deltas require no concurrent sorts.
pub fn keys_sorted_total() -> u64 {
    bcc_obs::keys_sorted_total()
}

/// Sorts packed transcript keys ascending with an LSD radix sort (byte
/// digits, stable counting passes), producing exactly the order
/// `sort_unstable` would.
///
/// The win over a comparison sort comes from the key shape: a prefix key
/// stores turn `t` at bit `63 − t` (see [`prefix_key`]), so a horizon-`T`
/// protocol leaves the low `64 − T` bits zero and only `⌈T/8⌉` of the 8
/// counting passes touch varying bytes. A cheap OR/AND pre-scan finds the
/// bytes that are constant across the whole array, and their passes are
/// skipped outright — a 12-turn workload sorts in two counting passes
/// over the data. Shapes radix handles badly (short arrays, or more than
/// [`RADIX_MAX_VARYING_BYTES`] varying bytes, where scattered writes
/// outweigh the comparison sort) fall back to `sort_unstable`.
pub fn radix_sort_u64(keys: &mut Vec<u64>) {
    radix_sort_u64_with(&kernel::active(), keys);
}

/// [`radix_sort_u64`] under an explicit [`WordKernel`] — the entry point
/// differential tests and benches use to pin and price one kernel
/// against another. The output order is bitwise independent of the
/// kernel: the pre-scan and the counting passes are exact folds, and the
/// scatter is the same stable serial permutation in every kernel.
pub fn radix_sort_u64_with<K: WordKernel>(kernel: &K, keys: &mut Vec<u64>) {
    let n = keys.len();
    bcc_obs::add_keys_sorted(n as u64);
    if n < RADIX_CUTOFF {
        keys.sort_unstable();
        return;
    }
    // A byte is constant across the array iff every key agrees with every
    // other there, i.e. the OR and the AND of all keys coincide on it.
    let (ones, zeros) = kernel.or_and_fold(keys);
    let varying = ones ^ zeros;
    let varying_bytes = (0..8).filter(|p| (varying >> (p * 8)) & 0xFF != 0).count() as u32;
    if varying_bytes > RADIX_MAX_VARYING_BYTES {
        keys.sort_unstable();
        return;
    }
    let mut scratch = vec![0u64; n];
    for pass in 0..8 {
        let shift = pass * 8;
        if (varying >> shift) & 0xFF == 0 {
            continue;
        }
        let mut hist = [0usize; 256];
        kernel.byte_histogram(keys, shift, &mut hist);
        let mut offsets = [0usize; 256];
        let mut running = 0usize;
        for (offset, &count) in offsets.iter_mut().zip(hist.iter()) {
            *offset = running;
            running += count;
        }
        kernel.byte_scatter(keys, shift, &mut offsets, &mut scratch);
        std::mem::swap(keys, &mut scratch);
    }
}

/// Empirical TV between two sorted key arrays at prefix depth `depth`,
/// with per-sample weights `weight_a` / `weight_b` (normally `1/len`; the
/// mixture side of [`crate::exec::SampledEstimator`] passes `1/(m·len)`).
pub(crate) fn sorted_tv_at_depth(
    a: &[u64],
    b: &[u64],
    weight_a: f64,
    weight_b: f64,
    depth: u32,
) -> f64 {
    if depth == 0 {
        // A single group holding all mass on both sides.
        return (a.len() as f64 * weight_a - b.len() as f64 * weight_b).abs() / 2.0;
    }
    let shift = 64 - depth;
    let group = |key: u64| key >> shift;
    let mut total = 0.0;
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() || j < b.len() {
        let ga = a.get(i).map(|&k| group(k));
        let gb = b.get(j).map(|&k| group(k));
        let g = match (ga, gb) {
            (Some(x), Some(y)) => x.min(y),
            (Some(x), None) => x,
            (None, Some(y)) => y,
            (None, None) => unreachable!("loop condition"),
        };
        let mut count_a = 0usize;
        while i < a.len() && group(a[i]) == g {
            count_a += 1;
            i += 1;
        }
        let mut count_b = 0usize;
        while j < b.len() && group(b[j]) == g {
            count_b += 1;
            j += 1;
        }
        total += (count_a as f64 * weight_a - count_b as f64 * weight_b).abs();
    }
    total / 2.0
}

/// The number of distinct full-depth keys in the union of two sorted
/// arrays.
pub(crate) fn sorted_support_union(a: &[u64], b: &[u64]) -> usize {
    let mut count = 0usize;
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() || j < b.len() {
        let key = match (a.get(i), b.get(j)) {
            (Some(&x), Some(&y)) => x.min(y),
            (Some(&x), None) => x,
            (None, Some(&y)) => y,
            (None, None) => unreachable!("loop condition"),
        };
        count += 1;
        while i < a.len() && a[i] == key {
            i += 1;
        }
        while j < b.len() && b[j] == key {
            j += 1;
        }
    }
    count
}

/// Per-depth resolution statistics over the union of two sorted key
/// arrays: one entry per prefix depth `0..=horizon`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct DepthStats {
    /// Distinct prefix groups in the union at each depth.
    pub support: Vec<usize>,
    /// Groups whose **combined** multiplicity across both arrays is
    /// exactly 1, counted on the `a` side at each depth.
    pub singletons_a: Vec<usize>,
    /// As above, counted on the `b` side.
    pub singletons_b: Vec<usize>,
}

/// Walks the two sorted arrays once per prefix depth `t·bits_per_turn`
/// for `t in 0..=horizon`, collecting the union support and the combined
/// singleton counts that drive the depth-resolved noise floors and the
/// Good–Turing smoothing correction. At depth 0 every key falls in one
/// group; unused low key bits are zero, so the deepest entry equals the
/// full-key [`sorted_support_union`].
pub(crate) fn sorted_depth_stats(
    a: &[u64],
    b: &[u64],
    horizon: u32,
    bits_per_turn: u32,
) -> DepthStats {
    let depths = horizon as usize + 1;
    let mut stats = DepthStats {
        support: Vec::with_capacity(depths),
        singletons_a: Vec::with_capacity(depths),
        singletons_b: Vec::with_capacity(depths),
    };
    for t in 0..=horizon {
        let bits = t * bits_per_turn;
        if bits == 0 {
            let total = a.len() + b.len();
            stats.support.push(usize::from(total > 0));
            stats
                .singletons_a
                .push(usize::from(total == 1 && a.len() == 1));
            stats
                .singletons_b
                .push(usize::from(total == 1 && b.len() == 1));
            continue;
        }
        let shift = 64 - bits;
        let group = |key: u64| key >> shift;
        let (mut support, mut n1_a, mut n1_b) = (0usize, 0usize, 0usize);
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() || j < b.len() {
            let g = match (a.get(i).map(|&k| group(k)), b.get(j).map(|&k| group(k))) {
                (Some(x), Some(y)) => x.min(y),
                (Some(x), None) => x,
                (None, Some(y)) => y,
                (None, None) => unreachable!("loop condition"),
            };
            let mut count_a = 0usize;
            while i < a.len() && group(a[i]) == g {
                count_a += 1;
                i += 1;
            }
            let mut count_b = 0usize;
            while j < b.len() && group(b[j]) == g {
                count_b += 1;
                j += 1;
            }
            support += 1;
            if count_a + count_b == 1 {
                n1_a += count_a;
                n1_b += count_b;
            }
        }
        stats.support.push(support);
        stats.singletons_a.push(n1_a);
        stats.singletons_b.push(n1_b);
    }
    stats
}

/// An estimated transcript distance with its provenance.
#[derive(Debug, Clone)]
pub struct SampledComparison {
    /// Empirical `‖P_A − P_B‖` over full transcripts.
    pub tv: f64,
    /// Samples drawn from each side.
    pub samples_per_side: usize,
    /// Number of distinct transcripts observed (union of both sides).
    pub support_seen: usize,
}

impl SampledComparison {
    /// A crude upper bound on the sampling bias of the TV estimate:
    /// `sqrt(support_seen / samples_per_side)` — the usual plug-in
    /// histogram-TV error scale. Treat estimates below this as zero.
    ///
    /// With zero samples there is no information at all, so the floor is
    /// [`f64::INFINITY`] (rather than the `NaN` a bare division would
    /// produce).
    pub fn noise_floor(&self) -> f64 {
        if self.samples_per_side == 0 {
            return f64::INFINITY;
        }
        (self.support_seen as f64 / self.samples_per_side as f64).sqrt()
    }
}

/// Estimates `‖P(Π, A) − P(Π, B)‖` by running the protocol `samples` times
/// per side and comparing transcript histograms.
pub fn sampled_comparison<P, R>(
    protocol: &P,
    a: &ProductInput,
    b: &ProductInput,
    samples: usize,
    rng: &mut R,
) -> SampledComparison
where
    P: TurnProtocol + ?Sized,
    R: Rng + ?Sized,
{
    sampled_comparison_with(
        protocol,
        |rng| a.sample(rng),
        |rng| b.sample(rng),
        samples,
        rng,
    )
}

/// Like [`sampled_comparison`] but with arbitrary joint input samplers —
/// the tool for distributions with *dependent* rows, where no product
/// decomposition exists (e.g. the undirected planted clique of the
/// paper's §9 discussion).
pub fn sampled_comparison_with<P, R, FA, FB>(
    protocol: &P,
    sample_a: FA,
    sample_b: FB,
    samples: usize,
    rng: &mut R,
) -> SampledComparison
where
    P: TurnProtocol + ?Sized,
    R: Rng + ?Sized,
    FA: FnMut(&mut R) -> Vec<u64>,
    FB: FnMut(&mut R) -> Vec<u64>,
{
    let mut arena = TranscriptArena::new();
    sampled_comparison_with_in(&mut arena, protocol, sample_a, sample_b, samples, rng)
}

/// [`sampled_comparison_with`] writing through a caller-held
/// [`TranscriptArena`], for sweeps that run many comparisons.
pub fn sampled_comparison_with_in<P, R, FA, FB>(
    arena: &mut TranscriptArena,
    protocol: &P,
    sample_a: FA,
    sample_b: FB,
    samples: usize,
    rng: &mut R,
) -> SampledComparison
where
    P: TurnProtocol + ?Sized,
    R: Rng + ?Sized,
    FA: FnMut(&mut R) -> Vec<u64>,
    FB: FnMut(&mut R) -> Vec<u64>,
{
    assert!(samples > 0, "need at least one sample");
    collect_sorted_keys(
        protocol,
        into_buffer(sample_a),
        samples,
        rng,
        &mut arena.side_a,
    );
    collect_sorted_keys(
        protocol,
        into_buffer(sample_b),
        samples,
        rng,
        &mut arena.side_b,
    );
    let weight = 1.0 / samples as f64;
    SampledComparison {
        tv: sorted_tv_at_depth(
            &arena.side_a,
            &arena.side_b,
            weight,
            weight,
            protocol.horizon(),
        ),
        samples_per_side: samples,
        support_seen: sorted_support_union(&arena.side_a, &arena.side_b),
    }
}

/// Estimates `‖P(Π, A) − P(Π, B)‖` for a `BCAST(w)` protocol by running
/// it `samples` times per side and comparing wide-transcript histograms —
/// the Monte-Carlo path past the exact wide engine's
/// [`crate::wide::MAX_WIDE_NODES`] budget.
///
/// # Panics
///
/// Panics if `samples == 0` or if the protocol's `horizon × width`
/// exceeds the 64-bit key packing.
pub fn sampled_wide_comparison<P, R>(
    protocol: &P,
    a: &ProductInput,
    b: &ProductInput,
    samples: usize,
    rng: &mut R,
) -> SampledComparison
where
    P: WideTurnProtocol + ?Sized,
    R: Rng + ?Sized,
{
    let mut arena = TranscriptArena::new();
    sampled_wide_comparison_in(&mut arena, protocol, a, b, samples, rng)
}

/// [`sampled_wide_comparison`] writing through a caller-held
/// [`TranscriptArena`], for sweeps that run many comparisons.
pub fn sampled_wide_comparison_in<P, R>(
    arena: &mut TranscriptArena,
    protocol: &P,
    a: &ProductInput,
    b: &ProductInput,
    samples: usize,
    rng: &mut R,
) -> SampledComparison
where
    P: WideTurnProtocol + ?Sized,
    R: Rng + ?Sized,
{
    assert!(samples > 0, "need at least one sample");
    let (width, horizon) = (protocol.width(), protocol.horizon());
    assert!(
        u64::from(horizon) * u64::from(width) <= 64,
        "horizon {horizon} at width {width} exceeds the u64 key packing"
    );
    collect_sorted_wide_keys(
        protocol,
        |r, x| a.sample_into(r, x),
        samples,
        rng,
        &mut arena.side_a,
    );
    collect_sorted_wide_keys(
        protocol,
        |r, x| b.sample_into(r, x),
        samples,
        rng,
        &mut arena.side_b,
    );
    let weight = 1.0 / samples as f64;
    SampledComparison {
        tv: sorted_tv_at_depth(
            &arena.side_a,
            &arena.side_b,
            weight,
            weight,
            horizon * width,
        ),
        samples_per_side: samples,
        support_seen: sorted_support_union(&arena.side_a, &arena.side_b),
    }
}

/// Estimates the acceptance probability of a Boolean test of the
/// transcript under one input distribution.
pub fn acceptance_rate<P, R, F>(
    protocol: &P,
    input: &ProductInput,
    accept: F,
    samples: usize,
    rng: &mut R,
) -> MeanEstimator
where
    P: TurnProtocol + ?Sized,
    R: Rng + ?Sized,
    F: Fn(u64) -> bool,
{
    let mut est = MeanEstimator::new();
    for _ in 0..samples {
        let x = input.sample(rng);
        let t = run_turn_protocol(protocol, &x).as_u64();
        est.push(f64::from(accept(t)));
    }
    est
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::exact_comparison;
    use crate::input::RowSupport;
    use bcc_congest::FnProtocol;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sampled_matches_exact_on_small_instance() {
        let p = FnProtocol::new(2, 3, 4, |_, input, tr| (input >> (tr.len() / 2)) & 1 == 1);
        let a = ProductInput::uniform(2, 3);
        let b = ProductInput::new(vec![
            RowSupport::explicit(3, vec![1, 3, 5, 7]),
            RowSupport::uniform(3),
        ]);
        let exact = exact_comparison(&p, &a, &b).tv();
        let mut rng = StdRng::seed_from_u64(1);
        let sampled = sampled_comparison(&p, &a, &b, 40_000, &mut rng);
        assert!(
            (sampled.tv - exact).abs() < 0.02,
            "sampled {} vs exact {exact}",
            sampled.tv
        );
    }

    #[test]
    fn identical_inputs_fall_below_noise_floor() {
        let p = FnProtocol::new(2, 2, 4, |_, input, tr| (input >> (tr.len() % 2)) & 1 == 1);
        let a = ProductInput::uniform(2, 2);
        let mut rng = StdRng::seed_from_u64(2);
        let s = sampled_comparison(&p, &a, &a, 20_000, &mut rng);
        assert!(
            s.tv <= s.noise_floor(),
            "tv {} floor {}",
            s.tv,
            s.noise_floor()
        );
    }

    #[test]
    fn depth_stats_count_union_support_and_combined_singletons() {
        // 2-bit turns, horizon 2. Keys place turn t's message at bits
        // [64-2(t+1), 64-2t): build them by hand.
        let key = |t0: u64, t1: u64| (t0 << 62) | (t1 << 60);
        // a: two copies of (0,1), one (2,3); b: one (0,1), one (2,0).
        let mut a = vec![key(0, 1), key(0, 1), key(2, 3)];
        let mut b = vec![key(0, 1), key(2, 0)];
        a.sort_unstable();
        b.sort_unstable();
        let stats = sorted_depth_stats(&a, &b, 2, 2);
        // Depth 0: one group, everything in it.
        assert_eq!(stats.support, vec![1, 2, 3]);
        // Depth 1 groups: 0 (count 2+1) and 2 (count 1+1) — no
        // singletons. Depth 2: (0,1) has 2+1, (2,3) has 1+0 (an `a`
        // singleton), (2,0) has 0+1 (a `b` singleton).
        assert_eq!(stats.singletons_a, vec![0, 0, 1]);
        assert_eq!(stats.singletons_b, vec![0, 0, 1]);
        // The deepest support equals the full-key union.
        assert_eq!(stats.support[2], sorted_support_union(&a, &b));
    }

    #[test]
    fn depth_stats_handle_empty_and_single_key_inputs() {
        let empty = sorted_depth_stats(&[], &[], 3, 1);
        assert_eq!(empty.support, vec![0, 0, 0, 0]);
        assert_eq!(empty.singletons_a, vec![0, 0, 0, 0]);
        let lone = sorted_depth_stats(&[1u64 << 63], &[], 1, 1);
        assert_eq!(lone.support, vec![1, 1]);
        assert_eq!(
            lone.singletons_a,
            vec![1, 1],
            "a lone key is a singleton even at depth 0"
        );
        assert_eq!(lone.singletons_b, vec![0, 0]);
    }

    #[test]
    fn noise_floor_of_zero_samples_is_infinite() {
        // Degenerate provenance (constructed directly; the samplers
        // reject samples == 0): the floor must be +inf, not NaN.
        let s = SampledComparison {
            tv: 0.0,
            samples_per_side: 0,
            support_seen: 0,
        };
        assert_eq!(s.noise_floor(), f64::INFINITY);
        assert!(!s.noise_floor().is_nan());
    }

    #[test]
    fn arena_reuse_reproduces_one_shot_results() {
        let p = FnProtocol::new(2, 3, 6, |_, input, tr| (input >> (tr.len() / 2)) & 1 == 1);
        let a = ProductInput::uniform(2, 3);
        let b = ProductInput::new(vec![
            RowSupport::explicit(3, vec![0, 1, 2]),
            RowSupport::uniform(3),
        ]);
        let one_shot = {
            let mut rng = StdRng::seed_from_u64(7);
            sampled_comparison(&p, &a, &b, 5_000, &mut rng)
        };
        let mut arena = TranscriptArena::new();
        let mut rng = StdRng::seed_from_u64(7);
        // Run twice through the same arena; the second run must be
        // unaffected by leftover buffer contents.
        let first = sampled_comparison_with_in(
            &mut arena,
            &p,
            |r| a.sample(r),
            |r| b.sample(r),
            5_000,
            &mut rng,
        );
        let mut rng = StdRng::seed_from_u64(7);
        let second = sampled_comparison_with_in(
            &mut arena,
            &p,
            |r| a.sample(r),
            |r| b.sample(r),
            5_000,
            &mut rng,
        );
        assert_eq!(one_shot.tv.to_bits(), first.tv.to_bits());
        assert_eq!(first.tv.to_bits(), second.tv.to_bits());
        assert_eq!(first.support_seen, second.support_seen);
    }

    #[test]
    fn sorted_tv_handles_disjoint_and_identical_histograms() {
        let a = vec![prefix_key(0b00), prefix_key(0b01)];
        let b = vec![prefix_key(0b10), prefix_key(0b11)];
        let mut a = a;
        let mut b = b;
        a.sort_unstable();
        b.sort_unstable();
        let w = 0.5;
        // Depth 2 separates them fully; depth 0 sees equal total mass.
        assert!((sorted_tv_at_depth(&a, &b, w, w, 2) - 1.0).abs() < 1e-12);
        assert!(sorted_tv_at_depth(&a, &b, w, w, 0).abs() < 1e-12);
        assert!(sorted_tv_at_depth(&a, &a, w, w, 2).abs() < 1e-12);
        assert_eq!(sorted_support_union(&a, &b), 4);
        assert_eq!(sorted_support_union(&a, &a), 2);
    }

    #[test]
    fn merge_sorted_matches_concat_and_sort() {
        let mut rng = StdRng::seed_from_u64(13);
        for &(la, lb) in &[(0usize, 0usize), (0, 5), (7, 0), (100, 300), (512, 512)] {
            let mut a: Vec<u64> = (0..la).map(|_| rng.gen::<u64>() % 50).collect();
            let mut b: Vec<u64> = (0..lb).map(|_| rng.gen::<u64>() % 50).collect();
            a.sort_unstable();
            b.sort_unstable();
            let mut expected = [a.clone(), b.clone()].concat();
            expected.sort_unstable();
            let mut out = Vec::new();
            merge_sorted_u64(&a, &b, &mut out);
            assert_eq!(out, expected, "lens {la}/{lb}");
        }
    }

    #[test]
    fn merge_sorted_k_matches_concat_and_sort() {
        let mut rng = StdRng::seed_from_u64(29);
        for lens in &[
            vec![],
            vec![0usize],
            vec![5],
            vec![3, 0, 7],
            vec![100, 1, 50, 0, 9],
            vec![64; 8],
        ] {
            let lists: Vec<Vec<u64>> = lens
                .iter()
                .map(|&l| {
                    let mut v: Vec<u64> = (0..l).map(|_| rng.gen::<u64>() % 40).collect();
                    v.sort_unstable();
                    v
                })
                .collect();
            let refs: Vec<&[u64]> = lists.iter().map(|l| l.as_slice()).collect();
            let mut expected: Vec<u64> = lists.concat();
            expected.sort_unstable();
            let mut out = vec![0xDEAD_BEEFu64]; // stale content must be cleared
            let merged_before = keys_merged_total();
            merge_sorted_k_u64(&refs, &mut out);
            assert_eq!(out, expected, "lens {lens:?}");
            assert_eq!(
                keys_merged_total() - merged_before,
                expected.len() as u64,
                "k-way merge counts each output key once, lens {lens:?}"
            );
        }
    }

    #[test]
    fn radix_sort_is_kernel_invariant() {
        use bcc_f2::kernel::Kernel;
        let mut rng = StdRng::seed_from_u64(31);
        let Some(avx2) = Kernel::avx2() else {
            eprintln!("notice: no AVX2 on this host, skipping");
            return;
        };
        for &len in &[300usize, 5_000] {
            for shape in 0..3u32 {
                let keys: Vec<u64> = (0..len)
                    .map(|_| match shape {
                        0 => prefix_key(rng.gen::<u64>() & 0xFFF),
                        1 => rng.gen::<u64>() & 0xFF_FFFF,
                        _ => rng.gen::<u64>() % 7,
                    })
                    .collect();
                let mut scalar_sorted = keys.clone();
                radix_sort_u64_with(&Kernel::scalar(), &mut scalar_sorted);
                let mut avx2_sorted = keys;
                radix_sort_u64_with(&avx2, &mut avx2_sorted);
                assert_eq!(scalar_sorted, avx2_sorted, "len {len} shape {shape}");
            }
        }
    }

    #[test]
    fn radix_sort_matches_comparison_sort() {
        let mut rng = StdRng::seed_from_u64(11);
        // Below and above the cutoff; uniform keys and prefix-key-shaped
        // keys (only the top bytes vary), plus heavy duplication.
        for &len in &[0usize, 1, 100, 300, 5_000] {
            for shape in 0..4u32 {
                let mut keys: Vec<u64> = (0..len)
                    .map(|_| match shape {
                        0 => rng.gen::<u64>(),                     // 8 varying bytes: fallback path
                        1 => prefix_key(rng.gen::<u64>() & 0xFFF), // 2 bytes, reversed
                        2 => rng.gen::<u64>() & 0xFF_FFFF,         // 3 low bytes: 3 passes
                        _ => rng.gen::<u64>() % 7,                 // heavy duplication, 1 pass
                    })
                    .collect();
                let mut expected = keys.clone();
                expected.sort_unstable();
                radix_sort_u64(&mut keys);
                assert_eq!(keys, expected, "len {len} shape {shape}");
            }
        }
    }

    #[test]
    fn wide_prefix_key_is_turn_major_from_the_top() {
        let mut t = WideTranscript::empty(3);
        t.push(0b101);
        t.push(0b010);
        let key = wide_prefix_key(&t);
        assert_eq!(key >> 61, 0b101, "turn 0 in the top 3 bits");
        assert_eq!((key >> 58) & 0b111, 0b010, "turn 1 in the next 3");
        assert_eq!(key & ((1 << 58) - 1), 0, "unused bits zero");
    }

    #[test]
    fn width_one_wide_key_is_the_bit_reversed_packing() {
        // The packings must coincide at w = 1 — the invariant behind the
        // bit-for-bit width-1 differential test.
        for bits in [0b0u64, 0b1, 0b1011, 0b110101] {
            let len = 6;
            let mut t = WideTranscript::empty(1);
            for i in 0..len {
                t.push((bits >> i) & 1);
            }
            assert_eq!(wide_prefix_key(&t), prefix_key(t.as_u64()), "bits {bits:b}");
        }
    }

    #[test]
    fn sampled_wide_matches_exact_on_small_instance() {
        use crate::wide::exact_wide_comparison;
        use bcc_congest::wide::FnWideProtocol;
        let p = FnWideProtocol::new(2, 3, 2, 4, |_, input, tr| (input >> (tr.len() % 2)) & 0b11);
        let a = ProductInput::uniform(2, 3);
        let b = ProductInput::new(vec![
            RowSupport::explicit(3, vec![1, 3, 5, 7]),
            RowSupport::uniform(3),
        ]);
        let exact = exact_wide_comparison(&p, std::slice::from_ref(&a), &b).tv();
        let mut rng = StdRng::seed_from_u64(17);
        let sampled = sampled_wide_comparison(&p, &a, &b, 40_000, &mut rng);
        assert!(
            (sampled.tv - exact).abs() < sampled.noise_floor() + 0.02,
            "sampled {} vs exact {exact} (floor {})",
            sampled.tv,
            sampled.noise_floor()
        );
    }

    #[test]
    fn sampled_wide_identical_inputs_fall_below_noise_floor() {
        use bcc_congest::wide::FnWideProtocol;
        let p = FnWideProtocol::new(2, 2, 3, 4, |_, input, tr| (input >> (tr.len() % 2)) & 0b111);
        let a = ProductInput::uniform(2, 2);
        let mut rng = StdRng::seed_from_u64(23);
        let s = sampled_wide_comparison(&p, &a, &a, 20_000, &mut rng);
        assert!(
            s.tv <= s.noise_floor(),
            "tv {} floor {}",
            s.tv,
            s.noise_floor()
        );
    }

    #[test]
    #[should_panic(expected = "exceeds the u64 key packing")]
    fn sampled_wide_rejects_overflowing_packings() {
        use bcc_congest::wide::WideTurnProtocol;
        // A hand-rolled protocol lying past the packed capacity must hit
        // the estimator's own guard, not a shift overflow mid-run.
        struct Overflowing;
        impl WideTurnProtocol for Overflowing {
            fn n(&self) -> usize {
                1
            }
            fn input_bits(&self) -> u32 {
                1
            }
            fn width(&self) -> u32 {
                16
            }
            fn horizon(&self) -> u32 {
                5
            }
            fn message(&self, _: usize, input: u64, _: &WideTranscript) -> u64 {
                input
            }
        }
        let a = ProductInput::uniform(1, 1);
        let mut rng = StdRng::seed_from_u64(1);
        let _ = sampled_wide_comparison(&Overflowing, &a, &a, 10, &mut rng);
    }

    #[test]
    fn acceptance_rate_of_constant_test() {
        let p = FnProtocol::new(1, 1, 1, |_, input, _| input == 1);
        let a = ProductInput::uniform(1, 1);
        let mut rng = StdRng::seed_from_u64(3);
        let est = acceptance_rate(&p, &a, |_| true, 500, &mut rng);
        assert_eq!(est.count(), 500);
        assert!((est.mean() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn acceptance_rate_tracks_transcript_bit() {
        let p = FnProtocol::new(1, 1, 1, |_, input, _| input == 1);
        let a = ProductInput::uniform(1, 1);
        let mut rng = StdRng::seed_from_u64(4);
        let est = acceptance_rate(&p, &a, |t| t & 1 == 1, 20_000, &mut rng);
        assert!((est.mean() - 0.5).abs() < 0.02);
    }
}
