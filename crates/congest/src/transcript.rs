//! Transcript types: the history of everything broadcast so far.
//!
//! The paper (§1.3): "the 'transcript' is a list of all messages sent so
//! far as well as who sent which message and when". With a fixed speaker
//! schedule the who/when are implicit, so a turn transcript is just the bit
//! string of messages — packed here into a `u64` for the exact engine's
//! benefit.

use bcc_f2::BitVec;

/// A prefix of a turn-based `BCAST(1)` execution: one bit per turn,
/// packed, at most 64 turns.
///
/// Turn `t`'s bit is bit `t` of `bits`. The speaker schedule lives in the
/// protocol ([`crate::turn::TurnProtocol::speaker`]), not here.
///
/// # Example
///
/// ```
/// use bcc_congest::TurnTranscript;
///
/// let mut p = TurnTranscript::empty();
/// p.push(true);
/// p.push(false);
/// assert_eq!(p.len(), 2);
/// assert!(p.bit(0) && !p.bit(1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TurnTranscript {
    bits: u64,
    len: u32,
}

impl TurnTranscript {
    /// The empty transcript.
    pub fn empty() -> Self {
        TurnTranscript::default()
    }

    /// Reconstructs a transcript from packed bits and a length.
    ///
    /// # Panics
    ///
    /// Panics if `len > 64` or if `bits` has set bits at or above `len`.
    pub fn from_bits(bits: u64, len: u32) -> Self {
        assert!(len <= 64, "turn transcripts hold at most 64 turns");
        if len < 64 {
            assert_eq!(bits >> len, 0, "bits beyond the length must be zero");
        }
        TurnTranscript { bits, len }
    }

    /// The number of turns recorded.
    pub fn len(&self) -> u32 {
        self.len
    }

    /// Whether no turn has happened yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bit broadcast on turn `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t >= len`.
    pub fn bit(&self, t: u32) -> bool {
        assert!(t < self.len, "turn {t} not yet recorded (len {})", self.len);
        (self.bits >> t) & 1 == 1
    }

    /// Appends the next turn's bit.
    ///
    /// # Panics
    ///
    /// Panics at 64 turns.
    pub fn push(&mut self, bit: bool) {
        assert!(self.len < 64, "turn transcript full");
        // Branchless: sampled transcript bits are coin flips, so a branch
        // here would mispredict about every other turn.
        self.bits |= u64::from(bit) << self.len;
        self.len += 1;
    }

    /// This transcript extended by one bit (functional form of
    /// [`TurnTranscript::push`]).
    pub fn child(&self, bit: bool) -> Self {
        let mut c = *self;
        c.push(bit);
        c
    }

    /// The first `t` turns (the paper's `p^{(t)}` prefix notation).
    ///
    /// # Panics
    ///
    /// Panics if `t > len`.
    pub fn prefix(&self, t: u32) -> Self {
        assert!(t <= self.len, "prefix longer than transcript");
        let mask = if t == 64 { !0u64 } else { (1u64 << t) - 1 };
        TurnTranscript {
            bits: self.bits & mask,
            len: t,
        }
    }

    /// The packed bits (bit `t` = turn `t`).
    pub fn as_u64(&self) -> u64 {
        self.bits
    }

    /// Iterates over the recorded bits in turn order.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |t| self.bit(t))
    }
}

/// Words per page of a [`RoundLog`]: 64 KiB, small enough that the
/// allocator recycles freed pages the way it recycles any small buffer.
const PAGE_WORDS: usize = 8192;

/// The full log of a synchronous-round execution: `round(r)[i]` is the
/// message processor `i` broadcast in round `r`.
///
/// Rounds are stored round-major in fixed-size pages that each hold
/// whole rounds, so every round is one contiguous slice and appending a
/// round allocates only when it opens a page. [`RoundLog::clear`] keeps
/// the pages for the next execution.
#[derive(Debug, Clone, Default)]
pub struct RoundLog {
    /// In use: the first `rounds.div_ceil(rounds_per_page)`; the rest are
    /// kept from before the last [`RoundLog::clear`].
    pages: Vec<Vec<u64>>,
    processors: usize,
    rounds: usize,
}

impl PartialEq for RoundLog {
    fn eq(&self, other: &RoundLog) -> bool {
        self.processors == other.processors
            && self.rounds == other.rounds
            && (0..self.rounds).all(|r| self.round(r) == other.round(r))
    }
}

impl Eq for RoundLog {}

impl RoundLog {
    /// An empty log.
    pub fn new() -> Self {
        RoundLog::default()
    }

    /// The number of completed rounds.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Rounds per page (at least one, however many processors).
    fn rounds_per_page(&self) -> usize {
        (PAGE_WORDS / self.processors.max(1)).max(1)
    }

    /// The messages of round `r` (one per processor).
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn round(&self, r: usize) -> &[u64] {
        assert!(r < self.rounds, "round {r} out of range {}", self.rounds);
        let per_page = self.rounds_per_page();
        let start = (r % per_page) * self.processors;
        &self.pages[r / per_page][start..start + self.processors]
    }

    /// The message processor `i` broadcast in round `r`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn message(&self, r: usize, i: usize) -> u64 {
        self.round(r)[i]
    }

    /// Appends a completed round.
    ///
    /// # Panics
    ///
    /// Panics if the processor count differs from the first round's.
    pub fn push_round(&mut self, messages: Vec<u64>) {
        self.extend_round(messages.into_iter());
    }

    /// Appends the round `messages` yields, writing it straight into the
    /// log, and returns it.
    ///
    /// # Panics
    ///
    /// Panics if the processor count differs from the first round's.
    pub(crate) fn extend_round(&mut self, messages: impl ExactSizeIterator<Item = u64>) -> &[u64] {
        if self.rounds == 0 {
            self.processors = messages.len();
        }
        assert_eq!(
            self.processors,
            messages.len(),
            "all rounds must have the same processor count"
        );
        let per_page = self.rounds_per_page();
        let index = self.rounds / per_page;
        if index == self.pages.len() {
            self.pages
                .push(Vec::with_capacity(per_page * self.processors));
        }
        let page = &mut self.pages[index];
        if self.rounds.is_multiple_of(per_page) {
            page.clear();
        }
        let start = page.len();
        page.extend(messages);
        self.rounds += 1;
        &page[start..]
    }

    /// Forgets every round, keeping the pages for the next execution.
    pub(crate) fn clear(&mut self) {
        self.processors = 0;
        self.rounds = 0;
    }

    /// All messages broadcast by processor `i`, in round order.
    pub fn by_processor(&self, i: usize) -> Vec<u64> {
        (0..self.rounds).map(|r| self.message(r, i)).collect()
    }

    /// Reassembles the bits processor `i` broadcast across rounds into a
    /// [`BitVec`], `width_bits` per round, earliest round first
    /// (little-endian within each message).
    pub fn bits_by_processor(&self, i: usize, width_bits: u32) -> BitVec {
        let mut out = BitVec::zeros(self.rounds * width_bits as usize);
        for r in 0..self.rounds {
            let msg = self.message(r, i);
            for b in 0..width_bits {
                if (msg >> b) & 1 == 1 {
                    out.set(r * width_bits as usize + b as usize, true);
                }
            }
        }
        out
    }

    /// Total bits broadcast by all processors so far.
    pub fn total_bits(&self, width_bits: u32) -> usize {
        self.rounds * self.processors * width_bits as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read() {
        let mut t = TurnTranscript::empty();
        assert!(t.is_empty());
        t.push(true);
        t.push(false);
        t.push(true);
        assert_eq!(t.len(), 3);
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![true, false, true]);
        assert_eq!(t.as_u64(), 0b101);
    }

    #[test]
    fn child_does_not_mutate() {
        let t = TurnTranscript::empty();
        let c = t.child(true);
        assert_eq!(t.len(), 0);
        assert_eq!(c.len(), 1);
        assert!(c.bit(0));
    }

    #[test]
    fn prefix_truncates() {
        let mut t = TurnTranscript::empty();
        for b in [true, true, false, true] {
            t.push(b);
        }
        let p = t.prefix(2);
        assert_eq!(p.len(), 2);
        assert_eq!(p.as_u64(), 0b11);
    }

    #[test]
    fn from_bits_validates() {
        let t = TurnTranscript::from_bits(0b101, 3);
        assert!(t.bit(2));
    }

    #[test]
    #[should_panic(expected = "must be zero")]
    fn from_bits_rejects_stray_bits() {
        TurnTranscript::from_bits(0b1000, 3);
    }

    #[test]
    fn capacity_is_64() {
        let mut t = TurnTranscript::empty();
        for i in 0..64 {
            t.push(i % 2 == 0);
        }
        assert_eq!(t.len(), 64);
        assert_eq!(t.prefix(64), t);
    }

    #[test]
    #[should_panic(expected = "full")]
    fn push_past_capacity_panics() {
        let mut t = TurnTranscript::empty();
        for _ in 0..65 {
            t.push(false);
        }
    }

    #[test]
    fn round_log_accessors() {
        let mut log = RoundLog::new();
        log.push_round(vec![1, 0, 1]);
        log.push_round(vec![0, 1, 1]);
        assert_eq!(log.rounds(), 2);
        assert_eq!(log.message(1, 1), 1);
        assert_eq!(log.by_processor(2), vec![1, 1]);
        assert_eq!(log.total_bits(1), 6);
    }

    #[test]
    fn bits_by_processor_reassembles() {
        let mut log = RoundLog::new();
        // width 2: processor 0 sends 0b10 then 0b01.
        log.push_round(vec![0b10, 0b11]);
        log.push_round(vec![0b01, 0b00]);
        let bits = log.bits_by_processor(0, 2);
        assert_eq!(
            bits.iter().collect::<Vec<_>>(),
            vec![false, true, true, false]
        );
    }

    #[test]
    fn pages_hold_whole_rounds_and_survive_a_clear() {
        // 3000 processors: two rounds per page; then 5000: one per page.
        let round = |r: usize, n: usize| (0..n as u64).map(|i| i ^ r as u64).collect::<Vec<_>>();
        let mut log = RoundLog::new();
        for r in 0..5 {
            log.push_round(round(r, 3000));
        }
        assert_eq!(log.pages.len(), 3);
        for r in 0..5 {
            assert_eq!(log.round(r), &round(r, 3000)[..]);
        }
        log.clear();
        assert_eq!(log, RoundLog::new());
        for r in 0..3 {
            log.push_round(round(r, 5000));
        }
        assert_eq!(log.pages.len(), 3, "the cleared pages are reused");
        let mut fresh = RoundLog::new();
        for r in 0..3 {
            assert_eq!(log.round(r), &round(r, 5000)[..]);
            fresh.push_round(round(r, 5000));
        }
        assert_eq!(log, fresh);
        assert_eq!(log.total_bits(1), 15_000);
    }

    #[test]
    #[should_panic(expected = "same processor count")]
    fn mismatched_round_width_panics() {
        let mut log = RoundLog::new();
        log.push_round(vec![0, 1]);
        log.push_round(vec![0]);
    }
}
