//! Property-based tests for the congested-clique model.

use bcc_congest::{
    is_consistent, run_turn_protocol, FnProtocol, Model, Network, RoundLog, TurnTranscript,
};
use bcc_f2::BitVec;
use proptest::prelude::*;

proptest! {
    #[test]
    fn transcript_push_then_read(bits in proptest::collection::vec(any::<bool>(), 0..64)) {
        let mut t = TurnTranscript::empty();
        for &b in &bits {
            t.push(b);
        }
        prop_assert_eq!(t.len() as usize, bits.len());
        for (i, &b) in bits.iter().enumerate() {
            prop_assert_eq!(t.bit(i as u32), b);
        }
        // Round-trip through the packed form.
        let back = TurnTranscript::from_bits(t.as_u64(), t.len());
        prop_assert_eq!(back, t);
    }

    #[test]
    fn prefix_is_idempotent(bits in proptest::collection::vec(any::<bool>(), 0..40), cut in 0u32..40) {
        let mut t = TurnTranscript::empty();
        for &b in &bits {
            t.push(b);
        }
        let cut = cut.min(t.len());
        let p = t.prefix(cut);
        prop_assert_eq!(p.prefix(cut), p);
        for i in 0..cut {
            prop_assert_eq!(p.bit(i), t.bit(i));
        }
    }

    #[test]
    fn real_input_is_always_consistent(
        inputs in proptest::collection::vec(0u64..16, 3),
        seed in any::<u64>(),
    ) {
        // For any (seeded, deterministic) protocol, the actual inputs are
        // consistent with the transcript they generated.
        let p = FnProtocol::new(3, 4, 9, move |proc, input, tr| {
            let h = seed
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add(input)
                .wrapping_add((proc as u64) << 32)
                .wrapping_add(u64::from(tr.len()) << 40)
                .wrapping_add(tr.as_u64());
            (h >> 17) & 1 == 1
        });
        let t = run_turn_protocol(&p, &inputs);
        for (proc, &input) in inputs.iter().enumerate() {
            prop_assert!(is_consistent(&p, proc, input, &t));
        }
    }

    #[test]
    fn consistent_inputs_reproduce_the_transcript(
        inputs in proptest::collection::vec(0u64..8, 2),
        alt in 0u64..8,
    ) {
        // If `alt` is consistent for processor 0, swapping it in yields
        // the same transcript (the defining property of D_p).
        let p = FnProtocol::new(2, 3, 6, |_, input, tr| {
            (input >> (tr.len() / 2).min(2)) & 1 == 1
        });
        let t = run_turn_protocol(&p, &inputs);
        if is_consistent(&p, 0, alt, &t) {
            let t2 = run_turn_protocol(&p, &[alt, inputs[1]]);
            prop_assert_eq!(t2, t);
        }
    }

    #[test]
    fn broadcast_bits_roundtrip(
        payload_len in 1usize..40,
        width in 1u32..8,
        n in 1usize..5,
        seed in any::<u64>(),
    ) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let payloads: Vec<BitVec> = (0..n)
            .map(|_| {
                (0..payload_len).map(|_| rng.gen::<bool>()).collect()
            })
            .collect();
        let mut net = Network::new(Model::new(n, width));
        let rounds = net.broadcast_bits(&payloads);
        prop_assert_eq!(rounds, payload_len.div_ceil(width as usize));
        prop_assert_eq!(net.collect_bits(rounds, payload_len), payloads);
    }

    #[test]
    fn rounds_for_bits_is_exact_ceil(bits in 0usize..1000, width in 1u32..32) {
        let m = Model::new(4, width);
        let r = m.rounds_for_bits(bits);
        prop_assert!(r * width as usize >= bits);
        prop_assert!(r == 0 || ((r - 1) * (width as usize)) < bits);
    }
}

/// The per-bit packing `broadcast_bits` used before it moved to word
/// shifts: message `r` carries payload bits `[r·w, (r+1)·w)`, low bit
/// first, zero-padded past the payload.
fn per_bit_messages(payload: &BitVec, width: usize, rounds: usize) -> Vec<u64> {
    (0..rounds)
        .map(|r| {
            (0..width)
                .filter(|&b| r * width + b < payload.len() && payload.get(r * width + b))
                .fold(0u64, |m, b| m | 1 << b)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn broadcast_bits_across_word_boundaries(n in 1usize..4, seed in any::<u64>()) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        for width in [1u32, 2, 3, 7, 32, 63] {
            for len in [0usize, 1, 63, 64, 65, 200] {
                let payloads: Vec<BitVec> = (0..n).map(|_| BitVec::random(&mut rng, len)).collect();
                let mut net = Network::new(Model::new(n, width));
                let rounds = net.broadcast_bits(&payloads);
                prop_assert_eq!(rounds, len.div_ceil(width as usize));
                for (i, p) in payloads.iter().enumerate() {
                    let logged = net.log().by_processor(i);
                    prop_assert!(logged.iter().all(|&m| m < 1 << width), "width {} overflowed", width);
                    prop_assert_eq!(logged, per_bit_messages(p, width as usize, rounds));
                }
                prop_assert_eq!(net.collect_bits(rounds, len), payloads);
            }
        }
    }
}

/// Checks every `RoundLog` accessor against the nested model
/// `model[r][i]` (the representation the flat log replaced), at message
/// width `width`.
fn log_agrees(log: &RoundLog, model: &[Vec<u64>], width: u32) -> Result<(), String> {
    let n = model.first().map_or(0, Vec::len);
    prop_assert_eq!(log.rounds(), model.len());
    prop_assert_eq!(log.total_bits(width), model.len() * n * width as usize);
    for (r, round) in model.iter().enumerate() {
        prop_assert_eq!(log.round(r), &round[..]);
        for (i, &m) in round.iter().enumerate() {
            prop_assert_eq!(log.message(r, i), m);
        }
    }
    for i in 0..n {
        let sent: Vec<u64> = model.iter().map(|round| round[i]).collect();
        let bits: BitVec = sent
            .iter()
            .flat_map(|&m| (0..width).map(move |b| (m >> b) & 1 == 1))
            .collect();
        prop_assert_eq!(log.by_processor(i), sent);
        prop_assert_eq!(log.bits_by_processor(i, width), bits);
    }
    let mut rebuilt = RoundLog::new();
    for round in model {
        rebuilt.push_round(round.clone());
    }
    prop_assert_eq!(&rebuilt, log);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The flat round log against a `Vec<Vec<u64>>` model, driven by
    /// random mixes of plain rounds, bit payloads and clears. Every
    /// schedule starts in the Appendix B finder's order (an announce
    /// round, one payload, a claims round) and ends with a plain round.
    #[test]
    fn round_log_matches_a_nested_model(
        n in 1usize..80,
        width_pick in 0usize..3,
        steps in proptest::collection::vec((0usize..5, 0usize..150), 0..6),
        seed in any::<u64>(),
    ) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let width = [1, 4, Model::bcast_log(n).width_bits()][width_pick];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = Network::new(Model::new(n, width));
        let mut model: Vec<Vec<u64>> = Vec::new();
        // Kinds: 0–1 a plain round, 2–3 a payload of `len` bits, 4 a clear.
        let finder_order = [(0, 0), (2, n), (0, 0)];
        for (kind, len) in finder_order.into_iter().chain(steps).chain([(0, 0)]) {
            if kind == 4 {
                net.clear();
                model.clear();
            } else if kind < 2 {
                let messages: Vec<u64> = (0..n).map(|_| rng.gen::<u64>() >> (64 - width)).collect();
                prop_assert_eq!(net.broadcast_round(&messages), &messages[..]);
                model.push(messages);
            } else {
                let payloads: Vec<BitVec> = (0..n).map(|_| BitVec::random(&mut rng, len)).collect();
                let rounds = net.broadcast_bits(&payloads);
                let sent: Vec<Vec<u64>> = payloads
                    .iter()
                    .map(|p| per_bit_messages(p, width as usize, rounds))
                    .collect();
                model.extend((0..rounds).map(|r| sent.iter().map(|m| m[r]).collect::<Vec<u64>>()));
                prop_assert_eq!(net.collect_bits(rounds, len), payloads);
            }
            prop_assert_eq!(net.rounds_used(), model.len());
            prop_assert_eq!(net.bits_used(), model.len() * n * width as usize);
            log_agrees(net.log(), &model, width)?;
        }

        // A round with the wrong processor count still panics, on the log
        // and through the network, and leaves neither changed.
        for wrong in [n - 1, n + 1] {
            let mut log = net.log().clone();
            let pushed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                log.push_round(vec![0; wrong]);
            }));
            prop_assert!(pushed.is_err(), "a {}-message round on {} processors", wrong, n);
            prop_assert_eq!(&log, net.log());
            let mut bad = net.clone();
            let sent = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                bad.broadcast_round(&vec![0; wrong]);
            }));
            prop_assert!(sent.is_err(), "a {}-message broadcast on {} processors", wrong, n);
            prop_assert_eq!(bad.log(), net.log());
        }
    }
}

#[test]
#[should_panic(expected = "message width must be in 1..=63 bits")]
fn sixty_four_bit_messages_are_outside_the_model() {
    // Widths stop at 63, so a message always fits a `u64` with room for
    // the alphabet size `2^w`; the word-shift packing relies on it.
    Model::new(2, 64);
}
