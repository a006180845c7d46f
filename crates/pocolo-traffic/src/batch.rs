//! What a tick of traffic is made of: the [`TickSummary`] the control
//! loop reads.
//!
//! One simulated tick at million-user scale is ~10⁷ requests, and no
//! consumer reads them one by one: the closed loop needs a count per LC
//! slot, and the shard gate needs one digest proving the sequence did not
//! move. So the unit the generator hands out is a [`TickSummary`] —
//! length, per-slot counts and a combinable sequence digest
//! ([`SeqDigest`]), folded request by request where the requests are drawn
//! and never stored. It is a few dozen bytes at any population.
//!
//! A request is four drawn words: arrival offset, region, slot and the
//! 53-bit uniform draw its Exp(1) work factor would be derived from. Only
//! the slot is counted; all four are digested, because the digest is what
//! pins the sequence.

use pocolo_core::digest::SeqDigest;

/// The summary of a request sequence: what
/// [`TrafficGen::tick`](crate::TrafficGen::tick) returns.
///
/// Summaries concatenate: the summary of `A‖B`
/// is computable from the summaries of `A` and `B`, which is what lets
/// every logical stream fold its own and the tick combine 64 of them in
/// stream order. Two summaries are equal iff length, every count and the
/// digest state are.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TickSummary {
    digest: SeqDigest,
    slots: Vec<u64>,
}

impl TickSummary {
    /// The summary of the empty sequence, counting over `n_slots` slots.
    pub(crate) fn new(n_slots: usize) -> Self {
        TickSummary {
            digest: SeqDigest::new(),
            slots: vec![0; n_slots],
        }
    }

    /// Folds one request in as two packed words — every field bit lands
    /// in exactly one place, so two requests digest alike iff they are
    /// equal. A slot id out of range (none are generated in-tree) is
    /// digested but not counted.
    #[inline]
    pub(crate) fn push(&mut self, arrival_us: u32, region: u8, slot: u16, work_draw: u64) {
        self.digest.push(
            u64::from(arrival_us) | u64::from(slot) << 32 | u64::from(region) << 48,
            work_draw,
        );
        if let Some(c) = self.slots.get_mut(usize::from(slot)) {
            *c += 1;
        }
    }

    /// Appends the sequence `tail` summarises: `self ← self ‖ tail`.
    ///
    /// # Panics
    ///
    /// Panics if the two summaries count over different numbers of slots.
    pub(crate) fn concat(&mut self, tail: &TickSummary) {
        assert_eq!(self.slots.len(), tail.slots.len(), "slot counts differ");
        self.digest.concat(&tail.digest);
        for (c, t) in self.slots.iter_mut().zip(&tail.slots) {
            *c += t;
        }
    }

    /// Number of requests summarised.
    pub fn len(&self) -> usize {
        self.digest.len() as usize
    }

    /// Whether no request has been summarised.
    pub fn is_empty(&self) -> bool {
        self.digest.is_empty()
    }

    /// The order-sensitive sequence digest: a function of every field of
    /// every request, in order.
    pub fn digest(&self) -> u64 {
        self.digest.finish()
    }

    /// Requests per LC slot over `n_slots` slots (truncated, or zero
    /// beyond the slots the summary counts over).
    pub fn slot_counts(&self, n_slots: usize) -> Vec<u64> {
        let mut out = self.slots[..n_slots.min(self.slots.len())].to_vec();
        out.resize(n_slots, 0);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    /// One request's four words, in draw order.
    type Req = (u32, u8, u16, u64);

    fn summary_of(requests: &[Req], n_slots: usize) -> TickSummary {
        let mut s = TickSummary::new(n_slots);
        for &(arrival_us, region, slot, work_draw) in requests {
            s.push(arrival_us, region, slot, work_draw);
        }
        s
    }

    /// Draws for `u` = 1/2 and 3/4.
    const HALF: u64 = 1 << 52;
    const THREE_QUARTERS: u64 = 3 << 51;

    const SAMPLE: [Req; 3] = [
        (10, 1, 0, HALF),
        (500, 0, 3, 0),
        (999_999, 3, 1, THREE_QUARTERS),
    ];

    #[test]
    fn append_concatenates_in_order() {
        let mut a = summary_of(&SAMPLE, 4);
        a.concat(&summary_of(&SAMPLE, 4));
        assert_eq!(a.len(), 6);
        assert_eq!(a.slot_counts(4), vec![2, 2, 0, 2]);
        let twice: Vec<Req> = SAMPLE.iter().chain(&SAMPLE).copied().collect();
        assert_eq!(a, summary_of(&twice, 4));
    }

    #[test]
    fn counts() {
        let s = summary_of(&SAMPLE, 4);
        assert_eq!(s.slot_counts(4), vec![1, 1, 0, 1]);
        // Out-of-range ids are ignored, not panicked on.
        assert_eq!(s.slot_counts(2), vec![1, 1]);
    }

    #[test]
    fn summary_matches_the_batch_it_summarises() {
        let s = summary_of(&SAMPLE, 4);
        assert_eq!(s.len(), SAMPLE.len());
        assert!(!s.is_empty());
        // The counts are those of the request list, slot by slot.
        let mut direct = vec![0u64; 4];
        for &(_, _, slot, _) in &SAMPLE {
            direct[usize::from(slot)] += 1;
        }
        assert_eq!(s.slot_counts(4), direct);
        // Narrower truncates; wider pads with zeros.
        assert_eq!(s.slot_counts(2), direct[..2].to_vec());
        assert_eq!(s.slot_counts(6), vec![1, 1, 0, 1, 0, 0]);
        // A slot id beyond the summary's slots is digested, not counted.
        let narrow = summary_of(&[(1, 9, 9, HALF)], 4);
        assert_eq!(narrow.len(), 1);
        assert_eq!(narrow.slot_counts(4), vec![0; 4]);
        assert_ne!(narrow.digest(), TickSummary::new(4).digest());
        assert!(TickSummary::new(4).is_empty());
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut reversed = SAMPLE;
        reversed.reverse();
        let (a, b) = (summary_of(&SAMPLE, 4), summary_of(&reversed, 4));
        assert_ne!(a.digest(), b.digest());
        assert_eq!(a.slot_counts(4), b.slot_counts(4));
        assert_eq!(a.digest(), summary_of(&SAMPLE, 4).digest());
    }

    #[test]
    fn digest_separates_empty_prefixes() {
        // Length is folded in, so an empty sequence and a sequence of
        // zeros differ, as do [0] and [0, 0].
        let empty = TickSummary::new(4);
        let one = summary_of(&[(0, 0, 0, 0)], 4);
        let two = summary_of(&[(0, 0, 0, 0); 2], 4);
        assert_ne!(empty.digest(), one.digest());
        assert_ne!(one.digest(), two.digest());
    }

    #[test]
    fn digest_sees_every_field() {
        let d = |r: Req| summary_of(&[r], 4).digest();
        let base = d((7, 1, 2, HALF));
        assert_ne!(base, d((8, 1, 2, HALF)));
        assert_ne!(base, d((7, 0, 2, HALF)));
        assert_ne!(base, d((7, 1, 3, HALF)));
        // Only the work draw differs: in its lowest bit, and in its
        // highest (u = 1/2 against u = 0).
        assert_ne!(base, d((7, 1, 2, HALF + 1)));
        assert_ne!(base, d((7, 1, 2, 0)));
        // Region and slot are packed apart: swapping them is a change.
        assert_ne!(d((7, 1, 2, HALF)), d((7, 2, 1, HALF)));
    }

    #[test]
    fn concat_equals_the_whole_at_every_split() {
        let mut rng = StdRng::seed_from_u64(5);
        let requests: Vec<Req> = (0..61)
            .map(|_| {
                (
                    rng.gen_range(0..1_000_000),
                    rng.gen_range(0..4),
                    rng.gen_range(0..4),
                    rng.next_u64() >> 11,
                )
            })
            .collect();
        let whole = summary_of(&requests, 4);
        for split in 0..=requests.len() {
            let mut head = summary_of(&requests[..split], 4);
            head.concat(&summary_of(&requests[split..], 4));
            assert_eq!(head, whole, "split at {split}");
        }
        // Combined out of order is a different sequence.
        let mut swapped = summary_of(&requests[30..], 4);
        swapped.concat(&summary_of(&requests[..30], 4));
        assert_ne!(swapped.digest(), whole.digest());
        assert_eq!(swapped.slot_counts(4), whole.slot_counts(4));
    }

    #[test]
    #[should_panic(expected = "slot counts differ")]
    fn concat_rejects_mismatched_slot_spaces() {
        TickSummary::new(4).concat(&TickSummary::new(3));
    }
}
