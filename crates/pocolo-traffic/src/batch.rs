//! What a tick of traffic is made of: the [`Request`], the lane-less
//! [`TickSummary`] the control loop reads, and the columnar
//! [`RequestBatch`] for a caller that wants every request.
//!
//! One simulated tick at million-user scale is ~10⁷ requests, and no
//! product consumer reads them one by one: the closed loop needs a count
//! per LC slot, and the shard gate needs one digest proving the sequence
//! did not move. So the unit the generator hands out is a
//! [`TickSummary`] — length, per-slot and per-region counts and a
//! combinable sequence digest ([`SeqDigest`]), folded request by request
//! where the requests are drawn and never stored. It is a few dozen
//! bytes at any population.
//!
//! A request carries its work factor as the uniform *draw* it is derived
//! from, not as the Exp(1) value: nothing the generator folds reads the
//! value, and the draw determines it, so the digest packs the draw and
//! the logarithm is taken only by [`Request::work`] and
//! [`RequestBatch::work`], for a caller that asks.
//!
//! [`RequestBatch`] is the same sequence materialised, struct-of-arrays
//! and small (15 bytes a request in four flat lanes), for the caller that
//! asks ([`TrafficGen::requests`](crate::TrafficGen::requests)). Its
//! [`digest`](RequestBatch::digest) and counts are the same functions
//! computed over the lanes, so `requests(..)` and `tick(..)` can be
//! checked against each other.

use pocolo_core::digest::SeqDigest;

use crate::mix::REGIONS;

/// One synthesized request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Arrival offset within the tick, microseconds.
    pub arrival_us: u32,
    /// Target LC slot.
    pub slot: u16,
    /// Originating region.
    pub region: u8,
    /// The 53-bit uniform draw (below 2⁵³) the work factor is derived
    /// from; see [`Request::work`].
    pub work_draw: u64,
}

impl Request {
    /// Relative work factor, Exp(1) (mean 1.0): `−ln(1 − u)` with
    /// `u = work_draw · 2⁻⁵³ ∈ [0, 1)`, bit for bit what
    /// `gen_range(0.0..1.0)` yields for the same RNG word.
    #[inline]
    pub fn work(&self) -> f32 {
        let u = self.work_draw as f64 * (1.0 / (1u64 << 53) as f64);
        (-(1.0 - u).ln()) as f32
    }

    /// Appends the request to a sequence digest as two packed words:
    /// every field bit lands in exactly one place, so two requests digest
    /// alike iff they are equal.
    #[inline]
    fn digest_into(&self, digest: &mut SeqDigest) {
        digest.push(
            u64::from(self.arrival_us) | u64::from(self.slot) << 32 | u64::from(self.region) << 48,
            self.work_draw,
        );
    }
}

/// The lane-less summary of a request sequence: what
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
    regions: [u64; REGIONS],
}

impl TickSummary {
    /// The summary of the empty sequence, counting over `n_slots` slots.
    pub(crate) fn new(n_slots: usize) -> Self {
        TickSummary {
            digest: SeqDigest::new(),
            slots: vec![0; n_slots],
            regions: [0; REGIONS],
        }
    }

    /// Folds one request in. A slot or region id out of range (none are
    /// generated in-tree) is digested but not counted.
    #[inline]
    pub(crate) fn push(&mut self, r: Request) {
        r.digest_into(&mut self.digest);
        if let Some(c) = self.slots.get_mut(usize::from(r.slot)) {
            *c += 1;
        }
        if let Some(c) = self.regions.get_mut(usize::from(r.region)) {
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
        for (c, t) in self.regions.iter_mut().zip(&tail.regions) {
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

    /// The order-sensitive sequence digest — equal to
    /// [`RequestBatch::digest`] of the same requests materialised.
    pub fn digest(&self) -> u64 {
        self.digest.finish()
    }

    /// Requests per LC slot over `n_slots` slots (zero beyond the slots
    /// the summary counts over).
    pub fn slot_counts(&self, n_slots: usize) -> Vec<u64> {
        resized(&self.slots, n_slots)
    }

    /// Requests per region over `n_regions` regions.
    pub fn region_counts(&self, n_regions: usize) -> Vec<u64> {
        resized(&self.regions, n_regions)
    }
}

/// `counts` truncated or zero-padded to `n` entries.
fn resized(counts: &[u64], n: usize) -> Vec<u64> {
    let mut out = counts[..n.min(counts.len())].to_vec();
    out.resize(n, 0);
    out
}

/// A columnar batch of synthesized requests.
///
/// All four lanes always have the same length; the only way to grow a
/// batch is [`RequestBatch::push`] / [`RequestBatch::append`], which
/// preserve that invariant.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RequestBatch {
    arrival_us: Vec<u32>,
    slot: Vec<u16>,
    region: Vec<u8>,
    work_draw: Vec<u64>,
}

impl RequestBatch {
    /// An empty batch.
    pub fn new() -> Self {
        RequestBatch::default()
    }

    /// An empty batch with room for `n` requests per lane.
    pub fn with_capacity(n: usize) -> Self {
        RequestBatch {
            arrival_us: Vec::with_capacity(n),
            slot: Vec::with_capacity(n),
            region: Vec::with_capacity(n),
            work_draw: Vec::with_capacity(n),
        }
    }

    /// Number of requests in the batch.
    pub fn len(&self) -> usize {
        self.arrival_us.len()
    }

    /// Whether the batch holds no requests.
    pub fn is_empty(&self) -> bool {
        self.arrival_us.is_empty()
    }

    /// Appends one request.
    pub fn push(&mut self, r: Request) {
        self.arrival_us.push(r.arrival_us);
        self.slot.push(r.slot);
        self.region.push(r.region);
        self.work_draw.push(r.work_draw);
    }

    /// The requests in order, one [`Request`] at a time.
    pub fn iter(&self) -> impl Iterator<Item = Request> + '_ {
        (0..self.len()).map(|i| Request {
            arrival_us: self.arrival_us[i],
            slot: self.slot[i],
            region: self.region[i],
            work_draw: self.work_draw[i],
        })
    }

    /// Appends every request of `other`, preserving order.
    pub fn append(&mut self, other: &RequestBatch) {
        self.arrival_us.extend_from_slice(&other.arrival_us);
        self.slot.extend_from_slice(&other.slot);
        self.region.extend_from_slice(&other.region);
        self.work_draw.extend_from_slice(&other.work_draw);
    }

    /// Arrival offsets within the tick, microseconds.
    pub fn arrival_us(&self) -> &[u32] {
        &self.arrival_us
    }

    /// Target LC slot per request.
    pub fn slot(&self) -> &[u16] {
        &self.slot
    }

    /// Originating region per request.
    pub fn region(&self) -> &[u8] {
        &self.region
    }

    /// Relative work factor per request (Exp(1), mean 1.0), derived from
    /// the draws as [`Request::work`] does.
    pub fn work(&self) -> Vec<f32> {
        self.iter().map(|r| r.work()).collect()
    }

    /// Requests per LC slot over `n_slots` slots. Requests whose slot id
    /// is out of range (none are generated in-tree) are ignored.
    pub fn slot_counts(&self, n_slots: usize) -> Vec<u64> {
        let mut counts = vec![0u64; n_slots];
        for &s in &self.slot {
            if let Some(c) = counts.get_mut(s as usize) {
                *c += 1;
            }
        }
        counts
    }

    /// Requests per region over `n_regions` regions.
    pub fn region_counts(&self, n_regions: usize) -> Vec<u64> {
        let mut counts = vec![0u64; n_regions];
        for &r in &self.region {
            if let Some(c) = counts.get_mut(r as usize) {
                *c += 1;
            }
        }
        counts
    }

    /// The order-sensitive sequence digest of the batch: the same
    /// function [`TickSummary::digest`] folds during generation, computed
    /// over the lanes. Two batches digest equal iff every request field
    /// matches in order (up to the astronomically unlikely 64-bit
    /// collision).
    pub fn digest(&self) -> u64 {
        let mut d = SeqDigest::new();
        self.iter().for_each(|r| r.digest_into(&mut d));
        d.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    fn req(arrival_us: u32, slot: u16, region: u8, work_draw: u64) -> Request {
        Request {
            arrival_us,
            slot,
            region,
            work_draw,
        }
    }

    fn batch_of(requests: &[Request]) -> RequestBatch {
        let mut b = RequestBatch::new();
        requests.iter().for_each(|&r| b.push(r));
        b
    }

    fn summary_of(requests: &[Request], n_slots: usize) -> TickSummary {
        let mut s = TickSummary::new(n_slots);
        requests.iter().for_each(|&r| s.push(r));
        s
    }

    /// Draws for `u` = 1/2, 0 and 3/4: work factors ln 2, 0 and ln 4.
    const HALF: u64 = 1 << 52;
    const THREE_QUARTERS: u64 = 3 << 51;

    fn sample() -> RequestBatch {
        batch_of(&[
            req(10, 0, 1, HALF),
            req(500, 3, 0, 0),
            req(999_999, 1, 3, THREE_QUARTERS),
        ])
    }

    #[test]
    fn push_and_lanes_agree() {
        let b = sample();
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
        assert_eq!(b.arrival_us(), &[10, 500, 999_999]);
        assert_eq!(b.slot(), &[0, 3, 1]);
        assert_eq!(b.region(), &[1, 0, 3]);
        let draws: Vec<u64> = b.iter().map(|r| r.work_draw).collect();
        assert_eq!(draws, [HALF, 0, THREE_QUARTERS]);
        let ln2 = std::f32::consts::LN_2;
        assert_eq!(b.work(), &[ln2, 0.0, 2.0 * ln2]);
        assert_eq!(b.iter().nth(1), Some(req(500, 3, 0, 0)));
    }

    /// The derived work factor is bit for bit the one drawn before the
    /// request stored its draw: `−ln(1 − u)` of `gen_range(0.0..1.0)` on
    /// the same RNG word. Pinned at the ends of the draw range.
    #[test]
    fn work_is_exp1_of_the_draw() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..10_000 {
            let mut twin = rng.clone();
            let u: f64 = twin.gen_range(0.0..1.0);
            let drawn = req(0, 0, 0, rng.next_u64() >> 11);
            assert_eq!(drawn.work().to_bits(), ((-(1.0 - u).ln()) as f32).to_bits());
        }
        assert_eq!(req(0, 0, 0, 0).work(), 0.0);
        let top = req(0, 0, 0, (1 << 53) - 1).work();
        assert!(top.is_finite());
        assert!((top - 53.0 * std::f32::consts::LN_2).abs() < 1e-5, "{top}");
    }

    #[test]
    fn append_concatenates_in_order() {
        let mut a = sample();
        let b = sample();
        a.append(&b);
        assert_eq!(a.len(), 6);
        assert_eq!(a.slot(), &[0, 3, 1, 0, 3, 1]);
    }

    #[test]
    fn counts() {
        let b = sample();
        assert_eq!(b.slot_counts(4), vec![1, 1, 0, 1]);
        assert_eq!(b.region_counts(4), vec![1, 1, 0, 1]);
        // Out-of-range ids are ignored, not panicked on.
        assert_eq!(b.slot_counts(2), vec![1, 1]);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let a = sample();
        let reversed = batch_of(&[
            req(999_999, 1, 3, THREE_QUARTERS),
            req(500, 3, 0, 0),
            req(10, 0, 1, HALF),
        ]);
        assert_ne!(a.digest(), reversed.digest());
        assert_eq!(a.digest(), sample().digest());
    }

    #[test]
    fn digest_separates_empty_prefixes() {
        // Length is folded in, so an empty batch and a batch of zeros
        // differ, as do [0] and [0, 0].
        let empty = RequestBatch::new();
        let one = batch_of(&[req(0, 0, 0, 0)]);
        let two = batch_of(&[req(0, 0, 0, 0); 2]);
        assert_ne!(empty.digest(), one.digest());
        assert_ne!(one.digest(), two.digest());
    }

    #[test]
    fn digest_sees_every_field() {
        let base = req(7, 2, 1, HALF);
        let d = |r: Request| batch_of(&[r]).digest();
        assert_ne!(d(base), d(req(8, 2, 1, HALF)));
        assert_ne!(d(base), d(req(7, 3, 1, HALF)));
        assert_ne!(d(base), d(req(7, 2, 0, HALF)));
        // Only the work draw differs: in its lowest bit, and in its
        // highest (u = 1/2 against u = 0).
        assert_ne!(d(base), d(req(7, 2, 1, HALF + 1)));
        assert_ne!(d(base), d(req(7, 2, 1, 0)));
    }

    #[test]
    fn summary_matches_the_batch_it_summarises() {
        let b = sample();
        let s = summary_of(&b.iter().collect::<Vec<_>>(), 4);
        assert_eq!(s.len(), b.len());
        assert!(!s.is_empty());
        assert_eq!(s.digest(), b.digest());
        assert_eq!(s.slot_counts(4), b.slot_counts(4));
        assert_eq!(s.region_counts(4), b.region_counts(4));
        // Narrower truncates like the batch does; wider pads with zeros.
        assert_eq!(s.slot_counts(2), b.slot_counts(2));
        assert_eq!(s.slot_counts(6), vec![1, 1, 0, 1, 0, 0]);
        assert_eq!(s.region_counts(2), vec![1, 1]);
        // An id beyond the summary's slots is digested, not counted.
        let narrow = summary_of(&[req(1, 9, 9, HALF)], 4);
        assert_eq!(narrow.len(), 1);
        assert_eq!(narrow.slot_counts(4), vec![0; 4]);
        assert_eq!(narrow.region_counts(4), vec![0; 4]);
        assert!(TickSummary::new(4).is_empty());
    }

    #[test]
    fn concat_equals_the_whole_at_every_split() {
        let mut rng = StdRng::seed_from_u64(5);
        let requests: Vec<Request> = (0..61)
            .map(|_| {
                req(
                    rng.gen_range(0..1_000_000),
                    rng.gen_range(0..4),
                    rng.gen_range(0..4),
                    rng.next_u64() >> 11,
                )
            })
            .collect();
        let whole = summary_of(&requests, 4);
        assert_eq!(whole.digest(), batch_of(&requests).digest());
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
