//! The workspace's determinism witnesses: one byte-wise hash, one word
//! mixer and one combinable sequence digest, all pure and
//! platform-independent.
//!
//! - [`fnv1a`] / [`fnv1a_word`] — 64-bit FNV-1a, for short keys and logs
//!   (federation decision logs, agent retry seeds, folding per-tick
//!   digests into a run digest, the CLI goldens). Byte-at-a-time, so not
//!   for hot loops.
//! - [`splitmix64`] — one SplitMix64 output, for seeded streams that need
//!   no RNG crate (fleet class shuffles, swarm telemetry). A stream is
//!   `splitmix64(state)` with `state` advanced by [`SPLITMIX64_GAMMA`].
//! - [`SeqDigest`] — an order-sensitive digest of a sequence of word
//!   pairs that costs two multiplies per element and whose value for a
//!   concatenation `A‖B` is computable from the digests of `A` and `B`
//!   alone. Producers that generate a sequence in independently computed
//!   pieces (the traffic generator's logical streams) digest each piece
//!   where it is made and combine in sequence order.

/// The FNV-1a initial state; fold into it with [`fnv1a`].
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into the FNV-1a state `h` (start from [`FNV_OFFSET`]).
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// Folds one 64-bit word into the FNV-1a state `h`, little-endian.
pub fn fnv1a_word(h: u64, word: u64) -> u64 {
    fnv1a(h, &word.to_le_bytes())
}

/// The SplitMix64 state increment (2⁶⁴ / φ, odd).
pub const SPLITMIX64_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 output for `state`: the finaliser applied to
/// `state + SPLITMIX64_GAMMA`. The next state is that sum.
#[inline]
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(SPLITMIX64_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Multiplier of the polynomial: odd (so invertible mod 2⁶⁴, which is
/// what makes a single differing element always change the digest) and
/// ≡ 5 mod 8 (maximal multiplicative order).
const P: u64 = 0x9E37_79B9_7F4A_7C15;
const K0: u64 = 0x2D35_8DCC_AA6C_78A5;
const K1: u64 = 0x8BB8_4B93_962E_ACC9;

/// Scrambles one element's two words into one: the folded 128-bit product
/// of the key-whitened words. Non-linear in both, so differences in two
/// elements cannot cancel the way they do in a plain polynomial mod 2⁶⁴.
#[inline]
fn mix(a: u64, b: u64) -> u64 {
    let p = u128::from(a ^ K0) * u128::from(b ^ K1);
    (p as u64) ^ ((p >> 64) as u64)
}

/// `base^exp` mod 2⁶⁴ by squaring.
fn pow(mut base: u64, mut exp: u64) -> u64 {
    let mut acc = 1u64;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = acc.wrapping_mul(base);
        }
        base = base.wrapping_mul(base);
        exp >>= 1;
    }
    acc
}

/// An order-sensitive digest of a sequence of `(u64, u64)` elements.
///
/// The state is `(h, n)` with `h = Σᵢ mix(aᵢ, bᵢ)·Pⁿ⁻¹⁻ⁱ mod 2⁶⁴` —
/// pushing an element is `h ← h·P + mix(a, b)` — and `n` the element
/// count. **Combine law:** for sequences `A` and `B`,
/// `h(A‖B) = h(A)·P^|B| + h(B)` and `n(A‖B) = n(A) + n(B)`
/// ([`SeqDigest::concat`]), so a digest folded piecewise and combined in
/// sequence order equals the digest folded over the whole sequence, however
/// the sequence was cut. [`SeqDigest::finish`] mixes the length in, which
/// separates the empty sequence from `[(0, 0)]` from `[(0, 0), (0, 0)]`.
///
/// ```
/// use pocolo_core::digest::SeqDigest;
///
/// let digest_of = |items: &[(u64, u64)]| {
///     let mut d = SeqDigest::new();
///     items.iter().for_each(|&(a, b)| d.push(a, b));
///     d
/// };
/// let mut head = digest_of(&[(1, 10), (2, 20)]);
/// head.concat(&digest_of(&[(3, 30)]));
/// assert_eq!(head, digest_of(&[(1, 10), (2, 20), (3, 30)]));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SeqDigest {
    hash: u64,
    len: u64,
}

impl SeqDigest {
    /// The digest of the empty sequence.
    pub fn new() -> Self {
        SeqDigest::default()
    }

    /// Appends one element.
    #[inline]
    pub fn push(&mut self, a: u64, b: u64) {
        self.hash = self.hash.wrapping_mul(P).wrapping_add(mix(a, b));
        self.len += 1;
    }

    /// Appends the whole sequence `tail` digests: `self ← self ‖ tail`.
    pub fn concat(&mut self, tail: &SeqDigest) {
        self.hash = self
            .hash
            .wrapping_mul(pow(P, tail.len))
            .wrapping_add(tail.hash);
        self.len += tail.len;
    }

    /// Elements digested so far.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether no element has been digested.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The 64-bit digest value: equal for two sequences iff they hold the
    /// same elements in the same order (up to a 64-bit collision).
    pub fn finish(&self) -> u64 {
        mix(self.hash, self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn digest_of(items: &[(u64, u64)]) -> SeqDigest {
        let mut d = SeqDigest::new();
        for &(a, b) in items {
            d.push(a, b);
        }
        d
    }

    #[test]
    fn fnv1a_matches_published_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), FNV_OFFSET);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        // Folding is incremental, and a word is its little-endian bytes.
        assert_eq!(
            fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar"),
            fnv1a(FNV_OFFSET, b"foobar")
        );
        assert_eq!(
            fnv1a_word(FNV_OFFSET, 0x0807_0605_0403_0201),
            fnv1a(FNV_OFFSET, &[1, 2, 3, 4, 5, 6, 7, 8])
        );
    }

    #[test]
    fn splitmix64_matches_the_reference_stream() {
        // The first outputs of the reference SplitMix64 seeded with 0.
        let mut state = 0u64;
        let mut next = || {
            let out = splitmix64(state);
            state = state.wrapping_add(SPLITMIX64_GAMMA);
            out
        };
        assert_eq!(next(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(next(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(next(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn concat_equals_whole_at_every_split() {
        let mut rng = StdRng::seed_from_u64(11);
        let items: Vec<(u64, u64)> = (0..97)
            .map(|_| (rng.gen_range(0..=u64::MAX), rng.gen_range(0..=u64::MAX)))
            .collect();
        let whole = digest_of(&items);
        assert_eq!(whole.len(), 97);
        for split in 0..=items.len() {
            let mut head = digest_of(&items[..split]);
            head.concat(&digest_of(&items[split..]));
            assert_eq!(head, whole, "split at {split}");
            assert_eq!(head.finish(), whole.finish());
        }
        // Associative: a three-way cut combines to the same value too.
        let mut left = digest_of(&items[..10]);
        let mut mid = digest_of(&items[10..60]);
        mid.concat(&digest_of(&items[60..]));
        left.concat(&mid);
        assert_eq!(left, whole);
    }

    #[test]
    fn order_and_content_sensitive() {
        let a = digest_of(&[(1, 2), (3, 4), (5, 6)]);
        assert_ne!(a.finish(), digest_of(&[(5, 6), (3, 4), (1, 2)]).finish());
        assert_ne!(a.finish(), digest_of(&[(2, 1), (3, 4), (5, 6)]).finish());
        // The plain polynomial's blind spot: the top bit flipped in two
        // elements cancels mod 2⁶⁴ without the per-element scramble.
        let top = 1u64 << 63;
        assert_ne!(
            a.finish(),
            digest_of(&[(1 ^ top, 2), (3 ^ top, 4), (5, 6)]).finish()
        );
        assert_eq!(a, digest_of(&[(1, 2), (3, 4), (5, 6)]));
    }

    #[test]
    fn length_separates_zero_prefixes() {
        let empty = SeqDigest::new();
        assert!(empty.is_empty());
        let one = digest_of(&[(0, 0)]);
        let two = digest_of(&[(0, 0), (0, 0)]);
        assert_ne!(empty.finish(), one.finish());
        assert_ne!(one.finish(), two.finish());
        assert_ne!(empty.finish(), two.finish());
    }
}
