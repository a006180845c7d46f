//! Seeded input generators. Each takes the run seed (through [`sub_seed`])
//! and hands the product nothing but the inputs it generated: the same
//! seed gives the same inputs, a different seed different ones.

pub mod deltas;
pub mod fleet;
pub mod schedule;

/// An independent stream seed for `(seed, tag)` (splitmix64 finaliser).
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    let mut x = seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}
