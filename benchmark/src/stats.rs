//! Small statistics and seeding helpers.

use workloads::Xoshiro256;

/// Nearest-rank percentile of `values` (sorted in place); 0 when empty.
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = (p * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// A generator for one purpose: streams drawn for different purposes from
/// the same seed are independent, so adding a draw for one purpose does not
/// shift the inputs of another.
pub fn rng(seed: u64, purpose: u64) -> Xoshiro256 {
    Xoshiro256::seed_from_u64(seed ^ purpose.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}
