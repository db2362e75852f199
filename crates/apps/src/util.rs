//! Shared helpers for the benchmark ports.

use opprox_approx_rt::InputParams;

/// Derives a deterministic RNG seed from input parameters and a per-app
/// salt, so every application run is a pure function of its inputs.
pub(crate) fn seed_from(params: &InputParams, salt: u64) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325 ^ salt.wrapping_mul(0x100000001b3);
    for v in params.values() {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_depends_on_every_parameter() {
        let a = seed_from(&InputParams::new(vec![1.0, 2.0]), 0);
        let b = seed_from(&InputParams::new(vec![1.0, 3.0]), 0);
        let c = seed_from(&InputParams::new(vec![2.0, 2.0]), 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn seed_is_stable() {
        let p = InputParams::new(vec![4.5]);
        assert_eq!(seed_from(&p, 1), seed_from(&p, 1));
        assert_ne!(seed_from(&p, 1), seed_from(&p, 2));
    }
}
