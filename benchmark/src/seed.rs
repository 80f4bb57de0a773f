//! Everything `--seed` determines: the per-job workload seeds handed to
//! the program and the order requests are sent in. The program only ever
//! sees these derived values.

/// One splitmix64 step (the benchmark's own copy, so a change to the
/// program's fault-injection hash cannot move benchmark inputs).
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `index`-th workload seed derived from the run seed for `stream`
/// (a per-purpose constant). Kept to 48 bits so it survives any JSON
/// number path exactly.
pub fn derive(seed: u64, stream: u64, index: u64) -> u64 {
    splitmix64(splitmix64(seed ^ stream.rotate_left(32)).wrapping_add(index)) & 0xFFFF_FFFF_FFFF
}

/// Fisher–Yates shuffle driven by the run seed.
pub fn shuffle<T>(items: &mut [T], seed: u64, stream: u64) {
    let mut state = splitmix64(seed ^ stream);
    for i in (1..items.len()).rev() {
        state = splitmix64(state);
        items.swap(i, (state % (i as u64 + 1)) as usize);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivation_is_deterministic_and_spreads() {
        assert_eq!(derive(42, 1, 0), derive(42, 1, 0));
        assert_ne!(derive(42, 1, 0), derive(42, 1, 1));
        assert_ne!(derive(42, 1, 0), derive(42, 2, 0));
        assert_ne!(derive(42, 1, 0), derive(43, 1, 0));
        assert!(derive(u64::MAX, 9, 9) < 1 << 48);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let base: Vec<u32> = (0..50).collect();
        let mut a = base.clone();
        let mut b = base.clone();
        let mut c = base.clone();
        shuffle(&mut a, 42, 3);
        shuffle(&mut b, 42, 3);
        shuffle(&mut c, 43, 3);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, base);
        let mut back = a.clone();
        back.sort_unstable();
        assert_eq!(back, base);
    }
}
