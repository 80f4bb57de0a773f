//! Stable, order-independent hashing of named scalar fields.
//!
//! Job caching and artifact identity need a configuration hash that is
//! reproducible across runs, platforms and — crucially — across *code
//! motion*: reordering the fields of a struct (or the order in which a
//! visitor walks them) must not change the hash, while changing any field
//! *value* must. [`StableHasher`] achieves both by hashing each
//! `(name, value)` pair independently with FNV-1a and combining the
//! per-field digests with an order-insensitive fold.
//!
//! `std::hash` types are deliberately avoided: `DefaultHasher` is
//! documented to vary between releases, which would silently invalidate
//! every cached artifact on a toolchain bump.

use dmt_common::config::{CfgValue, SystemConfig};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte slice.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    })
}

/// Accumulates named scalar fields into one 64-bit digest that does not
/// depend on the order the fields were fed in.
///
/// Each field is digested as FNV-1a over `name \0 value_bits`; digests
/// are combined commutatively (wrapping sum of a bijective remix of each
/// digest), so any permutation of the same field set produces the same
/// hash, and two fields can only cancel by collision.
///
/// # Examples
///
/// ```
/// use dmt_runner::hash::StableHasher;
///
/// let mut a = StableHasher::new();
/// a.field_u64("alpha", 1);
/// a.field_u64("beta", 2);
///
/// let mut b = StableHasher::new();
/// b.field_u64("beta", 2);
/// b.field_u64("alpha", 1);
///
/// assert_eq!(a.finish(), b.finish());
/// ```
#[derive(Debug, Clone, Default)]
pub struct StableHasher {
    acc: u64,
    count: u64,
}

impl StableHasher {
    /// An empty hasher.
    #[must_use]
    pub fn new() -> StableHasher {
        StableHasher::default()
    }

    /// Feeds one named field with an arbitrary 8-byte value encoding.
    pub fn field_bits(&mut self, name: &str, bits: u64) {
        let mut h = fnv1a(name.as_bytes());
        // Separator octet (0x00) between name and value: absorb it so
        // ("ab", ...) and ("a", "b"-prefixed value) cannot alias.
        h = h.wrapping_mul(FNV_PRIME);
        for b in bits.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        // splitmix64 finalizer: decorrelates the per-field digest before the
        // commutative fold so that structured (name, value) patterns cannot
        // line up and cancel.
        let mut z = h;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        self.acc = self.acc.wrapping_add(z);
        self.count += 1;
    }

    /// Feeds one named unsigned-integer field.
    pub fn field_u64(&mut self, name: &str, value: u64) {
        self.field_bits(name, value);
    }

    /// Feeds one named float field (hashed by IEEE-754 bit pattern).
    pub fn field_f64(&mut self, name: &str, value: f64) {
        self.field_bits(name, value.to_bits());
    }

    /// Feeds one named string field.
    pub fn field_str(&mut self, name: &str, value: &str) {
        self.field_bits(name, fnv1a(value.as_bytes()));
    }

    /// The combined digest (also folds in the field count, so an empty
    /// hasher and one fed a zero-digest field differ).
    #[must_use]
    pub fn finish(&self) -> u64 {
        let mut z = self.acc ^ self.count.rotate_left(32);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// The stable hash of a full [`SystemConfig`].
///
/// Built on [`SystemConfig::visit_fields`], which walks the config's
/// one leaf list — a new configuration field cannot be added without it
/// entering this hash (a field with no row fails to compile).
#[must_use]
pub fn config_hash(cfg: &SystemConfig) -> u64 {
    let mut h = StableHasher::new();
    cfg.visit_fields(&mut |leaf| match leaf.value {
        CfgValue::U64(v) => h.field_u64(leaf.name, v),
        CfgValue::F64(v) => h.field_f64(leaf.name, v),
    });
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_independent() {
        let mut a = StableHasher::new();
        let mut b = StableHasher::new();
        for (n, v) in [("x", 1u64), ("y", 2), ("z", 3)] {
            a.field_u64(n, v);
        }
        for (n, v) in [("z", 3u64), ("x", 1), ("y", 2)] {
            b.field_u64(n, v);
        }
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn value_sensitive() {
        let mut a = StableHasher::new();
        a.field_u64("x", 1);
        let mut b = StableHasher::new();
        b.field_u64("x", 2);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn name_sensitive() {
        let mut a = StableHasher::new();
        a.field_u64("x", 1);
        let mut b = StableHasher::new();
        b.field_u64("y", 1);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn empty_differs_from_zero_field() {
        let empty = StableHasher::new().finish();
        let mut one = StableHasher::new();
        one.field_u64("x", 0);
        assert_ne!(empty, one.finish());
    }

    #[test]
    fn default_config_hash_is_stable_and_field_sensitive() {
        let base = config_hash(&SystemConfig::default());
        assert_eq!(base, config_hash(&SystemConfig::default()));

        let mut tb = SystemConfig::default();
        tb.fabric.token_buffer_entries = 8;
        assert_ne!(base, config_hash(&tb));

        let mut clk = SystemConfig::default();
        clk.clocks.core_ghz = 2.0;
        assert_ne!(base, config_hash(&clk));

        let mut l1 = SystemConfig::default();
        l1.mem.l1.hit_latency += 1;
        assert_ne!(base, config_hash(&l1));
    }
}
