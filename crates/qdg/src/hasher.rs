//! The one hasher of the analysis crates: a small Fx-style hasher for
//! every map and set in `fadr-qdg`, `fadr-verify` and `fadr-lint`.
//!
//! Keys here are short sequences of machine words from derived `Hash`
//! impls and need no DoS resistance, so a multiply-xor mix in the style
//! of rustc's `FxHasher` is the right trade; the standard library's
//! SipHash dominated every profile it was left in. The hasher cannot
//! change a verdict: equality decides membership, and no verdict depends
//! on iteration order. Each crate's `clippy.toml`
//! disallows `std::collections::{HashMap, HashSet}`, so the aliases
//! below are the only way in. The users:
//!
//! - `fadr-qdg`: the per-destination walker's `(QueueId, Msg)` interner
//!   ([`crate::explore::Walker`], hundreds of millions of states on the
//!   4096-node shuffle-exchange), its stutter-cycle check, the
//!   `explore_pair` interner, `Qdg::index` and `Qdg::static_levels`,
//!   `Digraph`'s edge set, the model checker's bounded-path hop map and
//!   the DOT renderer's dynamic-edge set;
//! - `fadr-verify`: `check_certificate`'s state index, stutter
//!   adjacency, ranks and DFS colours; the class graph's index,
//!   witnesses, escapes and seen-sets; the counterexample renderer's
//!   index and the `Faulted` wrapper's dead-link set;
//! - `fadr-lint`: the engine's vertex index, edge witnesses, dedup
//!   sets and used buffer classes, and the fault pass's dead-link set;
//! - `fadr-sim`: the lane simulator's routing-state table.

#[allow(clippy::disallowed_types)]
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier from rustc-hash: a random odd 64-bit constant.
const K: u64 = 0x517c_c1b7_2722_0a95;

/// Word-at-a-time multiply-xor hasher (not DoS resistant; interning only).
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;
/// `HashMap` keyed with [`FxHasher`].
#[allow(clippy::disallowed_types)]
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;
/// `HashSet` keyed with [`FxHasher`].
#[allow(clippy::disallowed_types)]
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_keys_hash_distinctly() {
        let mut set = FxHashSet::default();
        for i in 0..1000u64 {
            set.insert((i, i.wrapping_mul(3)));
        }
        assert_eq!(set.len(), 1000);
    }

    #[test]
    fn write_matches_word_path_for_aligned_input() {
        let mut a = FxHasher::default();
        a.write_u64(0xdead_beef);
        let mut b = FxHasher::default();
        b.write(&0xdead_beef_u64.to_le_bytes());
        assert_eq!(a.finish(), b.finish());
    }
}
