//! Streaming result digests and the reference checks built on them.
//!
//! A sink cannot keep every result: the live-install fleet alone receives
//! over a million per phase. Each sink instead folds its results into a
//! [`Digest`] of constant size, and the check compares digests.
//!
//! Snapshot equivalence (PIPES' correctness criterion, evaluated naively by
//! `pipes::time::snapshot`) holds between two finite streams exactly when,
//! for every instant `t` and payload `p`, the number of `p` intervals
//! starting at `t` minus the number ending at `t` is the same. The digest
//! keeps a random linear hash of that signed count: `+h(start, p)` and
//! `-h(end, p)` per element. It is therefore blind to arrival order and to
//! how an operator splits one validity interval into several, and two
//! 64-bit lanes make an accidental match of different outputs negligible.
//!
//! A live-installed query sees the stream from its splice point on, so its
//! sink must hold a contiguous suffix of the full-stream reference. The
//! digest's rolling, order-sensitive hash makes that a lookup: a sink that
//! received `c` results matches when its rolling hash equals the reference's
//! hash of its last `c` results ([`SuffixRef`]).

use pipes::prelude::*;
use std::hash::{Hash, Hasher};

const K: u64 = 0x9E37_79B9_7F4A_7C15;
const ROLL: u64 = 0x100_0000_01B3;

/// splitmix64's finalizer.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A small non-cryptographic hasher for tuples (the std SipHash would cost
/// more than the filter and map operators it sits behind).
#[derive(Default)]
struct Fold(u64);

impl Hasher for Fold {
    fn finish(&self) -> u64 {
        mix(self.0)
    }
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(w));
        }
    }
    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(23) ^ x).wrapping_mul(K);
    }
}

fn payload_hash(t: &Tuple) -> u64 {
    let mut h = Fold::default();
    t.hash(&mut h);
    h.finish()
}

/// Order-sensitive word of one element (payload and full interval).
fn element_word(ph: u64, e: &Element<Tuple>) -> u64 {
    mix(ph ^ mix(e.start().ticks() ^ mix(e.end().ticks())))
}

/// Constant-size summary of a sink's output.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Digest {
    /// Elements received.
    pub count: u64,
    /// Linear hash of the per-instant start/end balance (two lanes).
    delta: [u64; 2],
    /// Rolling hash of the elements in arrival order.
    rolling: u64,
}

impl Digest {
    /// Folds one result in.
    pub fn add(&mut self, e: &Element<Tuple>) {
        let ph = payload_hash(&e.payload);
        let (s, t) = (e.start().ticks(), e.end().ticks());
        for (lane, salt) in self.delta.iter_mut().zip([1u64, 2]) {
            let at = |ts: u64| mix(ph ^ mix(ts ^ salt.wrapping_mul(K)));
            *lane = lane.wrapping_add(at(s)).wrapping_sub(at(t));
        }
        self.rolling = self
            .rolling
            .wrapping_mul(ROLL)
            .wrapping_add(element_word(ph, e));
        self.count += 1;
    }

    /// The order-sensitive word [`SuffixRef::from_words`] takes per result.
    pub fn word(e: &Element<Tuple>) -> u64 {
        element_word(payload_hash(&e.payload), e)
    }

    /// Whether the two outputs are snapshot-equivalent.
    pub fn snapshot_equivalent(&self, other: &Digest) -> bool {
        self.delta == other.delta
    }
}

/// The reference output of one live-installable query, in order, reduced
/// to the rolling hash of each of its suffixes.
#[derive(Clone, Debug)]
pub struct SuffixRef {
    /// `suffix[j]` is the rolling hash of results `j..n`; `suffix[n] = 0`.
    suffix: Vec<u64>,
}

impl SuffixRef {
    /// Builds the table from the [`Digest::word`]s of the full-stream
    /// output, in order.
    pub fn from_words(words: &[u64]) -> Self {
        let n = words.len();
        let mut suffix = vec![0u64; n + 1];
        let mut pow = 1u64;
        for j in (0..n).rev() {
            suffix[j] = words[j].wrapping_mul(pow).wrapping_add(suffix[j + 1]);
            pow = pow.wrapping_mul(ROLL);
        }
        SuffixRef { suffix }
    }

    /// Results in the full-stream output.
    pub fn len(&self) -> usize {
        self.suffix.len() - 1
    }

    /// Whether `got` is a contiguous suffix of the reference.
    pub fn is_suffix(&self, got: &Digest) -> bool {
        let n = self.len() as u64;
        got.count <= n && self.suffix[(n - got.count) as usize] == got.rolling
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipes::time::snapshot::{event_points, merge_points, multiset_eq, snapshot};

    fn el(v: i64, s: u64, e: u64) -> Element<Tuple> {
        Element::new(
            vec![Value::Int(v), Value::str("x")],
            TimeInterval::new(Timestamp::new(s), Timestamp::new(e)),
        )
    }

    fn digest(bag: &[Element<Tuple>]) -> Digest {
        let mut d = Digest::default();
        bag.iter().for_each(|e| d.add(e));
        d
    }

    /// The naive definition, straight from `pipes::time::snapshot`.
    fn naive_equivalent(a: &[Element<Tuple>], b: &[Element<Tuple>]) -> bool {
        merge_points([event_points(a), event_points(b)])
            .into_iter()
            .all(|t| multiset_eq(snapshot(a, t), snapshot(b, t)))
    }

    #[test]
    fn digest_agrees_with_naive_snapshot_semantics() {
        let base = vec![el(1, 0, 10), el(2, 5, 15), el(1, 3, 8)];
        // Reordered, and one interval split in two: equivalent.
        let same = vec![el(1, 3, 8), el(2, 5, 9), el(1, 0, 10), el(2, 9, 15)];
        // A payload changed, an interval moved, an element dropped.
        let changed = vec![el(1, 0, 10), el(3, 5, 15), el(1, 3, 8)];
        let moved = vec![el(1, 0, 10), el(2, 5, 16), el(1, 3, 8)];
        let dropped = vec![el(1, 0, 10), el(2, 5, 15)];
        assert!(naive_equivalent(&base, &same));
        assert!(digest(&base).snapshot_equivalent(&digest(&same)));
        for bad in [&changed, &moved, &dropped] {
            assert!(!naive_equivalent(&base, bad));
            assert!(!digest(&base).snapshot_equivalent(&digest(bad)));
        }
    }

    #[test]
    fn suffix_check_accepts_suffixes_only() {
        let full: Vec<_> = (0..20).map(|i| el(i, i as u64, i as u64 + 5)).collect();
        let words: Vec<u64> = full.iter().map(Digest::word).collect();
        let table = SuffixRef::from_words(&words);
        for k in 0..=full.len() {
            assert!(table.is_suffix(&digest(&full[k..])), "suffix from {k}");
        }
        assert!(!table.is_suffix(&digest(&full[3..10])), "infix accepted");
        let mut gap = full[5..].to_vec();
        gap.remove(4);
        assert!(
            !table.is_suffix(&digest(&gap)),
            "suffix with a hole accepted"
        );
        let mut swapped = full[5..].to_vec();
        swapped.swap(0, 1);
        assert!(
            !table.is_suffix(&digest(&swapped)),
            "reordered suffix accepted"
        );
    }
}
