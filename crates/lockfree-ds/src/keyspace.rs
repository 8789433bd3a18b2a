//! Key ordering with sentinels.
//!
//! Every ordered structure in this crate needs sentinel endpoints: a head that
//! compares below every real key and (for the skip list and BST) bounds that compare
//! above every real key. [`KeySlot`] encodes this directly in the type so that the
//! structures stay generic over the user's key type without reserving magic values.

use std::cmp::Ordering;

/// A key or a sentinel endpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum KeySlot<K> {
    /// Compares below every real key (head sentinels).
    NegInf,
    /// A real key.
    Key(K),
    /// Compares above every real key (tail sentinels).
    PosInf,
}

impl<K> KeySlot<K> {
    /// Returns the real key, if this slot holds one.
    #[cfg(test)]
    pub(crate) fn as_key(&self) -> Option<&K> {
        match self {
            KeySlot::Key(k) => Some(k),
            _ => None,
        }
    }

    /// True if this is a sentinel rather than a real key.
    pub(crate) fn is_sentinel(&self) -> bool {
        !matches!(self, KeySlot::Key(_))
    }
}

impl<K: Ord> KeySlot<K> {
    /// Compares this slot against a real key.
    pub(crate) fn cmp_key(&self, key: &K) -> Ordering {
        match self {
            KeySlot::NegInf => Ordering::Less,
            KeySlot::Key(k) => k.cmp(key),
            KeySlot::PosInf => Ordering::Greater,
        }
    }
}

impl<K: Ord> PartialOrd for KeySlot<K> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<K: Ord> Ord for KeySlot<K> {
    fn cmp(&self, other: &Self) -> Ordering {
        use KeySlot::*;
        match (self, other) {
            (NegInf, NegInf) | (PosInf, PosInf) => Ordering::Equal,
            (NegInf, _) | (_, PosInf) => Ordering::Less,
            (_, NegInf) | (PosInf, _) => Ordering::Greater,
            (Key(a), Key(b)) => a.cmp(b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sentinel_ordering() {
        let neg: KeySlot<u64> = KeySlot::NegInf;
        let pos: KeySlot<u64> = KeySlot::PosInf;
        let five = KeySlot::Key(5_u64);
        let nine = KeySlot::Key(9_u64);
        assert!(neg < five && five < nine && nine < pos);
        assert!(neg < pos);
        assert_eq!(five.cmp(&five), Ordering::Equal);
        assert_eq!(neg.cmp(&neg), Ordering::Equal);
        assert_eq!(pos.cmp(&pos), Ordering::Equal);
    }

    #[test]
    fn cmp_key_matches_slot_ordering() {
        let neg: KeySlot<u64> = KeySlot::NegInf;
        let pos: KeySlot<u64> = KeySlot::PosInf;
        assert_eq!(neg.cmp_key(&0), Ordering::Less);
        assert_eq!(pos.cmp_key(&u64::MAX), Ordering::Greater);
        assert_eq!(KeySlot::Key(3_u64).cmp_key(&3), Ordering::Equal);
        assert_eq!(KeySlot::Key(2_u64).cmp_key(&3), Ordering::Less);
        assert_eq!(KeySlot::Key(4_u64).cmp_key(&3), Ordering::Greater);
    }

    #[test]
    fn accessors() {
        let k = KeySlot::Key(7_u32);
        assert_eq!(k.as_key(), Some(&7));
        assert!(!k.is_sentinel());
        let s: KeySlot<u32> = KeySlot::NegInf;
        assert_eq!(s.as_key(), None);
        assert!(s.is_sentinel());
        assert!(KeySlot::<u32>::PosInf.is_sentinel());
    }
}
