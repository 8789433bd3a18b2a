//! The batch insert the list and the skip list share: into an empty set, one
//! private build and one publication; otherwise one search a key.

/// Inserts `keys` as `insert` would one by one, and returns how many were
/// inserted.
///
/// 1. `carve(i, key)` allocates the node of `keys[i]`, in the keys' order, so
///    the allocator hands out the blocks sequential inserts would have been
///    given. A key repeated in the batch is carved and inserted once, at its
///    first occurrence: a repeat's `insert` finds the key and allocates
///    nothing.
/// 2. `publish(nodes)` gets the nodes in ascending key order and reads the
///    structure's head once. If the set is empty, it chains the nodes
///    privately and makes every one a member with one CAS on the head, the
///    batch's linearization point. If the set is not empty, or that CAS
///    fails, it hands the nodes back unpublished.
/// 3. Nodes handed back go to `link(node)` largest key first: a search for a
///    key smaller than every key linked so far stops at the head's first
///    node. It returns false for a key the structure already held, whose
///    node it frees as `insert` frees a node it never published.
pub(crate) fn insert_batch<K: Ord, N>(
    keys: Vec<K>,
    mut carve: impl FnMut(usize, K) -> N,
    publish: impl FnOnce(Vec<N>) -> Result<(), Vec<N>>,
    link: impl FnMut(N) -> bool,
) -> usize {
    // First occurrences, ascending by key.
    let mut order: Vec<usize> = (0..keys.len()).collect();
    order.sort_unstable_by(|&a, &b| keys[a].cmp(&keys[b]).then(a.cmp(&b)));
    order.dedup_by(|repeat, first| keys[*repeat] == keys[*first]);
    if order.is_empty() {
        return 0;
    }
    let mut carved = vec![false; keys.len()];
    for &i in &order {
        carved[i] = true;
    }
    let mut nodes: Vec<Option<N>> = keys
        .into_iter()
        .enumerate()
        .map(|(i, key)| carved[i].then(|| carve(i, key)))
        .collect();
    let ascending: Vec<N> = order
        .iter()
        .map(|&i| nodes[i].take().expect("every first occurrence is carved"))
        .collect();
    let n = ascending.len();
    match publish(ascending) {
        Ok(()) => n,
        Err(ascending) => ascending
            .into_iter()
            .rev()
            .map(link)
            .filter(|&linked| linked)
            .count(),
    }
}

/// The test keys the list's and the skip list's batch tests share.
#[cfg(test)]
pub(crate) use tests::{shuffled, tagged};

#[cfg(test)]
mod tests {
    use super::insert_batch;
    use std::cmp::Ordering;

    /// A key that orders by `key` alone and remembers which occurrence of it a
    /// batch held, so a test can tell a repeat from its first occurrence.
    #[derive(Clone, Copy, Debug)]
    pub(crate) struct Tagged {
        pub(crate) key: u64,
        pub(crate) occurrence: usize,
    }

    impl PartialEq for Tagged {
        fn eq(&self, other: &Self) -> bool {
            self.key == other.key
        }
    }

    impl Eq for Tagged {}

    impl PartialOrd for Tagged {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Ord for Tagged {
        fn cmp(&self, other: &Self) -> Ordering {
            self.key.cmp(&other.key)
        }
    }

    /// Each key of `keys`, tagged with its position.
    pub(crate) fn tagged(keys: &[u64]) -> Vec<Tagged> {
        let tag = |(occurrence, &key)| Tagged { key, occurrence };
        keys.iter().enumerate().map(tag).collect()
    }

    /// `n` keys of `0..range` in a fixed pseudo-random order, repeats
    /// included.
    pub(crate) fn shuffled(n: usize, range: u64) -> Vec<u64> {
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % range
        };
        (0..n).map(|_| next()).collect()
    }

    #[test]
    fn carves_first_occurrences_in_input_order_and_links_largest_first() {
        let keys = vec![5_u64, 3, 5, 9, 1, 3, 7];
        let mut carved = Vec::new();
        let mut offered = Vec::new();
        let mut linked = Vec::new();
        let inserted = insert_batch(
            keys,
            |i, key| {
                carved.push(i);
                key
            },
            |nodes| {
                offered.clone_from(&nodes);
                Err(nodes)
            },
            |key| {
                linked.push(key);
                key != 9
            },
        );
        assert_eq!(carved, [0, 1, 3, 4, 6], "a repeat is never carved");
        assert_eq!(offered, [1, 3, 5, 7, 9], "publication sees ascending keys");
        assert_eq!(linked, [9, 7, 5, 3, 1]);
        assert_eq!(inserted, 4, "what `link` refused is not counted");
    }

    #[test]
    fn a_published_batch_links_nothing_one_by_one() {
        let link = |_: u64| -> bool { panic!("a published batch is not linked again") };
        assert_eq!(
            insert_batch(vec![4_u64, 2, 4], |_, key| key, |_| Ok(()), link),
            2
        );
        let publish = |_: Vec<u64>| -> Result<(), Vec<u64>> { panic!("nothing to publish") };
        assert_eq!(insert_batch(Vec::new(), |_, key| key, publish, link), 0);
    }
}
