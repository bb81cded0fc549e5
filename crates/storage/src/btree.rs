//! B+-trees with single- and multi-column keys.
//!
//! Non-clustered indexes map composite keys to [`Rid`]s.  The tree is a real
//! dynamic structure — bulk load, inserts with node splits, deletes with
//! borrow/merge rebalancing, linked leaves, range cursors — and every node
//! visit is charged to the session as a page access, with upper levels
//! naturally staying hot in the buffer pool.
//!
//! Keys hold up to [`MAX_KEY_COLS`] `i64` values inline.  Duplicate keys are
//! allowed; entries order by `(key, rid)`.  Open-ended and prefix bounds use
//! `i64::MIN` / `i64::MAX` padding (see [`Key::padded_lo`] / [`Key::padded_hi`]),
//! which is what the MDAM operator uses to build per-column sub-ranges.
//!
//! A [`Key`] carries its arity; what a leaf or a separator stores does not.
//! A [`Tree<A>`] holds `A`-column keys, so its nodes hold
//! [`StoredEntry<A>`]s — the key's `A` columns and the rid, 16, 24 or 32
//! bytes — and keys of one arity order as their columns do.  [`BTree`] is a
//! tree of any arity: one [`Tree`] behind a three-variant enum, each method
//! dispatching once to code compiled for its arity, and [`with_tree!`](crate::with_tree) does
//! the same for a caller's own loop over leaves.  Bounds, probes, inserts
//! and deletes are `Key`s, checked against the tree's arity; entries handed
//! out by value ([`BTree::scan_range`], [`BTree::cursor_next`],
//! [`BTree::collect_all`]) are `Key`s again.
//!
//! A leaf is one modelled page at every arity: [`DEFAULT_LEAF_CAP`] entries
//! whatever their width, so node numbering, page charges and compare
//! charges do not depend on how many bytes an entry takes.
//!
//! Reads go through one [`Cursor`], which borrows the leaf it is on:
//! [`Tree::seek`] makes one, [`Cursor::peek`] / [`Cursor::rest`] /
//! [`Cursor::advance`] read and step within the leaf for free, and
//! [`Tree::next_leaf`] is the only step that touches a page.
//! [`Tree::scan_leaves`] and the MDAM walk are written over those;
//! [`Tree::cursor_next`] is the entry-at-a-time reference loop.

use std::cmp::Ordering;

use crate::buffer::{FileId, PageId};
use crate::charge::ChargeSink;
use crate::heap::Rid;
use crate::session::Session;
use crate::sim::AccessKind;

/// Maximum number of key columns in an index.
pub const MAX_KEY_COLS: usize = 3;

/// A composite index key of up to [`MAX_KEY_COLS`] values, stored inline.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Key {
    vals: [i64; MAX_KEY_COLS],
    len: u8,
}

impl Key {
    /// Build a key from a slice of column values.
    ///
    /// # Panics
    /// Panics if `vals` is empty or longer than [`MAX_KEY_COLS`].
    #[inline]
    pub fn new(vals: &[i64]) -> Self {
        assert!(!vals.is_empty() && vals.len() <= MAX_KEY_COLS, "bad key arity");
        Self::padded(vals, vals.len(), 0)
    }

    /// `prefix`, then `pad` in every remaining slot.  A loop of
    /// [`MAX_KEY_COLS`] trips whatever the prefix length, so it unrolls
    /// into stores: a `copy_from_slice` of a run-time length is a `memcpy`
    /// call per key, and MDAM, `seek` and `get_first` build a key per probe.
    #[inline]
    fn padded(prefix: &[i64], arity: usize, pad: i64) -> Self {
        let mut vals = [pad; MAX_KEY_COLS];
        for (i, v) in vals.iter_mut().enumerate() {
            if let Some(&p) = prefix.get(i) {
                *v = p;
            }
        }
        Key { vals, len: arity as u8 }
    }

    /// Single-column key.
    pub fn single(v: i64) -> Self {
        Key::new(&[v])
    }

    /// Two-column key.
    pub fn pair(a: i64, b: i64) -> Self {
        Key::new(&[a, b])
    }

    /// Number of key columns.
    #[inline]
    pub fn arity(&self) -> usize {
        self.len as usize
    }

    /// The key's [`MAX_KEY_COLS`] column slots without its arity.
    #[inline]
    pub fn cols(&self) -> &KeyCols {
        &self.vals
    }

    /// The key values.
    #[inline]
    pub fn values(&self) -> &[i64] {
        &self.vals[..self.len as usize]
    }

    /// Value of key column `i`.
    #[inline]
    pub fn get(&self, i: usize) -> i64 {
        assert!(i < self.arity());
        self.vals[i]
    }

    /// A `target_arity`-column key that sorts before every real key sharing
    /// the given prefix (remaining columns padded with `i64::MIN`).
    #[inline]
    pub fn padded_lo(prefix: &[i64], target_arity: usize) -> Self {
        assert!(prefix.len() <= target_arity && target_arity <= MAX_KEY_COLS);
        Self::padded(prefix, target_arity, i64::MIN)
    }

    /// A `target_arity`-column key that sorts after every real key sharing
    /// the given prefix (remaining columns padded with `i64::MAX`).
    #[inline]
    pub fn padded_hi(prefix: &[i64], target_arity: usize) -> Self {
        assert!(prefix.len() <= target_arity && target_arity <= MAX_KEY_COLS);
        Self::padded(prefix, target_arity, i64::MAX)
    }

    /// The key's first `A` columns: what a tree of arity `A` stores of it.
    #[inline]
    fn stored<const A: usize>(&self) -> [i64; A] {
        std::array::from_fn(|i| self.vals[i])
    }

    /// The `A`-column key a tree stores as `cols`, zeros past its arity as
    /// [`Key::new`] leaves them.
    #[inline]
    fn of_stored<const A: usize>(cols: &[i64; A]) -> Self {
        Key { vals: widen(cols), len: A as u8 }
    }
}

impl std::fmt::Debug for Key {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.values().iter()).finish()
    }
}

/// An index entry: `(key, rid)`, the unit the tree orders by.
pub type Entry = (Key, Rid);

/// A key's [`MAX_KEY_COLS`] column slots without its arity, the columns past
/// the arity holding the key's padding.
pub type KeyCols = [i64; MAX_KEY_COLS];

/// An [`Entry`] as a [`Tree<A>`] stores it: the key's `A` columns and the
/// rid, `8 A + 8` bytes — 16, 24 or 32, where an `Entry` takes 40.
pub type StoredEntry<const A: usize> = ([i64; A], Rid);

/// An entry widened to [`MAX_KEY_COLS`] columns, zeros past its arity: a
/// leaf as [`BTree::scan_leaves`] hands it out whatever the tree's arity.
pub type WideEntry = StoredEntry<MAX_KEY_COLS>;

/// `cols` with zeros past them.  Of a constant length, so the copy is a
/// few stores, not a `memcpy` call.
#[inline]
fn widen<const A: usize>(cols: &[i64; A]) -> KeyCols {
    let mut wide = [0; MAX_KEY_COLS];
    wide[..A].copy_from_slice(cols);
    wide
}

/// A bound as a [`Tree<A>`] compares stored keys with it: the bound's
/// first `A` columns, and `tie` — how a key equal to them there orders
/// against the whole bound, by the zeros past its arity against the
/// bound's columns there (`Less` under `i64::MAX` padding, `Greater` under
/// `i64::MIN`, `Equal` for a [`Key::new`] key).  A stored key orders
/// against a bound as the `Key` it stands for does.
#[derive(Clone, Copy)]
struct Bound<const A: usize> {
    cols: [i64; A],
    tie: Ordering,
}

impl<const A: usize> Bound<A> {
    #[inline]
    fn of(key: &Key) -> Self {
        Bound { cols: key.stored(), tie: [0; MAX_KEY_COLS][A..].cmp(&key.vals[A..]) }
    }

    /// How `key` orders against the bound.
    #[inline]
    fn order(&self, key: &[i64; A]) -> Ordering {
        key.cmp(&self.cols).then(self.tie)
    }
}

type NodeId = u32;
const NO_NODE: NodeId = u32::MAX;

#[derive(Debug, Clone)]
enum Node<const A: usize> {
    Internal {
        /// `seps[i]` is the smallest entry reachable under `children[i + 1]`.
        seps: Vec<StoredEntry<A>>,
        children: Vec<NodeId>,
    },
    Leaf {
        entries: Vec<StoredEntry<A>>,
        next: NodeId,
    },
    /// Freed node, threaded on the free list.
    Free { next_free: NodeId },
}

/// Result of a recursive insert: a split produced a new right sibling.
struct Split<const A: usize> {
    sep: StoredEntry<A>,
    right: NodeId,
}

/// A B+-tree index from `A`-column keys to rids.
pub struct Tree<const A: usize> {
    file: FileId,
    nodes: Vec<Node<A>>,
    free_head: NodeId,
    root: NodeId,
    height: u32,
    len: u64,
    leaf_cap: usize,
    internal_cap: usize,
}

/// Default maximum entries per leaf, at every arity: 256 entries are the
/// modelled 8 KiB page — exactly so at three key columns, 32 bytes an
/// entry; a one-column leaf takes 4 KiB of memory and still counts as one
/// page on the clock.
pub const DEFAULT_LEAF_CAP: usize = 256;
/// Default maximum children per internal node.
pub const DEFAULT_INTERNAL_CAP: usize = 256;

/// Binary search within a node: the number of leading `items` that
/// `before` holds for, charging the comparisons a search of the node makes.
#[inline]
fn search<T, S: ChargeSink>(items: &[T], session: &S, before: impl FnMut(&T) -> bool) -> usize {
    let n = items.len().max(1);
    session.charge_compares((usize::BITS - n.leading_zeros()) as u64);
    items.partition_point(before)
}

impl<const A: usize> Tree<A> {
    /// An empty tree with explicit node capacities (small capacities make
    /// rebalancing easy to exercise in tests).
    pub fn with_caps(file: FileId, leaf_cap: usize, internal_cap: usize) -> Self {
        assert!((1..=MAX_KEY_COLS).contains(&A), "bad key arity");
        assert!(leaf_cap >= 2 && internal_cap >= 3, "caps too small to split");
        let mut tree = Tree {
            file,
            nodes: Vec::new(),
            free_head: NO_NODE,
            root: 0,
            height: 1,
            len: 0,
            leaf_cap,
            internal_cap,
        };
        tree.root = tree.alloc(Node::Leaf { entries: Vec::new(), next: NO_NODE });
        tree
    }

    /// Bulk load: make leaf `i` of the tree being loaded hold `entries`,
    /// the tree's arity checked in debug builds.  Leaf `i` is node `i`,
    /// chained after node `i − 1`; node 0 is the empty root leaf
    /// [`Tree::with_caps`] made.
    fn load_leaf(&mut self, i: usize, entries: &[Entry]) {
        let entries: Vec<StoredEntry<A>> = entries
            .iter()
            .map(|(key, rid)| {
                debug_assert_eq!(key.arity(), A, "bulk_load key arity mismatch");
                (key.stored(), *rid)
            })
            .collect();
        debug_assert!(entries.windows(2).all(|w| w[0] < w[1]), "bulk_load input not sorted");
        let leaf = Node::Leaf { entries, next: NO_NODE };
        if i == 0 {
            self.nodes[0] = leaf;
            return;
        }
        if let Node::Leaf { next, entries } = &mut self.nodes[i - 1] {
            debug_assert!(entries.last() < leaf_first(&leaf), "bulk_load input not sorted");
            *next = i as NodeId;
        }
        self.nodes.push(leaf);
    }

    /// Bulk load: build the internal levels bottom-up over the first
    /// `leaves` nodes, which [`Tree::load_leaf`] filled with `len` entries.
    fn load_levels(&mut self, leaves: usize, len: usize, fill: f64) {
        let mut level: Vec<(StoredEntry<A>, NodeId)> = (0..leaves as NodeId)
            .filter_map(|id| leaf_first(&self.nodes[id as usize]).map(|&first| (first, id)))
            .collect();
        let internal_cap = self.internal_cap;
        let per_internal = ((internal_cap as f64 * fill) as usize).clamp(2, internal_cap);
        while level.len() > 1 {
            let mut upper: Vec<(StoredEntry<A>, NodeId)> = Vec::new();
            let sizes = balanced_group_sizes(
                level.len(),
                per_internal,
                internal_cap.div_ceil(2),
            );
            let mut offset = 0;
            for &size in &sizes {
                let group = &level[offset..offset + size];
                offset += size;
                let children: Vec<NodeId> = group.iter().map(|&(_, id)| id).collect();
                let seps: Vec<StoredEntry<A>> = group[1..].iter().map(|&(sep, _)| sep).collect();
                let id = self.alloc(Node::Internal { seps, children });
                upper.push((group[0].0, id));
            }
            level = upper;
            self.height += 1;
        }
        self.root = level[0].1;
        self.len = len as u64;
    }

    /// Number of entries.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the tree has no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tree height (1 = root is a leaf).
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Number of key columns: `A`.
    pub fn key_arity(&self) -> usize {
        A
    }

    /// Number of allocated nodes (≈ pages), including internal nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.iter().filter(|n| !matches!(n, Node::Free { .. })).count()
    }

    /// The file id used for this tree's pages.
    pub fn file_id(&self) -> FileId {
        self.file
    }

    fn alloc(&mut self, node: Node<A>) -> NodeId {
        if self.free_head != NO_NODE {
            let id = self.free_head;
            match self.nodes[id as usize] {
                Node::Free { next_free } => self.free_head = next_free,
                _ => unreachable!("free list corrupt"),
            }
            self.nodes[id as usize] = node;
            id
        } else {
            self.nodes.push(node);
            (self.nodes.len() - 1) as NodeId
        }
    }

    fn release(&mut self, id: NodeId) {
        self.nodes[id as usize] = Node::Free { next_free: self.free_head };
        self.free_head = id;
    }

    fn page_id(&self, node: NodeId) -> PageId {
        PageId::new(self.file, node)
    }

    #[inline]
    fn touch<S: ChargeSink>(&self, node: NodeId, session: &S, kind: AccessKind) {
        session.read_page(self.page_id(node), kind);
    }

    /// `(key, rid)` as this tree stores it, once the key's arity is checked.
    fn stored_entry(key: &Key, rid: Rid) -> StoredEntry<A> {
        assert_eq!(key.arity(), A, "key arity mismatch");
        (key.stored(), rid)
    }

    /// A stored entry handed out by value: its key gets the tree's arity.
    #[inline]
    fn entry((cols, rid): &StoredEntry<A>) -> Entry {
        (Key::of_stored(cols), *rid)
    }

    /// Insert `(key, rid)`.  Returns `false` if the exact entry was already
    /// present (the tree is a set of `(key, rid)` pairs).
    pub fn insert<S: ChargeSink>(&mut self, key: Key, rid: Rid, session: &S) -> bool {
        let entry = Self::stored_entry(&key, rid);
        let root = self.root;
        match self.insert_rec(root, entry, session) {
            InsertOutcome::Duplicate => false,
            InsertOutcome::Done => {
                self.len += 1;
                true
            }
            InsertOutcome::Split(split) => {
                let new_root = self.alloc(Node::Internal {
                    seps: vec![split.sep],
                    children: vec![self.root, split.right],
                });
                self.root = new_root;
                self.height += 1;
                self.len += 1;
                true
            }
        }
    }

    fn insert_rec<S: ChargeSink>(
        &mut self,
        node: NodeId,
        entry: StoredEntry<A>,
        session: &S,
    ) -> InsertOutcome<A> {
        self.touch(node, session, AccessKind::Random);
        match &mut self.nodes[node as usize] {
            Node::Leaf { entries, next } => {
                let idx = search(entries, session, |e| *e < entry);
                if entries.get(idx) == Some(&entry) {
                    return InsertOutcome::Duplicate;
                }
                entries.insert(idx, entry);
                if entries.len() <= self.leaf_cap {
                    return InsertOutcome::Done;
                }
                // Split the leaf in half.
                let mid = entries.len() / 2;
                let right_entries = entries.split_off(mid);
                let sep = right_entries[0];
                let old_next = *next;
                let right = self.alloc(Node::Leaf { entries: right_entries, next: old_next });
                match &mut self.nodes[node as usize] {
                    Node::Leaf { next, .. } => *next = right,
                    _ => unreachable!(),
                }
                InsertOutcome::Split(Split { sep, right })
            }
            Node::Internal { seps, children } => {
                // An entry equal to `seps[i]` lives under `children[i + 1]`
                // (separators are the smallest entry of their right
                // subtree), so the descent uses `<=`.
                let slot = search(seps, session, |e| *e <= entry);
                let child = children[slot];
                match self.insert_rec(child, entry, session) {
                    InsertOutcome::Split(split) => {
                        match &mut self.nodes[node as usize] {
                            Node::Internal { seps, children } => {
                                seps.insert(slot, split.sep);
                                children.insert(slot + 1, split.right);
                                if children.len() <= self.internal_cap {
                                    return InsertOutcome::Done;
                                }
                                // Split the internal node; middle separator
                                // moves up.
                                let mid = seps.len() / 2;
                                let up_sep = seps[mid];
                                let right_seps = seps.split_off(mid + 1);
                                seps.pop(); // remove up_sep
                                let right_children = children.split_off(mid + 1);
                                let right = self.alloc(Node::Internal {
                                    seps: right_seps,
                                    children: right_children,
                                });
                                InsertOutcome::Split(Split { sep: up_sep, right })
                            }
                            _ => unreachable!(),
                        }
                    }
                    other => other,
                }
            }
            Node::Free { .. } => unreachable!("descended into freed node"),
        }
    }

    /// Delete `(key, rid)`.  Returns `true` if the entry existed.
    pub fn delete<S: ChargeSink>(&mut self, key: Key, rid: Rid, session: &S) -> bool {
        let entry = Self::stored_entry(&key, rid);
        let root = self.root;
        let removed = self.delete_rec(root, &entry, session);
        if removed {
            self.len -= 1;
            // Collapse the root if it became trivial.
            loop {
                match &self.nodes[self.root as usize] {
                    Node::Internal { children, .. } if children.len() == 1 => {
                        let child = children[0];
                        let old_root = self.root;
                        self.root = child;
                        self.release(old_root);
                        self.height -= 1;
                    }
                    _ => break,
                }
            }
        }
        removed
    }

    fn leaf_min_occupancy(&self) -> usize {
        self.leaf_cap / 2
    }

    fn internal_min_children(&self) -> usize {
        self.internal_cap.div_ceil(2)
    }

    fn delete_rec<S: ChargeSink>(
        &mut self,
        node: NodeId,
        entry: &StoredEntry<A>,
        session: &S,
    ) -> bool {
        self.touch(node, session, AccessKind::Random);
        match &mut self.nodes[node as usize] {
            Node::Leaf { entries, .. } => {
                let idx = search(entries, session, |e| e < entry);
                if entries.get(idx) == Some(entry) {
                    entries.remove(idx);
                    true
                } else {
                    false
                }
            }
            Node::Internal { seps, children } => {
                let slot = search(seps, session, |e| e <= entry);
                let child = children[slot];
                let removed = self.delete_rec(child, entry, session);
                if removed {
                    self.fix_underflow(node, slot, session);
                }
                removed
            }
            Node::Free { .. } => unreachable!("descended into freed node"),
        }
    }

    /// After deleting under `parent.children[slot]`, rebalance that child if
    /// it fell below minimum occupancy, by borrowing from or merging with a
    /// sibling.
    fn fix_underflow<S: ChargeSink>(&mut self, parent: NodeId, slot: usize, session: &S) {
        let (child, child_size, child_is_leaf) = {
            let children = match &self.nodes[parent as usize] {
                Node::Internal { children, .. } => children,
                _ => unreachable!(),
            };
            let child = children[slot];
            match &self.nodes[child as usize] {
                Node::Leaf { entries, .. } => (child, entries.len(), true),
                Node::Internal { children: c, .. } => (child, c.len(), false),
                Node::Free { .. } => unreachable!(),
            }
        };
        let min = if child_is_leaf { self.leaf_min_occupancy() } else { self.internal_min_children() };
        if child_size >= min {
            return;
        }
        let sibling_count = match &self.nodes[parent as usize] {
            Node::Internal { children, .. } => children.len(),
            _ => unreachable!(),
        };
        // Prefer the left sibling; fall back to the right.
        let (left_slot, right_slot) = if slot > 0 { (slot - 1, slot) } else { (slot, slot + 1) };
        debug_assert!(right_slot < sibling_count, "internal node with a single child");
        let (left, right) = {
            let children = match &self.nodes[parent as usize] {
                Node::Internal { children, .. } => children,
                _ => unreachable!(),
            };
            (children[left_slot], children[right_slot])
        };
        self.touch(if left == child { right } else { left }, session, AccessKind::Random);

        let sep_idx = left_slot; // separator between left and right
        if child_is_leaf {
            self.rebalance_leaves(parent, sep_idx, left, right);
        } else {
            self.rebalance_internals(parent, sep_idx, left, right);
        }
    }

    fn rebalance_leaves(&mut self, parent: NodeId, sep_idx: usize, left: NodeId, right: NodeId) {
        let (mut left_entries, left_next) = match std::mem::replace(
            &mut self.nodes[left as usize],
            Node::Free { next_free: NO_NODE },
        ) {
            Node::Leaf { entries, next } => (entries, next),
            _ => unreachable!(),
        };
        let (mut right_entries, right_next) = match std::mem::replace(
            &mut self.nodes[right as usize],
            Node::Free { next_free: NO_NODE },
        ) {
            Node::Leaf { entries, next } => (entries, next),
            _ => unreachable!(),
        };
        let min = self.leaf_min_occupancy();
        if left_entries.len() + right_entries.len() <= self.leaf_cap {
            // Merge right into left; drop right.
            left_entries.extend(right_entries);
            self.nodes[left as usize] = Node::Leaf { entries: left_entries, next: right_next };
            self.release(right);
            match &mut self.nodes[parent as usize] {
                Node::Internal { seps, children } => {
                    seps.remove(sep_idx);
                    children.remove(sep_idx + 1);
                }
                _ => unreachable!(),
            }
        } else {
            // Redistribute evenly; both sides end up >= min.
            let total = left_entries.len() + right_entries.len();
            let target_left = total / 2;
            if left_entries.len() > target_left {
                let moved: Vec<StoredEntry<A>> = left_entries.split_off(target_left);
                let mut merged = moved;
                merged.extend(right_entries);
                right_entries = merged;
            } else {
                let need = target_left - left_entries.len();
                left_entries.extend(right_entries.drain(..need));
            }
            debug_assert!(left_entries.len() >= min && right_entries.len() >= min);
            let new_sep = right_entries[0];
            self.nodes[left as usize] = Node::Leaf { entries: left_entries, next: left_next };
            self.nodes[right as usize] = Node::Leaf { entries: right_entries, next: right_next };
            match &mut self.nodes[parent as usize] {
                Node::Internal { seps, .. } => seps[sep_idx] = new_sep,
                _ => unreachable!(),
            }
        }
    }

    fn rebalance_internals(&mut self, parent: NodeId, sep_idx: usize, left: NodeId, right: NodeId) {
        let parent_sep = match &self.nodes[parent as usize] {
            Node::Internal { seps, .. } => seps[sep_idx],
            _ => unreachable!(),
        };
        let (mut lseps, mut lchildren) = match std::mem::replace(
            &mut self.nodes[left as usize],
            Node::Free { next_free: NO_NODE },
        ) {
            Node::Internal { seps, children } => (seps, children),
            _ => unreachable!(),
        };
        let (mut rseps, mut rchildren) = match std::mem::replace(
            &mut self.nodes[right as usize],
            Node::Free { next_free: NO_NODE },
        ) {
            Node::Internal { seps, children } => (seps, children),
            _ => unreachable!(),
        };
        if lchildren.len() + rchildren.len() <= self.internal_cap {
            // Merge: left ++ parent_sep ++ right.
            lseps.push(parent_sep);
            lseps.extend(rseps);
            lchildren.extend(rchildren);
            self.nodes[left as usize] = Node::Internal { seps: lseps, children: lchildren };
            self.release(right);
            match &mut self.nodes[parent as usize] {
                Node::Internal { seps, children } => {
                    seps.remove(sep_idx);
                    children.remove(sep_idx + 1);
                }
                _ => unreachable!(),
            }
        } else {
            // Rotate through the parent separator until balanced.
            let total = lchildren.len() + rchildren.len();
            let target_left = total / 2;
            let mut sep = parent_sep;
            while lchildren.len() < target_left {
                // Borrow from right: sep moves down-left, right's first sep up.
                lseps.push(sep);
                lchildren.push(rchildren.remove(0));
                sep = rseps.remove(0);
            }
            while lchildren.len() > target_left {
                // Borrow from left: sep moves down-right, left's last sep up.
                rseps.insert(0, sep);
                rchildren.insert(0, lchildren.pop().expect("nonempty"));
                sep = lseps.pop().expect("nonempty");
            }
            self.nodes[left as usize] = Node::Internal { seps: lseps, children: lchildren };
            self.nodes[right as usize] = Node::Internal { seps: rseps, children: rchildren };
            match &mut self.nodes[parent as usize] {
                Node::Internal { seps, .. } => seps[sep_idx] = sep,
                _ => unreachable!(),
            }
        }
    }

    /// Point lookup: rid of the first entry whose key equals `key`.
    pub fn get_first(&self, key: &Key, session: &Session) -> Option<Rid> {
        let mut cursor = self.seek(key, session);
        match self.cursor_next(&mut cursor, session, AccessKind::SinglePage) {
            Some((k, rid)) if k == *key => Some(rid),
            _ => None,
        }
    }

    /// Position a cursor at the first entry with `(key, rid) >= (lo,
    /// Rid(0,0))`, charging the root-to-leaf descent.
    pub fn seek(&self, lo: &Key, session: &Session) -> Cursor<'_, A> {
        assert_eq!(lo.arity(), A, "key arity mismatch");
        let (lo, first) = (Bound::<A>::of(lo), Rid::new(0, 0));
        // How an entry orders against the target `(lo, first)`.
        let order = |(key, rid): &StoredEntry<A>| lo.order(key).then(rid.cmp(&first));
        let mut node = self.root;
        loop {
            self.touch(node, session, AccessKind::Random);
            match &self.nodes[node as usize] {
                Node::Internal { seps, children } => {
                    node = children[search(seps, session, |e| order(e).is_le())];
                }
                Node::Leaf { entries, next } => {
                    let idx = search(entries, session, |e| order(e).is_lt());
                    return Cursor { rest: &entries[idx..], next: *next };
                }
                Node::Free { .. } => unreachable!("descended into freed node"),
            }
        }
    }

    /// A cursor at the leftmost entry (full index scan).
    pub fn seek_first(&self, session: &Session) -> Cursor<'_, A> {
        self.seek(&Key::padded_lo(&[], A), session)
    }

    /// The cursor at the start of the leaf after `cursor`'s, charging one
    /// page access of `leaf_access` — the only cursor step that touches a
    /// page.  `None`, and nothing charged, when the chain has ended.  The
    /// cursor goes in and comes out by value: a walk that never lends its
    /// cursor's address keeps it, and every saved copy of it, in registers.
    #[inline]
    pub fn next_leaf<'t>(
        &'t self,
        cursor: Cursor<'t, A>,
        session: &Session,
        leaf_access: AccessKind,
    ) -> Option<Cursor<'t, A>> {
        if cursor.next == NO_NODE {
            return None;
        }
        self.touch(cursor.next, session, leaf_access);
        let Node::Leaf { entries, next } = &self.nodes[cursor.next as usize] else {
            unreachable!("leaf chain hits a non-leaf")
        };
        Some(Cursor { rest: entries, next: *next })
    }

    /// Advance `cursor`, returning the entry it was on, or `None` at the
    /// end.  Moving to the next leaf charges one page access of
    /// `leaf_access` (leaves are laid out consecutively by bulk load, so
    /// `Sequential` models a scan with read-ahead and `SinglePage` one
    /// without).  The reference loop over [`Cursor::peek`] and
    /// [`Tree::next_leaf`]: one row charged per entry.
    pub fn cursor_next<'t>(
        &'t self,
        cursor: &mut Cursor<'t, A>,
        session: &Session,
        leaf_access: AccessKind,
    ) -> Option<Entry> {
        loop {
            if let Some(entry) = cursor.peek() {
                cursor.advance(1);
                session.charge_rows(1);
                return Some(Self::entry(entry));
            }
            *cursor = self.next_leaf(*cursor, session, leaf_access)?;
        }
    }

    /// Scan all entries with keys in `[lo, hi]` (inclusive, in `(key, rid)`
    /// order), calling `f` for each.  Returns the number of entries visited.
    /// [`Tree::scan_leaves`], entry by entry.
    pub fn scan_range<F: FnMut(Entry)>(
        &self,
        lo: &Key,
        hi: &Key,
        session: &Session,
        leaf_access: AccessKind,
        mut f: F,
    ) -> u64 {
        self.scan_leaves(lo, hi, session, leaf_access, |leaf| {
            leaf.iter().for_each(|entry| f(Self::entry(entry)))
        })
    }

    /// Scan all entries with keys in `[lo, hi]`, leaf by leaf: `f` receives
    /// each leaf's in-range entries as one slice of the stored entries.
    /// Returns the number of entries visited.
    ///
    /// Charges what a [`Tree::seek`] + [`Tree::cursor_next`] loop that
    /// stops at the first key above `hi` would — one row per entry looked
    /// at, that first key included, and one `leaf_access` page per leaf
    /// moved onto — but per leaf, in one call ahead of `f`: whether a leaf
    /// lies wholly inside the range is one look at its last key, and only
    /// the leaf the range ends in is searched for the end.  `lo` is checked
    /// against the tree's arity by the seek; `hi` may have any arity, and
    /// a stored key orders against it as the `Key` it stands for would.
    pub fn scan_leaves<F: FnMut(&[StoredEntry<A>])>(
        &self,
        lo: &Key,
        hi: &Key,
        session: &Session,
        leaf_access: AccessKind,
        mut f: F,
    ) -> u64 {
        let mut cursor = self.seek(lo, session);
        let hi = Bound::<A>::of(hi);
        let above = |(key, _): &StoredEntry<A>| hi.order(key).is_gt();
        let mut n = 0;
        loop {
            let rest = cursor.rest();
            let ends_here = rest.last().is_some_and(above);
            let inside =
                if ends_here { &rest[..rest.partition_point(|e| !above(e))] } else { rest };
            // The entry that ended the scan was looked at too.
            let looked_at = inside.len() as u64 + u64::from(ends_here);
            session.charge_rows_as(looked_at, looked_at);
            f(inside);
            n += inside.len() as u64;
            if ends_here {
                return n;
            }
            match self.next_leaf(cursor, session, leaf_access) {
                Some(next) => cursor = next,
                None => return n,
            }
        }
    }

    /// Collect every entry in order without charging any session (test and
    /// load-path helper).
    pub fn collect_all(&self) -> Vec<Entry> {
        let session = Session::with_pool_pages(0);
        let mut out = Vec::with_capacity(self.len as usize);
        let mut cursor = self.seek_first(&session);
        while let Some(e) = self.cursor_next(&mut cursor, &session, AccessKind::Sequential) {
            out.push(e);
        }
        out
    }

    /// Validate structural invariants; returns a description of the first
    /// violation.  Used by tests and property tests.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut leaf_depths = Vec::new();
        let mut leaves_in_order = Vec::new();
        self.check_node(
            self.root,
            1,
            None,
            None,
            &mut leaf_depths,
            &mut leaves_in_order,
        )?;
        if let Some(&d) = leaf_depths.first() {
            if leaf_depths.iter().any(|&x| x != d) {
                return Err("leaves at differing depths".into());
            }
            if d != self.height {
                return Err(format!("height {} but leaf depth {}", self.height, d));
            }
        }
        // Leaf chain must enumerate the same leaves in the same order.
        let mut chain = Vec::new();
        let mut node = {
            // leftmost leaf
            let mut n = self.root;
            loop {
                match &self.nodes[n as usize] {
                    Node::Internal { children, .. } => n = children[0],
                    Node::Leaf { .. } => break n,
                    Node::Free { .. } => return Err("free node reachable".into()),
                }
            }
        };
        while node != NO_NODE {
            chain.push(node);
            node = match &self.nodes[node as usize] {
                Node::Leaf { next, .. } => *next,
                _ => return Err("leaf chain hits non-leaf".into()),
            };
        }
        if chain != leaves_in_order {
            return Err("leaf chain disagrees with tree order".into());
        }
        // Entry count.
        let total: usize = chain
            .iter()
            .map(|&l| match &self.nodes[l as usize] {
                Node::Leaf { entries, .. } => entries.len(),
                _ => 0,
            })
            .sum();
        if total as u64 != self.len {
            return Err(format!("len {} but {} entries found", self.len, total));
        }
        Ok(())
    }

    fn check_node(
        &self,
        node: NodeId,
        depth: u32,
        lo: Option<&StoredEntry<A>>,
        hi: Option<&StoredEntry<A>>,
        leaf_depths: &mut Vec<u32>,
        leaves: &mut Vec<NodeId>,
    ) -> Result<(), String> {
        match &self.nodes[node as usize] {
            Node::Leaf { entries, .. } => {
                leaf_depths.push(depth);
                leaves.push(node);
                if entries.len() > self.leaf_cap {
                    return Err(format!("leaf {node} over capacity"));
                }
                if node != self.root && entries.len() < self.leaf_min_occupancy() {
                    return Err(format!("leaf {node} under occupancy"));
                }
                if !entries.windows(2).all(|w| w[0] < w[1]) {
                    return Err(format!("leaf {node} not sorted"));
                }
                if let (Some(lo), Some(first)) = (lo, entries.first()) {
                    if first < lo {
                        return Err(format!("leaf {node} violates lower bound"));
                    }
                }
                if let (Some(hi), Some(last)) = (hi, entries.last()) {
                    if last >= hi {
                        return Err(format!("leaf {node} violates upper bound"));
                    }
                }
                Ok(())
            }
            Node::Internal { seps, children } => {
                if children.len() != seps.len() + 1 {
                    return Err(format!("internal {node} child/sep mismatch"));
                }
                if children.len() > self.internal_cap {
                    return Err(format!("internal {node} over capacity"));
                }
                if node != self.root && children.len() < self.internal_min_children() {
                    return Err(format!("internal {node} under occupancy"));
                }
                if node == self.root && children.len() < 2 {
                    return Err("internal root with < 2 children".into());
                }
                if !seps.windows(2).all(|w| w[0] < w[1]) {
                    return Err(format!("internal {node} separators not sorted"));
                }
                for (i, &child) in children.iter().enumerate() {
                    let child_lo = if i == 0 { lo } else { Some(&seps[i - 1]) };
                    let child_hi = if i == seps.len() { hi } else { Some(&seps[i]) };
                    self.check_node(child, depth + 1, child_lo, child_hi, leaf_depths, leaves)?;
                }
                Ok(())
            }
            Node::Free { .. } => Err(format!("free node {node} reachable")),
        }
    }
}

enum InsertOutcome<const A: usize> {
    Done,
    Duplicate,
    Split(Split<A>),
}

/// The first entry of a leaf; `None` for an empty leaf or another node.
fn leaf_first<const A: usize>(node: &Node<A>) -> Option<&StoredEntry<A>> {
    match node {
        Node::Leaf { entries, .. } => entries.first(),
        _ => None,
    }
}

/// Split `len` items into groups near `preferred` in size, shrinking the
/// group count if needed so every group reaches `min_size` (a single group
/// is exempt: it becomes the root).  Sizes differ by at most one, so the
/// maximum never exceeds the node capacity that `preferred` derives from.
fn balanced_group_sizes(len: usize, preferred: usize, min_size: usize) -> Vec<usize> {
    debug_assert!(len > 0 && preferred > 0);
    let mut groups = len.div_ceil(preferred).max(1);
    while groups > 1 && len / groups < min_size {
        groups -= 1;
    }
    let base = len / groups;
    let extra = len % groups;
    (0..groups).map(|i| base + usize::from(i < extra)).collect()
}

/// A position in the leaf chain that borrows its leaf: what is left of the
/// leaf from the position on, and the id of the leaf after it.  `Copy`, so
/// saving a position is a register copy, and reading it touches neither the
/// node table nor a page — [`Tree::next_leaf`] is the only step that does.
/// The borrow keeps the tree unwritten for as long as a cursor is alive.
#[derive(Debug, Clone, Copy)]
pub struct Cursor<'t, const A: usize> {
    rest: &'t [StoredEntry<A>],
    next: NodeId,
}

impl<'t, const A: usize> Cursor<'t, A> {
    /// The entry the cursor is on; `None` at the end of its leaf.
    #[inline]
    pub fn peek(&self) -> Option<&'t StoredEntry<A>> {
        self.rest.first()
    }

    /// The cursor's leaf from its position to the leaf's end.
    #[inline]
    pub fn rest(&self) -> &'t [StoredEntry<A>] {
        self.rest
    }

    /// Step over `n` entries of the leaf.
    ///
    /// # Panics
    /// Panics if fewer than `n` are left.
    #[inline]
    pub fn advance(&mut self, n: usize) {
        self.rest = &self.rest[n..];
    }
}

/// `$body` with `$t` bound to the [`Tree`] behind a [`BTree`] (or a
/// reference to one) — compiled once per arity, chosen once per use: the
/// one dispatch from a tree of any arity to a loop written for one.
///
/// ```
/// # use robustmap_storage::{with_tree, AccessKind, BTree, FileId, Key, Session};
/// let tree = BTree::new(FileId(0), 2);
/// let (lo, hi) = (Key::padded_lo(&[], 2), Key::padded_hi(&[], 2));
/// let s = Session::with_pool_pages(0);
/// let mut sum = 0;
/// with_tree!(&tree, |t| {
///     t.scan_leaves(&lo, &hi, &s, AccessKind::Sequential, |leaf| {
///         sum += leaf.iter().map(|(key, _)| key[0]).sum::<i64>()
///     })
/// });
/// assert_eq!(sum, 0);
/// ```
#[macro_export]
macro_rules! with_tree {
    ($tree:expr, |$t:ident| $body:expr) => {
        match $tree {
            $crate::btree::BTree::One($t) => $body,
            $crate::btree::BTree::Two($t) => $body,
            $crate::btree::BTree::Three($t) => $body,
        }
    };
}

/// A B+-tree index from composite keys to rids, of any key arity: the
/// [`Tree`] of its arity.  Each method dispatches once, to the tree's.
pub enum BTree {
    /// One-column keys, 16-byte entries.
    One(Tree<1>),
    /// Two-column keys, 24-byte entries.
    Two(Tree<2>),
    /// Three-column keys, 32-byte entries.
    Three(Tree<3>),
}

/// A [`Cursor`] of a [`BTree`] of any arity, with its tree: what
/// [`BTree::seek`] hands out for the entry-at-a-time [`BTree::cursor_next`].
/// That loop is the `Key`-level reference the model test, the pinned tree
/// charges and the MDAM oracle read a tree through; scans dispatch once
/// with [`with_tree!`](crate::with_tree) instead.
#[derive(Debug, Clone, Copy)]
pub enum AnyCursor<'t> {
    /// On a one-column tree.
    One(&'t Tree<1>, Cursor<'t, 1>),
    /// On a two-column tree.
    Two(&'t Tree<2>, Cursor<'t, 2>),
    /// On a three-column tree.
    Three(&'t Tree<3>, Cursor<'t, 3>),
}

impl BTree {
    /// An empty tree for `key_arity`-column keys.
    pub fn new(file: FileId, key_arity: usize) -> Self {
        Self::with_caps(file, key_arity, DEFAULT_LEAF_CAP, DEFAULT_INTERNAL_CAP)
    }

    /// An empty tree with explicit node capacities (small capacities make
    /// rebalancing easy to exercise in tests).
    pub fn with_caps(file: FileId, key_arity: usize, leaf_cap: usize, internal_cap: usize) -> Self {
        assert!((1..=MAX_KEY_COLS).contains(&key_arity), "bad key arity");
        match key_arity {
            1 => BTree::One(Tree::with_caps(file, leaf_cap, internal_cap)),
            2 => BTree::Two(Tree::with_caps(file, leaf_cap, internal_cap)),
            _ => BTree::Three(Tree::with_caps(file, leaf_cap, internal_cap)),
        }
    }

    /// Bulk-load a tree from entries that must come sorted by `(key, rid)`.
    ///
    /// Leaves are packed to `fill` (e.g. 0.9) and allocated consecutively,
    /// so a full leaf scan reads sequential page ids — matching a freshly
    /// built index on disk.  Each leaf is collected straight from the
    /// iterator: no list of all entries is needed beside the tree.
    ///
    /// # Panics
    /// Panics if `fill` is not in `(0, 1]`, or if the iterator yields fewer
    /// entries than its length; with debug assertions, if entries are not
    /// sorted or a key's arity is not `key_arity`.
    pub fn bulk_load(
        file: FileId,
        key_arity: usize,
        entries: impl ExactSizeIterator<Item = Entry>,
        fill: f64,
    ) -> Self {
        Self::bulk_load_with_caps(
            file,
            key_arity,
            entries,
            fill,
            DEFAULT_LEAF_CAP,
            DEFAULT_INTERNAL_CAP,
        )
    }

    /// [`BTree::bulk_load`] with explicit node capacities.
    ///
    /// A leaf's entries pass through one buffer of [`Entry`]s before the
    /// tree of their arity stores them: the iterator is then read in one
    /// place whatever the arity, and inlines there — read from a loop per
    /// arity, a workload's entry closure stayed a call per entry, and the
    /// five bulk loads of a 2^18-row build took 15 % longer.
    pub fn bulk_load_with_caps(
        file: FileId,
        key_arity: usize,
        mut entries: impl ExactSizeIterator<Item = Entry>,
        fill: f64,
        leaf_cap: usize,
        internal_cap: usize,
    ) -> Self {
        assert!(fill > 0.0 && fill <= 1.0, "fill factor out of range");
        let mut tree = Self::with_caps(file, key_arity, leaf_cap, internal_cap);
        let len = entries.len();
        if len == 0 {
            return tree;
        }
        let per_leaf = ((leaf_cap as f64 * fill) as usize).clamp(1, leaf_cap);
        // Group sizes are balanced so that no leaf (except a lone root)
        // falls below minimum occupancy — a naive "fill then spill" would
        // leave a tiny last leaf.
        let sizes = balanced_group_sizes(len, per_leaf, leaf_cap / 2);
        let mut leaf: Vec<Entry> = Vec::with_capacity(leaf_cap);
        for (i, &size) in sizes.iter().enumerate() {
            leaf.clear();
            leaf.extend(entries.by_ref().take(size));
            assert_eq!(leaf.len(), size, "bulk_load input shorter than its length");
            with_tree!(&mut tree, |t| t.load_leaf(i, &leaf));
        }
        with_tree!(&mut tree, |t| t.load_levels(sizes.len(), len, fill));
        tree
    }

    /// Number of entries.
    pub fn len(&self) -> u64 {
        with_tree!(self, |t| t.len())
    }

    /// Whether the tree has no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Tree height (1 = root is a leaf).
    pub fn height(&self) -> u32 {
        with_tree!(self, |t| t.height())
    }

    /// Number of key columns.
    pub fn key_arity(&self) -> usize {
        with_tree!(self, |t| t.key_arity())
    }

    /// Number of allocated nodes (≈ pages), including internal nodes.
    pub fn node_count(&self) -> usize {
        with_tree!(self, |t| t.node_count())
    }

    /// The file id used for this tree's pages.
    pub fn file_id(&self) -> FileId {
        with_tree!(self, |t| t.file_id())
    }

    /// Insert `(key, rid)` ([`Tree::insert`]).
    pub fn insert<S: ChargeSink>(&mut self, key: Key, rid: Rid, session: &S) -> bool {
        with_tree!(self, |t| t.insert(key, rid, session))
    }

    /// Delete `(key, rid)` ([`Tree::delete`]).
    pub fn delete<S: ChargeSink>(&mut self, key: Key, rid: Rid, session: &S) -> bool {
        with_tree!(self, |t| t.delete(key, rid, session))
    }

    /// Point lookup ([`Tree::get_first`]).
    pub fn get_first(&self, key: &Key, session: &Session) -> Option<Rid> {
        with_tree!(self, |t| t.get_first(key, session))
    }

    /// [`Tree::seek`], the cursor carrying its tree.
    pub fn seek(&self, lo: &Key, session: &Session) -> AnyCursor<'_> {
        match self {
            BTree::One(t) => AnyCursor::One(t, t.seek(lo, session)),
            BTree::Two(t) => AnyCursor::Two(t, t.seek(lo, session)),
            BTree::Three(t) => AnyCursor::Three(t, t.seek(lo, session)),
        }
    }

    /// A cursor at the leftmost entry (full index scan).
    pub fn seek_first(&self, session: &Session) -> AnyCursor<'_> {
        self.seek(&Key::padded_lo(&[], self.key_arity()), session)
    }

    /// [`Tree::cursor_next`] on the cursor's tree, one dispatch an entry:
    /// the reference loop, not a scan's.
    pub fn cursor_next<'t>(
        &'t self,
        cursor: &mut AnyCursor<'t>,
        session: &Session,
        leaf_access: AccessKind,
    ) -> Option<Entry> {
        match cursor {
            AnyCursor::One(t, c) => t.cursor_next(c, session, leaf_access),
            AnyCursor::Two(t, c) => t.cursor_next(c, session, leaf_access),
            AnyCursor::Three(t, c) => t.cursor_next(c, session, leaf_access),
        }
    }

    /// Scan all entries with keys in `[lo, hi]` ([`Tree::scan_range`]).
    pub fn scan_range<F: FnMut(Entry)>(
        &self,
        lo: &Key,
        hi: &Key,
        session: &Session,
        leaf_access: AccessKind,
        f: F,
    ) -> u64 {
        with_tree!(self, |t| t.scan_range(lo, hi, session, leaf_access, f))
    }

    /// [`Tree::scan_leaves`], each leaf's in-range entries copied out
    /// widened to [`WideEntry`]s: one entry type whatever the arity, for a
    /// caller that keeps the entries (the covering rid join).  A loop over
    /// the entries in place is written over [`Tree::scan_leaves`] with
    /// [`with_tree!`](crate::with_tree).
    pub fn scan_leaves<F: FnMut(&[WideEntry])>(
        &self,
        lo: &Key,
        hi: &Key,
        session: &Session,
        leaf_access: AccessKind,
        mut f: F,
    ) -> u64 {
        let mut wide = Vec::new();
        with_tree!(self, |t| {
            t.scan_leaves(lo, hi, session, leaf_access, |leaf| {
                wide.clear();
                wide.extend(leaf.iter().map(|(cols, rid)| (widen(cols), *rid)));
                f(&wide)
            })
        })
    }

    /// Every entry in order, charging nothing ([`Tree::collect_all`]).
    pub fn collect_all(&self) -> Vec<Entry> {
        with_tree!(self, |t| t.collect_all())
    }

    /// Validate structural invariants ([`Tree::check_invariants`]).
    pub fn check_invariants(&self) -> Result<(), String> {
        with_tree!(self, |t| t.check_invariants())
    }
}

impl<const A: usize> std::fmt::Debug for Tree<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BTree")
            .field("len", &self.len)
            .field("height", &self.height)
            .field("nodes", &self.node_count())
            .field("key_arity", &A)
            .finish()
    }
}

impl std::fmt::Debug for BTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        with_tree!(self, |t| t.fmt(f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet() -> Session {
        Session::with_pool_pages(0)
    }

    fn rid(i: u32) -> Rid {
        Rid::new(i / 100, i % 100)
    }

    #[test]
    fn key_padding_orders_prefix_ranges() {
        let lo = Key::padded_lo(&[5], 2);
        let hi = Key::padded_hi(&[5], 2);
        assert!(lo <= Key::pair(5, -100));
        assert!(Key::pair(5, 100) <= hi);
        assert!(hi < Key::padded_lo(&[6], 2));
    }

    /// A range scan of a tree of each arity returns what a filter over its
    /// sorted entries keeps.  Key columns come from the ends of `i64` and
    /// around 0, where real values meet the `i64::MIN` / `i64::MAX` padding
    /// of the bounds and the zeros of a real key's unused columns; bounds
    /// are `padded_lo` and `padded_hi` of prefixes of every length, and the
    /// keys themselves.
    #[test]
    fn scans_match_a_filter_at_every_arity_over_extreme_keys() {
        const VALS: [i64; 7] = [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX];
        // Every tuple of `len` values of VALS.
        let digit = |i: usize, c: usize| VALS[i / VALS.len().pow(c as u32) % VALS.len()];
        let tuples = |len: usize| -> Vec<Vec<i64>> {
            let tuple = |i| (0..len).map(|c| digit(i, c)).collect();
            (0..VALS.len().pow(len as u32)).map(tuple).collect()
        };
        let s = quiet();
        for arity in 1..=MAX_KEY_COLS {
            let keys: Vec<Key> = tuples(arity).iter().map(|vals| Key::new(vals)).collect();
            // Each key twice, under distinct rids.
            let mut entries: Vec<Entry> = (0..2 * keys.len())
                .map(|i| (keys[i % keys.len()], rid((i * 7919 % (2 * keys.len())) as u32)))
                .collect();
            entries.sort();
            let t =
                BTree::bulk_load_with_caps(FileId(0), arity, entries.iter().copied(), 0.75, 4, 4);
            t.check_invariants().unwrap();
            let mut bounds = keys.clone();
            for len in 0..=arity {
                for prefix in tuples(len) {
                    bounds.push(Key::padded_lo(&prefix, arity));
                    bounds.push(Key::padded_hi(&prefix, arity));
                }
            }
            // Every pair at arities 1 and 2, every 61st at 3.
            let stride = if bounds.len() > 400 { 61 } else { 1 };
            let pairs = bounds.iter().flat_map(|lo| bounds.iter().map(move |hi| (lo, hi)));
            for (lo, hi) in pairs.step_by(stride) {
                let want: Vec<Entry> =
                    entries.iter().copied().filter(|(k, _)| lo <= k && k <= hi).collect();
                let mut got = Vec::new();
                let n = t.scan_range(lo, hi, &s, AccessKind::Sequential, |e| got.push(e));
                assert_eq!(got, want, "arity {arity}, [{lo:?}, {hi:?}]");
                assert_eq!(n, want.len() as u64);
            }
        }
    }

    /// A tree stores an entry at its key's width — 16, 24 or 32 bytes at
    /// arity 1, 2 and 3, where an [`Entry`] takes 40 — and a leaf of
    /// [`DEFAULT_LEAF_CAP`] = 256 entries is the modelled page at every
    /// arity: the widest entries fill it exactly, and a tree of four full
    /// leaves has four leaf pages, which a full scan reads, whatever its
    /// arity.
    #[test]
    fn stored_entries_are_as_wide_as_their_keys_and_a_leaf_one_page() {
        use std::mem::size_of;
        let widths = [size_of::<StoredEntry<1>>(), size_of::<StoredEntry<2>>()];
        assert_eq!(widths, [16, 24]);
        assert_eq!(size_of::<StoredEntry<3>>(), 32);
        assert_eq!(size_of::<Entry>(), 40);
        assert_eq!(DEFAULT_LEAF_CAP, 256);
        assert_eq!(DEFAULT_LEAF_CAP * size_of::<WideEntry>(), crate::page::PAGE_SIZE);
        for arity in 1..=MAX_KEY_COLS {
            let n = 4 * DEFAULT_LEAF_CAP as i64;
            let key = |i: i64| Key::new(&[i; MAX_KEY_COLS][..arity]);
            let entries: Vec<Entry> = (0..n).map(|i| (key(i), rid(i as u32))).collect();
            let t = BTree::bulk_load(FileId(0), arity, entries.iter().copied(), 1.0);
            assert_eq!((t.node_count(), t.height()), (5, 2), "arity {arity}");
            let s = quiet();
            let (lo, hi) = (Key::padded_lo(&[], arity), Key::padded_hi(&[], arity));
            assert_eq!(t.scan_range(&lo, &hi, &s, AccessKind::Sequential, |_| {}), n as u64);
            // The root and the first leaf by the descent, three leaves after.
            assert_eq!((s.stats().random_reads, s.stats().seq_reads), (2, 3), "arity {arity}");
        }
    }

    /// Per arity, a fixed script — bulk load, inserts that split, deletes
    /// that merge, point lookups, seeks, range scans entry by entry and
    /// leaf by leaf — on a 64-page session charges exactly the clock ticks,
    /// counters and charge events pinned here, and reads the same entries.
    /// The numbers are the tree's whatever its entries' width: a leaf is
    /// one modelled page at every arity.
    #[test]
    fn tree_charges_are_pinned() {
        use crate::IoStats;
        let stats = |seq_reads, single_reads, random_reads, buffer_hits, cpu_rows, cpu_compares| {
            let reads = IoStats { seq_reads, single_reads, random_reads, ..IoStats::default() };
            IoStats { buffer_hits, cpu_rows, cpu_compares, ..reads }
        };
        // (ticks, stats, charge events, entries read) per arity.
        let want: [(u64, IoStats, u64, u64); MAX_KEY_COLS] = [
            (314_505_075_000, stats(36, 7, 442, 15093, 17456, 116_595), 48266, 17506),
            (314_544_365_000, stats(37, 7, 442, 15086, 17456, 116_593), 48260, 17506),
            (315_744_180_000, stats(37, 5, 444, 15084, 17456, 116_596), 48258, 17383),
        ];
        for arity in 1..=MAX_KEY_COLS {
            let key = |i: i64| {
                let vals = [i / 6, i % 2, (i * 7) % 5];
                Key::new(&vals[..arity])
            };
            let mut entries: Vec<Entry> =
                (0..20_000).map(|i| (key(i), rid(i as u32))).collect();
            entries.sort();
            let s = Session::with_pool_pages(64);
            let mut t = BTree::bulk_load(FileId(7), arity, entries.iter().copied(), 0.9);
            for i in 0..2000 {
                assert!(t.insert(key(i * 7 % 20_000), Rid::new(1000 + i as u32, 0), &s));
            }
            for &(k, r) in entries.iter().step_by(4) {
                assert!(t.delete(k, r, &s));
            }
            t.check_invariants().unwrap();
            let mut read = 0u64;
            for i in (0..20_000).step_by(37) {
                read += u64::from(t.get_first(&key(i), &s).is_some());
            }
            for i in (0..20_000).step_by(301) {
                let mut cursor = t.seek(&key(i), &s);
                for _ in 0..5 {
                    let next = t.cursor_next(&mut cursor, &s, AccessKind::SinglePage);
                    read += u64::from(next.is_some());
                }
            }
            for (a, b) in [(0, 40), (200, 203), (1000, 2500), (3300, 9000)] {
                let (lo, hi) = (Key::padded_lo(&[a], arity), Key::padded_hi(&[b], arity));
                read += t.scan_range(&lo, &hi, &s, AccessKind::Sequential, |_| {});
                let mut leaves = 0;
                read += t.scan_leaves(&lo, &hi, &s, AccessKind::SinglePage, |_| leaves += 1);
                read += leaves;
            }
            let got = (s.elapsed_ticks(), s.stats(), s.charge_events(), read);
            assert_eq!(got, want[arity - 1], "arity {arity}");
        }
    }

    #[test]
    fn empty_tree() {
        let t = BTree::new(FileId(0), 1);
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
        assert!(t.check_invariants().is_ok());
        assert_eq!(t.collect_all(), vec![]);
    }

    #[test]
    fn insert_and_lookup_small() {
        let s = quiet();
        let mut t = BTree::new(FileId(0), 1);
        for i in [5i64, 1, 9, 3, 7] {
            assert!(t.insert(Key::single(i), rid(i as u32), &s));
        }
        assert_eq!(t.len(), 5);
        assert_eq!(t.get_first(&Key::single(7), &s), Some(rid(7)));
        assert_eq!(t.get_first(&Key::single(4), &s), None);
        let keys: Vec<i64> = t.collect_all().iter().map(|(k, _)| k.get(0)).collect();
        assert_eq!(keys, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn duplicate_entry_rejected_but_duplicate_keys_allowed() {
        let s = quiet();
        let mut t = BTree::new(FileId(0), 1);
        assert!(t.insert(Key::single(1), rid(1), &s));
        assert!(!t.insert(Key::single(1), rid(1), &s));
        assert!(t.insert(Key::single(1), rid(2), &s));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn inserts_split_and_stay_valid() {
        let s = quiet();
        let mut t = BTree::with_caps(FileId(0), 1, 4, 4);
        for i in 0..500i64 {
            let key = (i * 7919) % 1000; // scrambled order
            t.insert(Key::single(key), rid(i as u32), &s);
            if i % 50 == 0 {
                t.check_invariants().unwrap();
            }
        }
        t.check_invariants().unwrap();
        assert!(t.height() > 2);
        let all = t.collect_all();
        assert_eq!(all.len(), 500);
        assert!(all.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn delete_with_rebalancing() {
        let s = quiet();
        let mut t = BTree::with_caps(FileId(0), 1, 4, 4);
        for i in 0..200i64 {
            t.insert(Key::single(i), rid(i as u32), &s);
        }
        // Delete everything in a scrambled order, checking invariants.
        for i in 0..200i64 {
            let key = (i * 7919) % 200;
            assert!(t.delete(Key::single(key), rid(key as u32), &s), "missing {key}");
            t.check_invariants().unwrap();
        }
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
    }

    #[test]
    fn delete_missing_returns_false() {
        let s = quiet();
        let mut t = BTree::new(FileId(0), 1);
        t.insert(Key::single(1), rid(1), &s);
        assert!(!t.delete(Key::single(2), rid(2), &s));
        assert!(!t.delete(Key::single(1), rid(99), &s));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn bulk_load_matches_inserts() {
        let s = quiet();
        let entries: Vec<Entry> =
            (0..1000i64).map(|i| (Key::single(i * 2), rid(i as u32))).collect();
        let t = BTree::bulk_load(FileId(0), 1, entries.iter().copied(), 0.9);
        t.check_invariants().unwrap();
        assert_eq!(t.len(), 1000);
        assert_eq!(t.collect_all(), entries);
        assert_eq!(t.get_first(&Key::single(500), &s), Some(rid(250)));
        assert_eq!(t.get_first(&Key::single(501), &s), None);
    }

    #[test]
    fn bulk_load_empty_and_tiny() {
        let t = BTree::bulk_load(FileId(0), 1, std::iter::empty(), 0.9);
        assert!(t.is_empty());
        t.check_invariants().unwrap();
        let one = vec![(Key::single(42), rid(0))];
        let t = BTree::bulk_load(FileId(0), 1, one.iter().copied(), 0.9);
        assert_eq!(t.collect_all(), one);
        t.check_invariants().unwrap();
    }

    #[test]
    fn range_scan_inclusive_bounds() {
        let entries: Vec<Entry> = (0..100i64).map(|i| (Key::single(i), rid(i as u32))).collect();
        let t = BTree::bulk_load_with_caps(FileId(0), 1, entries.iter().copied(), 0.8, 8, 8);
        let s = quiet();
        let mut got = Vec::new();
        let n = t.scan_range(&Key::single(10), &Key::single(20), &s, AccessKind::Sequential, |e| {
            got.push(e.0.get(0))
        });
        assert_eq!(n, 11);
        assert_eq!(got, (10..=20).collect::<Vec<_>>());
    }

    #[test]
    fn range_scan_with_duplicates() {
        let s = quiet();
        let mut t = BTree::with_caps(FileId(0), 1, 4, 4);
        for i in 0..30u32 {
            t.insert(Key::single((i % 3) as i64), rid(i), &s);
        }
        let mut count = 0;
        t.scan_range(&Key::single(1), &Key::single(1), &s, AccessKind::Sequential, |_| count += 1);
        assert_eq!(count, 10);
    }

    #[test]
    fn composite_keys_scan_prefix_range() {
        let mut entries = Vec::new();
        for a in 0..10i64 {
            for b in 0..10i64 {
                entries.push((Key::pair(a, b), rid((a * 10 + b) as u32)));
            }
        }
        let t = BTree::bulk_load_with_caps(FileId(0), 2, entries.iter().copied(), 0.9, 8, 8);
        let s = quiet();
        let lo = Key::padded_lo(&[4], 2);
        let hi = Key::padded_hi(&[4], 2);
        let mut got = Vec::new();
        t.scan_range(&lo, &hi, &s, AccessKind::Sequential, |(k, _)| got.push((k.get(0), k.get(1))));
        assert_eq!(got, (0..10).map(|b| (4, b)).collect::<Vec<_>>());
    }

    #[test]
    fn descent_charges_height_pages_with_cold_pool() {
        let entries: Vec<Entry> =
            (0..10_000i64).map(|i| (Key::single(i), rid(i as u32))).collect();
        let t = BTree::bulk_load_with_caps(FileId(0), 1, entries.iter().copied(), 0.9, 16, 16);
        let s = Session::with_pool_pages(0);
        let before = s.stats();
        let _ = t.seek(&Key::single(5000), &s);
        let delta = s.stats().since(&before);
        assert_eq!(delta.random_reads, t.height() as u64);
    }

    #[test]
    fn warm_pool_caches_upper_levels() {
        let entries: Vec<Entry> =
            (0..10_000i64).map(|i| (Key::single(i), rid(i as u32))).collect();
        let t = BTree::bulk_load_with_caps(FileId(0), 1, entries.iter().copied(), 0.9, 16, 16);
        let s = Session::with_pool_pages(1 << 20);
        let _ = t.seek(&Key::single(5000), &s);
        let before = s.stats();
        let _ = t.seek(&Key::single(5001), &s);
        let delta = s.stats().since(&before);
        // Same root-to-leaf path: all hits the second time.
        assert_eq!(delta.random_reads, 0);
        assert_eq!(delta.buffer_hits as u32, t.height());
    }

    #[test]
    fn leaf_scan_uses_declared_access_kind() {
        let entries: Vec<Entry> = (0..2000i64).map(|i| (Key::single(i), rid(i as u32))).collect();
        let t = BTree::bulk_load_with_caps(FileId(0), 1, entries.iter().copied(), 1.0, 64, 64);
        let s = quiet();
        let before = s.stats();
        t.scan_range(
            &Key::single(0),
            &Key::single(1999),
            &s,
            AccessKind::Sequential,
            |_| {},
        );
        let delta = s.stats().since(&before);
        // Descent is random; the rest of the ~2000/64 leaves are sequential.
        assert!(delta.seq_reads >= 2000 / 64 - 2);
        assert_eq!(delta.random_reads, t.height() as u64);
    }
}
