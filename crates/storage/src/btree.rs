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
//! Every entry of a tree has the tree's arity ([`BTree::key_arity`]), so a
//! node holds 32-byte [`StoredEntry`]s — the key's columns ([`KeyCols`]) and
//! the rid — and keys of one arity order as their columns do.  Bounds,
//! probes, inserts and deletes are `Key`s, checked against the tree's arity;
//! entries handed out by value ([`BTree::scan_range`],
//! [`BTree::cursor_next`], [`BTree::collect_all`]) are `Key`s again.
//!
//! Reads go through one [`Cursor`], which borrows the leaf it is on:
//! [`BTree::seek`] makes one, [`Cursor::peek`] / [`Cursor::rest`] /
//! [`Cursor::advance`] read and step within the leaf for free, and
//! [`BTree::next_leaf`] is the only step that touches a page.
//! [`BTree::scan_leaves`] and the MDAM walk are written over those;
//! [`BTree::cursor_next`] is the entry-at-a-time reference loop.

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

    /// The key's columns without its arity: what a tree stores of it.
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
}

impl std::fmt::Debug for Key {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.values().iter()).finish()
    }
}

/// An index entry: `(key, rid)`, the unit the tree orders by.
pub type Entry = (Key, Rid);

/// A key's [`MAX_KEY_COLS`] column slots without its arity, the columns past
/// the arity holding the key's padding.  Keys of one arity order as their
/// columns do.
pub type KeyCols = [i64; MAX_KEY_COLS];

/// An [`Entry`] as a node stores it: 32 bytes, where an `Entry` takes 40 —
/// its key's one-byte arity pads it by 8.
pub type StoredEntry = (KeyCols, Rid);

type NodeId = u32;
const NO_NODE: NodeId = u32::MAX;

#[derive(Debug, Clone)]
enum Node {
    Internal {
        /// `seps[i]` is the smallest entry reachable under `children[i + 1]`.
        seps: Vec<StoredEntry>,
        children: Vec<NodeId>,
    },
    Leaf {
        entries: Vec<StoredEntry>,
        next: NodeId,
    },
    /// Freed node, threaded on the free list.
    Free { next_free: NodeId },
}

/// Result of a recursive insert: a split produced a new right sibling.
struct Split {
    sep: StoredEntry,
    right: NodeId,
}

/// A B+-tree index from composite keys to rids.
pub struct BTree {
    file: FileId,
    nodes: Vec<Node>,
    free_head: NodeId,
    root: NodeId,
    height: u32,
    len: u64,
    key_arity: usize,
    leaf_cap: usize,
    internal_cap: usize,
}

/// Default maximum entries per leaf: 256 [`StoredEntry`]s of 32 bytes are
/// exactly one 8 KiB page.
pub const DEFAULT_LEAF_CAP: usize = 256;
/// Default maximum children per internal node.
pub const DEFAULT_INTERNAL_CAP: usize = 256;

impl BTree {
    /// An empty tree for `key_arity`-column keys.
    pub fn new(file: FileId, key_arity: usize) -> Self {
        Self::with_caps(file, key_arity, DEFAULT_LEAF_CAP, DEFAULT_INTERNAL_CAP)
    }

    /// An empty tree with explicit node capacities (small capacities make
    /// rebalancing easy to exercise in tests).
    pub fn with_caps(file: FileId, key_arity: usize, leaf_cap: usize, internal_cap: usize) -> Self {
        assert!((1..=MAX_KEY_COLS).contains(&key_arity));
        assert!(leaf_cap >= 2 && internal_cap >= 3, "caps too small to split");
        let mut tree = BTree {
            file,
            nodes: Vec::new(),
            free_head: NO_NODE,
            root: 0,
            height: 1,
            len: 0,
            key_arity,
            leaf_cap,
            internal_cap,
        };
        tree.root = tree.alloc(Node::Leaf { entries: Vec::new(), next: NO_NODE });
        tree
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
        Self::bulk_load_with_caps(file, key_arity, entries, fill, DEFAULT_LEAF_CAP, DEFAULT_INTERNAL_CAP)
    }

    /// [`BTree::bulk_load`] with explicit node capacities.
    pub fn bulk_load_with_caps(
        file: FileId,
        key_arity: usize,
        mut entries: impl ExactSizeIterator<Item = Entry>,
        fill: f64,
        leaf_cap: usize,
        internal_cap: usize,
    ) -> Self {
        assert!(fill > 0.0 && fill <= 1.0, "fill factor out of range");
        let mut tree = BTree::with_caps(file, key_arity, leaf_cap, internal_cap);
        let len = entries.len();
        if len == 0 {
            return tree;
        }
        tree.nodes.clear();
        tree.free_head = NO_NODE;

        let per_leaf = ((leaf_cap as f64 * fill) as usize).clamp(1, leaf_cap);
        // Build leaves, consecutively numbered from 0.  Group sizes are
        // balanced so that no leaf (except a lone root) falls below minimum
        // occupancy — a naive "fill then spill" would leave a tiny last leaf.
        let mut level: Vec<(StoredEntry, NodeId)> = Vec::new();
        let sizes = balanced_group_sizes(len, per_leaf, leaf_cap / 2);
        let mut last: Option<StoredEntry> = None;
        for (i, &size) in sizes.iter().enumerate() {
            let chunk: Vec<StoredEntry> = entries
                .by_ref()
                .take(size)
                .map(|(key, rid)| {
                    debug_assert_eq!(key.arity(), key_arity, "bulk_load key arity mismatch");
                    (key.vals, rid)
                })
                .collect();
            assert_eq!(chunk.len(), size, "bulk_load input shorter than its length");
            debug_assert!(
                last.is_none_or(|l| l < chunk[0]) && chunk.windows(2).all(|w| w[0] < w[1]),
                "bulk_load input not sorted"
            );
            last = chunk.last().copied();
            let id = tree.nodes.len() as NodeId;
            let next = if i + 1 < sizes.len() { id + 1 } else { NO_NODE };
            level.push((chunk[0], id));
            tree.nodes.push(Node::Leaf { entries: chunk, next });
        }
        tree.height = 1;
        // Build internal levels bottom-up.
        let per_internal = ((internal_cap as f64 * fill) as usize).clamp(2, internal_cap);
        while level.len() > 1 {
            let mut upper: Vec<(StoredEntry, NodeId)> = Vec::new();
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
                let seps: Vec<StoredEntry> = group[1..].iter().map(|&(sep, _)| sep).collect();
                let id = tree.alloc(Node::Internal { seps, children });
                upper.push((group[0].0, id));
            }
            level = upper;
            tree.height += 1;
        }
        tree.root = level[0].1;
        tree.len = len as u64;
        tree
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

    /// Number of key columns.
    pub fn key_arity(&self) -> usize {
        self.key_arity
    }

    /// Number of allocated nodes (≈ pages), including internal nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.iter().filter(|n| !matches!(n, Node::Free { .. })).count()
    }

    /// The file id used for this tree's pages.
    pub fn file_id(&self) -> FileId {
        self.file
    }

    fn alloc(&mut self, node: Node) -> NodeId {
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

    /// `key` as this tree stores it: its columns, once its arity is checked.
    fn stored_key(&self, key: &Key) -> KeyCols {
        assert_eq!(key.arity(), self.key_arity, "key arity mismatch");
        key.vals
    }

    /// A stored entry handed out by value: its key gets the tree's arity.
    #[inline]
    fn entry(&self, (vals, rid): StoredEntry) -> Entry {
        (Key { vals, len: self.key_arity as u8 }, rid)
    }

    /// Binary search within a leaf: index of the first entry `>= target`.
    /// Charges comparisons to the session.
    fn search_entries<S: ChargeSink>(
        entries: &[StoredEntry],
        target: &StoredEntry,
        session: &S,
    ) -> usize {
        let n = entries.len().max(1);
        session.charge_compares((usize::BITS - n.leading_zeros()) as u64);
        entries.partition_point(|e| e < target)
    }

    /// Binary search within an internal node: the child slot to descend
    /// into.  An entry equal to `seps[i]` lives under `children[i + 1]`
    /// (separators are the smallest entry of their right subtree), so the
    /// descent uses `<=`.
    fn search_children<S: ChargeSink>(
        seps: &[StoredEntry],
        target: &StoredEntry,
        session: &S,
    ) -> usize {
        let n = seps.len().max(1);
        session.charge_compares((usize::BITS - n.leading_zeros()) as u64);
        seps.partition_point(|e| e <= target)
    }

    /// Insert `(key, rid)`.  Returns `false` if the exact entry was already
    /// present (the tree is a set of `(key, rid)` pairs).
    pub fn insert<S: ChargeSink>(&mut self, key: Key, rid: Rid, session: &S) -> bool {
        let entry = (self.stored_key(&key), rid);
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
        entry: StoredEntry,
        session: &S,
    ) -> InsertOutcome {
        self.touch(node, session, AccessKind::Random);
        match &mut self.nodes[node as usize] {
            Node::Leaf { entries, next } => {
                let idx = Self::search_entries(entries, &entry, session);
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
                let slot = Self::search_children(seps, &entry, session);
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
        let entry = (self.stored_key(&key), rid);
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
        entry: &StoredEntry,
        session: &S,
    ) -> bool {
        self.touch(node, session, AccessKind::Random);
        match &mut self.nodes[node as usize] {
            Node::Leaf { entries, .. } => {
                let idx = Self::search_entries(entries, entry, session);
                if entries.get(idx) == Some(entry) {
                    entries.remove(idx);
                    true
                } else {
                    false
                }
            }
            Node::Internal { seps, children } => {
                let slot = Self::search_children(seps, entry, session);
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
                let moved: Vec<StoredEntry> = left_entries.split_off(target_left);
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
    pub fn seek(&self, lo: &Key, session: &Session) -> Cursor<'_> {
        let target = (self.stored_key(lo), Rid::new(0, 0));
        let mut node = self.root;
        loop {
            self.touch(node, session, AccessKind::Random);
            match &self.nodes[node as usize] {
                Node::Internal { seps, children } => {
                    let slot = Self::search_children(seps, &target, session);
                    node = children[slot];
                }
                Node::Leaf { entries, next } => {
                    let idx = Self::search_entries(entries, &target, session);
                    return Cursor { rest: &entries[idx..], next: *next };
                }
                Node::Free { .. } => unreachable!("descended into freed node"),
            }
        }
    }

    /// A cursor at the leftmost entry (full index scan).
    pub fn seek_first(&self, session: &Session) -> Cursor<'_> {
        let lo = Key::padded_lo(&[], self.key_arity);
        self.seek(&lo, session)
    }

    /// The cursor at the start of the leaf after `cursor`'s, charging one
    /// page access of `leaf_access` — the only cursor step that touches a
    /// page.  `None`, and nothing charged, when the chain has ended.  The
    /// cursor goes in and comes out by value: a walk that never lends its
    /// cursor's address keeps it, and every saved copy of it, in registers.
    #[inline]
    pub fn next_leaf<'t>(
        &'t self,
        cursor: Cursor<'t>,
        session: &Session,
        leaf_access: AccessKind,
    ) -> Option<Cursor<'t>> {
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
    /// [`BTree::next_leaf`]: one row charged per entry.
    pub fn cursor_next<'t>(
        &'t self,
        cursor: &mut Cursor<'t>,
        session: &Session,
        leaf_access: AccessKind,
    ) -> Option<Entry> {
        loop {
            if let Some(&entry) = cursor.peek() {
                cursor.advance(1);
                session.charge_rows(1);
                return Some(self.entry(entry));
            }
            *cursor = self.next_leaf(*cursor, session, leaf_access)?;
        }
    }

    /// Scan all entries with keys in `[lo, hi]` (inclusive, in `(key, rid)`
    /// order), calling `f` for each.  Returns the number of entries visited.
    /// [`BTree::scan_leaves`], entry by entry.
    pub fn scan_range<F: FnMut(Entry)>(
        &self,
        lo: &Key,
        hi: &Key,
        session: &Session,
        leaf_access: AccessKind,
        mut f: F,
    ) -> u64 {
        self.scan_leaves(lo, hi, session, leaf_access, |leaf| {
            leaf.iter().for_each(|&entry| f(self.entry(entry)))
        })
    }

    /// Scan all entries with keys in `[lo, hi]`, leaf by leaf: `f` receives
    /// each leaf's in-range entries as one slice of the stored entries,
    /// whose keys have the tree's arity.  Returns the number of entries
    /// visited.
    ///
    /// Charges what a [`BTree::seek`] + [`BTree::cursor_next`] loop that
    /// stops at the first key above `hi` would — one row per entry looked
    /// at, that first key included, and one `leaf_access` page per leaf
    /// moved onto — but per leaf, in one call ahead of `f`: whether a leaf
    /// lies wholly inside the range is one look at its last key, and only
    /// the leaf the range ends in is searched for the end.  `lo` is checked
    /// against the tree's arity by the seek; `hi` is compared by its
    /// columns ([`Key::cols`]).
    pub fn scan_leaves<F: FnMut(&[StoredEntry])>(
        &self,
        lo: &Key,
        hi: &Key,
        session: &Session,
        leaf_access: AccessKind,
        mut f: F,
    ) -> u64 {
        let mut cursor = self.seek(lo, session);
        let hi = hi.cols();
        let mut n = 0;
        loop {
            let rest = cursor.rest();
            let ends_here = rest.last().is_some_and(|(key, _)| key > hi);
            let inside =
                if ends_here { &rest[..rest.partition_point(|(key, _)| key <= hi)] } else { rest };
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
        lo: Option<&StoredEntry>,
        hi: Option<&StoredEntry>,
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

enum InsertOutcome {
    Done,
    Duplicate,
    Split(Split),
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
/// node table nor a page — [`BTree::next_leaf`] is the only step that does.
/// The borrow keeps the tree unwritten for as long as a cursor is alive.
#[derive(Debug, Clone, Copy)]
pub struct Cursor<'t> {
    rest: &'t [StoredEntry],
    next: NodeId,
}

impl<'t> Cursor<'t> {
    /// The entry the cursor is on; `None` at the end of its leaf.
    #[inline]
    pub fn peek(&self) -> Option<&'t StoredEntry> {
        self.rest.first()
    }

    /// The cursor's leaf from its position to the leaf's end.
    #[inline]
    pub fn rest(&self) -> &'t [StoredEntry] {
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

impl std::fmt::Debug for BTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BTree")
            .field("len", &self.len)
            .field("height", &self.height)
            .field("nodes", &self.node_count())
            .field("key_arity", &self.key_arity)
            .finish()
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

    /// A node stores an entry in 32 bytes, where an [`Entry`] takes 40, so a
    /// full leaf of [`DEFAULT_LEAF_CAP`] entries is one page.
    #[test]
    fn a_stored_entry_is_32_bytes_and_a_full_leaf_one_page() {
        assert_eq!(std::mem::size_of::<StoredEntry>(), 32);
        assert_eq!(std::mem::size_of::<Entry>(), 40);
        assert_eq!(DEFAULT_LEAF_CAP * std::mem::size_of::<StoredEntry>(), crate::page::PAGE_SIZE);
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
