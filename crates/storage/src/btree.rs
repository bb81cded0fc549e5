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
//! A [`Tree<A>`] holds `A`-column keys as [`StoredEntry<A>`]s — the key's
//! `A` columns and the rid, 16, 24 or 32 bytes.  Bounds, probes, inserts
//! and deletes are `Key`s, checked against the tree's arity; entries handed
//! out by value are `Key`s again.  Inside a tree a bound is compared as a
//! `Bound<A>`, its first `A` columns and how a key equal there orders.
//!
//! [`BTree`] is a tree of any arity: one [`Tree`] behind a three-variant
//! enum.  Its methods build, maintain and describe a tree and answer a
//! point lookup and an entry-by-entry range scan, each dispatching once to
//! the code of its arity.  A caller's own loop over leaves — the index
//! scans, the covering scan, MDAM, the reference loops tests compare with
//! — reaches the [`Tree`] through [`with_tree!`](crate::with_tree), which
//! dispatches the same way.
//!
//! Leaves and inner nodes are separate types, each in its own arena indexed
//! by page number, and an inner node's children are leaves or inner nodes,
//! never a mix, so no walk meets a node of the wrong kind.  A leaf is one
//! modelled page at every arity: [`DEFAULT_LEAF_CAP`] entries whatever their
//! width, so page numbers and charges do not depend on an entry's bytes.
//!
//! Reads go through one [`Cursor`], which borrows the leaf it is on:
//! [`Tree::seek`] makes one, [`Cursor::peek`] / [`Cursor::rest`] /
//! [`Cursor::advance`] read and step within the leaf for free, and
//! [`Tree::next_leaf`] is the only step that touches a page.  There is one
//! leaf scan, [`Tree::scan_leaves`], and the MDAM walk; both are written
//! over those.  [`Tree::cursor_next`] is the entry-at-a-time reference
//! loop they are tested against.

use std::cmp::Ordering;
use std::marker::PhantomData;
use std::mem::take;
use std::num::NonZeroU32;
use std::ops::{Index, IndexMut, Range};

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

/// An entry widened to [`MAX_KEY_COLS`] columns, zeros past its arity: one
/// entry type whatever the tree's arity, for a caller that keeps entries.
pub type WideEntry = StoredEntry<MAX_KEY_COLS>;

/// `cols` with zeros past them.  Of a constant length, so the copy is a
/// few stores, not a `memcpy` call.
#[inline]
pub fn widen<const A: usize>(cols: &[i64; A]) -> KeyCols {
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

/// A leaf's page number, held plus one: `Option<LeafId>`, the `next` a
/// cursor carries in registers, then takes four bytes, not eight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LeafId(NonZeroU32);

impl LeafId {
    fn at(page: u32) -> Self {
        LeafId(NonZeroU32::MIN.saturating_add(page))
    }
}

/// An inner node's page number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct InnerId(u32);

/// A node of either kind: the root, or a child an inner node hands out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeId {
    Leaf(LeafId),
    Inner(InnerId),
}

/// A node handle: its page number, typed by the node's kind.
trait Handle: Copy {
    fn page(self) -> u32;
}

impl Handle for LeafId {
    fn page(self) -> u32 {
        self.0.get() - 1
    }
}

impl Handle for InnerId {
    fn page(self) -> u32 {
        self.0
    }
}

#[derive(Debug, Default)]
struct Leaf<const A: usize> {
    entries: Vec<StoredEntry<A>>,
    next: Option<LeafId>,
}

impl<const A: usize> Leaf<A> {
    /// Room for `more` entries.  A leaf that must grow grows once, to the
    /// `cap + 1` entries an insert holds before it splits: a bulk-loaded
    /// leaf is allocated at its exact size, and doubling it would hold a
    /// second page of memory.
    #[inline]
    fn make_room(&mut self, more: usize, cap: usize) {
        let (len, need) = (self.entries.len(), self.entries.len() + more);
        if need > self.entries.capacity() {
            self.entries.reserve_exact(need.max(cap + 1) - len);
        }
    }
}

#[derive(Debug, Default)]
struct Inner<const A: usize> {
    /// `seps[i]` is the smallest entry reachable under child `i + 1`.
    seps: Vec<StoredEntry<A>>,
    children: Children,
}

/// An inner node's children, all of one level: leaves, or inner nodes.
#[derive(Debug)]
enum Children {
    Leaves(Vec<LeafId>),
    Inners(Vec<InnerId>),
}

impl Default for Children {
    fn default() -> Self {
        Children::Leaves(Vec::new())
    }
}

impl<const A: usize> Inner<A> {
    /// Drop child `i` and the separator before it.
    fn remove_child(&mut self, i: usize) {
        self.seps.remove(i - 1);
        match &mut self.children {
            Children::Leaves(ids) => _ = ids.remove(i),
            Children::Inners(ids) => _ = ids.remove(i),
        }
    }
}

impl Children {
    fn len(&self) -> usize {
        match self {
            Children::Leaves(ids) => ids.len(),
            Children::Inners(ids) => ids.len(),
        }
    }

    fn get(&self, i: usize) -> NodeId {
        match self {
            Children::Leaves(ids) => NodeId::Leaf(ids[i]),
            Children::Inners(ids) => NodeId::Inner(ids[i]),
        }
    }

    fn split_off(&mut self, at: usize) -> Children {
        match self {
            Children::Leaves(ids) => Children::Leaves(ids.split_off(at)),
            Children::Inners(ids) => Children::Inners(ids.split_off(at)),
        }
    }

    /// Two siblings' children as one sequence, `self`'s then `right`'s,
    /// split after the first `at`.  `false`, and nothing moved, for children
    /// of two levels: only a tree whose leaves lie at two depths holds
    /// those, and [`Tree::check_invariants`] reports it.
    fn regroup(&mut self, right: &mut Children, at: usize) -> bool {
        fn join_split<C>(left: &mut Vec<C>, right: &mut Vec<C>, at: usize) {
            left.append(right);
            *right = left.split_off(at);
        }
        match (self, right) {
            (Children::Leaves(l), Children::Leaves(r)) => join_split(l, r, at),
            (Children::Inners(l), Children::Inners(r)) => join_split(l, r, at),
            _ => return false,
        }
        true
    }
}

/// The nodes of one kind by page number, `I` the kind's handle, from the
/// lowest page a node of the kind was put on: a page a handle names holds
/// its node; any other page from there up to the highest, of the other
/// kind or free, an empty default.  Bulk load numbers the inner nodes
/// after every leaf, so the inner arena holds no slot for a leaf page.
struct Arena<I, T> {
    base: u32,
    nodes: Vec<T>,
    kind: PhantomData<I>,
}

impl<I: Handle, T: Default> Arena<I, T> {
    /// Put `node` on `id`'s page, the arena grown, or re-based below its
    /// lowest page, to reach it.
    fn put(&mut self, id: I, node: T) {
        let page = id.page();
        if self.nodes.is_empty() {
            self.base = page;
        } else if page < self.base {
            let below = (self.base - page) as usize;
            self.nodes.splice(0..0, std::iter::repeat_with(T::default).take(below));
            self.base = page;
        }
        let slot = (page - self.base) as usize;
        if slot >= self.nodes.len() {
            self.nodes.resize_with(slot + 1, T::default);
        }
        self.nodes[slot] = node;
    }
}

impl<I: Handle, T> Index<I> for Arena<I, T> {
    type Output = T;
    #[inline]
    fn index(&self, id: I) -> &T {
        &self.nodes[(id.page() - self.base) as usize]
    }
}

impl<I: Handle, T> IndexMut<I> for Arena<I, T> {
    #[inline]
    fn index_mut(&mut self, id: I) -> &mut T {
        &mut self.nodes[(id.page() - self.base) as usize]
    }
}

/// A split's right half: the smallest entry under it, and its node.
type Split<const A: usize, C> = Option<(StoredEntry<A>, C)>;

/// A B+-tree index from `A`-column keys to rids.
///
/// Every node is one page of the tree's file, numbered by one allocator:
/// the page released last, else the next never handed out.  Each page
/// handed out is reachable once or on `free` once.
pub struct Tree<const A: usize> {
    file: FileId,
    leaves: Arena<LeafId, Leaf<A>>,
    inners: Arena<InnerId, Inner<A>>,
    /// Pages handed out, and the released ones, the last released last.
    pages: u32,
    free: Vec<u32>,
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

/// Put the right half of child `i`'s split `s` after it in `ids`; the
/// separator is left for their parent.
fn adopt<const A: usize, C>(ids: &mut Vec<C>, i: usize, s: Split<A, C>) -> Option<StoredEntry<A>> {
    let (sep, right) = s?;
    ids.insert(i + 1, right);
    Some(sep)
}

impl<const A: usize> Tree<A> {
    /// An empty tree with explicit node capacities (small capacities make
    /// rebalancing easy to exercise in tests).
    pub fn with_caps(file: FileId, leaf_cap: usize, internal_cap: usize) -> Self {
        assert!((1..=MAX_KEY_COLS).contains(&A), "bad key arity");
        assert!(leaf_cap >= 2 && internal_cap >= 3, "caps too small to split");
        // Page 0, the root, is an empty leaf.
        Tree {
            file,
            leaves: Arena { base: 0, nodes: vec![Leaf::default()], kind: PhantomData },
            inners: Arena { base: 0, nodes: Vec::new(), kind: PhantomData },
            pages: 1,
            free: Vec::new(),
            root: NodeId::Leaf(LeafId::at(0)),
            height: 1,
            len: 0,
            leaf_cap,
            internal_cap,
        }
    }

    /// Bulk load: a tree of `len` entries sorted by `(key, rid)`, leaves
    /// packed `fill` full.  `fill_leaf` pushes the entries at a range of
    /// positions onto a leaf allocated at its exact size, in leaf order:
    /// leaf `i` is page `i`.  Leaf sizes are balanced so that no leaf
    /// (except a lone root) falls below minimum occupancy.
    fn bulk_load(
        file: FileId,
        len: usize,
        fill: f64,
        (leaf_cap, internal_cap): (usize, usize),
        mut fill_leaf: impl FnMut(&mut Vec<StoredEntry<A>>, Range<usize>),
    ) -> Self {
        assert!(fill > 0.0 && fill <= 1.0, "fill factor out of range");
        let mut tree = Self::with_caps(file, leaf_cap, internal_cap);
        if len == 0 {
            return tree;
        }
        let per_leaf = ((leaf_cap as f64 * fill) as usize).clamp(1, leaf_cap);
        let sizes = balanced_group_sizes(len, per_leaf, leaf_cap / 2);
        let mut start = 0;
        for (i, &size) in sizes.iter().enumerate() {
            let at = start..start + size;
            start = at.end;
            let mut entries = Vec::with_capacity(size);
            fill_leaf(&mut entries, at);
            assert_eq!(entries.len(), size, "bulk_load input shorter than its length");
            debug_assert!(entries.windows(2).all(|w| w[0] < w[1]), "bulk_load input not sorted");
            let id = LeafId::at(i as u32);
            if i > 0 {
                tree.alloc_page();
                let prev = &mut tree.leaves[LeafId::at(i as u32 - 1)];
                debug_assert!(prev.entries.last() < entries.first(), "bulk_load input not sorted");
                prev.next = Some(id);
            }
            tree.leaves.put(id, Leaf { entries, next: None });
        }
        tree.load_levels(sizes.len(), len, fill);
        tree
    }

    /// [`Tree::bulk_load`] from [`Entry`]s, each key's arity checked in
    /// debug builds.
    fn load_entries(
        file: FileId,
        mut entries: impl ExactSizeIterator<Item = Entry>,
        fill: f64,
        caps: (usize, usize),
    ) -> Self {
        Self::bulk_load(file, entries.len(), fill, caps, |leaf, at| {
            leaf.extend(entries.by_ref().take(at.len()).map(|(key, rid)| {
                debug_assert_eq!(key.arity(), A, "bulk_load key arity mismatch");
                (key.stored(), rid)
            }))
        })
    }

    /// [`Tree::bulk_load`] gathering from columns: the entry at position
    /// `i` is row `order[i]`'s values in the `A` columns of `key` and its
    /// rid in `rids`.
    fn load_columns(file: FileId, key: &[&[i64]], rids: &[Rid], order: &[u32], fill: f64) -> Self {
        let key: [&[i64]; A] = std::array::from_fn(|c| key[c]);
        let caps = (DEFAULT_LEAF_CAP, DEFAULT_INTERNAL_CAP);
        Self::bulk_load(file, order.len(), fill, caps, |leaf, at| {
            leaf.extend(order[at].iter().map(|&p| {
                let p = p as usize;
                (std::array::from_fn(|c| key[c][p]), rids[p])
            }))
        })
    }

    /// Bulk load: build the internal levels bottom-up over the first
    /// `leaves` pages, which [`Tree::bulk_load`] filled with `len > 0`
    /// entries.
    fn load_levels(&mut self, leaves: usize, len: usize, fill: f64) {
        let leaves = (0..leaves as u32).map(LeafId::at);
        let level: Vec<_> = leaves.map(|id| (self.leaves[id].entries[0], id)).collect();
        let per_internal = ((self.internal_cap as f64 * fill) as usize).clamp(2, self.internal_cap);
        if level.len() > 1 {
            let mut level = self.load_level(&level, per_internal, Children::Leaves);
            while level.len() > 1 {
                level = self.load_level(&level, per_internal, Children::Inners);
            }
            self.root = NodeId::Inner(level[0].1);
        }
        self.len = len as u64;
    }

    /// Bulk load: one level of inner nodes over `level`'s nodes, each given
    /// with the first entry under it.
    fn load_level<C: Copy>(
        &mut self,
        level: &[(StoredEntry<A>, C)],
        per_internal: usize,
        kind: fn(Vec<C>) -> Children,
    ) -> Vec<(StoredEntry<A>, InnerId)> {
        let sizes = balanced_group_sizes(level.len(), per_internal, self.internal_cap.div_ceil(2));
        let mut offset = 0;
        let mut upper = Vec::with_capacity(sizes.len());
        for size in sizes {
            let group = &level[offset..offset + size];
            offset += size;
            let children = kind(group.iter().map(|&(_, id)| id).collect());
            let seps = group[1..].iter().map(|&(sep, _)| sep).collect();
            upper.push((group[0].0, self.alloc_inner(Inner { seps, children })));
        }
        self.height += 1;
        upper
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

    /// Number of allocated nodes (≈ pages), including internal nodes: the
    /// pages handed out and not released.
    pub fn node_count(&self) -> usize {
        self.pages as usize - self.free.len()
    }

    /// The file id used for this tree's pages.
    pub fn file_id(&self) -> FileId {
        self.file
    }

    /// A page number: the page released last, else the next never handed
    /// out.
    fn alloc_page(&mut self) -> u32 {
        let page = self.free.pop().unwrap_or(self.pages);
        self.pages = self.pages.max(page + 1);
        page
    }

    fn alloc_inner(&mut self, inner: Inner<A>) -> InnerId {
        let id = InnerId(self.alloc_page());
        self.inners.put(id, inner);
        id
    }

    #[inline]
    fn touch<S: ChargeSink>(&self, node: impl Handle, session: &S, kind: AccessKind) {
        session.read_page(PageId::new(self.file, node.page()), kind);
    }

    /// `(key, rid)` as this tree stores it, once the key's arity is checked.
    fn stored_entry(key: &Key, rid: Rid) -> StoredEntry<A> {
        assert_eq!(key.arity(), A, "key arity mismatch");
        (key.stored(), rid)
    }

    /// Insert `(key, rid)`.  Returns `false` if the exact entry was already
    /// present (the tree is a set of `(key, rid)` pairs).
    pub fn insert<S: ChargeSink>(&mut self, key: Key, rid: Rid, session: &S) -> bool {
        let (entry, len) = (Self::stored_entry(&key, rid), self.len);
        // A split of the root puts a new root over both halves.
        let split = match self.root {
            NodeId::Leaf(id) => self
                .insert_leaf(id, entry, session)
                .map(|(sep, right)| (sep, Children::Leaves(vec![id, right]))),
            NodeId::Inner(id) => self
                .insert_inner(id, entry, session)
                .map(|(sep, right)| (sep, Children::Inners(vec![id, right]))),
        };
        if let Some((sep, children)) = split {
            self.root = NodeId::Inner(self.alloc_inner(Inner { seps: vec![sep], children }));
            self.height += 1;
        }
        self.len > len
    }

    /// Insert under leaf `id`, counting the entry unless it is there.
    fn insert_leaf<S: ChargeSink>(
        &mut self,
        id: LeafId,
        entry: StoredEntry<A>,
        session: &S,
    ) -> Split<A, LeafId> {
        self.touch(id, session, AccessKind::Random);
        let leaf = &mut self.leaves[id];
        let idx = search(&leaf.entries, session, |e| *e < entry);
        if leaf.entries.get(idx) == Some(&entry) {
            return None;
        }
        leaf.make_room(1, self.leaf_cap);
        leaf.entries.insert(idx, entry);
        self.len += 1;
        if leaf.entries.len() <= self.leaf_cap {
            return None;
        }
        // Split the leaf in half.
        let entries = leaf.entries.split_off(leaf.entries.len() / 2);
        let (sep, next) = (entries[0], leaf.next);
        let right = LeafId::at(self.alloc_page());
        self.leaves.put(right, Leaf { entries, next });
        self.leaves[id].next = Some(right);
        Some((sep, right))
    }

    fn insert_inner<S: ChargeSink>(
        &mut self,
        id: InnerId,
        entry: StoredEntry<A>,
        session: &S,
    ) -> Split<A, InnerId> {
        self.touch(id, session, AccessKind::Random);
        // Out of its arena while the insert descends under it.
        let mut inner = take(&mut self.inners[id]);
        // An entry equal to `seps[i]` lives under child `i + 1` (separators
        // are the smallest entry of their right subtree), so the descent
        // uses `<=`.
        let slot = search(&inner.seps, session, |e| *e <= entry);
        let sep = match &mut inner.children {
            Children::Leaves(ids) => adopt(ids, slot, self.insert_leaf(ids[slot], entry, session)),
            Children::Inners(ids) => adopt(ids, slot, self.insert_inner(ids[slot], entry, session)),
        };
        if let Some(sep) = sep {
            inner.seps.insert(slot, sep);
        }
        // Split the node if it overflowed; the middle separator moves up.
        let split = (inner.children.len() > self.internal_cap).then(|| {
            let mid = inner.seps.len() / 2;
            let up = inner.seps[mid];
            let seps = inner.seps.split_off(mid + 1);
            inner.seps.truncate(mid);
            let children = inner.children.split_off(mid + 1);
            (up, self.alloc_inner(Inner { seps, children }))
        });
        self.inners[id] = inner;
        split
    }

    /// Delete `(key, rid)`.  Returns `true` if the entry existed.
    pub fn delete<S: ChargeSink>(&mut self, key: Key, rid: Rid, session: &S) -> bool {
        let entry = Self::stored_entry(&key, rid);
        let removed = self.delete_rec(self.root, &entry, session);
        if removed {
            self.len -= 1;
            // Collapse the root while it is an inner node of one child.
            while let NodeId::Inner(id) = self.root {
                if self.inners[id].children.len() != 1 {
                    break;
                }
                self.free.push(id.page());
                self.root = take(&mut self.inners[id]).children.get(0);
                self.height -= 1;
            }
        }
        removed
    }

    fn delete_rec<S: ChargeSink>(
        &mut self,
        node: NodeId,
        entry: &StoredEntry<A>,
        session: &S,
    ) -> bool {
        match node {
            NodeId::Leaf(id) => {
                self.touch(id, session, AccessKind::Random);
                let entries = &mut self.leaves[id].entries;
                let idx = search(entries, session, |e| e < entry);
                let found = entries.get(idx) == Some(entry);
                if found {
                    entries.remove(idx);
                }
                found
            }
            NodeId::Inner(id) => {
                self.touch(id, session, AccessKind::Random);
                let inner = &self.inners[id];
                let slot = search(&inner.seps, session, |e| e <= entry);
                let child = inner.children.get(slot);
                let removed = self.delete_rec(child, entry, session);
                if removed {
                    self.fix_underflow(id, slot, session);
                }
                removed
            }
        }
    }

    /// After deleting under child `slot` of `parent`, rebalance that child
    /// if it fell below minimum occupancy, by borrowing from or merging
    /// with a sibling.
    fn fix_underflow<S: ChargeSink>(&mut self, parent: InnerId, slot: usize, session: &S) {
        // Prefer the left sibling; fall back to the right.
        let (left, right) = if slot > 0 { (slot - 1, slot) } else { (slot, slot + 1) };
        let sibling = left + right - slot;
        match &self.inners[parent].children {
            Children::Leaves(ids) if self.leaves[ids[slot]].entries.len() < self.leaf_cap / 2 => {
                self.touch(ids[sibling], session, AccessKind::Random);
                self.rebalance_leaves(parent, left, ids[left], ids[right]);
            }
            Children::Inners(ids)
                if self.inners[ids[slot]].children.len() < self.internal_cap.div_ceil(2) =>
            {
                self.touch(ids[sibling], session, AccessKind::Random);
                self.rebalance_internals(parent, left, ids[left], ids[right]);
            }
            _ => {}
        }
    }

    /// Merge leaf `right` into `left` if their entries fit one leaf, else
    /// share them out evenly; the parent's separator `i` lies between them.
    fn rebalance_leaves(&mut self, parent: InnerId, i: usize, left: LeafId, right: LeafId) {
        let mut r = take(&mut self.leaves[right]);
        let l = &mut self.leaves[left];
        let total = l.entries.len() + r.entries.len();
        if total <= self.leaf_cap {
            l.make_room(r.entries.len(), self.leaf_cap);
            l.entries.append(&mut r.entries);
            l.next = r.next;
            self.free.push(right.page());
            self.inners[parent].remove_child(i + 1);
            return;
        }
        let target_left = total / 2;
        if l.entries.len() > target_left {
            r.make_room(l.entries.len() - target_left, self.leaf_cap);
            r.entries.splice(..0, l.entries.drain(target_left..));
        } else {
            l.make_room(target_left - l.entries.len(), self.leaf_cap);
            l.entries.extend(r.entries.drain(..target_left - l.entries.len()));
        }
        self.inners[parent].seps[i] = r.entries[0];
        self.leaves[right] = r;
    }

    /// Merge inner node `right` into `left` if their children fit one
    /// node, else share them out evenly — left's, the parent's separator
    /// `i` between them, then right's, as one sequence.
    fn rebalance_internals(&mut self, parent: InnerId, i: usize, left: InnerId, right: InnerId) {
        let parent_sep = self.inners[parent].seps[i];
        let mut r = take(&mut self.inners[right]);
        let l = &mut self.inners[left];
        let total = l.children.len() + r.children.len();
        let at = if total <= self.internal_cap { total } else { total / 2 };
        if !l.children.regroup(&mut r.children, at) {
            self.inners[right] = r;
            return;
        }
        l.seps.push(parent_sep);
        l.seps.append(&mut r.seps);
        if at == total {
            self.free.push(right.page());
            self.inners[parent].remove_child(i + 1);
            return;
        }
        // The separator at the split moves up.
        r.seps = l.seps.split_off(at);
        let up = l.seps[at - 1];
        l.seps.truncate(at - 1);
        self.inners[parent].seps[i] = up;
        self.inners[right] = r;
    }

    /// Position a cursor at the first entry with `(key, rid) >= (lo,
    /// Rid(0,0))`, charging the root-to-leaf descent.
    pub fn seek(&self, lo: &Key, session: &Session) -> Cursor<'_, A> {
        assert_eq!(lo.arity(), A, "key arity mismatch");
        let (lo, first) = (Bound::<A>::of(lo), Rid::new(0, 0));
        // How an entry orders against the target `(lo, first)`.
        let order = |(key, rid): &StoredEntry<A>| lo.order(key).then(rid.cmp(&first));
        let mut node = self.root;
        let id = loop {
            match node {
                NodeId::Leaf(id) => break id,
                NodeId::Inner(id) => {
                    self.touch(id, session, AccessKind::Random);
                    let inner = &self.inners[id];
                    node = inner.children.get(search(&inner.seps, session, |e| order(e).is_le()));
                }
            }
        };
        self.touch(id, session, AccessKind::Random);
        let leaf = &self.leaves[id];
        let idx = search(&leaf.entries, session, |e| order(e).is_lt());
        Cursor { rest: &leaf.entries[idx..], next: leaf.next }
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
        let id = cursor.next?;
        self.touch(id, session, leaf_access);
        let leaf = &self.leaves[id];
        Some(Cursor { rest: &leaf.entries, next: leaf.next })
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
            if let Some((cols, rid)) = cursor.peek() {
                cursor.advance(1);
                session.charge_rows(1);
                return Some((Key::of_stored(cols), *rid));
            }
            *cursor = self.next_leaf(*cursor, session, leaf_access)?;
        }
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
        let mut cursor = self.seek(&Key::padded_lo(&[], A), &session);
        while let Some(e) = self.cursor_next(&mut cursor, &session, AccessKind::Sequential) {
            out.push(e);
        }
        out
    }

    /// Validate structural invariants; returns a description of the first
    /// violation.  Used by tests and property tests.  Beside the tree's
    /// shape and order, page numbers are conserved: each page handed out is
    /// reachable exactly once or on the free list exactly once — and so
    /// [`Tree::node_count`], the pages handed out less the free ones, is the
    /// number of reachable nodes — and no leaf holds room for more entries
    /// than it has or than a leaf holds before it splits.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut walk = Walk::default();
        self.check_node(self.root, 1, None, None, &mut walk)?;
        if walk.last.is_some_and(|id| self.leaves[id].next.is_some()) {
            return Err("leaf chain runs past the last leaf".into());
        }
        if walk.entries != self.len {
            return Err(format!("len {} but {} entries found", self.len, walk.entries));
        }
        let mut pages = walk.pages;
        pages.extend(&self.free);
        pages.sort_unstable();
        if !pages.into_iter().eq(0..self.pages) {
            return Err("a page handed out is not reachable once or free once".into());
        }
        Ok(())
    }

    fn check_node(
        &self,
        node: NodeId,
        depth: u32,
        lo: Option<&StoredEntry<A>>,
        hi: Option<&StoredEntry<A>>,
        walk: &mut Walk,
    ) -> Result<(), String> {
        let is_root = node == self.root;
        match node {
            NodeId::Leaf(id) => {
                let (page, entries) = (id.page(), &self.leaves[id].entries);
                walk.pages.push(page);
                walk.entries += entries.len() as u64;
                if walk.last.replace(id).is_some_and(|prev| self.leaves[prev].next != Some(id)) {
                    return Err(format!("leaf chain skips leaf {page}"));
                }
                if depth != self.height {
                    return Err(format!("height {} but leaf {page} at depth {depth}", self.height));
                }
                if entries.len() > self.leaf_cap {
                    return Err(format!("leaf {page} over capacity"));
                }
                if entries.capacity() > entries.len().max(self.leaf_cap + 1) {
                    return Err(format!("leaf {page} holds room past one page"));
                }
                if !is_root && entries.len() < self.leaf_cap / 2 {
                    return Err(format!("leaf {page} under occupancy"));
                }
                if !entries.windows(2).all(|w| w[0] < w[1]) {
                    return Err(format!("leaf {page} not sorted"));
                }
                if entries.first().is_some_and(|first| lo.is_some_and(|lo| first < lo)) {
                    return Err(format!("leaf {page} violates lower bound"));
                }
                if entries.last().is_some_and(|last| hi.is_some_and(|hi| last >= hi)) {
                    return Err(format!("leaf {page} violates upper bound"));
                }
                Ok(())
            }
            NodeId::Inner(id) => {
                let (page, Inner { seps, children }) = (id.page(), &self.inners[id]);
                walk.pages.push(page);
                if children.len() != seps.len() + 1 {
                    return Err(format!("internal {page} child/sep mismatch"));
                }
                if children.len() > self.internal_cap {
                    return Err(format!("internal {page} over capacity"));
                }
                if !is_root && children.len() < self.internal_cap.div_ceil(2) {
                    return Err(format!("internal {page} under occupancy"));
                }
                if is_root && children.len() < 2 {
                    return Err("internal root with < 2 children".into());
                }
                if !seps.windows(2).all(|w| w[0] < w[1]) {
                    return Err(format!("internal {page} separators not sorted"));
                }
                for i in 0..children.len() {
                    let child_lo = if i == 0 { lo } else { Some(&seps[i - 1]) };
                    let child_hi = if i == seps.len() { hi } else { Some(&seps[i]) };
                    self.check_node(children.get(i), depth + 1, child_lo, child_hi, walk)?;
                }
                Ok(())
            }
        }
    }
}

/// What [`Tree::check_invariants`] saw walking the tree from its root: the
/// last leaf, the entries, and every page reached.
#[derive(Default)]
struct Walk {
    last: Option<LeafId>,
    entries: u64,
    pages: Vec<u32>,
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
/// leaf from the position on, and the leaf after it.  `Copy`, so saving a
/// position is a register copy, and reading it touches neither the node
/// arenas nor a page — [`Tree::next_leaf`] is the only step that does.
/// The borrow keeps the tree unwritten for as long as a cursor is alive.
#[derive(Debug, Clone, Copy)]
pub struct Cursor<'t, const A: usize> {
    rest: &'t [StoredEntry<A>],
    next: Option<LeafId>,
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
/// let tree = BTree::with_caps(FileId(0), 2, 4, 4);
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

impl BTree {
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
    /// built index on disk.  Each leaf is filled straight from the
    /// iterator at its key's width, by the one load of the tree's arity
    /// that [`BTree::bulk_load_columns`] fills too: no list of all entries
    /// is needed beside the tree.
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
    pub fn bulk_load_with_caps(
        file: FileId,
        key_arity: usize,
        entries: impl ExactSizeIterator<Item = Entry>,
        fill: f64,
        leaf_cap: usize,
        internal_cap: usize,
    ) -> Self {
        assert!((1..=MAX_KEY_COLS).contains(&key_arity), "bad key arity");
        let caps = (leaf_cap, internal_cap);
        match key_arity {
            1 => BTree::One(Tree::load_entries(file, entries, fill, caps)),
            2 => BTree::Two(Tree::load_entries(file, entries, fill, caps)),
            _ => BTree::Three(Tree::load_entries(file, entries, fill, caps)),
        }
    }

    /// [`BTree::bulk_load`] of the entries `order` lists, gathered from
    /// columns straight into the leaves: entry `i` is row `p = order[i]`'s
    /// key, `key[c][p]` in column `c`, and its rid `rids[p]`; `order` must
    /// list the rows sorted by `(key, rid)`.
    ///
    /// # Panics
    /// Panics as `bulk_load` does, if `key` holds no column or more than
    /// [`MAX_KEY_COLS`], or if a position of `order` is past a column or
    /// `rids`.
    pub fn bulk_load_columns(
        file: FileId,
        key: &[&[i64]],
        rids: &[Rid],
        order: &[u32],
        fill: f64,
    ) -> Self {
        assert!((1..=MAX_KEY_COLS).contains(&key.len()), "bad key arity");
        match key.len() {
            1 => BTree::One(Tree::load_columns(file, key, rids, order, fill)),
            2 => BTree::Two(Tree::load_columns(file, key, rids, order, fill)),
            _ => BTree::Three(Tree::load_columns(file, key, rids, order, fill)),
        }
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

    /// Point lookup: rid of the first entry whose key equals `key` — a
    /// [`Tree::seek`] and one [`Tree::cursor_next`] over single pages.
    pub fn get_first(&self, key: &Key, session: &Session) -> Option<Rid> {
        with_tree!(self, |t| {
            let mut cursor = t.seek(key, session);
            match t.cursor_next(&mut cursor, session, AccessKind::SinglePage) {
                Some((k, rid)) if k == *key => Some(rid),
                _ => None,
            }
        })
    }

    /// Scan all entries with keys in `[lo, hi]` (inclusive, in `(key, rid)`
    /// order), calling `f` for each: [`Tree::scan_leaves`], entry by entry.
    /// Returns the number of entries visited.
    pub fn scan_range<F: FnMut(Entry)>(
        &self,
        lo: &Key,
        hi: &Key,
        session: &Session,
        leaf_access: AccessKind,
        mut f: F,
    ) -> u64 {
        with_tree!(self, |t| {
            t.scan_leaves(lo, hi, session, leaf_access, |leaf| {
                leaf.iter().for_each(|(cols, rid)| f((Key::of_stored(cols), *rid)))
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

    /// Page numbers are conserved: a page dropped from the free list, or
    /// listed there twice, fails the invariants.
    #[test]
    fn a_page_neither_reachable_nor_free_once_fails_the_invariants() {
        let s = quiet();
        let mut t = Tree::<1>::with_caps(FileId(0), 4, 4);
        for i in 0..64 {
            t.insert(Key::single(i), rid(i as u32), &s);
        }
        for i in 0..48 {
            t.delete(Key::single(i), rid(i as u32), &s);
        }
        t.check_invariants().unwrap();
        let page = t.free.pop().expect("merges released pages");
        assert!(t.check_invariants().is_err(), "page {page} dropped");
        t.free.extend([page, page]);
        assert!(t.check_invariants().is_err(), "page {page} freed twice");
    }

    /// An arena holds no slot below its lowest node: a bulk-loaded tree's
    /// inner arena starts at its first inner page, after every leaf, and an
    /// inner node put on a lower page — a released leaf page a split takes
    /// — re-bases it with every node still on its page.
    #[test]
    fn the_inner_arena_starts_at_its_lowest_node() {
        let s = quiet();
        let entries: Vec<Entry> = (0..4096).map(|i| (Key::single(i), rid(i as u32))).collect();
        let mut t = Tree::<1>::load_entries(FileId(0), entries.iter().copied(), 1.0, (16, 4));
        let leaves = 4096 / 16;
        assert_eq!((t.inners.base, t.inners.nodes.len()), (leaves, t.node_count() - 256));
        for &(key, rid) in &entries[..2048] {
            assert!(t.delete(key, rid, &s));
        }
        for i in 0..4096 {
            assert!(t.insert(Key::single(8192 + i), rid(i as u32), &s));
        }
        assert!(t.inners.base < leaves, "no inner node took a leaf's page");
        t.check_invariants().unwrap();
        let want: Vec<Entry> = entries[2048..]
            .iter()
            .copied()
            .chain((0..4096).map(|i| (Key::single(8192 + i), rid(i as u32))))
            .collect();
        assert!(t.collect_all() == want);
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
            let mut entries: Vec<Entry> = (0..20_000).map(|i| (key(i), rid(i as u32))).collect();
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
                with_tree!(&t, |t| {
                    let mut cursor = t.seek(&key(i), &s);
                    for _ in 0..5 {
                        let next = t.cursor_next(&mut cursor, &s, AccessKind::SinglePage);
                        read += u64::from(next.is_some());
                    }
                });
            }
            for (a, b) in [(0, 40), (200, 203), (1000, 2500), (3300, 9000)] {
                let (lo, hi) = (Key::padded_lo(&[a], arity), Key::padded_hi(&[b], arity));
                read += t.scan_range(&lo, &hi, &s, AccessKind::Sequential, |_| {});
                let mut leaves = 0;
                read += with_tree!(&t, |t| {
                    t.scan_leaves(&lo, &hi, &s, AccessKind::SinglePage, |_| leaves += 1)
                });
                read += leaves;
            }
            let got = (s.elapsed_ticks(), s.stats(), s.charge_events(), read);
            assert_eq!(got, want[arity - 1], "arity {arity}");
        }
    }

    #[test]
    fn empty_tree() {
        let t = BTree::with_caps(FileId(0), 1, DEFAULT_LEAF_CAP, DEFAULT_INTERNAL_CAP);
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
        assert!(t.check_invariants().is_ok());
        assert_eq!(t.collect_all(), vec![]);
    }

    #[test]
    fn insert_and_lookup_small() {
        let s = quiet();
        let mut t = BTree::with_caps(FileId(0), 1, DEFAULT_LEAF_CAP, DEFAULT_INTERNAL_CAP);
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
        let mut t = BTree::with_caps(FileId(0), 1, DEFAULT_LEAF_CAP, DEFAULT_INTERNAL_CAP);
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

    /// Leaves bulk-loaded at their exact size, then churned with small
    /// caps — inserts that split them, deletes that merge and share them
    /// out — never hold room for more than the `leaf_cap + 1` entries a leaf
    /// holds before it splits; a leaf that takes an insert holds that much.
    #[test]
    fn churned_leaves_grow_to_one_page_not_two() {
        const CAP: usize = 8;
        let s = quiet();
        // Even keys loaded, odd keys inserted: each key under its own rid.
        let entry = |k: i64| (Key::single(k), rid(k as u32));
        let loaded = (0..400i32).map(|i| entry(2 * i64::from(i)));
        let BTree::One(mut t) = BTree::bulk_load_with_caps(FileId(0), 1, loaded, 1.0, CAP, 8) else {
            unreachable!("a one-column key")
        };
        let widest = |t: &Tree<1>| t.leaves.nodes.iter().map(|l| l.entries.capacity()).max();
        assert_eq!(widest(&t), Some(CAP));
        for i in 0..400 {
            let (key, rid) = entry((2 * i * 7919 + 1) % 800);
            assert!(t.insert(key, rid, &s));
            t.check_invariants().unwrap();
        }
        assert_eq!(widest(&t), Some(CAP + 1));
        for i in 0..700 {
            let (key, rid) = entry(i * 7919 % 800);
            assert!(t.delete(key, rid, &s));
            t.check_invariants().unwrap();
            assert!(widest(&t) <= Some(CAP + 1), "after {i} deletes");
        }
    }

    #[test]
    fn delete_missing_returns_false() {
        let s = quiet();
        let mut t = BTree::with_caps(FileId(0), 1, DEFAULT_LEAF_CAP, DEFAULT_INTERNAL_CAP);
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
        let entries: Vec<Entry> = (0..10_000i64).map(|i| (Key::single(i), rid(i as u32))).collect();
        let t = BTree::bulk_load_with_caps(FileId(0), 1, entries.iter().copied(), 0.9, 16, 16);
        let s = Session::with_pool_pages(0);
        let before = s.stats();
        with_tree!(&t, |t| {
            t.seek(&Key::single(5000), &s);
        });
        let delta = s.stats().since(&before);
        assert_eq!(delta.random_reads, t.height() as u64);
    }

    #[test]
    fn warm_pool_caches_upper_levels() {
        let entries: Vec<Entry> = (0..10_000i64).map(|i| (Key::single(i), rid(i as u32))).collect();
        let t = BTree::bulk_load_with_caps(FileId(0), 1, entries.iter().copied(), 0.9, 16, 16);
        let s = Session::with_pool_pages(1 << 20);
        with_tree!(&t, |t| {
            t.seek(&Key::single(5000), &s);
        });
        let before = s.stats();
        with_tree!(&t, |t| {
            t.seek(&Key::single(5001), &s);
        });
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
        t.scan_range(&Key::single(0), &Key::single(1999), &s, AccessKind::Sequential, |_| {});
        let delta = s.stats().since(&before);
        // Descent is random; the rest of the ~2000/64 leaves are sequential.
        assert!(delta.seq_reads >= 2000 / 64 - 2);
        assert_eq!(delta.random_reads, t.height() as u64);
    }
}
