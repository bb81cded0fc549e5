//! Buffer pool: a cache simulator over page identities.
//!
//! The engine keeps all data in memory (it is a simulator), so the pool does
//! not hold page frames — it tracks *which* pages would be resident and
//! answers hit/miss.  The paper calls out the buffer pool as one of the
//! run-time conditions that shape robustness (§3: "resources (memory, I/O
//! bandwidth)"), so pool capacity is a first-class sweep dimension.
//!
//! Two classic replacement policies are provided: LRU (exact, via an
//! intrusive doubly-linked list over a slot arena) and Clock (second
//! chance).

use crate::fx::FxHashMap;

/// Identifies a storage "file": one heap or one B+-tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub u32);

/// Globally unique page identity: a page number within a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId {
    /// Which heap or index the page belongs to.
    pub file: FileId,
    /// Page number within the file.
    pub page: u32,
}

impl PageId {
    /// Construct a page id.
    pub fn new(file: FileId, page: u32) -> Self {
        PageId { file, page }
    }
}

impl std::fmt::Display for PageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.file.0, self.page)
    }
}

/// Page replacement policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvictionPolicy {
    /// Exact least-recently-used.
    #[default]
    Lru,
    /// Clock / second-chance approximation of LRU.
    Clock,
}

const NIL: usize = usize::MAX;

#[derive(Debug, Clone)]
struct Slot {
    page: PageId,
    prev: usize,
    next: usize,
    referenced: bool,
}

/// A fixed-capacity page cache simulator.
///
/// `access` reports whether a page was resident and makes it resident
/// (evicting if needed).  A capacity of zero disables caching entirely —
/// every access misses — and `unbounded` never evicts.
#[derive(Debug)]
pub struct BufferPool {
    capacity: usize,
    policy: EvictionPolicy,
    map: FxHashMap<PageId, usize>,
    slots: Vec<Slot>,
    free: Vec<usize>,
    head: usize, // most-recently-used (LRU) / unused by Clock
    tail: usize, // least-recently-used (LRU) / unused by Clock
    hand: usize, // clock hand (Clock policy)
    /// The page of the previous access, when that access left it resident
    /// (capacity > 0): it is referenced and, under LRU, at the list head —
    /// no access has run since that could evict or displace it — so a
    /// repeat is a hit that changes nothing but the counter.
    last: Option<PageId>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl BufferPool {
    /// Pool holding at most `capacity_pages` pages under `policy`.
    pub fn new(capacity_pages: usize, policy: EvictionPolicy) -> Self {
        BufferPool {
            capacity: capacity_pages,
            policy,
            map: FxHashMap::with_capacity_and_hasher(
                capacity_pages.min(1 << 20),
                Default::default(),
            ),
            slots: Vec::with_capacity(capacity_pages.min(1 << 20)),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            hand: 0,
            last: None,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Pool that never evicts (models "everything fits in memory").
    pub fn unbounded() -> Self {
        Self::new(usize::MAX / 2, EvictionPolicy::Lru)
    }

    /// Configured capacity in pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of pages currently resident.
    pub fn resident(&self) -> usize {
        self.map.len()
    }

    /// (hits, misses, evictions) since construction.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
    }

    /// Touch `page`: returns `true` on a hit, `false` on a miss.  On a miss
    /// the page becomes resident, evicting another page if at capacity.
    #[inline]
    pub fn access(&mut self, page: PageId) -> bool {
        // Fetch loops request the same page for every row on it, so the
        // repeat is the common case by far: answer it without a hash probe.
        if self.last == Some(page) {
            self.hits += 1;
            return true;
        }
        self.access_other(page)
    }

    /// `n >= 1` consecutive accesses to `page` in one: returns whether the
    /// first hit and how many of the `n` did.  The first is an ordinary
    /// [`BufferPool::access`]; it leaves the page resident and most
    /// recent, so each repeat is a hit that moves nothing — unless the
    /// pool has no capacity, where every access misses.
    #[inline]
    pub fn access_run(&mut self, page: PageId, n: u64) -> (bool, u64) {
        debug_assert!(n >= 1, "an access run has at least one access");
        let first = self.access(page);
        if n == 1 {
            return (first, u64::from(first));
        }
        let repeat_hits = if self.capacity > 0 { n - 1 } else { 0 };
        self.hits += repeat_hits;
        self.misses += n - 1 - repeat_hits;
        (first, u64::from(first) + repeat_hits)
    }

    /// [`BufferPool::access`] for a page other than the previous one.
    fn access_other(&mut self, page: PageId) -> bool {
        if self.capacity == 0 {
            self.misses += 1;
            return false;
        }
        self.last = Some(page);
        if let Some(&slot) = self.map.get(&page) {
            self.hits += 1;
            self.slots[slot].referenced = true;
            if self.policy == EvictionPolicy::Lru {
                self.unlink(slot);
                self.push_front(slot);
            }
            return true;
        }
        self.misses += 1;
        if self.map.len() >= self.capacity {
            self.evict_one();
        }
        let slot = self.alloc_slot(page);
        self.map.insert(page, slot);
        if self.policy == EvictionPolicy::Lru {
            self.push_front(slot);
        }
        false
    }

    /// Empty the pool and zero its counters, keeping capacity and policy —
    /// the state of a freshly constructed pool, minus the allocations.
    /// Sweep workers reuse one pool per thread and reset it between map
    /// cells, preserving the cold-pool-per-measurement semantics without
    /// rebuilding the slot arena.
    pub fn reset(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        self.hand = 0;
        self.last = None;
        self.hits = 0;
        self.misses = 0;
        self.evictions = 0;
    }

    /// Drop pages `0..pages` of `file` from the pool: a temp file deleted
    /// once its sort run or spill partition is consumed, its caller naming
    /// the pages it wrote and read.  The cost is a probe per page, not a
    /// walk of the slot arena.
    pub fn invalidate_file(&mut self, file: FileId, pages: u32) {
        if self.last.is_some_and(|p| p.file == file) {
            self.last = None;
        }
        // Clock reuses the last-freed slot first, so the order in which
        // slots reach the free list is observable: slot order, whatever
        // slots the file's pages landed in.
        let mut victims: Vec<usize> =
            (0..pages).filter_map(|p| self.map.remove(&PageId::new(file, p))).collect();
        victims.sort_unstable();
        for slot in victims {
            if self.policy == EvictionPolicy::Lru {
                self.unlink(slot);
            }
            self.free_slot(slot);
        }
    }

    /// Whether `page` is currently resident (does not update recency).
    pub fn contains(&self, page: PageId) -> bool {
        self.map.contains_key(&page)
    }

    fn alloc_slot(&mut self, page: PageId) -> usize {
        let slot = Slot { page, prev: NIL, next: NIL, referenced: true };
        if let Some(idx) = self.free.pop() {
            self.slots[idx] = slot;
            idx
        } else {
            self.slots.push(slot);
            self.slots.len() - 1
        }
    }

    fn free_slot(&mut self, slot: usize) {
        self.free.push(slot);
        self.reset_slot(slot);
    }

    fn reset_slot(&mut self, slot: usize) {
        self.slots[slot].prev = NIL;
        self.slots[slot].next = NIL;
        self.slots[slot].referenced = false;
    }

    fn push_front(&mut self, slot: usize) {
        self.slots[slot].prev = NIL;
        self.slots[slot].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    fn unlink(&mut self, slot: usize) {
        let (prev, next) = (self.slots[slot].prev, self.slots[slot].next);
        if prev != NIL {
            self.slots[prev].next = next;
        } else if self.head == slot {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else if self.tail == slot {
            self.tail = prev;
        }
        self.slots[slot].prev = NIL;
        self.slots[slot].next = NIL;
    }

    fn evict_one(&mut self) {
        self.evictions += 1;
        match self.policy {
            EvictionPolicy::Lru => {
                let victim = self.tail;
                debug_assert_ne!(victim, NIL, "evicting from empty pool");
                self.unlink(victim);
                let page = self.slots[victim].page;
                self.map.remove(&page);
                self.free_slot(victim);
            }
            EvictionPolicy::Clock => {
                // Sweep the slot arena as a circular buffer, clearing
                // reference bits until an unreferenced resident slot is hit.
                loop {
                    if self.slots.is_empty() {
                        return;
                    }
                    let idx = self.hand % self.slots.len();
                    self.hand = (self.hand + 1) % self.slots.len();
                    let page = self.slots[idx].page;
                    if self.map.get(&page) != Some(&idx) {
                        continue; // freed slot
                    }
                    if self.slots[idx].referenced {
                        self.slots[idx].referenced = false;
                    } else {
                        self.map.remove(&page);
                        self.free_slot(idx);
                        return;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(p: u32) -> PageId {
        PageId::new(FileId(0), p)
    }

    /// An invalidated file's slots reach the free list in slot order, so
    /// which slot Clock reuses next (the last freed) does not depend on
    /// the hasher's order.
    #[test]
    fn invalidation_frees_slots_in_slot_order() {
        for policy in [EvictionPolicy::Clock, EvictionPolicy::Lru] {
            // Slot `p` holds a page numbered `p` or `47 - p`: the file's
            // pages are probed in slot order or against it.
            for page_of in [|p: u32| p, |p: u32| 47 - p] {
                let mut pool = BufferPool::new(64, policy);
                for p in 0..48 {
                    pool.access(PageId::new(FileId(p % 3), page_of(p)));
                }
                pool.invalidate_file(FileId(1), 48);
                let freed: Vec<usize> = (0..48).filter(|slot| slot % 3 == 1).collect();
                assert_eq!(pool.free, freed, "{policy:?}");
            }
        }
    }

    #[test]
    fn zero_capacity_never_hits() {
        let mut pool = BufferPool::new(0, EvictionPolicy::Lru);
        assert!(!pool.access(pid(1)));
        assert!(!pool.access(pid(1)));
        assert_eq!(pool.resident(), 0);
    }

    #[test]
    fn repeated_access_hits() {
        let mut pool = BufferPool::new(4, EvictionPolicy::Lru);
        assert!(!pool.access(pid(1)));
        assert!(pool.access(pid(1)));
        assert!(pool.access(pid(1)));
        assert_eq!(pool.counters(), (2, 1, 0));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut pool = BufferPool::new(2, EvictionPolicy::Lru);
        pool.access(pid(1));
        pool.access(pid(2));
        pool.access(pid(1)); // 2 is now LRU
        pool.access(pid(3)); // evicts 2
        assert!(pool.contains(pid(1)));
        assert!(!pool.contains(pid(2)));
        assert!(pool.contains(pid(3)));
    }

    #[test]
    fn clock_gives_second_chance() {
        let mut pool = BufferPool::new(2, EvictionPolicy::Clock);
        pool.access(pid(1));
        pool.access(pid(2));
        // Both referenced; clock clears bits then evicts one of them.
        pool.access(pid(3));
        assert_eq!(pool.resident(), 2);
        assert!(pool.contains(pid(3)));
    }

    #[test]
    fn capacity_is_respected_under_churn() {
        for policy in [EvictionPolicy::Lru, EvictionPolicy::Clock] {
            let mut pool = BufferPool::new(8, policy);
            for i in 0..1000u32 {
                pool.access(pid(i % 50));
                assert!(pool.resident() <= 8, "{policy:?} overflowed");
            }
        }
    }

    #[test]
    fn sequential_scan_larger_than_pool_never_hits_lru() {
        let mut pool = BufferPool::new(8, EvictionPolicy::Lru);
        let mut hits = 0;
        for round in 0..3 {
            for i in 0..64u32 {
                if pool.access(pid(i)) {
                    hits += 1;
                }
            }
            // Classic LRU sequential-flooding: no reuse at all.
            assert_eq!(hits, 0, "round {round}");
        }
    }

    #[test]
    fn invalidate_file_drops_only_that_file() {
        let mut pool = BufferPool::new(16, EvictionPolicy::Lru);
        pool.access(PageId::new(FileId(1), 0));
        pool.access(PageId::new(FileId(1), 1));
        pool.access(PageId::new(FileId(2), 0));
        pool.invalidate_file(FileId(1), 2);
        assert!(!pool.contains(PageId::new(FileId(1), 0)));
        assert!(pool.contains(PageId::new(FileId(2), 0)));
        assert_eq!(pool.resident(), 1);
        // Pool continues to function after invalidation.
        for i in 0..40u32 {
            pool.access(PageId::new(FileId(3), i));
        }
        assert_eq!(pool.resident(), 16);
    }

    #[test]
    fn clock_invalidate_file_frees_slots_the_hand_skips() {
        // The Clock hand sweeps the slot arena; invalidate_file frees
        // slots in place, so the sweep must skip entries whose slot no
        // longer backs a resident page (`map[page] != idx`).  Interleave
        // two "accessors" (two files) so freed slots sit between live
        // ones, then force evictions through the holes.
        let mut pool = BufferPool::new(4, EvictionPolicy::Clock);
        pool.access(PageId::new(FileId(1), 0));
        pool.access(PageId::new(FileId(2), 0));
        pool.access(PageId::new(FileId(1), 1));
        pool.access(PageId::new(FileId(2), 1));
        assert_eq!(pool.resident(), 4);
        pool.invalidate_file(FileId(1), 2);
        assert_eq!(pool.resident(), 2);
        // Re-fill through the freed slots, then keep churning: every
        // eviction decision walks the hand across freed + live slots.
        for i in 0..100u32 {
            pool.access(PageId::new(FileId(3), i % 9));
            assert!(pool.resident() <= 4, "clock overflowed after invalidation");
        }
        // File 2's survivors were eventually evicted by the churn, not
        // resurrected by stale slot state.
        assert!(!pool.contains(PageId::new(FileId(1), 0)));
        let (_, _, evictions) = pool.counters();
        assert!(evictions > 0);
    }

    #[test]
    fn clock_second_chance_survives_interleaved_invalidation() {
        // A referenced page must still get its second chance when freed
        // slots separate it from the hand.
        let mut pool = BufferPool::new(3, EvictionPolicy::Clock);
        pool.access(PageId::new(FileId(1), 0)); // slot 0
        pool.access(PageId::new(FileId(2), 0)); // slot 1
        pool.access(PageId::new(FileId(1), 1)); // slot 2
        pool.invalidate_file(FileId(1), 2); // frees slots 0 and 2
        // Touch the survivor so its reference bit is set, then insert two
        // new pages (reusing freed slots) and force one eviction.
        assert!(pool.access(PageId::new(FileId(2), 0)));
        pool.access(PageId::new(FileId(3), 0));
        pool.access(PageId::new(FileId(3), 1));
        assert_eq!(pool.resident(), 3);
        // Next insert evicts: the referenced survivor is spared on the
        // first sweep (second chance), one of the unreferenced newcomers
        // goes — unless the hand's first full pass cleared it; either way
        // the pool stays consistent and at capacity.
        pool.access(PageId::new(FileId(3), 2));
        assert_eq!(pool.resident(), 3);
        assert!(pool.contains(PageId::new(FileId(3), 2)));
    }

    #[test]
    fn reset_pool_equals_new_pool() {
        for policy in [EvictionPolicy::Lru, EvictionPolicy::Clock] {
            let mut reused = BufferPool::new(4, policy);
            for i in 0..100u32 {
                reused.access(pid(i % 13));
            }
            reused.reset();
            assert_eq!(reused.resident(), 0);
            assert_eq!(reused.counters(), (0, 0, 0));
            let mut fresh = BufferPool::new(4, policy);
            for i in 0..100u32 {
                assert_eq!(reused.access(pid(i % 7)), fresh.access(pid(i % 7)), "{policy:?} @ {i}");
            }
            assert_eq!(reused.counters(), fresh.counters(), "{policy:?}");
        }
    }

    #[test]
    fn unbounded_pool_never_evicts() {
        let mut pool = BufferPool::unbounded();
        for i in 0..10_000u32 {
            pool.access(pid(i));
        }
        assert_eq!(pool.resident(), 10_000);
        assert_eq!(pool.counters().2, 0);
    }
}
