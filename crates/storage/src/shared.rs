//! A buffer pool shared by many concurrently served queries.
//!
//! The paper names shared run-time resources — "resources (memory, I/O
//! bandwidth)" (§3) — as conditions that bend robustness maps, but a
//! private [`BufferPool`] per [`crate::Session`] makes contention invisible
//! by construction.  [`SharedBufferPool`] is the shared substrate the
//! concurrent serving layer runs on: one residency simulator and one
//! temp-file namespace, accessed by N per-query sessions.
//!
//! Three responsibilities live here:
//!
//! * **Residency.**  All queries hit/miss against one [`BufferPool`], so a
//!   page one query faulted in is a hit for every other query — and a page
//!   one query evicts is a re-read for its owner.  That is the contention
//!   (and the sharing) the `ext_concurrency` maps measure.
//! * **Attribution.**  Each registered query ([`QueryId`]) gets its own
//!   hit/miss counters alongside the pool-level ones, so per-query cost
//!   breakdowns survive sharing.  The per-query counters partition the
//!   pool-level ones exactly (asserted by `tests/concurrent_equivalence.rs`).
//! * **Temp-file allocation.**  Spilling operators (external sort, hash
//!   join/aggregation partitions) allocate temp [`FileId`]s.  With private
//!   pools a per-query counter was collision-free; on a shared pool two
//!   interleaved spills would reuse the same ids and corrupt each other's
//!   residency accounting.  The central allocator hands out each id at most
//!   once per epoch (until [`SharedBufferPool::reset`]).
//!
//! All three live in one `PoolInner`, which has two containers.  A
//! private [`crate::Session`] owns its `PoolInner` in a `RefCell`: nothing
//! is shared, so nothing is locked.  [`SharedBufferPool`] is the other: a
//! [`Mutex`] around the same `PoolInner` plus forwarding, so sessions on
//! worker threads can share it without `unsafe`.  The deterministic
//! scheduler in `core::serve` runs exactly one query at a time (baton
//! passing), so the lock is never contended there; it exists so the type
//! is `Sync` and the design stays honest if a truly parallel front end ever
//! appears.  Both containers run the same code on the same state, so a
//! private session and a shared pool with one registrant charge
//! identically (`private_session_equals_one_owner_shared_pool` in
//! `tests/prop_storage.rs`).

use std::sync::{Mutex, MutexGuard};

use crate::buffer::{BufferPool, EvictionPolicy, FileId, PageId};

/// Identity of one registered query on a [`SharedBufferPool`].
///
/// Ids are dense (0, 1, 2, ...) in registration order and are never reused
/// within a pool's lifetime — [`SharedBufferPool::reset`] zeroes the
/// per-query counters but keeps registrations valid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub u32);

/// Per-query slice of the pool-level hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryShare {
    /// Page requests this query satisfied from the pool.
    pub hits: u64,
    /// Page requests this query took to the (simulated) disk.
    pub misses: u64,
}

/// Residency, per-query attribution and the temp-file allocator: the state
/// behind both a private session's pool and a [`SharedBufferPool`].
#[derive(Debug)]
pub(crate) struct PoolInner {
    pool: BufferPool,
    shares: Vec<QueryShare>,
    temp_next: u32,
}

impl PoolInner {
    pub(crate) fn new(pool: BufferPool) -> Self {
        PoolInner { pool, shares: Vec::new(), temp_next: 0 }
    }

    pub(crate) fn register_query(&mut self) -> QueryId {
        self.shares.push(QueryShare::default());
        QueryId(self.shares.len() as u32 - 1)
    }

    /// `n >= 1` consecutive accesses to `page` by `query`
    /// ([`BufferPool::access_run`]), attributed to its share: whether the
    /// first hit, and how many of the `n` did.
    #[inline]
    pub(crate) fn access_run(&mut self, query: QueryId, page: PageId, n: u64) -> (bool, u64) {
        let (first, hits) = self.pool.access_run(page, n);
        let share = &mut self.shares[query.0 as usize];
        if hits != 0 {
            share.hits += hits;
        }
        if hits != n {
            share.misses += n - hits;
        }
        (first, hits)
    }

    pub(crate) fn invalidate_file(&mut self, file: FileId, pages: u32) {
        self.pool.invalidate_file(file, pages);
    }

    pub(crate) fn alloc_temp_file(&mut self, base: u32) -> FileId {
        let n = self.temp_next;
        self.temp_next = n + 1;
        FileId(base + n)
    }

    pub(crate) fn counters(&self) -> (u64, u64, u64) {
        self.pool.counters()
    }

    pub(crate) fn query_counters(&self, query: QueryId) -> QueryShare {
        self.shares[query.0 as usize]
    }

    pub(crate) fn capacity(&self) -> usize {
        self.pool.capacity()
    }

    pub(crate) fn resident(&self) -> usize {
        self.pool.resident()
    }

    pub(crate) fn reset(&mut self) {
        self.pool.reset();
        for share in &mut self.shares {
            *share = QueryShare::default();
        }
        self.temp_next = 0;
    }
}

/// One buffer pool + temp-file namespace shared by N queries.
#[derive(Debug)]
pub struct SharedBufferPool {
    inner: Mutex<PoolInner>,
}

impl SharedBufferPool {
    /// A shared pool holding at most `capacity_pages` pages under `policy`.
    pub fn new(capacity_pages: usize, policy: EvictionPolicy) -> Self {
        Self::from_pool(BufferPool::new(capacity_pages, policy))
    }

    /// Wrap an existing pool.
    pub fn from_pool(pool: BufferPool) -> Self {
        SharedBufferPool { inner: Mutex::new(PoolInner::new(pool)) }
    }

    pub(crate) fn lock(&self) -> MutexGuard<'_, PoolInner> {
        self.inner.lock().expect("shared buffer pool lock poisoned")
    }

    /// Register a new query, returning its identity for attribution.
    pub fn register_query(&self) -> QueryId {
        self.lock().register_query()
    }

    /// Touch `page` on behalf of `query`: returns `true` on a hit, `false`
    /// on a miss (the page becomes resident either way).  Both the
    /// pool-level and the query's counters are updated.
    pub fn access(&self, query: QueryId, page: PageId) -> bool {
        self.lock().access_run(query, page, 1).0
    }

    /// Drop pages `0..pages` of `file` from the pool (a temp file deleted
    /// after a sort run or spill partition is consumed):
    /// [`BufferPool::invalidate_file`].
    pub fn invalidate_file(&self, file: FileId, pages: u32) {
        self.lock().invalidate_file(file, pages);
    }

    /// Allocate a temp-file id above `base` (the catalog's first free file
    /// id).  Central and monotone: concurrent spilling queries can never
    /// receive the same id, no matter how their allocations interleave.
    pub fn alloc_temp_file(&self, base: u32) -> FileId {
        self.lock().alloc_temp_file(base)
    }

    /// Pool-level `(hits, misses, evictions)` since construction or the
    /// last [`reset`](Self::reset).
    pub fn counters(&self) -> (u64, u64, u64) {
        self.lock().counters()
    }

    /// `query`'s share of the pool-level hit/miss counters.
    pub fn query_counters(&self, query: QueryId) -> QueryShare {
        self.lock().query_counters(query)
    }

    /// Configured capacity in pages.
    pub fn capacity(&self) -> usize {
        self.lock().capacity()
    }

    /// Number of pages currently resident.
    pub fn resident(&self) -> usize {
        self.lock().resident()
    }

    /// Whether `page` is currently resident (does not update recency).
    pub fn contains(&self, page: PageId) -> bool {
        self.lock().pool.contains(page)
    }

    /// Restore the as-constructed state: pool cold with zeroed counters
    /// (same capacity and policy), every query's share zeroed, and the
    /// temp-file allocator rewound to `base + 0`.  Registrations stay
    /// valid.  The serving layer resets the pool whenever it goes idle, so
    /// a query admitted into an idle system starts exactly as cold as a
    /// fresh private session — the concurrency-1 bit-identity contract.
    pub fn reset(&self) {
        self.lock().reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(f: u32, p: u32) -> PageId {
        PageId::new(FileId(f), p)
    }

    #[test]
    fn per_query_shares_partition_pool_counters() {
        let pool = SharedBufferPool::new(8, EvictionPolicy::Lru);
        let q0 = pool.register_query();
        let q1 = pool.register_query();
        pool.access(q0, pid(1, 0)); // q0 miss
        pool.access(q1, pid(1, 0)); // q1 hit (faulted in by q0)
        pool.access(q1, pid(1, 1)); // q1 miss
        pool.access(q0, pid(1, 1)); // q0 hit
        pool.access(q0, pid(1, 0)); // q0 hit
        let s0 = pool.query_counters(q0);
        let s1 = pool.query_counters(q1);
        assert_eq!(s0, QueryShare { hits: 2, misses: 1 });
        assert_eq!(s1, QueryShare { hits: 1, misses: 1 });
        let (hits, misses, _) = pool.counters();
        assert_eq!(hits, s0.hits + s1.hits);
        assert_eq!(misses, s0.misses + s1.misses);
    }

    #[test]
    fn interleaved_temp_allocations_never_collide() {
        let pool = SharedBufferPool::new(4, EvictionPolicy::Lru);
        // Two spilling queries alternating allocations (the schedule an
        // interleaved pair of external sorts produces): ids must be
        // pairwise distinct and above the catalog base.
        let base = 100;
        let mut seen = std::collections::HashSet::new();
        for _round in 0..4 {
            for _query in 0..2 {
                let id = pool.alloc_temp_file(base);
                assert!(id.0 >= base);
                assert!(seen.insert(id), "temp file id {id:?} allocated twice");
            }
        }
        assert_eq!(seen.len(), 8);
    }

    #[test]
    fn reset_rewinds_allocator_and_shares_but_keeps_registrations() {
        let pool = SharedBufferPool::new(4, EvictionPolicy::Lru);
        let q = pool.register_query();
        pool.access(q, pid(1, 0));
        let first = pool.alloc_temp_file(10);
        pool.reset();
        assert_eq!(pool.resident(), 0);
        assert_eq!(pool.counters(), (0, 0, 0));
        assert_eq!(pool.query_counters(q), QueryShare::default());
        // Allocator rewound: the next epoch reuses the same id sequence.
        assert_eq!(pool.alloc_temp_file(10), first);
        // The registration survives the reset.
        assert!(!pool.access(q, pid(1, 0)));
        assert_eq!(pool.query_counters(q), QueryShare { hits: 0, misses: 1 });
    }

    #[test]
    fn clock_policy_with_interleaved_accessors_and_invalidation() {
        // Satellite coverage: Clock's second-chance path under
        // invalidate_file with two interleaved accessors.  Invalidation
        // frees arena slots mid-ring; the clock hand must skip the freed
        // slots and the pool must keep enforcing capacity.
        let pool = SharedBufferPool::new(4, EvictionPolicy::Clock);
        let q0 = pool.register_query();
        let q1 = pool.register_query();
        // Fill the pool with two files, interleaved.
        pool.access(q0, pid(7, 0));
        pool.access(q1, pid(8, 0));
        pool.access(q0, pid(7, 1));
        pool.access(q1, pid(8, 1));
        assert_eq!(pool.resident(), 4);
        // Drop one query's temp file: its slots are freed in place.
        pool.invalidate_file(FileId(7), 2);
        assert_eq!(pool.resident(), 2);
        assert!(!pool.contains(pid(7, 0)));
        assert!(pool.contains(pid(8, 0)));
        // The survivor's pages must still hit; the victim's must re-read.
        assert!(pool.access(q1, pid(8, 0)));
        assert!(!pool.access(q0, pid(7, 0)));
        // Churn past capacity from both queries: the hand sweeps over the
        // freed/reused slots without stalling and capacity holds.
        for i in 0..64u32 {
            let q = if i % 2 == 0 { q0 } else { q1 };
            pool.access(q, pid(9, i % 11));
            assert!(pool.resident() <= 4);
        }
        let (hits, misses, evictions) = pool.counters();
        assert_eq!(hits + misses, 6 + 64);
        assert!(evictions > 0);
    }
}
