//! Charge sinks: where storage work is charged, now or later.
//!
//! The mutation paths — [`crate::BTree::insert`] / [`crate::BTree::delete`]
//! and the heap's [`crate::HeapFile::fetch`] /
//! [`crate::HeapFile::append_charged`] / [`crate::HeapFile::delete_charged`]
//! — charge through a [`ChargeSink`].  A [`Session`] charges at once.  A
//! [`ChargeLog`] records the calls and replays them into a session later,
//! in any order of whole segments the caller chooses.  That is what lets
//! the churn engine maintain its five indexes on two threads — the
//! two-column trees on a helper, the one-column trees on the caller — and
//! still land every charge on one session in operation order.
//!
//! A log records *what was asked* — a page and its access kind, a row or
//! comparison count — never what it cost: whether a read hits is decided
//! by the session's pool when the log is replayed.  So a replay charges,
//! counts and traces exactly what the same calls made on the session
//! would have, as long as the segments are replayed in the order the calls
//! would have been made.

use std::cell::RefCell;

use crate::buffer::PageId;
use crate::session::Session;
use crate::sim::AccessKind;

/// Something storage work can be charged to.
pub trait ChargeSink {
    /// One request for `page` with the given access pattern.
    fn read_page(&self, page: PageId, kind: AccessKind);
    /// One write of `page`.
    fn write_page(&self, page: PageId);
    /// CPU for `n` rows.
    fn charge_rows(&self, n: u64);
    /// CPU for `n` comparisons.
    fn charge_compares(&self, n: u64);
}

impl ChargeSink for Session {
    #[inline]
    fn read_page(&self, page: PageId, kind: AccessKind) {
        Session::read_page(self, page, kind);
    }

    #[inline]
    fn write_page(&self, page: PageId) {
        Session::write_page(self, page);
    }

    #[inline]
    fn charge_rows(&self, n: u64) {
        Session::charge_rows(self, n);
    }

    #[inline]
    fn charge_compares(&self, n: u64) {
        Session::charge_compares(self, n);
    }
}

/// One recorded [`ChargeSink`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Charge {
    Read(PageId, AccessKind),
    Write(PageId),
    Rows(u64),
    Compares(u64),
}

/// A recording [`ChargeSink`], cut into segments by [`ChargeLog::mark`].
///
/// Segment `k` holds the calls between the `k`-th mark and the one before
/// it; calls after the last mark belong to no segment until the next mark.
#[derive(Debug, Default)]
pub struct ChargeLog {
    charges: RefCell<Vec<Charge>>,
    /// End of each segment, as an index into `charges`.
    ends: Vec<usize>,
}

impl ChargeLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Close the current segment.
    pub fn mark(&mut self) {
        self.ends.push(self.charges.get_mut().len());
    }

    /// Closed segments so far.
    pub fn segments(&self) -> usize {
        self.ends.len()
    }

    /// Make every call of segment `k`, in order, on `sink`.
    ///
    /// # Panics
    /// Panics if `k >= self.segments()`.
    pub fn replay_segment<S: ChargeSink>(&self, k: usize, sink: &S) {
        let start = if k == 0 { 0 } else { self.ends[k - 1] };
        for &charge in &self.charges.borrow()[start..self.ends[k]] {
            match charge {
                Charge::Read(page, kind) => sink.read_page(page, kind),
                Charge::Write(page) => sink.write_page(page),
                Charge::Rows(n) => sink.charge_rows(n),
                Charge::Compares(n) => sink.charge_compares(n),
            }
        }
    }

    fn push(&self, charge: Charge) {
        self.charges.borrow_mut().push(charge);
    }
}

impl ChargeSink for ChargeLog {
    fn read_page(&self, page: PageId, kind: AccessKind) {
        self.push(Charge::Read(page, kind));
    }

    fn write_page(&self, page: PageId) {
        self.push(Charge::Write(page));
    }

    fn charge_rows(&self, n: u64) {
        self.push(Charge::Rows(n));
    }

    fn charge_compares(&self, n: u64) {
        self.push(Charge::Compares(n));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::FileId;
    use crate::heap::Rid;
    use crate::{BTree, Key};

    /// splitmix64: the test's op stream.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Structural changes one delete made, read off the tree and the
    /// session: every level charges one page request and one comparison
    /// charge, and each rebalance touches one sibling and then merges
    /// (a node fewer) or borrows (none fewer); a root collapse frees a node
    /// and a level without a touch.
    #[derive(Debug, Default)]
    struct Seen {
        splits: u64,
        borrows: u64,
        merges: u64,
        collapses: u64,
    }

    /// Random inserts and deletes on a tree of 4-entry nodes, once charged
    /// straight to a session and once through a log replayed afterwards
    /// into a second session: the two sessions read the same ticks,
    /// counters and charge events, and the trees end equal.  The stream
    /// grows the tree several levels deep and then empties it, so it
    /// splits, borrows, merges and collapses the root.
    #[test]
    fn a_replayed_log_charges_what_the_session_charged_directly() {
        let file = FileId(7);
        let (mut direct_tree, mut logged_tree) =
            (BTree::with_caps(file, 2, 4, 4), BTree::with_caps(file, 2, 4, 4));
        // A pool smaller than the tree, so hits depend on the access order.
        let (direct, replayed) = (Session::with_pool_pages(6), Session::with_pool_pages(6));
        let mut log = ChargeLog::new();
        let mut seen = Seen::default();
        let mut live: Vec<(Key, Rid)> = Vec::new();
        let mut state = 0x5EED;
        let mut max_height = 1;
        for step in 0..3000u32 {
            // Grow for the first half, shrink to empty in the second.
            let grow = step < 1500 && (live.is_empty() || !next(&mut state).is_multiple_of(4));
            let (height, nodes, events) =
                (direct_tree.height(), direct_tree.node_count(), direct.charge_events());
            if grow {
                let r = next(&mut state);
                let entry = (Key::pair((r % 97) as i64, (r >> 32) as i64 % 5), Rid::new(step, 0));
                assert!(direct_tree.insert(entry.0, entry.1, &direct));
                assert!(logged_tree.insert(entry.0, entry.1, &log));
                live.push(entry);
                seen.splits += (direct_tree.node_count() > nodes) as u64;
            } else if !live.is_empty() {
                let at = next(&mut state) as usize % live.len();
                let (key, rid) = live.swap_remove(at);
                assert!(direct_tree.delete(key, rid, &direct));
                assert!(logged_tree.delete(key, rid, &log));
                let touches = direct.charge_events() - events - 2 * height as u64;
                let collapses = (height - direct_tree.height()) as u64;
                let merges = (nodes - direct_tree.node_count()) as u64 - collapses;
                seen.borrows += touches - merges;
                seen.merges += merges;
                seen.collapses += collapses;
            }
            log.mark();
            max_height = max_height.max(direct_tree.height());
        }
        assert!(live.is_empty() && direct_tree.is_empty());
        assert!(max_height >= 4, "the stream grew the tree to height {max_height} only");
        assert!(
            seen.splits > 0 && seen.borrows > 0 && seen.merges > 0 && seen.collapses > 0,
            "the stream missed a structural change: {seen:?}"
        );
        assert_eq!(log.segments(), 3000);
        // Nothing reached the second session until now.
        assert_eq!(replayed.charge_events(), 0);
        for k in 0..log.segments() {
            log.replay_segment(k, &replayed);
        }
        assert_eq!(replayed.elapsed_ticks(), direct.elapsed_ticks());
        assert_eq!(replayed.stats(), direct.stats());
        assert_eq!(replayed.charge_events(), direct.charge_events());
        assert_eq!(replayed.pool_counters(), direct.pool_counters());
        assert_eq!(logged_tree.collect_all(), direct_tree.collect_all());
        assert_eq!(logged_tree.height(), 1);
    }

    /// Segments replay in the order asked, and the pool decides a read's
    /// cost when it is replayed.
    #[test]
    fn segments_replay_the_calls_between_marks() {
        let page = |n| PageId::new(FileId(1), n);
        let mut log = ChargeLog::new();
        log.read_page(page(1), AccessKind::Random);
        log.charge_compares(3);
        log.mark();
        log.mark();
        log.write_page(page(1));
        log.charge_rows(2);
        log.mark();
        log.charge_rows(9); // after the last mark: in no segment
        assert_eq!(log.segments(), 3);
        let s = Session::with_pool_pages(4);
        log.replay_segment(1, &s);
        assert_eq!(s.charge_events(), 0, "segment 1 is empty");
        log.replay_segment(2, &s);
        let stats = s.stats();
        assert_eq!((stats.page_writes, stats.cpu_rows, stats.random_reads), (1, 2, 0));
        // The write made the page resident, so segment 0's read hits.
        log.replay_segment(0, &s);
        let stats = s.stats();
        assert_eq!((stats.random_reads, stats.buffer_hits, stats.cpu_compares), (0, 1, 3));
        assert_eq!(s.charge_events(), 4);
    }
}
