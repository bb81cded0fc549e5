//! Rid sets: a dense bitmap over `page × slot`.
//!
//! System B in the paper (Figure 8) sorts the rows to be fetched "very
//! efficiently using a bitmap": qualifying rids are set in a bitmap and then
//! enumerated in physical order, converting random fetches into an in-order
//! sweep.  Bitmaps also implement index intersection ("bitmap-driven ...
//! intersection", §3.1).  [`RidSet`] is that bitmap, and the executor's one
//! representation of a set of rids: physical order is its iteration order,
//! a merge intersection is a word-wise AND, a hash intersection probes it.
//!
//! Layout: bit `page << slot_bits | slot` of a `Vec<u64>`, sized by the
//! span of the heap the rids address ([`RidSpan`], which the heap keeps):
//! `slot_bits` wide enough for its largest slot count and never under 6, so
//! a page's slots are a whole number of words — a *page group* — and the
//! fetch sweep takes its runs straight from them.  At the workloads' ~186
//! rows a page that is four words a page: 45 KB for a 2^18-row table.  Two
//! sets over one heap share the layout.
//!
//! What the set is *for* is real time only.  The simulated cost of ordering
//! or intersecting rids is charged analytically by the operators (`n log n`
//! comparisons, a hash per rid), whatever executes it.
//!
//! Not every list should become a set, and [`RidSet::build`] says so by
//! returning `None`: a short list is ordered faster by a comparison sort
//! than by clearing and walking any words at all, and a list short for the
//! span would cost words in proportion to the heap, not to the list.  Both
//! are decided from the list's length and the span alone, before anything
//! is allocated; a rid outside the span (a dangling rid past the heap)
//! refuses the set too, found while it is filled.  Callers keep the list
//! then.  A set that is built to be probed counts the probes in
//! ([`RidSet::build_for`]): four rids are worth 45 KB of words to a quarter
//! of a million probes.  Duplicates collapse — [`RidSet::len`] against the
//! list's length tells a caller to whom a multiset matters.

use crate::heap::{Rid, RidSpan};

/// Lists shorter than this stay lists: the standard library sorts up to
/// ~20 items by insertion, in tens of nanoseconds, which allocating any
/// words at all does not beat (16 rids: sort ahead; 64: the set ahead
/// 1.5x).
const MIN_RIDS: usize = 32;

/// Most words a set may spend per rid it orders or is probed with.  A word
/// costs about a nanosecond to clear and walk, a rid ten or more to sort:
/// at 4 words a rid the set still orders a list twice as fast as the sort,
/// near 6 they tie, at 16 the sort is twice as fast.
const MAX_WORDS_PER_RID: u64 = 4;

/// A set of rids as a dense bitmap in physical order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RidSet {
    words: Vec<u64>,
    /// Bits per page, as a shift; at least 6.
    slot_bits: u32,
    len: usize,
}

impl RidSet {
    /// The set of the rids in `rids`, which address a heap of span `span`,
    /// or `None` if the list is better left a list: shorter than 32 rids,
    /// or fewer than a quarter of the span's words (see the module header),
    /// or holding a rid outside the span.  Nothing is allocated for a list
    /// refused for its length.
    pub fn build(rids: &[Rid], span: RidSpan) -> Option<RidSet> {
        Self::build_for(rids, 0, span)
    }

    /// [`RidSet::build`] for a set that will also be asked
    /// [`RidSet::contains`] about `probes` other rids: the words are spent
    /// on those too, so it is the rids and the probes together that must
    /// number 32 and outnumber a quarter of the words.
    pub fn build_for(rids: &[Rid], probes: usize, span: RidSpan) -> Option<RidSet> {
        let uses = rids.len() + probes;
        let slot_bits = (32 - span.slots.saturating_sub(1).leading_zeros()).max(6);
        let words = u64::from(span.pages) << (slot_bits - 6);
        if uses < MIN_RIDS || words > uses as u64 * MAX_WORDS_PER_RID {
            return None;
        }
        let mut set = RidSet { words: vec![0; words as usize], slot_bits, len: 0 };
        for &rid in rids {
            if !span.contains(rid) {
                return None;
            }
            let at = ((rid.page as u64) << slot_bits) | rid.slot as u64;
            let word = &mut set.words[(at >> 6) as usize];
            let bit = 1u64 << (at & 63);
            set.len += usize::from(*word & bit == 0);
            *word |= bit;
        }
        Some(set)
    }

    /// Number of rids in the set (duplicates in the list counted once).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set holds no rid.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Words per page group.
    #[inline]
    fn group_words(&self) -> usize {
        1 << (self.slot_bits - 6)
    }

    /// The bit `rid` would occupy, if it lies inside the set's span.
    #[inline]
    fn position(&self, rid: Rid) -> Option<(usize, u64)> {
        if (rid.slot as u64) >> self.slot_bits != 0 {
            return None;
        }
        let at = ((rid.page as u64) << self.slot_bits) | rid.slot as u64;
        let word = at >> 6;
        (word < self.words.len() as u64).then_some((word as usize, 1u64 << (at & 63)))
    }

    /// Whether `rid` is in the set.  A slot or page beyond the set's span
    /// is simply absent.
    #[inline]
    pub fn contains(&self, rid: Rid) -> bool {
        self.position(rid).is_some_and(|(word, bit)| self.words[word] & bit != 0)
    }

    /// The intersection, word by word.  Two sets over one heap share a
    /// layout; sets built over different spans may differ in page count and
    /// in `slot_bits`, and a rid in both lies inside both spans, so the
    /// result takes the smaller of each.
    pub fn and(&self, other: &RidSet) -> RidSet {
        let slot_bits = self.slot_bits.min(other.slot_bits);
        let (group, ga, gb) = (1usize << (slot_bits - 6), self.group_words(), other.group_words());
        let pages = (self.words.len() / ga).min(other.words.len() / gb);
        let mut words = Vec::with_capacity(pages * group);
        for page in 0..pages {
            let (a, b) = (&self.words[page * ga..][..group], &other.words[page * gb..][..group]);
            words.extend(a.iter().zip(b).map(|(a, b)| a & b));
        }
        let len = words.iter().map(|w| w.count_ones() as usize).sum();
        RidSet { words, slot_bits, len }
    }

    /// The non-empty page groups in page order: each page number with its
    /// slots, ascending.  This is the run structure the fetch sweep works
    /// in — one page transition and one set of charges per group.
    pub fn pages(&self) -> impl Iterator<Item = (u32, Slots<'_>)> + '_ {
        self.words
            .chunks_exact(self.group_words())
            .enumerate()
            .filter(|(_, group)| group.iter().any(|&w| w != 0))
            .map(|(page, group)| (page as u32, Slots::new(group)))
    }

    /// The rids in physical order, each once.
    pub fn iter(&self) -> impl Iterator<Item = Rid> + '_ {
        self.pages().flat_map(|(page, slots)| slots.map(move |slot| Rid::new(page, slot)))
    }

    /// The largest rid in the set.
    pub fn last(&self) -> Option<Rid> {
        let word = self.words.iter().rposition(|&w| w != 0)?;
        let at = ((word as u64) << 6) | (63 - self.words[word].leading_zeros()) as u64;
        Some(Rid::new((at >> self.slot_bits) as u32, (at & ((1 << self.slot_bits) - 1)) as u32))
    }

    /// The prefix-popcount table that answers [`RidRanks::rank`] in constant
    /// time; one pass over the words to build.
    pub fn ranks(&self) -> RidRanks<'_> {
        let before = self
            .words
            .iter()
            .scan(0usize, |seen, w| {
                let before = *seen;
                *seen += w.count_ones() as usize;
                Some(before)
            })
            .collect();
        RidRanks { set: self, before }
    }
}

/// The slots of one page group, ascending: slot `s` is bit `s % 64` of
/// word `s / 64`, the layout of a heap's live-slot masks too.
#[derive(Debug, Clone)]
pub struct Slots<'a> {
    group: &'a [u64],
    /// Index of the next word of `group` to load.
    next: usize,
    /// Bits not yet yielded of `group[next - 1]`.
    word: u64,
}

impl<'a> Slots<'a> {
    /// The slots whose bits are set in `group`.
    #[inline]
    pub fn new(group: &'a [u64]) -> Self {
        Slots { group, next: 0, word: 0 }
    }

    /// The group's words, every slot of it, yielded or not.
    #[inline]
    pub fn words(&self) -> &'a [u64] {
        self.group
    }

    /// Whether these are exactly the slots `0..n`, none yielded yet: the
    /// group's first `n` bits set and every other clear.
    pub fn are_first(&self, n: usize) -> bool {
        let covered = |i: usize| n.saturating_sub(i * 64).min(64);
        let low_bits = |k: usize| if k == 64 { u64::MAX } else { (1u64 << k) - 1 };
        self.next == 0
            && n <= self.group.len() * 64
            && self.group.iter().enumerate().all(|(i, &w)| w == low_bits(covered(i)))
    }
}

impl Iterator for Slots<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        while self.word == 0 {
            self.word = *self.group.get(self.next)?;
            self.next += 1;
        }
        let bit = self.word.trailing_zeros();
        self.word &= self.word - 1;
        Some((self.next as u32 - 1) * 64 + bit)
    }
}

/// A [`RidSet`] with the count of members before each of its words.
#[derive(Debug)]
pub struct RidRanks<'a> {
    set: &'a RidSet,
    before: Vec<usize>,
}

impl RidRanks<'_> {
    /// How many members of the set are smaller than `rid`: a member's
    /// position in physical order.  Defined for any rid, inside the span or
    /// not.
    #[inline]
    pub fn rank(&self, rid: Rid) -> usize {
        let set = self.set;
        // A slot past the page group sorts after everything on its page.
        let slot = (rid.slot as u64).min(1 << set.slot_bits);
        let at = ((rid.page as u64) << set.slot_bits) + slot;
        let word = at >> 6;
        if word >= set.words.len() as u64 {
            return set.len;
        }
        let below = set.words[word as usize] & ((1u64 << (at & 63)) - 1);
        self.before[word as usize] + below.count_ones() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` rids scattered over `pages` pages of `per_page` slots.
    fn scattered(n: u32, pages: u32, per_page: u32) -> Vec<Rid> {
        (0..n)
            .map(|i| {
                let at = i.wrapping_mul(2_654_435_761) % (pages * per_page);
                Rid::new(at / per_page, at % per_page)
            })
            .collect()
    }

    /// The smallest span holding every rid of `rids`.
    fn span_of(rids: &[Rid]) -> RidSpan {
        let pages = rids.iter().map(|r| r.page + 1).max().unwrap_or(0);
        RidSpan { pages, slots: rids.iter().map(|r| r.slot + 1).max().unwrap_or(0) }
    }

    fn sorted_dedup(rids: &[Rid]) -> Vec<Rid> {
        let mut v = rids.to_vec();
        v.sort_unstable();
        v.dedup();
        v
    }

    #[test]
    fn iteration_is_sort_and_dedup() {
        let mut rids = scattered(5000, 40, 186);
        rids.extend_from_within(..700);
        let set = RidSet::build(&rids, span_of(&rids)).unwrap();
        let want = sorted_dedup(&rids);
        assert_eq!(set.len(), want.len());
        assert!(!set.is_empty());
        assert_eq!(set.iter().collect::<Vec<_>>(), want);
        assert_eq!(set.last(), want.last().copied());
        let by_page: Vec<(u32, Vec<u32>)> = set.pages().map(|(p, s)| (p, s.collect())).collect();
        assert!(by_page.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(by_page.iter().map(|(_, s)| s.len()).sum::<usize>(), want.len());
    }

    /// A page group is its first `n` slots exactly when its slots are
    /// `0..n`, at every word boundary: one short, one past, slot 0 missing
    /// or a gap says no, and so does a group that has yielded a slot.
    #[test]
    fn are_first_is_a_group_of_exactly_the_first_slots() {
        let span = RidSpan { pages: 1, slots: 256 };
        // Whether the page group of `slots` on page 0 is its first `n`.
        let are_first = |slots: &[u32], n: usize| {
            let rids: Vec<Rid> = slots.iter().map(|&slot| Rid::new(0, slot)).collect();
            let set = RidSet::build_for(&rids, MIN_RIDS, span).unwrap();
            let (_, group) = set.pages().next().unwrap();
            group.are_first(n)
        };
        for n in [1usize, 63, 64, 65, 128, 186, 256] {
            let first: Vec<u32> = (0..n as u32).collect();
            assert!(are_first(&first, n), "{n}");
            assert!(!are_first(&first, n + 1), "{n}: one short");
            assert!(!are_first(&first, n - 1), "{n}: one past");
            if n > 1 {
                assert!(!are_first(&first[1..], n - 1), "{n}: slot 0 missing");
            }
            if n < 256 {
                let gap: Vec<u32> = (0..=n as u32).filter(|&slot| slot as usize != n / 2).collect();
                assert!(!are_first(&gap, n), "{n}: a gap");
            }
        }
        let rids: Vec<Rid> = (0..64).map(|slot| Rid::new(0, slot)).collect();
        let set = RidSet::build(&rids, span).unwrap();
        let (_, mut group) = set.pages().next().unwrap();
        assert!(group.are_first(64));
        group.next();
        assert!(!group.are_first(64) && !group.are_first(63));
    }

    #[test]
    fn and_is_intersection_across_spans_and_slot_widths() {
        // Slots under 64 on one side, up to 300 on the other; one side
        // stops 20 pages before the other.
        let a = scattered(4000, 100, 60);
        let b = scattered(9000, 80, 300);
        let sa = RidSet::build(&a, span_of(&a)).unwrap();
        let sb = RidSet::build(&b, span_of(&b)).unwrap();
        assert_ne!(sa.slot_bits, sb.slot_bits);
        let want: Vec<Rid> = sorted_dedup(&a).into_iter().filter(|r| b.contains(r)).collect();
        assert!(!want.is_empty());
        for both in [sa.and(&sb), sb.and(&sa)] {
            assert_eq!(both.len(), want.len());
            assert_eq!(both.iter().collect::<Vec<_>>(), want);
        }
    }

    /// The span decides: a list inside it iterates as sort + dedup, a list
    /// short for it or a rid outside it refuses the set, and probes count
    /// toward the uses that pay for its words.
    #[test]
    fn the_span_sizes_the_set_and_bounds_its_rids() {
        // 40 pages of 186 slots: 4 words a page, 160 words, 40 uses.
        let span = RidSpan { pages: 40, slots: 186 };
        let mut rids = scattered(600, 40, 186);
        rids.extend_from_within(..90);
        let set = RidSet::build(&rids, span).expect("a list inside its span");
        assert_eq!(set.iter().collect::<Vec<_>>(), sorted_dedup(&rids));
        assert_eq!(set.len(), sorted_dedup(&rids).len());
        // The span, not the list, sizes the words: a list on page 0 alone
        // builds a set over all 40 pages, and one over a larger heap does not.
        let first_page = scattered(64, 1, 186);
        assert!(RidSet::build(&first_page, span).is_some());
        assert!(RidSet::build(&first_page, RidSpan { pages: 65, slots: 186 }).is_none());
        // One rid on the page past the span, or at the slot count, refuses.
        for stray in [Rid::new(40, 0), Rid::new(0, 186), Rid::new(u32::MAX - 1, 0)] {
            let mut with = rids.clone();
            with.insert(with.len() / 2, stray);
            assert!(RidSet::build(&with, span).is_none(), "{stray}");
            assert!(RidSet::build_for(&with, 1000, span).is_none(), "{stray}");
        }
        assert!(RidSet::build(&[Rid::new(39, 185)].repeat(40), span).is_some());
        // 32 uses is the floor, and 4 words a use the bound, probes counted.
        assert!(RidSet::build(&rids[..31], span).is_none());
        assert!(RidSet::build(&rids[..39], span).is_none(), "160 words for 39 rids");
        assert!(RidSet::build(&rids[..40], span).is_some());
        assert!(RidSet::build_for(&rids[..4], 27, span).is_none());
        assert!(RidSet::build_for(&rids[..4], 35, span).is_none());
        let few = RidSet::build_for(&rids[..4], 36, span).unwrap();
        assert_eq!(few.iter().collect::<Vec<_>>(), sorted_dedup(&rids[..4]));
        assert!(RidSet::build_for(&[], 40, span).unwrap().is_empty());
        // Nothing is allocated for a far span's words when the list is
        // short for it (2^32 pages would be 2^34 words here).
        assert!(RidSet::build(&rids, RidSpan { pages: u32::MAX, slots: 186 }).is_none());
    }
}
