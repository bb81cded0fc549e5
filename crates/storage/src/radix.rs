//! The one distribution sort of the workspace: a stable LSD radix sort by a
//! `u64` key.  The executor sorts rid lists and the sorter's row handles
//! with it; the workload generator sorts each indexed column's row
//! positions with it, once, and derives every index and calibrator order
//! from those.

/// Threshold below which the standard library's stable sort beats the
/// radix passes (each pass pays for a 2^11-entry counting table, whatever
/// the input's length).  Measured on 16-byte sort handles with the scratch
/// reused, on a 2-vCPU x86-64 box: for keys that differ in 17 bits (two
/// passes, the width of a workload column or a rid list) the two meet at
/// 256 rows (11.9 vs 11.1 ns a row), and the radix is 3.4x faster at 512;
/// keys that differ in all 64 bits (six passes) meet near 1 K rows.
pub const RADIX_MIN: usize = 1 << 8;

/// Bits per radix pass: 2^11 `u32` counters are an 8 KiB table on the stack.
const RADIX_BITS: u32 = 11;

/// Stable LSD radix sort by a `u64` key, `RADIX_BITS` (11) bits per pass, with
/// passes only over bit ranges in which keys differ: one OR/AND pre-pass
/// finds those bits, and each pass starts at the lowest differing bit not
/// yet sorted (a rid list differs in some slot bits and some page bits —
/// two passes, whatever lies between and above them).
///
/// The passes alternate between `items` and the caller's `scratch`, which
/// is resized to `items`' length (its contents are overwritten, never
/// read) and keeps whichever buffer the sort did not end in: a caller that
/// sorts again and again hands in the same scratch and allocates nothing.
///
/// Sorting is *real* work but its simulated cost is charged analytically
/// (`n log2 n` comparisons) by the executor's callers, so swapping the
/// comparison sort for a distribution sort changes wall time only — the
/// measured order and every charge stay identical.  Stability makes the
/// output order equal to a stable comparison sort's even with duplicate
/// keys.
pub fn radix_sort_by_u64_key<T: Copy>(
    items: &mut Vec<T>,
    scratch: &mut Vec<T>,
    key: impl Fn(&T) -> u64,
) {
    let n = items.len();
    if n < 2 {
        return;
    }
    if n < RADIX_MIN {
        items.sort_by_key(&key); // stable, like the radix passes
        return;
    }
    let (any, all) = items.iter().fold((0u64, u64::MAX), |(any, all), it| {
        let k = key(it);
        (any | k, all & k)
    });
    let mut differing = any ^ all;
    let mask = (1u64 << RADIX_BITS) - 1;
    // Every slot of the scratch is written before it is read: its old
    // contents and the fill value do not matter.
    scratch.resize(n, items[0]);
    // Whether the order so far is in `items` (else in `scratch`).
    let mut in_items = true;
    while differing != 0 {
        let shift = differing.trailing_zeros();
        differing &= !(mask << shift);
        let (src, dst) = if in_items { (&*items, &mut *scratch) } else { (&*scratch, &mut *items) };
        let mut counts = [0u32; 1 << RADIX_BITS];
        for it in src {
            counts[((key(it) >> shift) & mask) as usize] += 1;
        }
        let mut sum = 0u32;
        for c in counts.iter_mut() {
            let next = sum + *c;
            *c = sum;
            sum = next;
        }
        for it in src {
            let d = ((key(it) >> shift) & mask) as usize;
            dst[counts[d] as usize] = *it;
            counts[d] += 1;
        }
        in_items = !in_items;
    }
    if !in_items {
        std::mem::swap(items, scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn radix_sort_matches_stable_sort() {
        // Deterministic pseudo-random u64s exercising all digit positions.
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut items: Vec<(u64, u32)> = (0..20_000u32)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                // Mix full-range keys with heavy duplicates (stability).
                let k = if i % 3 == 0 { x } else { u64::from(i % 64) };
                (k, i)
            })
            .collect();
        let mut want = items.clone();
        want.sort_by_key(|&(k, _)| k);
        radix_sort_by_u64_key(&mut items, &mut Vec::new(), |&(k, _)| k);
        assert_eq!(items, want);
        // Small inputs take the std path.
        let mut small = vec![(3u64, 0u32), (1, 1), (2, 2), (1, 3)];
        radix_sort_by_u64_key(&mut small, &mut Vec::new(), |&(k, _)| k);
        assert_eq!(small, vec![(1, 1), (1, 3), (2, 2), (3, 0)]);
    }

    /// The passes are chosen from the bits in which keys differ; whichever
    /// bits those are, the order is a stable sort's.
    #[test]
    fn radix_sort_is_a_stable_sort_wherever_the_keys_differ() {
        const BASE: u64 = 0x00a5_0000_1234_5678;
        /// Maps a random word to a key.
        type Shape = fn(u64) -> u64;
        let shapes: [(&str, Shape); 6] = [
            ("bits >= 53 only", |r| BASE | (r << 53)),
            ("bit 0 only", |r| (BASE & !1) | (r & 1)),
            ("two distant ranges", |r| (r & 0xff) | (((r >> 20) & 0x7ff) << 32)),
            ("one range wider than a pass", |r| (r & 0x3f_ffff) << 20),
            ("all equal", |_| BASE),
            ("u64::MAX present", |r| if r % 5 == 0 { u64::MAX } else { r }),
        ];
        let mut x = 0x2545f4914f6cdd1du64;
        let mut word = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for (shape, key_of) in shapes {
            for n in [RADIX_MIN - 1, RADIX_MIN, RADIX_MIN + 1] {
                let mut items: Vec<(u64, u32)> = (0..n as u32).map(|i| (key_of(word()), i)).collect();
                let mut want = items.clone();
                want.sort_by_key(|&(k, _)| k);
                radix_sort_by_u64_key(&mut items, &mut Vec::new(), |&(k, _)| k);
                assert!(items == want, "{shape}, n = {n}");
            }
        }
    }
}
