//! The one distribution sort of the workspace: a stable radix sort by a
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

/// Bytes of items (`n * size_of::<T>()`) from which the sort starts with
/// one most-significant-digit pass.  Below it every pass scatters the whole
/// array; once the array and its scratch outgrow a core's L2 (2 MiB on the
/// 2-vCPU x86-64 box the constants were measured on), a 2^11-bucket
/// scatter misses on most stores and each row costs about twice as much.
/// The MSD pass splits the array into at most 2^8 buckets that each fit,
/// and the remaining passes run bucket by bucket, in cache.
/// Measured on 16-byte `(value, position)` pairs whose keys differ in 17–18
/// bits (a workload column), the scratch reused, against LSD passes alone:
/// +13 % at 2^14 pairs (256 KiB), −25 % at 2^15, −36 % at 2^16 and −35 to
/// −39 % at 2^17–2^19; 8-byte rid-shaped keys (a few slot bits, page bits
/// above them) stay within ±4 % from 2 MiB on.  The cut-over sits at
/// 2 MiB, where the array alone fills L2.
pub const RADIX_MSD_MIN_BYTES: usize = 1 << 21;

/// Bits per radix pass: 2^11 `u32` counters are an 8 KiB table on the stack.
const RADIX_BITS: u32 = 11;

/// Bits of the most-significant-digit pass: 2^8 buckets.
const MSD_BITS: u32 = 8;

/// Stable radix sort by a `u64` key, with passes only over bit ranges in
/// which keys differ: one OR/AND pre-pass finds those bits.  Below
/// [`RADIX_MSD_MIN_BYTES`] it is an LSD sort of `RADIX_BITS` (11) bits per
/// pass, each pass starting at the lowest differing bit not yet sorted (a
/// rid list differs in some slot bits and some page bits — two passes,
/// whatever lies between and above them).  From there, when the differing
/// bits need more than one such pass, one stable pass on the top (at most
/// 8) differing bits comes first, and each of its buckets then takes the
/// LSD passes over the bits below, in cache.
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
/// keys, whichever passes ran.
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
    let differing = any ^ all;
    // Every slot of the scratch is written before it is read: its old
    // contents and the fill value do not matter.
    scratch.resize(n, items[0]);
    let msd = n * std::mem::size_of::<T>() >= RADIX_MSD_MIN_BYTES && !fits_one_pass(differing);
    let in_scratch = if msd {
        msd_then_lsd(items, scratch, differing, &key)
    } else {
        lsd(items, scratch, differing, &key)
    };
    if in_scratch {
        std::mem::swap(items, scratch);
    }
}

/// Whether the bits set in `differing` lie within one LSD pass.
fn fits_one_pass(differing: u64) -> bool {
    differing.checked_shr(differing.trailing_zeros()).unwrap_or(0) >> RADIX_BITS == 0
}

/// LSD passes over the bits set in `differing`, alternating between `a`
/// (where the items are) and `b`; returns whether the order ended in `b`.
fn lsd<T: Copy>(a: &mut [T], b: &mut [T], mut differing: u64, key: &impl Fn(&T) -> u64) -> bool {
    let mut counts = [0u32; 1 << RADIX_BITS];
    let mut in_a = true;
    while differing != 0 {
        let shift = differing.trailing_zeros();
        // A pass no wider than the bits left: a narrow last pass (and a
        // bucket's only pass) clears and sums a counting table its size.
        let bits = RADIX_BITS.min(64 - (differing >> shift).leading_zeros());
        differing &= !(((1u64 << bits) - 1) << shift);
        let (src, dst) = if in_a { (&*a, &mut *b) } else { (&*b, &mut *a) };
        scatter(src, dst, key, shift, &mut counts[..1 << bits]);
        in_a = !in_a;
    }
    !in_a
}

/// The MSD pass from `items` into `scratch` on the top (at most
/// `MSD_BITS`) bits of `differing`, then each bucket's LSD passes over the
/// bits below, between the bucket's two halves; returns whether the order
/// ended in `scratch`.  Every bucket takes the same passes, so all end on
/// the same side.
fn msd_then_lsd<T: Copy>(
    items: &mut [T],
    scratch: &mut [T],
    differing: u64,
    key: &impl Fn(&T) -> u64,
) -> bool {
    let top = 63 - differing.leading_zeros();
    let shift = (top + 1).saturating_sub(MSD_BITS).max(differing.trailing_zeros());
    let mut ends = [0u32; 1 << MSD_BITS];
    let ends = &mut ends[..1 << (top + 1 - shift)];
    scatter(items, scratch, key, shift, ends);
    let below = differing & ((1u64 << shift) - 1);
    let mut in_items = false;
    let mut start = 0;
    for &end in ends.iter() {
        let bucket = start..end as usize;
        in_items = lsd(&mut scratch[bucket.clone()], &mut items[bucket], below, key);
        start = end as usize;
    }
    !in_items
}

/// One stable counting pass from `src` into `dst` on the digit
/// `(key >> shift) & (counts.len() - 1)`.  `counts` (a power of two long)
/// is overwritten; on return `counts[d]` is the end of digit `d`'s bucket
/// in `dst`.
fn scatter<T: Copy>(
    src: &[T],
    dst: &mut [T],
    key: &impl Fn(&T) -> u64,
    shift: u32,
    counts: &mut [u32],
) {
    let mask = counts.len() as u64 - 1;
    counts.fill(0);
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

    /// Deterministic xorshift words.
    fn words(seed: u64) -> impl FnMut() -> u64 {
        let mut x = seed;
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    }

    /// Maps a random word to a key.
    type Shape = fn(u64) -> u64;

    /// Keys differing in 1, 17, 43 (a rid's page and slot bits) and 64
    /// bits, all equal, and heavy duplicates.
    const SHAPES: [(&str, Shape); 6] = [
        ("1 bit", |r| 0x00a5_0000_1234_5670 | (r & 1)),
        ("17 bits", |r| (r & 0x1_ffff) ^ (1 << 63)),
        ("43 bits", |r| ((r >> 21) & 0x7ff_ffff) << 16 | (r & 0xffff)),
        ("64 bits", |r| r),
        ("all equal", |_| 0x00a5_0000_1234_5678),
        ("heavy duplicates", |r| (r % 7) << 40 | (r >> 61)),
    ];

    /// Sizes on both sides of both cut-overs for items of `width` bytes.
    fn sizes(width: usize) -> [usize; 6] {
        let msd = RADIX_MSD_MIN_BYTES / width;
        [RADIX_MIN - 1, RADIX_MIN, RADIX_MIN + 1, msd - 1, msd, msd + 1]
    }

    /// Sorts `items` both ways and compares; the scratch is reused dirty.
    fn check<T: Copy + PartialEq + std::fmt::Debug>(
        mut items: Vec<T>,
        scratch: &mut Vec<T>,
        key: impl Fn(&T) -> u64,
        what: &str,
    ) {
        let mut want = items.clone();
        want.sort_by_key(&key);
        radix_sort_by_u64_key(&mut items, scratch, &key);
        assert!(items == want, "{what}");
    }

    /// A stable sort's order on 8- and 16-byte items, below and above both
    /// cut-overs, for keys differing in few bits, many bits or none.
    #[test]
    fn radix_sort_is_a_stable_sort_across_both_cut_overs() {
        let mut word = words(0x9e37_79b9_7f4a_7c15);
        let (mut wide, mut narrow) = (Vec::new(), Vec::new());
        for (shape, key_of) in SHAPES {
            for n in sizes(16) {
                let items: Vec<(u64, u64)> = (0..n as u64).map(|i| (key_of(word()), i)).collect();
                check(items, &mut wide, |&(k, _)| k, &format!("16 bytes, {shape}, n = {n}"));
            }
            // 8-byte items keyed by their top 32 bits' shape: the low half
            // tells equal keys apart, so a lost order shows.
            for n in sizes(8) {
                let items: Vec<u64> =
                    (0..n as u64).map(|i| key_of(word()) & !0xffff_ffff | i).collect();
                check(
                    items,
                    &mut narrow,
                    |&k| k >> 32 << 32,
                    &format!("8 bytes, {shape}, n = {n}"),
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Whatever bits keys differ in and however many rows share one,
        /// at sizes around the MSD cut-over the order is a stable sort's.
        #[test]
        fn radix_sort_matches_sort_by_key_around_the_msd_cut_over(
            seed in 1u64..u64::MAX,
            low in 0u32..64,
            width in 1u32..=64,
            distinct in 1u64..5000,
            extra in 0usize..600,
        ) {
            let n = RADIX_MSD_MIN_BYTES / 16 - 300 + extra;
            let mut word = words(seed);
            let mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
            let items: Vec<(u64, u32)> = (0..n as u32)
                .map(|i| (((word() % distinct).wrapping_mul(0x9e37_79b9) & mask) << low, i))
                .collect();
            let mut want = items.clone();
            want.sort_by_key(|&(k, _)| k);
            let mut got = items;
            radix_sort_by_u64_key(&mut got, &mut Vec::new(), |&(k, _)| k);
            proptest::prop_assert!(got == want);
        }
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
