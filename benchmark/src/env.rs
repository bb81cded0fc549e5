//! The process's view of its machine: CPU affinity, CPU time, peak
//! memory, and a fixed calibration kernel that says how fast the machine
//! was while a step ran.
//!
//! The three libc calls are declared here rather than pulled from a crate:
//! the sandbox is offline and the standard library exposes none of them.

#[cfg(not(target_os = "linux"))]
compile_error!("the benchmark reads /proc and calls sched_setaffinity: Linux only");

use std::time::Instant;

use crate::stats::median;

/// Words in the kernel's `cpu_set_t` (1024 CPUs).
const CPU_SET_WORDS: usize = 16;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn clock_gettime(clk_id: i32, tp: *mut Timespec) -> i32;
}

/// A set of CPUs the calling thread may run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuSet([u64; CPU_SET_WORDS]);

impl CpuSet {
    /// The calling thread's current affinity mask.
    pub fn current() -> Result<CpuSet, String> {
        let mut words = [0u64; CPU_SET_WORDS];
        // SAFETY: `words` is a live, writable buffer of exactly the byte
        // length passed; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&words), words.as_mut_ptr()) };
        if rc == 0 {
            Ok(CpuSet(words))
        } else {
            Err(format!(
                "sched_getaffinity failed: {}",
                std::io::Error::last_os_error()
            ))
        }
    }

    /// The set holding only this set's highest-numbered CPU: the lowest
    /// one takes the machine's device interrupts.
    pub fn last_only(&self) -> Option<CpuSet> {
        let (word, bits) = self.0.iter().enumerate().rev().find(|(_, w)| **w != 0)?;
        let mut words = [0u64; CPU_SET_WORDS];
        words[word] = 1u64 << (63 - bits.leading_zeros());
        Some(CpuSet(words))
    }

    /// Number of CPUs in the set.
    pub fn count(&self) -> u32 {
        self.0.iter().map(|w| w.count_ones()).sum()
    }

    /// CPU numbers in the set, ascending.
    pub fn cpus(&self) -> Vec<u32> {
        (0..(CPU_SET_WORDS * 64) as u32)
            .filter(|&c| (self.0[(c / 64) as usize] >> (c % 64)) & 1 == 1)
            .collect()
    }

    /// Restrict the calling thread — and every thread it spawns from now
    /// on, which inherit the mask — to this set.
    pub fn apply(&self) -> Result<(), String> {
        // SAFETY: `self.0` is a live buffer of exactly the byte length
        // passed; pid 0 names the calling thread.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&self.0), self.0.as_ptr()) };
        if rc != 0 {
            return Err(format!(
                "sched_setaffinity refused: {}",
                std::io::Error::last_os_error()
            ));
        }
        // The kernel may intersect the request with a cgroup's cpuset
        // without failing the call; trust only what reads back.
        match CpuSet::current() {
            Ok(now) if now == *self => Ok(()),
            Ok(now) => Err(format!(
                "asked for CPUs {:?}, kernel left {:?}",
                self.cpus(),
                now.cpus()
            )),
            Err(e) => Err(e),
        }
    }
}

/// User plus system CPU seconds the whole process has consumed.
pub fn process_cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` with the C layout.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_PROCESS_CPUTIME_ID is always available on Linux"
    );
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Seconds the hypervisor ran something else while this machine's CPUs
/// had work (the `steal` column of `/proc/stat`, all CPUs summed; 0 where
/// the kernel reports none).
pub fn stolen_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks = stat
        .lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8)?.parse::<f64>().ok());
    // `/proc/stat` counts in USER_HZ, which Linux fixes at 100 per second.
    ticks.unwrap_or(0.0) / 100.0
}

/// What a stretch of the run cost: as the wall clock read it, and in CPU
/// time of the whole process (every thread).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Cost {
    pub wall: f64,
    pub cpu: f64,
}

/// Measures a [`Cost`] from `start` to `stop`.
pub struct Stopwatch {
    t0: Instant,
    cpu0: f64,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch {
            cpu0: process_cpu_seconds(),
            t0: Instant::now(),
        }
    }

    pub fn stop(&self) -> Cost {
        Cost {
            wall: self.t0.elapsed().as_secs_f64(),
            cpu: process_cpu_seconds() - self.cpu0,
        }
    }
}

/// Peak resident set size so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// CPUs the process may use (the affinity mask, which is what a container
/// limits, rather than the machine's CPU count).
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Slots of the calibration kernel's pointer-chase ring (8 MiB of `u32`):
/// larger than the private caches, so contention for the shared cache and
/// memory shows, yet small against every workload's own footprint.
const CALIB_RING: usize = 1 << 21;
/// The kernel's four phases are sized to take about as long as each other
/// (1.2 ms on the reference machine): a neighbour that takes execution
/// units slows the integer chains, one that takes cache and memory slows
/// the chase, and the workloads feel both.
const CALIB_MIX_STEPS: u64 = 3 << 16;
const CALIB_CHASE_STEPS: usize = 3 << 12;
const CALIB_HASH_KEYS: usize = 1 << 15;
const CALIB_SORT_KEYS: usize = 1 << 16;

/// Milliseconds the calibration kernel takes on the reference machine: the
/// reference sandbox with nothing else running beside it.  Timings are
/// reported as if every step had run at this speed.
pub const REFERENCE_MS: f64 = 5.0;

/// SplitMix64: the benchmark's own source of fixed pseudo-random numbers.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A fixed kernel that says how fast the machine is right now.
///
/// A shared machine's speed moves by a fifth to a half, for a part of a
/// second or for minutes on end, with what its neighbours do; the same
/// pass then takes that much longer, in CPU time as on the wall clock, and
/// no amount of repetition inside one run averages a slow quarter of an
/// hour away.  So the benchmark reads this kernel after every step it
/// times and reports the step at the reference speed, `seconds x
/// REFERENCE_MS / reading`: run to run that is three to six times
/// steadier than the seconds themselves.
///
/// The kernel is a small stand-in for what the layers do — four
/// independent integer chains (throughput-bound), a dependent pointer
/// chase through 8 MiB (cache- and memory-bound), hash-map inserts and
/// probes, and a sort of random keys (branch-bound).  It shares no code
/// with the repository, so no change to the repository can move it: what
/// moves it is the machine.  All its memory is allocated here, once: a
/// reading allocates nothing, so the allocator and the page-fault path
/// stay out of it.
pub struct Calibration {
    /// One random cycle through all slots (Sattolo's shuffle).
    ring: Vec<u32>,
    keys: Vec<u64>,
    table: std::collections::HashMap<u64, usize>,
    /// Every reading so far, in milliseconds, in time order.
    samples: Vec<f64>,
}

impl Calibration {
    pub fn new() -> Calibration {
        let mut ring: Vec<u32> = (0..CALIB_RING as u32).collect();
        let mut state = 0xC0FF_EE00u64;
        for i in (1..CALIB_RING).rev() {
            ring.swap(i, (splitmix(&mut state) % i as u64) as usize);
        }
        let mut kernel = Calibration {
            ring,
            keys: vec![0; CALIB_SORT_KEYS],
            table: std::collections::HashMap::with_capacity(CALIB_HASH_KEYS),
            samples: Vec::new(),
        };
        // The first reading faults the key and table pages in: not a
        // reading of the machine.
        kernel.reading_ms();
        kernel.samples.clear();
        kernel
    }

    /// Readings so far.
    pub fn readings(&self) -> usize {
        self.samples.len()
    }

    /// The typical reading over the whole run: the machine's speed while
    /// this run measured, for comparing runs and machines.
    pub fn median_ms(&self) -> f64 {
        median(&self.samples)
    }

    /// How far the machine's speed moved between the first and the second
    /// half of the run, as a share of the first.
    pub fn drift(&self) -> f64 {
        let (early, late) = self.samples.split_at(self.samples.len() / 2);
        if early.is_empty() {
            return 0.0;
        }
        (median(late) / median(early) - 1.0).abs()
    }

    /// Run the kernel once and return what it took, in milliseconds.
    pub fn reading_ms(&mut self) -> f64 {
        let t0 = Instant::now();
        let mut lanes = [1u64, 2, 3, 4].map(|l| l + self.samples.len() as u64);
        let mut acc = 0u64;
        for _ in 0..CALIB_MIX_STEPS {
            for lane in &mut lanes {
                acc ^= splitmix(lane);
            }
        }
        let mut at = (acc % CALIB_RING as u64) as usize;
        for _ in 0..CALIB_CHASE_STEPS {
            at = self.ring[at] as usize;
        }
        let mut state = acc;
        self.keys.iter_mut().for_each(|k| *k = splitmix(&mut state));
        self.table.clear();
        let hashed = &self.keys[..CALIB_HASH_KEYS];
        for (i, &k) in hashed.iter().enumerate() {
            self.table.insert(k, i);
        }
        let hits = hashed
            .iter()
            .rev()
            .filter(|k| self.table.contains_key(k))
            .count();
        self.keys.sort_unstable();
        std::hint::black_box((acc, at, hits, self.keys[CALIB_SORT_KEYS / 2]));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        self.samples.push(ms);
        ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_only_picks_the_highest_cpu() {
        let mut words = [0u64; CPU_SET_WORDS];
        words[1] = 0b1010_0000;
        let set = CpuSet(words);
        assert_eq!(set.count(), 2);
        assert_eq!(set.cpus(), vec![69, 71]);
        let one = set.last_only().unwrap();
        assert_eq!(one.cpus(), vec![71]);
        assert_eq!(CpuSet([0; CPU_SET_WORDS]).last_only(), None);
    }

    #[test]
    fn process_clock_and_rss_read() {
        let before = process_cpu_seconds();
        let mut kernel = Calibration::new();
        assert_eq!(kernel.drift(), 0.0);
        let watch = Stopwatch::start();
        let reading = kernel.reading_ms();
        let cost = watch.stop();
        assert!(reading > 0.0 && kernel.median_ms() > 0.0 && kernel.drift() >= 0.0);
        assert!(cost.wall * 1e3 >= reading && cost.cpu > 0.0 && stolen_seconds() >= 0.0);
        assert!(process_cpu_seconds() > before);
        assert!(peak_rss_mib().unwrap() > 1.0);
        assert!(CpuSet::current().unwrap().count() >= 1);
    }
}
