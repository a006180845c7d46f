//! Process-level readings from `/proc/self` (Linux; zero elsewhere).

/// Kernel clock ticks per second for `/proc/self/stat` times. `USER_HZ`
/// is 100 on every Linux ABI; reading it properly needs `sysconf`.
const CLK_TCK: f64 = 100.0;

/// User + system CPU seconds of this process, exited threads included.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, 12th and 13th after the name.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let ticks: f64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks / CLK_TCK
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Restores the calling thread's CPU affinity when dropped.
#[derive(Debug)]
pub struct Pinned {
    #[cfg(target_os = "linux")]
    original: affinity::CpuSet,
}

/// Pins the calling thread — and every thread it spawns while the guard
/// lives — to the first CPU it is allowed on.
///
/// A closed loop with one request in flight never runs its two ends at
/// the same time, so one CPU loses nothing; what it removes is the
/// cross-CPU wakeup, which on a virtual machine costs a halt exit (45 µs
/// per heartbeat here, against 15 µs of work) and comes and goes between
/// identical runs with where the scheduler happens to put the threads.
pub fn pin_to_one_cpu() -> Pinned {
    #[cfg(target_os = "linux")]
    {
        let original = affinity::get();
        if let Some(cpu) = (0..affinity::BITS).find(|&cpu| affinity::has(&original, cpu)) {
            affinity::set(&affinity::only(cpu));
        }
        Pinned { original }
    }
    #[cfg(not(target_os = "linux"))]
    Pinned {}
}

impl Drop for Pinned {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        affinity::set(&self.original);
    }
}

/// `sched_{get,set}affinity` for the calling thread, straight from libc
/// (which `std` already links).
#[cfg(target_os = "linux")]
mod affinity {
    /// glibc's `cpu_set_t`: 1024 bits.
    pub type CpuSet = [u64; 16];
    pub const BITS: usize = 1024;

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    }

    /// The calling thread's mask; every CPU when the kernel refuses.
    pub fn get() -> CpuSet {
        let mut set = [0u64; 16];
        // SAFETY: `set` is a live, writable, properly aligned buffer of
        // exactly the `size_of::<CpuSet>()` bytes passed as its size; pid
        // 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
        if rc == 0 {
            set
        } else {
            [u64::MAX; 16]
        }
    }

    /// Applies `set` to the calling thread. Failure leaves the thread
    /// where it was, which only costs steadiness, so it is not an error.
    pub fn set(set: &CpuSet) {
        // SAFETY: `set` is a live, properly aligned buffer of exactly the
        // `size_of::<CpuSet>()` bytes passed as its size, only read by
        // the call; pid 0 names the calling thread.
        let _ = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set) };
    }

    pub fn has(set: &CpuSet, cpu: usize) -> bool {
        set[cpu / 64] & (1 << (cpu % 64)) != 0
    }

    pub fn only(cpu: usize) -> CpuSet {
        let mut set = [0u64; 16];
        set[cpu / 64] = 1 << (cpu % 64);
        set
    }
}
