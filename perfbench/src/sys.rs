//! Outside-in accounting from `/proc`: per-thread scheduler time and
//! context switches, process CPU time and peak memory. Linux only; a
//! missing file reads as zeros, which the printed figures make visible.

use std::time::Instant;

/// Scheduler accounting of the calling thread at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreadSample {
    /// Time on a CPU, ns (`schedstat` field 1).
    pub run_ns: u64,
    /// Time runnable but waiting for a CPU, ns (`schedstat` field 2).
    pub wait_ns: u64,
    /// Voluntary context switches: the thread blocked.
    pub voluntary: u64,
    /// Involuntary context switches: the thread was preempted.
    pub involuntary: u64,
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

fn status_field(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

impl ThreadSample {
    /// Sample the calling thread.
    pub fn now() -> ThreadSample {
        let sched = read("/proc/thread-self/schedstat");
        let mut it = sched
            .split_whitespace()
            .map(|v| v.parse::<u64>().unwrap_or(0));
        let run_ns = it.next().unwrap_or(0);
        let wait_ns = it.next().unwrap_or(0);
        let status = read("/proc/thread-self/status");
        ThreadSample {
            run_ns,
            wait_ns,
            voluntary: status_field(&status, "voluntary_ctxt_switches:"),
            involuntary: status_field(&status, "nonvoluntary_ctxt_switches:"),
        }
    }

    /// Counter-wise difference `self - earlier`.
    pub fn since(&self, earlier: &ThreadSample) -> ThreadSample {
        ThreadSample {
            run_ns: self.run_ns.saturating_sub(earlier.run_ns),
            wait_ns: self.wait_ns.saturating_sub(earlier.wait_ns),
            voluntary: self.voluntary.saturating_sub(earlier.voluntary),
            involuntary: self.involuntary.saturating_sub(earlier.involuntary),
        }
    }
}

/// CPU time of the whole process (every thread, exited ones included),
/// ns. `/proc/self/stat` counts in clock ticks; Linux reports them at
/// 100 per second to user space, so the resolution is 10 ms.
pub fn process_cpu_ns() -> u64 {
    let stat = read("/proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<u64> = rest
        .split_whitespace()
        .map(|v| v.parse().unwrap_or(0))
        .collect();
    let ticks = fields.get(11).copied().unwrap_or(0) + fields.get(12).copied().unwrap_or(0);
    ticks * 10_000_000
}

/// Peak resident set size (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    status_field(&read("/proc/self/status"), "VmHWM:") as f64 / 1024.0
}

/// Thread and process accounting around one measured call.
#[derive(Debug, Clone, Copy, Default)]
pub struct Span {
    /// Wall seconds.
    pub wall_s: f64,
    /// The calling thread's scheduler accounting over the call.
    pub thread: ThreadSample,
    /// Process CPU ns over the call (all threads).
    pub process_cpu_ns: u64,
}

/// Run `f`, recording wall time and the calling thread's and process's
/// CPU accounting around it.
pub fn span<T>(f: impl FnOnce() -> T) -> (T, Span) {
    let t0 = ThreadSample::now();
    let c0 = process_cpu_ns();
    let start = Instant::now();
    let out = f();
    let wall_s = start.elapsed().as_secs_f64();
    let thread = ThreadSample::now().since(&t0);
    let process_cpu_ns = process_cpu_ns().saturating_sub(c0);
    (
        out,
        Span {
            wall_s,
            thread,
            process_cpu_ns,
        },
    )
}

impl Span {
    /// Add `other`'s accounting to this span's, for a measurement made
    /// of several timed pieces.
    pub fn add(&mut self, other: &Span) {
        self.wall_s += other.wall_s;
        self.thread.run_ns += other.thread.run_ns;
        self.thread.wait_ns += other.thread.wait_ns;
        self.thread.voluntary += other.thread.voluntary;
        self.thread.involuntary += other.thread.involuntary;
        self.process_cpu_ns += other.process_cpu_ns;
    }

    /// Times the thread left the CPU, blocked or preempted.
    pub fn switches(&self) -> u64 {
        self.thread.voluntary + self.thread.involuntary
    }

    /// Share of wall time the thread spent on a CPU.
    pub fn busy_share(&self) -> f64 {
        self.thread.run_ns as f64 / 1e9 / self.wall_s
    }

    /// Share of wall time the thread was runnable but not running: CPU
    /// taken by other threads or other processes on the machine.
    pub fn runqueue_wait_share(&self) -> f64 {
        self.thread.wait_ns as f64 / 1e9 / self.wall_s
    }

    /// Share of wall time the thread was blocked (neither running nor
    /// runnable).
    pub fn blocked_share(&self) -> f64 {
        (1.0 - self.busy_share() - self.runqueue_wait_share()).max(0.0)
    }

    /// Share of wall time other threads of the process were on a CPU.
    pub fn other_threads_cpu_share(&self) -> f64 {
        (self.process_cpu_ns.saturating_sub(self.thread.run_ns)) as f64 / 1e9 / self.wall_s
    }
}

/// CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A CPU affinity mask, laid out as glibc's `cpu_set_t` (1024 CPUs).
pub type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The calling thread's CPU affinity.
pub fn affinity() -> CpuSet {
    let mut set = [0u64; 16];
    // SAFETY: `set` is a writable buffer of exactly the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    assert_eq!(rc, 0, "sched_getaffinity failed");
    set
}

/// Restrict the calling thread, and the threads it starts from now on,
/// to `set`.
pub fn set_affinity(set: &CpuSet) {
    // SAFETY: `set` is a readable buffer of exactly the size passed.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set) };
    assert_eq!(rc, 0, "sched_setaffinity failed");
}

/// The lowest-numbered CPU of `set`, alone.
pub fn first_cpu(set: &CpuSet) -> CpuSet {
    let mut one = [0u64; 16];
    if let Some(w) = set.iter().position(|&w| w != 0) {
        one[w] = set[w] & set[w].wrapping_neg();
    }
    one
}
