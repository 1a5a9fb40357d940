//! What the harness reads from `/proc`: CPU time and peak resident set of
//! itself or of a child it spawned. Linux only, like the rest of the
//! benchmark (loopback sockets, `nproc`).

use std::collections::BTreeSet;
use std::fs;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::Duration;

/// A `cpu_set_t`: 1024 CPUs, one bit each.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// glibc's `mallopt` parameters.
const M_MMAP_THRESHOLD: i32 = -3;
const M_ARENA_MAX: i32 = -8;

/// Makes the peak resident set of a multi-threaded run repeat: every
/// thread allocates from the main arena, and the size above which an
/// allocation gets pages of its own stays at glibc's initial 128 KiB.
///
/// Left alone, glibc gives each new thread whichever arena is free at
/// that moment and raises the threshold whenever a large block is freed,
/// so how far the heaps grow depends on thread timing: the sharded
/// engine's peak then reads anywhere from 12 to 18 MiB for one seed.
pub fn steady_malloc() {
    // SAFETY: `mallopt` only stores the two settings.
    let ok = unsafe { mallopt(M_ARENA_MAX, 1) == 1 && mallopt(M_MMAP_THRESHOLD, 128 << 10) == 1 };
    assert!(ok, "mallopt refused");
}

/// The CPUs this process may run on, ascending.
pub fn allowed_cpus() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: the kernel writes at most `size_of::<CpuSet>()` bytes into
    // the mask it is given the size of.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    assert_eq!(rc, 0, "sched_getaffinity failed");
    (0..1024)
        .filter(|cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

fn pin_thread(tid: i32, cpu: usize) {
    let mut set: CpuSet = [0; 16];
    set[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: the mask outlives the call and has the size passed. A
    // thread that has already exited makes the call fail, harmlessly.
    unsafe { sched_setaffinity(tid, std::mem::size_of::<CpuSet>(), &set) };
}

/// Thread ids of this process, ascending (creation order, until ids wrap).
fn thread_ids() -> BTreeSet<i32> {
    fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
        .collect()
}

/// Runs `f` and pins the first `workers` threads it starts to a CPU
/// each, in creation order, from `cpus` (round-robin).
///
/// The sharded engine starts its worker threads itself, so their
/// affinity cannot be set before they exist: a watcher thread polls
/// `/proc/self/task` for the new ids and ends as soon as it has placed
/// them. Left to the scheduler, two barrier-coupled workers sometimes
/// share a core and sometimes do not, and a repetition takes a third of
/// the time when they do.
pub fn with_workers_pinned<T>(workers: usize, cpus: &[usize], f: impl FnOnce() -> T) -> T {
    let done = AtomicBool::new(false);
    let (ready_tx, ready_rx) = mpsc::channel();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            // Taken here, so the watcher counts itself as known.
            let mut known = thread_ids();
            ready_tx.send(()).expect("caller waits");
            let mut placed = 0;
            while placed < workers && !done.load(Ordering::Acquire) {
                for tid in thread_ids() {
                    if placed < workers && known.insert(tid) {
                        pin_thread(tid, cpus[placed % cpus.len()]);
                        placed += 1;
                    }
                }
                std::thread::sleep(Duration::from_micros(200));
            }
        });
        ready_rx.recv().expect("watcher started");
        let out = f();
        done.store(true, Ordering::Release);
        out
    })
}

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/<pid>/stat`. `USER_HZ` is 100 on every Linux ABI.
const TICKS_PER_SECOND: f64 = 100.0;

/// `"self"` or a pid, as a `/proc` path component.
fn proc_dir(pid: Option<u32>) -> String {
    pid.map_or_else(|| "self".to_owned(), |p| p.to_string())
}

/// User + system CPU seconds consumed so far by the process (all its
/// threads, living or exited). `None` is this process.
pub fn cpu_seconds(pid: Option<u32>) -> f64 {
    let path = format!("/proc/{}/stat", proc_dir(pid));
    let stat = fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    // The command name (field 2) may hold spaces; fields are counted
    // from the closing parenthesis, after which `state` is field 3.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let fields: Vec<&str> = rest.split_ascii_whitespace().collect();
    let ticks = |i: usize| -> f64 { fields[i - 3].parse().expect("numeric stat field") };
    (ticks(14) + ticks(15)) / TICKS_PER_SECOND
}

/// Peak resident set size (`VmHWM`) of the process in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = format!("/proc/{}/status", proc_dir(pid));
    let status = fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("{path} has no VmHWM line"));
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_counters_are_readable_and_monotonic() {
        let before = cpu_seconds(None);
        let mut x = 0u64;
        let t0 = std::time::Instant::now();
        while t0.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let after = cpu_seconds(None);
        assert!(after >= before + 0.03, "{before} -> {after}");
        assert!(peak_rss_mb(None) > 1.0);
    }
}
