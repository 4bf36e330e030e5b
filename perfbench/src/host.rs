//! Host context recorded with every result, so numbers from different
//! machines or builds are never compared without it showing.

use ppc_simkit::WorkerPool;
use serde_json::Value;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

/// Logical CPUs available to this process when it started (read once:
/// pinning narrows what the standard library would report later).
pub fn nproc() -> usize {
    allowed_cpus().len().max(1)
}

/// The kernel's `cpu_set_t`: a 1024-bit CPU mask.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs this process may run on, as it started.
fn allowed_cpus() -> &'static [usize] {
    static CPUS: OnceLock<Vec<usize>> = OnceLock::new();
    CPUS.get_or_init(|| {
        let mut mask: CpuSet = [0; 16];
        // SAFETY: `mask` is a live, writable 128-byte buffer and the size
        // passed is exactly its length; pid 0 names the calling thread.
        let ok = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) } == 0;
        if !ok {
            let n = std::thread::available_parallelism().map_or(1, |n| n.get());
            return (0..n).collect();
        }
        (0..1024)
            .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    })
}

/// Restricts the calling thread to `cpus`; false if the kernel refused.
fn run_on(cpus: &[usize]) -> bool {
    let mut mask: CpuSet = [0; 16];
    for &c in cpus {
        mask[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `mask` is a live 128-byte buffer and the size passed is
    // exactly its length; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &mask) == 0 }
}

/// Seconds of a fixed integer-mixing kernel over a 32 KiB table: how fast
/// the CPU the thread sits on runs right now.
fn cpu_probe_s() -> f64 {
    let mut table = [0u64; 4096];
    let t = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..1_000_000u64 {
        x = x.rotate_left(7) ^ i.wrapping_mul(0xA24B_AED4_963E_E407);
        let slot = (x as usize) & 4095;
        table[slot] = table[slot].wrapping_add(x);
    }
    std::hint::black_box(&table);
    t.elapsed().as_secs_f64()
}

/// Moves the calling thread onto the [`pool_width`] CPUs that run a fixed
/// probe fastest right now, and returns them. On a shared host one
/// virtual CPU can run a third slower than its sibling for minutes (its
/// physical core busy with other guests); a thread the scheduler moves
/// between them mixes both speeds into one run. Each pass calls this
/// again, so a pass starts on whichever CPUs are quick at the time.
/// Threads already running keep their placement.
pub fn pin_to_fastest_cpus() -> Vec<usize> {
    let allowed = allowed_cpus();
    if allowed.len() <= pool_width() {
        return allowed.to_vec();
    }
    let mut speed: Vec<(f64, usize)> = allowed
        .iter()
        .filter(|&&c| run_on(&[c]))
        .map(|&c| {
            (
                (0..3).map(|_| cpu_probe_s()).fold(f64::INFINITY, f64::min),
                c,
            )
        })
        .collect();
    speed.sort_by(|a, b| a.0.total_cmp(&b.0));
    let chosen: Vec<usize> = speed.iter().take(pool_width()).map(|&(_, c)| c).collect();
    if chosen.is_empty() || !run_on(&chosen) {
        run_on(allowed);
        return allowed.to_vec();
    }
    chosen
}

/// The benchmark's worker-pool width: half the available CPUs (at least
/// one, at most eight). On a host shared with other work, a pool as wide
/// as the machine waits on every descheduled worker at each join, which
/// made tick times on a 2-CPU host twice as noisy as one worker.
pub fn pool_width() -> usize {
    (nproc() / 2).clamp(1, 8)
}

/// An explicit pool of [`pool_width`] workers.
pub fn pool() -> std::sync::Arc<WorkerPool> {
    std::sync::Arc::new(WorkerPool::new(pool_width()))
}

/// `model name` from `/proc/cpuinfo`, if readable.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; "unknown" outside a git checkout.
fn git_commit() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host context as a JSON object.
pub fn context() -> Value {
    serde_json::json!({
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "pool_width": pool_width(),
        "build_profile": if cfg!(debug_assertions) { "debug" } else { "release" },
        "git_commit": git_commit(),
    })
}
