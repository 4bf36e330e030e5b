//! Host speed, read from a fixed reference kernel timed between the
//! measured operations.
//!
//! On a shared host the same code runs up to half as fast again for
//! seconds or minutes at a time while other guests load the machine, and
//! a run can sit wholly inside such a phase. A kernel that never changes
//! slows down with it: on the 2-CPU build host the kernel below tracked
//! the slowdown of 128-node paper experiments with a correlation of 0.93.
//! Each operation's wall time is therefore reported in *reference time*:
//! wall time × [`NOMINAL_S`] / the kernel's time around it, which is the
//! wall time on a host where the kernel takes exactly [`NOMINAL_S`]. The
//! kernel is the benchmark's own code on the standard library only, so a
//! change to the program never changes it.

use std::time::{Duration, Instant};

/// Keys the reference kernel inserts, looks up and sorts: a working set
/// of a few hundred KiB, in L2 like the hot state of a 128-node sim.
const KERNEL_KEYS: u64 = 12_000;

/// The reference kernel's time that defines reference speed, seconds
/// (about its time on the quiet 2-CPU build host).
pub const NOMINAL_S: f64 = 0.004;

/// Fewest seconds between two readings: a reading costs about 4 ms.
const READ_EVERY_S: f64 = 0.1;

/// Readings on each side of an operation's mark that set its speed:
/// about a second of host time, shorter than the host's slow phases.
const WINDOW: usize = 4;

/// Seconds of one fixed round of mixed work: B-tree inserts and lookups,
/// an `f64` sort, and branchy float math over the sorted values.
pub fn reference_kernel_s() -> f64 {
    let t = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut map = std::collections::BTreeMap::new();
    for _ in 0..KERNEL_KEYS {
        map.insert(next() % (4 * KERNEL_KEYS), next());
    }
    let mut hits = 0u64;
    for _ in 0..KERNEL_KEYS {
        if let Some(v) = map.get(&(next() % (4 * KERNEL_KEYS))) {
            hits = hits.wrapping_add(*v);
        }
    }
    let mut values: Vec<f64> = (0..KERNEL_KEYS)
        .map(|_| (next() >> 11) as f64 / (1u64 << 53) as f64)
        .collect();
    values.sort_by(|a, b| a.total_cmp(b));
    let mut acc = 0.0;
    for (i, &y) in values.iter().enumerate() {
        if y > 0.5 {
            acc += (y * i as f64).sqrt().ln_1p();
        } else {
            acc -= y.exp();
        }
    }
    std::hint::black_box((hits, acc));
    t.elapsed().as_secs_f64()
}

/// Reference-kernel readings taken between operations, at most one per
/// [`READ_EVERY_S`]. An operation records the mark current when it
/// starts; its speed is the median of the readings within [`WINDOW`] of
/// the mark.
#[derive(Debug)]
pub struct SpeedLog {
    readings: Vec<f64>,
    last: Instant,
    every: Duration,
}

impl SpeedLog {
    /// A log with its first reading taken now, after one untimed round
    /// (the first round in a process also pays for faulting in its heap).
    pub fn new() -> Self {
        reference_kernel_s();
        let mut log = SpeedLog {
            readings: Vec::new(),
            last: Instant::now(),
            every: Duration::from_secs_f64(READ_EVERY_S),
        };
        log.read();
        log
    }

    /// Times the kernel once.
    pub fn read(&mut self) {
        self.readings.push(reference_kernel_s());
        self.last = Instant::now();
    }

    /// Reads the kernel if the interval has passed; returns the mark an
    /// operation starting now records.
    pub fn mark(&mut self) -> usize {
        if self.last.elapsed() >= self.every {
            self.read();
        }
        self.readings.len() - 1
    }

    /// Factor from wall time at `mark` to reference time.
    pub fn scale(&self, mark: usize) -> f64 {
        let lo = mark.saturating_sub(WINDOW);
        let hi = (mark + WINDOW + 1).min(self.readings.len());
        NOMINAL_S / crate::stats::median_of(&self.readings[lo..hi])
    }

    /// The run's host slowdown and reading count, for the report: the
    /// median reading over [`NOMINAL_S`] (above 1 is slower than
    /// reference speed).
    pub fn note(&self) -> serde_json::Value {
        serde_json::json!({
            "slowdown": crate::stats::median_of(&self.readings) / NOMINAL_S,
            "readings": self.readings.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log(readings: &[f64]) -> SpeedLog {
        SpeedLog {
            readings: readings.to_vec(),
            last: Instant::now(),
            every: Duration::from_secs(3600),
        }
    }

    #[test]
    fn scale_uses_the_median_of_neighbouring_readings() {
        // Readings 0-4 at twice reference speed, 5-11 at half, 12 an outlier.
        let mut readings = vec![0.002; 5];
        readings.extend([0.008; 7]);
        readings.push(0.100);
        let l = log(&readings);
        // Mark 9 sees readings 5..=12: median 0.008, half reference speed.
        assert_eq!(l.scale(9), 0.5);
        // The outlier beside the mark does not move it.
        assert_eq!(l.scale(10), 0.5);
        // Readings beyond the window do not count.
        assert_eq!(l.scale(0), 2.0);
        assert_eq!(l.note()["slowdown"].as_f64(), Some(2.0));
    }

    #[test]
    fn mark_reads_only_after_the_interval() {
        let mut l = log(&[0.004]);
        assert_eq!(l.mark(), 0);
        l.every = Duration::ZERO;
        assert_eq!(l.mark(), 1);
        assert_eq!(l.readings.len(), 2);
    }
}
