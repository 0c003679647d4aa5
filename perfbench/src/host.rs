//! Host diagnostics. They are reported next to the other metrics so that
//! drift of the shared machine is visible, and are never used to rescale
//! anything.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// Milliseconds of a fixed integer loop over a 256 KiB buffer, which
/// stays resident in one core's L2: tracks CPU speed and steal, not
/// memory.
pub fn cpu_calib_ms() -> f64 {
    let mut buf: Vec<u32> = (0..64 * 1024).collect();
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut acc = 0x1234_5678u32;
            for _ in 0..48 {
                for b in buf.iter_mut() {
                    acc = acc.wrapping_mul(0x9e37_79b1).rotate_left(5) ^ *b;
                    *b = acc;
                }
            }
            black_box(acc);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    black_box(&buf);
    median(&times).unwrap_or(0.0)
}

/// Milliseconds of 4 M dependent random gathers over 64 MiB, far beyond
/// the caches: tracks memory latency under the other tenants' load.
pub fn mem_calib_ms() -> f64 {
    const N: usize = 16 << 20; // 16 M u32 = 64 MiB
    let buf: Vec<u32> = (0..N as u64)
        .map(|i| (crate::inputs::mix(i) as usize % N) as u32)
        .collect();
    let times: Vec<f64> = (0..3)
        .map(|rep| {
            let t = Instant::now();
            let mut idx = rep;
            for _ in 0..(4 << 20) {
                idx = buf[idx] as usize;
            }
            black_box(idx);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times).unwrap_or(0.0)
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Aggregate CPU time counters from `/proc/stat`, in ticks.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTimes {
    total: u64,
    steal: u64,
}

impl CpuTimes {
    /// Reads the aggregate `cpu` line; zeros when it is unavailable.
    pub fn now() -> Self {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .take(8)
            .filter_map(|f| f.parse().ok())
            .collect();
        CpuTimes {
            total: fields.iter().sum(),
            steal: fields.get(7).copied().unwrap_or(0),
        }
    }

    /// Share of CPU time stolen by the hypervisor between `self` and
    /// `later`.
    pub fn steal_ratio(self, later: CpuTimes) -> f64 {
        let total = later.total.saturating_sub(self.total);
        if total == 0 {
            0.0
        } else {
            later.steal.saturating_sub(self.steal) as f64 / total as f64
        }
    }
}
