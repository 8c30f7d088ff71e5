//! Thread placement, so that a run does not depend on a coin toss.
//!
//! The daemon has two busy threads (event loop, worker), the generator
//! has one, and the host this benchmark was defined on has two cores.
//! Left to the scheduler, about one daemon in five lives its whole life
//! with both busy threads parked on one core: closed-loop throughput
//! then reads 18 % higher and the open-loop p99 two to five times worse
//! than when they spread, so every metric is bimodal across runs (see
//! README, "why threads are placed"). The benchmark therefore fixes the
//! placement it measures: the generator on the lowest allowed CPU, and
//! the daemon's busiest threads — found by the CPU time they used during
//! warm-up, not by name — one per CPU from the highest down. With one
//! allowed CPU nothing is placed.

use std::io;

/// `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];
const SET_BYTES: usize = std::mem::size_of::<CpuSet>();

extern "C" {
    fn sched_getaffinity(
        pid: std::os::raw::c_int,
        size: usize,
        mask: *mut u64,
    ) -> std::os::raw::c_int;
    fn sched_setaffinity(
        pid: std::os::raw::c_int,
        size: usize,
        mask: *const u64,
    ) -> std::os::raw::c_int;
}

/// CPUs the calling thread may run on, ascending; empty if the kernel
/// will not say.
pub fn allowed_cpus() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, writable buffer of the size passed with it;
    // thread id 0 is the calling thread.
    if unsafe { sched_getaffinity(0, SET_BYTES, set.as_mut_ptr()) } != 0 {
        return Vec::new();
    }
    (0..SET_BYTES * 8)
        .filter(|&cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Restrict thread `tid` (0: the calling thread) to `cpus`.
pub fn set_affinity(tid: i32, cpus: &[usize]) -> io::Result<()> {
    let mut set: CpuSet = [0; 16];
    for &cpu in cpus.iter().filter(|&&cpu| cpu < SET_BYTES * 8) {
        set[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `set` is a live buffer of the size passed with it.
    match unsafe { sched_setaffinity(tid, SET_BYTES, set.as_ptr()) } {
        0 => Ok(()),
        _ => Err(io::Error::last_os_error()),
    }
}

/// Holds the calling thread on one CPU; gives its affinity back on drop.
pub struct Pin {
    previous: Vec<usize>,
}

impl Pin {
    /// Pin to the lowest allowed CPU. `None` (run unpinned) on a one-CPU
    /// host or where the affinity calls are refused.
    pub fn lowest_cpu() -> Option<Pin> {
        let previous = allowed_cpus();
        if previous.len() < 2 {
            return None;
        }
        set_affinity(0, &previous[..1]).ok()?;
        Some(Pin { previous })
    }
}

impl Drop for Pin {
    fn drop(&mut self) {
        let _ = set_affinity(0, &self.previous);
    }
}

/// CPU for each of `busiest` (thread ids, busiest first) out of `cpus`
/// (ascending): one each from the highest CPU down, for as many threads as
/// there are CPUs.
pub fn spread(busiest: &[i32], cpus: &[usize]) -> Vec<(i32, usize)> {
    busiest
        .iter()
        .zip(cpus.iter().rev())
        .map(|(&tid, &cpu)| (tid, cpu))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busiest_threads_take_the_highest_cpus() {
        assert_eq!(spread(&[70, 71, 72], &[0, 1]), [(70, 1), (71, 0)]);
        assert_eq!(spread(&[70, 71], &[0, 1, 2, 3]), [(70, 3), (71, 2)]);
        assert_eq!(spread(&[70], &[]), []);
    }

    #[test]
    fn pin_restores_the_previous_affinity() {
        let before = allowed_cpus();
        if let Some(pin) = Pin::lowest_cpu() {
            assert_eq!(allowed_cpus(), before[..1]);
            drop(pin);
        }
        assert_eq!(allowed_cpus(), before);
    }
}
