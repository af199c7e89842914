//! CPU placement for the serve-mix phase.
//!
//! Threads inherit their creator's CPU mask, so pinning the calling
//! thread before `agequant_serve::start` places every server thread
//! (event loop, workers, the fleet-step shards they spawn) on those
//! CPUs; re-pinning it afterwards gives the load generator a core of
//! its own. Without this the scheduler's choice of placement — fixed
//! for a whole run — moved read latency by 2× between runs.

#![allow(unsafe_code)]

/// Words of the kernel CPU mask passed: room for 1024 CPUs.
const MASK_WORDS: usize = 16;
const MASK_CPUS: usize = MASK_WORDS * 64;

/// `SCHED_IDLE` from `<sched.h>`.
const SCHED_IDLE: i32 = 5;

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

/// The CPUs the calling thread may run on, ascending. Empty if the
/// kernel refuses to say.
#[must_use]
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, aligned, writable buffer of exactly
    // `size_of_val(&mask)` bytes, the size passed; pid 0 names the
    // calling thread; the kernel writes at most that many bytes.
    let ok = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } >= 0;
    if !ok {
        return Vec::new();
    }
    (0..MASK_CPUS)
        .filter(|&cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
        .collect()
}

/// Restricts the calling thread to `cpus`. False if the kernel
/// refused (the thread's placement is then unchanged).
pub fn pin_current_thread(cpus: &[usize]) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    for &cpu in cpus.iter().filter(|&&cpu| cpu < MASK_CPUS) {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a live, aligned buffer of exactly
    // `size_of_val(&mask)` bytes, the size passed; pid 0 names the
    // calling thread; the kernel only reads the buffer.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Moves the calling thread to `SCHED_IDLE`: it then runs only when
/// nothing else on its CPU can, and yields the moment anything wakes.
/// False if the kernel refused.
pub fn make_current_thread_idle() -> bool {
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `param` is a live `struct sched_param` (one `int`) that
    // the kernel only reads; pid 0 names the calling thread.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
}

/// Keeps the CPUs it is pinned to from going idle while the returned
/// guard lives: one `SCHED_IDLE` spinner per CPU. A halted virtual CPU
/// can take milliseconds to wake on a busy host; a spinning one wakes
/// a sleeping server thread at once, because the spinner gives way
/// immediately. Dropping the guard stops and joins the spinners.
pub struct Awake {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    spinners: Vec<std::thread::JoinHandle<()>>,
}

impl Awake {
    /// Starts a spinner pinned to each of `cpus`.
    #[must_use]
    pub fn on(cpus: &[usize]) -> Self {
        use std::sync::atomic::{AtomicBool, Ordering};
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let spinners = cpus
            .iter()
            .map(|&cpu| {
                let stop = std::sync::Arc::clone(&stop);
                std::thread::spawn(move || {
                    if !(pin_current_thread(&[cpu]) && make_current_thread_idle()) {
                        return;
                    }
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        Awake { stop, spinners }
    }
}

impl Drop for Awake {
    fn drop(&mut self) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for spinner in self.spinners.drain(..) {
            let _ = spinner.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_round_trips_on_a_thread() {
        std::thread::spawn(|| {
            let all = allowed_cpus();
            assert!(!all.is_empty());
            assert!(pin_current_thread(&all[..1]));
            assert_eq!(allowed_cpus(), all[..1].to_vec());
            assert!(pin_current_thread(&all));
            assert_eq!(allowed_cpus(), all);
        })
        .join()
        .expect("pinning thread");
    }
}
