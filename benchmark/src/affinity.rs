//! CPU affinity of the benchmark process.
//!
//! Every single-threaded measurement runs pinned to one CPU. The reason is
//! measured, not assumed: the shared two-CPU host this was developed on
//! hands out between one and two cores from minute to minute, and the
//! measured program sizes its compile worker pool from
//! `available_parallelism()` (`VmState::compile_batch` spawns that many OS
//! threads per batch). Unpinned, `short_programs` took 117–210 ms per
//! iteration depending on the neighbours (spread 40% over ten runs); pinned
//! it takes 100–103 ms, because one allowed CPU makes the program compile
//! on the calling thread. The price — the parallel compile path is not in
//! the gated timings — is reported by the traced pass as
//! `host.unpinned_wall_ratio`.
//!
//! The parallel part of `fleet_fanout` runs unpinned ([`Pin::widen`]).

/// `cpu_set_t`: 1024 CPU bits.
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

#[cfg(target_os = "linux")]
fn get() -> Option<CpuSet> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, writable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    (rc == 0).then_some(set)
}

#[cfg(target_os = "linux")]
fn set(set: &CpuSet) -> bool {
    // SAFETY: `set` is a live buffer of exactly the size passed; the call
    // only reads it. pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn get() -> Option<CpuSet> {
    None
}

#[cfg(not(target_os = "linux"))]
fn set(_: &CpuSet) -> bool {
    false
}

/// A thread pinned to one CPU, remembering where it was allowed before.
#[derive(Clone, Copy, Debug)]
pub struct Pin {
    allowed: CpuSet,
    one: CpuSet,
    /// The CPU the thread is pinned to.
    pub cpu: usize,
}

impl Pin {
    /// Pins the calling thread (and every thread it spawns later) to the
    /// highest-numbered CPU it is allowed on — interrupts and housekeeping
    /// favour CPU 0. `None` where affinity cannot be read or set; the run
    /// then stays unpinned.
    pub fn to_one_cpu() -> Option<Pin> {
        let allowed = get()?;
        let cpu = (0..1024)
            .rev()
            .find(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)?;
        let mut one: CpuSet = [0; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        set(&one).then_some(Pin { allowed, one, cpu })
    }

    /// Widens the calling thread's affinity back to every CPU it had.
    pub fn widen(&self) -> bool {
        set(&self.allowed)
    }

    /// Narrows the calling thread's affinity to the one CPU again.
    pub fn narrow(&self) -> bool {
        set(&self.one)
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn pinning_leaves_one_cpu_and_unpinning_restores_them() {
        // Affinity is per thread, so this does not disturb other tests.
        let before = std::thread::available_parallelism().unwrap().get();
        let pin = Pin::to_one_cpu().expect("affinity is settable on Linux");
        assert_eq!(std::thread::available_parallelism().unwrap().get(), 1);
        assert!(pin.widen());
        assert_eq!(std::thread::available_parallelism().unwrap().get(), before);
        assert!(pin.narrow());
        assert_eq!(std::thread::available_parallelism().unwrap().get(), 1);
        assert!(pin.widen());
    }
}
