//! Runs the serve phase on one CPU.
//!
//! With the client thread and the server's threads free to float over
//! the machine's CPUs, a closed-loop request pays a cross-CPU wakeup
//! whenever the scheduler puts the two on different CPUs, and where it
//! puts them changes from run to run. On a 2-vCPU VM that wakeup costs
//! 20–40 µs, so the p90 of predict hits read 53–64 µs unpinned against
//! 29–30 µs pinned over the same four seeds: the tail measured the
//! scheduler's placement, not the request path. Threads inherit their
//! creator's CPU mask, so a server started inside [`on_one_cpu`] keeps
//! its threads on that CPU for its whole life.

/// A Linux `cpu_set_t`: 1024 CPUs, one bit each.
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The calling thread's CPU mask.
#[cfg(target_os = "linux")]
fn current() -> Option<CpuSet> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a writable `cpu_set_t`-sized buffer and the size
    // passed is its size; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) };
    (rc == 0).then_some(mask)
}

/// Sets the calling thread's CPU mask; false when the kernel refused.
#[cfg(target_os = "linux")]
fn set(mask: &CpuSet) -> bool {
    // SAFETY: `mask` is a readable `cpu_set_t`-sized buffer and the size
    // passed is its size; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn current() -> Option<CpuSet> {
    None
}

#[cfg(not(target_os = "linux"))]
fn set(_: &CpuSet) -> bool {
    false
}

/// `mask` with only its lowest CPU left, or `None` for an empty mask.
fn lowest_cpu(mask: &CpuSet) -> Option<CpuSet> {
    let word = mask.iter().position(|&w| w != 0)?;
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << mask[word].trailing_zeros();
    Some(one)
}

/// Runs `f` with the calling thread on the lowest CPU it may use, so
/// threads `f` creates start there too, then restores the thread's
/// mask. Where the mask cannot be read or set, `f` runs unpinned and a
/// note goes to standard error.
pub fn on_one_cpu<R>(f: impl FnOnce() -> R) -> R {
    let saved = current();
    let pinned = saved
        .as_ref()
        .and_then(lowest_cpu)
        .is_some_and(|one| set(&one));
    if !pinned {
        eprintln!("perfbench: could not pin the serve phase to one CPU; running unpinned");
    }
    let out = f();
    if let (true, Some(saved)) = (pinned, saved) {
        set(&saved);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowest_cpu_keeps_one_bit() {
        let mut mask: CpuSet = [0; 16];
        mask[1] = 0b1100;
        mask[3] = 1;
        let mut want: CpuSet = [0; 16];
        want[1] = 0b100;
        assert_eq!(lowest_cpu(&mask), Some(want));
        assert_eq!(lowest_cpu(&[0; 16]), None);
    }

    #[test]
    fn threads_started_inside_inherit_the_pin_and_the_mask_is_restored() {
        let before = current();
        let inside = on_one_cpu(|| std::thread::spawn(current).join().unwrap());
        if let Some(mask) = inside {
            assert_eq!(mask.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
        }
        assert_eq!(current(), before);
    }
}
