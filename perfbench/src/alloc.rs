//! A switchable counting wrapper around the system allocator, for the
//! peak of heap bytes one unit of work holds.
//!
//! The process's peak resident set (`VmHWM`) moved by a quarter between
//! identical runs, because glibc's per-thread arenas keep or return
//! freed memory depending on which worker thread freed it. The peak of
//! bytes the program holds live is what a change to its memory use
//! moves, and it repeats to within the interleaving of its threads.
//!
//! Counting is off by default: every timed phase runs with one relaxed
//! load of a flag per allocation on top of the system allocator. The run
//! switches counting on only around a separate, untimed repetition of
//! its work ([`counted`]).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};

/// The system allocator, counting live and peak bytes while
/// [`counted`] runs. The counters publish no other data, so relaxed
/// ordering suffices.
pub struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
/// Bytes allocated minus bytes freed since counting began; frees of
/// blocks allocated before then can take it below zero.
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

fn grew(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        let bytes = bytes as isize;
        let now = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
        PEAK.fetch_max(now, Ordering::Relaxed);
    }
}

fn shrank(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        LIVE.fetch_sub(bytes as isize, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its result, so `System`'s guarantees hold; the
// counters are plain atomics and never touch the allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which is `System::alloc`'s.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // upholds the rest of `realloc`'s contract.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            grew(new_size);
            shrank(layout.size());
        }
        new
    }
}

/// Runs `f` with counting on and returns its result with the peak of
/// heap bytes it held above what was live when it began, in MiB. Not
/// reentrant: the run calls it once, with no other work in flight.
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, f64) {
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::SeqCst);
    let out = f();
    COUNTING.store(false, Ordering::SeqCst);
    let peak = PEAK.load(Ordering::Relaxed).max(0);
    (out, peak as f64 / (1024.0 * 1024.0))
}
