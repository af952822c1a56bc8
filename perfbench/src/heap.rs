//! Peak heap use of the benchmark process, counted by a wrapper around
//! the system allocator.
//!
//! The peak resident set is not steady between runs: on the host the
//! benchmark was written on it read 7.4-7.7 MB in most `sim_bin2` runs and
//! 9.1-9.3 MB in about a third of them, with the same seed giving either
//! (most likely through where the system allocator places and reuses
//! blocks, which decides the pages touched). The bytes the program holds
//! at once do not depend on that.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting live and peak bytes in [`COUNTERS`].
pub struct Counting;

/// Live and peak heap bytes.
///
/// Plain loads and stores rather than read-modify-write operations: a
/// locked add on every allocation made `functional` reads, which allocate,
/// measurably slower. The counts are exact while one thread allocates, as
/// in the untraced runs that report them; concurrent allocations may lose
/// updates. They publish no other data, so `Relaxed` is enough.
struct Counters {
    live: AtomicUsize,
    peak: AtomicUsize,
}

static COUNTERS: Counters = Counters::new();

impl Counters {
    const fn new() -> Counters {
        Counters {
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        }
    }

    fn grow(&self, bytes: usize) {
        let live = self.live.load(Ordering::Relaxed) + bytes;
        self.live.store(live, Ordering::Relaxed);
        if live > self.peak.load(Ordering::Relaxed) {
            self.peak.store(live, Ordering::Relaxed);
        }
    }

    fn shrink(&self, bytes: usize) {
        let live = self.live.load(Ordering::Relaxed).saturating_sub(bytes);
        self.live.store(live, Ordering::Relaxed);
    }

    fn peak_mb(&self) -> f64 {
        self.peak.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its result, so `System`'s guarantees hold; the
// counting only reads sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            COUNTERS.grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            COUNTERS.grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract, and
        // `ptr` came from `System` through this wrapper.
        unsafe { System.dealloc(ptr, layout) };
        COUNTERS.shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract, and
        // `ptr` came from `System` through this wrapper.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size > layout.size() {
                COUNTERS.grow(new_size - layout.size());
            } else {
                COUNTERS.shrink(layout.size() - new_size);
            }
        }
        p
    }
}

/// The most heap the process has held at once so far, MB.
pub fn peak_mb() -> f64 {
    COUNTERS.peak_mb()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_is_the_most_held_at_once() {
        let c = Counters::new();
        c.grow(3 << 20);
        c.shrink(2 << 20);
        c.grow(1 << 20);
        assert_eq!(c.peak_mb(), 3.0);
        c.grow(4 << 20);
        assert_eq!(c.peak_mb(), 6.0);
        c.shrink(64 << 20);
        assert_eq!(c.live.load(Ordering::Relaxed), 0);
    }
}
