//! A counting global allocator: every `*.allocs_per_*` metric reads it.
//!
//! It is installed in traced and untraced runs alike, so its cost is the
//! same on both sides of any comparison.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Forwards to [`System`], counting allocations (including reallocations)
/// and the bytes they request.
pub struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // Statistics only: no other data is published through these counters.
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(bytes as u64, Relaxed);
    // `try_with` never panics, even while the thread is being torn down.
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only atomics
// and a const-initialised thread-local `Cell`, neither of which allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Fixes glibc's mmap and trim thresholds for the whole run.
///
/// By default glibc adapts both thresholds to the allocation history, so
/// identical runs land in different allocator states: the same
/// `verify-sparse` seed ran 30% slower in processes whose freed trace
/// memory went back to the kernel and was faulted in again on every op.
/// With fixed thresholds every run starts from the same policy.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn pin_thresholds() {
    use std::ffi::c_int;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    const M_TRIM_THRESHOLD: c_int = -1;
    const M_MMAP_THRESHOLD: c_int = -3;
    // SAFETY: `mallopt` only sets allocator parameters. It is called at
    // start-up before any other thread exists, with values inside the
    // documented ranges (the mmap threshold maximum is 32 MiB on 64-bit).
    // A rejected value leaves glibc's default, so the result is ignored.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
        mallopt(M_TRIM_THRESHOLD, 512 << 20);
    }
}

/// Other allocators keep their own policy.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn pin_thresholds() {}

/// Process-wide allocation count so far (all threads).
pub fn allocs() -> u64 {
    ALLOCS.load(Relaxed)
}

/// Process-wide bytes requested so far (all threads).
pub fn bytes() -> u64 {
    BYTES.load(Relaxed)
}

/// Allocations made by the calling thread so far.
#[cfg(test)]
pub fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_small_vec_is_exactly_one_allocation() {
        let before = thread_allocs();
        let v: Vec<u8> = Vec::with_capacity(1);
        let after = thread_allocs();
        std::hint::black_box(&v);
        assert_eq!(after - before, 1);
        assert!(allocs() >= 1 && bytes() >= 1);
    }
}
