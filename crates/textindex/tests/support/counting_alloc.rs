//! A counting `#[global_allocator]` for allocation-count,
//! allocation-byte and peak-heap regression tests, shared by `#[path]`
//! between the test binaries that need one
//! (`symphony-text`'s and `symphony-web`'s `tests/alloc.rs`). A binary
//! that includes it must keep every counted region in a single
//! `#[test]`: the counter is process-wide, so parallel test threads
//! would pollute each other's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
/// Bytes requested: a fresh block's size, or what a `realloc` adds to
/// the block it grows (a shrink adds nothing).
static BYTES: AtomicUsize = AtomicUsize::new(0);
/// Bytes in live blocks, and their high-water mark since the last
/// [`peak_live_bytes`] began.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn count(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes, Ordering::Relaxed);
}

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        grow(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        grow(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        grow(new_size.saturating_sub(layout.size()));
        let out = unsafe { System.realloc(ptr, layout, new_size) };
        shrink(layout.size().saturating_sub(new_size));
        out
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Run `f` and return how many heap allocations it performed.
pub fn allocations<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let (allocs, _, out) = allocations_and_bytes(f);
    (allocs, out)
}

/// Run `f` and return how many heap allocations it performed and how
/// many bytes they requested (see `BYTES`).
pub fn allocations_and_bytes<R>(f: impl FnOnce() -> R) -> (usize, usize, R) {
    let (allocs, bytes) = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    let out = f();
    (
        ALLOCS.load(Ordering::Relaxed) - allocs,
        BYTES.load(Ordering::Relaxed) - bytes,
        out,
    )
}

/// Bytes in live heap blocks right now.
#[allow(dead_code)] // not every including binary measures the heap
pub fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// Run `f` and return the high-water mark of live heap bytes while it
/// ran, above the live bytes when it began.
#[allow(dead_code)] // not every including binary measures the heap
pub fn peak_live_bytes<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let start = LIVE.load(Ordering::Relaxed);
    PEAK.store(start, Ordering::Relaxed);
    let out = f();
    (PEAK.load(Ordering::Relaxed) - start, out)
}
