//! Counting global allocator: exact allocation bytes, calls and peak live
//! heap of the whole process, with a per-thread opt-out for the host-drift
//! reference kernel (its buffers are not the program's memory).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, AtomicU64, Ordering::Relaxed};

pub struct Counting;

static BYTES: AtomicU64 = AtomicU64::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

thread_local! {
    static UNCOUNTED: Cell<bool> = const { Cell::new(false) };
}

fn counted() -> bool {
    !UNCOUNTED.try_with(Cell::get).unwrap_or(false)
}

fn grow(size: usize) {
    BYTES.fetch_add(size as u64, Relaxed);
    CALLS.fetch_add(1, Relaxed);
    let live = LIVE.fetch_add(size as isize, Relaxed) + size as isize;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are plain atomics and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() && counted() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() && counted() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        if counted() {
            LIVE.fetch_sub(layout.size() as isize, Relaxed);
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() && counted() {
            LIVE.fetch_sub(layout.size() as isize, Relaxed);
            grow(new_size);
        }
        p
    }
}

/// Allocation totals since process start.
#[derive(Clone, Copy)]
pub struct Totals {
    pub bytes: u64,
    pub calls: u64,
}

pub fn totals() -> Totals {
    Totals { bytes: BYTES.load(Relaxed), calls: CALLS.load(Relaxed) }
}

impl Totals {
    pub fn since(self, start: Totals) -> Totals {
        Totals { bytes: self.bytes - start.bytes, calls: self.calls - start.calls }
    }
}

/// Restart peak tracking from the current live heap.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

pub fn peak_bytes() -> u64 {
    PEAK.load(Relaxed).max(0) as u64
}

/// Run `f` with this thread's allocations left out of every counter.
/// Whatever `f` allocates must also be freed inside it.
pub fn uncounted<R>(f: impl FnOnce() -> R) -> R {
    UNCOUNTED.with(|u| u.set(true));
    let r = f();
    UNCOUNTED.with(|u| u.set(false));
    r
}
