//! A counting global allocator owned by the benchmark.
//!
//! Counting is switched on per thread and only by the traced run, around
//! single calls into the program; every other allocation pays one
//! thread-local flag check. The counters are process-wide, but only a
//! thread whose flag is set adds to them, so other threads never pollute a
//! count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator plus per-thread opt-in counting.
pub struct Counting;

static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
}

fn note(size: usize) {
    if ON.with(Cell::get) {
        COUNT.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only atomics and
// a const-initialised thread-local `Cell`, neither of which allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's contract for `alloc` is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's contract for `alloc_zeroed` is passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller's contract for `realloc` is passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract for `dealloc` is passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation count and requested bytes made by `f` on this thread.
pub fn count<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (c0, b0) = (COUNT.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    ON.with(|on| on.set(true));
    let out = f();
    ON.with(|on| on.set(false));
    let (c1, b1) = (COUNT.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    (out, c1 - c0, b1 - b0)
}

#[cfg(test)]
mod tests {
    #[test]
    fn counts_exactly_what_the_closure_allocates() {
        let (v, n, bytes) = super::count(|| vec![0u8; 100]);
        assert_eq!((n, bytes), (1, 100));
        drop(v);
        let (_, n, _) = super::count(|| 1 + 1);
        assert_eq!(n, 0);
    }
}
