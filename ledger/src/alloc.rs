//! Counting global allocator: calls, requested bytes and the high-water of
//! live bytes, per thread.
//!
//! Counters are thread-local, so the allocator's path takes no atomic; every
//! counted phase (`Campaign::new` and `run`) executes on the thread that
//! reads the counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The allocator installed by `main.rs`.
pub struct Counting;

struct Counters {
    calls: Cell<u64>,
    bytes: Cell<u64>,
    /// Signed: a block may be freed by another thread than allocated it.
    live: Cell<i64>,
    peak: Cell<i64>,
}

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator neither allocates nor runs after teardown.
    static COUNTERS: Counters = const {
        Counters {
            calls: Cell::new(0),
            bytes: Cell::new(0),
            live: Cell::new(0),
            peak: Cell::new(0),
        }
    };
}

fn note(requested: usize, delta: i64) {
    // `try_with` so an allocation during thread teardown is forwarded
    // uncounted instead of panicking inside the allocator.
    let _ = COUNTERS.try_with(|c| {
        if requested > 0 {
            c.calls.set(c.calls.get() + 1);
            c.bytes.set(c.bytes.get() + requested as u64);
        }
        let live = c.live.get() + delta;
        c.live.set(live);
        if live > c.peak.get() {
            c.peak.set(live);
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only
// thread-local `Cell`s and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), layout.size() as i64);
        // SAFETY: the caller's layout, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), layout.size() as i64);
        // SAFETY: the caller's layout, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, -(layout.size() as i64));
        // SAFETY: `ptr` came from this allocator with this layout, hence
        // from `System` with the same layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size, new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr`, `layout` and `new_size` are the caller's, passed
        // through to the allocator that owns the block.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// This thread's counters at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocStats {
    /// `alloc` + `alloc_zeroed` + `realloc` calls.
    pub calls: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
    /// Live bytes now.
    pub live: i64,
    /// Highest `live` since the last [`reset_peak`].
    pub peak: i64,
}

/// Read this thread's counters.
pub fn stats() -> AllocStats {
    COUNTERS.with(|c| AllocStats {
        calls: c.calls.get(),
        bytes: c.bytes.get(),
        live: c.live.get(),
        peak: c.peak.get(),
    })
}

/// Restart the high-water mark from the current live bytes.
pub fn reset_peak() {
    COUNTERS.with(|c| c.peak.set(c.live.get()));
}
