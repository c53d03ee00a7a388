//! A counting global allocator: the system allocator plus per-thread
//! counters, so the benchmark can report allocations per pass without
//! touching the simulator crates. Counting is switched on only for
//! traced passes; when off it costs one relaxed load per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// One thread's counters, on a cache line of its own so that worker
/// threads never contend on a shared counter.
#[repr(align(128))]
struct Slot {
    allocs: AtomicU64,
    bytes: AtomicU64,
}

const SLOTS: usize = 16;

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY: Slot = Slot {
    allocs: AtomicU64::new(0),
    bytes: AtomicU64::new(0),
};

static COUNTS: [Slot; SLOTS] = [EMPTY; SLOTS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);
static ON: AtomicBool = AtomicBool::new(false);

thread_local! {
    // No destructor: safe to touch from inside the allocator.
    static SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Counts every `alloc`, `alloc_zeroed` and `realloc` (a `realloc`
/// counts as one allocation of its new size) while switched on, and
/// forwards to [`System`].
pub struct Counting;

fn count(bytes: usize) {
    // Statistics only: they publish no other data, so `Relaxed` is
    // enough for the flag and the counters.
    if !ON.load(Ordering::Relaxed) {
        return;
    }
    let slot = SLOT.with(|s| {
        if s.get() == usize::MAX {
            s.set(NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % SLOTS);
        }
        s.get()
    });
    COUNTS[slot].allocs.fetch_add(1, Ordering::Relaxed);
    COUNTS[slot]
        .bytes
        .fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters allocate
// nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's guarantees on `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr`/`layout` came from `System` via this allocator
        // and the caller guarantees `new_size` is valid for `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Switches counting on or off.
pub fn set_counting(on: bool) {
    ON.store(on, Ordering::Relaxed);
}

/// Allocations and allocated bytes counted so far, over all threads.
pub fn snapshot() -> (u64, u64) {
    COUNTS.iter().fold((0, 0), |(a, b), s| {
        (
            a + s.allocs.load(Ordering::Relaxed),
            b + s.bytes.load(Ordering::Relaxed),
        )
    })
}
