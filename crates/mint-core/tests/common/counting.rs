//! The counting `#[global_allocator]` of the allocation-budget suites.
//!
//! Counts are per thread, so neither the other tests of a binary nor the
//! shard workers a test starts can disturb a count: a suite reads what its
//! own thread allocated around the work it measures.

#![expect(
    unsafe_code,
    reason = "a global allocator is an `unsafe impl`; this one forwards every call to `System`"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated and has not freed.  Signed: a block may
    /// be freed by another thread than the one that allocated it.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

// `try_with`: a thread frees its own locals while it is torn down.
fn count() {
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

fn retain(bytes: i64) {
    let _ = LIVE_BYTES.try_with(|live| live.set(live.get() + bytes));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// only addition is two thread-local counter bumps, which allocate nothing
// (`const` initialisers, no destructors).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        retain(layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        retain(-(layout.size() as i64));
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        retain(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations (and reallocations) this thread has made so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Bytes this thread has allocated and not freed so far.
pub fn live_bytes() -> i64 {
    LIVE_BYTES.with(Cell::get)
}

/// Allocations (and reallocations) `work` made on this thread.
pub fn allocations_of<T>(work: impl FnOnce() -> T) -> (T, u64) {
    let before = allocations();
    let out = work();
    (out, allocations() - before)
}
