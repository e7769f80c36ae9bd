//! A counting global allocator.
//!
//! Counting is off by default, so timed repetitions pay one relaxed load per
//! allocation.  Two ways of counting:
//!
//! * [`count_region`] counts what every thread allocates, in process-wide
//!   atomics, and tracks live and peak heap.  The counted pass of an
//!   end-to-end run uses it; nothing is timed while it is on.
//! * [`count_this_thread`] counts calls and bytes in thread-local cells, which
//!   costs a few nanoseconds per allocation instead of four locked
//!   instructions.  The traced pass keeps it on and reads [`thread_totals`]
//!   around each call into a layer.
//!
//! A thread can take itself out of either count ([`exclude_current_thread`]):
//! the tracer does so around its own record buffer, so that per-layer
//! allocation counts hold only what the library allocated.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicU8, Ordering};

const OFF: u8 = 0;
const EVERY_THREAD: u8 = 1;
const THIS_THREAD: u8 = 2;

static MODE: AtomicU8 = AtomicU8::new(OFF);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
// Signed: memory allocated before counting started may be freed while it is
// on, which takes the live figure below where it started.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

thread_local! {
    // Const-initialised and without destructors, so reading them from inside
    // the allocator never allocates and never runs during thread teardown.
    static EXCLUDED: Cell<bool> = const { Cell::new(false) };
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static THREAD_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The allocator installed by `main.rs`.
pub struct Counting;

/// The counting mode, or `OFF` on an excluded thread.
fn mode() -> u8 {
    let mode = MODE.load(Ordering::Relaxed);
    if mode != OFF && EXCLUDED.try_with(Cell::get).unwrap_or(true) {
        OFF
    } else {
        mode
    }
}

fn on_alloc(size: usize) {
    match mode() {
        EVERY_THREAD => {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(size as u64, Ordering::Relaxed);
            let live = LIVE.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        THIS_THREAD => {
            // `try_with` cannot fail here: `mode()` just read `EXCLUDED`,
            // which lives exactly as long as these two.
            let _ = THREAD_ALLOCS.try_with(|count| count.set(count.get() + 1));
            let _ = THREAD_BYTES.try_with(|bytes| bytes.set(bytes.get() + size as u64));
        }
        _ => {}
    }
}

fn on_free(size: usize) {
    if mode() == EVERY_THREAD {
        LIVE.fetch_sub(size as i64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its result unchanged; the counters are side effects
// that touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        on_free(layout.size());
        // SAFETY: `ptr` came from `System` through this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        on_free(layout.size());
        on_alloc(new_size);
        // SAFETY: `ptr` came from `System` through this allocator with
        // `layout`, and the caller guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation calls (a `realloc` counts as one) and bytes requested.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Allocation calls.
    pub allocs: u64,
    /// Bytes requested.
    pub bytes: u64,
}

/// What a counted region allocated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegionCount {
    /// Allocation calls and bytes requested inside the region.
    pub totals: Totals,
    /// Peak live heap inside the region minus live heap at entry.
    pub peak_bytes: u64,
}

/// Runs `region` while counting what every thread allocates.
pub fn count_region<T>(region: impl FnOnce() -> T) -> (T, RegionCount) {
    let live_at_entry = LIVE.load(Ordering::Relaxed);
    PEAK.store(live_at_entry, Ordering::Relaxed);
    let before = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    MODE.store(EVERY_THREAD, Ordering::SeqCst);
    let out = region();
    MODE.store(OFF, Ordering::SeqCst);
    let count = RegionCount {
        totals: Totals {
            allocs: ALLOCS.load(Ordering::Relaxed) - before.0,
            bytes: BYTES.load(Ordering::Relaxed) - before.1,
        },
        peak_bytes: (PEAK.load(Ordering::Relaxed) - live_at_entry).max(0) as u64,
    };
    (out, count)
}

/// Runs `region` while each thread counts its own allocations, to be read
/// with [`thread_totals`] from inside the region.
pub fn count_this_thread<T>(region: impl FnOnce() -> T) -> T {
    MODE.store(THIS_THREAD, Ordering::SeqCst);
    let out = region();
    MODE.store(OFF, Ordering::SeqCst);
    out
}

/// What the calling thread has allocated under [`count_this_thread`] so far.
pub fn thread_totals() -> Totals {
    Totals {
        allocs: THREAD_ALLOCS.with(Cell::get),
        bytes: THREAD_BYTES.with(Cell::get),
    }
}

/// Takes the calling thread out of the count until the guard is dropped.
pub fn exclude_current_thread() -> Excluded {
    let was = EXCLUDED.with(|flag| flag.replace(true));
    Excluded { was }
}

/// Guard returned by [`exclude_current_thread`].
pub struct Excluded {
    was: bool,
}

impl Drop for Excluded {
    fn drop(&mut self) {
        EXCLUDED.with(|flag| flag.set(self.was));
    }
}

/// The counters are process-wide and `cargo test` runs tests on parallel
/// threads, so every test of this crate holds this lock while it runs: a
/// counted region then sees only its own test's allocations.
#[cfg(test)]
pub(crate) fn serial() -> std::sync::MutexGuard<'static, ()> {
    static TURN: std::sync::Mutex<()> = std::sync::Mutex::new(());
    TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_only_inside_the_region() {
        let _turn = serial();
        let before = (ALLOCS.load(Ordering::Relaxed), thread_totals());
        let kept = std::hint::black_box(vec![0u8; 4096]);
        assert_eq!(
            (ALLOCS.load(Ordering::Relaxed), thread_totals()),
            before,
            "counted while off"
        );
        let (buffer, count) = count_region(|| std::hint::black_box(vec![0u8; 10_000]));
        assert!(count.totals.allocs >= 1);
        assert!(count.totals.bytes >= 10_000);
        assert!(count.peak_bytes >= 10_000);
        drop((kept, buffer));
    }

    #[test]
    fn a_flagged_thread_is_not_counted() {
        let _turn = serial();
        let ((), count) = count_region(|| {
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    let _guard = exclude_current_thread();
                    std::hint::black_box(vec![0u8; 1 << 20]);
                });
            });
        });
        // Spawning the thread allocates a little on this thread; the
        // megabyte allocated on the flagged thread must not show.
        assert!(count.totals.bytes < 1 << 19, "{count:?}");
        let ((), count) = count_region(|| {
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    std::hint::black_box(vec![0u8; 1 << 20]);
                });
            });
        });
        assert!(count.totals.bytes >= 1 << 20, "{count:?}");
    }

    #[test]
    fn the_guard_restores_the_previous_state() {
        let _turn = serial();
        let (_, count) = count_region(|| {
            {
                let _guard = exclude_current_thread();
                std::hint::black_box(vec![0u8; 50_000]);
            }
            std::hint::black_box(vec![0u8; 3_000])
        });
        assert!(
            count.totals.bytes >= 3_000 && count.totals.bytes < 50_000,
            "{count:?}"
        );
    }

    #[test]
    fn a_thread_counts_only_its_own_allocations() {
        let _turn = serial();
        let allocated = count_this_thread(|| {
            let before = thread_totals();
            std::thread::scope(|scope| {
                scope.spawn(|| std::hint::black_box(vec![0u8; 1 << 20]));
            });
            let kept = std::hint::black_box(vec![0u8; 2_000]);
            let after = thread_totals();
            drop(kept);
            after.bytes - before.bytes
        });
        assert!((2_000..1 << 19).contains(&allocated), "{allocated}");
    }
}
