//! Lock-free query-while-ingest snapshot publication (ROADMAP item 1).
//!
//! The incremental merger assembles a new immutable **generation** of the
//! merged backend at every epoch reconcile and publishes it with a single
//! swap of an `Arc` slot.  Readers hold a cheap cloneable [`QueryHandle`]
//! and run `query`/`trace_view` against the latest published generation
//! while the stream is still draining:
//!
//! * **Readers never block writers.**  A reader holds the slot mutex only
//!   long enough to clone an `Arc` (two pointer-sized refcount bumps), and
//!   only when the published version has actually moved; in the steady
//!   state between publications a read touches one atomic load and its
//!   thread-cached `Arc` — no lock at all.
//! * **Writers never block readers meaningfully.**  The writer swaps the
//!   slot pointer under the mutex and retires the previous generation
//!   *after* unlocking, so a reader can never wait on a deallocation.
//! * **Readers never free a generation.**  The writer keeps a reference to
//!   every generation it has retired and drops it, on its own thread, at the
//!   first publication after the last reader let go.  A generation is
//!   thousands of heap blocks allocated by the writer; freed by a reader
//!   they go back through the allocator's cross-thread path (on glibc: the
//!   writer's arena lock once per block, and foreign blocks left in the
//!   reader's thread cache), which stalled reader, router and worker on
//!   futexes for whole streams at a time.
//! * **Readers never observe a half-merged state.**  A generation is built
//!   from [`MintBackend::queryable_clone`] — an `Arc`-structural copy taken
//!   only at reconcile boundaries — and is immutable from the moment it is
//!   published.  The merger's replace-don't-mutate discipline (catalogs and
//!   partial-bloom slots are replaced per epoch; sealed blooms and param
//!   blocks are append-only `Arc` segments) guarantees the shared segments
//!   are never written after publication.
//!
//! This is the classic RCU/read-copy-update shape (McKenney's read-mostly
//! guidance, PAPERS.md) expressed in safe Rust: `Arc` reference counting
//! stands in for grace periods — an old generation is freed by the writer
//! once the last reader has dropped it.
//!
//! # Equivalence boundary
//!
//! A [`QueryHandle`] only ever observes epoch-boundary states: generation
//! *k* answers queries exactly as the synchronous API would have answered
//! them immediately after the *k*-th reconcile.  The differential suites
//! pin this — every state a concurrent reader can see is byte-identical to
//! some epoch-boundary snapshot of the serial oracle.

#![deny(clippy::disallowed_types)]

use crate::backend::{MintBackend, QueryResult};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
#[expect(
    clippy::disallowed_types,
    reason = "the slot mutex below is the sanctioned RCU publication point (see Publication)"
)]
use std::sync::{Arc, Mutex, MutexGuard};
use trace_model::{TraceId, TraceView};

/// One immutable published generation of the merged backend.
///
/// Holding the `Arc<BackendSnapshot>` pins the generation: it stays valid
/// (and unchanging) for as long as the reader keeps it, no matter how many
/// newer generations the writer publishes meanwhile.
#[derive(Debug)]
pub struct BackendSnapshot {
    backend: MintBackend,
    generation: u64,
}

impl BackendSnapshot {
    /// The generation number: 0 is the empty pre-first-publication state,
    /// and each publication increments it by exactly one.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The immutable merged backend of this generation.
    pub fn backend(&self) -> &MintBackend {
        &self.backend
    }

    /// Answers a query against this generation (§4.3 query logic).
    pub fn query(&self, trace_id: TraceId) -> QueryResult {
        self.backend.query(trace_id)
    }

    /// Flattens a query against this generation into a [`TraceView`].
    pub fn trace_view(&self, trace_id: TraceId) -> Option<TraceView> {
        self.backend.trace_view(trace_id)
    }
}

/// The writer/reader rendezvous: a version counter and the current
/// generation.  The version is bumped (release) inside the slot lock on
/// every publication, so a reader that observes a version (acquire) equal
/// to its cache knows the slot has not changed since it last looked — the
/// steady-state read path is one atomic load.
#[derive(Debug)]
struct Publication {
    version: AtomicU64,
    #[expect(
        clippy::disallowed_types,
        reason = "writer-side swap point only; steady-state readers never take this lock (one atomic version load)"
    )]
    slot: Mutex<Arc<BackendSnapshot>>,
}

/// Locks the publication slot, recovering from poison.
///
/// The slot only ever holds an `Arc` pointer and the critical sections are
/// single `mem::replace`/`Arc::clone` statements, so a panic elsewhere on a
/// holding thread cannot leave the value torn — the poisoned guard's
/// contents are always valid to reuse.
#[expect(
    clippy::disallowed_types,
    reason = "helper signature for the sanctioned writer-side slot above"
)]
fn lock_slot(slot: &Mutex<Arc<BackendSnapshot>>) -> MutexGuard<'_, Arc<BackendSnapshot>> {
    match slot.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Writer side of the snapshot scheme, owned by the incremental merger.
///
/// Publication is skipped entirely while no [`QueryHandle`] is alive
/// (detected from the publication `Arc`'s strong count), so deployments
/// that never ask for a handle pay nothing per epoch.
#[derive(Debug)]
pub(crate) struct SnapshotPublisher {
    publication: Arc<Publication>,
    generation: u64,
    /// Generations taken out of the slot that a reader may still hold.  The
    /// reference kept here is what makes the writer, never a reader, the
    /// thread that frees them.
    retired: Vec<Arc<BackendSnapshot>>,
}

impl Default for SnapshotPublisher {
    fn default() -> Self {
        SnapshotPublisher {
            publication: Arc::new(Publication {
                version: AtomicU64::new(0),
                #[expect(
                    clippy::disallowed_types,
                    reason = "constructing the sanctioned writer-side slot"
                )]
                slot: Mutex::new(Arc::new(BackendSnapshot {
                    backend: MintBackend::new(),
                    generation: 0,
                })),
            }),
            generation: 0,
            retired: Vec::new(),
        }
    }
}

impl SnapshotPublisher {
    /// Whether any [`QueryHandle`] (or pinned snapshot-holding clone of the
    /// publication) is alive.
    fn has_subscribers(&self) -> bool {
        Arc::strong_count(&self.publication) > 1
    }

    /// Publishes `backend` as the next generation if any handle is alive;
    /// no-ops (and skips the structural clone) otherwise.
    pub(crate) fn publish_if_subscribed(&mut self, backend: &MintBackend) {
        if self.has_subscribers() {
            self.publish(backend);
        }
    }

    /// Publishes `backend` as the next generation: one `Arc`-structural
    /// clone and one pointer swap under the slot lock.  After unlocking, the
    /// retired generations no reader holds any more are freed here, and the
    /// previous generation joins the retired ones.
    fn publish(&mut self, backend: &MintBackend) {
        self.generation += 1;
        let next = Arc::new(BackendSnapshot {
            backend: backend.queryable_clone(),
            generation: self.generation,
        });
        let previous = {
            let mut slot = lock_slot(&self.publication.slot);
            let previous = std::mem::replace(&mut *slot, next);
            self.publication.version.fetch_add(1, Ordering::Release);
            previous
        };
        // A count of one is this list's own reference: no reader holds the
        // generation, and none can get it back, because it left the slot.
        self.retired.retain(|old| Arc::strong_count(old) > 1);
        self.retired.push(previous);
    }

    /// Publishes the current state (so a new handle is never staler than
    /// the moment it was created) and returns a reader handle.
    pub(crate) fn subscribe(&mut self, backend: &MintBackend) -> QueryHandle {
        self.publish(backend);
        QueryHandle::new(Arc::clone(&self.publication))
    }
}

/// A cheap cloneable reader handle onto the latest published generation.
///
/// The handle is `Send` but deliberately **not** `Sync`: each thread gets
/// its own clone (cloning is two refcount bumps plus one slot-lock `Arc`
/// clone) and caches the current generation in thread-local interior
/// mutability, so the steady-state read path — one atomic version load,
/// then queries against the cached `Arc` — takes no lock and contends with
/// nothing.
#[derive(Debug)]
pub struct QueryHandle {
    publication: Arc<Publication>,
    cached_version: Cell<u64>,
    cached: RefCell<Arc<BackendSnapshot>>,
}

impl QueryHandle {
    fn new(publication: Arc<Publication>) -> Self {
        let (version, snapshot) = {
            let slot = lock_slot(&publication.slot);
            // Read the version while holding the lock: the writer bumps it
            // inside the same critical section, so this pairs the counter
            // with the exact generation in the slot.
            (
                publication.version.load(Ordering::Acquire),
                Arc::clone(&slot),
            )
        };
        QueryHandle {
            publication,
            cached_version: Cell::new(version),
            cached: RefCell::new(snapshot),
        }
    }

    /// The latest published generation, pinned.
    ///
    /// Refreshes the thread-cached `Arc` only when the published version
    /// has moved since the last call; otherwise this is a single atomic
    /// load plus a refcount bump.
    pub fn snapshot(&self) -> Arc<BackendSnapshot> {
        let version = self.publication.version.load(Ordering::Acquire);
        if version != self.cached_version.get() {
            let slot = lock_slot(&self.publication.slot);
            self.cached_version
                .set(self.publication.version.load(Ordering::Acquire));
            *self.cached.borrow_mut() = Arc::clone(&slot);
        }
        Arc::clone(&self.cached.borrow())
    }

    /// Answers a query against the latest published generation.
    pub fn query(&self, trace_id: TraceId) -> QueryResult {
        self.snapshot().query(trace_id)
    }

    /// Flattens a query against the latest published generation into a
    /// [`TraceView`].
    pub fn trace_view(&self, trace_id: TraceId) -> Option<TraceView> {
        self.snapshot().trace_view(trace_id)
    }

    /// The generation number currently visible through this handle.
    pub fn generation(&self) -> u64 {
        self.snapshot().generation()
    }
}

impl Clone for QueryHandle {
    /// Clones the handle for another thread; the clone starts from the
    /// latest published generation.
    fn clone(&self) -> Self {
        QueryHandle::new(Arc::clone(&self.publication))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_send<T: Send>() {}

    #[test]
    fn handle_is_send_for_cross_thread_cloning() {
        assert_send::<QueryHandle>();
        assert_send::<Arc<BackendSnapshot>>();
    }

    #[test]
    fn publisher_skips_work_without_subscribers() {
        let mut publisher = SnapshotPublisher::default();
        let backend = MintBackend::new();
        publisher.publish_if_subscribed(&backend);
        assert_eq!(publisher.generation, 0, "published with no handle alive");

        let handle = publisher.subscribe(&backend);
        assert_eq!(handle.generation(), 1);
        publisher.publish_if_subscribed(&backend);
        assert_eq!(handle.generation(), 2);

        drop(handle);
        publisher.publish_if_subscribed(&backend);
        assert_eq!(
            publisher.generation, 2,
            "published after the last handle was dropped"
        );
    }

    #[test]
    fn retired_generations_are_freed_by_the_publisher_not_the_reader() {
        let mut publisher = SnapshotPublisher::default();
        let backend = MintBackend::new();
        let handle = publisher.subscribe(&backend);
        let first = Arc::downgrade(&handle.snapshot());

        publisher.publish_if_subscribed(&backend);
        // The reader moves on to generation 2 and lets generation 1 go; the
        // publisher's reference keeps it alive, so the reader freed nothing.
        assert_eq!(handle.generation(), 2);
        assert!(first.upgrade().is_some(), "the reader freed a generation");

        // The next publication finds generation 1 unreferenced and frees it.
        publisher.publish_if_subscribed(&backend);
        assert!(first.upgrade().is_none(), "a retired generation leaked");
        assert_eq!(publisher.retired.len(), 1);

        // A generation a reader still pins stays retired until it is let go.
        let pinned = Arc::downgrade(&handle.snapshot());
        publisher.publish_if_subscribed(&backend);
        publisher.publish_if_subscribed(&backend);
        assert_eq!(publisher.retired.len(), 2, "a pinned generation was freed");
        assert!(pinned.upgrade().is_some());
        assert_eq!(handle.generation(), 5);
        publisher.publish_if_subscribed(&backend);
        assert!(pinned.upgrade().is_none());
        assert_eq!(publisher.retired.len(), 1);
    }

    #[test]
    fn pinned_snapshot_survives_later_publications() {
        let mut publisher = SnapshotPublisher::default();
        let backend = MintBackend::new();
        let handle = publisher.subscribe(&backend);
        let pinned = handle.snapshot();
        assert_eq!(pinned.generation(), 1);
        for _ in 0..5 {
            publisher.publish_if_subscribed(&backend);
        }
        assert_eq!(pinned.generation(), 1, "pinned generation mutated");
        assert_eq!(handle.generation(), 6);
    }

    #[test]
    fn clones_observe_the_latest_generation() {
        let mut publisher = SnapshotPublisher::default();
        let backend = MintBackend::new();
        let handle = publisher.subscribe(&backend);
        publisher.publish_if_subscribed(&backend);
        let clone = handle.clone();
        assert_eq!(clone.generation(), 2);
        assert_eq!(handle.generation(), 2);
    }
}
