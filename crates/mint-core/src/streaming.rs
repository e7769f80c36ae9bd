//! Streaming epoch-based ingest: traces arrive continuously from an
//! iterator/channel source, are routed by `TraceId` hash to **long-lived
//! shard workers** behind **bounded queues** (backpressure, no unbounded
//! buffering), and are reconciled into the queryable backend at **epoch
//! boundaries** by the incremental merge of [`merge`](crate::merge).
//!
//! # Execution model
//!
//! ```text
//!   trace source (Iterator<Item = Trace>, paced or live)
//!        │ route: shard_of(trace_id, N)
//!        │ mpsc::sync_channel(shard_queue_depth)  ← bounded: a full queue
//!        ▼                                          blocks the router
//!   long-lived shard workers (one thread each, own a full MintDeployment)
//!        │
//!        │ every `epoch_trace_count` traces the router sends an EpochEnd
//!        │ barrier; each worker hands its state to the coordinator and
//!        │ blocks until it gets it back
//!        ▼
//!   IncrementalMerger::reconcile — interns only the patterns first seen
//!   this epoch (persistent per-node intern tables + per-shard watermarks),
//!   appends only this epoch's Bloom filters and parameter blocks
//!        │
//!        ▼
//!   merged MintBackend: every trace ingested up to the last epoch boundary
//!   is queryable while the stream keeps running
//! ```
//!
//! There is no pre-materialized [`TraceSet`]: the source is consumed trace
//! by trace and peak memory is bounded by `shards × queue depth` in-flight
//! traces plus the (converging) pattern state.  A whole batch in one epoch
//! (`epoch_trace_count = usize::MAX` with [`StreamingDeployment::process`])
//! is the batch-sharded case: warm on the full batch, route, ingest per
//! shard, reconcile once.
//!
//! # Equivalence with the serial driver
//!
//! A completed stream is accounted exactly like one serial batch: the
//! simulated duration spans the stream's first to last span timestamp, and
//! the periodic pattern-library upload is charged once per node per
//! reporting interval at the end.  For the deterministic sampling modes
//! (`All`, `None`, `Head`, `AbnormalTag`) a warmed `StreamingDeployment`
//! therefore produces the same [`DeploymentReport`] and per-trace query
//! results as [`MintDeployment::process`] on the same traces — for any
//! shard count and any epoch size — which `streaming_equivalence` asserts
//! for shard counts {1, 2, 8} × epoch sizes {1, 7, 64}.  `MintBiased`
//! keeps per-shard sampler history, so it approximates the serial decisions
//! instead of reproducing them bit-for-bit (see ARCHITECTURE.md).
//!
//! Serial equivalence needs the serial warm-up: call
//! [`StreamingDeployment::warm_up`] with the reference sample (or use
//! [`StreamingDeployment::process`], which warms on the full batch exactly
//! like the serial driver).  An unwarmed [`StreamingDeployment::process_stream`]
//! warms on its first epoch — the right behaviour for a live source where
//! the future is unknown, with the documented caveat that post-warm-up
//! template drift makes pattern-library bytes approximate (the merge's
//! drift detector keeps the backend correct regardless).

#![deny(clippy::disallowed_methods)]

use crate::collector::{batch_duration_s, DeploymentReport, MintCollector, MintDeployment};
use crate::config::MintConfig;
use crate::merge::{IncrementalMerger, MergeStats};
use crate::snapshot::QueryHandle;
use crate::MintBackend;
use std::any::Any;
use std::sync::mpsc;
use std::time::{Duration, Instant};
use trace_model::{Trace, TraceId, TraceSet};

/// What the driver did at one epoch boundary (or at the end-of-stream
/// reconcile, flagged by [`EpochStats::end_of_stream`]).
#[derive(Debug, Clone, Copy)]
pub struct EpochStats {
    /// Epoch sequence number, starting at 0, monotonically increasing
    /// across streams.
    pub epoch: u64,
    /// Traces routed during this epoch.
    pub traces: u64,
    /// Wall-clock time of the incremental merge at this boundary.
    pub merge_time: Duration,
    /// What the merge interned — all-zero for an epoch whose patterns were
    /// all known, which is the steady state the incremental merge exists
    /// for.
    pub merge: MergeStats,
    /// Whether this was the final reconcile of a completed stream.
    pub end_of_stream: bool,
}

/// Messages on a shard worker's bounded ingest queue.
enum ShardMsg {
    /// A batch of traces to ingest, in arrival order.  The router buffers up
    /// to [`MintConfig::dispatch_batch_size`] traces per shard before
    /// sending, amortizing the channel synchronization; buffers are always
    /// flushed before an epoch barrier and at end of stream, so batching is
    /// invisible to everything except the send count.
    Batch(Vec<Trace>),
    /// Epoch barrier: hand the deployment to the coordinator and block
    /// until it comes back.
    EpochEnd,
}

/// Deterministic trace → shard routing: a finalizer-style hash of the trace
/// id reduced modulo the shard count, so the same trace always lands on the
/// same shard regardless of batch composition.
fn shard_of(trace_id: TraceId, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    let x = trace_id.as_u128();
    let mut h = (x as u64) ^ ((x >> 64) as u64);
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^= h >> 33;
    (h % shards as u64) as usize
}

/// Extracts the human-readable message from a worker thread's panic payload
/// (the `Err` of a `JoinHandle::join`).  `panic!` with a literal carries a
/// `&'static str`; `panic!` with formatting carries a `String`; anything
/// else (a custom `panic_any` payload) gets a placeholder.
pub(crate) fn worker_panic_message(payload: &(dyn Any + Send)) -> &str {
    if let Some(message) = payload.downcast_ref::<&'static str>() {
        message
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message
    } else {
        "<non-string panic payload>"
    }
}

/// Test-only fail point: a trace whose root span carries a
/// `mint_test_panic` attribute makes the ingesting worker panic with the
/// attribute's value.  Keying the fault off the trace itself (rather than
/// global state) keeps parallel tests race-free.
#[cfg(test)]
fn trigger_test_panic(trace: &Trace) {
    if let Some(message) = trace
        .root()
        .and_then(|root| root.attributes().get("mint_test_panic"))
        .and_then(|value| value.as_str())
    {
        panic!("{}", message.to_owned());
    }
}

/// How many [`EpochStats`] entries are retained (the oldest are dropped
/// beyond this), so a long-lived deployment's telemetry stays bounded.
const EPOCH_STATS_RETENTION: usize = 4096;

/// A streaming Mint deployment: N long-lived shard workers behind bounded
/// queues, reconciled into one queryable backend at epoch boundaries.
#[derive(Debug)]
pub struct StreamingDeployment {
    config: MintConfig,
    shards: Vec<MintDeployment>,
    merger: IncrementalMerger,
    epoch_stats: Vec<EpochStats>,
    duration_s: u64,
    epochs: u64,
    warmed_up: bool,
}

impl StreamingDeployment {
    /// Creates a streaming deployment with `config.shard_count` workers,
    /// epoch size `config.epoch_trace_count` and per-worker queue depth
    /// `config.shard_queue_depth`.
    pub fn new(config: MintConfig) -> Self {
        StreamingDeployment {
            config,
            shards: Vec::new(),
            merger: IncrementalMerger::new(),
            epoch_stats: Vec::new(),
            duration_s: 0,
            epochs: 0,
            warmed_up: false,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &MintConfig {
        &self.config
    }

    /// Number of shard workers.
    pub fn shard_count(&self) -> usize {
        self.config.shard_count.max(1)
    }

    /// The merged backend (for queries).  Reflects every trace ingested up
    /// to the most recent epoch boundary / completed stream.
    pub fn backend(&self) -> &MintBackend {
        self.merger.backend()
    }

    /// A cheap cloneable handle for querying the latest published snapshot
    /// generation from any thread — including while
    /// [`process_stream`](StreamingDeployment::process_stream) is draining
    /// a source on this thread.  Creating the handle publishes the current
    /// merged state; every subsequent epoch reconcile republishes at its
    /// boundary, so a reader only ever observes epoch-boundary states
    /// (see [`QueryHandle`]).
    pub fn query_handle(&mut self) -> QueryHandle {
        self.merger.query_handle()
    }

    /// The merged collector (for network accounting).
    pub fn collector(&self) -> &MintCollector {
        self.merger.collector()
    }

    /// Iterates over the per-shard deployments (empty before the first
    /// stream).
    pub fn shards(&self) -> impl Iterator<Item = &MintDeployment> {
        self.shards.iter()
    }

    /// Per-epoch merge telemetry, accumulated across streams.  Only the
    /// most recent 4096 epochs are retained, so a long-lived deployment's
    /// telemetry stays bounded ([`EpochStats::epoch`] keeps the absolute
    /// sequence number).
    pub fn epoch_stats(&self) -> &[EpochStats] {
        &self.epoch_stats
    }

    /// Records one epoch's telemetry, dropping the oldest entries beyond
    /// the retention window (amortized O(1): half the window is drained at
    /// once).
    fn record_epoch(&mut self, stats: EpochStats) {
        self.epoch_stats.push(stats);
        self.epochs += 1;
        if self.epoch_stats.len() >= 2 * EPOCH_STATS_RETENTION {
            self.epoch_stats
                .drain(..self.epoch_stats.len() - EPOCH_STATS_RETENTION);
        }
    }

    /// How many times template drift forced the merge to rebuild its
    /// canonical state from scratch (0 when the warm-up covers the
    /// workload).
    pub fn merge_full_rebuilds(&self) -> u64 {
        self.merger.full_rebuilds()
    }

    /// Warms one deployment on `traces` — the identical sample a serial
    /// deployment would use — and clones it into every shard.  Call this
    /// before [`StreamingDeployment::process_stream`] for byte-for-byte
    /// serial equivalence; an unwarmed stream warms on its first epoch.
    ///
    /// Warm-up happens at most once per deployment (mirroring the serial
    /// driver): once warmed — explicitly or by the first stream — further
    /// calls are no-ops, so accumulated shard state is never discarded.
    pub fn warm_up(&mut self, traces: &TraceSet) {
        if self.warmed_up {
            return;
        }
        let mut prototype = MintDeployment::new(self.config.clone());
        prototype.warm_up(traces);
        self.shards = vec![prototype; self.shard_count()];
        self.warmed_up = true;
    }

    /// Processes a pre-materialized batch with serial warm-up semantics:
    /// warms on the full batch (first non-empty call only), then streams it
    /// through the epoch pipeline.  Drop-in equivalent of
    /// [`MintDeployment::process`].
    pub fn process(&mut self, traces: &TraceSet) -> DeploymentReport {
        // An empty batch must not lock in an empty warm-up sample.
        if !self.warmed_up && !traces.is_empty() {
            self.warm_up(traces);
        }
        self.process_stream(traces.iter().cloned())
    }

    /// Consumes a trace stream end to end: routes every trace to its shard
    /// worker, reconciles at every epoch boundary, and returns the
    /// cumulative report once the source is exhausted.  May be called
    /// repeatedly; counters accumulate exactly like the serial driver's
    /// across batches.
    pub fn process_stream<I>(&mut self, source: I) -> DeploymentReport
    where
        I: IntoIterator<Item = Trace>,
    {
        self.process_stream_observed(source, |_| {})
    }

    /// [`process_stream`](StreamingDeployment::process_stream) with an
    /// epoch observer: `observe` is invoked with each [`EpochStats`] as the
    /// boundary completes (including the final end-of-stream reconcile),
    /// while the stream is still running.  This is the hook scenario-aware
    /// drivers (e.g. the chaos experiments) use to watch ingest progress
    /// live without polling [`epoch_stats`](StreamingDeployment::epoch_stats).
    #[expect(
        clippy::expect_used,
        reason = "the shard states are collected back into `self.shards` after the collect loop, which either refills every slot or diverges via propagate_worker_panic"
    )]
    pub fn process_stream_observed<I, F>(&mut self, source: I, mut observe: F) -> DeploymentReport
    where
        I: IntoIterator<Item = Trace>,
        F: FnMut(&EpochStats),
    {
        let shard_count = self.shard_count();
        let epoch_size = self.config.epoch_trace_count.max(1);
        let queue_depth = self.config.shard_queue_depth.max(1);
        let mut source = source.into_iter();

        // A live source cannot be warmed on "the full batch"; buffer the
        // first epoch and use it as the warm-up sample.  An empty source
        // must not lock in an empty warm-up: the deployment stays unwarmed
        // so a later non-empty stream warms properly.
        let mut prefix: Vec<Trace> = Vec::new();
        if !self.warmed_up {
            while prefix.len() < epoch_size {
                match source.next() {
                    Some(trace) => prefix.push(trace),
                    None => break,
                }
            }
            if !prefix.is_empty() {
                let sample: TraceSet = prefix.iter().cloned().collect();
                self.warm_up(&sample);
            }
        }

        let (mut min_start, mut max_end) = (u64::MAX, 0u64);
        let mut epoch_fill = 0u64;
        let mut traces_seen = 0u64;

        let mut states: Vec<Option<MintDeployment>> = std::mem::take(&mut self.shards)
            .into_iter()
            .map(Some)
            .collect();

        std::thread::scope(|scope| {
            let mut work_txs = Vec::with_capacity(shard_count);
            let mut state_rxs = Vec::with_capacity(shard_count);
            let mut resume_txs = Vec::with_capacity(shard_count);
            let mut handles = Vec::with_capacity(shard_count);
            for state in states.iter_mut() {
                let (work_tx, work_rx) = mpsc::sync_channel::<ShardMsg>(queue_depth);
                // State and resume channels carry at most one in-flight
                // message per worker per epoch, so a bound of 1 can never
                // block the sender.
                let (state_tx, state_rx) = mpsc::sync_channel::<MintDeployment>(1);
                let (resume_tx, resume_rx) = mpsc::sync_channel::<MintDeployment>(1);
                work_txs.push(work_tx);
                state_rxs.push(state_rx);
                resume_txs.push(resume_tx);
                #[expect(
                    clippy::expect_used,
                    reason = "`states` is built as all-Some two lines up; nothing takes before spawn"
                )]
                let mut shard = state.take().expect("shard state present at spawn");
                handles.push(scope.spawn(move || loop {
                    match work_rx.recv() {
                        Ok(ShardMsg::Batch(batch)) => {
                            for trace in &batch {
                                #[cfg(test)]
                                trigger_test_panic(trace);
                                shard.ingest_trace(trace);
                            }
                        }
                        Ok(ShardMsg::EpochEnd) => {
                            // Coordinator hung up mid-epoch (it panicked or
                            // the stream was torn down): exit quietly rather
                            // than adding a second panic on top.
                            if state_tx.send(shard).is_err() {
                                return;
                            }
                            shard = match resume_rx.recv() {
                                Ok(shard) => shard,
                                // Coordinator dropped the resume channel:
                                // the stream is over and the state was
                                // already collected.
                                Err(_) => return,
                            };
                        }
                        // Work channel closed: stream over, hand the state
                        // back and exit.
                        Err(_) => {
                            let _ = state_tx.send(shard);
                            return;
                        }
                    }
                }));
            }

            // Per-shard dispatch buffers: traces accumulate here and ship in
            // one channel send per `dispatch_batch_size`, flushed before
            // every epoch barrier and at end of stream.
            let batch_size = self.config.dispatch_batch_size.max(1);
            let mut pending: Vec<Vec<Trace>> = (0..shard_count)
                .map(|_| Vec::with_capacity(batch_size))
                .collect();
            // A failed send means the receiving worker died (it never drops
            // its queue otherwise); the next state collection notices the
            // disconnect and resurfaces the worker's actual panic, so send
            // failures are deliberately ignored here.
            let flush = |pending: &mut Vec<Vec<Trace>>, work_txs: &[mpsc::SyncSender<ShardMsg>]| {
                for (buffer, work_tx) in pending.iter_mut().zip(work_txs) {
                    if !buffer.is_empty() {
                        let _ = work_tx.send(ShardMsg::Batch(std::mem::take(buffer)));
                    }
                }
            };

            // One-trace look-ahead: pull the successor before dispatching a
            // trace, so the boundary that closes the final epoch is known to
            // be the end of the stream and is handled by the end-of-stream
            // reconcile below — an exact-multiple stream no longer records a
            // redundant zero-trace epoch or pays an extra reconcile.
            let mut stream = prefix.drain(..).chain(source.by_ref());
            let mut next_trace = stream.next();
            while let Some(trace) = next_trace {
                next_trace = stream.next();
                for span in trace.spans() {
                    min_start = min_start.min(span.start_time_us());
                    max_end = max_end.max(span.end_time_us());
                }
                traces_seen += 1;
                let shard = shard_of(trace.trace_id(), shard_count);
                pending[shard].push(trace);
                if pending[shard].len() >= batch_size {
                    let batch =
                        std::mem::replace(&mut pending[shard], Vec::with_capacity(batch_size));
                    let _ = work_txs[shard].send(ShardMsg::Batch(batch));
                }
                epoch_fill += 1;
                if epoch_fill == epoch_size as u64 && next_trace.is_some() {
                    // Epoch barrier: drain the dispatch buffers, collect
                    // every worker's state, merge incrementally, hand the
                    // states back.
                    flush(&mut pending, &work_txs);
                    for work_tx in &work_txs {
                        let _ = work_tx.send(ShardMsg::EpochEnd);
                    }
                    let mut shards: Vec<MintDeployment> = Vec::with_capacity(shard_count);
                    for state_rx in &state_rxs {
                        match state_rx.recv() {
                            Ok(shard) => shards.push(shard),
                            Err(_) => propagate_worker_panic(work_txs, resume_txs, handles),
                        }
                    }
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "the merge timer is reported in `EpochStats`; no decision reads it"
                    )]
                    let merge_start = Instant::now();
                    let merge = self.merger.reconcile(&shards);
                    let stats = EpochStats {
                        epoch: self.epochs,
                        traces: epoch_fill,
                        merge_time: merge_start.elapsed(),
                        merge,
                        end_of_stream: false,
                    };
                    self.record_epoch(stats);
                    observe(&stats);
                    epoch_fill = 0;
                    for (resume_tx, shard) in resume_txs.iter().zip(shards) {
                        let _ = resume_tx.send(shard);
                    }
                }
            }

            // Stream exhausted: drain the dispatch buffers, close the
            // queues and collect the final states.
            flush(&mut pending, &work_txs);
            drop(work_txs);
            for (state, state_rx) in states.iter_mut().zip(&state_rxs) {
                match state_rx.recv() {
                    Ok(shard) => *state = Some(shard),
                    Err(_) => propagate_worker_panic(Vec::new(), resume_txs, handles),
                }
            }
        });

        // The `expect` below is the one this function's `#[expect]` names.
        self.shards = states
            .into_iter()
            .map(|s| s.expect("every shard state collected"))
            .collect();

        // End-of-stream reconcile (publishes the tail of the stream — a
        // partial or, for exact-multiple streams, full final epoch) plus the
        // serial driver's end-of-batch accounting.  A stream that delivered
        // zero traces skips the duration/network accounting entirely:
        // `(min_start, max_end)` is still the empty sentinel and clamping it
        // to a 1 s batch would charge a phantom per-batch pattern upload.
        #[expect(
            clippy::disallowed_methods,
            reason = "the merge timer is reported in `EpochStats`; no decision reads it"
        )]
        let merge_start = Instant::now();
        let merge = self.merger.reconcile(&self.shards);
        if traces_seen > 0 {
            let stream_duration = batch_duration_s(min_start, max_end);
            self.duration_s += stream_duration;
            self.merger.charge_batch(&self.config, stream_duration);
        }
        let stats = EpochStats {
            epoch: self.epochs,
            traces: epoch_fill,
            merge_time: merge_start.elapsed(),
            merge,
            end_of_stream: true,
        };
        self.record_epoch(stats);
        observe(&stats);

        self.report()
    }

    /// The merged cumulative report.
    pub fn report(&self) -> DeploymentReport {
        DeploymentReport {
            network: self.merger.collector().network(),
            storage: self.merger.backend().storage(),
            traces: self.shards.iter().map(|s| s.traces_processed).sum(),
            spans: self.shards.iter().map(|s| s.spans_processed).sum(),
            sampled_traces: self.shards.iter().map(|s| s.sampled_traces).sum(),
            raw_trace_bytes: self.shards.iter().map(|s| s.raw_trace_bytes).sum(),
            span_patterns: self.merger.span_patterns(),
            topo_patterns: self.merger.topo_patterns(),
            duration_s: self.duration_s,
        }
    }
}

/// Tears down the worker pool after a state-collection failure and
/// resurfaces the actual panic message(s) from the dead worker(s).
///
/// A disconnected `state_rx` means a worker died without handing its state
/// back — i.e. it panicked.  Closing the work and resume channels first
/// unblocks every still-live worker (they observe the disconnect and exit),
/// so the joins cannot deadlock; each join then recovers the dead worker's
/// panic payload, which an `.expect` on the receive side would have
/// discarded.
fn propagate_worker_panic<T>(
    work_txs: Vec<mpsc::SyncSender<ShardMsg>>,
    resume_txs: Vec<mpsc::SyncSender<MintDeployment>>,
    handles: Vec<std::thread::ScopedJoinHandle<'_, T>>,
) -> ! {
    drop(work_txs);
    drop(resume_txs);
    let mut messages = Vec::new();
    for handle in handles {
        if let Err(payload) = handle.join() {
            messages.push(worker_panic_message(payload.as_ref()).to_owned());
        }
    }
    if messages.is_empty() {
        panic!("shard worker hung up without a recorded panic");
    }
    panic!("shard worker panicked: {}", messages.join("; "));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SamplingMode;
    use workload::{online_boutique, GeneratorConfig, TraceGenerator};

    fn workload(n: usize) -> TraceSet {
        TraceGenerator::new(
            online_boutique(),
            GeneratorConfig::default()
                .with_seed(123)
                .with_abnormal_rate(0.05),
        )
        .generate(n)
    }

    #[test]
    fn routing_is_deterministic_and_covers_all_shards() {
        let traces = workload(400);
        let mut hits = vec![0usize; 8];
        for trace in &traces {
            let a = shard_of(trace.trace_id(), 8);
            let b = shard_of(trace.trace_id(), 8);
            assert_eq!(a, b);
            hits[a] += 1;
        }
        assert!(hits.iter().all(|&h| h > 10), "unbalanced shards: {hits:?}");
        assert_eq!(shard_of(TraceId::from_u128(99), 1), 0);
    }

    #[test]
    fn streams_everything_and_answers_queries() {
        let traces = workload(300);
        let config = MintConfig::default()
            .with_shard_count(4)
            .with_epoch_trace_count(32);
        let mut streaming = StreamingDeployment::new(config);
        let report = streaming.process(&traces);
        assert_eq!(report.traces, 300);
        assert!(report.spans > 1_000);
        // ⌈300 / 32⌉ = 10 epoch boundaries + the end-of-stream reconcile.
        assert_eq!(streaming.epoch_stats().len(), 10);
        assert!(streaming.epoch_stats().last().unwrap().end_of_stream);
        for trace in &traces {
            assert!(
                !streaming.backend().query(trace.trace_id()).is_miss(),
                "miss for {}",
                trace.trace_id()
            );
        }
    }

    #[test]
    fn tiny_queues_and_epochs_still_complete() {
        // Backpressure smoke test: queue depth 1 and epoch size 1 force the
        // router to block on every send and merge after every trace.
        let traces = workload(40);
        let config = MintConfig::default()
            .with_shard_count(3)
            .with_epoch_trace_count(1)
            .with_shard_queue_depth(1);
        let mut streaming = StreamingDeployment::new(config);
        let report = streaming.process(&traces);
        assert_eq!(report.traces, 40);
        // One reconcile per trace, the last of which is the end-of-stream
        // reconcile — never a redundant 41st zero-trace epoch.
        assert_eq!(streaming.epoch_stats().len(), 40);
        for trace in &traces {
            assert!(!streaming.backend().query(trace.trace_id()).is_miss());
        }
    }

    #[test]
    fn exact_multiple_stream_skips_the_redundant_tail_epoch() {
        // 96 traces at epoch size 32: exactly 3 epochs.  The third epoch's
        // boundary coincides with the end of the stream, so its reconcile IS
        // the end-of-stream reconcile — 3 entries, not 3 + a zero-trace tail.
        let traces = workload(96);
        let config = MintConfig::default()
            .with_shard_count(2)
            .with_epoch_trace_count(32);
        let mut streaming = StreamingDeployment::new(config);
        let report = streaming.process(&traces);
        assert_eq!(report.traces, 96);
        let epochs = streaming.epoch_stats();
        assert_eq!(epochs.len(), 3, "redundant tail epoch recorded");
        assert!(epochs.last().unwrap().end_of_stream);
        assert_eq!(epochs.last().unwrap().traces, 32);
        assert!(epochs.iter().all(|e| e.traces == 32));
        for trace in &traces {
            assert!(!streaming.backend().query(trace.trace_id()).is_miss());
        }
    }

    #[test]
    fn empty_stream_charges_no_duration_or_network() {
        // Regression: an empty stream used to clamp the empty span window to
        // a 1 s batch and charge a full per-batch pattern upload.
        let traces = workload(80);
        let mut streaming = StreamingDeployment::new(
            MintConfig::default()
                .with_shard_count(2)
                .with_epoch_trace_count(16),
        );
        let before = streaming.process(&traces);
        let after = streaming.process_stream(std::iter::empty());
        assert_eq!(after.traces, before.traces);
        assert_eq!(
            after.duration_s, before.duration_s,
            "empty stream inflated the simulated duration"
        );
        assert_eq!(
            after.network, before.network,
            "empty stream charged network traffic"
        );
    }

    #[test]
    fn empty_stream_does_not_lock_in_an_empty_warm_up() {
        let traces = workload(60);
        let mut streaming = StreamingDeployment::new(
            MintConfig::default()
                .with_shard_count(2)
                .with_epoch_trace_count(16),
        );
        streaming.process_stream(std::iter::empty());
        // The later real stream must warm up normally and stay queryable.
        let report = streaming.process_stream(traces.iter().cloned());
        assert_eq!(report.traces, 60);
        for trace in &traces {
            assert!(!streaming.backend().query(trace.trace_id()).is_miss());
        }
    }

    #[test]
    fn empty_batch_does_not_lock_in_an_empty_warm_up() {
        let traces = workload(200);
        let config = MintConfig::default()
            .with_shard_count(2)
            .with_epoch_trace_count(64)
            .with_sampling_mode(SamplingMode::AbnormalTag);
        let serial = MintDeployment::new(config.clone()).process(&traces);
        let mut streaming = StreamingDeployment::new(config);
        let empty = streaming.process(&TraceSet::default());
        assert_eq!((empty.traces, empty.duration_s), (0, 0));
        // The later real batch must warm on itself, exactly like serial.
        assert_eq!(streaming.process(&traces), serial);
    }

    #[test]
    fn query_handle_tracks_batch_reconciles() {
        // One epoch per batch: the whole batch lands in one reconcile, which
        // publishes one generation.
        let traces = workload(60);
        let mut streaming = StreamingDeployment::new(
            MintConfig::default()
                .with_shard_count(2)
                .with_epoch_trace_count(usize::MAX),
        );
        let handle = streaming.query_handle();
        assert_eq!(handle.generation(), 1);
        assert!(traces.iter().all(|t| handle.query(t.trace_id()).is_miss()));
        streaming.process(&traces);
        assert_eq!(streaming.epoch_stats().len(), 1);
        assert_eq!(handle.generation(), 2);
        assert!(traces.iter().all(|t| !handle.query(t.trace_id()).is_miss()));
    }

    #[test]
    fn worker_panic_message_reaches_the_coordinator() {
        use trace_model::AttrValue;
        let mut traces: Vec<Trace> = workload(30).iter().cloned().collect();
        for span in traces[17].spans_mut() {
            span.attributes_mut().insert(
                "mint_test_panic",
                AttrValue::str("injected streaming fault"),
            );
        }
        let config = MintConfig::default()
            .with_shard_count(3)
            .with_epoch_trace_count(8);
        let result = std::panic::catch_unwind(move || {
            let mut streaming = StreamingDeployment::new(config);
            streaming.process_stream(traces);
        });
        let payload = result.expect_err("worker panic must propagate");
        let message = worker_panic_message(payload.as_ref());
        assert!(
            message.contains("injected streaming fault"),
            "panic message lost: {message:?}"
        );
    }

    #[test]
    fn queries_work_mid_stream_through_the_handle() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let traces = workload(200);
        let config = MintConfig::default()
            .with_shard_count(2)
            .with_epoch_trace_count(25);
        let mut streaming = StreamingDeployment::new(config);
        streaming.warm_up(&traces);
        let handle = streaming.query_handle();
        assert_eq!(handle.generation(), 1);

        let ids: Vec<_> = traces.iter().map(|t| t.trace_id()).collect();
        let done = AtomicBool::new(false);
        let observed = std::thread::scope(|scope| {
            let reader = scope.spawn({
                let handle = handle.clone();
                let ids = ids.clone();
                let done = &done;
                move || {
                    // Hammer the handle while the stream drains, recording
                    // every generation observed.  Queries against any
                    // generation must be answerable (content equivalence is
                    // the differential suite's job).
                    let mut generations = std::collections::BTreeSet::new();
                    loop {
                        let finished = done.load(Ordering::Acquire);
                        let snapshot = handle.snapshot();
                        generations.insert(snapshot.generation());
                        for id in &ids {
                            let _ = snapshot.query(*id);
                        }
                        if finished {
                            return generations;
                        }
                    }
                }
            });
            streaming.process_stream(traces.iter().cloned());
            done.store(true, Ordering::Release);
            reader.join().expect("reader panicked")
        });

        // 200 traces / epoch 25 = 8 reconciles on top of the handle-creation
        // publication: the final generation is 9, and the reader's last
        // refresh (after `done`) must have seen it.
        assert_eq!(handle.generation(), 9);
        assert_eq!(observed.last(), Some(&9));
        assert!(observed.iter().all(|&generation| generation >= 1));

        // After the stream, the handle serves the final reconciled state:
        // every trace is queryable, identical to the synchronous API.
        let snapshot = handle.snapshot();
        for id in &ids {
            assert!(!snapshot.query(*id).is_miss(), "miss for {id}");
        }
    }

    #[test]
    fn unwarmed_stream_warms_on_its_first_epoch() {
        let traces = workload(120);
        let config = MintConfig::default()
            .with_shard_count(2)
            .with_epoch_trace_count(50);
        let mut streaming = StreamingDeployment::new(config);
        let report = streaming.process_stream(traces.iter().cloned());
        assert_eq!(report.traces, 120);
        assert_eq!(streaming.shards().count(), 2);
        for trace in &traces {
            assert!(!streaming.backend().query(trace.trace_id()).is_miss());
        }
    }

    #[test]
    fn repeated_streams_accumulate() {
        let traces = workload(90);
        let mut streaming = StreamingDeployment::new(
            MintConfig::default()
                .with_shard_count(2)
                .with_epoch_trace_count(16),
        );
        streaming.process(&traces);
        let report = streaming.process(&traces);
        assert_eq!(report.traces, 180);
        assert!(report.duration_s >= 2);
    }

    #[test]
    fn warm_up_after_processing_keeps_accumulated_state() {
        let traces = workload(60);
        let mut streaming = StreamingDeployment::new(
            MintConfig::default()
                .with_shard_count(2)
                .with_epoch_trace_count(16),
        );
        streaming.process(&traces);
        // A second warm-up must not discard the ingested shard state.
        streaming.warm_up(&traces);
        assert_eq!(streaming.report().traces, 60);
        for trace in &traces {
            assert!(!streaming.backend().query(trace.trace_id()).is_miss());
        }
    }

    #[test]
    fn observer_sees_every_epoch_as_it_completes() {
        let traces = workload(100);
        let config = MintConfig::default()
            .with_shard_count(2)
            .with_epoch_trace_count(30);
        let mut streaming = StreamingDeployment::new(config);
        streaming.warm_up(&traces);
        let mut observed = Vec::new();
        streaming.process_stream_observed(traces.iter().cloned(), |stats| {
            observed.push((stats.epoch, stats.traces, stats.end_of_stream));
        });
        // ⌊100 / 30⌋ = 3 full epochs + the end-of-stream reconcile.
        assert_eq!(observed.len(), streaming.epoch_stats().len());
        assert_eq!(observed.len(), 4);
        assert_eq!(observed.iter().filter(|(_, _, end)| *end).count(), 1);
        assert!(observed.last().unwrap().2);
        let total: u64 = observed.iter().map(|(_, traces, _)| traces).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn dispatch_batching_is_invisible_to_results() {
        // Batch size only changes how many channel sends the router makes;
        // reports and per-trace answers must be identical across sizes,
        // including batches larger than the epoch and the queue.
        // Approximate answers are compared order-insensitively: the span
        // order of an approximate view follows backend map iteration, which
        // is instance-specific even for identical content.
        use crate::QueryResult;
        let traces = workload(150);
        let runs: Vec<_> = [1usize, 4, 64]
            .iter()
            .map(|&batch| {
                let config = MintConfig::default()
                    .with_shard_count(3)
                    .with_epoch_trace_count(20)
                    .with_shard_queue_depth(8)
                    .with_dispatch_batch_size(batch)
                    .with_sampling_mode(SamplingMode::AbnormalTag);
                let mut streaming = StreamingDeployment::new(config);
                let report = streaming.process(&traces);
                let queries: Vec<String> = traces
                    .iter()
                    .map(|t| match streaming.backend().query(t.trace_id()) {
                        QueryResult::Approximate(approx) => {
                            let mut spans: Vec<String> =
                                approx.spans.iter().map(|s| format!("{s:?}")).collect();
                            spans.sort();
                            format!("approx[{}]: {}", approx.matched_segments, spans.join(";"))
                        }
                        other => format!("{other:?}"),
                    })
                    .collect();
                (report, queries)
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[0], runs[2]);
    }

    #[test]
    fn empty_stream_reports_zero_traces() {
        let mut streaming = StreamingDeployment::new(MintConfig::default().with_shard_count(2));
        let report = streaming.process_stream(std::iter::empty());
        assert_eq!(report.traces, 0);
        assert_eq!(report.spans, 0);
    }

    #[test]
    fn sampled_traces_are_exact_in_the_merged_backend() {
        let traces = workload(150);
        let config = MintConfig::default()
            .with_shard_count(3)
            .with_epoch_trace_count(20)
            .with_sampling_mode(SamplingMode::All);
        let mut streaming = StreamingDeployment::new(config);
        let report = streaming.process(&traces);
        assert_eq!(report.sampled_traces, 150);
        for trace in traces.iter().take(20) {
            assert!(streaming.backend().query(trace.trace_id()).is_exact());
        }
    }

    #[test]
    fn steady_state_epochs_intern_nothing_new() {
        let traces = workload(400);
        let config = MintConfig::default()
            .with_shard_count(4)
            .with_epoch_trace_count(25);
        let mut streaming = StreamingDeployment::new(config);
        streaming.process(&traces);
        assert_eq!(streaming.merge_full_rebuilds(), 0);
        // As the pattern library converges, epochs intern almost nothing —
        // the incremental-merge invariant at work.  The first quarter of the
        // epochs does the discovery; the last quarter merges a workload's
        // worth of traces while interning at most a stray rare pattern.
        let interned = |stats: &EpochStats| {
            stats.merge.new_templates
                + stats.merge.new_span_patterns
                + stats.merge.new_topo_patterns
        };
        let epochs = streaming.epoch_stats();
        let quarter = epochs.len() / 4;
        let head: usize = epochs[..quarter].iter().map(interned).sum();
        let tail: usize = epochs[epochs.len() - quarter..].iter().map(interned).sum();
        assert!(
            tail * 5 <= head,
            "merge did not converge: first-quarter interned {head}, last-quarter {tail}"
        );
    }
}
