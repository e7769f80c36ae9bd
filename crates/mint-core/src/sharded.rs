//! Sharded multi-threaded batch ingest: partition traces by `TraceId` hash
//! across worker threads, each owning a full per-shard
//! agent/collector/backend state, then merge everything into one queryable
//! backend and one report.
//!
//! # Design
//!
//! Following the partition-first advice of *Is Parallel Programming Hard…*
//! (shared-nothing beats shared-locked), every shard owns a complete
//! [`MintDeployment`] clone and ingests a disjoint subset of traces — there
//! is **no** shared mutable state on the hot path.  The only coordination
//! points are:
//!
//! 1. **Warm-up broadcast**: one deployment is warmed on the *full* first
//!    batch (exactly what a serial deployment does) and cloned into every
//!    shard, so all shards start from identical attribute parsers.
//! 2. **Merge**: after a batch, shard-local pattern libraries are folded into
//!    canonical per-node libraries by the [`merge`](crate::merge) machinery
//!    shared with the streaming driver.  Shard-local pattern ids are
//!    *first-seen* indices and therefore differ between shards even for
//!    identical patterns, so the merge is content-addressed: string
//!    templates, span patterns and topology patterns are interned by value
//!    and every shard-local reference (topology entries/edges, Bloom filter
//!    keys, uploaded parameter blocks) is rewritten to the canonical id.
//!    The merge is **incremental**: persistent intern tables and per-shard
//!    watermarks make each merge `O(library + state new since the previous
//!    merge)` instead of `O(total state)`, so repeated batches do not pay
//!    for their predecessors ([`ShardedDeployment::last_ingest_time`] and
//!    [`ShardedDeployment::last_merge_time`] expose the per-phase cost).
//!
//! # Equivalence with the serial driver
//!
//! For sampling modes whose per-trace decision is a pure function of the
//! trace ([`SamplingMode::All`](crate::SamplingMode), `None`, `Head`,
//! `AbnormalTag`) a `ShardedDeployment` produces the same
//! [`DeploymentReport`] and the same per-trace query results as
//! [`MintDeployment`], for any shard count — verified by the
//! `sharded_equivalence` and `streaming_equivalence` integration tests.
//! This additionally assumes the shared warm-up learns a template set that
//! covers the workload: if a string attribute's *shape* drifts after
//! warm-up, the online parser creates or generalizes templates in ingestion
//! order, each shard evolves them from a different subsequence than the
//! serial driver, and pattern-library bytes can diverge (everything stays
//! queryable, the partition-invariant counters stay exact, and the merge's
//! drift detector falls back to a from-scratch rebuild).
//! [`SamplingMode::MintBiased`](crate::SamplingMode) keeps per-shard sampler
//! history (quantile reservoirs, pattern frequencies), so its decisions
//! approximate the serial ones instead of reproducing them bit-for-bit; all
//! traces remain queryable either way.

use crate::collector::{batch_duration_s, DeploymentReport, MintCollector, MintDeployment};
use crate::config::MintConfig;
use crate::merge::{IncrementalMerger, MergeStats};
use crate::snapshot::QueryHandle;
use crate::MintBackend;
use std::any::Any;
use std::time::{Duration, Instant};
use trace_model::{TraceId, TraceSet};

/// Deterministic trace → shard routing: a finalizer-style hash of the trace
/// id reduced modulo the shard count, so the same trace always lands on the
/// same shard regardless of batch composition.
pub fn shard_of(trace_id: TraceId, shards: usize) -> usize {
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

/// Test-only fail point shared by the sharded and streaming drivers: a
/// trace whose root span carries a `mint_test_panic` attribute makes the
/// ingesting worker panic with the attribute's value.  Keying the fault off
/// the trace itself (rather than global state) keeps parallel tests
/// race-free.
#[cfg(test)]
pub(crate) fn trigger_test_panic(trace: &trace_model::Trace) {
    if let Some(message) = trace
        .root()
        .and_then(|root| root.attributes().get("mint_test_panic"))
        .and_then(|value| value.as_str())
    {
        panic!("{}", message.to_owned());
    }
}

/// A sharded Mint deployment: N worker shards, each a complete
/// [`MintDeployment`], plus a merged backend/collector that present the same
/// interface (and, for deterministic sampling modes, the same numbers) as a
/// serial deployment.
#[derive(Debug)]
pub struct ShardedDeployment {
    config: MintConfig,
    shards: Vec<MintDeployment>,
    merger: IncrementalMerger,
    duration_s: u64,
    warmed_up: bool,
    last_ingest_time: Duration,
    last_merge_time: Duration,
    last_merge_stats: MergeStats,
}

impl ShardedDeployment {
    /// Creates a sharded deployment with `config.shard_count` workers.
    pub fn new(config: MintConfig) -> Self {
        ShardedDeployment {
            config,
            shards: Vec::new(),
            merger: IncrementalMerger::new(),
            duration_s: 0,
            warmed_up: false,
            last_ingest_time: Duration::ZERO,
            last_merge_time: Duration::ZERO,
            last_merge_stats: MergeStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &MintConfig {
        &self.config
    }

    /// Number of worker shards.
    pub fn shard_count(&self) -> usize {
        self.config.shard_count.max(1)
    }

    /// The merged backend (for queries).  Reconciled after every
    /// [`ShardedDeployment::process`] call.
    pub fn backend(&self) -> &MintBackend {
        self.merger.backend()
    }

    /// A cheap cloneable handle for querying the latest published snapshot
    /// generation from any thread, concurrently with
    /// [`ShardedDeployment::process`] calls on this thread.  Creating the
    /// handle publishes the current merged state; every subsequent batch
    /// reconcile republishes (see [`QueryHandle`]).
    pub fn query_handle(&mut self) -> QueryHandle {
        self.merger.query_handle()
    }

    /// The merged collector (for network accounting).
    pub fn collector(&self) -> &MintCollector {
        self.merger.collector()
    }

    /// Iterates over the per-shard deployments (empty before the first
    /// batch).
    pub fn shards(&self) -> impl Iterator<Item = &MintDeployment> {
        self.shards.iter()
    }

    /// Wall-clock time of the parallel ingest phase of the last
    /// [`ShardedDeployment::process`] call.
    pub fn last_ingest_time(&self) -> Duration {
        self.last_ingest_time
    }

    /// Wall-clock time of the merge (reconcile) phase of the last
    /// [`ShardedDeployment::process`] call.
    pub fn last_merge_time(&self) -> Duration {
        self.last_merge_time
    }

    /// What the last merge interned — zeroes everywhere mean the merge was
    /// fully incremental over already-known state.
    pub fn last_merge_stats(&self) -> MergeStats {
        self.last_merge_stats
    }

    /// How many times template drift forced the merge to rebuild its
    /// canonical state from scratch (0 when the warm-up covers the
    /// workload).
    pub fn merge_full_rebuilds(&self) -> u64 {
        self.merger.full_rebuilds()
    }

    /// Warms one deployment on `traces` — the identical sample a serial
    /// deployment would use — and clones it into every shard.
    /// [`ShardedDeployment::process`] calls this automatically with its
    /// first batch.
    ///
    /// Warm-up happens at most once per deployment: once warmed, further
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

    /// Processes a batch of traces across all shards and returns the merged
    /// cumulative report.  May be called repeatedly; counters accumulate
    /// exactly like the serial driver's.
    pub fn process(&mut self, traces: &TraceSet) -> DeploymentReport {
        let shard_count = self.shard_count();
        // An empty batch must not lock in an empty warm-up sample.
        if !self.warmed_up && !traces.is_empty() {
            self.warm_up(traces);
        }

        let (mut min_start, mut max_end) = (u64::MAX, 0u64);
        for trace in traces {
            for span in trace.spans() {
                min_start = min_start.min(span.start_time_us());
                max_end = max_end.max(span.end_time_us());
            }
        }

        // The whole batch is in hand, so the partition is computed up front:
        // each worker gets its complete index list at spawn and iterates it
        // without any channel traffic — routing stays O(1) per trace on the
        // dispatch thread, workers never block on a receive, and the
        // per-trace send/recv synchronization of the previous
        // channel-dispatch design disappears entirely.
        let ingest_start = Instant::now();
        let batch = traces.traces();
        let mut partitions: Vec<Vec<usize>> = vec![Vec::new(); shard_count];
        for (index, trace) in batch.iter().enumerate() {
            partitions[shard_of(trace.trace_id(), shard_count)].push(index);
        }
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(shard_count);
            for (shard, indices) in self.shards.iter_mut().zip(&partitions) {
                handles.push(scope.spawn(move || {
                    for &index in indices {
                        #[cfg(test)]
                        trigger_test_panic(&batch[index]);
                        shard.ingest_trace(&batch[index]);
                    }
                }));
            }
            // Join every worker before reporting a failure, so a panic
            // message is never lost to an earlier worker's still-running
            // thread, and resurface the actual payload(s) instead of an
            // opaque "shard worker panicked".
            let mut failures = Vec::new();
            for handle in handles {
                if let Err(payload) = handle.join() {
                    failures.push(worker_panic_message(payload.as_ref()).to_owned());
                }
            }
            if !failures.is_empty() {
                panic!("shard worker panicked: {}", failures.join("; "));
            }
        });
        self.last_ingest_time = ingest_start.elapsed();

        // Zero-trace batches have no simulated duration and upload nothing:
        // skip the duration/network accounting instead of clamping the empty
        // `(u64::MAX, 0)` span window to a phantom 1 s batch.
        let merge_start = Instant::now();
        self.last_merge_stats = self.merger.reconcile(&self.shards);
        if !traces.is_empty() {
            let batch_duration = batch_duration_s(min_start, max_end);
            self.duration_s += batch_duration;
            self.merger.charge_batch(&self.config, batch_duration);
        }
        self.last_merge_time = merge_start.elapsed();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SamplingMode;
    use workload::{online_boutique, GeneratorConfig, TraceGenerator};

    fn workload(n: usize) -> TraceSet {
        TraceGenerator::new(
            online_boutique(),
            GeneratorConfig::default()
                .with_seed(77)
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
    fn sharded_processes_everything_and_answers_queries() {
        let traces = workload(300);
        let config = MintConfig::default().with_shard_count(4);
        let mut sharded = ShardedDeployment::new(config);
        let report = sharded.process(&traces);
        assert_eq!(report.traces, 300);
        assert!(report.spans > 1_000);
        assert_eq!(sharded.shard_count(), 4);
        assert_eq!(sharded.shards().count(), 4);
        for trace in &traces {
            assert!(
                !sharded.backend().query(trace.trace_id()).is_miss(),
                "miss for {}",
                trace.trace_id()
            );
        }
    }

    #[test]
    fn repeated_batches_accumulate() {
        let traces = workload(120);
        let mut sharded = ShardedDeployment::new(MintConfig::default().with_shard_count(2));
        sharded.process(&traces);
        let report = sharded.process(&traces);
        assert_eq!(report.traces, 240);
        assert!(report.duration_s >= 2);
        for trace in &traces {
            assert!(!sharded.backend().query(trace.trace_id()).is_miss());
        }
    }

    #[test]
    fn sampled_traces_are_exact_in_the_merged_backend() {
        let traces = workload(200);
        let config = MintConfig::default()
            .with_shard_count(3)
            .with_sampling_mode(SamplingMode::All);
        let mut sharded = ShardedDeployment::new(config);
        let report = sharded.process(&traces);
        assert_eq!(report.sampled_traces, 200);
        for trace in traces.iter().take(20) {
            assert!(sharded.backend().query(trace.trace_id()).is_exact());
        }
    }

    #[test]
    fn worker_panic_message_reaches_the_coordinator() {
        use trace_model::AttrValue;
        let mut traces: Vec<trace_model::Trace> = workload(40).iter().cloned().collect();
        for span in traces[23].spans_mut() {
            span.attributes_mut()
                .insert("mint_test_panic", AttrValue::str("injected sharded fault"));
        }
        let traces: TraceSet = traces.into_iter().collect();
        let result = std::panic::catch_unwind(move || {
            let mut sharded = ShardedDeployment::new(MintConfig::default().with_shard_count(4));
            sharded.process(&traces);
        });
        let payload = result.expect_err("worker panic must propagate");
        let message = worker_panic_message(payload.as_ref());
        assert!(
            message.contains("injected sharded fault"),
            "panic message lost: {message:?}"
        );
    }

    #[test]
    fn empty_batch_charges_no_duration_or_network() {
        // Regression: an empty batch used to clamp the empty span window to
        // a 1 s batch and re-charge a full per-batch pattern upload.
        let traces = workload(100);
        let mut sharded = ShardedDeployment::new(MintConfig::default().with_shard_count(2));
        let before = sharded.process(&traces);
        let after = sharded.process(&TraceSet::default());
        assert_eq!(after.traces, before.traces);
        assert_eq!(
            after.duration_s, before.duration_s,
            "empty batch inflated the simulated duration"
        );
        assert_eq!(
            after.network, before.network,
            "empty batch charged network traffic"
        );
    }

    #[test]
    fn empty_batch_does_not_lock_in_an_empty_warm_up() {
        let traces = workload(80);
        let mut sharded = ShardedDeployment::new(MintConfig::default().with_shard_count(2));
        let empty = sharded.process(&TraceSet::default());
        assert_eq!(empty.traces, 0);
        assert_eq!(empty.duration_s, 0);
        // The later real batch must warm up normally and stay queryable.
        let report = sharded.process(&traces);
        assert_eq!(report.traces, 80);
        for trace in &traces {
            assert!(!sharded.backend().query(trace.trace_id()).is_miss());
        }
    }

    #[test]
    fn query_handle_tracks_batch_reconciles() {
        let traces = workload(60);
        let mut sharded = ShardedDeployment::new(MintConfig::default().with_shard_count(2));
        let handle = sharded.query_handle();
        assert_eq!(handle.generation(), 1);
        for trace in &traces {
            assert!(handle.query(trace.trace_id()).is_miss());
        }
        sharded.process(&traces);
        assert_eq!(handle.generation(), 2);
        for trace in &traces {
            assert!(!handle.query(trace.trace_id()).is_miss());
        }
    }

    #[test]
    fn second_batch_merge_is_incremental() {
        let traces = workload(250);
        let mut sharded = ShardedDeployment::new(MintConfig::default().with_shard_count(4));
        sharded.process(&traces);
        let first = sharded.last_merge_stats();
        assert!(first.new_span_patterns > 0);
        // The identical batch again: everything is already interned, so the
        // merge must not re-intern a single pattern and must not rebuild.
        sharded.process(&traces);
        let second = sharded.last_merge_stats();
        assert_eq!(second.new_span_patterns, 0, "{second:?}");
        assert_eq!(second.new_topo_patterns, 0, "{second:?}");
        assert_eq!(second.new_templates, 0, "{second:?}");
        assert_eq!(sharded.merge_full_rebuilds(), 0);
        assert!(sharded.last_ingest_time() > Duration::ZERO);
        assert!(sharded.last_merge_time() > Duration::ZERO);
    }
}
