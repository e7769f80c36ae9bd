//! Differential fuzzing of the two ingest drivers: proptest-generated trace
//! batches are driven through the serial [`MintDeployment`] and the
//! epoch-based [`StreamingDeployment`], and the suite asserts **identical**
//! [`DeploymentReport`]s and per-trace query results for every sampling mode
//! whose per-trace decision is a pure function of the trace (`All`, `None`,
//! `Head`, `AbnormalTag`), across shard counts {1, 2, 8} and epoch sizes
//! {1, 7, 64, whole batch}.  The whole-batch arm (one epoch) is the
//! batch-sharded case.
//!
//! The serial driver is the oracle: whatever it reports and answers, the
//! parallel driver must reproduce byte for byte.  `MintBiased` keeps
//! per-shard sampler history, so for it the suite asserts the softer
//! production guarantees (exact workload accounting, full queryability,
//! bounded sampling rate) — the documented equivalence boundary.
//!
//! Workload sizes honour `MINT_SCALE` so CI can run the same suite at
//! larger scales.

use mint_core::{
    ApproximateTrace, DeploymentReport, MintConfig, MintDeployment, QueryResult, SamplingMode,
    StreamingDeployment,
};
use proptest::prelude::*;
use trace_model::TraceSet;
use workload::{online_boutique, GeneratorConfig, TraceGenerator};

const SHARD_COUNTS: [usize; 3] = [1, 2, 8];
/// `usize::MAX` puts the whole batch in one epoch: warm on the full batch,
/// route, ingest per shard, reconcile once.
const WHOLE_BATCH: usize = usize::MAX;
const EPOCH_SIZES: [usize; 4] = [1, 7, 64, WHOLE_BATCH];

fn scale() -> f64 {
    std::env::var("MINT_SCALE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|v| *v > 0.0)
        .unwrap_or(1.0)
}

fn scaled(base: usize) -> usize {
    ((base as f64 * scale()) as usize).max(30)
}

fn workload(seed: u64, n: usize, abnormal: f64) -> TraceSet {
    TraceGenerator::new(
        online_boutique(),
        GeneratorConfig::default()
            .with_seed(seed)
            .with_abnormal_rate(abnormal),
    )
    .generate(n)
}

/// Flattens an approximate trace into a sortable, id-free representation so
/// results can be compared across deployments whose internal pattern ids
/// differ.
fn approx_key(approx: &ApproximateTrace) -> (usize, Vec<(String, String, String, String)>) {
    let mut spans: Vec<(String, String, String, String)> = approx
        .spans
        .iter()
        .map(|s| {
            (
                s.node.clone(),
                s.service.clone(),
                s.name.clone(),
                s.duration_range.clone(),
            )
        })
        .collect();
    spans.sort();
    (approx.matched_segments, spans)
}

fn assert_queries_match(
    traces: &TraceSet,
    serial: &MintDeployment,
    other: &mint_core::MintBackend,
    context: &str,
) {
    for trace in traces {
        let id = trace.trace_id();
        let expected = serial.backend().query(id);
        let actual = other.query(id);
        match (&expected, &actual) {
            (QueryResult::Exact(a), QueryResult::Exact(b)) => {
                assert_eq!(a, b, "{context}: exact trace mismatch for {id}");
            }
            (QueryResult::Approximate(a), QueryResult::Approximate(b)) => {
                assert_eq!(
                    approx_key(a),
                    approx_key(b),
                    "{context}: approximate trace mismatch for {id}"
                );
            }
            (QueryResult::Miss, QueryResult::Miss) => {}
            (expected, actual) => panic!(
                "{context}: query variant mismatch for {id}: serial {expected:?} vs {actual:?}"
            ),
        }
    }
}

/// Drives one generated batch through both drivers under `mode`, the
/// streaming one at every shard count and epoch size, and asserts
/// serial equality everywhere.
fn differential_case(seed: u64, n: usize, abnormal: f64, mode: SamplingMode) {
    let traces = workload(seed, n, abnormal);
    let base = MintConfig::default().with_sampling_mode(mode);

    let mut serial = MintDeployment::new(base.clone());
    let serial_report: DeploymentReport = serial.process(&traces);

    for shards in SHARD_COUNTS {
        for epoch in EPOCH_SIZES {
            let context =
                format!("mode {mode:?}, seed {seed}, {shards} shard(s), epoch {epoch}, streaming");
            let mut streaming = StreamingDeployment::new(
                base.clone()
                    .with_shard_count(shards)
                    .with_epoch_trace_count(epoch),
            );
            let streaming_report = streaming.process(&traces);
            assert_eq!(
                serial_report, streaming_report,
                "{context}: cost report diverged from serial"
            );
            assert_queries_match(&traces, &serial, streaming.backend(), &context);
            assert_eq!(
                streaming.merge_full_rebuilds(),
                0,
                "{context}: warm-up-covered workload should never drift"
            );
            if epoch == WHOLE_BATCH {
                assert_eq!(streaming.epoch_stats().len(), 1, "{context}: not one epoch");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn differential_under_all_sampling(
        seed in 0u64..1_000_000,
        n in 60usize..140,
        abnormal in 0.0f64..0.12,
    ) {
        differential_case(seed, scaled(n), abnormal, SamplingMode::All);
    }

    #[test]
    fn differential_under_no_sampling(
        seed in 0u64..1_000_000,
        n in 60usize..140,
        abnormal in 0.0f64..0.12,
    ) {
        differential_case(seed, scaled(n), abnormal, SamplingMode::None);
    }

    #[test]
    fn differential_under_head_sampling(
        seed in 0u64..1_000_000,
        n in 60usize..140,
        abnormal in 0.0f64..0.12,
    ) {
        differential_case(seed, scaled(n), abnormal, SamplingMode::Head);
    }

    #[test]
    fn differential_under_abnormal_tag_sampling(
        seed in 0u64..1_000_000,
        n in 60usize..140,
        abnormal in 0.0f64..0.12,
    ) {
        differential_case(seed, scaled(n), abnormal, SamplingMode::AbnormalTag);
    }
}

/// Multi-stream accumulation: two consecutive streams must equal two serial
/// batches, byte for byte, with the second stream's merges fully
/// incremental.
#[test]
fn repeated_streams_match_repeated_serial_batches() {
    let traces = workload(4242, scaled(120), 0.05);
    let base = MintConfig::default().with_sampling_mode(SamplingMode::AbnormalTag);

    let mut serial = MintDeployment::new(base.clone());
    serial.process(&traces);
    let serial_report = serial.process(&traces);

    for (shards, epoch) in [
        (2usize, 13usize),
        (8, 13),
        (2, WHOLE_BATCH),
        (8, WHOLE_BATCH),
    ] {
        let context = format!("{shards} shard(s), epoch {epoch}, repeated streams");
        let mut streaming = StreamingDeployment::new(
            base.clone()
                .with_shard_count(shards)
                .with_epoch_trace_count(epoch),
        );
        streaming.process(&traces);
        let epochs_after_first = streaming.epoch_stats().len();
        let streaming_report = streaming.process(&traces);
        assert_eq!(
            serial_report, streaming_report,
            "{context}: second-stream report diverged"
        );
        assert_queries_match(&traces, &serial, streaming.backend(), &context);
        // The second stream replays known patterns only.
        let second_stream_interned: usize = streaming.epoch_stats()[epochs_after_first..]
            .iter()
            .map(|e| e.merge.new_span_patterns + e.merge.new_topo_patterns + e.merge.new_templates)
            .sum();
        assert_eq!(
            second_stream_interned, 0,
            "{context}: second stream re-interned patterns"
        );
        assert_eq!(streaming.merge_full_rebuilds(), 0, "{context}: rebuilt");
    }
}

/// The documented equivalence boundary: `MintBiased` keeps per-shard sampler
/// history, so the streaming driver approximates the serial decisions while
/// keeping workload accounting exact and every trace queryable.
#[test]
fn mint_biased_streaming_stays_queryable_and_bounded() {
    let traces = workload(99, scaled(200), 0.06);
    let base = MintConfig::default(); // MintBiased

    let mut serial = MintDeployment::new(base.clone());
    let serial_report = serial.process(&traces);

    for (shards, epoch) in SHARD_COUNTS
        .into_iter()
        .flat_map(|shards| [(shards, 32), (shards, WHOLE_BATCH)])
    {
        let mut streaming = StreamingDeployment::new(
            base.clone()
                .with_shard_count(shards)
                .with_epoch_trace_count(epoch),
        );
        let context = format!("{shards} shard(s), epoch {epoch}");
        let report = streaming.process(&traces);
        assert_eq!(report.traces, serial_report.traces);
        assert_eq!(report.spans, serial_report.spans);
        assert_eq!(report.raw_trace_bytes, serial_report.raw_trace_bytes);
        assert_eq!(report.duration_s, serial_report.duration_s);
        assert!(report.sampled_traces > 0, "{context}: nothing sampled");
        assert!(
            report.sampling_rate() < 0.8,
            "{context}: rate {}",
            report.sampling_rate()
        );
        for trace in &traces {
            assert!(
                !streaming.backend().query(trace.trace_id()).is_miss(),
                "{context}: miss for {}",
                trace.trace_id()
            );
        }
    }
}

/// Renders the full query surface (every workload trace id) of one backend
/// state as an id-free fingerprint, so states from different deployments —
/// or from a pinned concurrent snapshot — can be compared byte for byte.
fn query_fingerprint(
    traces: &TraceSet,
    query: impl Fn(trace_model::TraceId) -> QueryResult,
) -> Vec<String> {
    traces
        .iter()
        .map(|trace| match query(trace.trace_id()) {
            QueryResult::Miss => "miss".to_owned(),
            QueryResult::Exact(exact) => format!("exact:{exact:?}"),
            QueryResult::Approximate(approx) => format!("approx:{:?}", approx_key(&approx)),
        })
        .collect()
}

/// The tentpole differential: reader threads hammering a cloned
/// [`mint_core::QueryHandle`] mid-stream must only ever observe states
/// byte-identical to some epoch-boundary snapshot of the serial oracle.
///
/// The oracle is the serial driver fed the identical workload in
/// epoch-sized batches: its state after batch *k* is exactly what generation
/// *k + 1* must answer (generation 1 is the post-warm-up, pre-stream state
/// published by `query_handle` itself).  Readers pin every distinct
/// generation they see; each pinned snapshot is fingerprinted over the full
/// query surface and matched against its boundary.  Readers only observe:
/// the queried run's cost report equals that of the same stream with no
/// handle alive.
#[test]
fn concurrent_queries_observe_only_epoch_boundary_states() {
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicBool, Ordering};

    let epoch = 20usize;
    // An exact multiple of the epoch size: boundaries align with the serial
    // chunks, and (with the look-ahead stream loop) the final epoch doubles
    // as the end-of-stream reconcile — no redundant tail generation.
    let n = (scaled(120) / epoch).max(3) * epoch;
    let traces = workload(31337, n, 0.05);
    let base = MintConfig::default().with_sampling_mode(SamplingMode::AbnormalTag);
    let epochs = n / epoch;

    // Serial oracle: warm on the full batch (mirroring the streaming
    // driver's explicit warm-up), then process epoch-sized batches,
    // fingerprinting the queryable state at every boundary.
    let mut serial = MintDeployment::new(base.clone());
    serial.warm_up(&traces);
    let mut boundaries: Vec<Vec<String>> =
        vec![query_fingerprint(&traces, |id| serial.backend().query(id))];
    let all: Vec<trace_model::Trace> = traces.iter().cloned().collect();
    for chunk in all.chunks(epoch) {
        let batch: TraceSet = chunk.iter().cloned().collect();
        serial.process(&batch);
        boundaries.push(query_fingerprint(&traces, |id| serial.backend().query(id)));
    }
    assert_eq!(boundaries.len(), epochs + 1);

    for shards in [2usize, 4] {
        let config = base
            .clone()
            .with_shard_count(shards)
            .with_epoch_trace_count(epoch);
        // The same stream with no handle alive, so nothing is published:
        // readers are observers, and the report must not move.
        let mut quiet = StreamingDeployment::new(config.clone());
        quiet.warm_up(&traces);
        let quiet_report = quiet.process_stream(traces.iter().cloned());

        let mut streaming = StreamingDeployment::new(config);
        streaming.warm_up(&traces);
        let handle = streaming.query_handle();
        assert_eq!(
            handle.generation(),
            1,
            "subscribe publishes the current state"
        );
        let done = AtomicBool::new(false);

        std::thread::scope(|scope| {
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    let reader = handle.clone();
                    let done = &done;
                    scope.spawn(move || {
                        let mut pinned = BTreeMap::new();
                        loop {
                            // Load the flag BEFORE taking the snapshot: once
                            // the stream has drained (and its final reconcile
                            // published), the next snapshot is guaranteed to
                            // be the final generation, so every reader pins
                            // it before returning.
                            let finished = done.load(Ordering::Acquire);
                            let snapshot = reader.snapshot();
                            pinned.entry(snapshot.generation()).or_insert(snapshot);
                            if finished {
                                return pinned;
                            }
                            std::thread::yield_now();
                        }
                    })
                })
                .collect();

            let report = streaming.process_stream(traces.iter().cloned());
            done.store(true, Ordering::Release);
            assert_eq!(
                report, quiet_report,
                "{shards} shard(s): concurrent readers changed the cost report"
            );

            for reader in readers {
                let pinned = reader.join().expect("reader thread panicked");
                assert!(
                    pinned.contains_key(&(epochs as u64 + 1)),
                    "{shards} shard(s): reader never saw the final generation"
                );
                for (generation, snapshot) in pinned {
                    let boundary = (generation - 1) as usize;
                    assert!(
                        boundary < boundaries.len(),
                        "{shards} shard(s): generation {generation} beyond the last boundary"
                    );
                    assert_eq!(
                        query_fingerprint(&traces, |id| snapshot.query(id)),
                        boundaries[boundary],
                        "{shards} shard(s): generation {generation} diverged from \
                         serial boundary {boundary}"
                    );
                }
            }
        });

        // Generation arithmetic doubles as the tail-epoch pin: one subscribe
        // publication plus exactly one per reconcile — a redundant
        // zero-trace end-of-stream epoch would add one more.
        assert_eq!(handle.generation(), epochs as u64 + 1);
        assert_eq!(streaming.epoch_stats().len(), epochs);
    }
}

/// A stream of exactly `k * epoch_trace_count` traces reconciles `k` times
/// — the final epoch doubles as the end-of-stream reconcile instead of
/// being followed by a redundant zero-trace epoch — while still matching
/// the serial report and query surface byte for byte.
#[test]
fn exact_multiple_stream_matches_serial_without_a_tail_epoch() {
    let epoch = 16usize;
    let n = (scaled(96) / epoch).max(3) * epoch;
    let traces = workload(2718, n, 0.04);
    let base = MintConfig::default().with_sampling_mode(SamplingMode::AbnormalTag);

    let mut serial = MintDeployment::new(base.clone());
    let serial_report = serial.process(&traces);

    for shards in [1usize, 4] {
        let context = format!("{shards} shard(s), epoch {epoch}, exact-multiple stream");
        let mut streaming = StreamingDeployment::new(
            base.clone()
                .with_shard_count(shards)
                .with_epoch_trace_count(epoch),
        );
        let report = streaming.process(&traces);
        assert_eq!(report, serial_report, "{context}: report diverged");
        assert_queries_match(&traces, &serial, streaming.backend(), &context);

        let stats = streaming.epoch_stats();
        assert_eq!(stats.len(), n / epoch, "{context}: redundant tail epoch");
        let last = stats.last().expect("at least one epoch");
        assert!(
            last.end_of_stream,
            "{context}: final epoch not end-of-stream"
        );
        assert_eq!(last.traces, epoch as u64, "{context}: final epoch short");
        assert!(
            stats.iter().all(|e| e.traces == epoch as u64),
            "{context}: uneven epochs"
        );
    }
}

/// Chaos-laden streams obey the same serial-equivalence oracle.  The timed
/// in-flight perturbation is a pure function of `(scenario, trace)` — every
/// injector draw is keyed on the trace id — so a materialized chaos stream
/// and a freshly re-streamed one are the same workload, and the serial
/// driver, the whole-batch arm and the epoch-streamed arms must agree byte
/// for byte on it under every deterministic sampling mode, with identical
/// ground truth on both passes.
#[test]
fn chaos_stream_differential_across_drivers() {
    use workload::{ChaosScenario, ChaosSource, FaultType, FaultWindow, StreamingSource};

    let requests = scaled(120);
    let generator = GeneratorConfig::default()
        .with_seed(777)
        .with_abnormal_rate(0.02)
        .with_mean_interarrival_us(10_000);
    let start = generator.start_time_us;
    let span = requests as u64 * 10_000;
    // Two overlapping windows exercising a latency fault and an error fault
    // with different impact ratios.
    let scenario = ChaosScenario::new("differential", 0xD1FF)
        .window(FaultWindow::new(
            FaultType::CpuExhaustion,
            "currencyservice",
            start + span / 4,
            span / 3,
        ))
        .window(
            FaultWindow::new(
                FaultType::ErrorReturn,
                "cartservice",
                start + span / 2,
                span / 4,
            )
            .with_impact_ratio(0.5),
        );
    let make_source = || {
        ChaosSource::new(
            StreamingSource::paced(online_boutique(), generator.clone(), requests),
            &scenario,
        )
    };

    // Materialize once for the serial oracle; record the ground truth.
    let mut materialized = make_source();
    let traces: TraceSet = materialized.by_ref().collect();
    let truth = materialized.into_ground_truth();
    assert!(
        truth.iter().all(|t| !t.affected_trace_ids.is_empty()),
        "every window should affect some traces at this scale"
    );

    for mode in [
        SamplingMode::All,
        SamplingMode::None,
        SamplingMode::Head,
        SamplingMode::AbnormalTag,
    ] {
        let base = MintConfig::default().with_sampling_mode(mode);
        let mut serial = MintDeployment::new(base.clone());
        let serial_report = serial.process(&traces);

        for shards in [1usize, 4] {
            let context = format!("chaos, mode {mode:?}, {shards} shard(s), whole batch");
            let mut whole = StreamingDeployment::new(
                base.clone()
                    .with_shard_count(shards)
                    .with_epoch_trace_count(WHOLE_BATCH),
            );
            let whole_report = whole.process(&traces);
            assert_eq!(
                serial_report, whole_report,
                "{context}: cost report diverged from serial"
            );
            assert_eq!(whole.epoch_stats().len(), 1, "{context}: not one epoch");
            assert_queries_match(&traces, &serial, whole.backend(), &context);

            for epoch in [7usize, 64] {
                let context =
                    format!("chaos, mode {mode:?}, {shards} shard(s), epoch {epoch}, streaming");
                let mut streaming = StreamingDeployment::new(
                    base.clone()
                        .with_shard_count(shards)
                        .with_epoch_trace_count(epoch),
                );
                // Serial warm-up semantics, then stream a *fresh* chaos
                // source: in-flight injection must reproduce the
                // materialized batch exactly.
                streaming.warm_up(&traces);
                let mut fresh = make_source();
                let streaming_report = streaming.process_stream(&mut fresh);
                assert_eq!(
                    serial_report, streaming_report,
                    "{context}: cost report diverged from serial"
                );
                assert_queries_match(&traces, &serial, streaming.backend(), &context);
                assert_eq!(
                    fresh.into_ground_truth(),
                    truth,
                    "{context}: ground truth diverged between materialized and re-streamed runs"
                );
            }
        }
    }
}
