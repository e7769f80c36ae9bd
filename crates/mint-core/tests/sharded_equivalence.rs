//! Sharded-vs-serial equivalence: a [`StreamingDeployment`] whose one epoch
//! holds the whole batch (`epoch_trace_count = usize::MAX`), run with 1, 2
//! or 8 shards, must produce the same cumulative cost report and the same
//! per-trace backend query results as the serial [`MintDeployment`] on a
//! fixed-seed workload.
//!
//! Exact equivalence is asserted for every sampling mode whose per-trace
//! decision is a pure function of the trace (`All`, `None`, `Head`,
//! `AbnormalTag` — the latter being the paper's controlled-budget
//! configuration).  `MintBiased` keeps per-shard sampler history, so for it
//! the test asserts the softer production guarantees: identical workload
//! accounting, full queryability and a sane sampled fraction.

use mint_core::{
    ApproximateTrace, MintConfig, MintDeployment, QueryResult, SamplingMode, StreamingDeployment,
};
use trace_model::TraceSet;
use workload::{online_boutique, GeneratorConfig, TraceGenerator};

const SHARD_COUNTS: [usize; 3] = [1, 2, 8];

fn fixed_workload() -> TraceSet {
    TraceGenerator::new(
        online_boutique(),
        GeneratorConfig::default()
            .with_seed(4242)
            .with_abnormal_rate(0.05),
    )
    .generate(600)
}

/// A deployment that reconciles once per `process` call.
fn whole_batch(config: MintConfig, shards: usize) -> StreamingDeployment {
    StreamingDeployment::new(
        config
            .with_shard_count(shards)
            .with_epoch_trace_count(usize::MAX),
    )
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
    sharded: &StreamingDeployment,
    context: &str,
) {
    for trace in traces {
        let id = trace.trace_id();
        let expected = serial.backend().query(id);
        let actual = sharded.backend().query(id);
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
                "{context}: query variant mismatch for {id}: serial {expected:?} vs sharded {actual:?}"
            ),
        }
    }
}

fn run_equivalence(mode: SamplingMode) {
    let traces = fixed_workload();
    let base = MintConfig::default().with_sampling_mode(mode);

    let mut serial = MintDeployment::new(base.clone());
    let serial_report = serial.process(&traces);

    for shards in SHARD_COUNTS {
        let context = format!("mode {mode:?}, {shards} shard(s)");
        let mut sharded = whole_batch(base.clone(), shards);
        let sharded_report = sharded.process(&traces);
        assert_eq!(
            serial_report, sharded_report,
            "{context}: cost report diverged from serial"
        );
        assert_eq!(sharded.epoch_stats().len(), 1, "{context}: not one epoch");
        assert_queries_match(&traces, &serial, &sharded, &context);
    }
}

#[test]
fn equivalent_under_all_sampling() {
    run_equivalence(SamplingMode::All);
}

#[test]
fn equivalent_under_no_sampling() {
    run_equivalence(SamplingMode::None);
}

#[test]
fn equivalent_under_head_sampling() {
    run_equivalence(SamplingMode::Head);
}

#[test]
fn equivalent_under_abnormal_tag_sampling() {
    run_equivalence(SamplingMode::AbnormalTag);
}

#[test]
fn equivalent_across_repeated_batches() {
    let traces = fixed_workload();
    let base = MintConfig::default().with_sampling_mode(SamplingMode::AbnormalTag);

    let mut serial = MintDeployment::new(base.clone());
    serial.process(&traces);
    let serial_report = serial.process(&traces);

    for shards in [2usize, 8] {
        let mut sharded = whole_batch(base.clone(), shards);
        sharded.process(&traces);
        let sharded_report = sharded.process(&traces);
        assert_eq!(
            serial_report, sharded_report,
            "{shards} shard(s): second-batch report diverged"
        );
    }
}

#[test]
fn mint_biased_mode_stays_queryable_and_bounded() {
    let traces = fixed_workload();
    let base = MintConfig::default(); // MintBiased

    let mut serial = MintDeployment::new(base.clone());
    let serial_report = serial.process(&traces);

    for shards in SHARD_COUNTS {
        let mut sharded = whole_batch(base.clone(), shards);
        let report = sharded.process(&traces);
        // Workload accounting is partition-invariant even when sampler
        // history is not.
        assert_eq!(report.traces, serial_report.traces);
        assert_eq!(report.spans, serial_report.spans);
        assert_eq!(report.raw_trace_bytes, serial_report.raw_trace_bytes);
        assert_eq!(report.duration_s, serial_report.duration_s);
        // Biased sampling still fires, and not on everything.
        assert!(
            report.sampled_traces > 0,
            "{shards} shard(s): nothing sampled"
        );
        assert!(
            report.sampling_rate() < 0.8,
            "{shards} shard(s): rate {}",
            report.sampling_rate()
        );
        for trace in &traces {
            assert!(
                !sharded.backend().query(trace.trace_id()).is_miss(),
                "{shards} shard(s): miss for {}",
                trace.trace_id()
            );
        }
    }
}
