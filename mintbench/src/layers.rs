//! The traced run: per-layer numbers from spans around the benchmark's calls
//! into each layer.
//!
//! After one discarded warm-up repetition come [`PASSES`] passes, a constant
//! number, and every timing is the median over them.  On a serial workload a
//! pass is an untraced reference (`MintDeployment::process`, timed as a
//! whole) followed by the traced twin pipeline and the traced read mix over
//! the same corpus, and a Bloom-filter probe follows the last pass.  On
//! `prod-stream` a pass is the same reference followed by the streaming
//! driver (two shards, no reader).  Each workload runs only the passes it
//! owns; the metrics of the others read 0.

use crate::alloc;
use crate::check::{check_answer, Tally};
use crate::e2e::stream_shards;
use crate::runs::{serial_ingest, stream_rep, SerialIngest, StreamRep};
use crate::stats::{median, quantile, spread_share};
use crate::tracer::{by_layer, LayerSum, Record, Tracer};
use crate::twin::TwinDeployment;
use crate::workloads::{attribute_profile, Corpus, Workload};
use crate::{Metric, Options};
use mint_bloom::BloomFilter;
use mint_core::QueryResult;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Passes of every traced run, after the discarded repetition.
pub const PASSES: usize = 5;

/// Shard workers of the traced streaming pass: two, so that the merge sees
/// cross-shard work even on a two-core host.
const TRACED_STREAM_SHARDS: usize = 2;

/// Spans that are glue or bookkeeping, not a call into a library function.
/// What the real pipeline spends outside the other spans is "unattributed".
const NOT_A_LAYER_CALL: [&str; 2] = ["collector.ingest_trace", "agent.ingest_sub_trace"];

/// Names and units of what only the streaming passes measure.
const STREAM_ONLY: [(&str, &str); 12] = [
    ("streaming.epochs", "count"),
    ("streaming.epoch_wall.p50_ms", "ms"),
    ("streaming.router_blocked_share", "ratio"),
    ("streaming.overhead_vs_serial", "ratio"),
    ("streaming.cpu_inflation", "ratio"),
    ("merge.reconcile.p50_ms", "ms"),
    ("merge.reconcile.wall_share", "ratio"),
    ("merge.new_patterns_per_epoch", "count"),
    ("merge.full_rebuilds", "count"),
    ("snapshot.generations", "count"),
    ("snapshot.refresh.p50_us", "us"),
    ("snapshot.visible_lag.p50_ms", "ms"),
];

/// Names and units of what only the twin passes, the traced read mix and the
/// Bloom probe measure.
const SERIAL_ONLY: [(&str, &str); 57] = [
    ("trace_model.split.ns_per_span", "ns"),
    ("trace_model.split.allocs_per_span", "count"),
    ("trace_model.split.bytes_per_span", "B"),
    ("trace_model.wire_size.ns_per_span", "ns"),
    ("samplers.symptom.ns_per_span", "ns"),
    ("samplers.symptom.allocs_per_span", "count"),
    ("samplers.symptom.hit_share", "ratio"),
    ("samplers.edge_case.ns_per_subtrace", "ns"),
    ("samplers.edge_case.hit_share", "ratio"),
    ("span_parser.parse.ns_per_span", "ns"),
    ("span_parser.parse.allocs_per_span", "count"),
    ("span_parser.parse.bytes_per_span", "B"),
    ("span_parser.new_pattern_share", "ratio"),
    ("span_parser.fallback_share", "ratio"),
    ("span_parser.prefilter.considered_per_kspan", "count"),
    ("span_parser.prefilter.skip_share", "ratio"),
    ("span_parser.warm_up.ms", "ms"),
    ("span_parser.span_patterns", "count"),
    ("span_parser.attr_patterns", "count"),
    ("span_parser.library_bytes", "B"),
    ("trace_parser.encode.ns_per_subtrace", "ns"),
    ("trace_parser.encode.allocs_per_subtrace", "count"),
    ("trace_parser.observe.ns_per_subtrace", "ns"),
    ("trace_parser.topo_patterns", "count"),
    ("trace_parser.bloom_flushes", "count"),
    ("mint_bloom.insert.ns", "ns"),
    ("mint_bloom.contains.ns", "ns"),
    ("mint_bloom.false_hit_share", "ratio"),
    ("params.push.ns_per_subtrace", "ns"),
    ("params.take.ns", "ns"),
    ("params.evicted_share", "ratio"),
    ("params.used_bytes", "B"),
    ("agent.ingest_sub_trace.ns_per_span", "ns"),
    ("agent.self.ns_per_span", "ns"),
    ("agent.allocs_per_span", "count"),
    ("collector.ingest_trace.ns_per_span", "ns"),
    ("collector.self.ns_per_span", "ns"),
    ("collector.flush.ms", "ms"),
    ("collector.warm_up.ms", "ms"),
    ("collector.sampled_share", "ratio"),
    ("collector.net.pattern_bytes", "B"),
    ("collector.net.bloom_bytes", "B"),
    ("collector.net.params_bytes", "B"),
    ("collector.unattributed_share", "ratio"),
    ("backend.query_exact.p50_us", "us"),
    ("backend.query_approx.p50_us", "us"),
    ("backend.query_miss.p50_us", "us"),
    ("backend.query.p99_us", "us"),
    ("backend.mix.exact_share", "ratio"),
    ("backend.mix.approx_share", "ratio"),
    ("backend.mix.miss_share", "ratio"),
    ("backend.matched_segments.mean", "count"),
    ("backend.store_params.ns", "ns"),
    ("backend.pattern_bytes", "B"),
    ("backend.bloom_bytes", "B"),
    ("backend.params_bytes", "B"),
    ("bench.trace_overhead_share", "ratio"),
];

/// What a traced run found.
pub struct Layers {
    /// Every per-layer metric.
    pub metrics: Vec<Metric>,
    /// Attempted and failed operations.
    pub tally: Tally,
    /// The spans of the last twin pass, for `--trace-out`.
    pub records: Vec<Record>,
}

/// Samples of each per-layer timing across passes, with the metric's unit;
/// the reported value is their median.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, (&'static str, Vec<f64>)>);

impl Samples {
    fn push(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.0
            .entry(name)
            .or_insert((unit, Vec::new()))
            .1
            .push(value);
    }

    fn into_metrics(self) -> impl Iterator<Item = Metric> {
        self.0
            .into_iter()
            .map(|(name, (unit, mut values))| Metric::new(name, median(&mut values), unit))
    }
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

fn p50(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        quantile(&mut samples.to_vec(), 0.50)
    }
}

/// Counts that do not depend on timing, read off the twin after a pass.
struct TwinCounts {
    sub_traces: f64,
    metrics: Vec<Metric>,
}

fn twin_counts(twin: &TwinDeployment, spans: f64) -> TwinCounts {
    let agents = || twin.agents.values();
    let sum = |value: fn(&crate::twin::TwinAgent) -> u64| agents().map(value).sum::<u64>() as f64;
    let pushed = sum(|a| a.pushed_blocks);
    let prefilter = agents().fold(mint_core::PrefilterStats::default(), |mut total, agent| {
        total.absorb(agent.span_parser.prefilter_stats());
        total
    });
    let report = twin.report();
    let metrics = vec![
        Metric::new(
            "samplers.symptom.hit_share",
            ratio(
                sum(|a| a.symptom.triggered()),
                sum(|a| a.symptom.observed_spans()),
            ),
            "ratio",
        ),
        Metric::new(
            "samplers.edge_case.hit_share",
            ratio(
                sum(|a| a.edge_case.triggered()),
                sum(|a| a.edge_case.decisions()),
            ),
            "ratio",
        ),
        Metric::new(
            "span_parser.new_pattern_share",
            sum(|a| a.new_pattern_spans) / spans,
            "ratio",
        ),
        Metric::new(
            "span_parser.fallback_share",
            sum(|a| a.fallback_spans) / spans,
            "ratio",
        ),
        Metric::new(
            "span_parser.prefilter.considered_per_kspan",
            prefilter.candidates_considered as f64 * 1e3 / spans,
            "count",
        ),
        Metric::new(
            "span_parser.prefilter.skip_share",
            ratio(
                prefilter.candidates_skipped as f64,
                prefilter.candidates_considered as f64,
            ),
            "ratio",
        ),
        Metric::new(
            "span_parser.span_patterns",
            report.span_patterns as f64,
            "count",
        ),
        Metric::new(
            "span_parser.attr_patterns",
            sum(|a| a.span_parser.attribute_pattern_count() as u64),
            "count",
        ),
        Metric::new(
            "span_parser.library_bytes",
            sum(|a| a.span_parser.library_size_bytes() as u64),
            "B",
        ),
        Metric::new(
            "trace_parser.topo_patterns",
            report.topo_patterns as f64,
            "count",
        ),
        Metric::new(
            "trace_parser.bloom_flushes",
            sum(|a| a.topo_library.flushed_blooms()),
            "count",
        ),
        Metric::new(
            "params.evicted_share",
            ratio(sum(|a| a.params_buffer.evicted_blocks()), pushed),
            "ratio",
        ),
        Metric::new(
            "params.used_bytes",
            sum(|a| a.params_buffer.used_bytes() as u64),
            "B",
        ),
        Metric::new("collector.sampled_share", report.sampling_rate(), "ratio"),
        Metric::new(
            "collector.net.pattern_bytes",
            report.network.pattern_bytes as f64,
            "B",
        ),
        Metric::new(
            "collector.net.bloom_bytes",
            report.network.bloom_bytes as f64,
            "B",
        ),
        Metric::new(
            "collector.net.params_bytes",
            report.network.params_bytes as f64,
            "B",
        ),
        Metric::new(
            "backend.pattern_bytes",
            report.storage.pattern_bytes as f64,
            "B",
        ),
        Metric::new(
            "backend.bloom_bytes",
            report.storage.bloom_bytes as f64,
            "B",
        ),
        Metric::new(
            "backend.params_bytes",
            report.storage.params_bytes as f64,
            "B",
        ),
    ];
    TwinCounts {
        sub_traces: pushed,
        metrics,
    }
}

/// Pushes the per-pass timings of the ingest region.
fn ingest_samples(
    samples: &mut Samples,
    layers: &BTreeMap<&'static str, LayerSum>,
    counts: &TwinCounts,
    spans: f64,
) {
    let layer = |name: &str| layers.get(name).copied().unwrap_or_default();
    let per = |sum: u64, count: f64| ratio(sum as f64, count);
    let subs = counts.sub_traces;

    let split = layer("trace_model.split");
    samples.push(
        "trace_model.split.ns_per_span",
        "ns",
        per(split.total_ns, spans),
    );
    samples.push(
        "trace_model.split.allocs_per_span",
        "count",
        per(split.allocs, spans),
    );
    samples.push(
        "trace_model.split.bytes_per_span",
        "B",
        per(split.alloc_bytes, spans),
    );
    samples.push(
        "trace_model.wire_size.ns_per_span",
        "ns",
        per(layer("trace_model.wire_size").total_ns, spans),
    );
    let symptom = layer("samplers.symptom");
    samples.push(
        "samplers.symptom.ns_per_span",
        "ns",
        per(symptom.total_ns, spans),
    );
    samples.push(
        "samplers.symptom.allocs_per_span",
        "count",
        per(symptom.allocs, spans),
    );
    samples.push(
        "samplers.edge_case.ns_per_subtrace",
        "ns",
        per(layer("samplers.edge_case").total_ns, subs),
    );
    let parse = layer("span_parser.parse");
    samples.push(
        "span_parser.parse.ns_per_span",
        "ns",
        per(parse.total_ns, spans),
    );
    samples.push(
        "span_parser.parse.allocs_per_span",
        "count",
        per(parse.allocs, spans),
    );
    samples.push(
        "span_parser.parse.bytes_per_span",
        "B",
        per(parse.alloc_bytes, spans),
    );
    let encode = layer("trace_parser.encode");
    samples.push(
        "trace_parser.encode.ns_per_subtrace",
        "ns",
        per(encode.total_ns, subs),
    );
    samples.push(
        "trace_parser.encode.allocs_per_subtrace",
        "count",
        per(encode.allocs, subs),
    );
    samples.push(
        "trace_parser.observe.ns_per_subtrace",
        "ns",
        per(layer("trace_parser.observe").total_ns, subs),
    );
    samples.push(
        "params.push.ns_per_subtrace",
        "ns",
        per(layer("params.push").total_ns, subs),
    );
    let take = layer("params.take");
    samples.push(
        "params.take.ns",
        "ns",
        per(take.total_ns, take.calls as f64),
    );
    let agent = layer("agent.ingest_sub_trace");
    samples.push(
        "agent.ingest_sub_trace.ns_per_span",
        "ns",
        per(agent.total_ns, spans),
    );
    samples.push("agent.self.ns_per_span", "ns", per(agent.self_ns, spans));
    samples.push("agent.allocs_per_span", "count", per(agent.allocs, spans));
    let collector = layer("collector.ingest_trace");
    samples.push(
        "collector.ingest_trace.ns_per_span",
        "ns",
        per(collector.total_ns, spans),
    );
    samples.push(
        "collector.self.ns_per_span",
        "ns",
        per(collector.self_ns, spans),
    );
    samples.push(
        "collector.flush.ms",
        "ms",
        layer("collector.flush").total_ns as f64 / 1e6,
    );
    let store = layer("backend.store_params");
    samples.push(
        "backend.store_params.ns",
        "ns",
        per(store.total_ns, store.calls as f64),
    );
}

/// The traced query phase: the read mix against the twin's backend, one span
/// per query, named after the kind of answer.
struct QueryPhase {
    exact_us: Vec<f64>,
    approx_us: Vec<f64>,
    miss_us: Vec<f64>,
    matched_segments: u64,
    never_ingested: u64,
    false_hits: u64,
}

fn traced_queries(
    corpus: &Corpus,
    twin: &TwinDeployment,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> QueryPhase {
    let mut phase = QueryPhase {
        exact_us: Vec::new(),
        approx_us: Vec::new(),
        miss_us: Vec::new(),
        matched_segments: 0,
        never_ingested: 0,
        false_hits: 0,
    };
    for &query in &corpus.queries {
        let handle = tracer.enter("backend.query", query.id.as_u128() as u64);
        let answer = twin.backend.query(query.id);
        tracer.exit(handle);
        let micros = tracer.records()[handle as usize].duration_ns() as f64 / 1e3;
        let name = match &answer {
            QueryResult::Exact(_) => {
                phase.exact_us.push(micros);
                "backend.query_exact"
            }
            QueryResult::Approximate(approximate) => {
                phase.approx_us.push(micros);
                phase.matched_segments += approximate.matched_segments as u64;
                "backend.query_approx"
            }
            QueryResult::Miss => {
                phase.miss_us.push(micros);
                "backend.query_miss"
            }
        };
        tracer.rename(handle, name);
        if query.trace.is_none() {
            phase.never_ingested += 1;
            phase.false_hits += u64::from(!answer.is_miss());
        }
        check_answer(corpus, query, &answer, tally);
    }
    tally.attempted(corpus.queries.len());
    phase
}

/// Times `BloomFilter::insert` and `contains` directly, on a filter of the
/// deployment's size and the corpus's trace ids, a whole batch per span:
/// single calls are shorter than a clock read.
fn bloom_probe(corpus: &Corpus, tracer: &mut Tracer) -> (f64, f64) {
    let ids: Vec<u128> = corpus
        .traces
        .iter()
        .map(|t| t.trace_id().as_u128())
        .collect();
    let mut filter =
        BloomFilter::with_byte_budget(corpus.config.bloom_buffer_bytes, corpus.config.bloom_fpp);
    const ROUNDS: usize = 20;
    let start = tracer.records().len();
    for _ in 0..ROUNDS {
        filter.reset();
        tracer.leaf("mint_bloom.insert", 0, || {
            for id in ids.iter().take(filter.capacity()) {
                black_box(filter.insert(id));
            }
        });
        tracer.leaf("mint_bloom.contains", 0, || {
            for id in &ids {
                black_box(filter.contains(id));
            }
        });
    }
    let layers = by_layer(tracer.records(), start..tracer.records().len());
    let inserted = (ids.len().min(filter.capacity()) * ROUNDS) as f64;
    (
        layers["mint_bloom.insert"].total_ns as f64 / inserted,
        layers["mint_bloom.contains"].total_ns as f64 / (ids.len() * ROUNDS) as f64,
    )
}

/// Pushes what one streaming pass measured, next to the serial reference of
/// the same pass.
fn stream_samples(samples: &mut Samples, stream: &StreamRep, serial: &SerialIngest) {
    let epochs = stream.deployment.epoch_stats();
    let merge_ms: Vec<f64> = epochs
        .iter()
        .map(|e| e.merge_time.as_secs_f64() * 1e3)
        .collect();
    let merged_s = merge_ms.iter().sum::<f64>() / 1e3;
    let new_patterns: usize = epochs
        .iter()
        .map(|e| e.merge.new_templates + e.merge.new_span_patterns + e.merge.new_topo_patterns)
        .sum();
    let wall_s = stream.ingest.wall_s;
    samples.push("streaming.epochs", "count", epochs.len() as f64);
    samples.push(
        "streaming.epoch_wall.p50_ms",
        "ms",
        p50(&stream.epoch_wall_ms),
    );
    // Neither producing traces nor merging: waiting for queue space or for
    // the workers at an epoch barrier.
    samples.push(
        "streaming.router_blocked_share",
        "ratio",
        (wall_s - stream.source_s - merged_s) / wall_s,
    );
    samples.push(
        "streaming.overhead_vs_serial",
        "ratio",
        wall_s / serial.ingest.wall_s,
    );
    samples.push(
        "streaming.cpu_inflation",
        "ratio",
        stream.ingest.cpu_s / serial.ingest.cpu_s,
    );
    samples.push("merge.reconcile.p50_ms", "ms", p50(&merge_ms));
    samples.push("merge.reconcile.wall_share", "ratio", merged_s / wall_s);
    samples.push(
        "merge.new_patterns_per_epoch",
        "count",
        new_patterns as f64 / epochs.len() as f64,
    );
    samples.push(
        "merge.full_rebuilds",
        "count",
        stream.deployment.merge_full_rebuilds() as f64,
    );
    samples.push("snapshot.generations", "count", stream.generations as f64);
    samples.push("snapshot.refresh.p50_us", "us", p50(&stream.refresh_us));
    samples.push(
        "snapshot.visible_lag.p50_ms",
        "ms",
        p50(&stream.visible_lag_ms),
    );
}

/// The passes `prod-stream` owns: an untraced serial reference, then the
/// streaming driver over the same corpus.  Returns the passes' spans/s.
fn stream_passes(corpus: &Corpus, seed: u64, samples: &mut Samples, tally: &mut Tally) -> Vec<f64> {
    let spans = corpus.traces.span_count() as f64;
    (0..PASSES)
        .map(|_| {
            let serial = serial_ingest(corpus, 1, false, tally);
            let stream = stream_rep(corpus, TRACED_STREAM_SHARDS, 1, false, false, seed, tally);
            if stream.report.traces != corpus.traces.len() as u64 {
                tally.fail(|| format!("the stream ingested {} traces", stream.report.traces));
            }
            stream_samples(samples, &stream, &serial);
            spans / stream.ingest.wall_s
        })
        .collect()
}

/// What the passes of a serial workload leave behind besides their samples.
struct TwinPasses {
    /// Spans/s of every untraced reference.
    rep_spans_per_s: Vec<f64>,
    /// Counts and the read mix's shares, which repeat from pass to pass.
    metrics: Vec<Metric>,
    /// The spans of the last pass and of the Bloom probe.
    records: Vec<Record>,
}

/// The passes a serial workload owns: an untraced reference
/// (`MintDeployment::process`, timed as a whole), then the traced twin and
/// the traced read mix; after the last pass, the Bloom probe.
fn twin_passes(
    workload: Workload,
    corpus: &Corpus,
    samples: &mut Samples,
    tally: &mut Tally,
) -> TwinPasses {
    let spans = corpus.traces.span_count() as f64;
    let mut rep_spans_per_s = Vec::with_capacity(PASSES);
    let mut last_pass = None;
    for _ in 0..PASSES {
        let real = serial_ingest(corpus, 1, false, tally);
        rep_spans_per_s.push(spans / real.ingest.wall_s);

        // The twin, traced and counted.
        let mut tracer = Tracer::with_capacity(
            corpus.traces.span_count() * 3 + corpus.traces.len() * 64 + corpus.queries.len(),
        );
        let mut twin = TwinDeployment::new(corpus.config.clone());
        twin.warm_up(&corpus.traces, &mut tracer);
        let warm_up = by_layer(tracer.records(), 0..tracer.records().len());
        samples.push(
            "collector.warm_up.ms",
            "ms",
            warm_up["collector.warm_up"].total_ns as f64 / 1e6,
        );
        samples.push(
            "span_parser.warm_up.ms",
            "ms",
            warm_up["span_parser.warm_up"].total_ns as f64 / 1e6,
        );

        let region_start = tracer.records().len();
        let wall = Instant::now();
        let report = alloc::count_this_thread(|| twin.process(&corpus.traces, &mut tracer));
        let twin_wall_s = wall.elapsed().as_secs_f64();
        tally.attempted(corpus.traces.len());
        if report != real.report {
            tally.fail(|| {
                format!(
                    "the twin reported {report:?}, the deployment {:?}",
                    real.report
                )
            });
        }

        // Closure, within the pass: the reference and the twin of one pass
        // run back to back, so a slow spell of the host mostly hits both.
        let layers = by_layer(tracer.records(), region_start..tracer.records().len());
        let attributed_s = layers
            .iter()
            .filter(|(name, _)| !NOT_A_LAYER_CALL.contains(name))
            .map(|(_, sum)| sum.self_ns)
            .sum::<u64>() as f64
            / 1e9;
        let reference_s = real.ingest.wall_s;
        samples.push(
            "collector.unattributed_share",
            "ratio",
            (reference_s - attributed_s) / reference_s,
        );
        samples.push(
            "bench.trace_overhead_share",
            "ratio",
            (twin_wall_s - reference_s) / reference_s,
        );
        let counts = twin_counts(&twin, spans);
        ingest_samples(samples, &layers, &counts, spans);

        let queries = traced_queries(corpus, &twin, &mut tracer, tally);
        samples.push("backend.query_exact.p50_us", "us", p50(&queries.exact_us));
        samples.push("backend.query_approx.p50_us", "us", p50(&queries.approx_us));
        samples.push("backend.query_miss.p50_us", "us", p50(&queries.miss_us));
        let mut all: Vec<f64> =
            [&queries.exact_us[..], &queries.approx_us, &queries.miss_us].concat();
        samples.push("backend.query.p99_us", "us", quantile(&mut all, 0.99));
        last_pass = Some((tracer, counts, queries));
    }
    let (mut tracer, counts, queries) = last_pass.expect("PASSES is not zero");

    let (bloom_insert_ns, bloom_contains_ns) = bloom_probe(corpus, &mut tracer);
    let fallback_share = counts
        .metrics
        .iter()
        .find(|m| m.name == "span_parser.fallback_share")
        .map_or(0.0, |m| m.value);
    if workload == Workload::DriftSerial && fallback_share < 0.05 {
        tally.fail(|| format!("drift-serial fell back on only {fallback_share:.3} of spans"));
    }

    let total_queries = corpus.queries.len() as f64;
    let mut metrics = vec![
        Metric::new("mint_bloom.insert.ns", bloom_insert_ns, "ns"),
        Metric::new("mint_bloom.contains.ns", bloom_contains_ns, "ns"),
        Metric::new(
            "mint_bloom.false_hit_share",
            ratio(queries.false_hits as f64, queries.never_ingested as f64),
            "ratio",
        ),
        Metric::new(
            "backend.mix.exact_share",
            queries.exact_us.len() as f64 / total_queries,
            "ratio",
        ),
        Metric::new(
            "backend.mix.approx_share",
            queries.approx_us.len() as f64 / total_queries,
            "ratio",
        ),
        Metric::new(
            "backend.mix.miss_share",
            queries.miss_us.len() as f64 / total_queries,
            "ratio",
        ),
        Metric::new(
            "backend.matched_segments.mean",
            ratio(
                queries.matched_segments as f64,
                queries.approx_us.len() as f64,
            ),
            "count",
        ),
    ];
    metrics.extend(counts.metrics);
    TwinPasses {
        rep_spans_per_s,
        metrics,
        records: tracer.into_records(),
    }
}

/// Runs the traced run of `workload` over `corpus`.
pub fn run(workload: Workload, corpus: &Corpus, options: &Options) -> Layers {
    let mut tally = Tally::default();
    let mut samples = Samples::default();

    // A discarded repetition first, as in the end-to-end run: it pays the
    // cold process's page faults, which would otherwise land on the first
    // reference and read as unattributed time.
    drop(serial_ingest(corpus, 1, false, &mut tally));

    let (mut rep_spans_per_s, owned, records) = if workload.is_stream() {
        let rates = stream_passes(corpus, options.seed, &mut samples, &mut tally);
        (rates, Vec::new(), Vec::new())
    } else {
        let passes = twin_passes(workload, corpus, &mut samples, &mut tally);
        (passes.rep_spans_per_s, passes.metrics, passes.records)
    };

    eprintln!(
        "{}: {} traces, {PASSES} passes after 1 discarded; their untraced spans/s {:?}",
        workload.name(),
        corpus.traces.len(),
        rep_spans_per_s
            .iter()
            .map(|v| v.round())
            .collect::<Vec<_>>(),
    );
    let (numeric_attrs, string_attrs) = attribute_profile(&corpus.traces);
    let mut metrics = vec![
        Metric::new("workload.generate.ms", corpus.generate_ms, "ms"),
        Metric::new("workload.traces", corpus.traces.len() as f64, "count"),
        Metric::new("workload.spans", corpus.traces.span_count() as f64, "count"),
        Metric::new(
            "workload.raw_bytes",
            corpus.traces.total_wire_size() as f64,
            "B",
        ),
        Metric::new("workload.numeric_attrs_per_span", numeric_attrs, "count"),
        Metric::new("workload.string_attrs_per_span", string_attrs, "count"),
        Metric::new(
            "bench.rep_spread_share",
            spread_share(&mut rep_spans_per_s),
            "ratio",
        ),
        Metric::new("bench.nproc", options.nproc as f64, "count"),
        Metric::new("bench.shards", stream_shards(options.nproc) as f64, "count"),
        Metric::new("bench.reps", PASSES as f64, "count"),
    ];
    metrics.extend(owned);
    metrics.extend(samples.into_metrics());
    // A layer this workload's passes never call reads 0, so that every run
    // prints every name.
    let not_run = if workload.is_stream() {
        &SERIAL_ONLY[..]
    } else {
        &STREAM_ONLY[..]
    };
    metrics.extend(
        not_run
            .iter()
            .map(|&(name, unit)| Metric::new(name, 0.0, unit)),
    );

    for (name, limit) in [
        ("collector.unattributed_share", 0.10),
        ("bench.rep_spread_share", 0.10),
    ] {
        let value = metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value);
        if !options.smoke && value.abs() > limit {
            eprintln!(
                "{}: {name} is {value:.3}, beyond {limit}: a disturbed run, not a failed operation",
                workload.name()
            );
        }
    }

    Layers {
        metrics,
        tally,
        records,
    }
}
