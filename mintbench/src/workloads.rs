//! The four workloads: which corpus, which Mint configuration, which queries.
//!
//! Everything here is made from the seed, in this process; the library only
//! ever sees the finished [`TraceSet`] and the trace ids to query.  Sampling
//! modes and corpus shapes are fixed here and nowhere in the library.

use mint_core::{MintConfig, SamplingMode};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::time::Instant;
use trace_model::{AttrValue, Trace, TraceId, TraceSet};
use workload::{
    default_fault_targets, layered_application, online_boutique, train_ticket, Application,
    AttrTemplate, ChaosScenario, ChaosSource, FaultType, FaultWindow, GeneratorConfig,
    LatencyModel, OperationSpec, ServiceSpec, TraceGenerator, VarSlot,
};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Serial deployment, production-style corpus, biased sampling.
    ProdSerial,
    /// Serial deployment, two benchmarks under fault windows, all sampled.
    IncidentSerial,
    /// Serial deployment, string attributes of changing shape, short warm-up.
    DriftSerial,
    /// Streaming deployment over the production corpus, with a live reader.
    ProdStream,
}

impl Workload {
    /// Every workload, in the order they are run.
    pub const ALL: [Workload; 4] = [
        Workload::ProdSerial,
        Workload::IncidentSerial,
        Workload::DriftSerial,
        Workload::ProdStream,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ProdSerial => "prod-serial",
            Workload::IncidentSerial => "incident-serial",
            Workload::DriftSerial => "drift-serial",
            Workload::ProdStream => "prod-stream",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs the streaming driver.
    pub fn is_stream(self) -> bool {
        self == Workload::ProdStream
    }
}

/// Corpus sizes, all counts.  A full-size corpus keeps one ingest region at
/// two to three seconds on the two-core reference host, which is
/// what fits the driver's schedule seven times over (one discarded, five
/// timed and one counted pass); the traced run's corpora are half of that,
/// so that five passes of reference plus traced twin fit its twenty seconds;
/// the smoke sizes run the same code in well under a second.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Traces of the production corpus (`prod-serial`, `prod-stream`).
    pub prod_traces: usize,
    /// Traces of each of the two incident benchmarks.
    pub incident_traces_per_app: usize,
    /// Traces of the drift corpus.
    pub drift_traces: usize,
    /// Queries per repetition on the serial workloads.
    pub queries: usize,
    /// Queries per repetition on `drift-serial`, where a query that is not
    /// answered exactly probes hundreds of Bloom filters.
    pub drift_queries: usize,
}

impl Sizes {
    /// The sizes every reported number is taken at.
    pub const FULL: Sizes = Sizes {
        prod_traces: 4_800,
        incident_traces_per_app: 7_000,
        drift_traces: 14_000,
        queries: 20_000,
        drift_queries: 20_000,
    };
    /// The traced run's: per-span costs carry over from the full sizes,
    /// whatever grows with the corpus (pattern counts, library and buffer
    /// bytes, the Bloom filters an approximate query probes) does not.
    pub const TRACED: Sizes = Sizes {
        prod_traces: 2_400,
        incident_traces_per_app: 3_500,
        drift_traces: 7_000,
        queries: 10_000,
        drift_queries: 10_000,
    };
    /// `--smoke`.
    pub const SMOKE: Sizes = Sizes {
        prod_traces: 400,
        incident_traces_per_app: 300,
        drift_traces: 600,
        queries: 1_000,
        drift_queries: 500,
    };
}

/// One query of the read mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Query {
    /// The id asked for.
    pub id: TraceId,
    /// Index of the trace in the corpus, or `None` for an id that was never
    /// ingested.
    pub trace: Option<u32>,
}

/// Everything a workload feeds the library.
pub struct Corpus {
    /// The traces, in arrival order.
    pub traces: TraceSet,
    /// The deployment configuration (shard count and epoch size are set by
    /// the streaming runner).
    pub config: MintConfig,
    /// The read mix of one repetition.
    pub queries: Vec<Query>,
    /// How long generating all of the above took.
    pub generate_ms: f64,
}

/// Share of queries that ask for an id that was never ingested.
const NEVER_INGESTED_SHARE: f64 = 0.09;

/// Generates the corpus of `workload` from `seed`.
pub fn generate(workload: Workload, seed: u64, sizes: Sizes) -> Corpus {
    let start = Instant::now();
    let (traces, config) = match workload {
        Workload::ProdSerial | Workload::ProdStream => {
            let mut config = MintConfig::default().with_sampling_mode(SamplingMode::MintBiased);
            // The symptom sampler looks for its abnormal words as substrings,
            // and this corpus is full of numeric ids: with the bare status
            // codes in the list, "500" inside `id = 1500250` would mark a
            // quarter of all traces abnormal.  Without them about 2% are
            // sampled, the budget the paper's headline numbers assume.
            config
                .abnormal_words
                .retain(|word| word != "500" && word != "502");
            (production_corpus(seed, sizes.prod_traces), config)
        }
        Workload::IncidentSerial => (
            incident_corpus(seed, sizes.incident_traces_per_app),
            MintConfig::default().with_sampling_mode(SamplingMode::All),
        ),
        Workload::DriftSerial => (
            drift_corpus(seed, sizes.drift_traces),
            // A warm-up this short sees only a few shapes of each string
            // attribute, so the parser keeps learning while it ingests.
            // Sampling by tag, the paper's controlled-budget configuration:
            // under `MintBiased` the edge-case sampler fires on each new
            // topology until it stops being rare, which depends on arrival
            // order, and the sampled share (and with it every ratio) moved
            // between 0.25 and 0.29 from seed to seed.
            MintConfig::default()
                .with_sampling_mode(SamplingMode::AbnormalTag)
                .with_warmup_sample_size(24),
        ),
    };
    let query_count = match workload {
        Workload::DriftSerial => sizes.drift_queries,
        _ => sizes.queries,
    };
    let queries = query_mix(&traces, seed, query_count);
    Corpus {
        traces,
        config,
        queries,
        generate_ms: start.elapsed().as_secs_f64() * 1e3,
    }
}

/// Alibaba-style production traffic: eight APIs over six layers, about nine
/// spans a trace, eight shared attributes plus five role-specific ones per
/// span, most of them numeric or numeric-bearing.
fn production_corpus(seed: u64, traces: usize) -> TraceSet {
    let app = layered_application("prod", 8, 6, 26);
    let config = GeneratorConfig::default()
        .with_seed(seed)
        .with_abnormal_rate(0.02);
    fixed_mix(app, config, traces).into_iter().collect()
}

/// `count` traces of `app` whose composition does not depend on the seed:
/// every API gets exactly its weight's share of the requests, and of each
/// API's requests exactly `abnormal_rate` carry the generator's abnormal tag.
/// The seed decides the order of requests and everything inside a trace.
///
/// Left to the generator's coin flips, 2% of 4 800 traces is 96 ± 10
/// abnormal ones; they are the sampled ones, so storage and network ratios
/// would move by a tenth from seed to seed for no reason a change to Mint
/// could be blamed for.
fn fixed_mix(app: Application, config: GeneratorConfig, count: usize) -> Vec<Trace> {
    let total_weight: f64 = app.apis().iter().map(|api| api.weight).sum();
    // Per API: requests still wanted, [normal, abnormal].
    let mut wanted: Vec<[usize; 2]> = Vec::with_capacity(app.apis().len());
    let mut schedule: Vec<usize> = Vec::with_capacity(count);
    for (index, api) in app.apis().iter().enumerate() {
        let before = schedule.len();
        let share = (count as f64 * api.weight / total_weight).round() as usize;
        // Rounding may not add up; the last API takes up the difference.
        let share = if index + 1 == app.apis().len() {
            count.saturating_sub(before)
        } else {
            share.min(count - before)
        };
        let abnormal = (share as f64 * config.abnormal_rate).round() as usize;
        wanted.push([share - abnormal, abnormal]);
        schedule.extend(std::iter::repeat_n(index, share));
    }
    schedule.shuffle(&mut SmallRng::seed_from_u64(config.seed ^ 0x006d_6978));

    let mut generator = TraceGenerator::new(app, config);
    let mut traces = Vec::with_capacity(count);
    // A trace of a class that is already full is thrown away and its API
    // comes up again on the next walk through the schedule, so the schedule
    // is walked a little more than once.
    for &api in schedule.iter().cycle() {
        if traces.len() == count {
            break;
        }
        if wanted[api] == [0, 0] {
            continue;
        }
        let trace = generator.generate_for_api(api);
        let abnormal = trace
            .root()
            .and_then(|root| root.attributes().get("is_abnormal"))
            .and_then(AttrValue::as_bool)
            .unwrap_or(false);
        let left = &mut wanted[api][usize::from(abnormal)];
        if *left > 0 {
            *left -= 1;
            traces.push(trace);
        }
    }
    traces
}

/// OnlineBoutique and TrainTicket side by side on one timeline, each under
/// three fault windows, merged in arrival order.
fn incident_corpus(seed: u64, traces_per_app: usize) -> TraceSet {
    let boutique = chaos_stream(online_boutique(), seed, traces_per_app);
    let tickets = chaos_stream(train_ticket(), seed ^ 0x7469_636b_6574, traces_per_app);
    let mut merged: Vec<(u64, Trace)> = boutique
        .chain(tickets)
        .map(|trace| {
            let at = trace.root().map_or(0, |root| root.start_time_us());
            (at, trace)
        })
        .collect();
    // Stable, so equal timestamps keep a seed-determined order.
    merged.sort_by_key(|(at, _)| *at);
    merged.into_iter().map(|(_, trace)| trace).collect()
}

fn chaos_stream(app: Application, seed: u64, traces: usize) -> impl Iterator<Item = Trace> {
    let config = GeneratorConfig::default()
        .with_seed(seed)
        .with_abnormal_rate(0.05);
    let timeline_us = traces as u64 * config.mean_interarrival_us;
    let targets = default_fault_targets(&app);
    let faults = [
        FaultType::CpuExhaustion,
        FaultType::CodeException,
        FaultType::NetworkDelay,
    ];
    let mut scenario = ChaosScenario::new(format!("{}-incident", app.name()), seed);
    for (index, fault) in faults.into_iter().enumerate() {
        // Windows cover 15%..30%, 45%..60% and 75%..90% of the timeline.
        let window_start = config.start_time_us + timeline_us * (15 + 30 * index as u64) / 100;
        // The same targets on every seed: which service is hit changes how
        // many spans carry errors and how slow they are, and that is not
        // noise a seed should add.
        let target = &targets[index % targets.len()];
        scenario = scenario.window(FaultWindow::new(
            fault,
            target.as_str(),
            window_start,
            timeline_us * 15 / 100,
        ));
    }
    ChaosSource::new(fixed_mix(app, config, traces).into_iter(), &scenario)
}

/// A four-service application whose string attributes change shape from one
/// request to the next: SQL with projection and `IN` lists of varying length,
/// URLs of varying depth, and free-form warning text.  Only two numeric
/// attributes, so the symptom sampler has little to track.
fn drift_application() -> Application {
    // The application is the same on every seed, like the library's own
    // benchmarks; its vocabularies are merely too long to write out.
    let mut rng = SmallRng::seed_from_u64(0x0064_7269_6674);
    let columns = [
        "id", "tenant", "status", "created", "updated", "owner", "region", "amount", "currency",
        "channel", "priority", "label",
    ];
    let tables = [
        "orders",
        "invoices",
        "shipments",
        "refunds",
        "ledgers",
        "quotas",
    ];
    let segments = [
        "accounts", "orders", "items", "history", "export", "audit", "settings", "members",
        "billing", "reports",
    ];
    let words = [
        "stale",
        "cursor",
        "detected",
        "while",
        "replaying",
        "segment",
        "of",
        "tenant",
        "journal",
        "lease",
        "expired",
        "before",
        "commit",
        "reached",
        "quorum",
        "on",
        "replica",
        "shard",
        "rebalance",
        "pending",
        "index",
        "rebuild",
        "deferred",
        "until",
        "compaction",
        "window",
        "closes",
        "snapshot",
        "older",
        "than",
        "retention",
        "horizon",
        "skipped",
        "during",
        "restore",
        "checksum",
        "mismatch",
        "between",
        "primary",
        "and",
        "follower",
        "page",
    ];
    let pick = |rng: &mut SmallRng, from: &[&str], count: usize, joiner: &str| -> String {
        (0..count)
            .map(|_| from[rng.gen_range(0..from.len())])
            .collect::<Vec<_>>()
            .join(joiner)
    };
    // Vocabularies of multi-token fragments, so one slot changes the token
    // count of the value it is rendered into.
    // Projection and `IN` lists come in a handful of lengths each.  With
    // dozens of random column lists the statement templates generalize in an
    // order-dependent way, and which templates a seed ends up with moved
    // `parse` time by a third at equal work.
    let projections: Vec<String> = (1..=6).map(|count| columns[..count].join(", ")).collect();
    let in_lists: Vec<String> = (1..=9).map(|count| vec!["?"; count].join(", ")).collect();
    let paths: Vec<String> = (0..64)
        .map(|_| {
            let count = rng.gen_range(1..=6);
            pick(&mut rng, &segments, count, "/")
        })
        .collect();
    let statement = |table: &str| {
        AttrTemplate::pattern(
            "db.statement",
            &format!(
                "SELECT {{}} FROM {table} WHERE tenant = {{}} AND {{}} IN ( {{}} ) LIMIT {{}}"
            ),
            [
                VarSlot::word(projections.clone()),
                VarSlot::number(1, 400),
                VarSlot::word(columns),
                VarSlot::word(in_lists.clone()),
                VarSlot::number(1, 500),
            ],
        )
    };
    let target = AttrTemplate::pattern(
        "http.target",
        "/api/v2/{}?cursor={}",
        [VarSlot::word(paths.clone()), VarSlot::hex_id(12)],
    );
    // Free-form text of `length` words: two such values share too little for
    // one template, so each is parsed by the similarity fallback and ends up
    // a template of its own.  No word of Mint's abnormal-word list occurs in
    // the vocabulary, so the text alone never marks a span symptomatic.
    // Free-form text of `length` words after the name of the component that
    // logged it.  Two such texts share too little for one template, so each
    // is parsed by the similarity fallback and ends up a template of its own.
    // The parser first tries a value against the templates that share its
    // first token, so the component name keeps that list to a sixteenth of the
    // templates; with one common prefix the attempts against thousands of
    // templates took four fifths of ingest and their cost moved by a tenth
    // from seed to seed.  No word of Mint's abnormal-word list occurs in the
    // vocabulary, so the text alone never marks a span symptomatic.
    let components = [
        "balancer",
        "cache",
        "compactor",
        "dispatcher",
        "fencer",
        "indexer",
        "janitor",
        "journal",
        "leaser",
        "planner",
        "replicator",
        "resolver",
        "scrubber",
        "sealer",
        "tracker",
        "vacuum",
    ];
    let warning = |length: usize| {
        AttrTemplate::pattern(
            "log.message",
            &format!("{{}}:{}", " {}".repeat(length)),
            std::iter::once(VarSlot::word(components))
                .chain((0..length).map(|_| VarSlot::word(words))),
        )
    };

    let mut gateway = ServiceSpec::new("gateway");
    let mut catalog = ServiceSpec::new("catalog");
    let mut ledger = ServiceSpec::new("ledger");
    let mut store = ServiceSpec::new("store");
    for table in tables {
        gateway = gateway.operation(
            OperationSpec::new(format!("GET /{table}"))
                .kind(trace_model::SpanKind::Server)
                .latency(LatencyModel::new(900, 600))
                .attr(AttrTemplate::const_str("http.method", "GET"))
                .attr(target.clone())
                .attr(AttrTemplate::int_range(
                    "http.response_content_length",
                    200,
                    90_000,
                ))
                .call("catalog", format!("list-{table}"))
                .call("ledger", format!("audit-{table}")),
        );
        catalog = catalog.operation(
            OperationSpec::new(format!("list-{table}"))
                .latency(LatencyModel::new(400, 300))
                .attr(AttrTemplate::const_str("rpc.system", "grpc"))
                .attr(statement(table))
                .call("store", format!("scan-{table}")),
        );
        ledger = ledger.operation(
            OperationSpec::new(format!("audit-{table}"))
                .latency(LatencyModel::new(300, 200))
                .attr(AttrTemplate::const_str("rpc.system", "grpc"))
                .attr(target.clone()),
        );
        store = store.operation(
            OperationSpec::new(format!("scan-{table}"))
                .latency(LatencyModel::new(250, 150))
                .attr(AttrTemplate::const_str("db.system", "postgresql"))
                .attr(statement(table))
                .attr(AttrTemplate::int_range("db.rows", 0, 5_000)),
        );
    }
    // The maintenance request: one in thirty-two, nine spans, eight of which
    // log a free-form warning no template has seen.  All eight run in one
    // service, so a request adds one topology pattern (and one Bloom filter
    // for every later query to probe), not one per span.
    gateway = gateway.operation(
        OperationSpec::new("POST /reindex")
            .kind(trace_model::SpanKind::Server)
            .latency(LatencyModel::new(2_000, 900))
            .attr(AttrTemplate::const_str("http.method", "POST"))
            .attr(target)
            .call("ledger", "reindex"),
    );
    let mut reindex = OperationSpec::new("reindex")
        .latency(LatencyModel::new(700, 300))
        .attr(warning(11));
    for (step, length, calls) in [("compact", 5, 4), ("verify", 8, 3)] {
        for _ in 0..calls {
            reindex = reindex.call("ledger", step);
        }
        ledger = ledger.operation(
            OperationSpec::new(step)
                .latency(LatencyModel::new(500, 250))
                .attr(warning(length)),
        );
    }
    ledger = ledger.operation(reindex);
    let mut builder = Application::builder("drift")
        .service(gateway)
        .service(catalog)
        .service(ledger)
        .service(store)
        .api(
            "POST /reindex",
            workload::CallSpec::new("gateway", "POST /reindex"),
            6.0 / 31.0,
        );
    for table in tables {
        builder = builder.api(
            format!("GET /{table}"),
            workload::CallSpec::new("gateway", format!("GET /{table}")),
            1.0,
        );
    }
    builder
        .build()
        .expect("the drift application's calls all resolve")
}

fn drift_corpus(seed: u64, traces: usize) -> TraceSet {
    let config = GeneratorConfig::default()
        .with_seed(seed)
        .with_abnormal_rate(0.01)
        // 14 000 requests in 70 simulated seconds: clear of the two-minute
        // mark where the collector would charge a second pattern upload.
        .with_mean_interarrival_us(5_000);
    fixed_mix(drift_application(), config, traces)
        .into_iter()
        .collect()
}

/// The read mix: uniform over the ingested ids, except that
/// [`NEVER_INGESTED_SHARE`] of the queries ask for an id no trace has.  Which
/// ingested ids answer exactly is decided by the sampling mode.
fn query_mix(traces: &TraceSet, seed: u64, count: usize) -> Vec<Query> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x0071_7565_7279);
    let ingested: HashSet<TraceId> = traces.iter().map(Trace::trace_id).collect();
    (0..count)
        .map(|_| {
            if rng.gen_bool(NEVER_INGESTED_SHARE) {
                loop {
                    let id = TraceId::from_u128(
                        (u128::from(rng.gen::<u64>()) << 64) | u128::from(rng.gen::<u64>()) | 1,
                    );
                    if !ingested.contains(&id) {
                        return Query { id, trace: None };
                    }
                }
            }
            let index = rng.gen_range(0..traces.len());
            Query {
                id: traces.traces()[index].trace_id(),
                trace: Some(index as u32),
            }
        })
        .collect()
}

/// Mean number of numeric and of string attributes per span.
pub fn attribute_profile(traces: &TraceSet) -> (f64, f64) {
    let (mut numeric, mut strings) = (0u64, 0u64);
    for span in traces.iter().flat_map(Trace::spans) {
        for value in span.attributes().values() {
            match value {
                AttrValue::Int(_) | AttrValue::Float(_) => numeric += 1,
                AttrValue::Str(_) => strings += 1,
                AttrValue::Bool(_) => {}
            }
        }
    }
    let spans = traces.span_count().max(1) as f64;
    (numeric as f64 / spans, strings as f64 / spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_corpus_and_another_seed_another() {
        let _turn = crate::alloc::serial();
        for workload in Workload::ALL {
            let first = generate(workload, 11, Sizes::SMOKE);
            let again = generate(workload, 11, Sizes::SMOKE);
            assert_eq!(first.traces, again.traces, "{}", workload.name());
            assert_eq!(first.queries, again.queries, "{}", workload.name());
            let other = generate(workload, 12, Sizes::SMOKE);
            assert_ne!(first.traces, other.traces, "{}", workload.name());
            assert_ne!(first.queries, other.queries, "{}", workload.name());
        }
    }

    #[test]
    fn the_read_mix_names_the_trace_it_asks_for() {
        let _turn = crate::alloc::serial();
        let corpus = generate(Workload::IncidentSerial, 3, Sizes::SMOKE);
        let ids: HashSet<TraceId> = corpus.traces.iter().map(Trace::trace_id).collect();
        assert_eq!(ids.len(), corpus.traces.len(), "trace ids collide");
        let mut never = 0;
        for query in &corpus.queries {
            match query.trace {
                Some(index) => {
                    assert_eq!(corpus.traces.traces()[index as usize].trace_id(), query.id)
                }
                None => {
                    assert!(!ids.contains(&query.id));
                    never += 1;
                }
            }
        }
        let share = never as f64 / corpus.queries.len() as f64;
        assert!(
            (0.05..0.13).contains(&share),
            "never-ingested share {share}"
        );
    }

    #[test]
    fn workload_names_round_trip() {
        for workload in Workload::ALL {
            assert_eq!(Workload::from_name(workload.name()), Some(workload));
        }
        assert_eq!(Workload::from_name("live-drift"), None);
    }
}
