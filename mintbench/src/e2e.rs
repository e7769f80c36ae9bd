//! The end-to-end run: tracing off, one discarded warm-up repetition, then
//! [`REPS`] timed repetitions on fresh deployments over the same corpus with
//! the median of each timing reported, then one counted pass.
//!
//! The number of repetitions is a constant, so every run reports the same
//! order statistic however fast the host or the commit is.

use crate::check::{check_deployment, Tally};
use crate::runs::{serial_ingest, serial_queries, stream_rep, Region};
use crate::stats::{median, quantile, spread_share};
use crate::workloads::{Corpus, Workload};
use crate::{Metric, Options};
use mint_core::DeploymentReport;
use std::time::Instant;

/// Timed repetitions of every run, after the discarded one.
pub const REPS: usize = 5;

/// The timed repetitions may take this many times `--seconds` before the run
/// counts as failed: the budget never changes what is measured, it only
/// refuses a run that got far too slow for the driver's schedule.
const OVER_BUDGET: f64 = 3.0;

/// What an end-to-end run found.
pub struct EndToEnd {
    /// The ten end-to-end metrics.
    pub metrics: Vec<Metric>,
    /// Attempted and failed operations, all repetitions together.
    pub tally: Tally,
}

/// Shard workers of the streaming workload: one core is left to the reader,
/// so busy threads never outnumber cores.
pub fn stream_shards(nproc: usize) -> usize {
    nproc.saturating_sub(1).clamp(1, 4)
}

/// Fresh deployments set up in every repetition; the last one ingests.
const SETUPS_PER_REP: usize = 3;

/// What every kind of repetition yields for the end-to-end metrics.
struct Rep {
    setup_s: Vec<f64>,
    ingest: Region,
    /// Median rate over the repetition's batches of queries.
    query_per_s: f64,
    /// Latency of every query of the repetition.
    latencies_us: Vec<f64>,
    report: DeploymentReport,
}

/// One full repetition: set-up, ingest, queries.
fn repetition(
    workload: Workload,
    corpus: &Corpus,
    shards: usize,
    setups: usize,
    seed: u64,
    tally: &mut Tally,
) -> Rep {
    let (setup_s, ingest, report, mut queries) = if workload.is_stream() {
        let rep = stream_rep(corpus, shards, setups, true, false, seed, tally);
        let reader = rep.reader.expect("the repetition asked for a reader");
        (rep.setup_s, rep.ingest, rep.report, reader.samples)
    } else {
        let rep = serial_ingest(corpus, setups, false, tally);
        let queries = serial_queries(corpus, rep.deployment.backend(), tally);
        (rep.setup_s, rep.ingest, rep.report, queries)
    };
    Rep {
        setup_s,
        ingest,
        query_per_s: median(&mut queries.batch_rates),
        latencies_us: queries.latencies_us,
        report,
    }
}

/// Runs `workload` end to end over `corpus`.
pub fn run(workload: Workload, corpus: &Corpus, options: &Options) -> EndToEnd {
    let spans = corpus.traces.span_count() as f64;
    let shards = stream_shards(options.nproc);
    let mut tally = Tally::default();

    // Repetition 0 is discarded: it pays the page faults and cache misses of
    // a cold process, so that the timed repetitions after it are alike.
    let warmup = repetition(workload, corpus, shards, 1, options.seed, &mut tally);

    let measuring = Instant::now();
    let reps: Vec<Rep> = (1..=REPS as u64)
        .map(|rep| {
            let seed = options.seed + rep;
            repetition(workload, corpus, shards, SETUPS_PER_REP, seed, &mut tally)
        })
        .collect();
    let measured_s = measuring.elapsed().as_secs_f64();
    if !workload.is_stream() && reps.iter().any(|rep| rep.report != warmup.report) {
        tally.fail(|| "two serial repetitions over one corpus reported differently".into());
    }
    if !options.smoke && measured_s > OVER_BUDGET * options.seconds {
        tally.fail(|| {
            format!(
                "the {REPS} repetitions took {measured_s:.1} s, over {OVER_BUDGET} times \
                 --seconds {}",
                options.seconds
            )
        });
    }

    // The counted pass: ingest only, no reader thread, counting allocator on,
    // and afterwards the full correctness check.  It comes last so that the
    // library's thread-local scratch buffers are already grown, as they are
    // in every pass of a long-lived process but the first; the counts then
    // repeat exactly from run to run.
    let count = if workload.is_stream() {
        let pass = stream_rep(corpus, shards, 1, false, true, options.seed, &mut tally);
        let backend = pass.deployment.backend();
        check_deployment(corpus, &pass.report, |id| backend.query(id), &mut tally);
        pass.count
    } else {
        let pass = serial_ingest(corpus, 1, true, &mut tally);
        let backend = pass.deployment.backend();
        check_deployment(corpus, &pass.report, |id| backend.query(id), &mut tally);
        pass.count
    }
    .expect("the pass was counted");

    let report = &reps[0].report;
    let over_reps = |value: fn(&Rep) -> f64| -> Vec<f64> { reps.iter().map(value).collect() };
    let mid = |value| median(&mut over_reps(value));
    let mut pooled_us: Vec<f64> = reps
        .iter()
        .flat_map(|rep| rep.latencies_us.iter().copied())
        .collect();
    let mut setups_s: Vec<f64> = reps
        .iter()
        .flat_map(|rep| rep.setup_s.iter().copied())
        .collect();
    let metrics = vec![
        Metric::new("setup_s", median(&mut setups_s), "s"),
        Metric::new(
            "ingest_spans_per_s",
            spans / mid(|r| r.ingest.wall_s),
            "1/s",
        ),
        Metric::new(
            "ingest_cpu_us_per_span",
            mid(|r| r.ingest.cpu_s) * 1e6 / spans,
            "us",
        ),
        Metric::new(
            "allocs_per_span",
            count.totals.allocs as f64 / spans,
            "count",
        ),
        Metric::new(
            "alloc_bytes_per_span",
            count.totals.bytes as f64 / spans,
            "B",
        ),
        Metric::new(
            "peak_heap_mb",
            count.peak_bytes as f64 / (1024.0 * 1024.0),
            "MiB",
        ),
        Metric::new("storage_ratio", report.storage_ratio(), "ratio"),
        Metric::new("network_ratio", report.network_ratio(), "ratio"),
        Metric::new("query_per_s", mid(|r| r.query_per_s), "1/s"),
        Metric::new("query_p50_us", quantile(&mut pooled_us, 0.50), "us"),
    ];

    let rounded = |values: Vec<f64>, digits: i32| -> Vec<f64> {
        let scale = 10f64.powi(digits);
        values.iter().map(|v| (v * scale).round() / scale).collect()
    };
    let rep_spans_per_s = over_reps(|r| r.ingest.wall_s)
        .iter()
        .map(|wall_s| spans / wall_s)
        .collect::<Vec<_>>();
    let rep_spread = spread_share(&mut rep_spans_per_s.clone());
    eprintln!(
        "{}: {} traces, {spans} spans, {REPS} timed repetitions after 1 discarded, \
         {measured_s:.1} s; {} queries pooled\n  \
         ingest spans/s: discarded {:.0}, timed {:?}, spread {rep_spread:.3}{}\n  \
         ingest cpu s {:?}\n  setup s {:?}\n  query/s {:?}",
        workload.name(),
        corpus.traces.len(),
        pooled_us.len(),
        spans / warmup.ingest.wall_s,
        rounded(rep_spans_per_s, 0),
        if !options.smoke && rep_spread > 0.10 {
            " (over 0.10: a disturbed run)"
        } else {
            ""
        },
        rounded(over_reps(|r| r.ingest.cpu_s), 3),
        rounded(setups_s, 4),
        rounded(over_reps(|r| r.query_per_s), 0),
    );
    EndToEnd { metrics, tally }
}
