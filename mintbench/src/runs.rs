//! One repetition of a workload: a fresh deployment over the corpus, timed
//! from outside.
//!
//! A repetition is closed-loop and sized by count: it sets a deployment up,
//! ingests the whole corpus, then (serial) answers the whole read mix, or
//! (streaming) answers queries from one reader thread for as long as ingest
//! runs.

use crate::alloc::{self, RegionCount};
use crate::check::{check_answer, Tally};
use crate::clock::{process_cpu_ns, thread_cpu_ns};
use crate::workloads::{Corpus, Query};
use mint_core::{
    DeploymentReport, MintBackend, MintDeployment, QueryHandle, QueryResult, StreamingDeployment,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

/// Traces per streaming epoch.
pub const EPOCH_TRACES: usize = 256;

/// Wall and process-CPU time of a region.
#[derive(Debug, Clone, Copy)]
pub struct Region {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// CPU seconds of the whole process.
    pub cpu_s: f64,
}

fn timed<T>(region: impl FnOnce() -> T) -> (T, Region) {
    let (wall, cpu) = (Instant::now(), process_cpu_ns());
    let out = region();
    let region = Region {
        wall_s: wall.elapsed().as_secs_f64(),
        cpu_s: (process_cpu_ns() - cpu) as f64 / 1e9,
    };
    (out, region)
}

/// Runs `region` timed, and counted by the allocator if asked.
fn measured<T>(counted: bool, region: impl FnOnce() -> T) -> (T, Region, Option<RegionCount>) {
    if counted {
        let ((out, times), count) = alloc::count_region(|| timed(region));
        (out, times, Some(count))
    } else {
        let (out, times) = timed(region);
        (out, times, None)
    }
}

/// Sets a fresh deployment up `times` times over, dropping each before the
/// next is built, and returns the last one with how long each set-up took.
/// Set-up is a few hundred milliseconds at most, so one repetition can afford
/// several samples of it.
fn set_up<D>(times: usize, build: impl Fn() -> D) -> (D, Vec<f64>) {
    let mut seconds = Vec::with_capacity(times);
    let mut deployment = None;
    for _ in 0..times.max(1) {
        drop(deployment.take());
        let start = Instant::now();
        deployment = Some(build());
        seconds.push(start.elapsed().as_secs_f64());
    }
    (deployment.expect("set up at least once"), seconds)
}

/// What setting up and ingesting on one serial deployment measured.
pub struct SerialIngest {
    /// The deployment, for queries and checks after the timed region.
    pub deployment: MintDeployment,
    /// `MintDeployment::new` + `warm_up`, once per set-up.
    pub setup_s: Vec<f64>,
    /// `process()` on the warmed deployment.
    pub ingest: Region,
    /// What `process()` allocated, on a counted repetition.
    pub count: Option<RegionCount>,
    /// The report `process()` returned.
    pub report: DeploymentReport,
}

/// The ingest half of a serial repetition, on the last of `setups` fresh
/// deployments.
pub fn serial_ingest(
    corpus: &Corpus,
    setups: usize,
    counted: bool,
    tally: &mut Tally,
) -> SerialIngest {
    let (mut deployment, setup_s) = set_up(setups, || {
        let mut deployment = MintDeployment::new(corpus.config.clone());
        deployment.warm_up(&corpus.traces);
        deployment
    });

    let (report, ingest, count) = measured(counted, || deployment.process(&corpus.traces));
    tally.attempted(corpus.traces.len());
    SerialIngest {
        deployment,
        setup_s,
        ingest,
        count,
        report,
    }
}

/// What a closed loop of queries measured.
pub struct QuerySamples {
    /// Latency of every query, in µs.
    pub latencies_us: Vec<f64>,
    /// Queries per second of every batch of [`QUERY_BATCH`] consecutive
    /// queries, check and result drop included.  A repetition's rate is
    /// their median, which one preempted batch does not move.
    pub batch_rates: Vec<f64>,
}

/// Queries per sample of the closed loop's rate.
pub const QUERY_BATCH: usize = 1_000;

impl QuerySamples {
    /// Runs `queries` one after the other through `ask`, checking each answer.
    fn collect(
        corpus: &Corpus,
        queries: impl Iterator<Item = Query>,
        ask: impl Fn(Query) -> QueryResult,
        tally: &mut Tally,
    ) -> QuerySamples {
        let mut samples = QuerySamples {
            latencies_us: Vec::with_capacity(corpus.queries.len()),
            batch_rates: Vec::new(),
        };
        let mut batch_start = Instant::now();
        let mut in_batch = 0usize;
        for query in queries {
            let start = Instant::now();
            let answer = ask(query);
            samples
                .latencies_us
                .push(start.elapsed().as_secs_f64() * 1e6);
            check_answer(corpus, query, &answer, tally);
            drop(answer);
            in_batch += 1;
            if in_batch == QUERY_BATCH {
                let now = Instant::now();
                samples
                    .batch_rates
                    .push(QUERY_BATCH as f64 / (now - batch_start).as_secs_f64());
                (batch_start, in_batch) = (now, 0);
            }
        }
        // The last, shorter batch is a sample too: a read mix of fewer than
        // `QUERY_BATCH` queries has no other.
        if in_batch > 0 {
            samples
                .batch_rates
                .push(in_batch as f64 / batch_start.elapsed().as_secs_f64());
        }
        tally.attempted(samples.latencies_us.len());
        samples
    }
}

/// The query half of a serial repetition: the whole read mix, one query after
/// the other.
pub fn serial_queries(corpus: &Corpus, backend: &MintBackend, tally: &mut Tally) -> QuerySamples {
    QuerySamples::collect(
        corpus,
        corpus.queries.iter().copied(),
        |query| backend.query(query.id),
        tally,
    )
}

/// What the reader thread of a streaming repetition did.
pub struct ReaderRun {
    /// Its queries.
    pub samples: QuerySamples,
    /// CPU seconds the reader thread itself consumed.
    pub cpu_s: f64,
}

/// What one streaming repetition measured.
pub struct StreamRep {
    /// The deployment, for checks after the timed region.
    pub deployment: StreamingDeployment,
    /// `StreamingDeployment::new` + `warm_up` + `query_handle`, once per
    /// set-up.
    pub setup_s: Vec<f64>,
    /// `process_stream` over the whole corpus; CPU excludes the reader's.
    pub ingest: Region,
    /// What the region allocated, on a counted repetition.
    pub count: Option<RegionCount>,
    /// The report `process_stream` returned.
    pub report: DeploymentReport,
    /// The reader, if one ran.
    pub reader: Option<ReaderRun>,
    /// Wall-clock ms between consecutive epoch publications.
    pub epoch_wall_ms: Vec<f64>,
    /// Per trace: ms from the router taking it to its epoch being published.
    pub visible_lag_ms: Vec<f64>,
    /// Per epoch: µs for a `QueryHandle` to pick up the new generation.
    pub refresh_us: Vec<f64>,
    /// Seconds the router spent inside the source iterator (cloning traces).
    pub source_s: f64,
    /// Generation visible through a handle after the stream.
    pub generations: u64,
}

fn reader_loop(
    corpus: &Corpus,
    handle: QueryHandle,
    published: &AtomicUsize,
    done: &AtomicBool,
    seed: u64,
) -> (ReaderRun, Tally) {
    let cpu = thread_cpu_ns();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut tally = Tally::default();
    let traces = corpus.traces.traces();
    // `Acquire` pairs with the router's `Release` store after each epoch's
    // publication, so an index below the loaded count names a published trace.
    let published_ids = std::iter::from_fn(|| loop {
        if done.load(Ordering::Acquire) {
            return None;
        }
        let visible = published.load(Ordering::Acquire);
        if visible == 0 {
            std::thread::yield_now();
            continue;
        }
        let index = rng.gen_range(0..visible);
        return Some(Query {
            id: traces[index].trace_id(),
            trace: Some(index as u32),
        });
    });
    let samples = QuerySamples::collect(
        corpus,
        published_ids,
        |query| handle.query(query.id),
        &mut tally,
    );
    let run = ReaderRun {
        samples,
        cpu_s: (thread_cpu_ns() - cpu) as f64 / 1e9,
    };
    (run, tally)
}

/// One streaming repetition over `shards` shard workers on the last of
/// `setups` fresh deployments, with or without the closed-loop reader thread.
pub fn stream_rep(
    corpus: &Corpus,
    shards: usize,
    setups: usize,
    with_reader: bool,
    counted: bool,
    seed: u64,
    tally: &mut Tally,
) -> StreamRep {
    let ((mut deployment, handle), setup_s) = set_up(setups, || {
        let mut deployment = StreamingDeployment::new(
            corpus
                .config
                .clone()
                .with_shard_count(shards)
                .with_epoch_trace_count(EPOCH_TRACES),
        );
        deployment.warm_up(&corpus.traces);
        // Holding a handle is what makes every epoch publish a generation.
        let handle = deployment.query_handle();
        (deployment, handle)
    });

    let published = AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    let total = corpus.traces.len();
    // Filled by the source iterator and read by the epoch observer, which the
    // router thread runs in turn.
    let taken_at: RefCell<Vec<Instant>> = RefCell::new(Vec::with_capacity(total));
    let mut epoch_wall_ms = Vec::with_capacity(total / EPOCH_TRACES + 2);
    let mut visible_lag_ms = Vec::with_capacity(total);
    let mut refresh_us = Vec::with_capacity(total / EPOCH_TRACES + 2);
    let mut source_s = 0.0;

    let ((report, reader), mut ingest, count) = measured(counted, || {
        std::thread::scope(|scope| {
            let reader = with_reader.then(|| {
                let handle = handle.clone();
                let (published, done) = (&published, &done);
                scope.spawn(move || reader_loop(corpus, handle, published, done, seed))
            });
            let mut last_epoch = Instant::now();
            let mut visible = 0usize;
            let source = corpus.traces.iter().map(|trace| {
                let start = Instant::now();
                let owned = trace.clone();
                let now = Instant::now();
                source_s += (now - start).as_secs_f64();
                taken_at.borrow_mut().push(now);
                owned
            });
            let report = deployment.process_stream_observed(source, |epoch| {
                let now = Instant::now();
                let _ = handle.snapshot();
                refresh_us.push(now.elapsed().as_secs_f64() * 1e6);
                epoch_wall_ms.push((now - last_epoch).as_secs_f64() * 1e3);
                last_epoch = now;
                let newly = visible + epoch.traces as usize;
                visible_lag_ms.extend(
                    taken_at.borrow()[visible..newly]
                        .iter()
                        .map(|taken| (now - *taken).as_secs_f64() * 1e3),
                );
                visible = newly;
                published.store(visible, Ordering::Release);
            });
            done.store(true, Ordering::Release);
            let reader = reader.map(|join| join.join().expect("the reader thread panicked"));
            (report, reader)
        })
    });
    tally.attempted(total);
    let reader = reader.map(|(reader, its_tally)| {
        ingest.cpu_s -= reader.cpu_s;
        tally.absorb(its_tally);
        reader
    });
    let generations = handle.generation();

    StreamRep {
        deployment,
        setup_s,
        ingest,
        count,
        report,
        reader,
        epoch_wall_ms,
        visible_lag_ms,
        refresh_us,
        source_s,
        generations,
    }
}
