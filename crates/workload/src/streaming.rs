//! A streaming trace source: an `Iterator<Item = Trace>` that yields traces
//! one at a time with inter-arrival pacing, instead of materializing a whole
//! [`TraceSet`](trace_model::TraceSet) up front.
//!
//! The source is what a streaming ingest driver consumes: each yielded
//! trace's timestamps already embed the configured request inter-arrival
//! spacing (simulated time — the iterator itself runs as fast as the
//! consumer pulls, so ingest benchmarks measure the pipeline, not the
//! clock).  A source is a sequence of *segments*, each pairing a generator
//! configuration with a request count; the simulated clock carries over
//! from segment to segment, so a multi-phase load plan produces one
//! continuous timeline.

#![deny(clippy::disallowed_methods)]

use crate::generator::{GeneratorConfig, TraceGenerator};
use crate::loadtest::LoadTestSpec;
use crate::topology::Application;
use std::collections::VecDeque;
use trace_model::Trace;

/// One phase of a streaming source: `requests` traces generated from `app`
/// under `config`.
#[derive(Debug, Clone)]
struct Segment {
    app: Application,
    config: GeneratorConfig,
    requests: usize,
}

/// A paced, segmented trace stream (see the module docs).
#[derive(Debug, Clone)]
pub struct StreamingSource {
    segments: VecDeque<Segment>,
    current: Option<(TraceGenerator, usize)>,
    clock_us: Option<u64>,
    planned: usize,
}

impl StreamingSource {
    /// A single-phase source: `requests` traces from `app` under `config`,
    /// paced by `config.mean_interarrival_us`.
    pub fn paced(app: Application, config: GeneratorConfig, requests: usize) -> Self {
        StreamingSource {
            segments: VecDeque::from([Segment {
                app,
                config,
                requests,
            }]),
            current: None,
            clock_us: None,
            planned: requests,
        }
    }

    /// A multi-phase source following a load-test plan (e.g. the Fig. 14
    /// plan from [`load_test_plan`](crate::load_test_plan)): one segment per
    /// test, paced at the test's QPS (`1e6 / qps` µs mean inter-arrival),
    /// restricted to the test's API count, with `requests_per_test(spec)`
    /// requests.  Segment seeds derive from `base.seed` plus the test index
    /// so the stream is reproducible end to end.
    pub fn from_load_plan(
        app: &Application,
        base: GeneratorConfig,
        plan: &[LoadTestSpec],
        requests_per_test: impl Fn(&LoadTestSpec) -> usize,
    ) -> Self {
        let mut segments = VecDeque::with_capacity(plan.len());
        let mut planned = 0;
        for (index, spec) in plan.iter().enumerate() {
            let requests = requests_per_test(spec);
            planned += requests;
            let config = base
                .clone()
                .with_seed(base.seed + index as u64)
                .with_mean_interarrival_us(1_000_000 / spec.qps.max(1));
            segments.push_back(Segment {
                app: app.with_api_limit(spec.api_count),
                config,
                requests,
            });
        }
        StreamingSource {
            segments,
            current: None,
            clock_us: None,
            planned,
        }
    }

    /// Total number of traces this source was built to yield.
    pub fn planned(&self) -> usize {
        self.planned
    }

    /// The current simulated time (µs since epoch): the clock after the most
    /// recently yielded trace, or `None` before the first one.
    pub fn clock_us(&self) -> Option<u64> {
        self.clock_us
    }
}

impl Iterator for StreamingSource {
    type Item = Trace;

    fn next(&mut self) -> Option<Trace> {
        loop {
            if let Some((generator, remaining)) = self.current.as_mut() {
                if *remaining > 0 {
                    *remaining -= 1;
                    let trace = generator.generate_one();
                    self.clock_us = Some(generator.clock_us());
                    return Some(trace);
                }
                self.current = None;
            }
            let segment = self.segments.pop_front()?;
            // Chain the simulated clock across segments so the stream has
            // one continuous timeline.
            let mut config = segment.config;
            if let Some(clock) = self.clock_us {
                config = config.with_start_time_us(clock);
            }
            self.current = Some((TraceGenerator::new(segment.app, config), segment.requests));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::online_boutique;
    use crate::loadtest::load_test_plan;

    #[test]
    fn paced_source_yields_planned_count_deterministically() {
        let make = || {
            StreamingSource::paced(
                online_boutique(),
                GeneratorConfig::default().with_seed(5),
                120,
            )
        };
        let a: Vec<Trace> = make().collect();
        let b: Vec<Trace> = make().collect();
        assert_eq!(a.len(), 120);
        assert_eq!(a, b);
        assert_eq!(make().planned(), 120);
    }

    #[test]
    fn pacing_matches_the_configured_interarrival() {
        let config = GeneratorConfig::default()
            .with_seed(9)
            .with_mean_interarrival_us(10_000);
        let mut source = StreamingSource::paced(online_boutique(), config.clone(), 400);
        let first_start = source.next().unwrap().spans()[0].start_time_us();
        let traces: Vec<Trace> = source.by_ref().collect();
        let last_start = traces
            .last()
            .unwrap()
            .root()
            .map(|r| r.start_time_us())
            .unwrap_or_default();
        let span_us = last_start.saturating_sub(first_start.min(last_start));
        // 400 requests at ~10 ms mean spacing cover roughly 4 s of
        // simulated time (the generator draws uniform 0..2×mean).
        assert!(
            (1_500_000..8_000_000).contains(&span_us),
            "stream covered {span_us} µs"
        );
    }

    #[test]
    fn load_plan_source_walks_every_phase_on_one_timeline() {
        let plan = load_test_plan();
        let source = StreamingSource::from_load_plan(
            &online_boutique(),
            GeneratorConfig::default().with_seed(3),
            &plan,
            |spec| (spec.total_requests() / 100) as usize,
        );
        let planned = source.planned();
        assert_eq!(
            planned,
            plan.iter()
                .map(|s| (s.total_requests() / 100) as usize)
                .sum::<usize>()
        );
        let mut last_clock = 0;
        let mut count = 0;
        let mut source = source;
        while let Some(trace) = source.next() {
            count += 1;
            let clock = source.clock_us().unwrap();
            assert!(clock >= last_clock, "clock went backwards");
            last_clock = clock;
            assert!(trace.root().is_some());
        }
        assert_eq!(count, planned);
    }

    #[test]
    fn empty_plan_yields_nothing() {
        let mut source = StreamingSource::from_load_plan(
            &online_boutique(),
            GeneratorConfig::default(),
            &[],
            |_| 10,
        );
        assert_eq!(source.planned(), 0);
        assert!(source.next().is_none());
    }
}
