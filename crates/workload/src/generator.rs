//! The trace generator: turns an [`Application`] description into traces.

#![deny(clippy::disallowed_methods)]

use crate::topology::{Application, CallSpec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use trace_model::{AttrValue, Span, SpanId, SpanStatus, Trace, TraceId, TraceSet};

/// Configuration of the trace generator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GeneratorConfig {
    /// Seed for the deterministic random number generator.
    pub seed: u64,
    /// Fraction of requests tagged `is_abnormal = true` (the paper injects
    /// 5% abnormal traffic so biased samplers have something to find).
    pub abnormal_rate: f64,
    /// Probability that an abnormal request also records an error status on
    /// one of its spans.
    pub abnormal_error_rate: f64,
    /// Latency multiplier applied to the root span of abnormal requests.
    pub abnormal_latency_factor: u64,
    /// Simulated timestamp of the first request, microseconds since epoch.
    pub start_time_us: u64,
    /// Mean spacing between consecutive requests in microseconds.
    pub mean_interarrival_us: u64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            seed: 0xC0FFEE,
            abnormal_rate: 0.05,
            abnormal_error_rate: 0.6,
            abnormal_latency_factor: 8,
            start_time_us: 1_700_000_000_000_000,
            mean_interarrival_us: 10_000,
        }
    }
}

impl GeneratorConfig {
    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the abnormal-request rate.
    pub fn with_abnormal_rate(mut self, rate: f64) -> Self {
        self.abnormal_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Sets the mean request inter-arrival time.
    pub fn with_mean_interarrival_us(mut self, us: u64) -> Self {
        self.mean_interarrival_us = us.max(1);
        self
    }

    /// Sets the simulated start time.
    pub fn with_start_time_us(mut self, us: u64) -> Self {
        self.start_time_us = us;
        self
    }
}

/// A deterministic trace generator for one application.
///
/// ```
/// use workload::{online_boutique, GeneratorConfig, TraceGenerator};
/// let mut generator = TraceGenerator::new(online_boutique(), GeneratorConfig::default());
/// let trace = generator.generate_one();
/// assert!(trace.is_coherent());
/// ```
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    app: Application,
    config: GeneratorConfig,
    rng: SmallRng,
    next_trace: u128,
    next_span: u64,
    clock_us: u64,
    total_weight: f64,
}

/// A splitmix64 finalizer: turns sequential counters into random-looking
/// identifiers, matching how real tracing systems generate ids.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl TraceGenerator {
    /// Creates a generator for `app`.
    pub fn new(app: Application, config: GeneratorConfig) -> Self {
        let total_weight = app.apis().iter().map(|a| a.weight).sum();
        let clock_us = config.start_time_us;
        let rng = SmallRng::seed_from_u64(config.seed);
        TraceGenerator {
            app,
            config,
            rng,
            next_trace: 1,
            next_span: 1,
            clock_us,
            total_weight,
        }
    }

    /// The application driving this generator.
    pub fn app(&self) -> &Application {
        &self.app
    }

    /// The configuration.
    pub fn config(&self) -> &GeneratorConfig {
        &self.config
    }

    /// Current simulated time in microseconds.
    pub fn clock_us(&self) -> u64 {
        self.clock_us
    }

    /// Generates `n` traces, advancing the simulated clock between requests.
    pub fn generate(&mut self, n: usize) -> TraceSet {
        (0..n).map(|_| self.generate_one()).collect()
    }

    /// Generates one trace for an API chosen by popularity weight.
    pub fn generate_one(&mut self) -> Trace {
        let api_index = self.pick_api();
        self.generate_for_api(api_index)
    }

    /// Generates one trace for the API at `api_index` (modulo the API count).
    pub fn generate_for_api(&mut self, api_index: usize) -> Trace {
        let api_index = api_index % self.app.apis().len();
        let api = self.app.apis()[api_index].clone();
        // Trace ids look random (as W3C trace ids do) but remain a pure
        // function of the generator's sequence counter and seed.
        let counter = self.next_trace as u64;
        let high = mix64(counter ^ self.config.seed.rotate_left(17));
        let low = mix64(counter.wrapping_add(0x5bd1_e995) ^ self.config.seed);
        let trace_id = TraceId::from_u128(((u128::from(high)) << 64) | u128::from(low) | 1);
        self.next_trace += 1;

        let is_abnormal = self.rng.gen_bool(self.config.abnormal_rate);
        let start = self.clock_us;
        self.clock_us += 1 + self.rng.gen_range(0..=self.config.mean_interarrival_us * 2);

        let mut spans = Vec::new();
        let root_span_id =
            self.build_span_tree(trace_id, &api.entry, SpanId::INVALID, start, 0, &mut spans);

        // Annotate the root span with request-level metadata.
        if let Some(root) = spans.iter_mut().find(|s| s.span_id() == root_span_id) {
            root.attributes_mut()
                .insert("api.name", AttrValue::str(api.name.clone()));
            root.attributes_mut()
                .insert("is_abnormal", AttrValue::Bool(is_abnormal));
        }

        if is_abnormal {
            self.perturb_abnormal(&mut spans, root_span_id);
        }

        Trace::from_spans(trace_id, spans).expect("generator produces valid traces")
    }

    /// Generates traces at a fixed request throughput for a duration,
    /// returning the trace set.  `throughput_per_min` requests per minute for
    /// `minutes` minutes.
    pub fn generate_at_throughput(&mut self, throughput_per_min: u64, minutes: u64) -> TraceSet {
        let total = (throughput_per_min * minutes) as usize;
        self.generate(total)
    }

    fn pick_api(&mut self) -> usize {
        let mut target = self
            .rng
            .gen_range(0.0..self.total_weight.max(f64::MIN_POSITIVE));
        for (i, api) in self.app.apis().iter().enumerate() {
            if target < api.weight {
                return i;
            }
            target -= api.weight;
        }
        self.app.apis().len() - 1
    }

    fn next_span_id(&mut self) -> SpanId {
        let id = SpanId::from_u64(mix64(self.next_span ^ self.config.seed) | 1);
        self.next_span += 1;
        id
    }

    /// Recursively builds spans for the call tree rooted at `call`.
    /// Returns the span id created for `call`.
    fn build_span_tree(
        &mut self,
        trace_id: TraceId,
        call: &CallSpec,
        parent: SpanId,
        start_us: u64,
        depth: usize,
        out: &mut Vec<Span>,
    ) -> SpanId {
        const MAX_DEPTH: usize = 64;
        let (service_name, op) = {
            let (service, op) = self
                .app
                .resolve(call)
                .expect("validated application always resolves");
            (service.name.clone(), op.clone())
        };

        let span_id = self.next_span_id();
        let local_latency = op.latency.sample(&mut self.rng);

        let mut child_cursor = start_us + local_latency / 2;
        let mut children_total = 0u64;
        if depth < MAX_DEPTH {
            for child_call in &op.calls {
                let child_id = self.build_span_tree(
                    trace_id,
                    child_call,
                    span_id,
                    child_cursor,
                    depth + 1,
                    out,
                );
                let child_duration = out
                    .iter()
                    .find(|s| s.span_id() == child_id)
                    .map(|s| s.duration_us())
                    .unwrap_or(0);
                child_cursor += child_duration + 50;
                children_total += child_duration + 50;
            }
        }

        let duration = local_latency + children_total;
        let mut builder = Span::builder(trace_id, span_id)
            .parent(parent)
            .name(op.name.clone())
            .service(service_name)
            .kind(op.kind)
            .start_time_us(start_us)
            .duration_us(duration)
            .status(SpanStatus::Ok);
        for template in &op.attrs {
            let (key, value) = template.generate(&mut self.rng);
            builder = builder.attr(key, value);
        }
        out.push(builder.build());
        span_id
    }

    /// Applies the abnormal-request perturbation: inflate root latency and
    /// possibly mark a span as errored.
    fn perturb_abnormal(&mut self, spans: &mut [Span], root_id: SpanId) {
        let factor = self.config.abnormal_latency_factor.max(1);
        if let Some(root) = spans.iter_mut().find(|s| s.span_id() == root_id) {
            let inflated = root.duration_us().saturating_mul(factor);
            root.set_duration_us(inflated);
        }
        if self.rng.gen_bool(self.config.abnormal_error_rate) && !spans.is_empty() {
            let victim = self.rng.gen_range(0..spans.len());
            spans[victim].set_status(SpanStatus::Error);
            spans[victim]
                .attributes_mut()
                .insert("http.status_code", AttrValue::Int(502));
            spans[victim].attributes_mut().insert(
                "event.exception",
                AttrValue::str("java.lang.RuntimeException: injected upstream timeout"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::online_boutique;
    use std::collections::HashSet;

    fn generator(seed: u64) -> TraceGenerator {
        TraceGenerator::new(
            online_boutique(),
            GeneratorConfig::default().with_seed(seed),
        )
    }

    #[test]
    fn traces_are_coherent_and_unique() {
        let mut g = generator(1);
        let traces = g.generate(50);
        assert_eq!(traces.len(), 50);
        let ids: HashSet<_> = traces.iter().map(|t| t.trace_id()).collect();
        assert_eq!(ids.len(), 50);
        for trace in &traces {
            assert!(trace.is_coherent(), "trace {} incoherent", trace.trace_id());
            assert!(trace.root().is_some());
        }
    }

    #[test]
    fn same_seed_is_deterministic() {
        let a = generator(7).generate(20);
        let b = generator(7).generate(20);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generator(1).generate(20);
        let b = generator(2).generate(20);
        assert_ne!(a, b);
    }

    #[test]
    fn abnormal_rate_is_respected() {
        let config = GeneratorConfig::default()
            .with_seed(3)
            .with_abnormal_rate(0.2);
        let mut g = TraceGenerator::new(online_boutique(), config);
        let traces = g.generate(500);
        let abnormal = traces
            .iter()
            .filter(|t| {
                t.root()
                    .and_then(|r| r.attributes().get("is_abnormal"))
                    .and_then(|v| v.as_bool())
                    .unwrap_or(false)
            })
            .count();
        let rate = abnormal as f64 / 500.0;
        assert!((0.12..=0.28).contains(&rate), "rate {rate}");
    }

    #[test]
    fn zero_abnormal_rate_has_no_errors() {
        let config = GeneratorConfig::default()
            .with_seed(3)
            .with_abnormal_rate(0.0);
        let mut g = TraceGenerator::new(online_boutique(), config);
        let traces = g.generate(100);
        assert!(traces.iter().all(|t| !t.has_error()));
    }

    #[test]
    fn root_span_carries_api_name() {
        let mut g = generator(5);
        let trace = g.generate_one();
        let root = trace.root().unwrap();
        assert!(root.attributes().contains_key("api.name"));
        assert!(root.attributes().contains_key("is_abnormal"));
    }

    #[test]
    fn generate_for_api_uses_requested_entry() {
        let mut g = generator(5);
        let apis: Vec<String> = g.app().apis().iter().map(|a| a.name.clone()).collect();
        for (i, api_name) in apis.iter().enumerate() {
            let trace = g.generate_for_api(i);
            let root = trace.root().unwrap();
            assert_eq!(
                root.attributes().get("api.name").unwrap().as_str().unwrap(),
                api_name
            );
        }
    }

    #[test]
    fn clock_advances_between_requests() {
        let mut g = generator(6);
        let before = g.clock_us();
        g.generate(10);
        assert!(g.clock_us() > before);
    }

    #[test]
    fn throughput_generation_produces_expected_count() {
        let mut g = generator(8);
        let set = g.generate_at_throughput(600, 2);
        assert_eq!(set.len(), 1200);
    }

    #[test]
    fn abnormal_traces_are_slower() {
        let config = GeneratorConfig::default()
            .with_seed(11)
            .with_abnormal_rate(0.5);
        let mut g = TraceGenerator::new(online_boutique(), config);
        let traces = g.generate(400);
        let (mut abnormal, mut normal) = (Vec::new(), Vec::new());
        for t in &traces {
            let is_abnormal = t
                .root()
                .and_then(|r| r.attributes().get("is_abnormal"))
                .and_then(|v| v.as_bool())
                .unwrap_or(false);
            if is_abnormal {
                abnormal.push(t.duration_us() as f64);
            } else {
                normal.push(t.duration_us() as f64);
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        assert!(mean(&abnormal) > 2.0 * mean(&normal));
    }
}
