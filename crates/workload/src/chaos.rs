//! Timed chaos scenarios: fault windows injected live into a streaming
//! trace source.
//!
//! [`faults`](crate::FaultInjector) perturbs an already-materialized
//! `TraceSet` — fine for batch experiments, but the paper's evaluation (and
//! any production deployment) sees faults as *episodes on a timeline*: a
//! service degrades at some instant, stays degraded for a while, and
//! recovers, all while request load keeps flowing.  This module models that:
//!
//! * a [`FaultWindow`] is one episode — fault type, target service, a
//!   half-open `[start, start+duration)` interval on the simulated clock,
//!   and an impact ratio bounding the blast radius inside the window;
//! * a [`ChaosScenario`] is a named set of windows plus the injector seed;
//! * a [`ChaosSource`] wraps any trace iterator (usually a
//!   [`StreamingSource`](crate::StreamingSource)) and perturbs each trace
//!   in-flight iff its timeline position (root-span start time) falls inside
//!   a window, the trace passes through the window's target, and the
//!   per-trace impact coin flip selects it.
//!
//! Every window's ground truth is recorded as a [`FaultWindowTruth`] —
//! which traces were eligible and which were actually perturbed — so
//! downstream experiments can score sampler capture rates and RCA accuracy
//! against machine-readable truth rather than assumption.
//!
//! Because the underlying [`FaultInjector`] derives all randomness from
//! `(seed, trace id, fault type)`, injection commutes with stream order:
//! materializing a `ChaosSource` and re-streaming a fresh one yield
//! byte-identical traces, which is what the differential tests rely on.

#![deny(clippy::disallowed_methods)]

use crate::faults::{FaultInjector, FaultType};
use trace_model::{Trace, TraceId};

/// One timed fault episode on the simulated timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultWindow {
    /// The fault type injected during the window.
    pub fault_type: FaultType,
    /// The ground-truth root-cause service.
    pub target_service: String,
    /// Window start, µs on the simulated clock.
    pub start_us: u64,
    /// Window length in µs; the window covers `[start_us, start_us + duration_us)`.
    pub duration_us: u64,
    /// Fraction of eligible traces (in-window, passing through the target)
    /// that are perturbed.
    pub impact_ratio: f64,
}

impl FaultWindow {
    /// A window with the default 80% impact ratio.
    pub fn new(
        fault_type: FaultType,
        target_service: impl Into<String>,
        start_us: u64,
        duration_us: u64,
    ) -> Self {
        FaultWindow {
            fault_type,
            target_service: target_service.into(),
            start_us,
            duration_us,
            impact_ratio: 0.8,
        }
    }

    /// Sets the impact ratio (builder style).
    pub fn with_impact_ratio(mut self, ratio: f64) -> Self {
        self.impact_ratio = ratio;
        self
    }

    /// Exclusive end of the window.
    pub fn end_us(&self) -> u64 {
        self.start_us.saturating_add(self.duration_us)
    }

    /// Whether a timeline instant falls inside the window.
    pub fn contains(&self, t_us: u64) -> bool {
        t_us >= self.start_us && t_us < self.end_us()
    }
}

/// Ground truth for one window after (or during) a chaos run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultWindowTruth {
    /// The window this truth describes.
    pub window: FaultWindow,
    /// Traces whose timeline position fell inside the window and that passed
    /// through the target service (perturbation candidates).
    pub eligible_traces: usize,
    /// Trace ids actually perturbed, in stream order.
    pub affected_trace_ids: Vec<TraceId>,
}

impl FaultWindowTruth {
    fn new(window: FaultWindow) -> Self {
        FaultWindowTruth {
            window,
            eligible_traces: 0,
            affected_trace_ids: Vec::new(),
        }
    }
}

/// A named chaos scenario: injector seed, latency intensity and a set of
/// fault windows.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosScenario {
    /// Scenario label (used in reports).
    pub name: String,
    /// Seed for all per-trace injection randomness.
    pub seed: u64,
    /// Latency multiplier used by latency faults inside windows.
    pub latency_factor: u64,
    /// The fault windows, applied in order to each in-window trace.
    pub windows: Vec<FaultWindow>,
}

impl ChaosScenario {
    /// An empty scenario with the default 10× latency intensity.
    pub fn new(name: impl Into<String>, seed: u64) -> Self {
        ChaosScenario {
            name: name.into(),
            seed,
            latency_factor: 10,
            windows: Vec::new(),
        }
    }

    /// Adds a fault window (builder style).
    pub fn window(mut self, window: FaultWindow) -> Self {
        self.windows.push(window);
        self
    }

    /// Sets the latency multiplier (builder style).
    pub fn with_latency_factor(mut self, factor: u64) -> Self {
        self.latency_factor = factor;
        self
    }
}

/// A trace stream with a chaos scenario injected in-flight.
///
/// Wraps any `Iterator<Item = Trace>`; each yielded trace whose root-span
/// start time falls inside one or more fault windows is perturbed by the
/// corresponding injector before being handed to the consumer.  Ground
/// truth accumulates as the stream is drained and is readable at any time
/// via [`ground_truth`](ChaosSource::ground_truth) — stream through
/// `&mut source` (e.g. `process_stream(&mut source, ...)`) to keep the
/// source, and thus the truth, accessible afterwards.
#[derive(Debug)]
pub struct ChaosSource<I> {
    inner: I,
    // One injector per window: windows carry their own impact ratio.
    armed: Vec<(FaultInjector, FaultWindow)>,
    truth: Vec<FaultWindowTruth>,
}

impl<I: Iterator<Item = Trace>> ChaosSource<I> {
    /// Wraps `inner` with the windows of `scenario`.
    ///
    /// Each window gets its own injector seeded from the scenario seed and
    /// the window index, so scenarios are reproducible independent of how
    /// the stream is consumed.
    pub fn new(inner: I, scenario: &ChaosScenario) -> Self {
        let armed = scenario
            .windows
            .iter()
            .enumerate()
            .map(|(index, window)| {
                let mut injector =
                    FaultInjector::new(scenario.seed ^ (index as u64).wrapping_mul(0x9e37));
                injector.impact_ratio = window.impact_ratio;
                injector.latency_factor = scenario.latency_factor;
                (injector, window.clone())
            })
            .collect::<Vec<_>>();
        let truth = armed
            .iter()
            .map(|(_, window)| FaultWindowTruth::new(window.clone()))
            .collect();
        ChaosSource {
            inner,
            armed,
            truth,
        }
    }

    /// The ground truth accumulated so far (complete once the stream is
    /// exhausted), one record per window in scenario order.
    pub fn ground_truth(&self) -> &[FaultWindowTruth] {
        &self.truth
    }

    /// Consumes the source, returning the accumulated ground truth.
    pub fn into_ground_truth(self) -> Vec<FaultWindowTruth> {
        self.truth
    }

    /// The timeline position of a trace: its root span's start time (falls
    /// back to the earliest span start for degenerate traces).
    pub fn timeline_position_us(trace: &Trace) -> Option<u64> {
        trace
            .root()
            .map(|root| root.start_time_us())
            .or_else(|| trace.spans().iter().map(|s| s.start_time_us()).min())
    }
}

impl<I: Iterator<Item = Trace>> Iterator for ChaosSource<I> {
    type Item = Trace;

    fn next(&mut self) -> Option<Trace> {
        let mut trace = self.inner.next()?;
        let Some(position_us) = Self::timeline_position_us(&trace) else {
            return Some(trace);
        };
        for ((injector, window), truth) in self.armed.iter().zip(self.truth.iter_mut()) {
            if !window.contains(position_us) {
                continue;
            }
            if !trace.services().contains(window.target_service.as_str()) {
                continue;
            }
            truth.eligible_traces += 1;
            if injector.try_perturb(&mut trace, window.fault_type, &window.target_service) {
                truth.affected_trace_ids.push(trace.trace_id());
            }
        }
        Some(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::online_boutique;
    use crate::generator::GeneratorConfig;
    use crate::streaming::StreamingSource;

    fn base_stream(seed: u64, requests: usize) -> StreamingSource {
        let config = GeneratorConfig::default()
            .with_seed(seed)
            .with_abnormal_rate(0.0)
            .with_mean_interarrival_us(10_000);
        StreamingSource::paced(online_boutique(), config, requests)
    }

    /// A window covering roughly the middle third of a `requests`-trace
    /// stream paced at 10 ms.
    fn mid_window(fault: FaultType, target: &str, requests: usize) -> FaultWindow {
        let start = GeneratorConfig::default().start_time_us;
        let span = requests as u64 * 10_000;
        FaultWindow::new(fault, target, start + span / 3, span / 3)
    }

    #[test]
    fn only_in_window_traces_are_perturbed() {
        let baseline: Vec<Trace> = base_stream(11, 300).collect();
        let window =
            mid_window(FaultType::CodeException, "paymentservice", 300).with_impact_ratio(1.0);
        let scenario = ChaosScenario::new("mid-exception", 42).window(window.clone());
        let mut source = ChaosSource::new(base_stream(11, 300), &scenario);
        let chaotic: Vec<Trace> = source.by_ref().collect();
        assert_eq!(baseline.len(), chaotic.len());

        let truth = &source.ground_truth()[0];
        assert!(truth.eligible_traces > 0, "window saw no eligible traces");
        assert_eq!(truth.affected_trace_ids.len(), truth.eligible_traces);

        for (before, after) in baseline.iter().zip(chaotic.iter()) {
            let position = ChaosSource::<StreamingSource>::timeline_position_us(before).unwrap();
            let eligible =
                window.contains(position) && before.services().contains("paymentservice");
            if eligible {
                assert_ne!(before, after, "in-window trace left unperturbed");
                assert!(truth.affected_trace_ids.contains(&after.trace_id()));
            } else {
                assert_eq!(before, after, "out-of-window trace was perturbed");
            }
        }
    }

    #[test]
    fn restreaming_reproduces_the_same_chaos() {
        let scenario = ChaosScenario::new("repro", 7)
            .window(mid_window(FaultType::CpuExhaustion, "currencyservice", 200))
            .window(mid_window(FaultType::ErrorReturn, "cartservice", 200).with_impact_ratio(0.5));
        let run = || {
            let mut source = ChaosSource::new(base_stream(5, 200), &scenario);
            let traces: Vec<Trace> = source.by_ref().collect();
            (traces, source.into_ground_truth())
        };
        let (a_traces, a_truth) = run();
        let (b_traces, b_truth) = run();
        assert_eq!(a_traces, b_traces);
        assert_eq!(a_truth, b_truth);
        assert!(a_truth.iter().any(|t| !t.affected_trace_ids.is_empty()));
    }

    #[test]
    fn empty_scenario_is_a_transparent_wrapper() {
        let baseline: Vec<Trace> = base_stream(3, 100).collect();
        let scenario = ChaosScenario::new("noop", 1);
        let chaotic: Vec<Trace> = ChaosSource::new(base_stream(3, 100), &scenario).collect();
        assert_eq!(baseline, chaotic);
    }

    #[test]
    fn window_bounds_are_half_open() {
        let window = FaultWindow::new(FaultType::NetworkDelay, "svc", 1_000, 500);
        assert!(!window.contains(999));
        assert!(window.contains(1_000));
        assert!(window.contains(1_499));
        assert!(!window.contains(1_500));
        assert_eq!(window.end_us(), 1_500);
    }

    #[test]
    fn zero_impact_window_records_eligible_but_affects_none() {
        let window =
            mid_window(FaultType::MemoryExhaustion, "cartservice", 200).with_impact_ratio(0.0);
        let scenario = ChaosScenario::new("zero-impact", 13).window(window);
        let mut source = ChaosSource::new(base_stream(8, 200), &scenario);
        let chaotic: Vec<Trace> = source.by_ref().collect();
        let baseline: Vec<Trace> = base_stream(8, 200).collect();
        assert_eq!(baseline, chaotic);
        let truth = &source.ground_truth()[0];
        assert!(truth.eligible_traces > 0);
        assert!(truth.affected_trace_ids.is_empty());
    }
}
