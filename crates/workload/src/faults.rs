//! Fault injection for the root-cause-analysis experiments (Table 2/3).
//!
//! The paper uses Chaosblade to inject 56 faults of five types into the
//! OnlineBoutique and TrainTicket benchmarks.  Here, faults are injected
//! directly into already-generated traces: a fault targets one service and
//! perturbs the spans of that service in a way characteristic of the fault
//! type (latency inflation for resource exhaustion and network delays, error
//! statuses and exception events for code exceptions and error returns).
//! The injector records the ground-truth root-cause service for scoring.
//!
//! Every random draw the injector makes is keyed on the *trace id* (plus the
//! injector seed and the fault type), never on a shared RNG's call order.
//! Injection is therefore a pure function of `(seed, trace)` — the same
//! trace is perturbed identically whether it is visited first or last, in a
//! batch or in-flight on a stream, on one shard or eight.  The timed
//! streaming counterpart built on this guarantee lives in
//! [`chaos`](crate::chaos).

#![deny(clippy::disallowed_methods)]

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use trace_model::{AttrValue, SpanStatus, Trace, TraceId, TraceSet};

/// The five fault types of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultType {
    /// CPU exhaustion on the target service: large latency inflation.
    CpuExhaustion,
    /// Memory exhaustion: latency inflation plus occasional errors.
    MemoryExhaustion,
    /// Network delay between the target and its callers: moderate latency
    /// inflation on the target's spans.
    NetworkDelay,
    /// Code exception: error status and an exception event on the target.
    CodeException,
    /// Error return: error status with an HTTP 5xx status code.
    ErrorReturn,
}

impl FaultType {
    /// All fault types, in a stable order.
    pub const ALL: [FaultType; 5] = [
        FaultType::CpuExhaustion,
        FaultType::MemoryExhaustion,
        FaultType::NetworkDelay,
        FaultType::CodeException,
        FaultType::ErrorReturn,
    ];

    /// A human-readable label.
    pub fn label(&self) -> &'static str {
        match self {
            FaultType::CpuExhaustion => "cpu-exhaustion",
            FaultType::MemoryExhaustion => "memory-exhaustion",
            FaultType::NetworkDelay => "network-delay",
            FaultType::CodeException => "code-exception",
            FaultType::ErrorReturn => "error-return",
        }
    }

    /// Whether this fault primarily manifests as latency (rather than
    /// explicit errors).
    pub fn is_latency_fault(&self) -> bool {
        matches!(
            self,
            FaultType::CpuExhaustion | FaultType::MemoryExhaustion | FaultType::NetworkDelay
        )
    }

    /// A stable per-type salt folded into per-trace RNG seeds so different
    /// fault types draw independent randomness for the same trace.
    fn salt(&self) -> u64 {
        match self {
            FaultType::CpuExhaustion => 0x43_50_55,
            FaultType::MemoryExhaustion => 0x4d_45_4d,
            FaultType::NetworkDelay => 0x4e_45_54,
            FaultType::CodeException => 0x45_58_43,
            FaultType::ErrorReturn => 0x45_52_52,
        }
    }
}

/// A record of one injected fault: what was injected and where.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultRecord {
    /// The fault type.
    pub fault_type: FaultType,
    /// The ground-truth root-cause service.
    pub target_service: String,
    /// Number of traces that were affected by the injection.
    pub affected_traces: usize,
}

/// A splitmix64 finalizer used to derive per-trace RNG seeds.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Injects faults into generated traces.
///
/// The injector is stateless apart from its parameters: every decision is
/// re-derived from `(seed, trace id, fault type)`, so injection commutes
/// with any reordering, sharding or interleaving of the traces.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    seed: u64,
    /// Fraction of traces passing through the target service that are
    /// perturbed.
    pub impact_ratio: f64,
    /// Latency multiplier applied by latency faults.
    pub latency_factor: u64,
}

impl FaultInjector {
    /// Creates an injector with the given seed and default parameters
    /// (80% of traces through the target affected, 10× latency inflation).
    pub fn new(seed: u64) -> Self {
        FaultInjector {
            seed,
            impact_ratio: 0.8,
            latency_factor: 10,
        }
    }

    /// The injector seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// A deterministic RNG for one `(trace, fault type)` pair.
    fn trace_rng(&self, trace_id: TraceId, fault_type: FaultType) -> SmallRng {
        let id = trace_id.as_u128();
        let folded = (id as u64) ^ ((id >> 64) as u64).rotate_left(32);
        SmallRng::seed_from_u64(mix64(self.seed ^ folded ^ fault_type.salt()))
    }

    /// Whether the impact-ratio coin flip selects this trace for
    /// perturbation.  A pure function of `(seed, trace id, fault type)`.
    pub fn decides_impact(&self, trace_id: TraceId, fault_type: FaultType) -> bool {
        if self.impact_ratio >= 1.0 {
            return true;
        }
        if self.impact_ratio <= 0.0 {
            return false;
        }
        self.trace_rng(trace_id, fault_type)
            .gen_bool(self.impact_ratio)
    }

    /// Injects `fault_type` at `target_service` into every trace of `traces`
    /// that passes through the target (subject to the impact ratio).
    ///
    /// Returns the fault record with the number of affected traces.
    pub fn inject(
        &self,
        traces: &mut TraceSet,
        fault_type: FaultType,
        target_service: &str,
    ) -> FaultRecord {
        let mut affected = 0;
        // TraceSet does not expose mutable iteration; rebuild it.
        let rebuilt: Vec<Trace> = std::mem::take(traces)
            .into_iter()
            .map(|mut trace| {
                if self.try_perturb(&mut trace, fault_type, target_service) {
                    affected += 1;
                }
                trace
            })
            .collect();
        traces.extend(rebuilt);
        FaultRecord {
            fault_type,
            target_service: target_service.to_owned(),
            affected_traces: affected,
        }
    }

    /// Applies the full injection decision to one trace: perturbs it iff it
    /// passes through `target` and the impact coin flip selects it.  Returns
    /// whether the trace was perturbed.  This is the entry point the
    /// streaming [`ChaosSource`](crate::ChaosSource) uses to inject in
    /// flight.
    pub fn try_perturb(&self, trace: &mut Trace, fault_type: FaultType, target: &str) -> bool {
        let passes_through = trace.services().contains(target);
        if passes_through && self.decides_impact(trace.trace_id(), fault_type) {
            self.perturb(trace, fault_type, target);
            true
        } else {
            false
        }
    }

    /// Unconditionally perturbs one trace's target-service spans in the way
    /// characteristic of `fault_type`.  Deterministic per `(seed, trace id,
    /// fault type)`.
    pub fn perturb(&self, trace: &mut Trace, fault_type: FaultType, target: &str) {
        let mut rng = self.trace_rng(trace.trace_id(), fault_type);
        let factor = self.latency_factor;
        for span in trace.spans_mut() {
            if span.service() != target {
                continue;
            }
            match fault_type {
                FaultType::CpuExhaustion => {
                    span.set_duration_us(span.duration_us().saturating_mul(factor));
                    span.attributes_mut()
                        .insert("resource.cpu.utilization", AttrValue::Float(0.99));
                }
                FaultType::MemoryExhaustion => {
                    span.set_duration_us(span.duration_us().saturating_mul(factor / 2 + 1));
                    span.attributes_mut()
                        .insert("resource.memory.utilization", AttrValue::Float(0.97));
                    if rng.gen_bool(0.3) {
                        span.set_status(SpanStatus::Error);
                        span.attributes_mut().insert(
                            "event.exception",
                            AttrValue::str("java.lang.OutOfMemoryError: Java heap space"),
                        );
                    }
                }
                FaultType::NetworkDelay => {
                    span.set_duration_us(span.duration_us().saturating_mul(factor / 2 + 2));
                    span.attributes_mut()
                        .insert("net.delay_injected_ms", AttrValue::Int(300));
                }
                FaultType::CodeException => {
                    span.set_status(SpanStatus::Error);
                    span.attributes_mut().insert(
                        "event.exception",
                        AttrValue::str("java.lang.NullPointerException at Handler.invoke"),
                    );
                }
                FaultType::ErrorReturn => {
                    span.set_status(SpanStatus::Error);
                    span.attributes_mut()
                        .insert("http.status_code", AttrValue::Int(500));
                }
            }
        }
        // Latency faults propagate upward: the root also slows down, since
        // parents wait on the slow child.
        if fault_type.is_latency_fault() {
            let extra: u64 = trace
                .spans()
                .iter()
                .filter(|s| s.service() == target)
                .map(|s| s.duration_us())
                .sum();
            let root_id = trace.root().map(|r| r.span_id());
            if let Some(root_id) = root_id {
                for span in trace.spans_mut() {
                    if span.span_id() == root_id {
                        span.set_duration_us(span.duration_us().saturating_add(extra));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::online_boutique;
    use crate::generator::{GeneratorConfig, TraceGenerator};

    fn workload() -> TraceSet {
        let config = GeneratorConfig::default()
            .with_seed(77)
            .with_abnormal_rate(0.0);
        TraceGenerator::new(online_boutique(), config).generate(200)
    }

    #[test]
    fn injection_affects_only_target_service_traces() {
        let mut traces = workload();
        let baseline = traces.clone();
        let mut injector = FaultInjector::new(1);
        injector.impact_ratio = 1.0;
        let record = injector.inject(&mut traces, FaultType::CodeException, "paymentservice");
        assert_eq!(record.target_service, "paymentservice");
        assert!(record.affected_traces > 0);
        let through_payment = baseline
            .iter()
            .filter(|t| t.services().contains("paymentservice"))
            .count();
        assert_eq!(record.affected_traces, through_payment);
        // Traces not passing through the payment service are untouched.
        for (before, after) in baseline.iter().zip(traces.iter()) {
            if !before.services().contains("paymentservice") {
                assert_eq!(before, after);
            }
        }
    }

    #[test]
    fn error_faults_set_error_status_on_target() {
        let mut traces = workload();
        let mut injector = FaultInjector::new(2);
        injector.impact_ratio = 1.0;
        injector.inject(&mut traces, FaultType::ErrorReturn, "cartservice");
        let errored = traces.iter().filter(|t| {
            t.spans()
                .iter()
                .any(|s| s.service() == "cartservice" && s.status().is_error())
        });
        assert!(errored.count() > 0);
    }

    #[test]
    fn latency_faults_inflate_duration() {
        let mut traces = workload();
        let baseline = traces.clone();
        let mut injector = FaultInjector::new(3);
        injector.impact_ratio = 1.0;
        injector.inject(&mut traces, FaultType::CpuExhaustion, "currencyservice");
        let mean = |set: &TraceSet| {
            let durations: Vec<f64> = set
                .iter()
                .filter(|t| t.services().contains("currencyservice"))
                .map(|t| t.duration_us() as f64)
                .collect();
            durations.iter().sum::<f64>() / durations.len().max(1) as f64
        };
        assert!(mean(&traces) > 1.3 * mean(&baseline));
    }

    #[test]
    fn impact_ratio_limits_blast_radius() {
        let mut traces = workload();
        let mut injector = FaultInjector::new(4);
        injector.impact_ratio = 0.2;
        let record = injector.inject(&mut traces, FaultType::NetworkDelay, "frontend");
        let through_frontend = traces
            .iter()
            .filter(|t| t.services().contains("frontend"))
            .count();
        assert!(record.affected_traces < through_frontend);
        assert!(record.affected_traces > 0);
    }

    #[test]
    fn fault_type_metadata() {
        assert_eq!(FaultType::ALL.len(), 5);
        assert!(FaultType::CpuExhaustion.is_latency_fault());
        assert!(!FaultType::ErrorReturn.is_latency_fault());
        assert_eq!(FaultType::CodeException.label(), "code-exception");
    }

    #[test]
    fn trace_count_is_preserved() {
        let mut traces = workload();
        let before = traces.len();
        FaultInjector::new(5).inject(&mut traces, FaultType::MemoryExhaustion, "adservice");
        assert_eq!(traces.len(), before);
    }

    #[test]
    fn injection_is_independent_of_trace_order() {
        // The determinism guarantee the streaming chaos layer builds on: the
        // same trace gets the same perturbation whether visited first or
        // last.
        let traces = workload();
        let injector = FaultInjector::new(6);

        let mut forward = traces.clone();
        injector.inject(&mut forward, FaultType::MemoryExhaustion, "cartservice");

        let reversed: Vec<Trace> = traces.iter().rev().cloned().collect();
        let mut reversed: TraceSet = reversed.into_iter().collect();
        injector.inject(&mut reversed, FaultType::MemoryExhaustion, "cartservice");

        let by_id: std::collections::HashMap<TraceId, &Trace> =
            reversed.iter().map(|t| (t.trace_id(), t)).collect();
        for trace in &forward {
            assert_eq!(
                Some(&trace),
                by_id.get(&trace.trace_id()),
                "trace {} perturbed differently under reversed order",
                trace.trace_id()
            );
        }
    }

    #[test]
    fn impact_decision_is_a_pure_function_of_the_id() {
        let injector = FaultInjector::new(9);
        for i in 0..200u128 {
            let id = TraceId::from_u128(i | 1);
            assert_eq!(
                injector.decides_impact(id, FaultType::NetworkDelay),
                injector.decides_impact(id, FaultType::NetworkDelay)
            );
        }
        let mut all = FaultInjector::new(9);
        all.impact_ratio = 1.0;
        let mut none = FaultInjector::new(9);
        none.impact_ratio = 0.0;
        assert!(all.decides_impact(TraceId::from_u128(3), FaultType::CpuExhaustion));
        assert!(!none.decides_impact(TraceId::from_u128(3), FaultType::CpuExhaustion));
    }
}
