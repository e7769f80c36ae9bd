//! Differential tests for the incremental symptom sampler.
//!
//! `SymptomSampler` keeps each sliding window sorted as values arrive and
//! searches for abnormal words in a reused lowered buffer.  Before that it
//! cloned and sorted the window for every value and built a lowercased
//! `String` per attribute; that version survives here, as the oracle, and
//! nowhere else.  Two invariants:
//!
//! 1. **Same decisions** — over random span streams (NaN-free numeric values
//!    with duplicates, negatives, constants, both zeros and infinities;
//!    0…3×window spans so every window wraps; random quantiles; random
//!    Unicode texts and word lists with mixed case, non-ASCII words and the
//!    empty word) the per-span decision sequence and `triggered()` of the
//!    sampler equal the oracle's.
//! 2. **Same sampled set** — a fixed-seed `MintBiased` deployment samples
//!    exactly the trace ids the clone-and-sort sampler sampled (count and
//!    hash recorded from the commit before the rewrite).
//!
//! NaN is excluded from (1) on purpose: the oracle's `partial_cmp` sort is
//! not a total order with NaN in the window and panics there, which is the
//! bug the rewrite fixes (see the unit tests in `samplers.rs`).

use mint_core::{MintConfig, MintDeployment, SamplingMode, SymptomSampler};
use proptest::prelude::*;
use std::collections::HashMap;
use trace_model::{AttrValue, Span, SpanId, SpanStatus, TraceId};
use workload::{layered_application, online_boutique, GeneratorConfig, TraceGenerator};

/// The sampler's window length (`SYMPTOM_WINDOW` in `samplers.rs`).
const WINDOW: usize = 512;

/// The clone-and-sort quantile window the sampler used to have.
struct OracleTracker {
    values: Vec<f64>,
    cursor: usize,
}

impl OracleTracker {
    fn new() -> Self {
        OracleTracker {
            values: Vec::new(),
            cursor: 0,
        }
    }

    fn observe(&mut self, value: f64) {
        if self.values.len() < WINDOW {
            self.values.push(value);
        } else {
            self.values[self.cursor] = value;
            self.cursor = (self.cursor + 1) % WINDOW;
        }
    }

    fn quantile(&self, q: f64) -> Option<f64> {
        if self.values.len() < 8 {
            return None;
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let rank = ((sorted.len() as f64 - 1.0) * q).round() as usize;
        sorted.get(rank).copied()
    }
}

/// The sampler as it was before the rewrite, `"{service}::{name}"` history
/// key included (the generated names contain no `::`, so the key is sound
/// here).
struct OracleSampler {
    abnormal_words: Vec<String>,
    quantile: f64,
    numeric_history: HashMap<String, OracleTracker>,
    duration_history: HashMap<String, OracleTracker>,
    triggered: u64,
}

impl OracleSampler {
    fn new(config: &MintConfig) -> Self {
        OracleSampler {
            abnormal_words: config
                .abnormal_words
                .iter()
                .map(|w| w.to_ascii_lowercase())
                .collect(),
            quantile: config.symptom_quantile,
            numeric_history: HashMap::new(),
            duration_history: HashMap::new(),
            triggered: 0,
        }
    }

    fn observe_span(&mut self, span: &Span) -> bool {
        let mut symptomatic = span.status().is_error();
        let duration = span.duration_us() as f64;
        let tracker = self
            .duration_history
            .entry(format!("{}::{}", span.service(), span.name()))
            .or_insert_with(OracleTracker::new);
        if tracker
            .quantile(self.quantile)
            .is_some_and(|p| duration > p * 2.0)
        {
            symptomatic = true;
        }
        tracker.observe(duration);

        for (key, value) in span.attributes().iter() {
            match value {
                AttrValue::Str(s) => {
                    let lower = s.to_ascii_lowercase();
                    if self.abnormal_words.iter().any(|w| lower.contains(w)) {
                        symptomatic = true;
                    }
                }
                AttrValue::Int(_) | AttrValue::Float(_) => {
                    let v = value.as_f64().unwrap_or(0.0);
                    let tracker = self
                        .numeric_history
                        .entry(key.to_owned())
                        .or_insert_with(OracleTracker::new);
                    if tracker.quantile(self.quantile).is_some_and(|p| v > p * 2.0) {
                        symptomatic = true;
                    }
                    tracker.observe(v);
                }
                AttrValue::Bool(_) => {}
            }
        }
        if symptomatic {
            self.triggered += 1;
        }
        symptomatic
    }
}

/// Feeds `spans` to both samplers and compares every decision.
fn assert_same_decisions(config: &MintConfig, spans: &[Span]) {
    let mut sampler = SymptomSampler::new(config);
    let mut oracle = OracleSampler::new(config);
    for (i, span) in spans.iter().enumerate() {
        assert_eq!(
            sampler.observe_span(span),
            oracle.observe_span(span),
            "decision {i} of {} differs for {span:?}",
            spans.len()
        );
    }
    assert_eq!(sampler.triggered(), oracle.triggered);
    assert_eq!(sampler.observed_spans(), spans.len() as u64);
}

/// NaN-free values that collide, repeat and jump: a handful of small
/// integers, a constant, both zeros, a continuous range around zero, rare
/// spikes and rare infinities.
fn value() -> impl Strategy<Value = f64> {
    prop_oneof![
        (0i64..6).prop_map(|v| v as f64),
        (0i64..6).prop_map(|v| v as f64),
        (0u8..1).prop_map(|_| 7.5),
        (0u8..2).prop_map(|z| if z == 0 { 0.0 } else { -0.0 }),
        -50.0f64..50.0,
        -50.0f64..50.0,
        (0i64..400).prop_map(|v| if v < 4 { 1e6 * v as f64 } else { 3.0 }),
        (0i64..200).prop_map(|v| match v {
            0 => f64::INFINITY,
            1 => f64::NEG_INFINITY,
            _ => -2.0,
        }),
    ]
}

/// One of a few messages, some carrying an abnormal word in some case.
const MESSAGES: [&str; 6] = [
    "request completed",
    "ok",
    "",
    "upstream TIMEOUT after 3 tries",
    "java.lang.NullPointerException",
    "Connection Refused by peer",
];

/// (operation, duration, error status, message, queue depth, CPU load if any).
fn span_spec() -> impl Strategy<Value = (usize, u64, bool, usize, f64, Option<f64>)> {
    (
        0usize..4,
        prop_oneof![50u64..150, 50u64..150, 100u64..101, 0u64..100_000],
        (0u8..100).prop_map(|v| v == 0),
        0usize..MESSAGES.len() * 8,
        value(),
        prop_oneof![value().prop_map(Some), (0u8..1).prop_map(|_| None)],
    )
}

fn build_span(
    index: usize,
    (op, duration, error, message, depth, load): (usize, u64, bool, usize, f64, Option<f64>),
) -> Span {
    let mut builder = Span::builder(TraceId::from_u128(1), SpanId::from_u64(index as u64 + 1))
        .service(["cart", "checkout"][op / 2])
        .name(["get", "put"][op % 2])
        .duration_us(duration)
        // Seven spans in eight carry the unremarkable first message.  When a
        // word does fire, the windows of the attributes after it must still
        // take their values.
        .attr(
            "log.message",
            AttrValue::str(*MESSAGES.get(message).unwrap_or(&MESSAGES[0])),
        )
        .attr("queue.depth", AttrValue::Int(depth as i64));
    if let Some(load) = load {
        builder = builder.attr("cpu.load", AttrValue::Float(load));
    }
    // An `Int` cannot carry a fraction, an infinity or a negative zero; this
    // attribute is always present and carries the same value as it is.
    builder = builder.attr("queue.depth.exact", AttrValue::Float(depth));
    if error {
        builder = builder.status(SpanStatus::Error);
    }
    builder.build()
}

/// Texts and words over a small alphabet with both cases of ASCII and of
/// non-ASCII letters (which ASCII folding must leave alone), so that words
/// occur in texts often.
const LETTERS: &str = "[aAbBeEtT éÉßσΣ0]";

fn word_list() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec(format!("{LETTERS}{{0,3}}"), 0..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn decisions_equal_the_clone_and_sort_oracle(
        specs in proptest::collection::vec(span_spec(), 0..3 * WINDOW + 1),
        quantile in prop_oneof![0.0f64..1.0, (0u8..4).prop_map(|q| [0.5, 0.95, 0.99, 1.0][q as usize])],
    ) {
        let config = MintConfig {
            symptom_quantile: quantile,
            ..MintConfig::default()
        };
        let spans: Vec<Span> = specs
            .into_iter()
            .enumerate()
            .map(|(i, spec)| build_span(i, spec))
            .collect();
        assert_same_decisions(&config, &spans);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn word_search_equals_lowercase_then_contains(
        words in word_list(),
        texts in proptest::collection::vec(format!("{LETTERS}{{0,12}}"), 1..6),
    ) {
        let config = MintConfig {
            abnormal_words: words,
            ..MintConfig::default()
        };
        let spans: Vec<Span> = texts
            .iter()
            .enumerate()
            .map(|(i, text)| {
                Span::builder(TraceId::from_u128(2), SpanId::from_u64(i as u64 + 1))
                    .service("svc")
                    .name("op")
                    .duration_us(100)
                    .attr("first", AttrValue::str(text.as_str()))
                    .attr("second", AttrValue::str(text.to_uppercase()))
                    .build()
            })
            .collect();
        assert_same_decisions(&config, &spans);
    }
}

/// FNV-1a over the sorted ids, so the pin does not depend on map order.
fn hash_ids(ids: &mut [u128]) -> u64 {
    ids.sort_unstable();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in ids.iter().flat_map(|id| id.to_le_bytes()) {
        hash = (hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Runs a `MintBiased` deployment and returns how many traces it sampled
/// (answers exactly) and the hash of their ids.
fn sampled_set(traces: &trace_model::TraceSet) -> (usize, u64) {
    let config = MintConfig::default().with_sampling_mode(SamplingMode::MintBiased);
    let mut mint = MintDeployment::new(config);
    mint.process(traces);
    let mut sampled: Vec<u128> = traces
        .iter()
        .map(|trace| trace.trace_id())
        .filter(|id| mint.backend().query(*id).is_exact())
        .map(|id| id.as_u128())
        .collect();
    (sampled.len(), hash_ids(&mut sampled))
}

#[test]
fn mint_biased_samples_the_trace_ids_the_parent_commit_sampled() {
    // Recorded from this very test at the parent commit (fb313e0), whose
    // sampler cloned and sorted.  Both corpora are long enough for the busy
    // windows to wrap several times.
    let boutique = TraceGenerator::new(
        online_boutique(),
        GeneratorConfig::default()
            .with_seed(42)
            .with_abnormal_rate(0.03),
    )
    .generate(2_500);
    assert_eq!(sampled_set(&boutique), PARENT_BOUTIQUE);

    let layered = TraceGenerator::new(
        layered_application("pin", 6, 5, 20),
        GeneratorConfig::default()
            .with_seed(7)
            .with_abnormal_rate(0.02),
    )
    .generate(1_500);
    assert_eq!(sampled_set(&layered), PARENT_LAYERED);
}

const PARENT_BOUTIQUE: (usize, u64) = (183, 13_644_860_511_770_451_295);
const PARENT_LAYERED: (usize, u64) = (309, 5_383_393_583_481_665_371);
