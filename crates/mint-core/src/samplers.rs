//! Mint's samplers (§4.2): which traces get their *parameters* uploaded.
//!
//! Under the commonality + variability paradigm no trace is ever discarded —
//! sampling only decides whether a trace's variable parameters are shipped to
//! the backend (exact trace) or left to age out of the agent-side buffer
//! (approximate trace).  Mint provides two biased samplers designed for this
//! paradigm, plus a deterministic head sampler for compatibility experiments.

#![deny(clippy::disallowed_methods)]

use crate::config::MintConfig;
use crate::intern::BuildFxHasher;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use trace_model::{AttrValue, Span, TraceId};

/// Why (or whether) a trace was selected for full parameter retention.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SamplerDecision {
    /// Selected by the symptom sampler (abnormal value or latency outlier).
    Symptom,
    /// Selected by the edge-case sampler (rare execution path).
    EdgeCase,
    /// Selected by head sampling.
    Head,
    /// Not selected: only the commonality part is retained.
    NotSampled,
}

impl SamplerDecision {
    /// Whether the trace's parameters should be uploaded.
    pub fn is_sampled(&self) -> bool {
        !matches!(self, SamplerDecision::NotSampled)
    }

    /// Combines two decisions, preferring the sampled one.
    pub fn or(self, other: SamplerDecision) -> SamplerDecision {
        if self.is_sampled() {
            self
        } else {
            other
        }
    }
}

/// Length of every sliding window the symptom sampler keeps: the most recent
/// values of one numeric attribute, or the most recent durations of one
/// (service, operation).
const SYMPTOM_WINDOW: usize = 512;

/// A window reports no quantile until it holds this many values.
const MIN_HISTORY: usize = 8;

/// Sliding-window order statistics over the last [`SYMPTOM_WINDOW`] values.
///
/// `ring` holds the window in arrival order (once full, `cursor` is the
/// oldest slot) and `sorted` holds the same multiset of values in
/// `f64::total_cmp` order, so a quantile is one indexed read and an update is
/// two binary searches plus one `memmove` of at most the window.  Ordering by
/// `total_cmp` makes the order total on *every* input: a NaN has a place in
/// the window like any other value, and the value an eviction looks for is
/// found by bit pattern.
#[derive(Debug, Clone, Default)]
struct QuantileTracker {
    ring: Vec<f64>,
    sorted: Vec<f64>,
    cursor: usize,
}

impl QuantileTracker {
    /// Adds `value`, evicting the oldest value once the window is full.
    fn observe(&mut self, value: f64) {
        let at = self.sorted.partition_point(|x| x.total_cmp(&value).is_lt());
        if self.ring.len() < SYMPTOM_WINDOW {
            self.ring.push(value);
            self.sorted.insert(at, value);
            return;
        }
        let evicted = std::mem::replace(&mut self.ring[self.cursor], value);
        self.cursor = (self.cursor + 1) % SYMPTOM_WINDOW;
        // `sorted[out]` is the first value with `evicted`'s bit pattern.
        // Close that gap and open one at `at` by moving only what lies
        // between the two.
        let out = self
            .sorted
            .partition_point(|x| x.total_cmp(&evicted).is_lt());
        if at > out {
            self.sorted.copy_within(out + 1..at, out);
            self.sorted[at - 1] = value;
        } else {
            self.sorted.copy_within(at..out, at + 1);
            self.sorted[at] = value;
        }
    }

    /// The `q`-quantile of the window (nearest rank), once it holds at least
    /// [`MIN_HISTORY`] values.
    fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.len() < MIN_HISTORY {
            return None;
        }
        let rank = ((self.sorted.len() as f64 - 1.0) * q).round() as usize;
        self.sorted.get(rank).copied()
    }

    /// Whether `value` is a clear outlier against the window as it stood
    /// before `value` arrived (more than twice its `q`-quantile, so ordinary
    /// jitter does not inflate the sampled fraction); then adds `value`.
    fn is_outlier_then_observe(&mut self, value: f64, q: f64) -> bool {
        let outlier = self.quantile(q).is_some_and(|p| value > p * 2.0);
        self.observe(value);
        outlier
    }
}

/// One window per key, looked up by borrowed `&str`.  Hashed without
/// per-process random state, like the interner's maps, so the same spans cost
/// the same in every run.
type History = HashMap<String, QuantileTracker, BuildFxHasher>;

/// Starts the window of a key seen for the first time.  A one-value window
/// has no quantile yet, so the first value is never an outlier.
#[cold]
fn start_history(history: &mut History, key: &str, first: f64) {
    let mut tracker = QuantileTracker::default();
    tracker.observe(first);
    history.insert(key.to_owned(), tracker);
}

/// A lowered copy this much larger than any ordinary attribute value is
/// released after use rather than kept for the next value.
const LOWERED_KEEP_BYTES: usize = 64 * 1024;

/// ASCII-case-insensitive search for any of a fixed set of words:
/// `text.to_ascii_lowercase().contains(word)` for some word, with the lowered
/// copy written into a buffer that is reused from one text to the next.
#[derive(Debug, Clone)]
struct WordMatcher {
    /// The words, ASCII-lowercased.
    words: Vec<String>,
    lowered: String,
}

impl WordMatcher {
    fn new(words: &[String]) -> Self {
        WordMatcher {
            words: words.iter().map(|w| w.to_ascii_lowercase()).collect(),
            lowered: String::new(),
        }
    }

    fn matches(&mut self, text: &str) -> bool {
        self.lowered.clear();
        self.lowered.push_str(text);
        self.lowered.make_ascii_lowercase();
        let found = self.words.iter().any(|w| self.lowered.contains(w.as_str()));
        if self.lowered.capacity() > LOWERED_KEEP_BYTES {
            self.lowered = String::new();
        }
        found
    }
}

/// The Symptom Sampler: monitors the variable parameters flowing through the
/// agent and marks traces with abnormal values (error statuses, abnormal
/// words, 5xx codes) or outliers (values above the configured quantile of
/// their attribute's recent history) as sampled.
#[derive(Debug, Clone)]
pub struct SymptomSampler {
    abnormal_words: WordMatcher,
    quantile: f64,
    /// Attribute key → recent values.
    numeric_history: History,
    /// Service → operation → recent durations.  Two levels, so no separator
    /// can make two (service, operation) pairs share a window.
    duration_history: HashMap<String, History, BuildFxHasher>,
    observed_spans: u64,
    triggered: u64,
}

impl SymptomSampler {
    /// Creates a sampler from the Mint configuration.
    pub fn new(config: &MintConfig) -> Self {
        SymptomSampler {
            abnormal_words: WordMatcher::new(&config.abnormal_words),
            quantile: config.symptom_quantile,
            numeric_history: HashMap::default(),
            duration_history: HashMap::default(),
            observed_spans: 0,
            triggered: 0,
        }
    }

    /// Observes one span and reports whether it is symptomatic.
    ///
    /// Every numeric value joins its window whether or not the span is
    /// already symptomatic; steady state (every key seen before) allocates
    /// nothing.
    pub fn observe_span(&mut self, span: &Span) -> bool {
        self.observed_spans += 1;
        let mut symptomatic = span.status().is_error();

        // Latency outlier relative to the (service, operation)'s history.
        let duration = span.duration_us() as f64;
        match self
            .duration_history
            .get_mut(span.service())
            .and_then(|operations| operations.get_mut(span.name()))
        {
            Some(tracker) => {
                symptomatic |= tracker.is_outlier_then_observe(duration, self.quantile)
            }
            None => self.start_duration_history(span, duration),
        }

        for (key, value) in span.attributes().iter() {
            match value {
                // A span that is already symptomatic needs no word search.
                AttrValue::Str(s) => symptomatic = symptomatic || self.abnormal_words.matches(s),
                AttrValue::Int(_) | AttrValue::Float(_) => {
                    let v = value.as_f64().unwrap_or(0.0);
                    match self.numeric_history.get_mut(key) {
                        Some(tracker) => {
                            symptomatic |= tracker.is_outlier_then_observe(v, self.quantile)
                        }
                        None => start_history(&mut self.numeric_history, key, v),
                    }
                }
                AttrValue::Bool(_) => {}
            }
        }
        if symptomatic {
            self.triggered += 1;
        }
        symptomatic
    }

    #[cold]
    fn start_duration_history(&mut self, span: &Span, first: f64) {
        let operations = self
            .duration_history
            .entry(span.service().to_owned())
            .or_default();
        start_history(operations, span.name(), first);
    }

    /// Number of spans observed so far.
    pub fn observed_spans(&self) -> u64 {
        self.observed_spans
    }

    /// Number of spans flagged symptomatic so far.
    pub fn triggered(&self) -> u64 {
        self.triggered
    }
}

/// The Edge-Case Sampler: monitors topology-pattern match counts and samples
/// traces whose execution path is rare — the pattern has matched only a
/// handful of sub-traces *and* accounts for a tiny share of the traffic seen
/// so far (so common paths are not oversampled while the system warms up).
#[derive(Debug, Clone)]
pub struct EdgeCaseSampler {
    rare_threshold: u64,
    max_frequency: f64,
    decisions: u64,
    triggered: u64,
}

impl EdgeCaseSampler {
    /// Creates a sampler from the Mint configuration.
    pub fn new(config: &MintConfig) -> Self {
        EdgeCaseSampler {
            rare_threshold: config.edge_case_rare_threshold,
            max_frequency: config.edge_case_max_frequency,
            decisions: 0,
            triggered: 0,
        }
    }

    /// Decides whether a trace matching a topology pattern seen
    /// `pattern_match_count` times (including this one), out of
    /// `total_matches` sub-traces observed overall, is an edge case.
    pub fn observe(&mut self, pattern_match_count: u64, total_matches: u64) -> bool {
        self.decisions += 1;
        let frequency = pattern_match_count as f64 / total_matches.max(1) as f64;
        let rare = pattern_match_count <= self.rare_threshold && frequency <= self.max_frequency;
        if rare {
            self.triggered += 1;
        }
        rare
    }

    /// Number of decisions taken.
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Number of traces flagged as edge cases.
    pub fn triggered(&self) -> u64 {
        self.triggered
    }
}

/// Deterministic head sampler: the decision is a pure function of the trace
/// id, so every agent in the deployment makes the same choice without
/// coordination.
#[derive(Debug, Clone, Copy)]
pub struct HeadSampler {
    rate: f64,
}

impl HeadSampler {
    /// Creates a head sampler with the given sampling rate in `[0, 1]`.
    pub fn new(rate: f64) -> Self {
        HeadSampler {
            rate: rate.clamp(0.0, 1.0),
        }
    }

    /// The configured rate.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Whether `trace_id` is head-sampled.
    pub fn decide(&self, trace_id: TraceId) -> bool {
        if self.rate >= 1.0 {
            return true;
        }
        if self.rate <= 0.0 {
            return false;
        }
        // Cheap splitmix-style hash of the id, mapped to [0, 1).
        let mut x = trace_id.as_u128() as u64 ^ (trace_id.as_u128() >> 64) as u64;
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 31;
        (x as f64 / u64::MAX as f64) < self.rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace_model::{SpanId, SpanStatus};

    fn span(duration: u64, status_code: i64, message: &str) -> Span {
        Span::builder(TraceId::from_u128(1), SpanId::from_u64(1))
            .service("svc")
            .name("op")
            .duration_us(duration)
            .attr("http.status_code", AttrValue::Int(status_code))
            .attr("log.message", AttrValue::str(message))
            .build()
    }

    #[test]
    fn error_status_is_symptomatic() {
        let mut sampler = SymptomSampler::new(&MintConfig::default());
        let mut errored = span(100, 200, "all good");
        errored.set_status(SpanStatus::Error);
        assert!(sampler.observe_span(&errored));
        assert_eq!(sampler.triggered(), 1);
    }

    #[test]
    fn abnormal_words_are_symptomatic() {
        let mut sampler = SymptomSampler::new(&MintConfig::default());
        assert!(sampler.observe_span(&span(100, 200, "connection TIMEOUT while calling db")));
        assert!(sampler.observe_span(&span(100, 502, "upstream returned 502 bad gateway")));
        assert!(!sampler.observe_span(&span(100, 200, "request completed")));
    }

    #[test]
    fn latency_outliers_are_symptomatic() {
        let mut sampler = SymptomSampler::new(&MintConfig::default());
        for _ in 0..100 {
            assert!(!sampler.observe_span(&span(100, 200, "ok")));
        }
        assert!(sampler.observe_span(&span(100_000, 200, "ok")));
        assert_eq!(sampler.observed_spans(), 101);
    }

    #[test]
    fn numeric_attribute_outliers_are_symptomatic() {
        let mut config = MintConfig::default();
        config.abnormal_words.clear();
        let mut sampler = SymptomSampler::new(&config);
        for i in 0..100 {
            let s = Span::builder(TraceId::from_u128(1), SpanId::from_u64(i))
                .service("svc")
                .name("op")
                .duration_us(100)
                .attr("queue.depth", AttrValue::Int(10))
                .build();
            sampler.observe_span(&s);
        }
        let spike = Span::builder(TraceId::from_u128(1), SpanId::from_u64(999))
            .service("svc")
            .name("op")
            .duration_us(100)
            .attr("queue.depth", AttrValue::Int(10_000))
            .build();
        assert!(sampler.observe_span(&spike));
    }

    fn span_of(service: &str, name: &str, duration: u64, load: AttrValue) -> Span {
        Span::builder(TraceId::from_u128(1), SpanId::from_u64(1))
            .service(service)
            .name(name)
            .duration_us(duration)
            .attr("load", load)
            .build()
    }

    /// NaN, both infinities, both zeros, duplicates and ordinary values.
    fn hostile_value(i: usize) -> f64 {
        match i % 7 {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => -0.0,
            4 => 0.0,
            5 => -f64::NAN,
            _ => (i * 2_654_435_761 % 97) as f64 - 40.0,
        }
    }

    #[test]
    fn sorted_view_stays_the_multiset_of_the_ring() {
        let mut tracker = QuantileTracker::default();
        for i in 0..3 * SYMPTOM_WINDOW + 5 {
            tracker.observe(hostile_value(i));
            let mut expected = tracker.ring.clone();
            expected.sort_by(f64::total_cmp);
            let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&tracker.sorted), bits(&expected), "after {i} values");
        }
        assert_eq!(tracker.ring.len(), SYMPTOM_WINDOW);
    }

    #[test]
    fn non_finite_values_neither_panic_nor_flag() {
        let mut config = MintConfig::default();
        config.abnormal_words.clear();
        let mut sampler = SymptomSampler::new(&config);
        // The parent's clone-and-sort window panics in here: `partial_cmp`
        // is not a total order once NaN and numbers share a window.
        for i in 0..3 * SYMPTOM_WINDOW {
            let flagged = sampler.observe_span(&span_of(
                "svc",
                "op",
                100,
                AttrValue::Float(hostile_value(i)),
            ));
            assert!(
                !(hostile_value(i).is_nan() && flagged),
                "NaN flagged at {i}"
            );
        }
        // Ordinary values push every hostile one out again, each eviction
        // finding its value; after that the window judges as if they had
        // never been there.
        for _ in 0..SYMPTOM_WINDOW {
            assert!(!sampler.observe_span(&span_of("svc", "op", 100, AttrValue::Float(10.0))));
        }
        assert!(!sampler.observe_span(&span_of("svc", "op", 100, AttrValue::Float(f64::NAN))));
        assert!(sampler.observe_span(&span_of("svc", "op", 100, AttrValue::Float(10_000.0))));
    }

    #[test]
    fn operations_with_a_separator_in_their_names_keep_their_own_windows() {
        let mut config = MintConfig::default();
        config.abnormal_words.clear();
        let mut sampler = SymptomSampler::new(&config);
        for _ in 0..100 {
            sampler.observe_span(&span_of("a::b", "c", 100, AttrValue::Bool(true)));
        }
        // A "{service}::{name}" key would judge this span against the
        // hundred 100 us spans of ("a::b", "c") and flag it.
        assert!(!sampler.observe_span(&span_of("a", "b::c", 100_000, AttrValue::Bool(true))));
        assert!(sampler.observe_span(&span_of("a::b", "c", 100_000, AttrValue::Bool(true))));
    }

    #[test]
    fn abnormal_words_match_like_lowercase_then_contains() {
        let with_words = |words: &[&str]| MintConfig {
            abnormal_words: words.iter().map(|w| w.to_string()).collect(),
            ..MintConfig::default()
        };
        let mut sampler = SymptomSampler::new(&with_words(&["TimeOut", "défaut"]));
        let mut flagged = |text: &str| sampler.observe_span(&span(100, 200, text));
        assert!(flagged("read tIMEoUT"));
        assert!(flagged("DÉFAUT? no: défaut"));
        // ASCII folding only: `É` is not `é`.
        assert!(!flagged("DÉFAUT"));
        assert!(!flagged("time out"));
        // A value far longer than the kept buffer is searched all the same.
        assert!(flagged(&format!(
            "{}timeout",
            "x".repeat(2 * LOWERED_KEEP_BYTES)
        )));
        assert!(!flagged("ok"));

        // The empty word is a substring of everything, the empty string included.
        assert!(SymptomSampler::new(&with_words(&[""])).observe_span(&span(100, 200, "")));
    }

    #[test]
    fn edge_case_sampler_flags_rare_patterns() {
        let mut sampler = EdgeCaseSampler::new(&MintConfig::default());
        // Rare path: few matches, tiny share of the traffic.
        assert!(sampler.observe(1, 5_000));
        assert!(sampler.observe(10, 5_000));
        // Too many matches, or too large a share of traffic: not an edge case.
        assert!(!sampler.observe(11, 5_000));
        assert!(!sampler.observe(5, 20));
        assert!(!sampler.observe(5_000, 10_000));
        assert_eq!(sampler.decisions(), 5);
        assert_eq!(sampler.triggered(), 2);
    }

    #[test]
    fn head_sampler_rate_is_respected() {
        let sampler = HeadSampler::new(0.05);
        let sampled = (0..20_000u128)
            .filter(|i| sampler.decide(TraceId::from_u128(*i)))
            .count();
        let rate = sampled as f64 / 20_000.0;
        assert!((0.03..0.07).contains(&rate), "rate {rate}");
        assert!(HeadSampler::new(1.0).decide(TraceId::from_u128(1)));
        assert!(!HeadSampler::new(0.0).decide(TraceId::from_u128(1)));
    }

    #[test]
    fn head_sampler_is_deterministic() {
        let a = HeadSampler::new(0.1);
        let b = HeadSampler::new(0.1);
        for i in 0..100u128 {
            assert_eq!(
                a.decide(TraceId::from_u128(i)),
                b.decide(TraceId::from_u128(i))
            );
        }
    }

    #[test]
    fn decision_combinators() {
        assert!(SamplerDecision::Symptom.is_sampled());
        assert!(!SamplerDecision::NotSampled.is_sampled());
        assert_eq!(
            SamplerDecision::NotSampled.or(SamplerDecision::EdgeCase),
            SamplerDecision::EdgeCase
        );
        assert_eq!(
            SamplerDecision::Head.or(SamplerDecision::Symptom),
            SamplerDecision::Head
        );
    }
}
