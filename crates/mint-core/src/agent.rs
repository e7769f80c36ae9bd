//! The Mint agent: the per-node component that parses spans, aggregates
//! patterns, buffers parameters and runs the biased samplers (§4.1).

use crate::config::MintConfig;
use crate::params::{ParamBlock, ParamsBuffer};
use crate::samplers::{EdgeCaseSampler, SymptomSampler};
use crate::span_parser::{PatternCatalog, SpanParser};
use crate::trace_parser::{ParsedSpan, TopoPatternLibrary, TraceParser};
use mint_bloom::BloomFilter;
use serde::{Deserialize, Serialize};
use trace_model::{PatternId, Span, SubTrace, TraceId, WireSize};

/// Counters describing the work an agent has done.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AgentStats {
    /// Spans parsed by the span parser.
    pub spans_parsed: u64,
    /// Sub-traces processed by the trace parser.
    pub sub_traces: u64,
    /// Raw bytes of trace data the agent intercepted.
    pub raw_bytes: u64,
    /// Parameter blocks evicted from the Params Buffer before upload.
    pub evicted_blocks: u64,
}

/// The result of ingesting one sub-trace.
#[derive(Debug, Clone)]
pub struct IngestOutcome {
    /// The trace the sub-trace belongs to.
    pub trace_id: TraceId,
    /// The topology pattern the sub-trace matched (or created).
    pub topo_id: PatternId,
    /// Whether a new topology pattern was created.
    pub new_topo_pattern: bool,
    /// Number of new span patterns created while parsing.
    pub new_span_patterns: usize,
    /// A full Bloom filter flushed for upload, if any.
    pub flushed_bloom: Option<BloomFilter>,
    /// Whether the symptom sampler flagged any span of the sub-trace.
    pub symptom_sampled: bool,
    /// Whether the edge-case sampler flagged the topology as rare.
    pub edge_case_sampled: bool,
    /// How many sub-traces have matched this topology pattern so far.
    pub topo_match_count: u64,
    /// The amortized metadata-mounting cost of this sub-trace: the share of
    /// one full Bloom filter upload attributable to this trace id.
    pub bloom_mounting_bytes: u64,
    /// Wire size of the ingested spans, summed — sized here, once, so the
    /// caller can account the whole trace without sizing them again.
    pub span_bytes: u64,
}

/// A per-node Mint agent.
///
/// The agent intercepts the spans generated on its node, parses them at the
/// span and trace level, stores patterns + Bloom filters in shared memory
/// (here: plain structs) and keeps variable parameters in a bounded FIFO
/// buffer until the collector decides their fate.
#[derive(Debug, Clone)]
pub struct MintAgent {
    node: String,
    config: MintConfig,
    span_parser: SpanParser,
    trace_parser: TraceParser,
    topo_library: TopoPatternLibrary,
    params_buffer: ParamsBuffer,
    symptom: SymptomSampler,
    edge_case: EdgeCaseSampler,
    stats: AgentStats,
    bloom_amortized_bytes: u64,
    /// The spans of the sub-trace being ingested as the topology encoder
    /// reads them, by position (reused across sub-traces).
    parsed: Vec<ParsedSpan>,
}

impl MintAgent {
    /// Creates an agent for `node` with the given configuration.
    pub fn new(node: impl Into<String>, config: MintConfig) -> Self {
        // Amortized metadata-mounting cost: one full Bloom filter upload is
        // shared by `capacity` mounted trace ids, so each sub-trace is
        // charged its share (a byte or two) rather than a whole 4 KiB filter
        // at the end of a short run.
        let reference_bloom =
            BloomFilter::with_byte_budget(config.bloom_buffer_bytes, config.bloom_fpp);
        let bloom_amortized_bytes =
            (reference_bloom.serialized_size() as u64).div_ceil(reference_bloom.capacity() as u64);
        MintAgent {
            node: node.into(),
            span_parser: SpanParser::new(&config),
            trace_parser: TraceParser::new(),
            topo_library: TopoPatternLibrary::new(&config),
            params_buffer: ParamsBuffer::new(config.params_buffer_bytes),
            symptom: SymptomSampler::new(&config),
            edge_case: EdgeCaseSampler::new(&config),
            stats: AgentStats::default(),
            bloom_amortized_bytes,
            parsed: Vec::new(),
            config,
        }
    }

    /// The node this agent runs on.
    pub fn node(&self) -> &str {
        &self.node
    }

    /// The agent's configuration.
    pub fn config(&self) -> &MintConfig {
        &self.config
    }

    /// Warms up the span parser from a sample of raw spans (§3.2.1).
    pub fn warm_up(&mut self, spans: &[Span]) {
        let limit = self.config.warmup_sample_size.min(spans.len());
        self.span_parser.warm_up(&spans[..limit]);
    }

    /// Ingests the sub-trace observed on this node for one request.  An owned
    /// convenience over [`Self::ingest_spans`].
    pub fn ingest_sub_trace(&mut self, sub_trace: &SubTrace) -> IngestOutcome {
        self.ingest_spans(sub_trace.trace_id(), sub_trace.spans().iter())
    }

    /// Ingests the spans this node observed for trace `trace_id`, borrowed
    /// from wherever they live (an owned [`SubTrace`], or a
    /// [`SubTraceView`](trace_model::SubTraceView) of the whole trace).
    pub fn ingest_spans<'a>(
        &mut self,
        trace_id: TraceId,
        spans: impl ExactSizeIterator<Item = &'a Span>,
    ) -> IngestOutcome {
        // The spans' parameters are written straight into the Params
        // Buffer's next block, which `commit` below pushes.
        let writer = self.params_buffer.begin_block(trace_id);
        self.parsed.clear();
        let mut span_bytes = 0;
        let mut new_span_patterns = 0;
        let mut symptom_sampled = false;
        for span in spans {
            span_bytes += span.wire_size();
            if self.symptom.observe_span(span) {
                symptom_sampled = true;
            }
            let (pattern_id, is_new) = self.span_parser.parse_into(span, writer);
            if is_new {
                new_span_patterns += 1;
            }
            self.parsed.push(ParsedSpan {
                span_id: span.span_id(),
                parent_id: span.parent_id(),
                pattern: pattern_id,
            });
        }
        self.stats.sub_traces += 1;
        self.stats.spans_parsed += self.parsed.len() as u64;
        // The sub-trace's wire size: envelope, node name, spans.
        self.stats.raw_bytes += (16 + 2 + self.node.len() + span_bytes) as u64;

        let topology = self.trace_parser.encode_parsed(&self.parsed);
        let outcome = self.topo_library.observe_key(&topology, trace_id);
        let edge_case_sampled = self
            .edge_case
            .observe(outcome.match_count, self.topo_library.total_matches());

        let evicted_before = self.params_buffer.evicted_blocks();
        self.params_buffer.commit();
        self.stats.evicted_blocks += self.params_buffer.evicted_blocks() - evicted_before;

        IngestOutcome {
            trace_id,
            topo_id: outcome.topo_id,
            new_topo_pattern: outcome.is_new_pattern,
            new_span_patterns,
            flushed_bloom: outcome.flushed_bloom,
            symptom_sampled,
            edge_case_sampled,
            topo_match_count: outcome.match_count,
            bloom_mounting_bytes: self.bloom_amortized_bytes,
            span_bytes: span_bytes as u64,
        }
    }

    /// Removes and returns the buffered parameters of `trace_id`, if they are
    /// still in the Params Buffer (used when a trace is marked sampled).
    pub fn take_params(&mut self, trace_id: TraceId) -> Option<ParamBlock> {
        self.params_buffer.take(trace_id)
    }

    /// A read-only snapshot of the span-level pattern catalog for upload.
    pub fn catalog(&self) -> PatternCatalog {
        self.span_parser.catalog()
    }

    /// The topology pattern library.
    pub fn topo_library(&self) -> &TopoPatternLibrary {
        &self.topo_library
    }

    /// Mutable access to the topology library (used by the collector to
    /// drain partial Bloom filters at the end of a reporting period).
    pub fn topo_library_mut(&mut self) -> &mut TopoPatternLibrary {
        &mut self.topo_library
    }

    /// The span parser (for pattern statistics).
    pub fn span_parser(&self) -> &SpanParser {
        &self.span_parser
    }

    /// Mutable access to the span parser, for tests that rewrite a template
    /// in place.
    #[cfg(test)]
    pub(crate) fn span_parser_mut(&mut self) -> &mut SpanParser {
        &mut self.span_parser
    }

    /// The Params Buffer.
    pub fn params_buffer(&self) -> &ParamsBuffer {
        &self.params_buffer
    }

    /// Counters describing the work done so far.
    pub fn stats(&self) -> AgentStats {
        self.stats
    }

    /// Bytes of one full pattern-library upload from this agent: span
    /// patterns, attribute templates and topology patterns.
    pub fn library_upload_bytes(&self) -> usize {
        self.span_parser.library_size_bytes() + self.topo_library.stored_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::{online_boutique, GeneratorConfig, TraceGenerator};

    fn agent() -> MintAgent {
        MintAgent::new("frontend", MintConfig::default())
    }

    fn sub_traces_for(n: usize, service: &str) -> Vec<SubTrace> {
        let mut generator = TraceGenerator::new(
            online_boutique(),
            GeneratorConfig::default()
                .with_seed(3)
                .with_abnormal_rate(0.0),
        );
        generator
            .generate(n)
            .iter()
            .flat_map(SubTrace::split_by_service)
            .filter(|s| s.node() == service)
            .collect()
    }

    #[test]
    fn ingesting_similar_sub_traces_converges_patterns() {
        let mut agent = agent();
        let subs = sub_traces_for(100, "frontend");
        assert!(!subs.is_empty());
        for sub in &subs {
            agent.ingest_sub_trace(sub);
        }
        let stats = agent.stats();
        assert_eq!(stats.sub_traces, subs.len() as u64);
        assert!(stats.spans_parsed > 0);
        // Hundreds of sub-traces collapse to a small number of patterns.
        assert!(
            agent.topo_library().len() <= 20,
            "topo {}",
            agent.topo_library().len()
        );
        assert!(agent.span_parser().library().len() <= 60);
    }

    #[test]
    fn params_are_buffered_and_retrievable() {
        let mut agent = agent();
        let subs = sub_traces_for(5, "frontend");
        let outcome = agent.ingest_sub_trace(&subs[0]);
        assert!(agent.params_buffer().contains(outcome.trace_id));
        let params = agent.take_params(outcome.trace_id).unwrap();
        assert_eq!(params.trace_id(), outcome.trace_id);
        assert_eq!(params.len(), subs[0].len());
        assert!(!params.is_empty());
        assert!(agent.take_params(outcome.trace_id).is_none());
    }

    #[test]
    fn warm_up_limits_to_configured_sample() {
        let config = MintConfig::default().with_warmup_sample_size(10);
        let mut agent = MintAgent::new("frontend", config);
        let spans: Vec<Span> = sub_traces_for(20, "frontend")
            .iter()
            .flat_map(|s| s.spans().to_vec())
            .collect();
        agent.warm_up(&spans);
        assert!(agent.span_parser().attribute_pattern_count() > 0);
    }

    #[test]
    fn first_sub_trace_creates_new_patterns() {
        let mut agent = agent();
        let subs = sub_traces_for(2, "frontend");
        let first = agent.ingest_sub_trace(&subs[0]);
        assert!(first.new_topo_pattern);
        assert!(first.new_span_patterns > 0);
        assert_eq!(first.topo_match_count, 1);
        // A brand-new pattern is not an "edge case" yet: it is 100% of the
        // traffic seen so far, so the frequency guard keeps it unsampled.
        assert!(!first.edge_case_sampled);
        assert!(first.bloom_mounting_bytes > 0);
    }

    #[test]
    fn library_upload_bytes_is_much_smaller_than_raw() {
        let mut agent = agent();
        let subs = sub_traces_for(200, "frontend");
        for sub in &subs {
            agent.ingest_sub_trace(sub);
        }
        let raw: usize = subs.iter().map(|s| s.wire_size()).sum();
        assert!(
            agent.library_upload_bytes() * 5 < raw,
            "library {} raw {raw}",
            agent.library_upload_bytes()
        );
    }

    #[test]
    fn node_and_config_accessors() {
        let agent = agent();
        assert_eq!(agent.node(), "frontend");
        assert_eq!(agent.config().similarity_threshold, 0.8);
    }
}
