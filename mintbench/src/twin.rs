//! The twin pipeline of the traced run.
//!
//! `MintDeployment::process` and `MintAgent::ingest_sub_trace` are opaque
//! from outside, so the traced run assembles the same pipeline from the same
//! public pieces and records a span around each call into a layer.  The twin
//! is only trusted because its [`DeploymentReport`] is asserted equal to the
//! real deployment's over the same corpus.

use crate::tracer::Tracer;
use mint_bloom::BloomFilter;
use mint_core::{
    DeploymentReport, EdgeCaseSampler, MintBackend, MintCollector, MintConfig, ParamsBuffer,
    SamplingMode, SpanParser, SymptomSampler, TopoPattern, TopoPatternLibrary, TraceParams,
    TraceParser,
};
use std::collections::HashMap;
use std::hint::black_box;
use trace_model::{PatternId, Span, SpanId, SubTrace, Trace, TraceSet, WireSize};

/// The low 64 bits of a trace id: the request id of its spans.
fn request_of(trace: &Trace) -> u64 {
    trace.trace_id().as_u128() as u64
}

/// What the twin of `MintAgent::ingest_sub_trace` hands its collector.
struct Outcome {
    topo_id: PatternId,
    flushed_bloom: Option<BloomFilter>,
    sampled: bool,
}

/// The twin of `MintAgent`, built from the agent's public parts.
pub struct TwinAgent {
    pub span_parser: SpanParser,
    trace_parser: TraceParser,
    pub topo_library: TopoPatternLibrary,
    pub params_buffer: ParamsBuffer,
    pub symptom: SymptomSampler,
    pub edge_case: EdgeCaseSampler,
    bloom_amortized_bytes: u64,
    warmup_sample_size: usize,
    /// Parameter blocks pushed into the buffer.
    pub pushed_blocks: u64,
    /// Spans whose `parse` call reached the similarity fallback.
    pub fallback_spans: u64,
    /// Spans whose `parse` call created a span pattern.
    pub new_pattern_spans: u64,
}

impl TwinAgent {
    fn new(config: &MintConfig) -> Self {
        let reference = BloomFilter::with_byte_budget(config.bloom_buffer_bytes, config.bloom_fpp);
        TwinAgent {
            span_parser: SpanParser::new(config),
            trace_parser: TraceParser::new(),
            topo_library: TopoPatternLibrary::new(config),
            params_buffer: ParamsBuffer::new(config.params_buffer_bytes),
            symptom: SymptomSampler::new(config),
            edge_case: EdgeCaseSampler::new(config),
            bloom_amortized_bytes: (reference.serialized_size() as u64)
                .div_ceil(reference.capacity() as u64),
            warmup_sample_size: config.warmup_sample_size,
            pushed_blocks: 0,
            fallback_spans: 0,
            new_pattern_spans: 0,
        }
    }

    fn warm_up(&mut self, spans: &[Span], tracer: &mut Tracer) {
        let limit = self.warmup_sample_size.min(spans.len());
        tracer.leaf("span_parser.warm_up", 0, || {
            self.span_parser.warm_up(&spans[..limit])
        });
    }

    fn ingest_sub_trace(&mut self, sub: &SubTrace, request: u64, tracer: &mut Tracer) -> Outcome {
        let outer = tracer.enter("agent.ingest_sub_trace", request);
        black_box(tracer.leaf("trace_model.wire_size", request, || sub.wire_size()));

        let mut pattern_of: HashMap<SpanId, PatternId> = HashMap::with_capacity(sub.len());
        let mut block = TraceParams::new(sub.trace_id());
        let mut symptom_sampled = false;
        // Read once per `parse` call (the value after one call is the value
        // before the next), outside every layer's span: the few dozen
        // nanoseconds it takes to walk the attribute parsers land in
        // `agent.self`, which is cheaper than a span record of its own.
        let mut considered = self.span_parser.prefilter_stats().candidates_considered;
        for span in sub.spans() {
            if tracer.leaf("samplers.symptom", request, || {
                self.symptom.observe_span(span)
            }) {
                symptom_sampled = true;
            }
            let (pattern_id, params, is_new) = tracer.leaf("span_parser.parse", request, || {
                self.span_parser.parse(span)
            });
            let after = self.span_parser.prefilter_stats().candidates_considered;
            self.fallback_spans += u64::from(after > considered);
            considered = after;
            self.new_pattern_spans += u64::from(is_new);
            pattern_of.insert(span.span_id(), pattern_id);
            block.spans.push(params);
        }

        let topo_pattern = tracer.leaf("trace_parser.encode", request, || {
            self.trace_parser.encode(sub, &pattern_of)
        });
        let observed = tracer.leaf("trace_parser.observe", request, || {
            self.topo_library.observe(topo_pattern, sub.trace_id())
        });
        let edge_case_sampled = tracer.leaf("samplers.edge_case", request, || {
            self.edge_case
                .observe(observed.match_count, self.topo_library.total_matches())
        });
        tracer.leaf("params.push", request, || self.params_buffer.push(block));
        self.pushed_blocks += 1;
        tracer.exit(outer);

        Outcome {
            topo_id: observed.topo_id,
            flushed_bloom: observed.flushed_bloom,
            sampled: symptom_sampled || edge_case_sampled,
        }
    }

    fn library_upload_bytes(&self) -> usize {
        self.span_parser.library_size_bytes() + self.topo_library.stored_size()
    }
}

/// The twin of `MintDeployment`.
pub struct TwinDeployment {
    config: MintConfig,
    pub agents: HashMap<String, TwinAgent>,
    collector: MintCollector,
    pub backend: MintBackend,
    traces: u64,
    spans: u64,
    sampled_traces: u64,
    raw_trace_bytes: u64,
    duration_s: u64,
}

impl TwinDeployment {
    /// A twin of `MintDeployment::new(config)`.
    ///
    /// # Panics
    ///
    /// Panics on a sampling mode no workload uses.
    pub fn new(config: MintConfig) -> Self {
        assert!(
            matches!(
                config.sampling_mode,
                SamplingMode::MintBiased | SamplingMode::All | SamplingMode::AbnormalTag
            ),
            "the twin covers the sampling modes the workloads fix"
        );
        TwinDeployment {
            config,
            agents: HashMap::new(),
            collector: MintCollector::new(),
            backend: MintBackend::new(),
            traces: 0,
            spans: 0,
            sampled_traces: 0,
            raw_trace_bytes: 0,
            duration_s: 0,
        }
    }

    /// The twin of `MintDeployment::warm_up`.
    pub fn warm_up(&mut self, traces: &TraceSet, tracer: &mut Tracer) {
        let outer = tracer.enter("collector.warm_up", 0);
        let mut per_service: HashMap<String, Vec<Span>> = HashMap::new();
        for span in traces.iter().flat_map(Trace::spans) {
            let bucket = per_service.entry(span.service().to_owned()).or_default();
            if bucket.len() < self.config.warmup_sample_size {
                bucket.push(span.clone());
            }
        }
        for (service, spans) in per_service {
            self.agents
                .entry(service)
                .or_insert_with(|| TwinAgent::new(&self.config))
                .warm_up(&spans, tracer);
        }
        tracer.exit(outer);
    }

    /// The twin of `MintDeployment::process` on a warmed deployment.
    pub fn process(&mut self, traces: &TraceSet, tracer: &mut Tracer) -> DeploymentReport {
        let (mut min_start, mut max_end) = (u64::MAX, 0u64);
        for trace in traces {
            let request = request_of(trace);
            let outer = tracer.enter("collector.ingest_trace", request);
            for span in trace.spans() {
                min_start = min_start.min(span.start_time_us());
                max_end = max_end.max(span.end_time_us());
            }
            self.ingest_trace(trace, request, tracer);
            tracer.exit(outer);
        }
        tracer.leaf("collector.flush", 0, || self.flush(min_start, max_end));
        self.report()
    }

    fn ingest_trace(&mut self, trace: &Trace, request: u64, tracer: &mut Tracer) {
        self.traces += 1;
        self.spans += trace.len() as u64;
        self.raw_trace_bytes +=
            tracer.leaf("trace_model.wire_size", request, || trace.wire_size()) as u64;

        let mut sampled = match self.config.sampling_mode {
            SamplingMode::All => true,
            SamplingMode::AbnormalTag => {
                trace
                    .root()
                    .and_then(|root| root.attributes().get("is_abnormal"))
                    .and_then(|tag| tag.as_bool())
                    .unwrap_or(false)
                    || trace.has_error()
            }
            _ => false,
        };
        let sub_traces = tracer.leaf("trace_model.split", request, || {
            SubTrace::split_by_service(trace)
        });
        let mut touched: Vec<String> = Vec::with_capacity(sub_traces.len());
        for sub in &sub_traces {
            let node = sub.node().to_owned();
            let agent = self
                .agents
                .entry(node.clone())
                .or_insert_with(|| TwinAgent::new(&self.config));
            let outcome = agent.ingest_sub_trace(sub, request, tracer);
            sampled |= outcome.sampled && self.config.sampling_mode == SamplingMode::MintBiased;
            self.collector
                .record_bloom_bytes(agent.bloom_amortized_bytes);
            self.backend.charge_bloom_bytes(agent.bloom_amortized_bytes);
            if let Some(bloom) = outcome.flushed_bloom {
                self.collector.record_bloom_upload(&bloom);
                tracer.leaf("backend.store_bloom", request, || {
                    self.backend
                        .store_bloom(node.clone(), outcome.topo_id, bloom)
                });
            }
            touched.push(node);
        }

        if sampled {
            self.sampled_traces += 1;
            self.collector.record_other(32 * touched.len());
            for node in &touched {
                let Some(agent) = self.agents.get_mut(node) else {
                    continue;
                };
                let taken = tracer.leaf("params.take", request, || {
                    agent.params_buffer.take(trace.trace_id())
                });
                if let Some(params) = taken {
                    tracer.leaf("collector.record_params", request, || {
                        self.collector.record_params_upload(&params)
                    });
                    tracer.leaf("backend.store_params", request, || {
                        self.backend.store_params(node.clone(), params)
                    });
                }
            }
        }
    }

    /// The end-of-batch accounting of `MintDeployment::process`.
    fn flush(&mut self, min_start_us: u64, max_end_us: u64) {
        let batch_duration_s = if max_end_us > min_start_us {
            ((max_end_us - min_start_us) / 1_000_000).max(1)
        } else {
            1
        };
        self.duration_s += batch_duration_s;
        let intervals = (batch_duration_s / self.config.pattern_report_interval_s.max(1)).max(1);
        for (node, agent) in &mut self.agents {
            self.collector
                .record_pattern_upload(agent.library_upload_bytes() * intervals as usize);
            self.backend
                .store_catalog(node.clone(), agent.span_parser.catalog());
            let patterns: Vec<TopoPattern> = agent
                .topo_library
                .iter()
                .map(|(_, pattern, _)| pattern.clone())
                .collect();
            self.backend.store_topo_patterns(node.clone(), patterns);
            for (topo_id, bloom) in agent.topo_library.drain_partial_blooms() {
                self.collector.record_bloom_upload(&bloom);
                self.backend.store_bloom(node.clone(), topo_id, bloom);
            }
        }
    }

    /// The twin of `MintDeployment::report`.
    pub fn report(&self) -> DeploymentReport {
        DeploymentReport {
            network: self.collector.network(),
            storage: self.backend.storage(),
            traces: self.traces,
            spans: self.spans,
            sampled_traces: self.sampled_traces,
            raw_trace_bytes: self.raw_trace_bytes,
            span_patterns: self
                .agents
                .values()
                .map(|a| a.span_parser.library().len() as u64)
                .sum(),
            topo_patterns: self
                .agents
                .values()
                .map(|a| a.topo_library.len() as u64)
                .sum(),
            duration_s: self.duration_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{generate, Sizes, Workload};
    use mint_core::MintDeployment;

    #[test]
    fn the_twin_reports_what_the_real_deployment_reports() {
        let _turn = crate::alloc::serial();
        for workload in [
            Workload::ProdSerial,
            Workload::IncidentSerial,
            Workload::DriftSerial,
        ] {
            let corpus = generate(workload, 9, Sizes::SMOKE);
            let mut real = MintDeployment::new(corpus.config.clone());
            real.warm_up(&corpus.traces);
            let expected = real.process(&corpus.traces);

            let mut tracer = Tracer::with_capacity(1 << 16);
            let mut twin = TwinDeployment::new(corpus.config.clone());
            twin.warm_up(&corpus.traces, &mut tracer);
            let report = twin.process(&corpus.traces, &mut tracer);
            assert_eq!(report, expected, "{}", workload.name());
            for trace in &corpus.traces {
                assert_eq!(
                    twin.backend.query(trace.trace_id()).is_exact(),
                    real.backend().query(trace.trace_id()).is_exact()
                );
            }
        }
    }
}
