//! The Mint collector and a whole-deployment driver.
//!
//! The collector (§4.2) decides what leaves the node: it periodically uploads
//! the pattern libraries, flushes full Bloom filters immediately, and — when
//! a trace is marked as sampled — asks every agent to report that trace's
//! parameters so the backend can reconstruct the exact trace.
//!
//! [`MintDeployment`] wires one agent per service node, the collector and a
//! backend together and exposes a single [`MintDeployment::process`] call
//! that the experiment harness drives with generated workloads.

use crate::agent::MintAgent;
use crate::backend::MintBackend;
use crate::config::{MintConfig, SamplingMode};
use crate::cost::{NetworkCost, StorageCost};
use crate::samplers::HeadSampler;
use crate::trace_parser::TopoPattern;
use mint_bloom::BloomFilter;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use trace_model::{ServiceGroups, Trace, TraceSet, WireSize};

/// Network-side accounting of everything the collector ships to the backend.
#[derive(Debug, Clone, Default)]
pub struct MintCollector {
    network: NetworkCost,
    uploaded_blooms: u64,
    uploaded_param_blocks: u64,
    pattern_uploads: u64,
}

impl MintCollector {
    /// Creates a collector.
    pub fn new() -> Self {
        MintCollector::default()
    }

    /// Records the amortized metadata-mounting cost of one sub-trace (its
    /// share of the Bloom filter that will eventually carry it).
    pub fn record_bloom_bytes(&mut self, bytes: u64) {
        self.network.bloom_bytes += bytes;
    }

    /// Records the upload of a flushed Bloom filter.  The bytes themselves
    /// have already been charged per mounted trace id, so only the upload
    /// count is tracked here.
    pub fn record_bloom_upload(&mut self, _bloom: &BloomFilter) {
        self.uploaded_blooms += 1;
    }

    /// Records the upload of one trace's parameter block: a
    /// [`ParamBlock`](crate::ParamBlock), charged the figure in its header,
    /// or a decoded [`TraceParams`](crate::TraceParams), sized by walking it.
    pub fn record_params_upload(&mut self, params: &impl WireSize) {
        self.network.params_bytes += params.wire_size() as u64;
        self.uploaded_param_blocks += 1;
    }

    /// Records one periodic pattern-library upload of `bytes` bytes.
    pub fn record_pattern_upload(&mut self, bytes: usize) {
        self.network.pattern_bytes += bytes as u64;
        self.pattern_uploads += 1;
    }

    /// Records miscellaneous control traffic.
    pub fn record_other(&mut self, bytes: usize) {
        self.network.other_bytes += bytes as u64;
    }

    /// Folds pre-summed parameter-upload traffic into the accounting.  Used
    /// when rebuilding a merged collector from per-shard collectors, whose
    /// cumulative totals are partition-invariant.
    pub(crate) fn record_params_raw(&mut self, bytes: u64, blocks: u64) {
        self.network.params_bytes += bytes;
        self.uploaded_param_blocks += blocks;
    }

    /// Folds a pre-summed Bloom-upload count into the accounting (the bytes
    /// are charged per mounted trace id, not per filter).
    pub(crate) fn record_bloom_upload_count(&mut self, uploads: u64) {
        self.uploaded_blooms += uploads;
    }

    /// Total network cost so far.
    pub fn network(&self) -> NetworkCost {
        self.network
    }

    /// Number of Bloom filters uploaded.
    pub fn uploaded_blooms(&self) -> u64 {
        self.uploaded_blooms
    }

    /// Number of parameter blocks uploaded.
    pub fn uploaded_param_blocks(&self) -> u64 {
        self.uploaded_param_blocks
    }
}

/// Summary of one (or several accumulated) [`MintDeployment::process`] calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct DeploymentReport {
    /// Bytes shipped from agents to the backend, by category.
    pub network: NetworkCost,
    /// Bytes persisted at the backend, by category.
    pub storage: StorageCost,
    /// Traces processed.
    pub traces: u64,
    /// Spans processed.
    pub spans: u64,
    /// Traces whose parameters were fully retained.
    pub sampled_traces: u64,
    /// Raw (uncompressed, unsampled) wire size of the processed traces.
    pub raw_trace_bytes: u64,
    /// Span patterns across all agents.
    pub span_patterns: u64,
    /// Topology patterns across all agents.
    pub topo_patterns: u64,
    /// Simulated duration of the processed workload, in seconds.
    pub duration_s: u64,
}

impl DeploymentReport {
    /// Network overhead relative to raw trace volume.
    pub fn network_ratio(&self) -> f64 {
        if self.raw_trace_bytes == 0 {
            0.0
        } else {
            self.network.total_bytes() as f64 / self.raw_trace_bytes as f64
        }
    }

    /// Storage overhead relative to raw trace volume.
    pub fn storage_ratio(&self) -> f64 {
        if self.raw_trace_bytes == 0 {
            0.0
        } else {
            self.storage.total_bytes() as f64 / self.raw_trace_bytes as f64
        }
    }

    /// Fraction of traces whose parameters were retained.
    pub fn sampling_rate(&self) -> f64 {
        if self.traces == 0 {
            0.0
        } else {
            self.sampled_traces as f64 / self.traces as f64
        }
    }
}

/// Simulated duration of a batch from its span timestamp range.
pub(crate) fn batch_duration_s(min_start_us: u64, max_end_us: u64) -> u64 {
    if max_end_us > min_start_us {
        ((max_end_us - min_start_us) / 1_000_000).max(1)
    } else {
        1
    }
}

/// The first sight of a service: the one place the ingest path owns a node
/// name.
fn add_agent<'a>(
    agents: &'a mut HashMap<String, MintAgent>,
    node: &str,
    config: &MintConfig,
) -> &'a mut MintAgent {
    agents
        .entry(node.to_owned())
        .or_insert_with(|| MintAgent::new(node, config.clone()))
}

/// A full Mint deployment: one agent per service node, a collector and a
/// backend.
#[derive(Debug, Clone)]
pub struct MintDeployment {
    config: MintConfig,
    pub(crate) agents: HashMap<String, MintAgent>,
    pub(crate) collector: MintCollector,
    pub(crate) backend: MintBackend,
    head_sampler: HeadSampler,
    pub(crate) traces_processed: u64,
    pub(crate) spans_processed: u64,
    pub(crate) sampled_traces: u64,
    pub(crate) raw_trace_bytes: u64,
    duration_s: u64,
    pub(crate) warmed_up: bool,
    /// Scratch for splitting each trace by service without cloning its spans.
    groups: ServiceGroups,
}

impl MintDeployment {
    /// Creates a deployment with the given configuration.
    pub fn new(config: MintConfig) -> Self {
        let head_sampler = HeadSampler::new(config.head_sampling_rate);
        MintDeployment {
            config,
            agents: HashMap::new(),
            collector: MintCollector::new(),
            backend: MintBackend::new(),
            head_sampler,
            traces_processed: 0,
            spans_processed: 0,
            sampled_traces: 0,
            raw_trace_bytes: 0,
            duration_s: 0,
            warmed_up: false,
            groups: ServiceGroups::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &MintConfig {
        &self.config
    }

    /// The backend (for queries).
    pub fn backend(&self) -> &MintBackend {
        &self.backend
    }

    /// The collector (for network accounting).
    pub fn collector(&self) -> &MintCollector {
        &self.collector
    }

    /// The agent running on `node`, if one has been created.
    pub fn agent(&self, node: &str) -> Option<&MintAgent> {
        self.agents.get(node)
    }

    /// Iterates over all agents.
    pub fn agents(&self) -> impl Iterator<Item = &MintAgent> {
        self.agents.values()
    }

    /// Processes a batch of traces end to end and returns the cumulative
    /// report.  May be called repeatedly; counters accumulate.
    pub fn process(&mut self, traces: &TraceSet) -> DeploymentReport {
        // An empty batch must not lock in an empty warm-up sample.
        if !self.warmed_up && !traces.is_empty() {
            self.warm_up(traces);
        }

        let (mut min_start, mut max_end) = (u64::MAX, 0u64);
        for trace in traces {
            for span in trace.spans() {
                min_start = min_start.min(span.start_time_us());
                max_end = max_end.max(span.end_time_us());
            }
            self.ingest_trace(trace);
        }

        // A zero-trace batch has no simulated duration and uploads nothing:
        // skip the duration and periodic-upload accounting instead of
        // clamping the empty `(u64::MAX, 0)` span window to a phantom 1 s
        // batch that re-charges a full pattern-library upload.
        if traces.is_empty() {
            return self.report();
        }

        let batch_duration_s = batch_duration_s(min_start, max_end);
        self.duration_s += batch_duration_s;

        // Periodic pattern-library uploads over the simulated duration of
        // this batch, plus the final upload that persists at the backend.
        let intervals = (batch_duration_s / self.config.pattern_report_interval_s.max(1)).max(1);
        // Every agent also drains its partially filled Bloom filters, so
        // every trace's metadata reaches the backend by the end of the
        // reporting period.
        for (node, agent) in &mut self.agents {
            let library_bytes = agent.library_upload_bytes();
            self.collector
                .record_pattern_upload(library_bytes * intervals as usize);
            self.backend.store_catalog(node.clone(), agent.catalog());
            let patterns: Vec<TopoPattern> = agent
                .topo_library()
                .iter()
                .map(|(_, p, _)| p.clone())
                .collect();
            self.backend.store_topo_patterns(node.clone(), patterns);
            for (topo_id, bloom) in agent.topo_library_mut().drain_partial_blooms() {
                self.collector.record_bloom_upload(&bloom);
                self.backend.store_bloom(node.clone(), topo_id, bloom);
            }
        }

        self.report()
    }

    /// The cumulative report.
    pub fn report(&self) -> DeploymentReport {
        DeploymentReport {
            network: self.collector.network(),
            storage: self.backend.storage(),
            traces: self.traces_processed,
            spans: self.spans_processed,
            sampled_traces: self.sampled_traces,
            raw_trace_bytes: self.raw_trace_bytes,
            span_patterns: self
                .agents
                .values()
                .map(|a| a.span_parser().library().len() as u64)
                .sum(),
            topo_patterns: self
                .agents
                .values()
                .map(|a| a.topo_library().len() as u64)
                .sum(),
            duration_s: self.duration_s,
        }
    }

    /// Warms up the per-service span parsers from `traces` (§3.2.1).
    ///
    /// [`MintDeployment::process`] calls this automatically before the first
    /// batch.  It is public so a [`StreamingDeployment`](crate::StreamingDeployment)
    /// can warm one deployment on the *full* batch and clone the resulting
    /// agents into every shard — the exact warm-up a serial deployment
    /// performs, which is what makes the streaming pipeline equivalent to the
    /// serial one.
    pub fn warm_up(&mut self, traces: &TraceSet) {
        self.warmed_up = true;
        let mut per_service: HashMap<String, Vec<trace_model::Span>> = HashMap::new();
        for trace in traces {
            for span in trace.spans() {
                let bucket = per_service.entry(span.service().to_owned()).or_default();
                if bucket.len() < self.config.warmup_sample_size {
                    bucket.push(span.clone());
                }
            }
        }
        for (service, spans) in per_service {
            let agent = self
                .agents
                .entry(service.clone())
                .or_insert_with(|| MintAgent::new(service, self.config.clone()));
            agent.warm_up(&spans);
        }
    }

    /// Ingests a single trace: updates the workload counters and runs the
    /// full agent → collector → backend path for it.  Unlike
    /// [`MintDeployment::process`] this performs no warm-up and no end-of-batch
    /// flush; streaming shard workers drive it directly.
    ///
    /// The trace is split by service as a borrowed view (span indices in
    /// `groups`), in the lexicographic service order of
    /// [`SubTrace::split_by_service`](trace_model::SubTrace::split_by_service),
    /// so nothing of it is cloned and each span is sized exactly once, by the
    /// agent that parses it.
    pub fn ingest_trace(&mut self, trace: &Trace) {
        let trace_id = trace.trace_id();
        let mut sampled = match self.config.sampling_mode {
            SamplingMode::All => true,
            SamplingMode::None => false,
            SamplingMode::Head => self.head_sampler.decide(trace_id),
            SamplingMode::AbnormalTag => {
                trace
                    .root()
                    .and_then(|r| r.attributes().get("is_abnormal"))
                    .and_then(|v| v.as_bool())
                    .unwrap_or(false)
                    || trace.has_error()
            }
            SamplingMode::MintBiased => false,
        };

        // `views` borrows `self.groups` alone; everything below touches the
        // deployment's other fields directly.
        let views = self.groups.split(trace);
        let mut span_bytes = 0;
        let mut touched_nodes = 0;
        // Clones the view iterator (a cursor over `groups`), not a span: the
        // second pass below re-walks the same split.
        for view in views.clone() {
            let node = view.node();
            let agent = match self.agents.get_mut(node) {
                Some(agent) => agent,
                None => add_agent(&mut self.agents, node, &self.config),
            };
            let outcome = agent.ingest_spans(trace_id, view.spans());
            span_bytes += outcome.span_bytes;
            touched_nodes += 1;
            if self.config.sampling_mode == SamplingMode::MintBiased
                && (outcome.symptom_sampled || outcome.edge_case_sampled)
            {
                sampled = true;
            }
            // Metadata mounting is charged at its amortized per-trace rate on
            // both the network and storage side; the filter objects
            // themselves flow to the backend for queryability.
            self.collector
                .record_bloom_bytes(outcome.bloom_mounting_bytes);
            self.backend
                .charge_bloom_bytes(outcome.bloom_mounting_bytes);
            if let Some(bloom) = outcome.flushed_bloom {
                self.collector.record_bloom_upload(&bloom);
                self.backend.store_bloom(node, outcome.topo_id, bloom);
            }
        }
        self.traces_processed += 1;
        self.spans_processed += trace.len() as u64;
        // The trace's wire size: its envelope plus every span.
        self.raw_trace_bytes += 16 + span_bytes;

        if sampled {
            self.sampled_traces += 1;
            // The backend notifies every host to report the parameters of the
            // sampled trace (trace coherence, §4.2); a small control message
            // per touched node is charged as "other" traffic.
            self.collector.record_other(32 * touched_nodes);
            for view in views {
                let node = view.node();
                let params = self
                    .agents
                    .get_mut(node)
                    .and_then(|a| a.take_params(trace_id));
                if let Some(params) = params {
                    self.collector.record_params_upload(&params);
                    self.backend.store_params(node, params);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::{online_boutique, GeneratorConfig, TraceGenerator};

    fn workload(n: usize, abnormal: f64) -> TraceSet {
        TraceGenerator::new(
            online_boutique(),
            GeneratorConfig::default()
                .with_seed(21)
                .with_abnormal_rate(abnormal),
        )
        .generate(n)
    }

    #[test]
    fn deployment_records_every_trace() {
        let traces = workload(300, 0.05);
        let mut mint = MintDeployment::new(MintConfig::default());
        let report = mint.process(&traces);
        assert_eq!(report.traces, 300);
        assert!(report.spans > 1_000);
        for trace in &traces {
            assert!(!mint.backend().query(trace.trace_id()).is_miss());
        }
    }

    #[test]
    fn storage_shrinks_as_the_workload_grows() {
        // At a few hundred traces the fixed costs (4 KiB Bloom filters, the
        // pattern library, edge-case warm-up sampling) dominate; they
        // amortize as the workload grows.  The paper-scale ratios (≈2.7%
        // storage / 4.2% network) are exercised by the integration tests and
        // the Fig. 11 benchmark with much larger workloads.
        let small = {
            let mut mint = MintDeployment::new(MintConfig::default());
            mint.process(&workload(200, 0.05))
        };
        let large = {
            let mut mint = MintDeployment::new(MintConfig::default());
            mint.process(&workload(1_500, 0.05))
        };
        assert_eq!(
            large.raw_trace_bytes,
            workload(1_500, 0.05).total_wire_size() as u64
        );
        assert!(
            large.storage_ratio() < small.storage_ratio(),
            "storage did not amortize: small {} large {}",
            small.storage_ratio(),
            large.storage_ratio()
        );
        assert!(
            large.network_ratio() < small.network_ratio() * 1.5,
            "network did not amortize: small {} large {}",
            small.network_ratio(),
            large.network_ratio()
        );
        assert!(
            large.storage_ratio() < 0.6,
            "storage ratio {}",
            large.storage_ratio()
        );
    }

    #[test]
    fn biased_sampling_selects_abnormal_traces() {
        let traces = workload(400, 0.08);
        let mut mint = MintDeployment::new(MintConfig::default());
        let report = mint.process(&traces);
        assert!(report.sampled_traces > 0);
        assert!(
            report.sampling_rate() < 0.8,
            "rate {}",
            report.sampling_rate()
        );
        // Abnormal traces should be retained exactly.
        let abnormal: Vec<_> = traces
            .iter()
            .filter(|t| t.has_error())
            .map(|t| t.trace_id())
            .collect();
        if !abnormal.is_empty() {
            let exact = abnormal
                .iter()
                .filter(|id| mint.backend().query(**id).is_exact())
                .count();
            assert!(
                exact * 2 >= abnormal.len(),
                "only {exact}/{} abnormal traces exact",
                abnormal.len()
            );
        }
    }

    #[test]
    fn sampling_mode_none_uploads_no_params() {
        let traces = workload(100, 0.1);
        let config = MintConfig::default().with_sampling_mode(SamplingMode::None);
        let mut mint = MintDeployment::new(config);
        let report = mint.process(&traces);
        assert_eq!(report.sampled_traces, 0);
        assert_eq!(report.network.params_bytes, 0);
    }

    #[test]
    fn sampling_mode_all_uploads_every_trace() {
        let traces = workload(80, 0.0);
        let config = MintConfig::default().with_sampling_mode(SamplingMode::All);
        let mut mint = MintDeployment::new(config);
        let report = mint.process(&traces);
        assert_eq!(report.sampled_traces, 80);
        assert!(report.network.params_bytes > 0);
        assert!(mint
            .backend()
            .query(traces.traces()[5].trace_id())
            .is_exact());
    }

    #[test]
    fn head_mode_samples_at_configured_rate() {
        let traces = workload(600, 0.0);
        let mut config = MintConfig::default().with_sampling_mode(SamplingMode::Head);
        config.head_sampling_rate = 0.1;
        let mut mint = MintDeployment::new(config);
        let report = mint.process(&traces);
        let rate = report.sampling_rate();
        assert!((0.05..0.16).contains(&rate), "rate {rate}");
    }

    #[test]
    fn pattern_counts_converge() {
        let traces = workload(500, 0.02);
        let mut mint = MintDeployment::new(MintConfig::default());
        let report = mint.process(&traces);
        // 500 traces over 8 APIs collapse into a few hundred span patterns
        // and a few dozen topology patterns at most.
        assert!(
            report.span_patterns < 400,
            "span patterns {}",
            report.span_patterns
        );
        assert!(
            report.topo_patterns < 120,
            "topo patterns {}",
            report.topo_patterns
        );
        assert!(report.duration_s >= 1);
    }

    #[test]
    fn empty_batch_charges_no_duration_or_network() {
        // Regression: an empty batch used to clamp the empty span window to
        // a 1 s batch and re-charge a full per-batch pattern upload.
        let traces = workload(60, 0.05);
        let mut mint = MintDeployment::new(MintConfig::default());
        let before = mint.process(&traces);
        let after = mint.process(&TraceSet::default());
        assert_eq!(after, before, "empty batch changed the report");
    }

    #[test]
    fn empty_batch_does_not_lock_in_an_empty_warm_up() {
        let traces = workload(60, 0.05);
        let mut mint = MintDeployment::new(MintConfig::default());
        assert_eq!(mint.process(&TraceSet::default()).traces, 0);
        // The later real batch must warm up normally and stay queryable.
        let report = mint.process(&traces);
        assert_eq!(report.traces, 60);
        for trace in &traces {
            assert!(!mint.backend().query(trace.trace_id()).is_miss());
        }
    }

    #[test]
    fn repeated_process_accumulates() {
        let traces = workload(50, 0.05);
        let mut mint = MintDeployment::new(MintConfig::default());
        mint.process(&traces);
        let report = mint.process(&traces);
        assert_eq!(report.traces, 100);
        assert!(mint.agents().count() >= 5);
        assert!(mint.agent("frontend").is_some());
        assert!(mint.collector().uploaded_blooms() > 0);
    }
}
