//! Incremental, content-addressed merging of per-shard Mint state into one
//! canonical queryable backend — the machinery shared by
//! [`ShardedDeployment`](crate::ShardedDeployment) (batch) and
//! [`StreamingDeployment`](crate::StreamingDeployment) (epoch-based).
//!
//! # Why incremental
//!
//! Shard-local pattern ids are first-seen indices, so identical patterns get
//! different ids on different shards and every merge must intern patterns by
//! *content*.  The original batch merge rebuilt the canonical state from the
//! cumulative shard histories on every call — O(total state), which caps the
//! sharded speedup once merges outnumber ingested bytes and makes per-epoch
//! reconciliation unaffordable for a streaming driver.
//!
//! [`IncrementalMerger`] instead carries **persistent per-node intern
//! tables** (string-template content → canonical index, span-pattern content
//! → canonical id, topology-pattern content → canonical id) and per-shard
//! **watermarks** across merges.  Shard-local libraries are append-only
//! (template *content* aside, see below), so each merge only interns the
//! entries past the watermark — patterns first seen since the previous merge
//! — and appends only the Bloom filters and parameter blocks uploaded since
//! then.  Per-merge cost is `O(library size + new state)`, independent of
//! how many epochs have been ingested.
//!
//! # The incremental-merge invariant
//!
//! After every [`IncrementalMerger::reconcile`] call, the merged backend is
//! byte-for-byte the backend that a from-scratch content-addressed merge of
//! the cumulative shard states would produce (up to canonical id assignment,
//! which is internal).  Two mechanisms defend the invariant:
//!
//! * **Occurrence-aware template interning** — a parser's template list may
//!   contain identical-content templates, and all shards share the same
//!   warmed prefix, so the k-th occurrence of a content maps to the k-th
//!   canonical occurrence (never collapsing multiplicity a serial parser
//!   would keep).
//! * **Drift detection** — string templates are the one piece of shard state
//!   that can mutate in place (online generalization after warm-up).  Each
//!   merge first compares the interned prefix of every template list against
//!   its snapshot; on any mismatch the merger resets its derived state and
//!   re-interns everything from the cumulative shard histories (the old
//!   batch-merge behaviour).  With a warm-up that covers the workload this
//!   never fires; [`IncrementalMerger::full_rebuilds`] counts it so the
//!   benchmarks can prove it.
//!
//! Partition invariance — interning a library split across arbitrary shard
//! partitions yields the same canonical catalog as interning it whole — is
//! asserted by the property tests at the bottom of this module.

use crate::backend::MintBackend;
use crate::collector::{MintCollector, MintDeployment};
use crate::config::MintConfig;
use crate::snapshot::{QueryHandle, SnapshotPublisher};
use crate::span_parser::{
    AttrPattern, DurationStats, NumericBucketer, PatternCatalog, SpanPatternLibrary, StringTemplate,
};
use crate::trace_parser::TopoPattern;
use std::collections::{BTreeMap, HashMap};
use trace_model::PatternId;

/// What one [`IncrementalMerger::reconcile`] pass actually did — the
/// observable face of the incremental-merge invariant ("each epoch merges
/// only patterns first seen in that epoch").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeStats {
    /// Canonical string templates appended by this merge.
    pub new_templates: usize,
    /// Canonical span patterns appended by this merge.
    pub new_span_patterns: usize,
    /// Canonical topology patterns appended by this merge.
    pub new_topo_patterns: usize,
    /// Flushed (sealed) Bloom filters consumed from shard backends.
    pub new_sealed_blooms: usize,
    /// Parameter blocks consumed from shard backends.
    pub new_params_blocks: usize,
    /// Whether template drift forced a from-scratch rebuild.
    pub full_rebuild: bool,
}

/// Canonical per-node state carried across merges: the persistent intern
/// tables of the incremental merge.
#[derive(Debug, Default)]
struct CanonicalNode {
    /// Canonical templates per attribute key (content-addressed,
    /// occurrence-aware).
    templates: BTreeMap<String, Vec<StringTemplate>>,
    /// Canonical span patterns (content → id via the library's own index).
    /// Duration statistics are refolded from shard statistics at snapshot
    /// time, not maintained here.
    span_lib: SpanPatternLibrary,
    bucketers: HashMap<String, NumericBucketer>,
    duration_bucketer: NumericBucketer,
    scalar_sizes: BTreeMap<String, usize>,
    /// Canonical topology patterns and their content index.
    topo: Vec<TopoPattern>,
    topo_index: HashMap<TopoPattern, PatternId>,
}

impl CanonicalNode {
    fn intern_topo(&mut self, pattern: TopoPattern) -> PatternId {
        if let Some(&id) = self.topo_index.get(&pattern) {
            return id;
        }
        let id = PatternId::from_u128(self.topo.len() as u128 + 1);
        self.topo_index.insert(pattern.clone(), id);
        self.topo.push(pattern);
        id
    }

    /// Bytes of one full pattern-library upload for this node, mirroring
    /// [`MintAgent::library_upload_bytes`](crate::MintAgent::library_upload_bytes):
    /// span patterns + attribute parsers (templates for strings, closed-form
    /// sizes for numeric/boolean) + topology patterns.
    fn library_upload_bytes(&self) -> usize {
        self.span_lib.stored_size()
            + self
                .templates
                .values()
                .flat_map(|ts| ts.iter().map(StringTemplate::stored_size))
                .sum::<usize>()
            + self.scalar_sizes.values().sum::<usize>()
            + self
                .topo
                .iter()
                .map(TopoPattern::stored_size)
                .sum::<usize>()
    }
}

/// Per-attribute-key watermark into one shard's template list: how much of
/// the list has been interned (`remap`) and what it looked like when it was
/// (`snapshot`, for drift detection).
#[derive(Debug, Default)]
struct TemplateMarks {
    snapshot: Vec<StringTemplate>,
    remap: Vec<usize>,
}

/// Watermarks into one shard's per-node state.
#[derive(Debug, Default)]
struct ShardNodeMarks {
    templates: HashMap<String, TemplateMarks>,
    /// Shard-local span pattern id (1-based, dense) → canonical id.
    span_remap: Vec<PatternId>,
    /// Shard-local topology pattern id (1-based, dense) → canonical id.
    topo_remap: Vec<PatternId>,
    /// Sealed Bloom filters already consumed per shard-local topology id.
    sealed_seen: HashMap<PatternId, usize>,
}

/// Watermarks into one shard's state.
#[derive(Debug, Default)]
struct ShardMarks {
    nodes: HashMap<String, ShardNodeMarks>,
    /// Entries of the shard backend's params order log already consumed.
    params_seen: usize,
}

/// The incremental merger: owns the merged backend/collector and the
/// persistent intern state, and reconciles per-shard [`MintDeployment`]
/// states into them.
#[derive(Debug, Default)]
pub(crate) struct IncrementalMerger {
    backend: MintBackend,
    collector: MintCollector,
    nodes: BTreeMap<String, CanonicalNode>,
    marks: Vec<ShardMarks>,
    /// Cumulative periodic pattern-upload traffic, mirroring the serial
    /// collector's per-batch `library_bytes × intervals` charge.  Survives a
    /// drift rebuild: it is network history, not derived state.
    pattern_network_bytes: u64,
    span_patterns: u64,
    topo_patterns: u64,
    full_rebuilds: u64,
    /// Snapshot publication for concurrent readers: every reconcile that
    /// completes while a [`QueryHandle`] is alive publishes the merged
    /// backend as a fresh immutable generation.
    publisher: SnapshotPublisher,
}

impl IncrementalMerger {
    /// Creates an empty merger.
    pub(crate) fn new() -> Self {
        IncrementalMerger::default()
    }

    /// The merged backend (for queries).
    pub(crate) fn backend(&self) -> &MintBackend {
        &self.backend
    }

    /// The merged collector (for network accounting).
    pub(crate) fn collector(&self) -> &MintCollector {
        &self.collector
    }

    /// Canonical span patterns across all nodes.
    pub(crate) fn span_patterns(&self) -> u64 {
        self.span_patterns
    }

    /// Canonical topology patterns across all nodes.
    pub(crate) fn topo_patterns(&self) -> u64 {
        self.topo_patterns
    }

    /// How many times template drift forced a from-scratch rebuild.
    pub(crate) fn full_rebuilds(&self) -> u64 {
        self.full_rebuilds
    }

    /// Publishes the current merged backend as a fresh generation and
    /// returns a cheap cloneable handle for concurrent queries.  Once a
    /// handle is alive, every subsequent [`IncrementalMerger::reconcile`]
    /// republishes at its epoch boundary.
    pub(crate) fn query_handle(&mut self) -> QueryHandle {
        self.publisher.subscribe(&self.backend)
    }

    /// Reconciles the cumulative shard states into the merged
    /// backend/collector, interning only state past the per-shard
    /// watermarks.  Safe to call at every epoch boundary; cost is
    /// `O(library size + state new since the previous call)`.
    pub(crate) fn reconcile(&mut self, shards: &[MintDeployment]) -> MergeStats {
        let mut stats = MergeStats::default();

        // Shard-count changes and in-place template mutation both invalidate
        // the watermarks: drop the derived state and re-intern everything
        // from the cumulative shard histories (same code path, zeroed
        // watermarks).
        if (!self.marks.is_empty() && self.marks.len() != shards.len()) || self.drifted(shards) {
            self.backend = MintBackend::new();
            self.nodes.clear();
            self.marks.clear();
            self.full_rebuilds += 1;
            stats.full_rebuild = true;
        }
        if self.marks.len() < shards.len() {
            self.marks.resize_with(shards.len(), ShardMarks::default);
        }

        // 1. Intern pattern state past the watermarks, shard by shard in
        //    deterministic node order.
        for (shard_index, shard) in shards.iter().enumerate() {
            let mut node_names: Vec<&String> = shard.agents.keys().collect();
            node_names.sort();
            for node in node_names {
                let agent = &shard.agents[node];
                let catalog = agent.catalog();
                let canon = self.nodes.entry(node.clone()).or_default();
                let marks = self.marks[shard_index]
                    .nodes
                    .entry(node.clone())
                    .or_default();

                // String templates, per attribute key.  Interning is
                // occurrence-aware: identical-content templates (warm-up
                // clustering can emit duplicates, and every shard shares the
                // warmed prefix) map k-th occurrence to k-th canonical
                // occurrence, preserving serial multiplicity.
                let mut keys: Vec<&String> = catalog.templates.keys().collect();
                keys.sort();
                for key in keys {
                    let templates = &catalog.templates[key];
                    let canonical = canon.templates.entry(key.clone()).or_default();
                    let tmarks = marks.templates.entry(key.clone()).or_default();
                    for index in tmarks.snapshot.len()..templates.len() {
                        let template = &templates[index];
                        let occurrence =
                            templates[..index].iter().filter(|t| *t == template).count();
                        let before = canonical.len();
                        let canonical_index = intern_template(canonical, template, occurrence);
                        if canonical.len() > before {
                            stats.new_templates += 1;
                        }
                        tmarks.remap.push(canonical_index);
                        tmarks.snapshot.push(template.clone());
                    }
                }

                // Span patterns, with template references rewritten to
                // canonical indices.  Duration statistics are refolded in
                // the snapshot pass below, so they are absorbed empty here.
                for local_index in marks.span_remap.len()..catalog.spans.len() {
                    let local_id = PatternId::from_u128(local_index as u128 + 1);
                    let mut pattern = catalog
                        .spans
                        .get(local_id)
                        // mint-lint: allow(L003) — pattern ids are interned densely from 1; the loop bound is the library length
                        .expect("dense span pattern ids")
                        .clone();
                    for (key, attr) in pattern.attrs.iter_mut() {
                        if let AttrPattern::Template { template_id } = attr {
                            if let Some(tmarks) = marks.templates.get(key) {
                                *template_id = tmarks.remap[*template_id];
                            }
                        }
                    }
                    let before = canon.span_lib.len();
                    let canonical_id = canon.span_lib.absorb(pattern, DurationStats::default());
                    if canon.span_lib.len() > before {
                        stats.new_span_patterns += 1;
                    }
                    marks.span_remap.push(canonical_id);
                }

                // Closed-form parsers are static once created.
                for (key, bucketer) in &catalog.bucketers {
                    canon.bucketers.entry(key.clone()).or_insert(*bucketer);
                }
                canon.duration_bucketer = catalog.duration_bucketer;
                for (key, size) in agent.span_parser().scalar_parser_sizes() {
                    canon.scalar_sizes.entry(key).or_insert(size);
                }

                // Topology patterns, with span references rewritten.
                for local_index in marks.topo_remap.len()..agent.topo_library().len() {
                    let local_id = PatternId::from_u128(local_index as u128 + 1);
                    let pattern = agent
                        .topo_library()
                        .get(local_id)
                        // mint-lint: allow(L003) — pattern ids are interned densely from 1; the loop bound is the library length
                        .expect("dense topo pattern ids");
                    let before = canon.topo.len();
                    let canonical_id = canon.intern_topo(remap_topo(pattern, &marks.span_remap));
                    if canon.topo.len() > before {
                        stats.new_topo_patterns += 1;
                    }
                    marks.topo_remap.push(canonical_id);
                }
            }
        }

        // 2. Append the sealed (flushed-during-ingest) Bloom filters the
        //    shards uploaded since the previous reconcile.
        for (shard_index, shard) in shards.iter().enumerate() {
            for ((node, local_id), blooms) in shard.backend.blooms() {
                let marks = self.marks[shard_index]
                    .nodes
                    .get_mut(node)
                    // mint-lint: allow(L003) — step 1 interned marks for every node before blooms are walked
                    .expect("bloom for a node with no interned agent state");
                let seen = marks.sealed_seen.entry(*local_id).or_insert(0);
                if *seen == blooms.len() {
                    continue;
                }
                let canonical_id = marks.topo_remap[(local_id.as_u128() - 1) as usize];
                for bloom in &blooms[*seen..] {
                    self.backend
                        .store_bloom(node.clone(), canonical_id, bloom.clone());
                    stats.new_sealed_blooms += 1;
                }
                *seen = blooms.len();
            }
        }

        // 3. Republish each shard's still-partial Bloom filters into their
        //    per-shard slots (replace, not append), so every mounted trace id
        //    is queryable without disturbing the shard's own filling state.
        let mut partial_uploads = 0u64;
        for (shard_index, shard) in shards.iter().enumerate() {
            for (node, agent) in &shard.agents {
                let marks = &self.marks[shard_index].nodes[node];
                for (local_id, bloom) in agent.topo_library().partial_blooms() {
                    let canonical_id = marks.topo_remap[(local_id.as_u128() - 1) as usize];
                    self.backend.store_partial_bloom(
                        node.clone(),
                        canonical_id,
                        shard_index,
                        bloom,
                    );
                    partial_uploads += 1;
                }
            }
        }

        // 4. Append the parameter blocks uploaded since the previous
        //    reconcile, in shard upload order, each copied once with its
        //    span pattern references patched to canonical ids in the copy.
        for (shard_index, shard) in shards.iter().enumerate() {
            let log = shard.backend.params_log();
            let seen = self.marks[shard_index].params_seen;
            for (trace_id, block_index) in &log[seen..] {
                let (node, params) = shard
                    .backend
                    .params_block(*trace_id, *block_index)
                    // mint-lint: allow(L003) — the params log only records blocks the backend just stored
                    .expect("params log points at a stored block");
                let remap = self.marks[shard_index].nodes.get(node);
                let remap = remap.map_or(&[][..], |marks| &marks.span_remap);
                let canonical = |local: PatternId| {
                    let index = local.as_u128().checked_sub(1);
                    let canonical = index.and_then(|index| remap.get(index as usize));
                    canonical.copied().unwrap_or(local)
                };
                self.backend
                    .store_params(node, params.with_patterns(canonical));
                stats.new_params_blocks += 1;
            }
            self.marks[shard_index].params_seen = log.len();
        }

        // 5. Re-snapshot the canonical catalogs (replacing the previous
        //    epoch's), refolding duration statistics from the cumulative
        //    per-shard statistics — every span is observed by exactly one
        //    shard, so the fold equals the serial statistic.
        self.span_patterns = 0;
        self.topo_patterns = 0;
        for (node, canon) in &self.nodes {
            let mut span_lib = canon.span_lib.clone();
            span_lib.clear_duration_stats();
            for (shard_index, shard) in shards.iter().enumerate() {
                let Some(agent) = shard.agents.get(node) else {
                    continue;
                };
                let marks = &self.marks[shard_index].nodes[node];
                let library = agent.span_parser().library();
                for (local_id, _) in library.iter() {
                    let local_stats = library.duration_stats(local_id).unwrap_or_default();
                    let canonical = marks.span_remap[(local_id.as_u128() - 1) as usize];
                    span_lib.fold_duration_stats(canonical, &local_stats);
                }
            }
            self.span_patterns += span_lib.len() as u64;
            self.topo_patterns += canon.topo.len() as u64;
            self.backend
                .store_topo_patterns(node.clone(), canon.topo.clone());
            self.backend.store_catalog(
                node.clone(),
                PatternCatalog {
                    spans: span_lib,
                    templates: canon
                        .templates
                        .iter()
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect(),
                    bucketers: canon.bucketers.clone(),
                    duration_bucketer: canon.duration_bucketer,
                },
            );
        }

        // 6. Rebuild the merged collector from partition-invariant sums and
        //    reset the partition-invariant storage charge.  The collector is
        //    a handful of counters; only the backend needs to be incremental.
        let mut collector = MintCollector::new();
        let (mut bloom_network, mut other_network, mut bloom_storage) = (0u64, 0u64, 0u64);
        let (mut params_bytes, mut params_blocks, mut bloom_uploads) = (0u64, 0u64, 0u64);
        for shard in shards {
            let network = shard.collector.network();
            bloom_network += network.bloom_bytes;
            other_network += network.other_bytes;
            params_bytes += network.params_bytes;
            bloom_storage += shard.backend.storage().bloom_bytes;
            params_blocks += shard.collector.uploaded_param_blocks();
            bloom_uploads += shard.collector.uploaded_blooms();
        }
        collector.record_bloom_bytes(bloom_network);
        collector.record_other(other_network as usize);
        collector.record_params_raw(params_bytes, params_blocks);
        collector.record_bloom_upload_count(bloom_uploads + partial_uploads);
        if self.pattern_network_bytes > 0 {
            collector.record_pattern_upload(self.pattern_network_bytes as usize);
        }
        self.collector = collector;
        self.backend.set_bloom_bytes(bloom_storage);

        // 7. Publish the reconciled state as a fresh immutable generation
        //    for concurrent readers (skipped — including the structural
        //    clone — while no QueryHandle is alive).
        self.publisher.publish_if_subscribed(&self.backend);

        stats
    }

    /// Charges the end-of-batch periodic pattern-library uploads: one upload
    /// per node per reporting interval of the batch, at the canonical
    /// library's current size — exactly the serial collector's charge.
    /// Call once per batch / completed stream, after the final
    /// [`IncrementalMerger::reconcile`].
    pub(crate) fn charge_batch(&mut self, config: &MintConfig, batch_duration_s: u64) {
        let intervals = (batch_duration_s / config.pattern_report_interval_s.max(1)).max(1);
        let batch_bytes: u64 = self
            .nodes
            .values()
            .map(|canon| (canon.library_upload_bytes() * intervals as usize) as u64)
            .sum();
        self.pattern_network_bytes += batch_bytes;
        self.collector.record_pattern_upload(batch_bytes as usize);
    }

    /// Whether any shard's template lists mutated under an existing
    /// watermark (online generalization after warm-up).
    fn drifted(&self, shards: &[MintDeployment]) -> bool {
        for (shard_index, marks) in self.marks.iter().enumerate() {
            let Some(shard) = shards.get(shard_index) else {
                return true;
            };
            for (node, node_marks) in &marks.nodes {
                let Some(agent) = shard.agents.get(node) else {
                    return true;
                };
                let catalog = agent.catalog();
                for (key, tmarks) in &node_marks.templates {
                    let Some(templates) = catalog.templates.get(key) else {
                        return true;
                    };
                    if templates.len() < tmarks.snapshot.len()
                        || templates[..tmarks.snapshot.len()] != tmarks.snapshot[..]
                    {
                        return true;
                    }
                }
            }
        }
        false
    }
}

/// Interns `template` into the canonical list, occurrence-aware: returns the
/// index of the `occurrence`-th canonical copy of the content, appending one
/// if fewer exist.
fn intern_template(
    canonical: &mut Vec<StringTemplate>,
    template: &StringTemplate,
    occurrence: usize,
) -> usize {
    let mut seen = 0;
    for (index, existing) in canonical.iter().enumerate() {
        if existing == template {
            if seen == occurrence {
                return index;
            }
            seen += 1;
        }
    }
    canonical.push(template.clone());
    canonical.len() - 1
}

/// Rewrites a topology pattern's span-pattern references through `remap`
/// (shard-local dense id → canonical id), re-normalizing the sorted order.
fn remap_topo(pattern: &TopoPattern, remap: &[PatternId]) -> TopoPattern {
    let canonical = |id: &PatternId| remap[(id.as_u128() - 1) as usize];
    let mut entries: Vec<PatternId> = pattern.entries.iter().map(canonical).collect();
    entries.sort_unstable();
    let mut edges: BTreeMap<PatternId, Vec<PatternId>> = BTreeMap::new();
    for (parent, children) in &pattern.edges {
        edges
            .entry(canonical(parent))
            .or_default()
            .extend(children.iter().map(canonical));
    }
    let edges = edges
        .into_iter()
        .map(|(parent, mut children)| {
            children.sort_unstable();
            (parent, children)
        })
        .collect();
    TopoPattern { entries, edges }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::QueryResult;
    use crate::collector::MintDeployment;
    use crate::config::{MintConfig, SamplingMode};
    use proptest::prelude::*;
    use trace_model::{Trace, TraceSet};
    use workload::{online_boutique, GeneratorConfig, TraceGenerator};

    fn workload(seed: u64, n: usize) -> TraceSet {
        TraceGenerator::new(
            online_boutique(),
            GeneratorConfig::default()
                .with_seed(seed)
                .with_abnormal_rate(0.06),
        )
        .generate(n)
    }

    /// Ingests `traces` into `partitions.max()+1` shard deployments (all
    /// warmed on the full set, as the sharded/streaming drivers do) routed by
    /// the *arbitrary* `partitions` assignment, reconciling after every
    /// `chunk`-sized prefix, and returns the merger.
    fn merge_partitioned(
        traces: &TraceSet,
        partitions: &[usize],
        chunk: usize,
        mode: SamplingMode,
    ) -> (IncrementalMerger, Vec<MintDeployment>) {
        let shard_count = partitions.iter().copied().max().unwrap_or(0) + 1;
        let mut prototype = MintDeployment::new(MintConfig::default().with_sampling_mode(mode));
        prototype.warm_up(traces);
        let mut shards = vec![prototype; shard_count];
        let mut merger = IncrementalMerger::new();
        for (index, trace) in traces.iter().enumerate() {
            shards[partitions[index]].ingest_trace(trace);
            if (index + 1) % chunk.max(1) == 0 {
                merger.reconcile(&shards);
            }
        }
        merger.reconcile(&shards);
        (merger, shards)
    }

    fn serial_reference(traces: &TraceSet, mode: SamplingMode) -> MintDeployment {
        let mut serial = MintDeployment::new(MintConfig::default().with_sampling_mode(mode));
        serial.process(traces);
        serial
    }

    /// Id-free equality of every per-trace query result against the serial
    /// reference.
    fn assert_queries_match_serial(
        traces: &TraceSet,
        serial: &MintDeployment,
        merged: &MintBackend,
        context: &str,
    ) {
        for trace in traces {
            let id = trace.trace_id();
            match (serial.backend().query(id), merged.query(id)) {
                (QueryResult::Exact(a), QueryResult::Exact(b)) => {
                    assert_eq!(a, b, "{context}: exact mismatch for {id}")
                }
                (QueryResult::Approximate(a), QueryResult::Approximate(b)) => {
                    let key = |t: &crate::backend::ApproximateTrace| {
                        let mut spans: Vec<(String, String, String, String)> = t
                            .spans
                            .iter()
                            .map(|s| {
                                (
                                    s.node.clone(),
                                    s.service.clone(),
                                    s.name.clone(),
                                    s.duration_range.clone(),
                                )
                            })
                            .collect();
                        spans.sort();
                        (t.matched_segments, spans)
                    };
                    assert_eq!(key(&a), key(&b), "{context}: approx mismatch for {id}");
                }
                (QueryResult::Miss, QueryResult::Miss) => {}
                (a, b) => panic!("{context}: variant mismatch for {id}: {a:?} vs {b:?}"),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// Satellite: the merge is partition-invariant — interning a library
        /// split across arbitrary shard partitions yields the same canonical
        /// catalog (storage bytes, pattern counts, per-trace query results)
        /// as interning it whole, and incremental epoch-by-epoch merging
        /// equals one-shot merging.
        #[test]
        fn merge_is_partition_invariant(
            seed in 0u64..1_000_000,
            n in 40usize..100,
            shard_bits in proptest::collection::vec(0usize..4, 100..101),
            chunk in 1usize..40,
        ) {
            let traces = workload(seed, n);
            let partitions: Vec<usize> = shard_bits[..n].to_vec();
            let whole: Vec<usize> = vec![0; n];
            let serial = serial_reference(&traces, SamplingMode::AbnormalTag);
            let serial_report = serial.report();

            let (one_shard, _) =
                merge_partitioned(&traces, &whole, n, SamplingMode::AbnormalTag);
            let (split_incremental, _) =
                merge_partitioned(&traces, &partitions, chunk, SamplingMode::AbnormalTag);
            let (split_oneshot, _) =
                merge_partitioned(&traces, &partitions, n, SamplingMode::AbnormalTag);

            for (context, merger) in [
                ("whole", &one_shard),
                ("split incremental", &split_incremental),
                ("split one-shot", &split_oneshot),
            ] {
                prop_assert_eq!(
                    merger.backend().storage(),
                    serial.backend().storage(),
                    "{}: storage diverged",
                    context
                );
                prop_assert_eq!(merger.span_patterns(), serial_report.span_patterns);
                prop_assert_eq!(merger.topo_patterns(), serial_report.topo_patterns);
                assert_queries_match_serial(&traces, &serial, merger.backend(), context);
                prop_assert_eq!(merger.full_rebuilds(), 0);
            }
        }

        /// All parameter blocks survive the merge under full sampling, and
        /// exact queries reconstruct the identical traces.
        #[test]
        fn full_sampling_round_trips_exact_traces(
            seed in 0u64..1_000_000,
            shard_bits in proptest::collection::vec(0usize..3, 60..61),
        ) {
            let n = 60;
            let traces = workload(seed, n);
            let serial = serial_reference(&traces, SamplingMode::All);
            let (merger, _) =
                merge_partitioned(&traces, &shard_bits[..n], 13, SamplingMode::All);
            for trace in &traces {
                let serial_exact = match serial.backend().query(trace.trace_id()) {
                    QueryResult::Exact(t) => t,
                    other => panic!("serial not exact: {other:?}"),
                };
                let merged_exact = match merger.backend().query(trace.trace_id()) {
                    QueryResult::Exact(t) => t,
                    other => panic!("merged not exact: {other:?}"),
                };
                prop_assert_eq!(serial_exact, merged_exact);
            }
        }
    }

    #[test]
    fn incremental_merge_interns_only_new_state() {
        let traces = workload(9, 120);
        let mut prototype = MintDeployment::new(MintConfig::default());
        prototype.warm_up(&traces);
        let mut shards = vec![prototype; 2];
        let mut merger = IncrementalMerger::new();

        let all: Vec<&Trace> = traces.iter().collect();
        for trace in &all[..60] {
            shards[0].ingest_trace(trace);
        }
        let first = merger.reconcile(&shards);
        assert!(first.new_span_patterns > 0);
        assert!(first.new_topo_patterns > 0);

        // Re-reconciling unchanged state interns nothing.
        let idle = merger.reconcile(&shards);
        assert_eq!(idle.new_span_patterns, 0);
        assert_eq!(idle.new_topo_patterns, 0);
        assert_eq!(idle.new_sealed_blooms, 0);
        assert_eq!(idle.new_params_blocks, 0);

        // A converged workload suffix interns almost nothing new.
        for trace in &all[60..] {
            shards[1].ingest_trace(trace);
        }
        let second = merger.reconcile(&shards);
        assert!(
            second.new_span_patterns <= first.new_span_patterns,
            "suffix interned more than prefix: {second:?} vs {first:?}"
        );
        assert_eq!(merger.full_rebuilds(), 0);
    }

    #[test]
    fn topology_match_totals_survive_cloning_and_a_merge_round() {
        // `TopoPatternLibrary::total_matches` is a running total: it must
        // stay the sum over patterns through `clone` (shards start as copies
        // of one deployment) and through reconciles, which read the
        // libraries they merge.
        let traces = workload(5, 90);
        let all: Vec<&Trace> = traces.iter().collect();
        let mut prototype = MintDeployment::new(MintConfig::default());
        prototype.warm_up(&traces);
        for trace in &all[..30] {
            prototype.ingest_trace(trace);
        }
        let mut shards = vec![prototype; 2];
        let mut merger = IncrementalMerger::new();
        for (index, trace) in all[30..].iter().enumerate() {
            shards[index % 2].ingest_trace(trace);
            if index % 20 == 19 {
                merger.reconcile(&shards);
            }
        }
        merger.reconcile(&shards);
        let mut mounted = 0;
        for agent in shards.iter().flat_map(MintDeployment::agents) {
            let library = agent.topo_library();
            let summed: u64 = library.iter().map(|(_, _, matches)| matches).sum();
            assert_eq!(library.total_matches(), summed, "{}", agent.node());
            assert_eq!(library.total_matches(), agent.stats().sub_traces);
            mounted += summed;
        }
        assert!(mounted > 90);
    }

    #[test]
    fn drift_triggers_a_full_rebuild_and_stays_correct() {
        // No warm-up at all: shard-local template lists evolve online and
        // generalize in place, which must trip the drift detector instead of
        // silently serving stale canonical templates.
        let traces = workload(31, 150);
        let config = MintConfig::default().with_sampling_mode(SamplingMode::All);
        let mut shards = vec![
            MintDeployment::new(config.clone()),
            MintDeployment::new(config),
        ];
        let mut merger = IncrementalMerger::new();
        for (index, trace) in traces.iter().enumerate() {
            shards[index % 2].ingest_trace(trace);
            if (index + 1) % 10 == 0 {
                merger.reconcile(&shards);
            }
        }
        merger.reconcile(&shards);
        // Every trace stays queryable (exact, because everything is sampled)
        // regardless of how many rebuilds fired.
        for trace in &traces {
            assert!(
                merger.backend().query(trace.trace_id()).is_exact(),
                "trace {} lost after rebuilds",
                trace.trace_id()
            );
        }
    }
}
