//! The Mint backend: stores uploaded patterns, Bloom filters and parameters,
//! and answers trace queries (§4.3).

#![deny(clippy::disallowed_types)]

use crate::cost::StorageCost;
use crate::params::ParamBlock;
use crate::span_parser::PatternCatalog;
use crate::trace_parser::TopoPattern;
use mint_bloom::BloomFilter;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;
use trace_model::{PatternId, SpanView, Trace, TraceId, TraceView, WireSize};

/// One span of an approximate trace: the pattern skeleton with variables
/// masked (`<*>`) and numeric values shown as bucket intervals (Fig. 10).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ApproximateSpan {
    /// The node that observed spans of this pattern.
    pub node: String,
    /// The service name.
    pub service: String,
    /// The operation name.
    pub name: String,
    /// The span kind label.
    pub kind: String,
    /// The duration bucket interval label (e.g. `(27, 81]`).
    pub duration_range: String,
    /// Lower bound of the duration bucket, in microseconds.
    pub duration_lower_us: f64,
    /// Upper bound of the duration bucket, in microseconds.
    pub duration_upper_us: f64,
    /// Attribute keys with masked values.
    pub attributes: Vec<(String, String)>,
}

impl ApproximateSpan {
    /// A point estimate of the span duration.
    ///
    /// The lower end of the observed range is used: it reflects the
    /// pattern's common-case latency and is robust against the handful of
    /// anomalous (and separately retained) spans that stretch the upper end,
    /// which is what downstream analysis needs from approximate traces.
    pub fn duration_estimate_us(&self) -> u64 {
        self.duration_lower_us.max(0.0).round() as u64
    }
}

/// An approximate trace: the commonality part of every segment a queried
/// trace id was mounted on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ApproximateTrace {
    /// The queried trace id.
    pub trace_id: TraceId,
    /// Approximate spans, one per span pattern per matched segment.
    pub spans: Vec<ApproximateSpan>,
    /// Number of topology patterns (segments) the trace matched.
    pub matched_segments: usize,
}

impl ApproximateTrace {
    /// Number of approximate spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the approximate trace has no spans.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The services the trace passed through.
    pub fn services(&self) -> BTreeSet<&str> {
        self.spans.iter().map(|s| s.service.as_str()).collect()
    }
}

/// The answer to a trace query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum QueryResult {
    /// The trace was sampled: full information reconstructed from pattern +
    /// parameters.
    Exact(Trace),
    /// The trace was not sampled: the pattern skeleton is returned.
    Approximate(ApproximateTrace),
    /// The backend has no record of the trace (never happens for traces that
    /// went through a Mint agent, modulo Bloom-filter resets before upload).
    Miss,
}

impl QueryResult {
    /// Whether the query found nothing.
    pub fn is_miss(&self) -> bool {
        matches!(self, QueryResult::Miss)
    }

    /// Whether the query returned exact (parameter-level) information.
    pub fn is_exact(&self) -> bool {
        matches!(self, QueryResult::Exact(_))
    }

    /// Whether the query returned approximate information.
    pub fn is_approximate(&self) -> bool {
        matches!(self, QueryResult::Approximate(_))
    }
}

/// One uploaded parameter block and the node it came from, both shared with
/// every snapshot generation that holds them.
type StoredBlock = (Arc<str>, ParamBlock);

/// A Bloom segment's key: the node and the topology pattern.  The node name
/// is shared, so re-keying a segment or cloning the map copies no string.
type SegmentKey = (Arc<str>, PatternId);

/// The Mint backend and querier.
///
/// Every heavy segment (catalogs, topology patterns, Bloom filters,
/// parameter blocks) is held behind an [`Arc`], so cloning the backend for
/// snapshot publication copies pointers, not bytes: a published generation
/// structurally shares all segments with the live backend, and the merger's
/// replace-don't-mutate discipline (catalogs and partial blooms are
/// *replaced* per epoch, sealed blooms and param blocks are append-only)
/// guarantees shared segments are never written after publication.
#[derive(Debug, Clone, Default)]
pub struct MintBackend {
    catalogs: HashMap<String, Arc<PatternCatalog>>,
    topo_patterns: HashMap<String, Arc<Vec<TopoPattern>>>,
    blooms: HashMap<SegmentKey, Vec<Arc<BloomFilter>>>,
    /// Still-filling Bloom filters published by an incremental merge, one
    /// slot per ingest shard.  An epoch replaces a shard's slot with the
    /// filter's latest state when the filter gained mounts (bits are only
    /// ever added between flushes), so re-publication stays O(active
    /// patterns) instead of O(epochs).
    partial_blooms: HashMap<SegmentKey, BTreeMap<usize, Arc<BloomFilter>>>,
    /// The uploaded parameter blocks of each sampled trace, encoded as they
    /// were shipped, with the node each came from.
    params: HashMap<TraceId, Vec<StoredBlock>>,
    /// Every node name `params` mentions, so that a block's node costs a
    /// reference count rather than a string.
    param_nodes: HashSet<Arc<str>>,
    /// Append-only order log of parameter uploads: `(trace id, index into
    /// the trace's block list)`.  Lets an incremental merge consume only the
    /// blocks stored since its last watermark, in upload order.  Overhead is
    /// 24 bytes per stored block — a small constant factor on the params
    /// store it indexes.
    params_log: Vec<(TraceId, usize)>,
    bloom_bytes: u64,
    params_bytes: u64,
}

impl MintBackend {
    /// Creates an empty backend.
    pub fn new() -> Self {
        MintBackend::default()
    }

    /// Stores (replaces) the latest pattern catalog uploaded by `node`.
    pub fn store_catalog(
        &mut self,
        node: impl Into<String>,
        catalog: impl Into<Arc<PatternCatalog>>,
    ) {
        self.catalogs.insert(node.into(), catalog.into());
    }

    /// Stores (replaces) the topology patterns uploaded by `node`, indexed by
    /// pattern id (`PatternId(i + 1)` is element `i`).
    pub fn store_topo_patterns(
        &mut self,
        node: impl Into<String>,
        patterns: impl Into<Arc<Vec<TopoPattern>>>,
    ) {
        self.topo_patterns.insert(node.into(), patterns.into());
    }

    /// [`Self::store_catalog`] for a node name the caller only borrows: an
    /// owned key is made the first time `node` is stored, so an incremental
    /// merge republishing every epoch copies no string.
    pub(crate) fn replace_catalog(&mut self, node: &str, catalog: Arc<PatternCatalog>) {
        match self.catalogs.get_mut(node) {
            Some(slot) => *slot = catalog,
            None => self.store_catalog(node, catalog),
        }
    }

    /// [`Self::store_topo_patterns`] for a borrowed node name, like
    /// [`Self::replace_catalog`].
    pub(crate) fn replace_topo_patterns(&mut self, node: &str, patterns: Arc<Vec<TopoPattern>>) {
        match self.topo_patterns.get_mut(node) {
            Some(slot) => *slot = patterns,
            None => self.store_topo_patterns(node, patterns),
        }
    }

    /// The catalog stored for `node`.
    #[cfg(test)]
    pub(crate) fn catalog(&self, node: &str) -> Option<&Arc<PatternCatalog>> {
        self.catalogs.get(node)
    }

    /// The topology patterns stored for `node`.
    #[cfg(test)]
    pub(crate) fn topo_patterns(&self, node: &str) -> Option<&Arc<Vec<TopoPattern>>> {
        self.topo_patterns.get(node)
    }

    /// Stores a flushed Bloom filter for `(node, topology pattern)` so the
    /// querier can probe it.  Storage bytes for metadata mounting are charged
    /// separately (per mounted trace id) through
    /// [`MintBackend::charge_bloom_bytes`].  Accepts an already-shared
    /// `Arc<BloomFilter>` so the incremental merge can alias a shard's sealed
    /// filter instead of copying its bit array.
    pub fn store_bloom(
        &mut self,
        node: impl Into<Arc<str>>,
        topo_id: PatternId,
        bloom: impl Into<Arc<BloomFilter>>,
    ) {
        self.blooms
            .entry((node.into(), topo_id))
            .or_default()
            .push(bloom.into());
    }

    /// Adds to the metadata-mounting storage bill.
    pub fn charge_bloom_bytes(&mut self, bytes: u64) {
        self.bloom_bytes += bytes;
    }

    /// Stores the uploaded parameters of a sampled trace from `node`: a
    /// [`ParamBlock`] as taken from the node's Params Buffer, or a decoded
    /// [`TraceParams`](crate::TraceParams), which is encoded first.  Storage
    /// is charged the wire size in the block's header.
    pub fn store_params(&mut self, node: impl AsRef<str>, params: impl Into<ParamBlock>) {
        let block = params.into();
        let node = match self.param_nodes.get(node.as_ref()) {
            Some(known) => known.clone(),
            None => self.add_param_node(node.as_ref()),
        };
        self.params_bytes += block.wire_size() as u64;
        let trace_id = block.trace_id();
        let blocks = self.params.entry(trace_id).or_default();
        self.params_log.push((trace_id, blocks.len()));
        blocks.push((node, block));
    }

    /// Cold half of [`Self::store_params`]: the first block from `node`.
    fn add_param_node(&mut self, node: &str) -> Arc<str> {
        let node: Arc<str> = node.into();
        self.param_nodes.insert(node.clone());
        node
    }

    /// Stores (replaces) the still-partial Bloom filter of ingest shard
    /// `slot` for `(node, topology pattern)`.  Used by the incremental merge:
    /// unlike [`MintBackend::store_bloom`] this does not accumulate, so
    /// republishing a filter every epoch keeps exactly one copy per shard.
    pub(crate) fn store_partial_bloom(
        &mut self,
        node: Arc<str>,
        topo_id: PatternId,
        slot: usize,
        bloom: impl Into<Arc<BloomFilter>>,
    ) {
        self.partial_blooms
            .entry((node, topo_id))
            .or_default()
            .insert(slot, bloom.into());
    }

    /// Overwrites the metadata-mounting storage bill with a partition-
    /// invariant total recomputed from shard states.
    pub(crate) fn set_bloom_bytes(&mut self, bytes: u64) {
        self.bloom_bytes = bytes;
    }

    /// The append-only parameter-upload order log.
    pub(crate) fn params_log(&self) -> &[(TraceId, usize)] {
        &self.params_log
    }

    /// Looks up one stored `(node, parameter block)` pair by `(trace id,
    /// block index)`.
    pub(crate) fn params_block(
        &self,
        trace_id: TraceId,
        index: usize,
    ) -> Option<(&str, &ParamBlock)> {
        let (node, block) = self.params.get(&trace_id)?.get(index)?;
        Some((node, block))
    }

    /// The stored Bloom filters, keyed by `(node, topology pattern id)`.
    /// Used by the sharded merge step to re-key shard-local pattern ids.
    pub(crate) fn blooms(&self) -> &HashMap<SegmentKey, Vec<Arc<BloomFilter>>> {
        &self.blooms
    }

    /// A structurally-shared clone for snapshot publication.
    ///
    /// Every heavy segment is an `Arc` pointer copy, and the merger-only
    /// `params_log` bookkeeping is left empty: queries never read the log,
    /// and dropping it keeps a published generation's footprint proportional
    /// to live queryable state rather than to the total number of parameter
    /// uploads ever made.
    pub(crate) fn queryable_clone(&self) -> MintBackend {
        MintBackend {
            catalogs: self.catalogs.clone(),
            topo_patterns: self.topo_patterns.clone(),
            blooms: self.blooms.clone(),
            partial_blooms: self.partial_blooms.clone(),
            params: self.params.clone(),
            param_nodes: self.param_nodes.clone(),
            params_log: Vec::new(),
            bloom_bytes: self.bloom_bytes,
            params_bytes: self.params_bytes,
        }
    }

    /// Number of traces with fully retained parameters.
    pub fn sampled_trace_count(&self) -> usize {
        self.params.len()
    }

    /// Number of nodes that have uploaded a catalog.
    pub fn node_count(&self) -> usize {
        self.catalogs.len()
    }

    /// The storage cost of everything currently persisted.
    pub fn storage(&self) -> StorageCost {
        let pattern_bytes: u64 = self
            .catalogs
            .values()
            .map(|c| c.stored_size() as u64)
            .sum::<u64>()
            + self
                .topo_patterns
                .values()
                .flat_map(|ps| ps.iter().map(|p| p.stored_size() as u64))
                .sum::<u64>();
        StorageCost {
            pattern_bytes,
            bloom_bytes: self.bloom_bytes,
            params_bytes: self.params_bytes,
            raw_bytes: 0,
        }
    }

    /// Answers a query for `trace_id` (§4.3 "Query Logic"):
    ///
    /// 1. If the trace's parameters were uploaded, reconstruct and return the
    ///    exact trace.
    /// 2. Otherwise probe every Bloom filter; matched patterns yield an
    ///    approximate trace.
    /// 3. Otherwise report a miss.
    pub fn query(&self, trace_id: TraceId) -> QueryResult {
        if let Some(blocks) = self.params.get(&trace_id) {
            let mut spans = Vec::with_capacity(blocks.iter().map(|(_, block)| block.len()).sum());
            for (node, block) in blocks {
                if let Some(catalog) = self.catalogs.get(&**node) {
                    // Each record is read where the upload left it.
                    let rebuilt = block
                        .spans()
                        .filter_map(|record| catalog.reconstruct_span(trace_id, &record));
                    spans.extend(rebuilt);
                }
            }
            if !spans.is_empty() {
                if let Ok(trace) = Trace::from_spans(trace_id, spans) {
                    return QueryResult::Exact(trace);
                }
            }
        }

        let mut approx_spans = Vec::new();
        let mut matched_segments = 0;
        // Segments live in the sealed-bloom map and, for a deployment merged
        // incrementally, in the per-shard partial-bloom slots as well; a key
        // in both maps is one segment.  Each map is walked by entry, so a
        // key is hashed again only to look it up in the *other* map.
        let id = trace_id.as_u128();
        let in_slots = |slots: &BTreeMap<usize, Arc<BloomFilter>>| {
            slots.values().any(|bloom| bloom.contains(&id))
        };
        let sealed = self.blooms.iter().map(|(key, sealed)| {
            let hit = sealed.iter().any(|bloom| bloom.contains(&id))
                || self.partial_blooms.get(key).is_some_and(in_slots);
            (key, hit)
        });
        let partial_only = self
            .partial_blooms
            .iter()
            .filter(|(key, _)| !self.blooms.contains_key(*key))
            .map(|(key, slots)| (key, in_slots(slots)));
        for ((node, topo_id), hit) in sealed.chain(partial_only) {
            if !hit {
                continue;
            }
            matched_segments += 1;
            let node: &str = node;
            let Some(patterns) = self.topo_patterns.get(node) else {
                continue;
            };
            let Some(pattern) = topo_id
                .as_u128()
                .checked_sub(1)
                .and_then(|i| patterns.get(i as usize))
            else {
                continue;
            };
            let Some(catalog) = self.catalogs.get(node) else {
                continue;
            };
            // Every span pattern referenced by the topology becomes one
            // approximate span.
            let mut referenced: BTreeSet<PatternId> = pattern.entries.iter().copied().collect();
            for (parent, children) in &pattern.edges {
                referenced.insert(*parent);
                referenced.extend(children.iter().copied());
            }
            for span_pattern_id in referenced {
                let Some(span_pattern) = catalog.spans.get(span_pattern_id) else {
                    continue;
                };
                let stats = catalog
                    .spans
                    .duration_stats(span_pattern_id)
                    .unwrap_or_default();
                let (lower, upper) = if stats.count == 0 {
                    (0.0, 0.0)
                } else {
                    (stats.min_us as f64, stats.max_us as f64)
                };
                approx_spans.push(ApproximateSpan {
                    node: node.to_owned(),
                    service: span_pattern.service.clone(),
                    name: span_pattern.name.clone(),
                    kind: span_pattern.kind.label().to_owned(),
                    // Both bounds are whole microseconds held as `f64`;
                    // as integers they print the digits `{:.0}` would,
                    // without the float formatter (a sixth of the query).
                    duration_range: format!("({}, {}]", lower as u128, upper as u128),
                    duration_lower_us: lower,
                    duration_upper_us: upper,
                    attributes: catalog.masked_attributes(span_pattern_id),
                });
            }
        }
        if matched_segments > 0 {
            QueryResult::Approximate(ApproximateTrace {
                trace_id,
                spans: approx_spans,
                matched_segments,
            })
        } else {
            QueryResult::Miss
        }
    }

    /// Flattens a query result into a [`TraceView`] for downstream analysis
    /// (e.g. the RCA consumers): an exact hit becomes an exact view, an
    /// approximate hit becomes a pattern-level view with estimated durations
    /// (error flags are unknown for unsampled traces and reported `false`),
    /// and a miss returns `None`.
    pub fn trace_view(&self, trace_id: TraceId) -> Option<TraceView> {
        match self.query(trace_id) {
            QueryResult::Exact(trace) => Some(TraceView::from(&trace)),
            QueryResult::Approximate(approx) => {
                let spans: Vec<SpanView> = approx
                    .spans
                    .iter()
                    .map(|s| SpanView {
                        service: s.service.clone(),
                        operation: s.name.clone(),
                        duration_us: s.duration_estimate_us(),
                        is_error: false,
                    })
                    .collect();
                let duration_us = spans.iter().map(|s| s.duration_us).max().unwrap_or(0);
                Some(TraceView {
                    trace_id,
                    exact: false,
                    duration_us,
                    spans,
                })
            }
            QueryResult::Miss => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::MintAgent;
    use crate::config::MintConfig;
    use trace_model::SubTrace;
    use workload::{online_boutique, GeneratorConfig, TraceGenerator};

    /// Runs a tiny single-purpose pipeline: ingest `n` traces through
    /// per-service agents, upload everything, mark `sample_every`-th trace as
    /// sampled.
    fn populated_backend(n: usize, sample_every: usize) -> (MintBackend, Vec<TraceId>) {
        let mut generator = TraceGenerator::new(
            online_boutique(),
            GeneratorConfig::default()
                .with_seed(11)
                .with_abnormal_rate(0.0),
        );
        let traces = generator.generate(n);
        let mut agents: HashMap<String, MintAgent> = HashMap::new();
        let mut backend = MintBackend::new();
        let mut ids = Vec::new();
        for (i, trace) in traces.iter().enumerate() {
            ids.push(trace.trace_id());
            let sampled = sample_every > 0 && i % sample_every == 0;
            for sub in SubTrace::split_by_service(trace) {
                let agent = agents
                    .entry(sub.node().to_owned())
                    .or_insert_with(|| MintAgent::new(sub.node(), MintConfig::default()));
                let outcome = agent.ingest_sub_trace(&sub);
                backend.charge_bloom_bytes(outcome.bloom_mounting_bytes);
                if sampled {
                    if let Some(params) = agent.take_params(trace.trace_id()) {
                        backend.store_params(sub.node(), params);
                    }
                }
            }
        }
        for (node, agent) in agents.iter_mut() {
            backend.store_catalog(node.clone(), agent.catalog());
            let patterns: Vec<TopoPattern> = agent
                .topo_library()
                .iter()
                .map(|(_, p, _)| p.clone())
                .collect();
            backend.store_topo_patterns(node.clone(), patterns);
            for (topo_id, bloom) in agent.topo_library_mut().drain_partial_blooms() {
                backend.store_bloom(node.clone(), topo_id, bloom);
            }
        }
        (backend, ids)
    }

    #[test]
    fn every_trace_is_queryable() {
        let (backend, ids) = populated_backend(60, 10);
        for id in &ids {
            assert!(!backend.query(*id).is_miss(), "miss for {id}");
        }
    }

    #[test]
    fn sampled_traces_return_exact_results() {
        let (backend, ids) = populated_backend(40, 4);
        let exact = ids
            .iter()
            .filter(|id| backend.query(**id).is_exact())
            .count();
        assert!(exact >= 10, "exact {exact}");
        assert_eq!(backend.sampled_trace_count(), exact);
    }

    #[test]
    fn unsampled_traces_return_approximate_results() {
        let (backend, ids) = populated_backend(40, 0);
        let mut approx = 0;
        for id in &ids {
            match backend.query(*id) {
                QueryResult::Approximate(a) => {
                    approx += 1;
                    assert!(!a.is_empty());
                    assert!(a.matched_segments >= 1);
                    assert!(!a.services().is_empty());
                    for span in &a.spans {
                        let (lower, upper) = (span.duration_lower_us, span.duration_upper_us);
                        assert_eq!(span.duration_range, format!("({lower:.0}, {upper:.0}]"));
                    }
                }
                QueryResult::Exact(_) => panic!("nothing was sampled"),
                QueryResult::Miss => panic!("mint never misses"),
            }
        }
        assert_eq!(approx, ids.len());
    }

    #[test]
    fn unknown_trace_is_a_miss() {
        let (backend, _) = populated_backend(10, 0);
        assert!(backend.query(TraceId::from_u128(0xdead_beef)).is_miss());
    }

    #[test]
    fn exact_traces_preserve_span_metadata() {
        let (backend, ids) = populated_backend(20, 1);
        match backend.query(ids[0]) {
            QueryResult::Exact(trace) => {
                assert!(trace.len() > 1);
                assert!(trace.spans().iter().all(|s| !s.service().is_empty()));
            }
            other => panic!("expected exact, got {other:?}"),
        }
    }

    #[test]
    fn storage_breakdown_is_populated() {
        let (backend, _) = populated_backend(50, 5);
        let storage = backend.storage();
        assert!(storage.pattern_bytes > 0);
        assert!(storage.bloom_bytes > 0);
        assert!(storage.params_bytes > 0);
        assert_eq!(storage.raw_bytes, 0);
        assert!(backend.node_count() >= 5);
    }

    #[test]
    fn query_result_predicates() {
        assert!(QueryResult::Miss.is_miss());
        assert!(!QueryResult::Miss.is_exact());
        assert!(!QueryResult::Miss.is_approximate());
    }
}
