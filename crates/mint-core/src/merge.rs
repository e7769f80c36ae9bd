//! Incremental, content-addressed merging of per-shard Mint state into one
//! canonical queryable backend — the reconcile that
//! [`StreamingDeployment`](crate::StreamingDeployment) runs at every epoch
//! boundary (once per batch when the whole batch is one epoch).
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
//! tables** (string-template content → canonical indices, span-pattern
//! content → canonical id, topology-pattern content → canonical id) and
//! per-shard **watermarks** across merges.  Shard-local libraries are
//! append-only (template *content* aside, see below), so each merge only
//! interns the entries past the watermark — patterns first seen since the
//! previous merge — and appends only the Bloom filters and parameter blocks
//! uploaded since then.
//!
//! # What a merge costs
//!
//! A merge reads the shards' libraries in place and allocates
//! O(nodes + new state + republished filters), independent of how large the
//! libraries have grown:
//!
//! * interning touches only entries past the watermarks, and finds content
//!   by hash, so interning n templates is O(n), not O(n²);
//! * a node's canonical pattern tables (span patterns and their index,
//!   template lists, bucketers, topology patterns) sit behind `Arc`s and are
//!   written copy-on-write, only when that node interned something new.  A
//!   node none of whose shards parsed a span since the previous merge is not
//!   republished; any other gets one fresh `Vec<DurationStats>`, refolded
//!   from the shards' cumulative statistics (a pass over words, no
//!   allocation), beside the tables it shares with the previous generation;
//! * a still-partial Bloom filter is copied only if its pattern was mounted
//!   since the previous merge (its match count moved) — a filter without new
//!   mounts is bit-identical to the copy already published.
//!
//! Publishing a snapshot still copies the sealed-Bloom and parameter
//! indexes (the maps, not the `Arc`-shared segments in them), which is
//! O(history).
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
//! * **Drift detection by revision stamp** — string templates are the one
//!   piece of shard state that can mutate in place (online generalization
//!   after warm-up).  A parser stamps every template with a fresh revision
//!   whenever its tokens change, and a watermark keeps the stamps of the
//!   prefix it interned.  The rule: if any interned template's stamp moved,
//!   the merge resets its derived state and re-interns everything from the
//!   cumulative shard histories (the old batch-merge behaviour).  A template
//!   generalized before it was interned, or a generalization that leaves the
//!   tokens as they were, moves no interned stamp and rebuilds nothing.  With
//!   a warm-up that covers the workload this never fires;
//!   [`IncrementalMerger::full_rebuilds`] counts it so the benchmarks can
//!   prove it.
//!
//! Partition invariance — interning a library split across arbitrary shard
//! partitions yields the same canonical catalog as interning it whole — is
//! asserted by the property tests at the bottom of this module.

#![deny(clippy::disallowed_methods)]

use crate::agent::MintAgent;
use crate::backend::MintBackend;
use crate::collector::{MintCollector, MintDeployment};
use crate::config::MintConfig;
use crate::snapshot::{QueryHandle, SnapshotPublisher};
use crate::span_parser::{
    AttrPattern, AttributeParser, DurationStats, NumericBucketer, PatternCatalog, SpanParser,
    SpanPatternLibrary, StringAttributeParser, StringTemplate,
};
use crate::trace_parser::{TopoPattern, TopoPatternLibrary};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
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
    /// Still-partial Bloom filters copied into the merged backend because
    /// their patterns were mounted since the previous merge.
    pub republished_blooms: usize,
    /// Whether template drift forced a from-scratch rebuild.
    pub full_rebuild: bool,
}

/// Canonical per-node state carried across merges: the persistent intern
/// tables of the incremental merge, and the shared tables published from
/// them.
#[derive(Debug, Default)]
struct CanonicalNode {
    /// The node's name, shared by every backend key that names it.
    name: Arc<str>,
    /// Canonical span patterns (content → id via the library's own index).
    /// The duration statistics beside them are never read: publication
    /// refolds fresh ones from the shards.
    spans: SpanPatternLibrary,
    /// Canonical templates per attribute key (content-addressed,
    /// occurrence-aware).
    templates: Arc<HashMap<String, Vec<StringTemplate>>>,
    /// Per attribute key: template content → the canonical indices holding
    /// it, ascending.
    template_index: HashMap<String, HashMap<StringTemplate, Vec<usize>>>,
    bucketers: Arc<HashMap<String, NumericBucketer>>,
    duration_bucketer: NumericBucketer,
    scalar_sizes: HashMap<String, usize>,
    /// Canonical topology patterns and their content index.
    topo: Arc<Vec<TopoPattern>>,
    topo_index: HashMap<TopoPattern, PatternId>,
    /// Whether what is published of the node changed since it last was:
    /// something was interned, or a shard parsed one of its spans.
    stale: bool,
}

impl CanonicalNode {
    fn new(name: &str) -> Self {
        CanonicalNode {
            name: Arc::from(name),
            stale: true,
            ..CanonicalNode::default()
        }
    }

    /// Interns what `agent` — this node's agent on one shard — learned past
    /// `marks`, reading its libraries in place.  Nothing is allocated unless
    /// something is new.
    fn absorb(&mut self, agent: &MintAgent, marks: &mut ShardNodeMarks, stats: &mut MergeStats) {
        let parser = agent.span_parser();
        if marks.parsed_spans != parser.parsed_spans() {
            marks.parsed_spans = parser.parsed_spans();
            self.stale = true;
        }
        self.duration_bucketer = parser.duration_bucketer();
        for (index, (key, attribute)) in parser.attribute_parsers().enumerate() {
            match attribute {
                AttributeParser::Strings(strings) => {
                    let marks = marks.template_marks(index);
                    let interned = marks.as_ref().map(|marks| marks.remap.len());
                    if interned != Some(strings.templates().len()) {
                        let marks = marks.get_or_insert_with(TemplateMarks::default);
                        self.intern_templates(key, strings, marks, stats);
                    }
                }
                // Closed-form parsers are static once created: the first
                // shard to show a key decides, for bucketer and size alike.
                AttributeParser::Numeric(bucketer) if !self.bucketers.contains_key(key) => {
                    // First sight of a numeric key on this node, once per (node, key).
                    Arc::make_mut(&mut self.bucketers).insert(key.to_owned(), *bucketer);
                    self.stale = true;
                }
                AttributeParser::Numeric(_) | AttributeParser::Booleans => {}
            }
            if !matches!(attribute, AttributeParser::Strings(_))
                && !self.scalar_sizes.contains_key(key)
            {
                // First sight of a closed-form key on this node, once per (node, key).
                let key = key.to_owned();
                self.scalar_sizes.insert(key, attribute.stored_size());
            }
        }
        if marks.span_remap.len() < parser.library().len() {
            self.intern_span_patterns(parser, marks, stats);
        }
        if marks.topo_remap.len() < agent.topo_library().len() {
            self.intern_topologies(agent.topo_library(), marks, stats);
        }
    }

    /// Interns the templates of string key `key` past `marks`, occurrence-
    /// aware (see [`intern_template`]), and records their stamps.
    fn intern_templates(
        &mut self,
        key: &str,
        strings: &StringAttributeParser,
        marks: &mut TemplateMarks,
        stats: &mut MergeStats,
    ) {
        if !self.templates.contains_key(key) {
            // The catalog lists a string key even while it has no template.
            Arc::make_mut(&mut self.templates).insert(key.to_owned(), Vec::new());
            self.template_index.insert(key.to_owned(), HashMap::new());
            self.stale = true;
        }
        let Some(index) = self.template_index.get_mut(key) else {
            return;
        };
        let start = marks.remap.len();
        let new = strings.templates()[start..].iter();
        for (template, stamp) in new.zip(strings.stamps().skip(start)) {
            let canonical_len = self.templates.get(key).map_or(0, Vec::len);
            let (canonical, appended) =
                intern_template(index, &mut marks.occurrences, template, canonical_len);
            if appended {
                if let Some(list) = Arc::make_mut(&mut self.templates).get_mut(key) {
                    list.push(template.clone());
                }
                stats.new_templates += 1;
                self.stale = true;
            }
            marks.remap.push(canonical);
            marks.stamps.push(stamp);
        }
    }

    /// Interns the span patterns of `parser` past `marks`, with template
    /// references rewritten to canonical indices.  Duration statistics are
    /// refolded at publication, so they are absorbed empty here.
    fn intern_span_patterns(
        &mut self,
        parser: &SpanParser,
        marks: &mut ShardNodeMarks,
        stats: &mut MergeStats,
    ) {
        for (_, pattern) in parser.library().iter().skip(marks.span_remap.len()) {
            let mut pattern = pattern.clone();
            for (key, attr) in pattern.attrs.iter_mut() {
                if let AttrPattern::Template { template_id } = attr {
                    let index = parser.key_index(key);
                    let templates = index.and_then(|index| marks.templates.get(index));
                    if let Some(Some(templates)) = templates {
                        *template_id = templates.remap[*template_id];
                    }
                }
            }
            let before = self.spans.len();
            let canonical_id = self.spans.absorb(pattern, DurationStats::default());
            if self.spans.len() > before {
                stats.new_span_patterns += 1;
                self.stale = true;
            }
            marks.span_remap.push(canonical_id);
        }
    }

    /// Interns the topology patterns of `library` past `marks`, with span
    /// references rewritten to canonical ids.
    fn intern_topologies(
        &mut self,
        library: &TopoPatternLibrary,
        marks: &mut ShardNodeMarks,
        stats: &mut MergeStats,
    ) {
        for (_, pattern, _) in library.iter().skip(marks.topo_remap.len()) {
            let pattern = remap_topo(pattern, &marks.span_remap);
            let canonical_id = match self.topo_index.get(&pattern) {
                Some(&id) => id,
                None => {
                    let id = PatternId::from_u128(self.topo.len() as u128 + 1);
                    self.topo_index.insert(pattern.clone(), id);
                    Arc::make_mut(&mut self.topo).push(pattern);
                    stats.new_topo_patterns += 1;
                    self.stale = true;
                    id
                }
            };
            marks.topo_remap.push(canonical_id);
        }
    }

    /// The node's catalog as of now: the shared tables, and duration
    /// statistics refolded from every shard's cumulative statistics — every
    /// span is observed by exactly one shard, so the fold equals the serial
    /// statistic.  `index` is the node's own index into `marks`' per-node
    /// watermarks.
    fn catalog(
        &self,
        index: usize,
        shards: &[MintDeployment],
        marks: &[ShardMarks],
    ) -> PatternCatalog {
        let mut durations = vec![DurationStats::default(); self.spans.len()];
        for (shard, marks) in shards.iter().zip(marks) {
            let agent = shard.agents.get(&*self.name);
            let remap = marks.get(index);
            let (Some(agent), Some(remap)) = (agent, remap) else {
                continue;
            };
            let local = agent.span_parser().library().durations();
            for (stats, canonical) in local.iter().zip(&remap.span_remap) {
                durations[(canonical.as_u128() - 1) as usize].merge(stats);
            }
        }
        PatternCatalog {
            spans: self.spans.with_durations(durations),
            templates: Arc::clone(&self.templates),
            bucketers: Arc::clone(&self.bucketers),
            duration_bucketer: self.duration_bucketer,
        }
    }

    /// Bytes of one full pattern-library upload for this node, mirroring
    /// [`MintAgent::library_upload_bytes`](crate::MintAgent::library_upload_bytes):
    /// span patterns + attribute parsers (templates for strings, closed-form
    /// sizes for numeric/boolean) + topology patterns.
    fn library_upload_bytes(&self) -> usize {
        self.spans.stored_size()
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

/// The canonical nodes in first-sight order, and their index by name.  Each
/// node's state is independent of the others', so the order is immaterial.
#[derive(Debug, Default)]
struct CanonicalNodes {
    list: Vec<CanonicalNode>,
    by_name: HashMap<Arc<str>, usize>,
}

impl CanonicalNodes {
    /// The index of `node`, if a shard has shown it.
    fn find(&self, node: &str) -> Option<usize> {
        self.by_name.get(node).copied()
    }

    /// The index of `node`, adding it on first sight.
    fn find_or_add(&mut self, node: &str) -> usize {
        match self.find(node) {
            Some(index) => index,
            None => self.add(node),
        }
    }

    /// Cold half of [`Self::find_or_add`].
    fn add(&mut self, node: &str) -> usize {
        let canonical = CanonicalNode::new(node);
        self.by_name
            .insert(Arc::clone(&canonical.name), self.list.len());
        self.list.push(canonical);
        self.list.len() - 1
    }
}

/// Watermark into one shard's template list for one attribute key: how
/// much of the list has been interned (`remap`), the revision stamps it had
/// then (`stamps`, for drift detection), and how many copies of each
/// content the interned prefix holds.
#[derive(Debug, Default)]
struct TemplateMarks {
    stamps: Vec<u32>,
    remap: Vec<usize>,
    /// Content (named by its first canonical index) → copies of it in the
    /// interned prefix.
    occurrences: HashMap<usize, usize>,
}

/// Watermarks into one shard's per-node state.
#[derive(Debug, Default)]
struct ShardNodeMarks {
    /// Per shard-local attribute key, in [`SpanParser::attribute_parsers`]
    /// order: the template watermark of a key that holds strings.
    templates: Vec<Option<TemplateMarks>>,
    /// Shard-local span pattern id (1-based, dense) → canonical id.
    span_remap: Vec<PatternId>,
    /// Shard-local topology pattern id (1-based, dense) → canonical id.
    topo_remap: Vec<PatternId>,
    /// Per shard-local topology pattern: its match count when its partial
    /// filter was last looked at.
    mounts: Vec<u64>,
    /// Sealed Bloom filters already consumed per shard-local topology id.
    sealed_seen: HashMap<PatternId, usize>,
    /// Spans the shard's parser had parsed at the previous merge.
    parsed_spans: u64,
}

impl ShardNodeMarks {
    /// The template watermark slot of the attribute key at `index`.
    fn template_marks(&mut self, index: usize) -> &mut Option<TemplateMarks> {
        if self.templates.len() <= index {
            self.templates.resize_with(index + 1, || None);
        }
        &mut self.templates[index]
    }

    /// Whether a template this shard interned was rewritten since: its
    /// stamp moved, or its key holds no templates any more.
    fn drifted(&self, parser: &SpanParser) -> bool {
        let mut attributes = parser.attribute_parsers();
        self.templates.iter().any(|marks| {
            let attribute = attributes.next();
            let Some(marks) = marks else {
                return false;
            };
            match attribute {
                Some((_, AttributeParser::Strings(strings))) => {
                    let interned = strings.stamps().take(marks.stamps.len());
                    !interned.eq(marks.stamps.iter().copied())
                }
                _ => true,
            }
        })
    }
}

/// Watermarks into one shard's state.
#[derive(Debug, Default)]
struct ShardMarks {
    /// Per canonical node (by index): `None` until the shard shows it.
    nodes: Vec<Option<ShardNodeMarks>>,
    /// Entries of the shard backend's params order log already consumed.
    params_seen: usize,
}

impl ShardMarks {
    /// The watermarks of canonical node `index`, created on first sight.
    fn node(&mut self, index: usize) -> &mut ShardNodeMarks {
        if self.nodes.len() <= index {
            self.nodes.resize_with(index + 1, || None);
        }
        self.nodes[index].get_or_insert_with(ShardNodeMarks::default)
    }

    /// The watermarks of canonical node `index`, if the shard has shown it.
    fn get(&self, index: usize) -> Option<&ShardNodeMarks> {
        self.nodes.get(index)?.as_ref()
    }

    /// [`Self::get`], mutably.
    fn get_mut(&mut self, index: usize) -> Option<&mut ShardNodeMarks> {
        self.nodes.get_mut(index)?.as_mut()
    }
}

/// The incremental merger: owns the merged backend/collector and the
/// persistent intern state, and reconciles per-shard [`MintDeployment`]
/// states into them.
#[derive(Debug, Default)]
pub(crate) struct IncrementalMerger {
    backend: MintBackend,
    collector: MintCollector,
    nodes: CanonicalNodes,
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
    /// watermarks.  Safe to call at every epoch boundary; allocates
    /// `O(nodes + new state + republished filters)`.
    pub(crate) fn reconcile(&mut self, shards: &[MintDeployment]) -> MergeStats {
        let mut stats = MergeStats::default();

        // Shard-count changes and in-place template mutation both invalidate
        // the watermarks: drop the derived state and re-intern everything
        // from the cumulative shard histories (same code path, zeroed
        // watermarks).
        if (!self.marks.is_empty() && self.marks.len() != shards.len()) || self.drifted(shards) {
            self.backend = MintBackend::new();
            self.nodes = CanonicalNodes::default();
            self.marks.clear();
            self.full_rebuilds += 1;
            stats.full_rebuild = true;
        }
        if self.marks.len() < shards.len() {
            self.marks.resize_with(shards.len(), ShardMarks::default);
        }

        // 1. Intern pattern state past the watermarks, shard by shard.
        for (shard, marks) in shards.iter().zip(&mut self.marks) {
            for (node, agent) in &shard.agents {
                let index = self.nodes.find_or_add(node);
                self.nodes.list[index].absorb(agent, marks.node(index), &mut stats);
            }
        }

        // 2. Append the sealed (flushed-during-ingest) Bloom filters the
        //    shards uploaded since the previous reconcile.
        for (shard, marks) in shards.iter().zip(&mut self.marks) {
            for ((node, local_id), blooms) in shard.backend.blooms() {
                let index = self.nodes.find(node);
                let found = index.and_then(|index| Some((index, marks.get_mut(index)?)));
                #[expect(
                    clippy::expect_used,
                    reason = "step 1 interned marks for every node before blooms are walked"
                )]
                let (index, marks) = found.expect("bloom for a node with no interned agent state");
                let seen = marks.sealed_seen.entry(*local_id).or_insert(0);
                if *seen == blooms.len() {
                    continue;
                }
                let canonical_id = marks.topo_remap[(local_id.as_u128() - 1) as usize];
                for bloom in &blooms[*seen..] {
                    let node = Arc::clone(&self.nodes.list[index].name);
                    self.backend
                        .store_bloom(node, canonical_id, Arc::clone(bloom));
                    stats.new_sealed_blooms += 1;
                }
                *seen = blooms.len();
            }
        }

        // 3. Republish each shard's still-partial Bloom filters into their
        //    per-shard slots (replace, not append), so every mounted trace id
        //    is queryable without disturbing the shard's own filling state.
        //    Every non-empty filter counts as uploaded; only one mounted
        //    since the previous reconcile differs from its published copy.
        let mut partial_uploads = 0u64;
        for (slot, (shard, marks)) in shards.iter().zip(&mut self.marks).enumerate() {
            for (node, agent) in &shard.agents {
                let index = self.nodes.find(node);
                let found = index.and_then(|index| Some((index, marks.get_mut(index)?)));
                let Some((index, marks)) = found else {
                    continue;
                };
                let library = agent.topo_library();
                marks.mounts.resize(library.len(), 0);
                for (local_id, matches, bloom) in library.partial_blooms() {
                    partial_uploads += 1;
                    let local = (local_id.as_u128() - 1) as usize;
                    if marks.mounts[local] == matches {
                        continue;
                    }
                    marks.mounts[local] = matches;
                    // The filter gained mounts since the previous merge: this
                    // copy is its republication.
                    let bloom = Arc::new(bloom.clone());
                    let node = Arc::clone(&self.nodes.list[index].name);
                    self.backend
                        .store_partial_bloom(node, marks.topo_remap[local], slot, bloom);
                    stats.republished_blooms += 1;
                }
            }
        }

        // 4. Append the parameter blocks uploaded since the previous
        //    reconcile, in shard upload order, each copied once with its
        //    span pattern references patched to canonical ids in the copy.
        for (shard, marks) in shards.iter().zip(&mut self.marks) {
            let log = shard.backend.params_log();
            for (trace_id, block_index) in &log[marks.params_seen..] {
                #[expect(
                    clippy::expect_used,
                    reason = "the params log only records blocks the backend just stored"
                )]
                let (node, params) = shard
                    .backend
                    .params_block(*trace_id, *block_index)
                    .expect("params log points at a stored block");
                let index = self.nodes.find(node);
                let remap = index.and_then(|index| marks.get(index));
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
            marks.params_seen = log.len();
        }

        // 5. Republish the catalogs of the nodes that changed (replacing the
        //    previous epoch's): fresh duration statistics beside shared
        //    pattern tables.
        self.span_patterns = 0;
        self.topo_patterns = 0;
        for (index, canon) in self.nodes.list.iter_mut().enumerate() {
            self.span_patterns += canon.spans.len() as u64;
            self.topo_patterns += canon.topo.len() as u64;
            if !canon.stale {
                continue;
            }
            canon.stale = false;
            let catalog = canon.catalog(index, shards, &self.marks);
            self.backend.replace_catalog(&canon.name, Arc::new(catalog));
            self.backend
                .replace_topo_patterns(&canon.name, Arc::clone(&canon.topo));
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
            .list
            .iter()
            .map(|canon| (canon.library_upload_bytes() * intervals as usize) as u64)
            .sum();
        self.pattern_network_bytes += batch_bytes;
        self.collector.record_pattern_upload(batch_bytes as usize);
    }

    /// Whether any shard's template lists mutated under an existing
    /// watermark (online generalization after warm-up).
    fn drifted(&self, shards: &[MintDeployment]) -> bool {
        self.marks.iter().zip(shards).any(|(marks, shard)| {
            marks
                .nodes
                .iter()
                .zip(&self.nodes.list)
                .any(
                    |(marks, canon)| match (marks, shard.agents.get(&*canon.name)) {
                        (None, _) => false,
                        (Some(marks), Some(agent)) => marks.drifted(agent.span_parser()),
                        (Some(_), None) => true,
                    },
                )
        })
    }
}

/// Interns `template` — the next entry of one shard's template list for a
/// key — occurrence-aware: the k-th copy of a content in the shard's list
/// maps to the k-th canonical copy.  `index` maps the key's canonical
/// contents to the canonical indices holding them, `occurrences` counts the
/// copies of each content the shard's list has interned so far, and
/// `canonical_len` is the length of the canonical list.  Returns the
/// canonical index and whether the caller must append the template there
/// (`index` already names it).
fn intern_template(
    index: &mut HashMap<StringTemplate, Vec<usize>>,
    occurrences: &mut HashMap<usize, usize>,
    template: &StringTemplate,
    canonical_len: usize,
) -> (usize, bool) {
    let copies = index.get(template);
    // A content is named by its first canonical index; a new one by the
    // index it is about to get.
    let first = copies.map_or(canonical_len, |copies| copies[0]);
    let seen = occurrences.entry(first).or_insert(0);
    let occurrence = *seen;
    *seen += 1;
    if let Some(&existing) = copies.and_then(|copies| copies.get(occurrence)) {
        return (existing, false);
    }
    match index.get_mut(template) {
        Some(copies) => copies.push(canonical_len),
        None => {
            index.insert(template.clone(), vec![canonical_len]);
        }
    }
    (canonical_len, true)
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
    use trace_model::{Span, SpanId, SpanKind, Trace, TraceId, TraceSet};
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
    /// warmed on the full set, as `StreamingDeployment::process` does)
    /// routed by the *arbitrary* `partitions` assignment, reconciling after
    /// every `chunk`-sized prefix, and returns the merger.
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

    /// A one-shard deployment warmed on `workload(seed, 120)` that has
    /// ingested it and been reconciled once.
    fn reconciled_shard(seed: u64) -> (IncrementalMerger, Vec<MintDeployment>, TraceSet) {
        let traces = workload(seed, 120);
        let mut shard = MintDeployment::new(MintConfig::default());
        shard.warm_up(&traces);
        for trace in &traces {
            shard.ingest_trace(trace);
        }
        let shards = vec![shard];
        let mut merger = IncrementalMerger::new();
        merger.reconcile(&shards);
        (merger, shards, traces)
    }

    /// Whether two published catalogs of one node share every pattern
    /// table: span patterns, templates, bucketers and topology patterns.
    fn shares_tables(a: &MintBackend, b: &MintBackend, node: &str) -> bool {
        let (Some(ca), Some(cb)) = (a.catalog(node), b.catalog(node)) else {
            return false;
        };
        let (Some(ta), Some(tb)) = (a.topo_patterns(node), b.topo_patterns(node)) else {
            return false;
        };
        ca.spans.shares_patterns_with(&cb.spans)
            && Arc::ptr_eq(&ca.templates, &cb.templates)
            && Arc::ptr_eq(&ca.bucketers, &cb.bucketers)
            && Arc::ptr_eq(ta, tb)
    }

    #[test]
    fn consecutive_generations_share_the_tables_of_nodes_that_interned_nothing() {
        let (mut merger, mut shards, traces) = reconciled_shard(9);
        let handle = merger.query_handle();
        let mut nodes: Vec<String> = shards[0].agents.keys().cloned().collect();
        nodes.sort();

        // An epoch of known patterns: every node republishes fresh duration
        // statistics beside the tables of the previous generation.
        for trace in traces.iter().take(20) {
            shards[0].ingest_trace(trace);
        }
        let first = handle.snapshot();
        let known = merger.reconcile(&shards);
        assert_eq!(
            (
                known.new_templates,
                known.new_span_patterns,
                known.new_topo_patterns
            ),
            (0, 0, 0)
        );
        let second = handle.snapshot();
        assert_eq!(second.generation(), first.generation() + 1);
        for node in &nodes {
            assert!(
                shares_tables(first.backend(), second.backend(), node),
                "{node}"
            );
        }

        // A span of a new operation on one node: that node's span and
        // topology tables are written anew, every other node's are shared.
        let novel = &nodes[0];
        let trace_id = TraceId::from_u128(0xfeed);
        let span = Span::builder(trace_id, SpanId::from_u64(1))
            .service(novel.as_str())
            .name("an-operation-never-seen-before")
            .kind(SpanKind::Server)
            .start_time_us(1_000)
            .duration_us(250)
            .build();
        shards[0].ingest_trace(&Trace::from_spans(trace_id, vec![span]).unwrap());
        let new = merger.reconcile(&shards);
        assert_eq!((new.new_span_patterns, new.new_topo_patterns), (1, 1));
        let third = handle.snapshot();
        for node in &nodes {
            let shared = shares_tables(second.backend(), third.backend(), node);
            assert_eq!(shared, node != novel, "{node}");
        }
        let (before, after) = (
            second.backend().catalog(novel).unwrap(),
            third.backend().catalog(novel).unwrap(),
        );
        assert!(!before.spans.shares_patterns_with(&after.spans));
        assert_eq!(after.spans.len(), before.spans.len() + 1);
        // Tables nothing was added to stay shared even on that node.
        assert!(Arc::ptr_eq(&before.templates, &after.templates));
        assert!(!third.query(trace_id).is_miss());
    }

    /// The first `(node, key)` of a shard whose string parser holds a
    /// template with a constant token, and that template's index.
    fn interned_template(shard: &MintDeployment) -> (String, String, usize) {
        let mut nodes: Vec<&String> = shard.agents.keys().collect();
        nodes.sort();
        for node in nodes {
            let parser = shard.agents[node].span_parser();
            for (key, attribute) in parser.attribute_parsers() {
                let AttributeParser::Strings(strings) = attribute else {
                    continue;
                };
                let template = strings.templates().iter().position(|template| {
                    template
                        .tokens()
                        .iter()
                        .any(|token| matches!(token, crate::span_parser::TemplateToken::Const(_)))
                });
                if let Some(index) = template {
                    return (node.clone(), key.to_owned(), index);
                }
            }
        }
        panic!("no interned template with a constant token");
    }

    fn string_parser<'a>(
        shards: &'a mut [MintDeployment],
        node: &str,
        key: &str,
    ) -> &'a mut StringAttributeParser {
        let agent = shards[0].agents.get_mut(node).unwrap();
        agent.span_parser_mut().string_parser_mut(key).unwrap()
    }

    #[test]
    fn rewriting_an_interned_template_rebuilds_exactly_once() {
        let (mut merger, mut shards, _) = reconciled_shard(17);
        let (node, key, index) = interned_template(&shards[0]);
        let parser = string_parser(&mut shards, &node, &key);
        assert!(parser.generalize_template(index, &["an-unrelated-token"]));
        let rewritten = parser.templates()[index].clone();

        let rebuilt = merger.reconcile(&shards);
        assert!(rebuilt.full_rebuild);
        let settled = merger.reconcile(&shards);
        assert!(!settled.full_rebuild);
        assert_eq!(merger.full_rebuilds(), 1);
        let catalog = merger.backend().catalog(&node).unwrap();
        assert_eq!(catalog.templates[&key][index], rewritten);
    }

    #[test]
    fn rewrites_the_watermark_never_saw_rebuild_nothing() {
        let (mut merger, mut shards, _) = reconciled_shard(23);
        let (node, key, index) = interned_template(&shards[0]);

        // A generalization that keeps an interned template's tokens.
        let parser = string_parser(&mut shards, &node, &key);
        let own: Vec<String> = parser.templates()[index]
            .tokens()
            .iter()
            .map(|token| match token {
                crate::span_parser::TemplateToken::Const(text) => text.clone(),
                crate::span_parser::TemplateToken::Var => "x".to_owned(),
            })
            .collect();
        assert!(!parser.generalize_template(index, &own));
        assert!(!merger.reconcile(&shards).full_rebuild);

        // A template learned after the watermark and rewritten before the
        // next merge is interned as it is then.
        let parser = string_parser(&mut shards, &node, &key);
        let (learned, _) = parser.parse("quite novel words nobody generated");
        assert!(parser.generalize_template(learned, &["quite", "other", "words"]));
        let rewritten = parser.templates()[learned].clone();
        let stats = merger.reconcile(&shards);
        assert!(!stats.full_rebuild);
        assert_eq!(stats.new_templates, 1);
        assert_eq!(merger.full_rebuilds(), 0);
        let catalog = merger.backend().catalog(&node).unwrap();
        assert_eq!(catalog.templates[&key].last(), Some(&rewritten));
    }

    /// The interning the content index replaced: the occurrence recounted
    /// over the shard list's prefix, the canonical list scanned for it.
    fn intern_linear(
        canonical: &mut Vec<StringTemplate>,
        list: &[StringTemplate],
        at: usize,
    ) -> usize {
        let template = &list[at];
        let occurrence = list[..at].iter().filter(|t| *t == template).count();
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Satellite: occurrence-aware interning through the content index
        /// assigns every shard entry the canonical index the linear scan
        /// does, on lists full of duplicates, merged across shards and
        /// epochs in any order of growth.
        #[test]
        fn content_indexed_interning_matches_the_linear_scan(
            lists in proptest::collection::vec(proptest::collection::vec(0usize..4, 0..12), 1..4),
            cuts in proptest::collection::vec(0usize..13, 0..4),
        ) {
            let alphabet: Vec<StringTemplate> = ["a", "b <*>", "c d", "<*>"]
                .iter()
                .map(|text| StringTemplate::from_tokens(&crate::lcs::tokenize(text)))
                .collect();
            let lists: Vec<Vec<StringTemplate>> = lists
                .iter()
                .map(|list| list.iter().map(|&i| alphabet[i].clone()).collect())
                .collect();
            let mut epochs = cuts;
            epochs.sort_unstable();
            epochs.push(usize::MAX);

            let (mut linear, mut indexed) = (Vec::new(), Vec::new());
            let mut index = HashMap::new();
            let mut occurrences = vec![HashMap::new(); lists.len()];
            let mut marks = vec![0usize; lists.len()];
            for cut in epochs {
                for (shard, list) in lists.iter().enumerate() {
                    for at in marks[shard]..cut.min(list.len()) {
                        let expected = intern_linear(&mut linear, list, at);
                        let (got, appended) = intern_template(
                            &mut index,
                            &mut occurrences[shard],
                            &list[at],
                            indexed.len(),
                        );
                        if appended {
                            indexed.push(list[at].clone());
                        }
                        prop_assert_eq!(got, expected, "shard {} entry {}", shard, at);
                    }
                    marks[shard] = marks[shard].max(cut.min(list.len()));
                }
            }
            prop_assert_eq!(indexed, linear);
        }
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
