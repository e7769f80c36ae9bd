//! Inter-trace level parsing (§3.3): sub-traces → topology patterns, with
//! trace metadata mounted on each pattern through a Bloom filter.

use crate::config::MintConfig;
use crate::intern::BuildFxHasher;
use mint_bloom::BloomFilter;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use trace_model::{PatternId, SpanId, SubTrace, TraceId};

/// The topology pattern of a sub-trace: which span patterns act as local
/// entries and the parent→children relationships between span patterns
/// (the paper's `[b1e6 → {ek35, mx7v}, ek35 → {p8sz}]` encoding, Fig. 8).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TopoPattern {
    /// Span patterns of the sub-trace's entry (locally parent-less) spans.
    pub entries: Vec<PatternId>,
    /// Parent span pattern → sorted child span patterns.
    pub edges: Vec<(PatternId, Vec<PatternId>)>,
}

impl TopoPattern {
    /// Approximate stored size of the pattern in bytes.
    pub fn stored_size(&self) -> usize {
        16 * self.entries.len()
            + self
                .edges
                .iter()
                .map(|(_, children)| 16 + 16 * children.len())
                .sum::<usize>()
            + 8
    }

    /// Total number of span-pattern references in the topology.
    pub fn node_count(&self) -> usize {
        self.entries.len() + self.edges.iter().map(|(_, c)| c.len()).sum::<usize>()
    }

    /// The `(parent, child)` links of the pattern, in edge order.
    fn links(&self) -> impl Iterator<Item = (PatternId, PatternId)> + '_ {
        self.edges
            .iter()
            .flat_map(|(parent, children)| children.iter().map(|child| (*parent, *child)))
    }
}

/// Appends the flattened form of a topology to `words`: the entry count,
/// the entries, then every `(parent, child)` link.  Two patterns with sorted
/// entries and sorted, grouped edges — what both encoders produce — flatten
/// to the same words exactly when they are equal.
fn flatten_topology(
    words: &mut Vec<u32>,
    entries: &[PatternId],
    links: impl Iterator<Item = (PatternId, PatternId)>,
) {
    // Library-local ids are dense from 1 and fit one word; any other id is
    // escaped so that distinct ids never flatten alike.
    fn push_id(words: &mut Vec<u32>, id: PatternId) {
        match u32::try_from(id.as_u128()) {
            Ok(word) if word != u32::MAX => words.push(word),
            _ => {
                words.push(u32::MAX);
                let id = id.as_u128();
                words.extend((0..4).map(|word| (id >> (32 * word)) as u32));
            }
        }
    }
    words.push(u32::try_from(entries.len()).unwrap_or(u32::MAX));
    for &entry in entries {
        push_id(words, entry);
    }
    for (parent, child) in links {
        push_id(words, parent);
        push_id(words, child);
    }
}

/// The topology of one sub-trace as [`TraceParser::encode_parsed`] leaves it
/// in the parser's scratch: sorted entries, sorted links and their flattened
/// form, which is what [`TopoPatternLibrary::observe_key`] probes with.  The
/// owned [`TopoPattern`] is built from it only for a topology the library has
/// not seen.
pub struct TopoKey<'a> {
    entries: &'a [PatternId],
    links: &'a [(PatternId, PatternId)],
    words: &'a [u32],
}

impl TopoKey<'_> {
    /// The owned pattern this key stands for.
    pub fn to_pattern(&self) -> TopoPattern {
        let same_parent = |a: &(PatternId, PatternId), b: &(PatternId, PatternId)| a.0 == b.0;
        TopoPattern {
            entries: self.entries.into(),
            edges: self
                .links
                .chunk_by(same_parent)
                .map(|group| (group[0].0, group.iter().map(|link| link.1).collect()))
                .collect(),
        }
    }
}

impl PartialEq<TopoPattern> for TopoKey<'_> {
    fn eq(&self, other: &TopoPattern) -> bool {
        self.entries == other.entries && self.links.iter().copied().eq(other.links())
    }
}

impl fmt::Debug for TopoKey<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.to_pattern().fmt(f)
    }
}

/// What the topology encoder reads of one parsed span.
#[derive(Debug, Clone, Copy)]
pub struct ParsedSpan {
    /// The span's id.
    pub span_id: SpanId,
    /// The parent span id.
    pub parent_id: SpanId,
    /// The span pattern the span parser assigned.
    pub pattern: PatternId,
}

/// The inter-trace level parser: encodes sub-traces into topology patterns.
///
/// It owns the working memory of [`TraceParser::encode_parsed`] and what it
/// returns borrows from it, so encoding allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct TraceParser {
    /// `(span id, position)` of the sub-trace's spans, sorted, for the
    /// parent lookup.
    positions: Vec<(SpanId, u32)>,
    /// Patterns of the locally parent-less spans.
    entries: Vec<PatternId>,
    /// `(parent pattern, child pattern)` of every local parent→child link.
    links: Vec<(PatternId, PatternId)>,
    /// The flattened form of `entries` and `links`.
    words: Vec<u32>,
}

impl TraceParser {
    /// Creates a trace parser.
    pub fn new() -> Self {
        TraceParser::default()
    }

    /// Encodes the topology of `sub_trace`, using `pattern_of` to map each
    /// local span id to its span pattern id (produced by the span parser).
    ///
    /// Spans missing from `pattern_of` are left out as if the node had not
    /// observed them — in a live system this cannot happen because every
    /// span is parsed before grouping.  An owned convenience over
    /// [`Self::encode_parsed`], which is what the agent calls.
    pub fn encode(
        &self,
        sub_trace: &SubTrace,
        pattern_of: &HashMap<SpanId, PatternId>,
    ) -> TopoPattern {
        let parsed: Vec<ParsedSpan> = sub_trace
            .spans()
            .iter()
            .filter_map(|span| {
                Some(ParsedSpan {
                    span_id: span.span_id(),
                    parent_id: span.parent_id(),
                    pattern: *pattern_of.get(&span.span_id())?,
                })
            })
            .collect();
        TraceParser::new().encode_parsed(&parsed).to_pattern()
    }

    /// Encodes the topology of the spans one node observed for one trace,
    /// given positionally with the pattern each was parsed into.
    pub fn encode_parsed(&mut self, spans: &[ParsedSpan]) -> TopoKey<'_> {
        self.positions.clear();
        self.positions.extend(
            spans
                .iter()
                .zip(0u32..)
                .map(|(span, at)| (span.span_id, at)),
        );
        self.positions.sort_unstable();
        let position_of = |id: SpanId| {
            let found = self.positions.binary_search_by_key(&id, |&(id, _)| id);
            found.ok().map(|index| self.positions[index].1 as usize)
        };

        self.entries.clear();
        self.links.clear();
        for span in spans {
            let parent = position_of(span.parent_id);
            if !span.parent_id.is_valid() || parent.is_none() {
                self.entries.push(span.pattern);
            }
            if let Some(parent) = parent {
                self.links.push((spans[parent].pattern, span.pattern));
            }
        }
        self.entries.sort_unstable();
        self.links.sort_unstable();
        self.words.clear();
        flatten_topology(&mut self.words, &self.entries, self.links.iter().copied());
        TopoKey {
            entries: &self.entries,
            links: &self.links,
            words: &self.words,
        }
    }
}

/// What happened when a sub-trace was mounted onto the topology library.
#[derive(Debug, Clone, PartialEq)]
pub struct ObserveOutcome {
    /// Id of the (new or existing) topology pattern.
    pub topo_id: PatternId,
    /// Whether the pattern was newly created.
    pub is_new_pattern: bool,
    /// A Bloom filter that reached its capacity and was flushed for upload,
    /// if any.
    pub flushed_bloom: Option<BloomFilter>,
    /// How many sub-traces have matched this pattern so far (including this
    /// one) — the signal the edge-case sampler uses.
    pub match_count: u64,
}

#[derive(Debug, Clone)]
struct TopoEntry {
    pattern: TopoPattern,
    bloom: BloomFilter,
    matches: u64,
}

/// The Topo Pattern Library: topology patterns plus, for each pattern, a
/// Bloom filter holding the trace ids mounted on it (§3.3 "Metadata
/// Mounting", §4.1 "Pattern Library").
#[derive(Debug, Clone)]
pub struct TopoPatternLibrary {
    /// Flattened topology (see [`TopoKey`]) → index into `entries`.  The
    /// words are pattern ids this node assigned, not input, hence the
    /// deterministic hasher.
    by_pattern: HashMap<Box<[u32]>, usize, BuildFxHasher>,
    entries: Vec<TopoEntry>,
    /// The sum of every entry's `matches`.
    total_matches: u64,
    bloom_buffer_bytes: usize,
    bloom_fpp: f64,
    flushed_blooms: u64,
}

impl TopoPatternLibrary {
    /// Creates an empty library configured from `config`.
    pub fn new(config: &MintConfig) -> Self {
        TopoPatternLibrary {
            by_pattern: HashMap::default(),
            entries: Vec::new(),
            total_matches: 0,
            bloom_buffer_bytes: config.bloom_buffer_bytes,
            bloom_fpp: config.bloom_fpp,
            flushed_blooms: 0,
        }
    }

    /// Number of distinct topology patterns.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the library is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of Bloom filters that filled up and were flushed.
    pub fn flushed_blooms(&self) -> u64 {
        self.flushed_blooms
    }

    /// Mounts `trace_id` onto the pattern, creating the pattern if needed.
    /// The owned form of [`Self::observe_key`].
    pub fn observe(&mut self, pattern: TopoPattern, trace_id: TraceId) -> ObserveOutcome {
        let mut words = Vec::new();
        flatten_topology(&mut words, &pattern.entries, pattern.links());
        self.mount(&words, || pattern, trace_id)
    }

    /// Mounts `trace_id` onto the topology `key` stands for, which becomes an
    /// owned pattern only if the library has not seen it.
    pub fn observe_key(&mut self, key: &TopoKey<'_>, trace_id: TraceId) -> ObserveOutcome {
        self.mount(key.words, || key.to_pattern(), trace_id)
    }

    fn mount(
        &mut self,
        words: &[u32],
        pattern: impl FnOnce() -> TopoPattern,
        trace_id: TraceId,
    ) -> ObserveOutcome {
        let (index, is_new) = match self.by_pattern.get(words) {
            Some(&index) => (index, false),
            None => (self.add_pattern(words, pattern()), true),
        };
        let entry = &mut self.entries[index];
        entry.matches += 1;
        self.total_matches += 1;
        entry.bloom.insert(&trace_id.as_u128());
        let flushed_bloom = if entry.bloom.is_full() {
            // A full filter leaves for upload once per `capacity` mounts;
            // the copy is the upload.
            let full = entry.bloom.clone();
            entry.bloom.reset();
            self.flushed_blooms += 1;
            Some(full)
        } else {
            None
        };
        ObserveOutcome {
            topo_id: PatternId::from_u128(index as u128 + 1),
            is_new_pattern: is_new,
            flushed_bloom,
            match_count: entry.matches,
        }
    }

    /// Cold half of [`Self::mount`]: the probe missed.
    fn add_pattern(&mut self, words: &[u32], pattern: TopoPattern) -> usize {
        let index = self.entries.len();
        self.by_pattern.insert(words.into(), index);
        self.entries.push(TopoEntry {
            pattern,
            bloom: BloomFilter::with_byte_budget(self.bloom_buffer_bytes, self.bloom_fpp),
            matches: 0,
        });
        index
    }

    /// The pattern stored under `id`.
    pub fn get(&self, id: PatternId) -> Option<&TopoPattern> {
        let index = id.as_u128().checked_sub(1)? as usize;
        self.entries.get(index).map(|e| &e.pattern)
    }

    /// How many sub-traces have matched pattern `id`.
    pub fn match_count(&self, id: PatternId) -> u64 {
        id.as_u128()
            .checked_sub(1)
            .and_then(|i| self.entries.get(i as usize))
            .map(|e| e.matches)
            .unwrap_or(0)
    }

    /// Total matches across all patterns.
    pub fn total_matches(&self) -> u64 {
        self.total_matches
    }

    /// Iterates over `(id, pattern, match_count)`.
    pub fn iter(&self) -> impl Iterator<Item = (PatternId, &TopoPattern, u64)> {
        self.entries
            .iter()
            .enumerate()
            .map(|(i, e)| (PatternId::from_u128(i as u128 + 1), &e.pattern, e.matches))
    }

    /// The current (partial, non-empty) Bloom filters, borrowed, as
    /// `(pattern id, match count, filter)`.  The incremental merge publishes
    /// every shard's mounted metadata from these while leaving the shard's
    /// own state untouched; a filter whose pattern's match count has not
    /// moved since it last looked holds no new trace id, so only the others
    /// are copied.
    pub fn partial_blooms(&self) -> impl Iterator<Item = (PatternId, u64, &BloomFilter)> {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, entry)| !entry.bloom.is_empty())
            .map(|(i, entry)| {
                (
                    PatternId::from_u128(i as u128 + 1),
                    entry.matches,
                    &entry.bloom,
                )
            })
    }

    /// Drains the current (partial) Bloom filters for a final upload,
    /// returning `(pattern id, filter)` pairs for non-empty filters.
    pub fn drain_partial_blooms(&mut self) -> Vec<(PatternId, BloomFilter)> {
        let mut out = Vec::new();
        for (i, entry) in self.entries.iter_mut().enumerate() {
            if !entry.bloom.is_empty() {
                let bloom = entry.bloom.clone();
                entry.bloom.reset();
                out.push((PatternId::from_u128(i as u128 + 1), bloom));
            }
        }
        out
    }

    /// Bytes needed to store all topology patterns (without Bloom filters).
    pub fn stored_size(&self) -> usize {
        self.entries.iter().map(|e| e.pattern.stored_size()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace_model::{Span, SpanKind};

    fn sub_trace(trace: u128, shape: &[(u64, u64)]) -> (SubTrace, HashMap<SpanId, PatternId>) {
        // shape: (span id, parent id); pattern id = span id % 3 + 1 for variety.
        let tid = TraceId::from_u128(trace);
        let spans: Vec<Span> = shape
            .iter()
            .map(|&(id, parent)| {
                Span::builder(tid, SpanId::from_u64(id))
                    .parent(SpanId::from_u64(parent))
                    .service("svc")
                    .name(format!("op{}", id % 3))
                    .kind(SpanKind::Server)
                    .build()
            })
            .collect();
        let mapping = shape
            .iter()
            .map(|&(id, _)| {
                (
                    SpanId::from_u64(id),
                    PatternId::from_u128((id % 3 + 1) as u128),
                )
            })
            .collect();
        (SubTrace::new(tid, "svc", spans), mapping)
    }

    fn default_library() -> TopoPatternLibrary {
        TopoPatternLibrary::new(&MintConfig::default())
    }

    #[test]
    fn encode_captures_edges_and_entries() {
        let (sub, mapping) = sub_trace(1, &[(1, 0), (2, 1), (3, 1)]);
        let pattern = TraceParser::new().encode(&sub, &mapping);
        assert_eq!(pattern.entries, vec![PatternId::from_u128(2)]); // span 1 -> 1%3+1 = 2
        assert_eq!(pattern.edges.len(), 1);
        let (parent, children) = &pattern.edges[0];
        assert_eq!(*parent, PatternId::from_u128(2));
        assert_eq!(children.len(), 2);
        assert!(pattern.node_count() >= 3);
    }

    #[test]
    fn same_shape_same_pattern() {
        let parser = TraceParser::new();
        let (a, ma) = sub_trace(1, &[(1, 0), (2, 1), (3, 1)]);
        let (b, mb) = sub_trace(2, &[(1, 0), (2, 1), (3, 1)]);
        assert_eq!(parser.encode(&a, &ma), parser.encode(&b, &mb));
    }

    #[test]
    fn different_shape_different_pattern() {
        let parser = TraceParser::new();
        let (a, ma) = sub_trace(1, &[(1, 0), (2, 1), (3, 1)]);
        let (b, mb) = sub_trace(2, &[(1, 0), (2, 1), (3, 2)]);
        assert_ne!(parser.encode(&a, &ma), parser.encode(&b, &mb));
    }

    #[test]
    fn library_aggregates_matches() {
        let parser = TraceParser::new();
        let mut library = default_library();
        for trace in 1..=10u128 {
            let (sub, mapping) = sub_trace(trace, &[(1, 0), (2, 1), (3, 1)]);
            let outcome = library.observe(parser.encode(&sub, &mapping), TraceId::from_u128(trace));
            assert_eq!(outcome.is_new_pattern, trace == 1);
            assert_eq!(outcome.match_count, trace as u64);
        }
        assert_eq!(library.len(), 1);
        assert_eq!(library.total_matches(), 10);
        assert_eq!(library.match_count(PatternId::from_u128(1)), 10);
        assert_eq!(library.match_count(PatternId::from_u128(9)), 0);
    }

    #[test]
    fn total_matches_is_the_sum_over_patterns() {
        let parser = TraceParser::new();
        let mut library = default_library();
        let summed = |library: &TopoPatternLibrary| library.iter().map(|(_, _, n)| n).sum::<u64>();
        assert_eq!(library.total_matches(), 0);
        for trace in 1..=30u128 {
            let shape: &[(u64, u64)] = match trace % 3 {
                0 => &[(1, 0), (2, 1), (3, 1)],
                1 => &[(1, 0), (2, 1), (3, 2)],
                _ => &[(1, 0)],
            };
            let (sub, mapping) = sub_trace(trace, shape);
            library.observe(parser.encode(&sub, &mapping), TraceId::from_u128(trace));
            assert_eq!(library.total_matches(), trace as u64);
            assert_eq!(library.total_matches(), summed(&library));
        }
        assert_eq!(library.len(), 3);
        let mut copy = library.clone();
        assert_eq!(copy.total_matches(), summed(&copy));
        let (sub, mapping) = sub_trace(31, &[(1, 0)]);
        copy.observe(parser.encode(&sub, &mapping), TraceId::from_u128(31));
        assert_eq!((copy.total_matches(), library.total_matches()), (31, 30));
        assert_eq!(copy.total_matches(), summed(&copy));
    }

    #[test]
    fn keys_and_owned_patterns_mount_alike() {
        // The flattened probe and the owned adapter share one library: the
        // same topology gets the same id whichever way it arrives, ids that
        // do not fit a word included.
        let parsed = |ids: &[(u64, u64, u128)]| -> Vec<ParsedSpan> {
            ids.iter()
                .map(|&(id, parent, pattern)| ParsedSpan {
                    span_id: SpanId::from_u64(id),
                    parent_id: SpanId::from_u64(parent),
                    pattern: PatternId::from_u128(pattern),
                })
                .collect()
        };
        let shapes = [
            parsed(&[(1, 0, 2), (2, 1, 3), (3, 1, 3)]),
            parsed(&[(1, 0, 2), (2, 1, 3), (3, 2, 3)]),
            parsed(&[(1, 0, u128::from(u32::MAX)), (2, 1, 1 << 40)]),
            parsed(&[(1, 0, u128::from(u32::MAX)), (2, 1, 1 << 41)]),
            parsed(&[]),
        ];
        let mut parser = TraceParser::new();
        let mut library = default_library();
        for (index, shape) in shapes.iter().enumerate() {
            let key = parser.encode_parsed(shape);
            let by_key = library.observe_key(&key, TraceId::from_u128(1));
            assert!(by_key.is_new_pattern, "shape {index}");
            let pattern = key.to_pattern();
            assert_eq!(key, pattern);
            assert_eq!(library.get(by_key.topo_id), Some(&pattern));
            let by_pattern = library.observe(pattern, TraceId::from_u128(2));
            assert_eq!(by_pattern.topo_id, by_key.topo_id);
            assert_eq!(by_pattern.match_count, 2);
        }
        assert_eq!(library.len(), shapes.len());
    }

    #[test]
    fn bloom_flushes_when_full() {
        let config = MintConfig {
            bloom_buffer_bytes: 64, // tiny filter so it fills quickly
            ..MintConfig::default()
        };
        let parser = TraceParser::new();
        let mut library = TopoPatternLibrary::new(&config);
        let mut flushed = 0;
        for trace in 1..=2_000u128 {
            let (sub, mapping) = sub_trace(trace, &[(1, 0), (2, 1)]);
            let outcome = library.observe(parser.encode(&sub, &mapping), TraceId::from_u128(trace));
            if outcome.flushed_bloom.is_some() {
                flushed += 1;
            }
        }
        assert!(flushed > 0);
        assert_eq!(library.flushed_blooms(), flushed);
    }

    #[test]
    fn drain_partial_blooms_returns_remaining_metadata() {
        let parser = TraceParser::new();
        let mut library = default_library();
        let (sub, mapping) = sub_trace(7, &[(1, 0)]);
        library.observe(parser.encode(&sub, &mapping), TraceId::from_u128(7));
        let drained = library.drain_partial_blooms();
        assert_eq!(drained.len(), 1);
        assert!(drained[0].1.contains(&7u128));
        // Second drain has nothing.
        assert!(library.drain_partial_blooms().is_empty());
    }

    #[test]
    fn library_lookup_and_sizes() {
        let parser = TraceParser::new();
        let mut library = default_library();
        let (sub, mapping) = sub_trace(1, &[(1, 0), (2, 1)]);
        let outcome = library.observe(parser.encode(&sub, &mapping), TraceId::from_u128(1));
        assert!(library.get(outcome.topo_id).is_some());
        assert!(library.get(PatternId::from_u128(50)).is_none());
        assert!(library.stored_size() > 0);
        assert!(!library.is_empty());
        assert_eq!(library.iter().count(), 1);
    }

    #[test]
    fn missing_pattern_mapping_skips_span() {
        let parser = TraceParser::new();
        let (sub, mut mapping) = sub_trace(1, &[(1, 0), (2, 1)]);
        mapping.remove(&SpanId::from_u64(2));
        let pattern = parser.encode(&sub, &mapping);
        assert_eq!(pattern.node_count(), 1);
        assert!(pattern.edges.is_empty());
    }
}
