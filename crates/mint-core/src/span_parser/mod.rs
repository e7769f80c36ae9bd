//! Inter-span level parsing (§3.2): spans → span patterns + parameters.
//!
//! The [`SpanParser`] owns one [`AttributeParser`](attribute::AttributeParser)
//! per attribute key plus a numeric bucketer for span durations.  Parsing a
//! span yields the id of its [`SpanPattern`] (registered in the
//! [`SpanPatternLibrary`] the first time it is seen) and writes the span's
//! variable parameters as one record of a
//! [`ParamsWriter`].  A read-only [`PatternCatalog`]
//! snapshot of everything the parser has learned is what the collector ships
//! to the backend, and what the backend uses to reconstruct exact or
//! approximate spans at query time.

mod attribute;
mod numeric;
mod offline;
mod template;

pub use attribute::{
    AttrPattern, AttributeParser, ParseScratch, PrefixIndex, StringAttributeParser,
};
pub use numeric::{NumericBucketer, NON_POSITIVE_BUCKET};
pub use offline::cluster_strings;
pub(crate) use template::match_slots;
pub use template::{StringTemplate, TemplateToken};

use crate::config::MintConfig;
use crate::intern::{BuildFxHasher, Interner};
use crate::params::{ParamRef, ParamsWriter, SpanParams, SpanRecord};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;
use trace_model::{AttrValue, Attributes, PatternId, Span, SpanKind, SpanStatus, TraceId};

/// A span pattern: the commonality part of a span (§3.2.1 "Patterns
/// combination") — the service, operation, kind and the per-attribute
/// pattern references that always appear together.
///
/// Span durations are *not* part of the pattern identity (they are stored as
/// a bucket + offset parameter); the library instead tracks per-pattern
/// duration statistics so approximate traces can still report a duration
/// range without wide-latency operations splintering into one pattern per
/// bucket.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SpanPattern {
    /// The service that produced spans of this pattern.
    pub service: String,
    /// The operation (span) name.
    pub name: String,
    /// The span kind.
    pub kind: SpanKind,
    /// Per-attribute pattern components, ordered by key.
    pub attrs: Vec<(String, AttrPattern)>,
}

impl SpanPattern {
    /// Approximate number of bytes the pattern occupies in the library.
    pub fn stored_size(&self) -> usize {
        16 + self.service.len()
            + self.name.len()
            + self.attrs.iter().map(|(k, _)| k.len() + 10).sum::<usize>()
    }
}

/// Per-pattern duration statistics, maintained so that approximate traces
/// can report a duration range for unsampled spans.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DurationStats {
    /// Number of spans observed for the pattern.
    pub count: u64,
    /// Minimum observed duration in microseconds.
    pub min_us: u64,
    /// Maximum observed duration in microseconds.
    pub max_us: u64,
    /// Sum of observed durations (for the mean).
    pub sum_us: u64,
}

impl DurationStats {
    fn observe(&mut self, duration_us: u64) {
        self.count += 1;
        self.min_us = self.min_us.min(duration_us);
        self.max_us = self.max_us.max(duration_us);
        self.sum_us += duration_us;
    }

    /// Folds another statistic into this one (used when merging per-shard
    /// pattern libraries: every span is observed by exactly one shard, so the
    /// merged statistic equals the one a serial deployment would compute).
    pub fn merge(&mut self, other: &DurationStats) {
        self.count += other.count;
        self.min_us = self.min_us.min(other.min_us);
        self.max_us = self.max_us.max(other.max_us);
        self.sum_us += other.sum_us;
    }

    /// The mean observed duration.
    pub fn mean_us(&self) -> u64 {
        self.sum_us.checked_div(self.count).unwrap_or(0)
    }
}

impl Default for DurationStats {
    fn default() -> Self {
        DurationStats {
            count: 0,
            min_us: u64::MAX,
            max_us: 0,
            sum_us: 0,
        }
    }
}

/// The patterns of a [`SpanPatternLibrary`] by id and by content.  Every
/// catalog taken from the library shares it, and the library writes it
/// copy-on-write, so a table is copied only when a pattern is added while a
/// catalog still holds it.
#[derive(Debug, Clone, Default, PartialEq)]
struct PatternTable {
    by_pattern: HashMap<SpanPattern, PatternId>,
    by_id: Vec<SpanPattern>,
}

impl PatternTable {
    /// Appends a pattern the table does not hold and returns its id.
    fn push(&mut self, pattern: SpanPattern) -> PatternId {
        let id = PatternId::from_u128(self.by_id.len() as u128 + 1);
        self.by_pattern.insert(pattern.clone(), id);
        self.by_id.push(pattern);
        id
    }
}

/// The library of span patterns discovered so far, mapping each pattern to a
/// stable [`PatternId`] and tracking per-pattern duration statistics.
///
/// The pattern table is shared (see `PatternTable`); the duration statistics,
/// which change with every span, sit beside it.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SpanPatternLibrary {
    table: Arc<PatternTable>,
    durations: Vec<DurationStats>,
}

impl SpanPatternLibrary {
    /// Creates an empty library.
    pub fn new() -> Self {
        SpanPatternLibrary::default()
    }

    /// Returns the id for `pattern`, inserting it if new, and records the
    /// observed span duration against it.
    /// The boolean is `true` when the pattern was newly inserted.
    pub fn get_or_insert(&mut self, pattern: SpanPattern, duration_us: u64) -> (PatternId, bool) {
        if let Some(&id) = self.table.by_pattern.get(&pattern) {
            let index = (id.as_u128() - 1) as usize;
            self.durations[index].observe(duration_us);
            return (id, false);
        }
        let id = Arc::make_mut(&mut self.table).push(pattern);
        let mut stats = DurationStats::default();
        stats.observe(duration_us);
        self.durations.push(stats);
        (id, true)
    }

    /// Records one more span of `duration_us` against the known pattern `id`
    /// (no-op for an unknown id).
    pub(crate) fn observe_duration(&mut self, id: PatternId, duration_us: u64) {
        if let Some(index) = id.as_u128().checked_sub(1) {
            if let Some(stats) = self.durations.get_mut(index as usize) {
                stats.observe(duration_us);
            }
        }
    }

    /// Inserts `pattern` (if new) and folds `stats` into its duration
    /// statistics.  Used to merge shard-local libraries into a canonical one:
    /// ids are assigned in absorption order, so callers must record the
    /// returned id to remap shard-local references.
    pub fn absorb(&mut self, pattern: SpanPattern, stats: DurationStats) -> PatternId {
        if let Some(&id) = self.table.by_pattern.get(&pattern) {
            let index = (id.as_u128() - 1) as usize;
            self.durations[index].merge(&stats);
            return id;
        }
        let id = Arc::make_mut(&mut self.table).push(pattern);
        self.durations.push(stats);
        id
    }

    /// Looks up a pattern by id.
    pub fn get(&self, id: PatternId) -> Option<&SpanPattern> {
        let index = id.as_u128().checked_sub(1)? as usize;
        self.table.by_id.get(index)
    }

    /// The duration statistics recorded for a pattern.
    pub fn duration_stats(&self, id: PatternId) -> Option<DurationStats> {
        let index = id.as_u128().checked_sub(1)? as usize;
        self.durations.get(index).copied()
    }

    /// The duration statistics of every pattern, in id order.
    pub(crate) fn durations(&self) -> &[DurationStats] {
        &self.durations
    }

    /// This library's patterns with `durations` beside them (one statistic
    /// per pattern, in id order): the table is shared, not copied.  The
    /// incremental merge publishes its canonical patterns this way, with
    /// statistics refolded from the shards.
    pub(crate) fn with_durations(&self, durations: Vec<DurationStats>) -> SpanPatternLibrary {
        debug_assert_eq!(durations.len(), self.len());
        SpanPatternLibrary {
            table: Arc::clone(&self.table),
            durations,
        }
    }

    /// Whether the two libraries share one pattern table.
    #[cfg(test)]
    pub(crate) fn shares_patterns_with(&self, other: &SpanPatternLibrary) -> bool {
        Arc::ptr_eq(&self.table, &other.table)
    }

    /// Number of patterns in the library.
    pub fn len(&self) -> usize {
        self.table.by_id.len()
    }

    /// Whether the library is empty.
    pub fn is_empty(&self) -> bool {
        self.table.by_id.is_empty()
    }

    /// Iterates over `(id, pattern)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (PatternId, &SpanPattern)> {
        self.table
            .by_id
            .iter()
            .enumerate()
            .map(|(i, p)| (PatternId::from_u128(i as u128 + 1), p))
    }

    /// Total bytes of all stored patterns (duration statistics included).
    pub fn stored_size(&self) -> usize {
        self.table
            .by_id
            .iter()
            .map(SpanPattern::stored_size)
            .sum::<usize>()
            + self.durations.len() * 16
    }
}

/// A read-only snapshot of everything the span parser has learned: span
/// patterns, string templates and numeric bucketers.  This is the
/// "Pattern Library" payload the collector periodically uploads, and the
/// backend's dictionary for reconstructing spans.
///
/// The pattern tables are behind [`Arc`]s, so catalogs that differ only in
/// duration statistics — consecutive epochs of one merged node — share them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PatternCatalog {
    /// The span pattern library.
    pub spans: SpanPatternLibrary,
    /// String templates per attribute key.
    pub templates: Arc<HashMap<String, Vec<StringTemplate>>>,
    /// Numeric bucketers per attribute key.
    pub bucketers: Arc<HashMap<String, NumericBucketer>>,
    /// Bucketer used for span durations.
    pub duration_bucketer: NumericBucketer,
}

impl PatternCatalog {
    /// Total bytes occupied by the catalog when uploaded/stored.
    pub fn stored_size(&self) -> usize {
        self.spans.stored_size()
            + self
                .templates
                .values()
                .flat_map(|ts| ts.iter().map(StringTemplate::stored_size))
                .sum::<usize>()
            + self.bucketers.len() * 16
            + 16
    }

    /// Reconstructs the exact span `params` describes (pattern +
    /// variability), reading the record where it lies, or `None` if the
    /// pattern id is unknown.
    pub fn reconstruct_span(&self, trace_id: TraceId, params: &SpanRecord<'_>) -> Option<Span> {
        let pattern = self.spans.get(params.pattern())?;
        let mut attributes = Attributes::with_capacity(pattern.attrs.len());
        let mut values = params.params();
        for (key, attr_pattern) in &pattern.attrs {
            let value = self.reconstruct_attr(key, attr_pattern, values.next());
            attributes.insert(key.clone(), value);
        }
        let duration = self
            .duration_bucketer
            .reconstruct(params.duration_bucket(), params.duration_offset())
            .max(0.0)
            .round() as u64;
        let span = Span::builder(trace_id, params.span_id())
            .parent(params.parent_id())
            .name(pattern.name.clone())
            .service(pattern.service.clone())
            .kind(pattern.kind)
            .start_time_us(params.start_time_us())
            .duration_us(duration)
            .status(if params.status_error() {
                SpanStatus::Error
            } else {
                SpanStatus::Ok
            })
            .attributes(attributes)
            .build();
        Some(span)
    }

    /// The exact value of the attribute `key` whose pattern component is
    /// `pattern` and whose parameter is `param`.
    fn reconstruct_attr(
        &self,
        key: &str,
        pattern: &AttrPattern,
        param: Option<ParamRef<'_>>,
    ) -> AttrValue {
        let template = |template_id: usize| self.templates.get(key)?.get(template_id);
        match (pattern, param) {
            (AttrPattern::Template { template_id }, Some(ParamRef::StrVars(vars))) => {
                AttrValue::Str(match template(*template_id) {
                    Some(template) => template.reconstruct_from(vars),
                    None => vars.collect::<Vec<_>>().join(" "),
                })
            }
            (AttrPattern::Template { template_id }, _) => AttrValue::Str(
                template(*template_id).map_or_else(|| "<*>".to_owned(), StringTemplate::masked),
            ),
            (AttrPattern::Numeric, Some(ParamRef::Num { bucket, offset })) => {
                let bucketer = self.bucketers.get(key).copied().unwrap_or_default();
                AttrValue::Float(bucketer.reconstruct(bucket, offset))
            }
            (AttrPattern::Numeric, _) => AttrValue::Str("<num>".to_owned()),
            (AttrPattern::Flag, Some(ParamRef::Bool(b))) => AttrValue::Bool(b),
            (AttrPattern::Flag, Some(ParamRef::Raw(value))) => value,
            (AttrPattern::Flag, _) => AttrValue::Str("<*>".to_owned()),
        }
    }

    /// Renders the masked (approximate) value of every attribute of a span
    /// pattern, as shown in the paper's Fig. 10: string variables become
    /// `<*>`, numeric values become their bucket interval.
    pub fn masked_attributes(&self, pattern_id: PatternId) -> Vec<(String, String)> {
        let Some(pattern) = self.spans.get(pattern_id) else {
            return Vec::new();
        };
        pattern
            .attrs
            .iter()
            .map(|(key, attr_pattern)| {
                let rendered = match attr_pattern {
                    AttrPattern::Template { template_id } => self
                        .templates
                        .get(key)
                        .and_then(|ts| ts.get(*template_id))
                        .map(|t| t.masked())
                        .unwrap_or_else(|| "<*>".to_owned()),
                    AttrPattern::Numeric => "<num>".to_owned(),
                    AttrPattern::Flag => "<*>".to_owned(),
                };
                (key.clone(), rendered)
            })
            .collect()
    }
}

/// One attribute key's parser, stored at index `key id - 1`.
#[derive(Debug, Clone)]
struct KeyedParser {
    key: String,
    parser: AttributeParser,
}

/// The inter-span level parser (§3.2).
///
/// Attribute keys, service and operation names are resolved to dense `u32`
/// ids on first sight, so a span whose pattern already exists is recognised
/// by probing `pattern_ids` with an integer slice assembled in `scratch` —
/// no string is owned and no [`SpanPattern`] is built for it.  The id tables
/// hash with the deterministic [`BuildFxHasher`], like the token interner:
/// the keys come from the instrumented application, not from its users.
#[derive(Debug, Clone)]
pub struct SpanParser {
    threshold: f64,
    alpha: f64,
    /// Attribute key → id; `attr_parsers[id - 1]` is the key's parser.
    keys: Interner,
    attr_parsers: Vec<KeyedParser>,
    /// Service and operation names → id (one namespace: the two sit at
    /// different positions of the probe).
    names: Interner,
    /// `[service, name, kind, (key, attr pattern)…]` → pattern id, mirroring
    /// `library` one to one.
    pattern_ids: HashMap<Box<[u32]>, PatternId, BuildFxHasher>,
    duration_bucketer: NumericBucketer,
    library: SpanPatternLibrary,
    parsed_spans: u64,
    scratch: ParseScratch,
    /// What the owned [`Self::parse`] writes its one record into.
    owned: ParamsWriter,
}

impl SpanParser {
    /// Creates a parser from a Mint configuration.
    pub fn new(config: &MintConfig) -> Self {
        SpanParser {
            threshold: config.similarity_threshold,
            alpha: config.numeric_precision,
            keys: Interner::new(),
            attr_parsers: Vec::new(),
            names: Interner::new(),
            pattern_ids: HashMap::default(),
            duration_bucketer: NumericBucketer::from_alpha(config.numeric_precision),
            library: SpanPatternLibrary::new(),
            parsed_spans: 0,
            scratch: ParseScratch::default(),
            owned: ParamsWriter::default(),
        }
    }

    /// The id of attribute `key`, creating the parser that fits `value` the
    /// first time the key is seen.
    fn key_id(&mut self, key: &str, value: &AttrValue) -> u32 {
        let id = self.keys.intern(key);
        if id as usize > self.attr_parsers.len() {
            self.add_parser(key, value);
        }
        id
    }

    /// Cold half of [`Self::key_id`]: ids are dense, so a new key's id is
    /// the next index.  Kept out of line, so that `key_id` stays small
    /// enough to be inlined into `parse_into`.
    #[cold]
    fn add_parser(&mut self, key: &str, value: &AttrValue) {
        self.attr_parsers.push(KeyedParser {
            key: key.to_owned(),
            parser: AttributeParser::for_value(value, self.threshold, self.alpha),
        });
    }

    /// Offline warm-up (§3.2.1): builds the initial attribute parsers from a
    /// sample of raw spans so the online phase does not start cold.
    pub fn warm_up(&mut self, spans: &[Span]) {
        // Greedy-leader clustering is O(values × clusters); a few hundred
        // values per attribute are plenty to discover its templates, so the
        // per-key sample is capped to keep warm-up cheap.
        const MAX_VALUES_PER_KEY: usize = 256;
        // Collect string values per key id, then cluster them into templates.
        let mut string_values: Vec<Vec<&str>> = Vec::new();
        for span in spans {
            for (key, value) in span.attributes().iter() {
                let index = self.key_id(key, value) as usize - 1;
                if let AttrValue::Str(s) = value {
                    if string_values.len() <= index {
                        string_values.resize_with(index + 1, Vec::new);
                    }
                    if string_values[index].len() < MAX_VALUES_PER_KEY {
                        string_values[index].push(s.as_str());
                    }
                }
            }
        }
        // A key that held a string anywhere in the sample gets a fresh string
        // parser, whatever its first value was.
        for (index, values) in string_values.iter().enumerate() {
            if values.is_empty() {
                continue;
            }
            let mut parser = StringAttributeParser::new(self.threshold);
            if let AttributeParser::Strings(previous) = &self.attr_parsers[index].parser {
                // Replacing a key's templates rewrites them in place.
                parser.succeed(previous);
            }
            for template in cluster_strings(values, self.threshold) {
                parser.add_template(template);
            }
            self.attr_parsers[index].parser = AttributeParser::Strings(parser);
        }
    }

    /// Parses one span into its pattern id and variable parameters.
    /// The boolean is `true` when a new span pattern was created.  An owned
    /// convenience over [`Self::parse_into`]: the record is written into the
    /// parser's own writer and decoded.
    #[expect(
        clippy::expect_used,
        reason = "`parse_into` has just closed the record `last_record` reads"
    )]
    pub fn parse(&mut self, span: &Span) -> (PatternId, SpanParams, bool) {
        let mut writer = std::mem::take(&mut self.owned);
        writer.begin_block(span.trace_id());
        let (pattern_id, is_new) = self.parse_into(span, &mut writer);
        let params = writer.last_record().map(|record| record.to_params());
        self.owned = writer;
        (pattern_id, params.expect("a record was written"), is_new)
    }

    /// Parses one span into its pattern id, writing its variable parameters
    /// as the next record of `writer`'s block.  The boolean is `true` when a
    /// new span pattern was created.  Nothing is allocated for a span whose
    /// pattern and templates are known.
    pub fn parse_into(&mut self, span: &Span, writer: &mut ParamsWriter) -> (PatternId, bool) {
        self.parsed_spans += 1;
        writer.begin_span(
            span.span_id(),
            span.parent_id(),
            span.start_time_us(),
            self.duration_bucketer.parse(span.duration_us() as f64),
            span.status().is_error(),
        );
        self.scratch.pattern_key.clear();
        let (service, name) = (
            self.names.intern(span.service()),
            self.names.intern(span.name()),
        );
        self.scratch
            .pattern_key
            .extend([service, name, span.kind() as u32]);
        for (key, value) in span.attributes().iter() {
            let key_id = self.key_id(key, value);
            let parser = &mut self.attr_parsers[key_id as usize - 1].parser;
            let pattern = parser.parse_into(value, &mut self.scratch, writer);
            self.scratch.pattern_key.extend([key_id, pattern.code()]);
        }
        let (pattern_id, is_new) = match self.pattern_ids.get(self.scratch.pattern_key.as_slice()) {
            Some(&id) => {
                self.library.observe_duration(id, span.duration_us());
                (id, false)
            }
            None => self.register_pattern(span),
        };
        writer.end_span(pattern_id);
        (pattern_id, is_new)
    }

    /// Cold half of [`Self::parse_into`]: the probe in `scratch` missed, so the
    /// owned, serialisable [`SpanPattern`] is built from it and registered.
    fn register_pattern(&mut self, span: &Span) -> (PatternId, bool) {
        let key = self.scratch.pattern_key.as_slice();
        let pattern = SpanPattern {
            service: span.service().to_owned(),
            name: span.name().to_owned(),
            kind: span.kind(),
            attrs: key[3..]
                .chunks_exact(2)
                .map(|pair| {
                    let key = self.attr_parsers[pair[0] as usize - 1].key.clone();
                    (key, AttrPattern::from_code(pair[1]))
                })
                .collect(),
        };
        let (id, is_new) = self.library.get_or_insert(pattern, span.duration_us());
        self.pattern_ids.insert(key.into(), id);
        (id, is_new)
    }

    /// The span pattern library.
    pub fn library(&self) -> &SpanPatternLibrary {
        &self.library
    }

    /// Number of spans parsed so far.
    pub fn parsed_spans(&self) -> u64 {
        self.parsed_spans
    }

    /// Total number of attribute-level patterns (string templates) learned.
    pub fn attribute_pattern_count(&self) -> usize {
        self.attr_parsers
            .iter()
            .map(|keyed| keyed.parser.pattern_count())
            .sum()
    }

    /// Bytes needed to store the full pattern library (span patterns plus
    /// attribute templates), i.e. the payload of a periodic library upload.
    pub fn library_size_bytes(&self) -> usize {
        self.library.stored_size()
            + self
                .attr_parsers
                .iter()
                .map(|keyed| keyed.parser.stored_size())
                .sum::<usize>()
    }

    /// Every attribute key with its parser, borrowed, in the order the keys
    /// were first seen — which [`Self::key_index`] numbers from 0.  What the
    /// incremental merge reads a shard's templates, bucketers and
    /// closed-form parser sizes from, in place.
    pub(crate) fn attribute_parsers(&self) -> impl Iterator<Item = (&str, &AttributeParser)> {
        self.attr_parsers
            .iter()
            .map(|keyed| (keyed.key.as_str(), &keyed.parser))
    }

    /// The position of attribute `key` in [`Self::attribute_parsers`].
    pub(crate) fn key_index(&self, key: &str) -> Option<usize> {
        match self.keys.lookup(key) {
            crate::intern::UNKNOWN_ID => None,
            id => Some(id as usize - 1),
        }
    }

    /// The bucketer of span durations.
    pub(crate) fn duration_bucketer(&self) -> NumericBucketer {
        self.duration_bucketer
    }

    /// The string parser of attribute `key`, for tests that rewrite a
    /// template in place.
    #[cfg(test)]
    pub(crate) fn string_parser_mut(&mut self, key: &str) -> Option<&mut StringAttributeParser> {
        let index = self.key_index(key)?;
        match &mut self.attr_parsers[index].parser {
            AttributeParser::Strings(parser) => Some(parser),
            _ => None,
        }
    }

    /// Aggregated prefilter counters across the per-key string parsers.
    pub fn prefilter_stats(&self) -> crate::intern::PrefilterStats {
        let mut total = crate::intern::PrefilterStats::default();
        for keyed in &self.attr_parsers {
            if let AttributeParser::Strings(p) = &keyed.parser {
                total.absorb(p.prefilter_stats());
            }
        }
        total
    }

    /// Builds the read-only catalog snapshot for reporting / querying.
    pub fn catalog(&self) -> PatternCatalog {
        let mut templates = HashMap::new();
        let mut bucketers = HashMap::new();
        for KeyedParser { key, parser } in &self.attr_parsers {
            match parser {
                AttributeParser::Strings(p) => {
                    templates.insert(key.clone(), p.templates().to_vec());
                }
                AttributeParser::Numeric(b) => {
                    bucketers.insert(key.clone(), *b);
                }
                AttributeParser::Booleans => {}
            }
        }
        PatternCatalog {
            spans: self.library.clone(),
            templates: Arc::new(templates),
            bucketers: Arc::new(bucketers),
            duration_bucketer: self.duration_bucketer,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace_model::SpanId;

    fn span(id: u64, service: &str, name: &str, sql_id: u64, duration: u64) -> Span {
        Span::builder(TraceId::from_u128(1), SpanId::from_u64(id))
            .service(service)
            .name(name)
            .kind(SpanKind::Server)
            .duration_us(duration)
            .start_time_us(1000 + id)
            .attr(
                "sql.query",
                AttrValue::Str(format!("SELECT * FROM orders WHERE id = {sql_id}")),
            )
            .attr("db.rows", AttrValue::Int(40 + (sql_id % 10) as i64))
            .attr("cache.hit", AttrValue::Bool(sql_id.is_multiple_of(2)))
            .build()
    }

    fn parser() -> SpanParser {
        SpanParser::new(&MintConfig::default())
    }

    #[test]
    fn similar_spans_share_a_pattern() {
        let mut parser = parser();
        let (p1, _, new1) = parser.parse(&span(1, "db", "query", 10, 500));
        let (p2, _, new2) = parser.parse(&span(2, "db", "query", 999, 510));
        assert_eq!(p1, p2);
        assert!(new1);
        assert!(!new2);
        assert_eq!(parser.library().len(), 1);
    }

    #[test]
    fn different_services_get_different_patterns() {
        let mut parser = parser();
        let (p1, _, _) = parser.parse(&span(1, "db", "query", 10, 500));
        let (p2, _, _) = parser.parse(&span(2, "cache", "query", 10, 500));
        assert_ne!(p1, p2);
        assert_eq!(parser.library().len(), 2);
    }

    #[test]
    fn durations_do_not_split_patterns_but_are_tracked() {
        let mut parser = parser();
        let (p1, params1, _) = parser.parse(&span(1, "db", "query", 10, 100));
        let (p2, params2, _) = parser.parse(&span(2, "db", "query", 11, 100_000));
        assert_eq!(p1, p2);
        assert_ne!(params1.duration_bucket, params2.duration_bucket);
        let stats = parser.library().duration_stats(p1).unwrap();
        assert_eq!(stats.count, 2);
        assert_eq!(stats.min_us, 100);
        assert_eq!(stats.max_us, 100_000);
        assert_eq!(stats.mean_us(), 50_050);
    }

    #[test]
    fn warm_up_prebuilds_templates() {
        let mut parser = parser();
        let sample: Vec<Span> = (0..50).map(|i| span(i, "db", "query", i, 500)).collect();
        parser.warm_up(&sample);
        assert!(parser.attribute_pattern_count() >= 1);
        // Online parsing after warm-up should not create extra templates for
        // the same shape of value.
        let before = parser.attribute_pattern_count();
        for i in 100..150 {
            parser.parse(&span(i, "db", "query", i, 500));
        }
        assert_eq!(parser.attribute_pattern_count(), before);
    }

    #[test]
    fn parse_then_reconstruct_is_exact() {
        let mut parser = parser();
        // Warm up so templates are stable before the spans we check.
        let sample: Vec<Span> = (0..20).map(|i| span(i, "db", "query", i, 500)).collect();
        parser.warm_up(&sample);
        let original = span(42, "db", "query", 4211, 777);
        let mut writer = ParamsWriter::default();
        writer.begin_block(original.trace_id());
        parser.parse_into(&original, &mut writer);
        let catalog = parser.catalog();
        let rebuilt = catalog
            .reconstruct_span(original.trace_id(), &writer.last_record().unwrap())
            .unwrap();
        assert_eq!(rebuilt.span_id(), original.span_id());
        assert_eq!(rebuilt.service(), original.service());
        assert_eq!(rebuilt.name(), original.name());
        assert_eq!(rebuilt.duration_us(), original.duration_us());
        assert_eq!(
            rebuilt.attributes().get("db.rows").unwrap().as_f64(),
            Some(
                original
                    .attributes()
                    .get("db.rows")
                    .unwrap()
                    .as_f64()
                    .unwrap()
            )
        );
        assert_eq!(
            rebuilt.attributes().get("cache.hit"),
            original.attributes().get("cache.hit")
        );
        // String attribute round-trips at token level.
        let original_sql = original
            .attributes()
            .get("sql.query")
            .unwrap()
            .as_str()
            .unwrap();
        let rebuilt_sql = rebuilt
            .attributes()
            .get("sql.query")
            .unwrap()
            .as_str()
            .unwrap();
        assert_eq!(
            crate::lcs::tokenize(rebuilt_sql),
            crate::lcs::tokenize(original_sql)
        );
    }

    #[test]
    fn masked_attributes_hide_variables() {
        let mut parser = parser();
        parser.parse(&span(1, "db", "query", 10, 500));
        let (pattern_id, _, _) = parser.parse(&span(2, "db", "query", 999, 500));
        let catalog = parser.catalog();
        let masked = catalog.masked_attributes(pattern_id);
        let sql = masked.iter().find(|(k, _)| k == "sql.query").unwrap();
        assert!(sql.1.contains("<*>"), "masked sql: {}", sql.1);
        let rows = masked.iter().find(|(k, _)| k == "db.rows").unwrap();
        assert_eq!(rows.1, "<num>");
    }

    #[test]
    fn library_size_grows_with_patterns() {
        let mut parser = parser();
        parser.parse(&span(1, "db", "query", 10, 500));
        let small = parser.library_size_bytes();
        parser.parse(&span(2, "api", "handle", 11, 800));
        assert!(parser.library_size_bytes() > small);
        assert!(parser.catalog().stored_size() > 0);
    }

    #[test]
    fn library_lookup_by_id() {
        let mut library = SpanPatternLibrary::new();
        let pattern = SpanPattern {
            service: "s".into(),
            name: "n".into(),
            kind: SpanKind::Server,
            attrs: vec![],
        };
        let (id, fresh) = library.get_or_insert(pattern.clone(), 250);
        assert!(fresh);
        assert_eq!(library.get(id), Some(&pattern));
        assert!(library.get(PatternId::from_u128(99)).is_none());
        assert!(library.duration_stats(PatternId::from_u128(99)).is_none());
        assert_eq!(library.iter().count(), 1);
    }

    #[test]
    fn pattern_count_statistics() {
        let mut parser = parser();
        for i in 0..30 {
            parser.parse(&span(i, "db", "query", i, 500));
        }
        assert_eq!(parser.parsed_spans(), 30);
        // Library converges to a handful of patterns despite 30 spans
        // (duration jitter may split across adjacent buckets).
        assert!(parser.library().len() <= 3);
    }
}
