//! Per-attribute parsers and the prefix index used for online matching.

use super::numeric::NumericBucketer;
use super::template::StringTemplate;
use crate::intern::{
    value_fingerprint, InternedPrefixIndex, InternedTemplate, Interner, PrefilterStats,
};
use crate::lcs::{tokenize_ranges, RangeTokens, TokenMaskTable, TokenSeq};
use crate::params::ParamsWriter;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use trace_model::AttrValue;

/// The working memory of one parser, reused for every value it parses so the
/// steady-state path allocates nothing.  A
/// [`SpanParser`](super::SpanParser) owns one and lends it to its
/// per-attribute parsers in turn; nothing in it outlives a `parse` call
/// except capacity.
#[derive(Debug, Clone, Default)]
pub struct ParseScratch {
    /// Byte ranges of the tokens of the value being parsed.  Ranges borrow
    /// nothing, which is what lets the buffer live here.
    tokens: Vec<(usize, usize)>,
    /// Candidate template ids: the structural probe's, then the similarity
    /// fallback's (the two never overlap in time).
    candidates: Vec<usize>,
    /// The value's interned token ids (similarity fallback only).
    ids: Vec<u32>,
    /// Token range of every variable slot of the last successful match.
    ranges: Vec<(u32, u32)>,
    /// Bit-parallel LCS state, built once per value that reaches the
    /// fallback and reused across every candidate scored against it.
    masks: TokenMaskTable,
    /// The span-pattern probe `[service, name, kind, (key, attr pattern)…]`.
    pub(super) pattern_key: Vec<u32>,
}

/// The pattern component produced by parsing one attribute value.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AttrPattern {
    /// A string attribute matched template `template_id` of its key's parser.
    Template {
        /// Index of the template within the attribute's parser.
        template_id: usize,
    },
    /// A numeric attribute.  The exponential bucket and offset are stored as
    /// the parameter ([`ParamValue::Num`]); the bucket is deliberately kept
    /// out of the pattern identity so wide-range numerics do not multiply the
    /// number of span patterns combinatorially.
    Numeric,
    /// A boolean attribute (the value itself is the parameter).
    Flag,
}

impl AttrPattern {
    /// The pattern as one word of a span-pattern probe key: distinct
    /// patterns of one attribute key get distinct codes.
    pub(super) fn code(&self) -> u32 {
        match self {
            AttrPattern::Numeric => 0,
            AttrPattern::Flag => 1,
            AttrPattern::Template { template_id } => {
                u32::try_from(*template_id).map_or(u32::MAX, |id| id.saturating_add(2))
            }
        }
    }

    /// Inverse of [`Self::code`].
    pub(super) fn from_code(code: u32) -> Self {
        match code {
            0 => AttrPattern::Numeric,
            1 => AttrPattern::Flag,
            id => AttrPattern::Template {
                template_id: (id - 2) as usize,
            },
        }
    }
}

/// A prefix index over string templates: maps a template's first constant
/// token to the template ids that start with it, so online matching only
/// scores a handful of candidates instead of every template (the paper's
/// prefix-tree optimization, §3.2.1 "Parsers building").
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PrefixIndex {
    by_first_const: HashMap<String, Vec<usize>>,
    leading_var: Vec<usize>,
}

impl PrefixIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        PrefixIndex::default()
    }

    /// Registers a template under its id.
    pub fn insert(&mut self, template_id: usize, template: &StringTemplate) {
        match template.first_const() {
            Some(first) if !template.starts_with_var() => {
                self.by_first_const
                    .entry(first.to_owned())
                    .or_default()
                    .push(template_id);
            }
            _ => self.leading_var.push(template_id),
        }
    }

    /// Rebuilds the index from scratch (used after a template's leading
    /// token changes due to generalization).
    pub fn rebuild(&mut self, templates: &[StringTemplate]) {
        self.by_first_const.clear();
        self.leading_var.clear();
        for (id, template) in templates.iter().enumerate() {
            self.insert(id, template);
        }
    }

    /// Candidate template ids for a tokenized value: templates whose first
    /// constant token equals the value's first token, plus every template
    /// that starts with a variable slot.
    pub fn candidates<S: AsRef<str>>(&self, tokens: &[S]) -> Vec<usize> {
        let mut out = Vec::new();
        self.candidates_into(tokens, &mut out);
        out
    }

    /// [`Self::candidates`], appending into a reusable buffer (cleared
    /// first) — the allocation-free entry point used by the ingest path.
    pub fn candidates_into<S: AsRef<str>>(&self, tokens: &[S], out: &mut Vec<usize>) {
        out.clear();
        if let Some(first) = tokens.first() {
            if let Some(ids) = self.by_first_const.get(first.as_ref()) {
                out.extend_from_slice(ids);
            }
        }
        out.extend_from_slice(&self.leading_var);
    }

    /// Number of indexed templates.
    pub fn len(&self) -> usize {
        self.by_first_const.values().map(Vec::len).sum::<usize>() + self.leading_var.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The parser for one string-valued attribute key: the learned templates in
/// both representations (canonical strings for merge/export, interned ids
/// for the hot path), the per-parser token [`Interner`], and the interned
/// prefix index used to match new values quickly.
///
/// The interner is strictly parser-local: a sharded deployment's per-shard
/// parsers each grow their own vocabulary, and cross-shard merging keeps
/// operating on the canonical string templates, which preserves the
/// content-addressed equivalence oracle.
///
/// Every template carries a revision stamp (kept in its interned mirror):
/// the value of the parser's stamp clock when its tokens were last written
/// (created, or changed in place by generalization).  A stamp that moved
/// means the template's content moved, which is how the incremental merge
/// detects drift without keeping copies of the templates it interned.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StringAttributeParser {
    templates: Vec<StringTemplate>,
    /// The next revision stamp to hand out; it never repeats one already
    /// handed out (short of wrapping after 2³² writes).
    clock: u32,
    interned: Vec<InternedTemplate>,
    interner: Interner,
    index: InternedPrefixIndex,
    threshold: f64,
    /// When `false`, candidate pruning is disabled and every template is
    /// scored (linear scan) — used by the ablation benchmarks.
    use_index: bool,
    stats: PrefilterStats,
}

/// Semantic equality: two parsers are equal when they would parse every
/// future value identically.  The interned mirror is derived state and the
/// prefilter counters are observability, so neither participates (a serial
/// parser and a merged shard parser with identical templates must compare
/// equal even though their interners grew in different orders).
impl PartialEq for StringAttributeParser {
    fn eq(&self, other: &Self) -> bool {
        self.templates == other.templates
            && self.threshold == other.threshold
            && self.use_index == other.use_index
    }
}

impl StringAttributeParser {
    /// Creates an empty parser with the given similarity threshold.
    pub fn new(threshold: f64) -> Self {
        StringAttributeParser {
            templates: Vec::new(),
            clock: 0,
            interned: Vec::new(),
            interner: Interner::new(),
            index: InternedPrefixIndex::new(),
            threshold,
            use_index: true,
            stats: PrefilterStats::default(),
        }
    }

    /// Disables the prefix index (linear scanning), for ablation studies.
    pub fn with_linear_scan(mut self) -> Self {
        self.use_index = false;
        self
    }

    /// The templates learned so far.
    pub fn templates(&self) -> &[StringTemplate] {
        &self.templates
    }

    /// The revision stamp of each template, in [`Self::templates`] order:
    /// a template's stamp changes exactly when its tokens change.
    pub(crate) fn stamps(&self) -> impl Iterator<Item = u32> + '_ {
        self.interned.iter().map(InternedTemplate::stamp)
    }

    /// Continues `previous`'s stamp clock, so that no template of this
    /// parser — which replaces `previous` — repeats a stamp `previous`
    /// handed out.  Call before adding any template.
    pub(super) fn succeed(&mut self, previous: &StringAttributeParser) {
        self.clock = previous.clock;
    }

    /// Hands out the next revision stamp.
    fn next_stamp(&mut self) -> u32 {
        let stamp = self.clock;
        self.clock = self.clock.wrapping_add(1);
        stamp
    }

    /// Number of templates.
    pub fn template_count(&self) -> usize {
        self.templates.len()
    }

    /// Running prefilter effectiveness counters (see [`PrefilterStats`]).
    pub fn prefilter_stats(&self) -> PrefilterStats {
        self.stats
    }

    /// Adds a template built from a raw value (all-constant tokens) and
    /// returns its id.  Used by the offline warm-up after clustering.
    pub fn add_template(&mut self, template: StringTemplate) -> usize {
        let id = self.templates.len();
        let stamp = self.next_stamp();
        let interned = InternedTemplate::from_template(&template, &mut self.interner);
        self.index.insert(id, &interned);
        self.interned.push(interned.with_stamp(stamp));
        self.templates.push(template);
        id
    }

    /// Generalizes template `id` so that it also covers `tokens` (see
    /// [`StringTemplate::generalize`]) and returns whether its tokens
    /// changed.  Only a change restamps the template and re-lowers it onto
    /// the interner and the prefix index.
    pub(crate) fn generalize_template<S: AsRef<str>>(&mut self, id: usize, tokens: &[S]) -> bool {
        if !self.templates[id].generalize(tokens) {
            return false;
        }
        let first_before = self.interned[id].first_const();
        self.reintern(id);
        if self.interned[id].first_const() != first_before {
            self.index.rebuild(&self.interned);
        }
        true
    }

    /// Re-lowers template `id` onto the interner after a string-level
    /// mutation (generalization), with a fresh revision stamp: this is the
    /// one place a template's tokens change.  Generalization only ever *keeps or drops*
    /// constants — `merge` copies matched `Const` tokens from the template
    /// side — so this never grows the vocabulary and value ids stay stable.
    fn reintern(&mut self, id: usize) {
        let before = self.interner.len();
        let stamp = self.next_stamp();
        self.interned[id] =
            InternedTemplate::from_template(&self.templates[id], &mut self.interner)
                .with_stamp(stamp);
        debug_assert_eq!(
            before,
            self.interner.len(),
            "generalization must not grow the vocabulary"
        );
    }

    /// Candidate template ids for a value whose first token interned to
    /// `first`, in index order.
    fn candidates_for(&self, first: Option<u32>, out: &mut Vec<usize>) {
        if self.use_index {
            self.index.candidates_into(first, out);
        } else {
            out.clear();
            out.extend(0..self.interned.len());
        }
    }

    /// Best-scoring template for an interned value: candidate phase in index
    /// order, then the full scan whenever pruning found nothing at or above
    /// threshold (a generalized template may no longer share the first
    /// token).  The running best is strict-greater, so ties break toward the
    /// earlier scan position, exactly like the pre-interning scorer.
    ///
    /// With `prefilter` set, candidates provably below threshold are skipped
    /// before any LCS call; the skip can never change an above-threshold
    /// winner because the prefilter bounds are certificates (see
    /// [`InternedTemplate::prefilter_admits`]) — an admitted-or-skipped
    /// sub-threshold best is observationally equivalent to the parser, which
    /// only branches on `score >= threshold`.
    fn best_match_interned(
        &self,
        ids: &[u32],
        prefilter: bool,
        table: &mut TokenMaskTable,
        candidates: &mut Vec<usize>,
        stats: &mut PrefilterStats,
    ) -> Option<(usize, f64)> {
        let (fp, unknown) = value_fingerprint(ids);
        table.build(ids, self.interner.vocab_size());
        let mut best: Option<(usize, f64)> = None;
        let mut score = |id: usize, best: &mut Option<(usize, f64)>| {
            let template = &self.interned[id];
            stats.candidates_considered += 1;
            if prefilter && !template.prefilter_admits(ids.len(), fp, unknown, self.threshold) {
                stats.candidates_skipped += 1;
                return;
            }
            stats.lcs_calls += 1;
            let score = template.similarity_with(table);
            if best.map(|(_, s)| score > s).unwrap_or(true) {
                *best = Some((id, score));
            }
        };
        self.candidates_for(ids.first().copied(), candidates);
        for &id in candidates.iter() {
            score(id, &mut best);
        }
        if self.use_index && best.map(|(_, s)| s < self.threshold).unwrap_or(true) {
            for id in 0..self.interned.len() {
                score(id, &mut best);
            }
        }
        best
    }

    /// Finds the best-matching template for a tokenized value.
    /// Returns `(template_id, similarity)`.
    ///
    /// The public entry point is exact (no prefilter): it scores every
    /// candidate with the bit-parallel kernel, which is score-identical to
    /// the string LCS.
    pub fn best_match<S: AsRef<str>>(&self, tokens: &[S]) -> Option<(usize, f64)> {
        let mut scratch = ParseScratch::default();
        self.interner.lookup_into(tokens, &mut scratch.ids);
        self.best_match_interned(
            &scratch.ids,
            false,
            &mut scratch.masks,
            &mut scratch.candidates,
            &mut PrefilterStats::default(),
        )
    }

    /// Parses a raw string value: matches (or creates) a template and
    /// extracts the variable parameters, one string per variable slot.
    ///
    /// Returns `(template_id, params)`.  An owned convenience over
    /// [`Self::parse_into`], which is what the ingest path calls.
    pub fn parse(&mut self, value: &str) -> (usize, Vec<String>) {
        let mut writer = ParamsWriter::default();
        let slots = writer.begin_str();
        let id = self.parse_into(value, &mut ParseScratch::default(), &mut writer);
        writer.end_str();
        (id, writer.slots_from(slots).map(str::to_owned).collect())
    }

    /// Parses a raw string value, writing one slot per variable of the
    /// matched template to `writer`, and returns the template id.  In steady
    /// state — where the structural fast path hits — nothing is allocated:
    /// the value is tokenized into byte ranges, the candidate list and slot
    /// ranges live in `scratch`, and the slot contents are copied straight
    /// from the value into the record being written.
    ///
    /// Interning is deliberately *lazy*: the structural fast path — which
    /// wins for almost every steady-state value — runs on the value's own
    /// text with a single first-token vocabulary lookup for candidate
    /// bucketing, because hashing every token costs more than the handful of
    /// string compares it replaces (measured).  Only when the structural
    /// probe misses is the value lowered to dense `&[u32]` ids for the
    /// prefiltered bit-parallel similarity fallback.
    pub fn parse_into(
        &mut self,
        value: &str,
        scratch: &mut ParseScratch,
        writer: &mut ParamsWriter,
    ) -> usize {
        tokenize_ranges(value, &mut scratch.tokens);
        let tokens = RangeTokens {
            value,
            ranges: &scratch.tokens,
        };

        // Fast path: structural alignment against the indexed candidates.
        // In steady state almost every value aligns with an existing
        // template, so the LCS similarity is rarely needed.  Candidates with
        // more constant tokens are preferred so an overly general template
        // does not shadow a more specific one; ties break by id so the scan
        // order is fully deterministic.
        let first_id = (tokens.len() > 0).then(|| self.interner.lookup(tokens.token(0)));
        self.candidates_for(first_id, &mut scratch.candidates);
        scratch
            .candidates
            .sort_unstable_by_key(|&id| (std::cmp::Reverse(self.interned[id].const_count()), id));
        for &id in &scratch.candidates {
            if self.templates[id].match_spans(&tokens, &mut scratch.ranges) {
                writer.push_slots(&tokens, &scratch.ranges);
                return id;
            }
        }

        // Slow path: lower the value to interned ids and run the prefiltered
        // bit-parallel similarity against every surviving candidate.
        scratch.ids.clear();
        for index in 0..tokens.len() {
            scratch.ids.push(self.interner.lookup(tokens.token(index)));
        }
        let mut stats = self.stats;
        let best = self.best_match_interned(
            &scratch.ids,
            true,
            &mut scratch.masks,
            &mut scratch.candidates,
            &mut stats,
        );
        self.stats = stats;
        match best {
            Some((id, score)) if score >= self.threshold => {
                if self.interned[id].match_ranges(&scratch.ids, &mut scratch.ranges) {
                    writer.push_slots(&tokens, &scratch.ranges);
                } else {
                    self.generalize_to_fit(id, value, scratch, writer);
                }
                id
            }
            _ => self.learn_template(value, scratch, writer),
        }
    }

    /// Similar but the skeleton does not align: generalizes template `id` so
    /// the value tokenized in `scratch` (and future ones like it) fits, then
    /// extracts.  Generalization never grows the vocabulary (merged
    /// constants are a subset of the old ones), so the value ids computed
    /// before it remain valid.
    fn generalize_to_fit(
        &mut self,
        id: usize,
        value: &str,
        scratch: &mut ParseScratch,
        writer: &mut ParamsWriter,
    ) {
        let tokens = RangeTokens {
            value,
            ranges: &scratch.tokens,
        };
        self.generalize_template(id, &tokens.to_vec());
        if self.interned[id].match_ranges(&scratch.ids, &mut scratch.ranges) {
            writer.push_slots(&tokens, &scratch.ranges);
        } else {
            writer.push_slot(value);
        }
    }

    /// Seeds a new template from the value tokenized in `scratch`,
    /// pre-masking identifier-like tokens so one-off values (ids, IPs,
    /// counters) do not each become a distinct pattern.  Interning the new
    /// constants grows the vocabulary, so the value ids are refreshed before
    /// extraction.
    fn learn_template(
        &mut self,
        value: &str,
        scratch: &mut ParseScratch,
        writer: &mut ParamsWriter,
    ) -> usize {
        let tokens = RangeTokens {
            value,
            ranges: &scratch.tokens,
        };
        let owned = tokens.to_vec();
        let id = self.add_template(StringTemplate::from_raw_tokens(&owned));
        self.interner.lookup_into(&owned, &mut scratch.ids);
        if self.interned[id].match_ranges(&scratch.ids, &mut scratch.ranges) {
            writer.push_slots(&tokens, &scratch.ranges);
        }
        id
    }

    /// Total bytes needed to store this parser's templates.
    pub fn stored_size(&self) -> usize {
        self.templates.iter().map(StringTemplate::stored_size).sum()
    }
}

/// The parser attached to one attribute key.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AttributeParser {
    /// Parser for string values.
    Strings(StringAttributeParser),
    /// Parser for numeric values.
    Numeric(NumericBucketer),
    /// Parser for boolean values (no pattern to learn).
    Booleans,
}

impl AttributeParser {
    /// Creates the appropriate parser for a sample value.
    pub fn for_value(value: &AttrValue, threshold: f64, alpha: f64) -> Self {
        match value {
            AttrValue::Str(_) => AttributeParser::Strings(StringAttributeParser::new(threshold)),
            AttrValue::Int(_) | AttrValue::Float(_) => {
                AttributeParser::Numeric(NumericBucketer::from_alpha(alpha))
            }
            AttrValue::Bool(_) => AttributeParser::Booleans,
        }
    }

    /// Parses a value into its pattern component and writes its parameter
    /// — the next one of the span record `writer` has open.
    pub fn parse_into(
        &mut self,
        value: &AttrValue,
        scratch: &mut ParseScratch,
        writer: &mut ParamsWriter,
    ) -> AttrPattern {
        match (self, value) {
            (AttributeParser::Strings(parser), AttrValue::Str(s)) => {
                writer.begin_str();
                let template_id = parser.parse_into(s, scratch, writer);
                writer.end_str();
                AttrPattern::Template { template_id }
            }
            (AttributeParser::Numeric(bucketer), value) if value.is_numeric() => {
                #[expect(
                    clippy::expect_used,
                    reason = "the match guard `value.is_numeric()` makes as_f64 infallible here"
                )]
                let v = value.as_f64().expect("numeric value");
                let (bucket, offset) = bucketer.parse(v);
                writer.push_num(bucket, offset);
                AttrPattern::Numeric
            }
            (AttributeParser::Booleans, AttrValue::Bool(b)) => {
                writer.push_bool(*b);
                AttrPattern::Flag
            }
            // Type drift (e.g. a key that is usually numeric suddenly holds a
            // string): keep the raw value as the parameter.
            (_, value) => {
                writer.push_raw(value);
                AttrPattern::Flag
            }
        }
    }

    /// Number of distinct patterns this parser knows about (templates for
    /// strings; numeric/boolean parsers are closed-form and count as one).
    pub fn pattern_count(&self) -> usize {
        match self {
            AttributeParser::Strings(p) => p.template_count(),
            AttributeParser::Numeric(_) | AttributeParser::Booleans => 1,
        }
    }

    /// Bytes needed to store the parser's learned patterns.
    pub fn stored_size(&self) -> usize {
        match self {
            AttributeParser::Strings(p) => p.stored_size(),
            AttributeParser::Numeric(_) => 16,
            AttributeParser::Booleans => 4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lcs::tokenize_borrowed;
    use crate::params::ParamValue;
    use trace_model::{PatternId, SpanId, TraceId};

    /// The parameters `values` parse into, as one span's, with the pattern
    /// component of the last.
    fn parse_as_span(
        parser: &mut AttributeParser,
        values: &[AttrValue],
    ) -> (AttrPattern, Vec<ParamValue>, Vec<String>) {
        let mut writer = ParamsWriter::default();
        writer.begin_block(TraceId::from_u128(1));
        writer.begin_span(SpanId::from_u64(1), SpanId::INVALID, 0, (0, 0.0), false);
        let mut scratch = ParseScratch::default();
        let mut pattern = AttrPattern::Flag;
        for value in values {
            pattern = parser.parse_into(value, &mut scratch, &mut writer);
        }
        writer.end_span(PatternId::from_u128(1));
        let params = writer.last_record().unwrap().to_params();
        let slots = params.vars.slots(0..params.vars.len());
        let slots = slots.map(str::to_owned).collect();
        (pattern, params.attr_params, slots)
    }

    #[test]
    fn string_parser_reuses_templates_for_similar_values() {
        let mut parser = StringAttributeParser::new(0.8);
        let (id1, _) = parser.parse("SELECT * FROM orders WHERE id = 1");
        let (id2, params) = parser.parse("SELECT * FROM orders WHERE id = 999");
        assert_eq!(id1, id2);
        assert_eq!(parser.template_count(), 1);
        assert_eq!(params, vec!["999".to_string()]);
    }

    #[test]
    fn string_parser_creates_new_template_for_dissimilar_values() {
        let mut parser = StringAttributeParser::new(0.8);
        parser.parse("SELECT * FROM orders WHERE id = 1");
        let (id, _) = parser.parse("HGETALL cart:user-42");
        assert_eq!(id, 1);
        assert_eq!(parser.template_count(), 2);
    }

    #[test]
    fn repeated_identical_values_extract_empty_params() {
        let mut parser = StringAttributeParser::new(0.8);
        parser.parse("POST");
        let (id, params) = parser.parse("POST");
        assert_eq!(id, 0);
        assert!(params.is_empty());
        assert_eq!(parser.template_count(), 1);
    }

    #[test]
    fn linear_and_indexed_matching_agree() {
        let values = [
            "SELECT * FROM orders WHERE id = 1",
            "SELECT * FROM users WHERE id = 2",
            "HGETALL cart:abc",
            "HGETALL cart:def",
            "/v1/campus/user=42",
            "/v1/billing/user=77",
        ];
        let mut indexed = StringAttributeParser::new(0.8);
        let mut linear = StringAttributeParser::new(0.8).with_linear_scan();
        for value in values {
            indexed.parse(value);
            linear.parse(value);
        }
        assert_eq!(indexed.template_count(), linear.template_count());
    }

    #[test]
    fn prefix_index_candidates_prune_by_first_token() {
        let mut parser = StringAttributeParser::new(0.8);
        for value in ["SELECT * FROM a", "UPDATE b SET x = 1", "DELETE FROM c"] {
            parser.parse(value);
        }
        let tokens = tokenize_borrowed("SELECT * FROM zzz");
        let mut ids = Vec::new();
        parser.interner.lookup_into(&tokens, &mut ids);
        let mut candidates = vec![99usize; 4];
        parser
            .index
            .candidates_into(ids.first().copied(), &mut candidates);
        assert_eq!(candidates.len(), 1);
        // The string prefix index (kept for offline/bench consumers) prunes
        // identically.
        let mut string_index = PrefixIndex::new();
        string_index.rebuild(parser.templates());
        assert_eq!(string_index.candidates(&tokens), candidates);
    }

    #[test]
    fn parse_after_interning_matches_string_semantics() {
        // The anchor-in-slot regression exercised through the interned
        // matcher: the exact tier must still recover it.
        let mut parser = StringAttributeParser::new(0.6);
        parser.parse("get x now");
        parser.parse("get y now");
        let (id, params) = parser.parse("get now now");
        assert_eq!(id, 0);
        assert_eq!(params, vec!["now".to_string()]);
        // Unknown (out-of-vocabulary) tokens extract as parameters.
        let (id2, params2) = parser.parse("get cart:user-77 now");
        assert_eq!(id2, 0);
        assert_eq!(params2, vec!["cart : user - 77".to_string()]);
    }

    #[test]
    fn prefilter_counters_advance_on_similarity_fallback() {
        let mut parser = StringAttributeParser::new(0.8);
        parser.parse("SELECT * FROM orders WHERE id = 1");
        parser.parse("HGETALL cart:abc");
        // A value that hits no structural match forces the fallback; the
        // unrelated template is a provable loser the prefilter skips.
        parser.parse("SELECT name FROM users WHERE tenant = 9");
        let stats = parser.prefilter_stats();
        assert!(stats.candidates_considered > 0);
        assert_eq!(
            stats.candidates_considered,
            stats.candidates_skipped + stats.lcs_calls
        );
        assert_eq!(stats.lcs_calls_avoided(), stats.candidates_skipped);
    }

    #[test]
    fn parser_equality_ignores_derived_state() {
        let mut a = StringAttributeParser::new(0.8);
        let mut b = StringAttributeParser::new(0.8);
        a.parse("alpha beta gamma");
        b.parse("alpha beta gamma");
        // Different fallback traffic → different counters, same semantics.
        b.parse("alpha beta gamma");
        assert_eq!(a, b);
    }

    #[test]
    fn numeric_parser_roundtrips() {
        let mut parser = AttributeParser::Numeric(NumericBucketer::default());
        let (pattern, params, _) = parse_as_span(&mut parser, &[AttrValue::Int(57)]);
        assert_eq!(pattern, AttrPattern::Numeric);
        let (bucket, offset) = match params[0] {
            ParamValue::Num { bucket, offset } => (bucket, offset),
            ref other => panic!("unexpected param {other:?}"),
        };
        let rebuilt = NumericBucketer::default().reconstruct(bucket, offset);
        assert!((rebuilt - 57.0).abs() < 1e-9);
    }

    #[test]
    fn boolean_parser_emits_flag() {
        let mut parser = AttributeParser::Booleans;
        let (pattern, params, _) = parse_as_span(&mut parser, &[AttrValue::Bool(true)]);
        assert_eq!(pattern, AttrPattern::Flag);
        assert_eq!(params, [ParamValue::Bool(true)]);
    }

    #[test]
    fn type_drift_falls_back_to_raw() {
        let mut parser = AttributeParser::Numeric(NumericBucketer::default());
        let (pattern, params, _) = parse_as_span(&mut parser, &[AttrValue::str("oops")]);
        assert_eq!(pattern, AttrPattern::Flag);
        assert_eq!(params, [ParamValue::Raw(AttrValue::str("oops"))]);
    }

    #[test]
    fn string_params_point_into_the_shared_variable_text() {
        let mut parser = AttributeParser::Strings(StringAttributeParser::new(0.8));
        parse_as_span(&mut parser, &[AttrValue::str("get cart 1")]);
        // Two attributes of one span decode into the same buffer.
        let values = [
            AttrValue::str("get cart 22"),
            AttrValue::str("get cart 333"),
        ];
        let (pattern, params, slots) = parse_as_span(&mut parser, &values);
        assert_eq!(params[0], ParamValue::StrVars { first: 0, count: 1 });
        assert_eq!(params[1], ParamValue::StrVars { first: 1, count: 1 });
        assert_eq!(slots, ["22", "333"]);
        assert_eq!(AttrPattern::from_code(pattern.code()), pattern);
    }

    #[test]
    fn for_value_picks_parser_kind() {
        let threshold = 0.8;
        assert!(matches!(
            AttributeParser::for_value(&AttrValue::str("x"), threshold, 0.5),
            AttributeParser::Strings(_)
        ));
        assert!(matches!(
            AttributeParser::for_value(&AttrValue::Int(3), threshold, 0.5),
            AttributeParser::Numeric(_)
        ));
        assert!(matches!(
            AttributeParser::for_value(&AttrValue::Bool(true), threshold, 0.5),
            AttributeParser::Booleans
        ));
    }

    #[test]
    fn stored_size_grows_with_templates() {
        let mut parser = StringAttributeParser::new(0.8);
        parser.parse("alpha beta gamma");
        let small = parser.stored_size();
        parser.parse("completely different content here");
        assert!(parser.stored_size() > small);
    }

    #[test]
    fn stamps_move_exactly_when_tokens_change() {
        let mut parser = StringAttributeParser::new(0.6);
        parser.parse("report job 12 finished in 30 ms");
        parser.parse("HGETALL cart:abc");
        let stamps: Vec<u32> = parser.stamps().collect();
        assert_eq!(stamps.len(), 2);
        assert_ne!(stamps[0], stamps[1]);

        // Values that match as they are, and a generalization that keeps the
        // tokens, leave every stamp where it was.
        parser.parse("report job 99 finished in 7 ms");
        parser.parse("HGETALL cart:abc");
        let own: Vec<&str> = ["report", "job", "7", "finished", "in", "8", "ms"].into();
        assert!(!parser.generalize_template(0, &own));
        assert!(parser.stamps().eq(stamps.iter().copied()));

        // A generalization that rewrites a token restamps that template only,
        // with a stamp neither template held before.
        assert!(parser.generalize_template(0, &["report", "task", "1", "finished"]));
        let restamped: Vec<u32> = parser.stamps().collect();
        assert_ne!(restamped[0], stamps[0]);
        assert_ne!(restamped[0], stamps[1]);
        assert_eq!(restamped[1], stamps[1]);

        // A successor parser never repeats a stamp of the one it replaces.
        let mut successor = StringAttributeParser::new(0.6);
        successor.succeed(&parser);
        successor.parse("report job 12 finished in 30 ms");
        let first = successor.stamps().next().unwrap();
        assert!(parser.stamps().all(|stamp| stamp < first));
    }

    #[test]
    fn generalization_keeps_template_count_stable() {
        let mut parser = StringAttributeParser::new(0.6);
        parser.parse("report job 12 finished in 30 ms");
        parser.parse("report job 99 finished in 7 ms");
        parser.parse("report job 3 finished in 1205 ms");
        assert_eq!(parser.template_count(), 1);
        let template = &parser.templates()[0];
        assert!(template.var_count() >= 1);
        assert!(template.masked().contains("report job"));
    }
}
