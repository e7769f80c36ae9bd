//! Token interning: dense `u32` symbol ids for the ingest hot path.
//!
//! Every string-attribute parser owns an [`Interner`] that maps the constant
//! tokens of its template vocabulary to dense ids starting at 1.  Two ids are
//! reserved by construction:
//!
//! * [`WILDCARD_ID`] (0) marks a template's variable slot.  It is assigned by
//!   *position* (the `TemplateToken::Var` arm), never by string content, so a
//!   literal `"<*>"` token in a value still interns to an ordinary id and
//!   keeps its exact-match semantics.
//! * [`UNKNOWN_ID`] (`u32::MAX`) is returned for value tokens outside the
//!   template vocabulary.  The parser only ever tests template-const ×
//!   value-token equality, and an out-of-vocabulary token differs from every
//!   const by definition, so collapsing all unknowns to one id is exact.
//!
//! The vocabulary stays small because digit-bearing tokens are pre-masked as
//! variable slots before templates are created (`is_variable_token`): one-off
//! identifiers never enter the interner.
//!
//! On top of the ids this module provides the interned template
//! representation ([`InternedTemplate`]) with the string form's slot matcher
//! run on `&[u32]`, the interned prefix index, and the two exact
//! prefilters (length bound and 128-bit token-bag fingerprint bound) that let
//! the parser skip provably-losing candidates before any LCS call.  See
//! `similarity-preservation` notes on each method for why the prefilters can
//! never change which template wins.

use crate::lcs::TokenMaskTable;
use crate::span_parser::{match_slots, StringTemplate, TemplateToken};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Reserved id for a template's variable slot (`<*>`); assigned by token
/// *position*, never by string content.
pub const WILDCARD_ID: u32 = 0;

/// Reserved id for value tokens outside the interner's vocabulary.  Unknown
/// tokens can only ever match a variable slot, which is exactly how the
/// string matcher treats a token that equals no template constant.
pub const UNKNOWN_ID: u32 = u32::MAX;

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast, deterministic multiply-xor string hasher (the FxHash
/// construction).  The interner performs one hash lookup per value token on
/// the ingest hot path; the default SipHash would dominate the cost of the
/// bit-parallel LCS it feeds.  Determinism (no per-process random state) also
/// keeps every differential run byte-identical.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in chunks.by_ref() {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add(u64::from_le_bytes(buf));
        }
        self.add(bytes.len() as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`]-keyed maps.
pub type BuildFxHasher = BuildHasherDefault<FxHasher>;

/// Maps strings to dense ids `1..=len()`: a string parser's
/// template-constant tokens, and one level up a span parser's attribute
/// keys, service and operation names.
///
/// The interner grows only when something new is learned (a template is
/// created or generalized, a key or name is first seen); the hot path only
/// probes it with borrowed `&str`s.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Interner {
    map: HashMap<String, u32, BuildFxHasher>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Interner::default()
    }

    /// Number of interned symbols (ids run `1..=len()`).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no symbol has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Size of a dense table indexed directly by id (`len() + 1`, slot 0 is
    /// the wildcard).
    pub fn vocab_size(&self) -> usize {
        self.map.len() + 1
    }

    /// Returns the id of `token`, interning it if new.  Ids start at 1;
    /// [`WILDCARD_ID`] is never handed out.
    pub fn intern(&mut self, token: &str) -> u32 {
        if let Some(&id) = self.map.get(token) {
            return id;
        }
        let id = (self.map.len() + 1) as u32;
        self.map.insert(token.to_owned(), id);
        id
    }

    /// Returns the id of `token`, or [`UNKNOWN_ID`] if it is not part of the
    /// template vocabulary.
    pub fn lookup(&self, token: &str) -> u32 {
        match self.map.get(token) {
            Some(&id) => id,
            None => UNKNOWN_ID,
        }
    }

    /// Maps `tokens` to ids, appending into `out` (cleared first) — the
    /// allocation-free per-value entry point of the ingest path.
    pub fn lookup_into<S: AsRef<str>>(&self, tokens: &[S], out: &mut Vec<u32>) {
        out.clear();
        out.reserve(tokens.len());
        for token in tokens {
            out.push(self.lookup(token.as_ref()));
        }
    }
}

/// One 128-bit fingerprint bit per symbol id (splitmix-style avalanche of the
/// id, folded to a bit position).  Deterministic across runs and shards.
#[inline]
fn fingerprint_bit(id: u32) -> u128 {
    let mut x = id as u64 ^ 0x9e37_79b9_7f4a_7c15;
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^= x >> 33;
    1u128 << (x & 127)
}

/// Token-bag fingerprint of an interned value: one bit per *known* symbol
/// kind, plus the count of out-of-vocabulary tokens (kept out of the bitset
/// so an unknown token can never mask a template constant's missing bit).
pub fn value_fingerprint(ids: &[u32]) -> (u128, u32) {
    let mut fp = 0u128;
    let mut unknown = 0u32;
    for &id in ids {
        if id == UNKNOWN_ID {
            unknown += 1;
        } else {
            fp |= fingerprint_bit(id);
        }
    }
    (fp, unknown)
}

/// Running effectiveness counters for the similarity prefilters, kept by
/// each string-attribute parser and surfaced in the ingest bench so a
/// regression in filter selectivity is visible in the trajectory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrefilterStats {
    /// Candidates presented to the similarity fallback.
    pub candidates_considered: u64,
    /// Candidates rejected by a prefilter bound (no LCS executed).
    pub candidates_skipped: u64,
    /// Bit-parallel LCS evaluations actually performed.
    pub lcs_calls: u64,
}

impl PrefilterStats {
    /// LCS evaluations avoided — one per skipped candidate.
    pub fn lcs_calls_avoided(&self) -> u64 {
        self.candidates_skipped
    }

    /// Folds another counter set into this one (per-deployment aggregation).
    pub fn absorb(&mut self, other: PrefilterStats) {
        self.candidates_considered += other.candidates_considered;
        self.candidates_skipped += other.candidates_skipped;
        self.lcs_calls += other.lcs_calls;
    }
}

/// A [`StringTemplate`] lowered onto interner ids: constants become their
/// dense id, variable slots become [`WILDCARD_ID`].  Carries the derived
/// facts the hot path needs (const/var counts, first const, 128-bit const
/// fingerprint) so candidate ordering, prefix indexing and prefiltering all
/// run without touching the string form.
///
/// It also carries the revision stamp its parser gave the template (see
/// [`StringAttributeParser`](crate::StringAttributeParser)): the mirror is
/// rebuilt exactly when the template's tokens are written, which is when the
/// stamp moves, and the stamp fits in the struct's padding.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InternedTemplate {
    ids: Vec<u32>,
    const_count: u32,
    var_count: u32,
    fingerprint: u128,
    first_const: Option<u32>,
    starts_with_var: bool,
    stamp: u32,
}

impl InternedTemplate {
    /// Lowers `template` onto `interner` ids, interning any constant token
    /// not seen before (cold path: template creation and generalization).
    pub fn from_template(template: &StringTemplate, interner: &mut Interner) -> Self {
        let tokens = template.tokens();
        let mut ids = Vec::with_capacity(tokens.len());
        let mut fingerprint = 0u128;
        let mut const_count = 0u32;
        let mut var_count = 0u32;
        for token in tokens {
            match token {
                TemplateToken::Const(s) => {
                    let id = interner.intern(s);
                    fingerprint |= fingerprint_bit(id);
                    const_count += 1;
                    ids.push(id);
                }
                TemplateToken::Var => {
                    var_count += 1;
                    ids.push(WILDCARD_ID);
                }
            }
        }
        let first_const = ids.iter().copied().find(|&id| id != WILDCARD_ID);
        let starts_with_var = matches!(ids.first(), Some(&WILDCARD_ID));
        InternedTemplate {
            ids,
            const_count,
            var_count,
            fingerprint,
            first_const,
            starts_with_var,
            stamp: 0,
        }
    }

    /// This mirror, stamped with revision `stamp`.
    pub(crate) fn with_stamp(self, stamp: u32) -> Self {
        InternedTemplate { stamp, ..self }
    }

    /// The revision stamp of the template this mirrors.
    pub(crate) fn stamp(&self) -> u32 {
        self.stamp
    }

    /// The template as ids ([`WILDCARD_ID`] per variable slot).
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// Total token count.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the template has no tokens.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Number of constant tokens (the structural candidate-ordering key).
    pub fn const_count(&self) -> usize {
        self.const_count as usize
    }

    /// Number of variable slots.
    pub fn var_count(&self) -> usize {
        self.var_count as usize
    }

    /// Id of the first constant token, if any.
    pub fn first_const(&self) -> Option<u32> {
        self.first_const
    }

    /// Whether the template starts with a variable slot.
    pub fn starts_with_var(&self) -> bool {
        self.starts_with_var
    }

    /// 128-bit fingerprint over the constant token ids.
    pub fn fingerprint(&self) -> u128 {
        self.fingerprint
    }

    /// Similarity to the value loaded in `table` (the paper's
    /// `|LCS| / max(len_a, len_b)`), computed with the bit-parallel kernel.
    /// Score-identical to `StringTemplate::similarity_to` on the same value.
    pub fn similarity_with(&self, table: &mut TokenMaskTable) -> f64 {
        let denom = self.ids.len().max(table.value_len());
        if denom == 0 {
            return 1.0;
        }
        table.llcs(&self.ids) as f64 / denom as f64
    }

    /// Exact prefilter: `true` iff this candidate could still reach
    /// `threshold` against a value of `value_len` tokens with known-token
    /// fingerprint `value_fp` and `unknown_count` out-of-vocabulary tokens.
    ///
    /// Three upper bounds on `LCS(template, value)` are intersected, each a
    /// certificate (never an estimate):
    ///
    /// 1. `LCS ≤ min(n, m)` — a common subsequence fits in both sequences.
    /// 2. `LCS ≤ n − |fp_T \ fp_V|`: a bit set in the template's const
    ///    fingerprint but not in the value's certifies at least one template
    ///    const occurrence with no equal value token (unknown value tokens
    ///    set no bits, so they cannot hide a missing constant).
    /// 3. `LCS ≤ m − max(0, missing − var_count)` where `missing` is
    ///    `|fp_V \ fp_T|` plus the unknown-token count: value occurrences
    ///    with no equal template const can only pair with variable slots,
    ///    and there are only `var_count` of those.
    ///
    /// Since `similarity = LCS / max(n, m)` and every bound is ≥ the true
    /// LCS, a candidate whose true similarity meets the threshold is always
    /// admitted — skipping can therefore never change which template wins
    /// (see `StringAttributeParser::best_match_interned`).
    pub fn prefilter_admits(
        &self,
        value_len: usize,
        value_fp: u128,
        unknown_count: u32,
        threshold: f64,
    ) -> bool {
        let n = self.ids.len();
        let denom = n.max(value_len);
        if denom == 0 {
            return true;
        }
        let mut ub = n.min(value_len);
        let missing_consts = (self.fingerprint & !value_fp).count_ones() as usize;
        ub = ub.min(n - missing_consts);
        let missing_values =
            (value_fp & !self.fingerprint).count_ones() as usize + unknown_count as usize;
        ub = ub.min(value_len - missing_values.saturating_sub(self.var_count as usize));
        ub as f64 / denom as f64 >= threshold
    }

    /// Matches an interned value against the template, writing one
    /// `(start, end)` token range per variable slot into `ranges` (cleared
    /// first).  Returns `false` when the constant skeleton does not align.
    ///
    /// Runs the string form's slot matcher (`match_slots`) on ids, so both
    /// forms give the same verdict and the same ranges, adjacent-slot
    /// convention included.
    pub fn match_ranges(&self, ids: &[u32], ranges: &mut Vec<(u32, u32)>) -> bool {
        let template = &self.ids;
        match_slots(
            template.len(),
            ids.len(),
            |k| template[k] == WILDCARD_ID,
            |k, pos| template[k] == ids[pos],
            ranges,
        )
    }
}

/// Prefix index over interned templates: first-const *id* → template ids,
/// plus the leading-var spill list.  Bucket membership is id-equality, which
/// coincides exactly with the string index's first-token equality (equal
/// strings ⇔ equal ids within one interner; an out-of-vocabulary first token
/// hits no bucket, like an unindexed string).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct InternedPrefixIndex {
    by_first_const: HashMap<u32, Vec<usize>, BuildFxHasher>,
    leading_var: Vec<usize>,
}

impl InternedPrefixIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        InternedPrefixIndex::default()
    }

    /// Registers a template under its id.
    pub fn insert(&mut self, template_id: usize, template: &InternedTemplate) {
        match template.first_const() {
            Some(first) if !template.starts_with_var() => {
                self.by_first_const
                    .entry(first)
                    .or_default()
                    .push(template_id);
            }
            _ => self.leading_var.push(template_id),
        }
    }

    /// Rebuilds the index from scratch (after generalization moves a
    /// template's first constant).
    pub fn rebuild(&mut self, templates: &[InternedTemplate]) {
        self.by_first_const.clear();
        self.leading_var.clear();
        for (id, template) in templates.iter().enumerate() {
            self.insert(id, template);
        }
    }

    /// Candidate template ids for a value whose first token interned to
    /// `first` — bucket members first (insertion order), then every template
    /// that starts with a variable slot.
    pub fn candidates_into(&self, first: Option<u32>, out: &mut Vec<usize>) {
        out.clear();
        if let Some(first) = first {
            if first != UNKNOWN_ID {
                if let Some(ids) = self.by_first_const.get(&first) {
                    out.extend_from_slice(ids);
                }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lcs::{tokenize_borrowed, TokenMaskTable};

    fn interned(values: &[&str], interner: &mut Interner) -> InternedTemplate {
        let mut template = StringTemplate::from_raw_tokens(&tokenize_borrowed(values[0]));
        for value in &values[1..] {
            template.generalize(&tokenize_borrowed(value));
        }
        InternedTemplate::from_template(&template, interner)
    }

    fn lookup_ids(interner: &Interner, value: &str) -> Vec<u32> {
        let tokens = tokenize_borrowed(value);
        let mut ids = Vec::new();
        interner.lookup_into(&tokens, &mut ids);
        ids
    }

    #[test]
    fn interner_assigns_dense_ids_from_one() {
        let mut interner = Interner::new();
        let a = interner.intern("select");
        let b = interner.intern("from");
        assert_eq!((a, b), (1, 2));
        assert_eq!(interner.intern("select"), 1);
        assert_eq!(interner.len(), 2);
        assert_eq!(interner.vocab_size(), 3);
        assert_eq!(interner.lookup("from"), 2);
        assert_eq!(interner.lookup("absent"), UNKNOWN_ID);
    }

    #[test]
    fn wildcard_is_positional_not_textual() {
        let mut interner = Interner::new();
        let template =
            StringTemplate::from_tokens(&tokenize_borrowed("literal <*> stays constant"));
        let it = InternedTemplate::from_template(&template, &mut interner);
        // "<*>" interned as an ordinary constant: no WILDCARD_ID present.
        assert!(it.ids().iter().all(|&id| id != WILDCARD_ID));
        assert_eq!(it.var_count(), 0);
    }

    #[test]
    fn interned_template_mirrors_string_facts() {
        let mut interner = Interner::new();
        let it = interned(&["get x now", "get y now"], &mut interner);
        assert_eq!(it.len(), 3);
        assert_eq!(it.const_count(), 2);
        assert_eq!(it.var_count(), 1);
        assert!(!it.starts_with_var());
        assert_eq!(it.first_const(), Some(interner.lookup("get")));
    }

    #[test]
    fn match_ranges_agrees_with_string_matcher() {
        let mut interner = Interner::new();
        let mut template = StringTemplate::from_raw_tokens(&tokenize_borrowed("get x now"));
        template.generalize(&tokenize_borrowed("get y now"));
        let it = InternedTemplate::from_template(&template, &mut interner);
        let mut ranges = Vec::new();
        for value in ["get later now", "get now now", "get now and now now", "get"] {
            let tokens = tokenize_borrowed(value);
            let ids = lookup_ids(&interner, value);
            let matched = it.match_ranges(&ids, &mut ranges);
            let expected = template.match_and_extract(&tokens);
            assert_eq!(matched, expected.is_some(), "divergence on {value:?}");
            if let Some(params) = expected {
                let rebuilt: Vec<String> = ranges
                    .iter()
                    .map(|&(s, e)| tokens[s as usize..e as usize].join(" "))
                    .collect();
                assert_eq!(rebuilt, params, "ranges diverged on {value:?}");
            }
        }
    }

    #[test]
    fn similarity_with_matches_string_similarity() {
        let mut interner = Interner::new();
        let it = interned(
            &[
                "select * from orders where id = 1",
                "select * from orders where id = 2",
            ],
            &mut interner,
        );
        let template = {
            let mut t = StringTemplate::from_raw_tokens(&tokenize_borrowed(
                "select * from orders where id = 1",
            ));
            t.generalize(&tokenize_borrowed("select * from orders where id = 2"));
            t
        };
        let mut table = TokenMaskTable::default();
        for value in [
            "select * from orders where id = 42",
            "select * from users where id = 7",
            "HGETALL cart:user-1234",
            "",
        ] {
            let tokens = tokenize_borrowed(value);
            let ids = lookup_ids(&interner, value);
            table.build(&ids, interner.vocab_size());
            let got = it.similarity_with(&mut table);
            let want = template.similarity_to(&tokens);
            assert_eq!(got, want, "similarity diverged on {value:?}");
        }
    }

    #[test]
    fn prefilter_never_rejects_a_winner() {
        let mut interner = Interner::new();
        let it = interned(&["select * from A", "select * from B"], &mut interner);
        let mut table = TokenMaskTable::default();
        for value in [
            "select * from C",
            "select * from orders where id = 9",
            "HGETALL x",
        ] {
            let ids = lookup_ids(&interner, value);
            let (fp, unknown) = value_fingerprint(&ids);
            table.build(&ids, interner.vocab_size());
            let sim = it.similarity_with(&mut table);
            for threshold in [0.3, 0.5, 0.8, 0.95] {
                if sim >= threshold {
                    assert!(
                        it.prefilter_admits(ids.len(), fp, unknown, threshold),
                        "prefilter rejected a candidate with sim {sim} ≥ {threshold} on {value:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn prefilter_rejects_obvious_losers() {
        let mut interner = Interner::new();
        let it = interned(&["select * from A", "select * from B"], &mut interner);
        let ids = lookup_ids(&interner, "completely unrelated words here");
        let (fp, unknown) = value_fingerprint(&ids);
        assert!(!it.prefilter_admits(ids.len(), fp, unknown, 0.8));
    }

    #[test]
    fn interned_index_buckets_by_first_const_id() {
        let mut interner = Interner::new();
        let select = interned(&["select * from A", "select * from B"], &mut interner);
        let update = interned(&["update B set x"], &mut interner);
        let leading = interned(&["x common", "y common"], &mut interner);
        assert!(leading.starts_with_var());
        let mut index = InternedPrefixIndex::new();
        index.rebuild(&[select, update, leading]);
        assert_eq!(index.len(), 3);
        let mut out = vec![7usize; 3];
        index.candidates_into(Some(interner.lookup("select")), &mut out);
        assert_eq!(out, vec![0, 2]);
        index.candidates_into(Some(UNKNOWN_ID), &mut out);
        assert_eq!(out, vec![2]);
        index.candidates_into(None, &mut out);
        assert_eq!(out, vec![2]);
    }

    #[test]
    fn prefilter_stats_absorb_adds_counters() {
        let mut total = PrefilterStats::default();
        total.absorb(PrefilterStats {
            candidates_considered: 10,
            candidates_skipped: 4,
            lcs_calls: 6,
        });
        total.absorb(PrefilterStats {
            candidates_considered: 1,
            candidates_skipped: 0,
            lcs_calls: 1,
        });
        assert_eq!(total.candidates_considered, 11);
        assert_eq!(total.lcs_calls_avoided(), 4);
        assert_eq!(total.lcs_calls, 7);
    }
}
