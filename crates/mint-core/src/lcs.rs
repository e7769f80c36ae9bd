//! Tokenization and longest-common-subsequence similarity.
//!
//! The span parser clusters string attribute values by the similarity
//! `δ(s1, s2) = |LCS(s1, s2)| / max(|s1|, |s2|)` computed over *word* tokens
//! (Equation 1 of the paper).
//!
//! This module is the innermost ring of the ingest hot path: every string
//! attribute of every span is tokenized, and every candidate template is
//! scored with the LCS dynamic program.  Both are therefore allocation-free
//! in steady state — [`tokenize_borrowed`] yields `&str` slices of the input
//! value instead of fresh heap `String`s, and the LCS rows live in a
//! thread-local scratch buffer reused across calls instead of two `vec!`
//! allocations per comparison.

use crate::intern::{UNKNOWN_ID, WILDCARD_ID};
use std::cell::RefCell;

thread_local! {
    /// Reusable DP rows for [`lcs_length`] / `StringTemplate::similarity_to`.
    /// One pair per thread: the two-row LCS program never needs more, and the
    /// buffers grow to the longest token sequence seen and stay there.
    static LCS_SCRATCH: RefCell<(Vec<usize>, Vec<usize>)> =
        const { RefCell::new((Vec::new(), Vec::new())) };

    /// Scratch for the standalone bit-parallel LCS over arbitrary ids.
    static IDS_SCRATCH: RefCell<IdLcsScratch> = RefCell::new(IdLcsScratch::default());
}

#[derive(Default)]
struct IdLcsScratch {
    symbols: Vec<u32>,
    masks: Vec<u64>,
    v: Vec<u64>,
}

/// Runs `f` with the thread-local LCS scratch rows, cleared and resized to
/// `width` zeroes each.  Callers must not re-enter (the template module and
/// this module share the buffers, but never nest calls).
pub(crate) fn with_lcs_scratch<R>(
    width: usize,
    f: impl FnOnce(&mut Vec<usize>, &mut Vec<usize>) -> R,
) -> R {
    LCS_SCRATCH.with(|cell| {
        let (prev, curr) = &mut *cell.borrow_mut();
        prev.clear();
        prev.resize(width, 0);
        curr.clear();
        curr.resize(width, 0);
        f(prev, curr)
    })
}

/// Whether `ch` is separator punctuation that [`tokenize`] splits into its
/// own token.
#[inline]
fn is_separator(ch: char) -> bool {
    matches!(
        ch,
        ',' | '(' | ')' | '=' | '/' | '?' | '&' | ':' | '.' | '-' | '_'
    )
}

/// Splits a string attribute value into word tokens.
///
/// Tokens are maximal runs of characters separated by whitespace.  Separator
/// punctuation commonly found in SQL, URLs and dotted identifiers
/// (`,`, `(`, `)`, `=`, `/`, `?`, `&`, `:`, `.`, `-`, `_`) is split off into
/// its own tokens so that templates align on structure rather than on
/// glued-together words, and so that the variable fragment of identifiers
/// like `worker-pool-17` or `host-42.prod.internal` is isolated from their
/// constant skeleton.
///
/// This owned variant exists for callers that need `'static` tokens (tests,
/// template storage); the hot path uses [`tokenize_borrowed`], which returns
/// slices of the input and never touches the heap per token.
///
/// ```
/// let tokens = mint_core::tokenize("SELECT * FROM orders WHERE id = 42");
/// assert_eq!(tokens, vec!["SELECT", "*", "FROM", "orders", "WHERE", "id", "=", "42"]);
/// ```
pub fn tokenize(value: &str) -> Vec<String> {
    tokenize_borrowed(value)
        .into_iter()
        .map(str::to_owned)
        .collect()
}

/// [`tokenize`], but the tokens are `&str` slices borrowed from `value`: one
/// `Vec` allocation total, zero per-token heap traffic.  Token boundaries
/// are byte-identical to the owned variant.
pub fn tokenize_borrowed(value: &str) -> Vec<&str> {
    let mut out = Vec::new();
    tokenize_into(value, &mut out);
    out
}

/// Appends the tokens of `value` to `out` (cleared first).  The fully
/// allocation-free entry point for callers that hold a reusable buffer.
pub fn tokenize_into<'a>(value: &'a str, out: &mut Vec<&'a str>) {
    out.clear();
    for_each_token(value, |start, end| out.push(&value[start..end]));
}

/// [`tokenize_into`], but each token is the `(start, end)` byte range it
/// occupies in `value`.  A buffer of ranges borrows nothing, so a parser can
/// own one and reuse it for every value it ever sees.
#[inline]
pub(crate) fn tokenize_ranges(value: &str, out: &mut Vec<(usize, usize)>) {
    out.clear();
    for_each_token(value, |start, end| out.push((start, end)));
}

/// The one tokenizer: calls `emit(start, end)` for every token of `value`.
#[inline]
fn for_each_token(value: &str, mut emit: impl FnMut(usize, usize)) {
    let mut start: Option<usize> = None;
    for (index, ch) in value.char_indices() {
        if ch.is_whitespace() {
            if let Some(s) = start.take() {
                emit(s, index);
            }
        } else if is_separator(ch) {
            if let Some(s) = start.take() {
                emit(s, index);
            }
            emit(index, index + ch.len_utf8());
        } else if start.is_none() {
            start = Some(index);
        }
    }
    if let Some(s) = start {
        emit(s, value.len());
    }
}

/// A tokenized value as the template matchers read it: a slice of token
/// strings (the public, owned-or-borrowed form) or a [`RangeTokens`] view.
pub(crate) trait TokenSeq {
    /// Number of tokens.
    fn len(&self) -> usize;
    /// Token `index`.
    fn token(&self, index: usize) -> &str;
    /// Whether token `index` is `expected` — the matchers' inner comparison.
    #[inline]
    fn token_is(&self, index: usize, expected: &str) -> bool {
        self.token(index) == expected
    }
}

impl<S: AsRef<str>> TokenSeq for [S] {
    #[inline]
    fn len(&self) -> usize {
        <[S]>::len(self)
    }

    #[inline]
    fn token(&self, index: usize) -> &str {
        self[index].as_ref()
    }
}

/// A value and the byte ranges [`tokenize_ranges`] split it into.
#[derive(Clone, Copy)]
pub(crate) struct RangeTokens<'a> {
    pub(crate) value: &'a str,
    pub(crate) ranges: &'a [(usize, usize)],
}

impl<'a> RangeTokens<'a> {
    /// The tokens as string slices, for the cold paths that learn from a
    /// value through the slice-taking template API.
    pub(crate) fn to_vec(self) -> Vec<&'a str> {
        self.ranges
            .iter()
            .map(|&(start, end)| &self.value[start..end])
            .collect()
    }
}

impl TokenSeq for RangeTokens<'_> {
    #[inline]
    fn len(&self) -> usize {
        self.ranges.len()
    }

    #[inline]
    fn token(&self, index: usize) -> &str {
        let (start, end) = self.ranges[index];
        &self.value[start..end]
    }

    /// Compares bytes, which spares the two char-boundary checks of slicing
    /// a `str` on every comparison the template matcher makes.
    #[inline]
    fn token_is(&self, index: usize, expected: &str) -> bool {
        let (start, end) = self.ranges[index];
        end - start == expected.len() && self.value.as_bytes()[start..end] == *expected.as_bytes()
    }
}

/// Length of the longest common subsequence of two token slices.
///
/// Uses the standard two-row dynamic program — `O(|a|·|b|)` time — over the
/// thread-local scratch rows (no per-call allocation).  Generic over the two
/// item types so borrowed tokens compare against owned ones without cloning
/// (`&str` vs `String`, `String` vs `String`, …).
pub fn lcs_length<A, B>(a: &[A], b: &[B]) -> usize
where
    A: PartialEq<B>,
{
    if a.is_empty() || b.is_empty() {
        return 0;
    }
    with_lcs_scratch(b.len() + 1, |prev, curr| {
        for item_a in a {
            for (j, item_b) in b.iter().enumerate() {
                curr[j + 1] = if item_a == item_b {
                    prev[j] + 1
                } else {
                    prev[j + 1].max(curr[j])
                };
            }
            std::mem::swap(prev, curr);
        }
        prev[b.len()]
    })
}

/// The paper's similarity measure over already-tokenized strings:
/// `|LCS| / max(len_a, len_b)`.  Two empty sequences are fully similar.
/// Generic over borrowed/owned token mixes like [`lcs_length`].
pub fn similarity<A, B>(a: &[A], b: &[B]) -> f64
where
    A: PartialEq<B>,
{
    let denom = a.len().max(b.len());
    if denom == 0 {
        return 1.0;
    }
    lcs_length(a, b) as f64 / denom as f64
}

/// One step of the Allison–Dix bit-vector LCS recurrence,
/// `V' = ((V + (V & M)) | (V & ¬M))`, over a multi-word vector with manual
/// carry propagation; the caller masks the top word afterwards.
#[inline]
fn bitpar_step(v: &mut [u64], mask: &[u64]) {
    let mut carry = 0u64;
    for (vw, &mw) in v.iter_mut().zip(mask) {
        let old = *vw;
        let keep = old & !mw;
        let (s1, c1) = old.overflowing_add(old & mw);
        let (s2, c2) = s1.overflowing_add(carry);
        carry = (c1 | c2) as u64;
        *vw = s2 | keep;
    }
}

/// Bit-parallel LCS state for scoring one interned value against many
/// templates: a dense per-symbol mask table over the value's token positions
/// plus the reusable column vector.
///
/// [`TokenMaskTable::build`] loads a value once (`O(m)` with generation-
/// stamped lazy clearing — no per-value table memset); [`TokenMaskTable::llcs`]
/// then scores each template in `O(⌈m/64⌉ · n)` word operations using the
/// Allison–Dix recurrence, where a [`WILDCARD_ID`] template token uses the
/// all-ones mask (a variable slot matches any single token) and an
/// out-of-vocabulary value token sets no mask bit (it can only pair with a
/// wildcard).  Safe Rust throughout; owned by the parser's `ParseScratch`.
#[derive(Debug, Clone, Default)]
pub struct TokenMaskTable {
    words: usize,
    value_len: usize,
    generation: u64,
    stamps: Vec<u64>,
    masks: Vec<u64>,
    all_ones: Vec<u64>,
    zeros: Vec<u64>,
    v: Vec<u64>,
}

impl TokenMaskTable {
    /// Creates an empty table (equivalent to `Default`).
    pub fn new() -> Self {
        TokenMaskTable::default()
    }

    /// Number of tokens in the currently loaded value.
    pub fn value_len(&self) -> usize {
        self.value_len
    }

    /// Loads an interned value: builds one position mask per distinct known
    /// symbol id.  `vocab` must cover every non-reserved id (use
    /// `Interner::vocab_size`); ids at or beyond it are treated as unknown.
    pub fn build(&mut self, ids: &[u32], vocab: usize) {
        let m = ids.len();
        self.value_len = m;
        self.words = m.div_ceil(64);
        self.generation += 1;
        if self.stamps.len() < vocab {
            self.stamps.resize(vocab, 0);
        }
        let slots = self.stamps.len() * self.words;
        if self.masks.len() < slots {
            self.masks.resize(slots, 0);
        }
        self.all_ones.clear();
        self.all_ones.resize(self.words, u64::MAX);
        if !m.is_multiple_of(64) {
            if let Some(last) = self.all_ones.last_mut() {
                *last = (1u64 << (m % 64)) - 1;
            }
        }
        self.zeros.clear();
        self.zeros.resize(self.words, 0);
        for (pos, &id) in ids.iter().enumerate() {
            let slot = id as usize;
            if id == UNKNOWN_ID || slot >= self.stamps.len() {
                continue;
            }
            debug_assert_ne!(id, WILDCARD_ID, "values never contain the wildcard id");
            let base = slot * self.words;
            if self.stamps[slot] != self.generation {
                self.stamps[slot] = self.generation;
                for word in &mut self.masks[base..base + self.words] {
                    *word = 0;
                }
            }
            self.masks[base + pos / 64] |= 1u64 << (pos % 64);
        }
    }

    /// Length of the LCS between `template_ids` and the loaded value, where
    /// [`WILDCARD_ID`] matches any single token.  `LLCS = m − popcount(V)`
    /// after running the recurrence over the template's tokens.
    pub fn llcs(&mut self, template_ids: &[u32]) -> usize {
        let m = self.value_len;
        if m == 0 || template_ids.is_empty() {
            return 0;
        }
        self.v.clear();
        self.v.extend_from_slice(&self.all_ones);
        let top = self.all_ones[self.words - 1];
        for &id in template_ids {
            let slot = id as usize;
            let mask: &[u64] = if id == WILDCARD_ID {
                &self.all_ones
            } else if slot < self.stamps.len() && self.stamps[slot] == self.generation {
                &self.masks[slot * self.words..slot * self.words + self.words]
            } else {
                // Symbol absent from the value: the recurrence leaves V
                // unchanged, so skip the word loop entirely.
                continue;
            };
            bitpar_step(&mut self.v, mask);
            self.v[self.words - 1] &= top;
        }
        let surviving: u32 = self.v.iter().map(|w| w.count_ones()).sum();
        m - surviving as usize
    }
}

/// Length of the longest common subsequence of two id slices, computed with
/// the bit-parallel kernel — `O(⌈|a|/64⌉ · |b|)` word operations instead of
/// the two-row dynamic program's `O(|a| · |b|)` cell updates.
///
/// Ids are opaque symbols here (no wildcard semantics); callers must ensure
/// distinct tokens map to distinct ids.  Result-identical to [`lcs_length`]
/// on the corresponding token sequences.
pub fn lcs_length_ids(a: &[u32], b: &[u32]) -> usize {
    let m = a.len();
    if m == 0 || b.is_empty() {
        return 0;
    }
    let words = m.div_ceil(64);
    let top = if m.is_multiple_of(64) {
        u64::MAX
    } else {
        (1u64 << (m % 64)) - 1
    };
    IDS_SCRATCH.with(|cell| {
        let scratch = &mut *cell.borrow_mut();
        let symbols = &mut scratch.symbols;
        symbols.clear();
        symbols.extend_from_slice(a);
        symbols.sort_unstable();
        symbols.dedup();
        let masks = &mut scratch.masks;
        masks.clear();
        masks.resize(symbols.len() * words, 0);
        for (pos, id) in a.iter().enumerate() {
            if let Ok(slot) = symbols.binary_search(id) {
                masks[slot * words + pos / 64] |= 1u64 << (pos % 64);
            }
        }
        let v = &mut scratch.v;
        v.clear();
        v.resize(words, u64::MAX);
        v[words - 1] = top;
        for id in b {
            if let Ok(slot) = symbols.binary_search(id) {
                bitpar_step(v, &masks[slot * words..slot * words + words]);
                v[words - 1] &= top;
            }
        }
        let surviving: u32 = v.iter().map(|w| w.count_ones()).sum();
        m - surviving as usize
    })
}

/// The paper's similarity measure over interned token sequences:
/// `|LCS| / max(len_a, len_b)`.  Result-identical to [`similarity`] on the
/// corresponding token sequences.
pub fn similarity_ids(a: &[u32], b: &[u32]) -> f64 {
    let denom = a.len().max(b.len());
    if denom == 0 {
        return 1.0;
    }
    lcs_length_ids(a, b) as f64 / denom as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<String> {
        tokenize(s)
    }

    /// Interns each distinct token of both slices into sequential ids.
    fn to_ids(a: &[String], b: &[String]) -> (Vec<u32>, Vec<u32>) {
        let mut map = std::collections::HashMap::new();
        let mut next = 1u32;
        let mut assign = |tokens: &[String]| -> Vec<u32> {
            tokens
                .iter()
                .map(|t| {
                    *map.entry(t.clone()).or_insert_with(|| {
                        next += 1;
                        next - 1
                    })
                })
                .collect()
        };
        let ia = assign(a);
        let ib = assign(b);
        (ia, ib)
    }

    #[test]
    fn bit_parallel_lcs_matches_dp_on_examples() {
        let cases = [
            (
                "select * from orders where id = 1",
                "select * from users where id = 2",
            ),
            ("a b a b", "a b"),
            ("b a", "a b"),
            ("alpha beta", "gamma delta"),
            ("", "x y"),
            ("x", ""),
            ("same same same", "same same same"),
            ("a, b, c", "c, b, a"),
        ];
        for (left, right) in cases {
            let (a, b) = (toks(left), toks(right));
            let (ia, ib) = to_ids(&a, &b);
            assert_eq!(
                lcs_length_ids(&ia, &ib),
                lcs_length(&a, &b),
                "divergence on {left:?} vs {right:?}"
            );
            assert_eq!(similarity_ids(&ia, &ib), similarity(&a, &b));
        }
    }

    #[test]
    fn bit_parallel_lcs_crosses_word_boundaries() {
        // 150-token sequences force a three-word bit vector with carries.
        let a: Vec<u32> = (1..=150).collect();
        let b: Vec<u32> = (1..=150).filter(|x| x % 3 != 0).collect();
        assert_eq!(lcs_length_ids(&a, &b), b.len());
        let reversed: Vec<u32> = a.iter().rev().copied().collect();
        // LCS of a sequence and its reverse (all-distinct) is 1.
        assert_eq!(lcs_length_ids(&a, &reversed), 1);
    }

    #[test]
    fn mask_table_scores_templates_with_wildcards() {
        // vocab: get=1 now=2; template `get <*> now`.
        let template = [1u32, WILDCARD_ID, 2];
        let mut table = TokenMaskTable::default();
        // value `get now now` → ids [1, 2, 2].
        table.build(&[1, 2, 2], 3);
        assert_eq!(table.value_len(), 3);
        assert_eq!(table.llcs(&template), 3);
        // value `get later now` → `later` unknown.
        table.build(&[1, UNKNOWN_ID, 2], 3);
        assert_eq!(table.llcs(&template), 3);
        // value `get` alone: only the anchor aligns plus nothing for Var/now.
        table.build(&[1], 3);
        assert_eq!(table.llcs(&template), 1);
        // empty value.
        table.build(&[], 3);
        assert_eq!(table.llcs(&template), 0);
    }

    #[test]
    fn mask_table_reuse_across_values_is_clean() {
        let mut table = TokenMaskTable::default();
        table.build(&[1, 1, 2], 4);
        assert_eq!(table.llcs(&[1, 2]), 2);
        // A shorter second value must not see stale mask bits from the first.
        table.build(&[2], 4);
        assert_eq!(table.llcs(&[1, 2]), 1);
        assert_eq!(table.llcs(&[3]), 0);
        // Growing vocab reallocates cleanly.
        table.build(&[9, 8], 10);
        assert_eq!(table.llcs(&[9, 8]), 2);
        assert_eq!(table.llcs(&[8, 9]), 1);
        assert_eq!(table.llcs(&[8]), 1);
    }

    #[test]
    fn tokenize_splits_on_whitespace_and_punctuation() {
        assert_eq!(
            toks("INSERT INTO inventory (city, rb)"),
            vec!["INSERT", "INTO", "inventory", "(", "city", ",", "rb", ")"]
        );
        assert_eq!(
            toks("/v1/campus/user=abc"),
            vec!["/", "v1", "/", "campus", "/", "user", "=", "abc"]
        );
        assert_eq!(
            toks("worker-pool-17"),
            vec!["worker", "-", "pool", "-", "17"]
        );
        assert_eq!(toks("a_b.c"), vec!["a", "_", "b", ".", "c"]);
        assert!(toks("").is_empty());
        assert_eq!(toks("   spaced   out "), vec!["spaced", "out"]);
    }

    #[test]
    fn borrowed_and_owned_tokenization_agree() {
        for value in [
            "SELECT * FROM orders WHERE id = 42",
            "/v1/campus/user=abc",
            "worker-pool-17",
            "  padded   runs  ",
            "",
            "=",
            "héllo wörld.été-42",
            "ünïcode(…)tail",
        ] {
            let owned = tokenize(value);
            let borrowed = tokenize_borrowed(value);
            assert_eq!(owned, borrowed, "divergence on {value:?}");
        }
    }

    #[test]
    fn tokenize_into_reuses_the_buffer() {
        let mut buffer = Vec::new();
        tokenize_into("a b c", &mut buffer);
        assert_eq!(buffer, vec!["a", "b", "c"]);
        tokenize_into("x", &mut buffer);
        assert_eq!(buffer, vec!["x"]);
        tokenize_into("", &mut buffer);
        assert!(buffer.is_empty());
    }

    #[test]
    fn lcs_of_identical_sequences_is_length() {
        let a = toks("select * from orders");
        assert_eq!(lcs_length(&a, &a), a.len());
    }

    #[test]
    fn lcs_of_disjoint_sequences_is_zero() {
        assert_eq!(lcs_length(&toks("alpha beta"), &toks("gamma delta")), 0);
        assert_eq!(lcs_length::<String, String>(&[], &toks("x")), 0);
    }

    #[test]
    fn lcs_handles_partial_overlap() {
        let a = toks("select * from orders where id = 1");
        let b = toks("select * from users where id = 2");
        // Common: select * from where id =  (6 tokens)
        assert_eq!(lcs_length(&a, &b), 6);
    }

    #[test]
    fn lcs_is_generic_over_borrowed_items() {
        let owned = toks("select * from orders");
        let borrowed = tokenize_borrowed("select * from users");
        // &str vs String comparison, no clones.
        assert_eq!(lcs_length(&borrowed, &owned), 3);
        assert_eq!(similarity(&borrowed, &owned), 3.0 / 4.0);
    }

    #[test]
    fn similarity_matches_paper_formula() {
        let a = toks("select * from A");
        let b = toks("select * from B");
        let expected = 3.0 / 4.0;
        assert!((similarity(&a, &b) - expected).abs() < 1e-9);
        assert_eq!(similarity(&a, &a), 1.0);
        assert_eq!(similarity::<String, String>(&[], &[]), 1.0);
    }

    #[test]
    fn similarity_is_symmetric() {
        let a = toks("java-heartbeat thread pool 1");
        let b = toks("java-heartbeat thread pool 2 extra");
        assert_eq!(similarity(&a, &b), similarity(&b, &a));
    }

    #[test]
    fn similar_sql_statements_cross_default_threshold() {
        let a = toks("SELECT * FROM orders WHERE tenant = 17 AND id = 4211");
        let b = toks("SELECT * FROM orders WHERE tenant = 99 AND id = 12");
        assert!(similarity(&a, &b) >= 0.8);
        let c = toks("HGETALL cart:user-1234");
        assert!(similarity(&a, &c) < 0.3);
    }
}
