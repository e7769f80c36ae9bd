//! String templates: the common skeleton of a cluster of attribute values.

use crate::lcs::{similarity, with_lcs_scratch, TokenSeq};
use crate::params::PackedVars;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One token of a string template: either a constant word or a variable slot.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TemplateToken {
    /// A constant token that every member of the cluster shares.
    Const(String),
    /// A variable slot (rendered `<*>` in approximate traces).
    Var,
}

/// The common pattern of a cluster of string attribute values.
///
/// A template is a sequence of constant tokens and variable slots, e.g.
/// `SELECT * FROM <*> WHERE id = <*>`.  Parsing a concrete value against the
/// template yields the per-slot parameters; the template itself is stored
/// once in the pattern library.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct StringTemplate {
    tokens: Vec<TemplateToken>,
}

/// Whether a token is "obviously variable": it contains a decimal digit.
/// Identifiers, counters, IP addresses, hex ids and timestamps all match this
/// rule, which is the standard pre-masking step log parsers apply before
/// clustering so that one-off identifier values do not spawn one template
/// each.
pub fn is_variable_token(token: &str) -> bool {
    token.chars().any(|c| c.is_ascii_digit())
}

impl StringTemplate {
    /// Creates a template whose tokens are all constants (a cluster of one).
    pub fn from_tokens<S: AsRef<str>>(tokens: &[S]) -> Self {
        StringTemplate {
            tokens: tokens
                .iter()
                .map(|t| TemplateToken::Const(t.as_ref().to_owned()))
                .collect(),
        }
    }

    /// Creates a template from raw tokens, pre-masking digit-bearing tokens
    /// as variable slots (one slot per masked token).  This is how online
    /// parsing and offline clustering seed new templates so that identifier
    /// values never become constants.
    pub fn from_raw_tokens<S: AsRef<str>>(tokens: &[S]) -> Self {
        StringTemplate {
            tokens: tokens
                .iter()
                .map(|t| {
                    let t = t.as_ref();
                    if is_variable_token(t) {
                        TemplateToken::Var
                    } else {
                        TemplateToken::Const(t.to_owned())
                    }
                })
                .collect(),
        }
    }

    /// The template tokens.
    pub fn tokens(&self) -> &[TemplateToken] {
        &self.tokens
    }

    /// Number of variable slots.
    pub fn var_count(&self) -> usize {
        self.tokens
            .iter()
            .filter(|t| matches!(t, TemplateToken::Var))
            .count()
    }

    /// Number of constant tokens (no allocation — the hot-path sort key for
    /// structural candidate ordering).
    pub fn const_count(&self) -> usize {
        self.tokens.len() - self.var_count()
    }

    /// The constant tokens, in order.
    pub fn const_tokens(&self) -> Vec<&str> {
        self.tokens
            .iter()
            .filter_map(|t| match t {
                TemplateToken::Const(s) => Some(s.as_str()),
                TemplateToken::Var => None,
            })
            .collect()
    }

    /// The first constant token, if any (used for prefix-based candidate
    /// pruning).
    pub fn first_const(&self) -> Option<&str> {
        self.tokens.iter().find_map(|t| match t {
            TemplateToken::Const(s) => Some(s.as_str()),
            TemplateToken::Var => None,
        })
    }

    /// Whether the template starts with a variable slot.
    pub fn starts_with_var(&self) -> bool {
        matches!(self.tokens.first(), Some(TemplateToken::Var))
    }

    /// Similarity between this template and a tokenized value, following the
    /// paper's LCS formula.  Variable slots match any single token.
    ///
    /// Generic over borrowed (`&str`) and owned (`String`) tokens, and runs
    /// on the shared thread-local LCS scratch rows — no per-call allocation.
    pub fn similarity_to<S: AsRef<str>>(&self, tokens: &[S]) -> f64 {
        let denom = self.tokens.len().max(tokens.len());
        if denom == 0 {
            return 1.0;
        }
        // LCS where Const must equal the token and Var matches anything.
        let a = &self.tokens;
        let b = tokens;
        let best = with_lcs_scratch(b.len() + 1, |prev, curr| {
            for token_a in a {
                for (j, token_b) in b.iter().enumerate() {
                    let matches = match token_a {
                        TemplateToken::Const(s) => s == token_b.as_ref(),
                        TemplateToken::Var => true,
                    };
                    curr[j + 1] = if matches {
                        prev[j] + 1
                    } else {
                        prev[j + 1].max(curr[j])
                    };
                }
                std::mem::swap(prev, curr);
            }
            prev[b.len()]
        });
        best as f64 / denom as f64
    }

    /// Generalizes the template so that it also covers `tokens`: constant
    /// tokens not shared with `tokens` become variable slots (consecutive
    /// slots are collapsed).  Returns `true` if the template changed.
    pub fn generalize<S: AsRef<str>>(&mut self, tokens: &[S]) -> bool {
        let merged = merge(&self.tokens, tokens);
        if merged != self.tokens {
            self.tokens = merged;
            true
        } else {
            false
        }
    }

    /// Matches a tokenized value against the template and extracts one
    /// parameter string per variable slot (tokens in a slot are joined with a
    /// single space; a slot may be empty).
    ///
    /// Returns `None` if the constant skeleton does not align with the value.
    ///
    /// The slots are assigned by the two tiers of `match_slots` (below): a
    /// greedy scan, then an exact segment search for the values whose
    /// parameters contain the next constant anchor (template `get <*> now`
    /// vs value `get now now`).  Outside runs of adjacent slots the tiers
    /// agree; inside one, greedy gives the run's tokens to its first slot and
    /// the segment tier to its last.
    pub fn match_and_extract<S: AsRef<str>>(&self, tokens: &[S]) -> Option<Vec<String>> {
        let mut spans = Vec::new();
        self.match_spans(tokens, &mut spans).then(|| {
            spans
                .iter()
                .map(|&(start, end)| join_tokens(&tokens[start as usize..end as usize]))
                .collect()
        })
    }

    /// [`Self::match_and_extract`] as the ingest path runs it: the slot
    /// contents are appended to `vars` (one slot per variable, nothing
    /// appended on a mismatch) and `ranges` is working memory, so a caller
    /// that reuses both allocates nothing once they have grown.
    pub fn match_and_pack<S: AsRef<str>>(
        &self,
        tokens: &[S],
        ranges: &mut Vec<(u32, u32)>,
        vars: &mut PackedVars,
    ) -> bool {
        let matched = self.match_spans(tokens, ranges);
        if matched {
            for &(start, end) in ranges.iter() {
                vars.push_slot(&tokens[start as usize..end as usize]);
            }
        }
        matched
    }

    /// Allocation-free core of the matcher: writes one `(start, end)` token
    /// range per variable slot into `spans` (cleared first) and reports
    /// whether the skeleton aligned.
    pub(crate) fn match_spans<T: TokenSeq + ?Sized>(
        &self,
        tokens: &T,
        spans: &mut Vec<(u32, u32)>,
    ) -> bool {
        let template = &self.tokens;
        match_slots(
            template.len(),
            tokens.len(),
            |k| matches!(template[k], TemplateToken::Var),
            |k, pos| matches!(&template[k], TemplateToken::Const(s) if tokens.token_is(pos, s)),
            spans,
        )
    }

    /// Reconstructs a (whitespace-normalized) value from per-slot parameters.
    /// Missing parameters render as `<*>`.
    pub fn reconstruct<S: AsRef<str>>(&self, params: &[S]) -> String {
        self.reconstruct_from(params.iter().map(AsRef::as_ref))
    }

    /// [`Self::reconstruct`] with the slot contents coming from an iterator —
    /// the slices of a span's packed variable text.
    pub fn reconstruct_from<'p>(&self, mut params: impl Iterator<Item = &'p str>) -> String {
        // Sized for the constants; the slot contents grow it at most a little.
        let mut out = String::with_capacity(self.stored_size());
        for token in &self.tokens {
            let part = match token {
                TemplateToken::Const(s) => s.as_str(),
                TemplateToken::Var => params.next().unwrap_or("<*>"),
            };
            if !part.is_empty() {
                if !out.is_empty() {
                    out.push(' ');
                }
                out.push_str(part);
            }
        }
        out
    }

    /// Renders the template with every variable slot masked as `<*>` — the
    /// representation shown in approximate traces (Fig. 10 of the paper).
    pub fn masked(&self) -> String {
        fn part(token: &TemplateToken) -> &str {
            match token {
                TemplateToken::Const(s) => s.as_str(),
                TemplateToken::Var => "<*>",
            }
        }
        // One allocation: approximate queries render every template of
        // every span they return.
        let mut masked = String::with_capacity(self.tokens.iter().map(|t| part(t).len() + 1).sum());
        for (i, token) in self.tokens.iter().enumerate() {
            if i > 0 {
                masked.push(' ');
            }
            masked.push_str(part(token));
        }
        masked
    }

    /// Size in bytes of the template when stored in the pattern library.
    pub fn stored_size(&self) -> usize {
        self.tokens
            .iter()
            .map(|t| match t {
                TemplateToken::Const(s) => s.len() + 1,
                TemplateToken::Var => 3,
            })
            .sum::<usize>()
            + 4
    }

    /// Similarity between the constant skeletons of two templates.
    /// Compares the borrowed const tokens directly — no cloning.
    pub fn skeleton_similarity(&self, other: &StringTemplate) -> f64 {
        let a = self.const_tokens();
        let b = other.const_tokens();
        if a.is_empty() && b.is_empty() {
            return 1.0;
        }
        similarity(&a, &b)
    }
}

impl fmt::Display for StringTemplate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.masked())
    }
}

/// Joins slot tokens with single spaces into one owned parameter string.
pub(crate) fn join_tokens<S: AsRef<str>>(tokens: &[S]) -> String {
    if tokens.is_empty() {
        return String::new();
    }
    let capacity = tokens.iter().map(|t| t.as_ref().len()).sum::<usize>() + tokens.len() - 1;
    let mut out = String::with_capacity(capacity);
    for (index, token) in tokens.iter().enumerate() {
        if index > 0 {
            out.push(' ');
        }
        out.push_str(token.as_ref());
    }
    out
}

/// The slot matcher of both template forms ([`StringTemplate::match_spans`],
/// `InternedTemplate::match_ranges`).  Template token `k` of `n` is a
/// variable slot iff `is_var(k)`; constant `k` equals value token `pos` of
/// `m` iff `eq(k, pos)`.  Writes one `(start, end)` value range per slot
/// into `ranges` (cleared first) and reports whether the template matches.
///
/// A slot matches any run of tokens, the empty one included, so a template
/// is a glob: runs of constants separated by runs of slots.  Two tiers:
///
/// 1. Greedy: each slot runs to the first occurrence of the next constant.
///    One pass, no backtracking, and it answers almost every value; but a
///    slot that must swallow a copy of its own anchor makes it fail
///    (template `get <*> now` vs value `get now now`).
/// 2. Segments, when greedy fails: the leading constant run must sit at 0,
///    the trailing one flush with the end, and each run between them at its
///    leftmost occurrence after the previous one.  Leftmost is always safe,
///    because what follows a middle run starts with a slot: if the rest
///    matches from `q` it matches from any `q' ≤ q`.  So this tier is exact,
///    and each slot run ends where the rest first can start: the
///    leftmost-shortest assignment.  At most O(n·m) comparisons.
///
/// The tiers split a run of adjacent slots differently, and both
/// conventions are kept because parameter bytes are pinned: greedy gives the
/// run's tokens to its *first* slot, the segment tier to its *last*, the
/// others staying empty.  Template `user <*> <*> end` reads `user a b end`
/// as `["a b", ""]` (greedy) and `user end x end`, where greedy fails, as
/// `["", "end x"]`.
pub(crate) fn match_slots(
    n: usize,
    m: usize,
    is_var: impl Fn(usize) -> bool,
    eq: impl Fn(usize, usize) -> bool,
    ranges: &mut Vec<(u32, u32)>,
) -> bool {
    greedy_slots(n, m, &is_var, &eq, ranges) || segment_slots(n, m, &is_var, &eq, ranges)
}

/// [`match_slots`]' first tier: each slot ends at the first occurrence of
/// the next constant (or at the end of the value, after the last one).
/// Sound but incomplete.
fn greedy_slots(
    n: usize,
    m: usize,
    is_var: &impl Fn(usize) -> bool,
    eq: &impl Fn(usize, usize) -> bool,
    ranges: &mut Vec<(u32, u32)>,
) -> bool {
    ranges.clear();
    let mut pos = 0;
    for k in 0..n {
        if !is_var(k) {
            if pos < m && eq(k, pos) {
                pos += 1;
            } else {
                return false;
            }
            continue;
        }
        let start = pos;
        match (k + 1..n).find(|&next| !is_var(next)) {
            Some(anchor) => {
                while pos < m && !eq(anchor, pos) {
                    pos += 1;
                }
                if pos == m {
                    return false;
                }
            }
            None => pos = m,
        }
        ranges.push((start as u32, pos as u32));
    }
    pos == m
}

/// [`match_slots`]' second tier: the constant runs placed leftmost, each
/// slot run given the gap before the next one.  Exact.
fn segment_slots(
    n: usize,
    m: usize,
    is_var: &impl Fn(usize) -> bool,
    eq: &impl Fn(usize, usize) -> bool,
    ranges: &mut Vec<(u32, u32)>,
) -> bool {
    ranges.clear();
    let run_at = |first: usize, len: usize, pos: usize| (0..len).all(|j| eq(first + j, pos + j));
    // The leading constant run is `..lead`, the trailing one `tail..`.
    let Some(lead) = (0..n).find(|&k| is_var(k)) else {
        return n == m && run_at(0, n, 0);
    };
    let mut tail = n;
    while !is_var(tail - 1) {
        tail -= 1;
    }
    if lead + n - tail > m {
        return false;
    }
    let limit = m - (n - tail);
    if !run_at(0, lead, 0) || !run_at(tail, n - tail, limit) {
        return false;
    }
    let (mut k, mut pos) = (lead, lead);
    while k < tail {
        // The slot run `first..consts`, then the constant run `consts..k`
        // (empty after the last slot, whose gap ends at the trailing run).
        let first = k;
        while k < tail && is_var(k) {
            k += 1;
        }
        let consts = k;
        while k < tail && !is_var(k) {
            k += 1;
        }
        let (gap_end, next) = if consts == k {
            (limit, limit)
        } else {
            let len = k - consts;
            let last_start = (limit + 1).saturating_sub(len);
            let Some(at) = (pos..last_start).find(|&at| run_at(consts, len, at)) else {
                return false;
            };
            (at, at + len)
        };
        for _ in first + 1..consts {
            ranges.push((pos as u32, pos as u32));
        }
        ranges.push((pos as u32, gap_end as u32));
        pos = next;
    }
    true
}

/// Merges a template token sequence with a raw token sequence: tokens on the
/// LCS stay constant, everything else becomes a (collapsed) variable slot.
fn merge<S: AsRef<str>>(template: &[TemplateToken], tokens: &[S]) -> Vec<TemplateToken> {
    // Dynamic program over (template, tokens) where only Const tokens match.
    let n = template.len();
    let m = tokens.len();
    let mut dp = vec![vec![0usize; m + 1]; n + 1];
    for i in (0..n).rev() {
        for j in (0..m).rev() {
            let matches =
                matches!(&template[i], TemplateToken::Const(s) if s == tokens[j].as_ref());
            dp[i][j] = if matches {
                dp[i + 1][j + 1] + 1
            } else {
                dp[i + 1][j].max(dp[i][j + 1])
            };
        }
    }
    // Traceback.
    let mut out: Vec<TemplateToken> = Vec::with_capacity(n.max(m));
    let push_var = |out: &mut Vec<TemplateToken>| {
        if !matches!(out.last(), Some(TemplateToken::Var)) {
            out.push(TemplateToken::Var);
        }
    };
    let (mut i, mut j) = (0usize, 0usize);
    while i < n && j < m {
        let matches = matches!(&template[i], TemplateToken::Const(s) if s == tokens[j].as_ref());
        if matches {
            out.push(template[i].clone());
            i += 1;
            j += 1;
        } else if dp[i + 1][j] >= dp[i][j + 1] {
            push_var(&mut out);
            i += 1;
        } else {
            push_var(&mut out);
            j += 1;
        }
    }
    if i < n || j < m {
        push_var(&mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intern::{InternedTemplate, Interner};
    use crate::lcs::{tokenize, tokenize_borrowed};

    fn template_from(values: &[&str]) -> StringTemplate {
        let mut template = StringTemplate::from_tokens(&tokenize(values[0]));
        for value in &values[1..] {
            template.generalize(&tokenize(value));
        }
        template
    }

    #[test]
    fn single_value_template_is_all_const() {
        let t = StringTemplate::from_tokens(&tokenize("select * from A"));
        assert_eq!(t.var_count(), 0);
        assert_eq!(t.const_tokens(), vec!["select", "*", "from", "A"]);
        assert_eq!(t.masked(), "select * from A");
    }

    #[test]
    fn generalize_introduces_var_slots() {
        let t = template_from(&["select * from A", "select * from B"]);
        assert_eq!(t.var_count(), 1);
        assert_eq!(t.masked(), "select * from <*>");
    }

    #[test]
    fn generalize_collapses_adjacent_vars() {
        let t = template_from(&[
            "INSERT INTO inventory (a, b)",
            "INSERT INTO inventory (ccc, ddd)",
        ]);
        // The differing tokens are interleaved with constant commas/parens;
        // masked form keeps the structure.
        assert!(t.masked().starts_with("INSERT INTO inventory"));
        assert!(t.var_count() >= 1);
        // Further identical generalization is a no-op.
        let mut t2 = t.clone();
        assert!(!t2.generalize(&tokenize("INSERT INTO inventory (a, b)")));
    }

    #[test]
    fn match_and_extract_returns_slot_contents() {
        let t = template_from(&[
            "select * from A where id = 1",
            "select * from B where id = 2",
        ]);
        let params = t
            .match_and_extract(&tokenize("select * from orders where id = 42"))
            .unwrap();
        assert_eq!(params, vec!["orders".to_string(), "42".to_string()]);
    }

    #[test]
    fn match_fails_on_skeleton_mismatch() {
        let t = template_from(&["select * from A", "select * from B"]);
        assert!(t.match_and_extract(&tokenize("delete from A")).is_none());
        assert!(t.match_and_extract(&tokenize("select x from A")).is_none());
    }

    #[test]
    fn match_accepts_borrowed_tokens() {
        let t = template_from(&["select * from A", "select * from B"]);
        let params = t
            .match_and_extract(&tokenize_borrowed("select * from orders"))
            .unwrap();
        assert_eq!(params, vec!["orders".to_string()]);
        assert!(t.similarity_to(&tokenize_borrowed("select * from C")) >= 0.8);
    }

    #[test]
    fn empty_var_slot_is_allowed() {
        let t = template_from(&["get user alice now", "get user now"]);
        // "alice" vs nothing: slot may be empty.
        let params = t.match_and_extract(&tokenize("get user now")).unwrap();
        assert_eq!(params, vec![String::new()]);
    }

    #[test]
    fn anchor_token_inside_slot_still_matches() {
        // The headline regression: a parameter equal to the slot's next
        // constant anchor must not break the match.  Template `get <*> now`
        // vs value `get now now` used to return `None` because the greedy
        // scan stopped the slot at the first `now`.
        let t = template_from(&["get x now", "get y now"]);
        assert_eq!(t.masked(), "get <*> now");
        let params = t.match_and_extract(&tokenize("get now now")).unwrap();
        assert_eq!(params, vec!["now".to_string()]);
    }

    #[test]
    fn anchor_heavy_slots_resolve_leftmost_shortest() {
        // Multi-token slot containing several anchor occurrences.
        let t = template_from(&["get x now", "get y now"]);
        assert_eq!(
            t.match_and_extract(&tokenize("get now and now now"))
                .unwrap(),
            vec!["now and now".to_string()]
        );
        // Two slots sharing an anchor token: the segment tier gives each
        // slot the shortest span that keeps the rest matchable.
        let t = template_from(&["a x b y c", "a z b w c"]);
        assert_eq!(t.masked(), "a <*> b <*> c");
        assert_eq!(
            t.match_and_extract(&tokenize("a b b b c")).unwrap(),
            vec![String::new(), "b b".to_string()]
        );
        assert_eq!(
            t.match_and_extract(&tokenize("a c b b c")).unwrap(),
            vec!["c".to_string(), "b".to_string()]
        );
    }

    #[test]
    fn anchor_in_trailing_open_slot_matches() {
        // Slot at the end of the template: no anchor, greedy already handles
        // it; slot before a final anchor equal to its own content does not.
        let t = template_from(&["run job 1 end", "run job 2 end"]);
        assert_eq!(t.masked(), "run job <*> end");
        assert_eq!(
            t.match_and_extract(&tokenize("run job end end")).unwrap(),
            vec!["end".to_string()]
        );
        assert!(t.match_and_extract(&tokenize("run job end")).unwrap()[0].is_empty());
        // Still rejects genuinely non-matching values.
        assert!(t.match_and_extract(&tokenize("run job end stop")).is_none());
        assert!(t.match_and_extract(&tokenize("walk job x end")).is_none());
    }

    /// The ranges one tier of [`match_slots`] gives `value`, if it matches.
    fn tier(template: &StringTemplate, value: &str, exact: bool) -> Option<Vec<(u32, u32)>> {
        let tokens = tokenize(value);
        let template = template.tokens();
        let is_var = |k: usize| template[k] == TemplateToken::Var;
        let eq = |k: usize, pos: usize| template[k] == TemplateToken::Const(tokens[pos].clone());
        let (n, m, mut ranges) = (template.len(), tokens.len(), Vec::new());
        let matched = if exact {
            segment_slots(n, m, &is_var, &eq, &mut ranges)
        } else {
            greedy_slots(n, m, &is_var, &eq, &mut ranges)
        };
        matched.then_some(ranges)
    }

    fn greedy(template: &StringTemplate, value: &str) -> Option<Vec<(u32, u32)>> {
        tier(template, value, false)
    }

    fn segments(template: &StringTemplate, value: &str) -> Option<Vec<(u32, u32)>> {
        tier(template, value, true)
    }

    #[test]
    fn exact_matcher_agrees_with_greedy_where_greedy_succeeds() {
        // Without adjacent slots, where greedy succeeds both tiers give the
        // same ranges.
        let t = template_from(&[
            "select * from A where id = 1",
            "select * from B where id = 2",
        ]);
        let value = "select * from shipments where id = 9";
        assert_eq!(greedy(&t, value), segments(&t, value));
        assert!(greedy(&t, value).is_some());
        let t2 = template_from(&["get x now", "get y now"]);
        assert_eq!(greedy(&t2, "get later now"), segments(&t2, "get later now"));
        // And on the bug input the exact tier strictly extends greedy.
        assert_eq!(greedy(&t2, "get now now"), None);
        assert_eq!(segments(&t2, "get now now"), Some(vec![(1, 2)]));
    }

    #[test]
    fn adjacent_slots_split_their_run_by_tier() {
        // Greedy gives a slot run's tokens to its first slot, the segment
        // tier to its last; the matcher answers with greedy when it can.
        let t = StringTemplate::from_raw_tokens(&["user", "12", "34", "end"]);
        assert_eq!(t.masked(), "user <*> <*> end");
        assert_eq!(greedy(&t, "user a b end"), Some(vec![(1, 3), (3, 3)]));
        assert_eq!(segments(&t, "user a b end"), Some(vec![(1, 1), (1, 3)]));
        assert_eq!(greedy(&t, "user end x end"), None);
        assert_eq!(segments(&t, "user end x end"), Some(vec![(1, 1), (1, 3)]));
        let mut interner = Interner::new();
        let interned = InternedTemplate::from_template(&t, &mut interner);
        for (value, params, ranges) in [
            ("user a b end", ["a b", ""], [(1, 3), (3, 3)]),
            ("user end x end", ["", "end x"], [(1, 1), (1, 3)]),
        ] {
            assert_eq!(
                t.match_and_extract(&tokenize(value)),
                Some(params.map(str::to_owned).to_vec())
            );
            let mut ids = Vec::new();
            interner.lookup_into(&tokenize(value), &mut ids);
            let mut got = Vec::new();
            assert!(interned.match_ranges(&ids, &mut got));
            assert_eq!(got, ranges);
        }
    }

    #[test]
    fn reconstruct_roundtrips_token_content() {
        let t = template_from(&[
            "select * from A where id = 1",
            "select * from B where id = 2",
        ]);
        let original = "select * from shipments where id = 777";
        let tokens = tokenize(original);
        let params = t.match_and_extract(&tokens).unwrap();
        let rebuilt = t.reconstruct(&params);
        assert_eq!(tokenize(&rebuilt), tokens);
    }

    #[test]
    fn reconstruct_roundtrips_anchor_bearing_params() {
        let t = template_from(&["get x now", "get y now"]);
        let tokens = tokenize("get now now");
        let params = t.match_and_extract(&tokens).unwrap();
        assert_eq!(tokenize(&t.reconstruct(&params)), tokens);
    }

    #[test]
    fn reconstruct_masks_missing_params() {
        let t = template_from(&["a x b", "a y b"]);
        assert_eq!(t.reconstruct::<&str>(&[]), "a <*> b");
    }

    #[test]
    fn similarity_to_rewards_matching_skeleton() {
        let t = template_from(&["select * from A", "select * from B"]);
        assert!(t.similarity_to(&tokenize("select * from C")) >= 0.8);
        assert!(t.similarity_to(&tokenize("HGETALL cart:1")) < 0.3);
    }

    #[test]
    fn first_const_and_leading_var() {
        let all_const = StringTemplate::from_tokens(&tokenize("alpha beta"));
        assert_eq!(all_const.first_const(), Some("alpha"));
        assert!(!all_const.starts_with_var());
        let t = template_from(&["x common", "y common"]);
        assert!(t.starts_with_var());
        assert_eq!(t.first_const(), Some("common"));
    }

    #[test]
    fn const_count_matches_const_tokens() {
        let t = template_from(&["select * from A where id = 1"]);
        assert_eq!(t.const_count(), t.const_tokens().len());
        let g = template_from(&["select * from A", "select * from B"]);
        assert_eq!(g.const_count(), 3);
        assert_eq!(g.const_count() + g.var_count(), g.tokens().len());
    }

    #[test]
    fn stored_size_is_positive_and_display_matches_masked() {
        let t = template_from(&["select * from A", "select * from B"]);
        assert!(t.stored_size() > 0);
        assert_eq!(format!("{t}"), t.masked());
    }

    #[test]
    fn skeleton_similarity_of_related_templates_is_high() {
        let a = template_from(&["select * from A", "select * from B"]);
        let b = template_from(&["select * from C where x = 1", "select * from D where x = 2"]);
        assert!(a.skeleton_similarity(&b) >= 0.5);
        assert_eq!(a.skeleton_similarity(&a), 1.0);
    }
}
