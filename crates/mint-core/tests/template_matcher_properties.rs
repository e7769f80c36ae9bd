//! Property tests for the template matcher's load-bearing invariants.
//!
//! The two-tier matcher (greedy scan + exact segment search, see
//! `span_parser::template`) must uphold, for *every* template/value pair:
//!
//! 1. **Generalize ⇒ match** — after `generalize(tokens)`, both the
//!    template's seed value and the generalized-to value match.  This is
//!    exactly the invariant the greedy-only matcher violated: when a slot's
//!    content contains the slot's own anchor token (template `get <*> now`
//!    vs value `get now now`), the greedy scan ended the slot at the first
//!    anchor occurrence and spuriously failed.
//! 2. **Reconstruct roundtrip** — the extracted parameters, interleaved back
//!    into the template skeleton, reproduce the (whitespace-normalized)
//!    value; and the parameter count always equals `var_count`.
//! 3. **Anchor-in-slot** — templates whose variable slot must swallow a
//!    token equal to its following constant anchor still match, for
//!    arbitrary prefixes, fillers and suffixes.
//!
//! 4. **Oracle equivalence** — both template forms (`StringTemplate` and
//!    `InternedTemplate`) give the verdict and the slot ranges of the matcher
//!    they replaced: the same greedy scan, then a full reachability table.
//!    That table is kept here, and only here, as the oracle.
//!
//! The word alphabet is deliberately tiny so collisions between slot
//! contents and constant anchors are common rather than rare.

use mint_core::span_parser::TemplateToken;
use mint_core::{InternedTemplate, Interner, PackedVars, StringTemplate};
use proptest::prelude::*;

/// Small alphabet: repeated words maximize anchor/slot collisions.
const WORDS: [&str; 6] = ["get", "set", "now", "run", "job", "end"];

fn word() -> impl Strategy<Value = String> {
    (0usize..WORDS.len()).prop_map(|i| WORDS[i].to_owned())
}

fn words(max: usize) -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec(word(), 0..max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Invariant 1: a template generalized to cover a second value matches
    /// both its seed and that value.
    #[test]
    fn generalized_template_matches_both_values(
        a in proptest::collection::vec(word(), 1..8),
        b in proptest::collection::vec(word(), 1..8),
    ) {
        let mut template = StringTemplate::from_tokens(&a);
        template.generalize(&b);
        prop_assert!(
            template.match_and_extract(&a).is_some(),
            "template {:?} lost its seed {:?}",
            template.masked(),
            a
        );
        prop_assert!(
            template.match_and_extract(&b).is_some(),
            "template {:?} does not cover generalized-to value {:?}",
            template.masked(),
            b
        );
    }

    /// Invariant 2: extracted parameters reconstruct the value exactly, and
    /// there is one parameter per variable slot.
    #[test]
    fn matched_params_reconstruct_the_value(
        a in proptest::collection::vec(word(), 1..8),
        b in proptest::collection::vec(word(), 1..8),
    ) {
        let mut template = StringTemplate::from_tokens(&a);
        template.generalize(&b);
        for value in [&a, &b] {
            let params = template
                .match_and_extract(value)
                .expect("generalized template must match");
            prop_assert_eq!(params.len(), template.var_count());
            prop_assert_eq!(template.reconstruct(&params), value.join(" "));
        }
    }

    /// Invariant 3: a slot whose content ends with (or contains) its own
    /// anchor still matches — the regression class behind the anchor bug.
    #[test]
    fn slot_containing_its_anchor_matches(
        prefix in words(3),
        anchor in word(),
        filler in words(3),
        suffix in words(3),
    ) {
        // Template `prefix <*> anchor suffix`: a digit-bearing token seeds
        // the variable slot (raw-token pre-masking).
        let mut template_tokens = prefix.clone();
        template_tokens.push("7".to_owned());
        template_tokens.push(anchor.clone());
        template_tokens.extend(suffix.iter().cloned());
        let template = StringTemplate::from_raw_tokens(&template_tokens);

        // Value: the slot content is `filler ++ [anchor]` — the greedy scan
        // would stop the slot at this embedded anchor and fail.
        let mut value = prefix.clone();
        value.extend(filler.iter().cloned());
        value.push(anchor.clone());
        value.push(anchor.clone());
        value.extend(suffix.iter().cloned());

        let params = template.match_and_extract(&value);
        prop_assert!(
            params.is_some(),
            "template {:?} must match {:?}",
            template.masked(),
            value.join(" ")
        );
        let params = params.unwrap();
        prop_assert_eq!(params.len(), template.var_count());
        prop_assert_eq!(template.reconstruct(&params), value.join(" "));
    }

    /// A template seeded from raw tokens always matches its own seed, with
    /// digit-bearing tokens recoverable as parameters.
    #[test]
    fn raw_seeded_template_matches_its_seed(
        tokens in proptest::collection::vec(
            prop_oneof![word(), (0u32..1000).prop_map(|n| n.to_string())],
            1..10,
        ),
    ) {
        let template = StringTemplate::from_raw_tokens(&tokens);
        let params = template.match_and_extract(&tokens);
        prop_assert!(params.is_some(), "seed {:?} must match itself", tokens);
        prop_assert_eq!(
            template.reconstruct(&params.unwrap()),
            tokens.join(" ")
        );
    }
}

/// The headline regression, pinned outside the property loop: the exact
/// values from the bug report must keep working.
#[test]
fn anchor_bug_regression_cases() {
    let template = StringTemplate::from_raw_tokens(&["get", "7", "now"]);
    assert_eq!(template.masked(), "get <*> now");
    assert_eq!(
        template.match_and_extract(&["get", "now", "now"]),
        Some(vec!["now".to_owned()])
    );
    let template = StringTemplate::from_raw_tokens(&["run", "job", "3", "end"]);
    assert_eq!(
        template.match_and_extract(&["run", "job", "end", "end"]),
        Some(vec!["end".to_owned()])
    );
}

/// The matcher `match_slots` replaced, as its oracle: template token `k` of
/// `n` is a variable slot iff `is_var(k)`, and constant `k` equals value
/// token `pos` of `m` iff `eq(k, pos)`.  The greedy scan answers first;
/// when it fails, the reachability table decides.
fn oracle(
    n: usize,
    m: usize,
    is_var: impl Fn(usize) -> bool,
    eq: impl Fn(usize, usize) -> bool,
) -> Option<Vec<(u32, u32)>> {
    oracle_greedy(n, m, &is_var, &eq).or_else(|| oracle_reachability(n, m, &is_var, &eq))
}

/// Greedy one-pass matcher: each variable slot runs until the first
/// occurrence of the next constant anchor.  Sound but incomplete.
fn oracle_greedy(
    n: usize,
    m: usize,
    is_var: &dyn Fn(usize) -> bool,
    eq: &dyn Fn(usize, usize) -> bool,
) -> Option<Vec<(u32, u32)>> {
    let mut ranges = Vec::new();
    let mut pos = 0usize;
    for i in 0..n {
        if !is_var(i) {
            if pos < m && eq(i, pos) {
                pos += 1;
                continue;
            }
            return None;
        }
        let anchor = (i + 1..n).find(|&k| !is_var(k));
        let start = pos;
        match anchor {
            Some(anchor) => {
                while pos < m && !eq(anchor, pos) {
                    pos += 1;
                }
                if pos >= m {
                    return None;
                }
            }
            None => pos = m,
        }
        ranges.push((start as u32, pos as u32));
    }
    (pos == m).then_some(ranges)
}

/// Exact matcher: the reachability table
/// `can[i][pos] ⇔ template[i..] matches value[pos..]`, then a forward walk
/// giving each slot the shortest span that keeps the rest matchable.
fn oracle_reachability(
    n: usize,
    m: usize,
    is_var: &dyn Fn(usize) -> bool,
    eq: &dyn Fn(usize, usize) -> bool,
) -> Option<Vec<(u32, u32)>> {
    let width = m + 1;
    let mut can = vec![false; (n + 1) * width];
    // Base row: an exhausted template matches only an exhausted value.
    can[n * width + m] = true;
    for i in (0..n).rev() {
        let (lower, upper) = can.split_at_mut((i + 1) * width);
        let row = &mut lower[i * width..];
        let next = &upper[..width];
        if is_var(i) {
            // A slot may consume any span: row[pos] = OR of next[pos..=m].
            let mut any = false;
            for pos in (0..=m).rev() {
                any |= next[pos];
                row[pos] = any;
            }
        } else {
            for pos in 0..m {
                row[pos] = eq(i, pos) && next[pos + 1];
            }
        }
    }
    if !can[0] {
        return None;
    }
    let mut ranges = Vec::new();
    let mut pos = 0usize;
    for i in 0..n {
        if !is_var(i) {
            pos += 1;
            continue;
        }
        let next = &can[(i + 1) * width..(i + 2) * width];
        let end = (pos..=m)
            .find(|&p| next[p])
            .expect("a reachable slot cell has a reachable successor");
        ranges.push((pos as u32, end as u32));
        pos = end;
    }
    Some(ranges)
}

/// The oracle's answer for `template` against `value`.
fn oracle_of(template: &StringTemplate, value: &[String]) -> Option<Vec<(u32, u32)>> {
    let tokens = template.tokens();
    oracle(
        tokens.len(),
        value.len(),
        |k| tokens[k] == TemplateToken::Var,
        |k, pos| matches!(&tokens[k], TemplateToken::Const(s) if *s == value[pos]),
    )
}

/// The slot ranges the string form gives `value`, if it matches.
fn string_ranges(template: &StringTemplate, value: &[String]) -> Option<Vec<(u32, u32)>> {
    let (mut ranges, mut vars) = (Vec::new(), PackedVars::default());
    template
        .match_and_pack(value, &mut ranges, &mut vars)
        .then_some(ranges)
}

/// The slot ranges the interned form gives `value`, if it matches.
fn interned_ranges(template: &StringTemplate, value: &[String]) -> Option<Vec<(u32, u32)>> {
    let mut interner = Interner::new();
    let interned = InternedTemplate::from_template(template, &mut interner);
    let (mut ids, mut ranges) = (Vec::new(), Vec::new());
    interner.lookup_into(value, &mut ids);
    interned.match_ranges(&ids, &mut ranges).then_some(ranges)
}

/// Template tokens: three words and two digit-bearing tokens, which
/// `from_raw_tokens` turns into slots, so adjacent slots are common.
const TEMPLATE_WORDS: [&str; 5] = ["get", "now", "end", "7", "8"];

/// Value tokens: the template's three constants and nothing else, so every
/// slot's content is made of anchors.
const VALUE_WORDS: [&str; 3] = ["get", "now", "end"];

fn template_tokens() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec(
        (0usize..TEMPLATE_WORDS.len()).prop_map(|i| TEMPLATE_WORDS[i].to_owned()),
        0..9,
    )
}

fn value_words(max: usize) -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec(
        (0usize..VALUE_WORDS.len()).prop_map(|i| VALUE_WORDS[i].to_owned()),
        0..max,
    )
}

/// A value planted from `template`: its constants, with slot `i` filled by
/// `fillers[i % 8]`, then one `edit` — `(0, _, _)` none, `(1, at, word)`
/// replace the token at `at`, `(2, at, _)` delete it.
fn plant(
    template: &StringTemplate,
    fillers: &[Vec<String>],
    edit: (usize, usize, String),
) -> Vec<String> {
    let mut value = Vec::new();
    let mut slot = 0;
    for token in template.tokens() {
        match token {
            TemplateToken::Const(s) => value.push(s.clone()),
            TemplateToken::Var => {
                value.extend(fillers[slot % fillers.len()].iter().cloned());
                slot += 1;
            }
        }
    }
    let (kind, at, word) = edit;
    if !value.is_empty() {
        let at = at % value.len();
        match kind {
            1 => value[at] = word,
            2 => {
                value.remove(at);
            }
            _ => {}
        }
    }
    value
}

/// Cases per oracle property: 512, or `PROPTEST_CASES` when set (CI runs
/// many more in release).
fn oracle_cases() -> ProptestConfig {
    let cases = std::env::var("PROPTEST_CASES").ok();
    ProptestConfig::with_cases(cases.and_then(|v| v.parse().ok()).unwrap_or(512))
}

proptest! {
    #![proptest_config(oracle_cases())]

    /// Invariant 4, string form: on random values (mostly misses) and on
    /// values planted from the template (mostly anchor-heavy hits).
    #[test]
    fn string_template_matches_like_the_oracle(
        tokens in template_tokens(),
        random in value_words(10),
        fillers in proptest::collection::vec(value_words(4), 8..9),
        edit in (0usize..3, 0usize..32, (0usize..3).prop_map(|i| VALUE_WORDS[i].to_owned())),
    ) {
        let template = StringTemplate::from_raw_tokens(&tokens);
        for value in [random, plant(&template, &fillers, edit)] {
            prop_assert_eq!(
                string_ranges(&template, &value),
                oracle_of(&template, &value),
                "template {:?} value {:?}",
                template.masked(),
                value
            );
        }
    }

    /// Invariant 4, interned form, on the same kinds of values.
    #[test]
    fn interned_template_matches_like_the_oracle(
        tokens in template_tokens(),
        random in value_words(10),
        fillers in proptest::collection::vec(value_words(4), 8..9),
        edit in (0usize..3, 0usize..32, (0usize..3).prop_map(|i| VALUE_WORDS[i].to_owned())),
    ) {
        let template = StringTemplate::from_raw_tokens(&tokens);
        for value in [random, plant(&template, &fillers, edit)] {
            prop_assert_eq!(
                interned_ranges(&template, &value),
                oracle_of(&template, &value),
                "template {:?} value {:?}",
                template.masked(),
                value
            );
        }
    }
}

/// The boundary shapes, pinned: empty templates and values, templates of
/// slots only, and a slot run in each position.
#[test]
fn boundary_shapes_match_like_the_oracle() {
    let cases: [(&[&str], &[&str]); 12] = [
        (&[], &[]),
        (&[], &["get"]),
        (&["7"], &[]),
        (&["7", "8"], &[]),
        (&["7", "8"], &["now", "end"]),
        (&["get"], &[]),
        (&["get", "7"], &["get"]),
        (&["7", "get"], &["get", "get"]),
        (&["get", "7", "8", "end"], &["get", "end", "end", "end"]),
        (&["7", "end", "8"], &["end", "end", "end"]),
        (&["get", "7", "now", "8", "end"], &["get", "now", "end"]),
        (&["get", "7", "end", "8", "end"], &["get", "end"]),
    ];
    for (tokens, value) in cases {
        let template = StringTemplate::from_raw_tokens(tokens);
        let value: Vec<String> = value.iter().map(|&t| t.to_owned()).collect();
        let want = oracle_of(&template, &value);
        assert_eq!(
            string_ranges(&template, &value),
            want,
            "{tokens:?} vs {value:?}"
        );
        assert_eq!(
            interned_ranges(&template, &value),
            want,
            "{tokens:?} vs {value:?}"
        );
    }
}

/// A 4 096-token value against a template of 24 constant runs: the greedy
/// scan fails on it, and both forms give the oracle's ranges, for the value
/// and for the value with its last token changed.
#[test]
fn a_long_value_against_a_many_run_template_gets_the_oracles_answer() {
    // A fixed LCG keeps the value the same on every run.
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut word = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        VALUE_WORDS[(state >> 33) as usize % VALUE_WORDS.len()]
    };
    // Runs of 1–3 constants, separated by runs of 1–2 slots.
    let mut tokens = Vec::new();
    for run in 0..24 {
        if run > 0 {
            tokens.extend(["7", "8"].iter().take(1 + run % 2));
        }
        for _ in 0..1 + run % 3 {
            tokens.push(word());
        }
    }
    let template = StringTemplate::from_raw_tokens(&tokens);
    let fillers: Vec<Vec<String>> = (0..8)
        .map(|_| (0..100).map(|_| word().to_owned()).collect())
        .collect();
    let mut value = plant(&template, &fillers, (0, 0, String::new()));
    // Pad to 4 096 tokens inside the first slot, which follows one constant.
    let pad: Vec<String> = (value.len()..4096).map(|_| word().to_owned()).collect();
    value.splice(1..1, pad);
    assert_eq!(value.len(), 4096);
    let mut changed = value.clone();
    changed[4095] = if value[4095] == "get" { "now" } else { "get" }.to_owned();

    let tokens = template.tokens();
    let greedy = |value: &[String]| {
        oracle_greedy(
            tokens.len(),
            value.len(),
            &|k| tokens[k] == TemplateToken::Var,
            &|k, pos| matches!(&tokens[k], TemplateToken::Const(s) if *s == value[pos]),
        )
    };
    assert_eq!(
        greedy(&value),
        None,
        "the value must defeat the greedy scan"
    );
    let want = oracle_of(&template, &value);
    assert!(want.is_some(), "the planted value must match");
    assert_eq!(string_ranges(&template, &value), want);
    assert_eq!(interned_ranges(&template, &value), want);
    let want = oracle_of(&template, &changed);
    assert_eq!(want, None);
    assert_eq!(string_ranges(&template, &changed), want);
    assert_eq!(interned_ranges(&template, &changed), want);
}
