//! Per-phase ingest profile: where does a span's ingest time go, and what
//! did the allocation-free matching work buy?
//!
//! The ingest hot path is, per span: **tokenize** each string attribute,
//! **intern** the tokens to dense ids, **scan** the prefix-index candidates,
//! **prefilter** provably sub-threshold candidates away, score the survivors
//! with the **bit-parallel LCS** kernel, **extract** the per-slot parameters
//! from the matching template, and **dispatch** the trace to a shard worker.
//! This binary measures each phase in isolation — and the full match path
//! end-to-end — twice:
//!
//! * **before**: faithful replicas of the pre-optimization implementations
//!   (owned per-token `String`s, a fresh candidate `Vec` per value, fresh DP
//!   rows per comparison, string-token LCS, greedy-only matching, owned
//!   parameter extraction, per-trace channel sends), built from the same
//!   public APIs;
//! * **after**: the current implementations (borrowed tokens, interned ids,
//!   thread-local scratch, bit-parallel LCS with exact prefilters, range
//!   extraction into recycled buffers, batched dispatch).
//!
//! Cost is reported as **ns/span** and **bytes/span** (cumulative heap bytes
//! allocated, counted by a wrapping global allocator) over the Fig. 14 load
//! plan's span stream.  Results are persisted as the `profile` section of
//! `BENCH_ingest.json` (schema `mint-ingest-v1`); in full runs the end-to-end
//! match path is asserted to be at least 30% cheaper per span.
//!
//! ```bash
//! cargo run --release --bin exp_ingest_profile
//! MINT_SMOKE=1 cargo run --release --bin exp_ingest_profile   # CI smoke
//! ```

use bench::ingest_json::{self, JsonObj};
use bench::{print_table, ExpConfig};
use mint_core::span_parser::{ParseScratch, PrefixIndex, StringAttributeParser, TemplateToken};
use mint_core::{
    tokenize, tokenize_borrowed, tokenize_into, value_fingerprint, InternedPrefixIndex,
    InternedTemplate, Interner, MintConfig, MintDeployment, PackedVars, ParamsWriter,
    PrefilterStats, SamplingMode, StreamingDeployment, StringTemplate, TokenMaskTable,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use trace_model::{AttrValue, TraceId, TraceSet};
use workload::{layered_application, load_test_plan, GeneratorConfig, StreamingSource};

// ── Counting allocator ──────────────────────────────────────────────────
// Wraps the system allocator and counts cumulative allocated bytes and
// allocation calls, so each phase's heap traffic is measurable.  (The
// library crates forbid unsafe code; a global allocator is the one place a
// binary legitimately needs it.)

static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);
static ALLOCATION_CALLS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        ALLOCATION_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        ALLOCATION_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Wall-clock and allocation deltas around `f`.
struct Measured {
    ns: f64,
    bytes: u64,
    calls: u64,
}

fn measure<R>(f: impl FnOnce() -> R) -> (R, Measured) {
    let bytes_before = ALLOCATED_BYTES.load(Ordering::Relaxed);
    let calls_before = ALLOCATION_CALLS.load(Ordering::Relaxed);
    let start = Instant::now();
    let result = f();
    let ns = start.elapsed().as_nanos() as f64;
    let measured = Measured {
        ns,
        bytes: ALLOCATED_BYTES.load(Ordering::Relaxed) - bytes_before,
        calls: ALLOCATION_CALLS.load(Ordering::Relaxed) - calls_before,
    };
    (result, measured)
}

// ── Legacy replicas ─────────────────────────────────────────────────────
// The pre-optimization implementations, reproduced from the same public
// APIs so the "before" column measures real executable code, not estimates.

/// Pre-optimization tokenizer: a fresh heap `String` per word token and —
/// the punctuation heap-`String` bug — one more per separator character.
fn legacy_tokenize(value: &str) -> Vec<String> {
    fn is_separator(ch: char) -> bool {
        matches!(
            ch,
            ',' | '(' | ')' | '=' | '/' | '?' | '&' | ':' | '.' | '-' | '_'
        )
    }
    let mut tokens = Vec::new();
    let mut current = String::new();
    for ch in value.chars() {
        if ch.is_whitespace() {
            if !current.is_empty() {
                tokens.push(std::mem::take(&mut current));
            }
        } else if is_separator(ch) {
            if !current.is_empty() {
                tokens.push(std::mem::take(&mut current));
            }
            tokens.push(ch.to_string());
        } else {
            current.push(ch);
        }
    }
    if !current.is_empty() {
        tokens.push(current);
    }
    tokens
}

/// Pre-optimization template scoring: score-identical to
/// `StringTemplate::similarity_to` (Var slots match any token), but with two
/// fresh DP row allocations per call instead of the thread-local scratch.
fn legacy_similarity_to(template: &StringTemplate, tokens: &[String]) -> f64 {
    let denom = template.tokens().len().max(tokens.len());
    if denom == 0 {
        return 1.0;
    }
    let mut prev = vec![0usize; tokens.len() + 1];
    let mut curr = vec![0usize; tokens.len() + 1];
    for token_a in template.tokens() {
        for (j, token_b) in tokens.iter().enumerate() {
            let matches = match token_a {
                TemplateToken::Const(s) => s == token_b,
                TemplateToken::Var => true,
            };
            curr[j + 1] = if matches {
                prev[j] + 1
            } else {
                prev[j + 1].max(curr[j])
            };
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[tokens.len()] as f64 / denom as f64
}

/// Pre-optimization matcher: greedy anchors only, no DP fallback — each
/// variable slot ends at the *first* occurrence of the next constant anchor,
/// so values whose parameters contain the anchor spuriously fail (the
/// headline anchor bug this PR fixes).
fn legacy_match(template: &StringTemplate, tokens: &[String]) -> Option<Vec<String>> {
    let ttokens = template.tokens();
    let mut params = Vec::with_capacity(template.var_count());
    let mut pos = 0usize;
    let mut i = 0usize;
    while i < ttokens.len() {
        match &ttokens[i] {
            TemplateToken::Const(expected) => {
                if pos < tokens.len() && &tokens[pos] == expected {
                    pos += 1;
                    i += 1;
                } else {
                    return None;
                }
            }
            TemplateToken::Var => {
                let anchor = ttokens[i + 1..].iter().find_map(|t| match t {
                    TemplateToken::Const(s) => Some(s.as_str()),
                    TemplateToken::Var => None,
                });
                let start = pos;
                match anchor {
                    Some(anchor) => {
                        while pos < tokens.len() && tokens[pos] != anchor {
                            pos += 1;
                        }
                        if pos >= tokens.len() {
                            return None;
                        }
                    }
                    None => pos = tokens.len(),
                }
                params.push(tokens[start..pos].join(" "));
                i += 1;
            }
        }
    }
    if pos == tokens.len() {
        Some(params)
    } else {
        None
    }
}

/// Pre-optimization full match path: owned tokenization, a fresh candidate
/// `Vec` per value, greedy-only structural matching, cloning similarity
/// fallback.  State-compatible with [`StringAttributeParser`] (same template
/// library shape), built from the same public types.
struct LegacyParser {
    templates: Vec<StringTemplate>,
    index: PrefixIndex,
    threshold: f64,
}

impl LegacyParser {
    fn new(threshold: f64) -> Self {
        LegacyParser {
            templates: Vec::new(),
            index: PrefixIndex::new(),
            threshold,
        }
    }

    fn parse(&mut self, value: &str) -> (usize, Vec<String>) {
        let tokens = legacy_tokenize(value);
        let candidates = self.index.candidates(&tokens);
        if let Some(hit) = candidates
            .iter()
            .find_map(|&id| legacy_match(&self.templates[id], &tokens).map(|params| (id, params)))
        {
            return hit;
        }
        let mut best: Option<(usize, f64)> = None;
        for &id in &candidates {
            let score = legacy_similarity_to(&self.templates[id], &tokens);
            if best.map(|(_, s)| score > s).unwrap_or(true) {
                best = Some((id, score));
            }
        }
        if best.map(|(_, s)| s < self.threshold).unwrap_or(true) {
            for (id, template) in self.templates.iter().enumerate() {
                let score = legacy_similarity_to(template, &tokens);
                if best.map(|(_, s)| score > s).unwrap_or(true) {
                    best = Some((id, score));
                }
            }
        }
        match best {
            Some((id, score)) if score >= self.threshold => {
                if let Some(params) = legacy_match(&self.templates[id], &tokens) {
                    return (id, params);
                }
                let first_before = self.templates[id].first_const().map(str::to_owned);
                self.templates[id].generalize(&tokens);
                if self.templates[id].first_const().map(str::to_owned) != first_before {
                    self.index.rebuild(&self.templates);
                }
                let params = legacy_match(&self.templates[id], &tokens)
                    .unwrap_or_else(|| vec![value.to_owned()]);
                (id, params)
            }
            _ => {
                let template = StringTemplate::from_raw_tokens(&tokens);
                let params = legacy_match(&template, &tokens).unwrap_or_default();
                let id = self.templates.len();
                self.index.insert(id, &template);
                self.templates.push(template);
                (id, params)
            }
        }
    }
}

// ── Reporting ───────────────────────────────────────────────────────────

struct Phase {
    name: &'static str,
    before: Measured,
    after: Measured,
}

impl Phase {
    fn reduction_pct(&self) -> f64 {
        if self.before.ns <= 0.0 {
            return 0.0;
        }
        (1.0 - self.after.ns / self.before.ns) * 100.0
    }
}

fn per_span(value: f64, spans: usize, reps: usize) -> f64 {
    value / (spans.max(1) * reps.max(1)) as f64
}

fn main() {
    let cfg = ExpConfig::from_env();
    let smoke = std::env::var("MINT_SMOKE").is_ok();
    let reps = if smoke { 1 } else { 3 };

    // The same span stream the Fig. 14 loadtests replay: the full load plan
    // walked once, materialized so every phase sees identical input.
    let app = layered_application("prod", 8, 6, 26);
    let plan = load_test_plan();
    let plan = if smoke { &plan[..3] } else { &plan[..] };
    let per_test =
        |spec: &workload::LoadTestSpec| cfg.scaled((spec.total_requests() / 10) as usize);
    let generator_config = GeneratorConfig::default()
        .with_seed(cfg.seed)
        .with_abnormal_rate(0.02);
    let batch: TraceSet =
        StreamingSource::from_load_plan(&app, generator_config, plan, per_test).collect();
    let spans = batch.span_count();

    // Every string attribute value in the stream — the tokenizer/matcher
    // phases each process exactly this corpus.
    let values: Vec<&str> = batch
        .traces()
        .iter()
        .flat_map(|t| t.spans())
        .flat_map(|s| s.attributes().iter())
        .filter_map(|(_, v)| match v {
            AttrValue::Str(s) => Some(s.as_str()),
            _ => None,
        })
        .collect();
    println!(
        "profiling {spans} spans / {} string values over the Fig. 14 plan \
         (scale {}, seed {}, reps {reps}{})",
        values.len(),
        cfg.scale,
        cfg.seed,
        if smoke { ", smoke" } else { "" }
    );

    // The legacy tokenizer must stay semantically identical — only its
    // allocation behavior differs.
    for value in values.iter().take(2_000) {
        assert_eq!(
            legacy_tokenize(value),
            tokenize(value),
            "legacy tokenizer replica diverged on {value:?}"
        );
    }

    // Token lists precomputed once, outside every timed region, so phases
    // that consume tokens measure only their own work.
    let owned_tokens: Vec<Vec<String>> = values.iter().map(|v| legacy_tokenize(v)).collect();
    let borrowed_tokens: Vec<Vec<&str>> = values.iter().map(|v| tokenize_borrowed(v)).collect();

    // A template library warmed on the corpus gives the scan/LCS/extract
    // phases realistic candidates.
    let mut warm = StringAttributeParser::new(0.8);
    for value in &values {
        warm.parse(value);
    }
    let templates: Vec<StringTemplate> = warm.templates().to_vec();
    let mut index = PrefixIndex::new();
    index.rebuild(&templates);
    println!(
        "warm template library: {} templates across {} prefix buckets",
        templates.len(),
        index.len()
    );

    // Interned mirror of the warm library: one parser-local vocabulary, the
    // template ids lowered onto it, and every value pre-lowered to id form.
    // This is exactly the state a warmed `StringAttributeParser` carries.
    let mut interner = Interner::new();
    let interned: Vec<InternedTemplate> = templates
        .iter()
        .map(|t| InternedTemplate::from_template(t, &mut interner))
        .collect();
    let mut interned_index = InternedPrefixIndex::new();
    interned_index.rebuild(&interned);
    let value_ids: Vec<Vec<u32>> = borrowed_tokens
        .iter()
        .map(|tokens| {
            let mut ids = Vec::new();
            interner.lookup_into(tokens, &mut ids);
            ids
        })
        .collect();

    // The interned scorer must be score-identical to the string scorer.
    {
        let mut table = TokenMaskTable::new();
        for (i, tokens) in borrowed_tokens.iter().take(2_000).enumerate() {
            let template_idx = i % templates.len();
            table.build(&value_ids[i], interner.vocab_size());
            let interned_score = interned[template_idx].similarity_with(&mut table);
            let string_score = templates[template_idx].similarity_to(tokens);
            assert!(
                (interned_score - string_score).abs() < 1e-12,
                "interned similarity diverged on {:?}: {} vs {}",
                values[i],
                interned_score,
                string_score
            );
        }
    }

    let mut phases: Vec<Phase> = Vec::new();

    // ── Phase: tokenize ──
    let (_, before) = measure(|| {
        for _ in 0..reps {
            for value in &values {
                black_box(legacy_tokenize(value).len());
            }
        }
    });
    let (_, after) = measure(|| {
        let mut buffer: Vec<&str> = Vec::new();
        for _ in 0..reps {
            for value in &values {
                tokenize_into(value, &mut buffer);
                black_box(buffer.len());
            }
        }
    });
    phases.push(Phase {
        name: "tokenize",
        before,
        after,
    });

    // ── Phase: candidate scan ──
    let (_, before) = measure(|| {
        for _ in 0..reps {
            for tokens in &owned_tokens {
                black_box(index.candidates(tokens).len());
            }
        }
    });
    let (_, after) = measure(|| {
        let mut buffer: Vec<usize> = Vec::new();
        for _ in 0..reps {
            for tokens in &borrowed_tokens {
                index.candidates_into(tokens, &mut buffer);
                black_box(buffer.len());
            }
        }
    });
    phases.push(Phase {
        name: "candidate_scan",
        before,
        after,
    });

    // ── Phase: LCS similarity ──
    // Each value scored against a rotating template, like the best-match
    // fallback does per candidate.  Tokens (before) and ids (after) are
    // precomputed outside the timed region, exactly as the parser computes
    // them once per value; the after side pays the per-value mask-table
    // build plus the bit-parallel kernel.
    let (_, before) = measure(|| {
        let mut acc = 0.0f64;
        for _ in 0..reps {
            for (i, tokens) in owned_tokens.iter().enumerate() {
                let template = &templates[i % templates.len()];
                acc += legacy_similarity_to(template, tokens);
            }
        }
        black_box(acc)
    });
    let (_, after) = measure(|| {
        let mut acc = 0.0f64;
        let mut table = TokenMaskTable::new();
        for _ in 0..reps {
            for (i, ids) in value_ids.iter().enumerate() {
                table.build(ids, interner.vocab_size());
                acc += interned[i % interned.len()].similarity_with(&mut table);
            }
        }
        black_box(acc)
    });
    phases.push(Phase {
        name: "lcs_similarity",
        before,
        after,
    });

    // ── Phase: interned LCS, end to end ──
    // The interning change against the *current* string DP (the previous
    // after side: thread-local scratch rows, `&str` equality per cell).  The
    // after side is the whole per-value interned path as the parser runs it:
    // token-id lookup, mask-table build, then the kernel — so the one
    // per-value cost the id representation adds (hashing each token once) is
    // charged here rather than hidden.
    let (_, before) = measure(|| {
        let mut acc = 0.0f64;
        for _ in 0..reps {
            for (i, tokens) in borrowed_tokens.iter().enumerate() {
                let template = &templates[i % templates.len()];
                acc += template.similarity_to(tokens);
            }
        }
        black_box(acc)
    });
    let (_, after) = measure(|| {
        let mut acc = 0.0f64;
        let mut ids: Vec<u32> = Vec::new();
        let mut table = TokenMaskTable::new();
        for _ in 0..reps {
            for (i, tokens) in borrowed_tokens.iter().enumerate() {
                interner.lookup_into(tokens, &mut ids);
                table.build(&ids, interner.vocab_size());
                acc += interned[i % interned.len()].similarity_with(&mut table);
            }
        }
        black_box(acc)
    });
    phases.push(Phase {
        name: "lcs_interned",
        before,
        after,
    });

    // ── Phase: prefilter ──
    // The similarity fallback over the real candidate sets: before scores
    // every candidate with the bit-parallel kernel; after applies the two
    // exact prefilter bounds (length + fingerprint) first.  Both sides
    // accumulate the winning (id, score) whenever it clears the threshold,
    // and those checksums must agree exactly — the prefilter may only skip
    // provable losers, never change a winner.
    let threshold = 0.8;
    let mut prefilter_stats = PrefilterStats::default();
    let scan = |prefilter: bool, stats: &mut PrefilterStats| {
        let mut winner_checksum = 0.0f64;
        let mut winners = 0u64;
        let mut candidates: Vec<usize> = Vec::new();
        let mut table = TokenMaskTable::new();
        for _ in 0..reps {
            for ids in &value_ids {
                interned_index.candidates_into(ids.first().copied(), &mut candidates);
                table.build(ids, interner.vocab_size());
                let (fp, unknown) = value_fingerprint(ids);
                let mut best: Option<(usize, f64)> = None;
                for &id in &candidates {
                    stats.candidates_considered += 1;
                    if prefilter
                        && !interned[id].prefilter_admits(ids.len(), fp, unknown, threshold)
                    {
                        stats.candidates_skipped += 1;
                        continue;
                    }
                    stats.lcs_calls += 1;
                    let score = interned[id].similarity_with(&mut table);
                    if best.map(|(_, s)| score > s).unwrap_or(true) {
                        best = Some((id, score));
                    }
                }
                if let Some((id, score)) = best {
                    if score >= threshold {
                        winners += 1;
                        winner_checksum += score + id as f64;
                    }
                }
            }
        }
        (winners, winner_checksum)
    };
    let mut unfiltered_stats = PrefilterStats::default();
    let (before_winners, before) = measure(|| scan(false, &mut unfiltered_stats));
    let (after_winners, after) = measure(|| scan(true, &mut prefilter_stats));
    assert_eq!(
        before_winners, after_winners,
        "prefilter changed an above-threshold winner"
    );
    phases.push(Phase {
        name: "prefilter",
        before,
        after,
    });
    println!(
        "prefilter over the warm candidate sets: {} of {} candidates skipped \
         ({:.1}%), {} LCS calls avoided, winners unchanged",
        prefilter_stats.candidates_skipped,
        prefilter_stats.candidates_considered,
        100.0 * prefilter_stats.candidates_skipped as f64
            / prefilter_stats.candidates_considered.max(1) as f64,
        prefilter_stats.lcs_calls_avoided(),
    );

    // ── Phase: extract ──
    // (value, template) pairs where the current matcher succeeds; pairs the
    // greedy-only matcher misses are the anchor-bug recoveries and are
    // excluded from the like-for-like timing.
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    let mut recovered = 0usize;
    for (value_idx, tokens) in borrowed_tokens.iter().enumerate() {
        let candidates = index.candidates(tokens);
        if let Some(template_idx) = candidates
            .into_iter()
            .find(|&id| templates[id].match_and_extract(tokens).is_some())
        {
            if legacy_match(&templates[template_idx], &owned_tokens[value_idx]).is_some() {
                pairs.push((value_idx, template_idx));
            } else {
                recovered += 1;
            }
        }
    }
    let (_, before) = measure(|| {
        let mut hits = 0usize;
        for _ in 0..reps {
            for &(value_idx, template_idx) in &pairs {
                hits += legacy_match(&templates[template_idx], &owned_tokens[value_idx]).is_some()
                    as usize;
            }
        }
        black_box(hits)
    });
    let (_, after) = measure(|| {
        let mut hits = 0usize;
        let (mut ranges, mut vars) = (Vec::new(), PackedVars::default());
        for _ in 0..reps {
            for &(value_idx, template_idx) in &pairs {
                vars.clear();
                hits += templates[template_idx].match_and_pack(
                    &borrowed_tokens[value_idx],
                    &mut ranges,
                    &mut vars,
                ) as usize;
            }
        }
        black_box(hits)
    });
    phases.push(Phase {
        name: "extract",
        before,
        after,
    });
    println!(
        "extract pairs: {} matched by both tiers, {} recovered from the greedy \
         anchor bug by the exact tier",
        pairs.len(),
        recovered
    );

    // ── Phase: full match path ──
    // Fresh parsers learn the corpus from scratch each rep, end to end.
    let (legacy_templates, before) = measure(|| {
        let mut count = 0usize;
        for _ in 0..reps {
            let mut parser = LegacyParser::new(0.8);
            for value in &values {
                black_box(parser.parse(value).0);
            }
            count = parser.templates.len();
        }
        count
    });
    let mut match_path_stats = PrefilterStats::default();
    let (current_templates, after) = measure(|| {
        let mut count = 0usize;
        let (mut scratch, mut writer) = (ParseScratch::default(), ParamsWriter::default());
        for _ in 0..reps {
            let mut parser = StringAttributeParser::new(0.8);
            for value in &values {
                writer.begin_block(TraceId::INVALID);
                black_box(parser.parse_into(value, &mut scratch, &mut writer));
            }
            count = parser.template_count();
            match_path_stats = parser.prefilter_stats();
        }
        count
    });
    phases.push(Phase {
        name: "match_path",
        before,
        after,
    });
    println!(
        "match path template libraries: legacy {legacy_templates}, current {current_templates}"
    );
    println!(
        "match path prefilter: {} of {} fallback candidates skipped ({:.1}%), \
         {} LCS calls made",
        match_path_stats.candidates_skipped,
        match_path_stats.candidates_considered,
        100.0 * match_path_stats.candidates_skipped as f64
            / match_path_stats.candidates_considered.max(1) as f64,
        match_path_stats.lcs_calls,
    );

    // ── Phase: dispatch ──
    // Streaming ingest of the same stream, per-trace sends (batch 1, the old
    // behavior) vs batched sends (the default); reports must be identical.
    // Multi-threaded wall clock is noisy — especially on small containers
    // where router and shard workers share a core — so the two sides run
    // interleaved and each keeps its best of `reps` runs; the result is
    // scaled back up because the shared per-span math divides by `reps`.
    let base = MintConfig::default()
        .with_sampling_mode(SamplingMode::AbnormalTag)
        .with_shard_count(4)
        .with_epoch_trace_count(256);
    let dispatch_run = |config: MintConfig| {
        let mut deployment = StreamingDeployment::new(config);
        measure(|| deployment.process(&batch))
    };
    let keep_min = |slot: &mut Option<Measured>, m: Measured| {
        if slot.as_ref().map(|b| m.ns < b.ns).unwrap_or(true) {
            *slot = Some(m);
        }
    };
    let (mut best_before, mut best_after) = (None, None);
    let (mut report_unbatched, mut report_batched) = (None, None);
    for _ in 0..reps {
        let (r, m) = dispatch_run(base.clone().with_dispatch_batch_size(1));
        keep_min(&mut best_before, m);
        report_unbatched = Some(r);
        let (r, m) = dispatch_run(base.clone());
        keep_min(&mut best_after, m);
        report_batched = Some(r);
    }
    assert_eq!(
        report_unbatched, report_batched,
        "dispatch batching changed the cost report"
    );
    let rescale = |best: Option<Measured>| {
        let best = best.expect("at least one dispatch run");
        Measured {
            ns: best.ns * reps as f64,
            bytes: best.bytes * reps as u64,
            calls: best.calls * reps as u64,
        }
    };
    phases.push(Phase {
        name: "dispatch",
        before: rescale(best_before),
        after: rescale(best_after),
    });

    // ── End-to-end pipeline (current implementation only) ──
    let mut serial =
        MintDeployment::new(MintConfig::default().with_sampling_mode(SamplingMode::AbnormalTag));
    let (serial_report, serial_cost) = measure(|| serial.process(&batch));
    assert_eq!(serial_report.traces, batch.len() as u64);

    // ── Table ──
    let rows: Vec<Vec<String>> = phases
        .iter()
        .map(|p| {
            vec![
                p.name.to_owned(),
                format!("{:.0}", per_span(p.before.ns, spans, reps)),
                format!("{:.0}", per_span(p.after.ns, spans, reps)),
                format!("{:.1}%", p.reduction_pct()),
                format!("{:.0}", per_span(p.before.bytes as f64, spans, reps)),
                format!("{:.0}", per_span(p.after.bytes as f64, spans, reps)),
                format!("{:.1}", per_span(p.before.calls as f64, spans, reps)),
                format!("{:.1}", per_span(p.after.calls as f64, spans, reps)),
            ]
        })
        .collect();
    print_table(
        "Ingest hot-path phases, legacy replicas vs current (per span of the Fig. 14 stream)",
        &[
            "phase",
            "before (ns)",
            "after (ns)",
            "time cut",
            "before (B)",
            "after (B)",
            "before allocs",
            "after allocs",
        ],
        &rows,
    );
    println!(
        "\nend-to-end serial pipeline: {:.0} ns/span, {:.0} heap bytes/span \
         ({:.1} allocations/span)",
        per_span(serial_cost.ns, spans, 1),
        per_span(serial_cost.bytes as f64, spans, 1),
        per_span(serial_cost.calls as f64, spans, 1),
    );

    // ── Persist the `profile` section of BENCH_ingest.json ──
    let mut phases_obj = JsonObj::new(2);
    for p in &phases {
        let mut obj = JsonObj::new(3);
        obj.field_f64("before_ns_per_span", per_span(p.before.ns, spans, reps))
            .field_f64("after_ns_per_span", per_span(p.after.ns, spans, reps))
            .field_f64("reduction_pct", p.reduction_pct())
            .field_f64(
                "before_bytes_per_span",
                per_span(p.before.bytes as f64, spans, reps),
            )
            .field_f64(
                "after_bytes_per_span",
                per_span(p.after.bytes as f64, spans, reps),
            )
            .field_f64(
                "before_allocs_per_span",
                per_span(p.before.calls as f64, spans, reps),
            )
            .field_f64(
                "after_allocs_per_span",
                per_span(p.after.calls as f64, spans, reps),
            );
        phases_obj.field_raw(p.name, &obj.finish());
    }
    let mut pipeline = JsonObj::new(2);
    pipeline
        .field_f64("serial_ns_per_span", per_span(serial_cost.ns, spans, 1))
        .field_f64(
            "serial_bytes_per_span",
            per_span(serial_cost.bytes as f64, spans, 1),
        )
        .field_f64(
            "serial_allocs_per_span",
            per_span(serial_cost.calls as f64, spans, 1),
        );
    // Prefilter effectiveness on the real match path (the end-to-end parser
    // run, not the warm-library microphase): how many similarity-fallback
    // candidates the exact bounds discharged without an LCS call.
    let mut prefilter_effect = JsonObj::new(2);
    prefilter_effect
        .field_u64(
            "candidates_considered",
            match_path_stats.candidates_considered,
        )
        .field_u64("candidates_skipped", match_path_stats.candidates_skipped)
        .field_u64("lcs_calls", match_path_stats.lcs_calls)
        .field_u64("lcs_calls_avoided", match_path_stats.lcs_calls_avoided())
        .field_f64(
            "skip_pct",
            100.0 * match_path_stats.candidates_skipped as f64
                / match_path_stats.candidates_considered.max(1) as f64,
        );
    let mut profile = JsonObj::new(1);
    profile
        .field_u64("spans", spans as u64)
        .field_u64("string_values", values.len() as u64)
        .field_u64("reps", reps as u64)
        .field_u64("templates", templates.len() as u64)
        .field_u64("interned_vocabulary", interner.vocab_size() as u64)
        .field_u64("anchor_bug_recovered_matches", recovered as u64)
        .field_raw("phases", &phases_obj.finish())
        .field_raw("prefilter_effect", &prefilter_effect.finish())
        .field_raw("pipeline", &pipeline.finish());
    let path = ingest_json::persist_section(&cfg, smoke, "profile", &profile.finish());
    println!("wrote {path}");

    // The whole point of the exercise, asserted (timing noise makes this too
    // brittle for smoke runs, where reps = 1 and the corpus is tiny).
    let match_path = phases
        .iter()
        .find(|p| p.name == "match_path")
        .expect("match_path phase present");
    if !smoke {
        assert!(
            match_path.reduction_pct() >= 30.0,
            "match path must be at least 30% cheaper per span, measured {:.1}%",
            match_path.reduction_pct()
        );
    }
    println!(
        "\nShape to check: tokenize, candidate scan, LCS and extract drop to \
         (near) zero heap bytes per span; the interned kernel and prefilter \
         cut the similarity phases hard; the full match path is ≥30% cheaper \
         in time (asserted in full runs); prefiltering never changes an \
         above-threshold winner (asserted); and dispatch batching changes \
         cost, not results (asserted)."
    );
}
