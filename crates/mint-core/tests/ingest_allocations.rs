//! Holds the allocation count and the retained bytes of the serial ingest
//! spine in tier-1.
//!
//! A counting `#[global_allocator]` (per thread, so the other tests of this
//! binary cannot disturb a count) measures, on a warmed deployment over a
//! fixed-seed `layered_application` corpus:
//!
//! * steady-state `MintDeployment::ingest_trace` stays under a per-span
//!   allocation budget — the spine borrows the trace, probes its libraries
//!   with ids and writes parameters as bytes into pages it recycles;
//! * a span whose pattern already exists allocates nothing through the
//!   writer form `SpanParser::parse_into`, and only its decoded parameters
//!   through the owned `parse`: no `String` for its attribute keys, service
//!   or operation;
//! * a sub-trace whose topology already exists allocates nothing in
//!   `TraceParser::encode_parsed` and the library's probe;
//! * what the spine keeps per buffered span is close to the span's wire
//!   size, the unit the Params Buffer's budget is in;
//! * a long value that defeats the template matcher's greedy scan is
//!   matched without allocating, on the first call of a fresh thread.
//!
//! mintbench measures the same count end to end (`allocs_per_span`,
//! `peak_heap_mb`); this test is what fails first, and names the span.

use mint_bloom::BloomFilter;
use mint_core::{
    InternedTemplate, Interner, MintConfig, MintDeployment, PackedVars, ParamsWriter, ParsedSpan,
    SamplingMode, SpanParser, StringTemplate, TopoPatternLibrary, TraceParser,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use trace_model::{ServiceGroups, Trace, TraceSet};
use workload::{layered_application, GeneratorConfig, TraceGenerator};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated and has not freed.  Signed: a block may
    /// be freed by another thread than the one that allocated it.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn retain(bytes: i64) {
    // `try_with`: a thread frees its own locals while it is torn down.
    let _ = LIVE_BYTES.try_with(|live| live.set(live.get() + bytes));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// only addition is two thread-local counter bumps, which allocate nothing
// (`const` initialisers, no destructors).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
        retain(layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        retain(-(layout.size() as i64));
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
        retain(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations (and reallocations) `work` made on this thread.
fn allocations_of<T>(work: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = work();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

fn corpus() -> TraceSet {
    let config = GeneratorConfig::default()
        .with_seed(7)
        .with_abnormal_rate(0.02);
    TraceGenerator::new(layered_application("alloc", 6, 5, 20), config).generate(1_200)
}

/// Allocations per span the steady-state spine may make.  Measured: 0.70
/// with nothing sampled, as below — 0.65 of it the `Vec` every Bloom filter
/// insertion hashes its trace id through, once per sub-trace; the spine
/// allocated 4.99 while parameters were structs, and 110.5 while it owned
/// its strings.
const BUDGET_PER_SPAN: f64 = 1.5;

/// Bytes the spine may keep per buffered span, in units of the span's wire
/// size.  Measured: 1.29 — the encoded records, in whole pages per agent.
const RETAINED_PER_WIRE_BYTE: f64 = 1.5;

#[test]
fn steady_state_ingest_stays_under_the_allocation_budget() {
    let traces = corpus();
    let (learn, measure) = traces.traces().split_at(800);
    // Nothing sampled: the count is the spine's own, without the parameter
    // uploads and backend blocks a sampled trace legitimately pays for.
    let config = MintConfig::default().with_sampling_mode(SamplingMode::None);
    let mut mint = MintDeployment::new(config);
    mint.warm_up(&traces);
    for trace in learn {
        mint.ingest_trace(trace);
    }
    let spans: usize = measure.iter().map(Trace::len).sum();
    let buffered = |mint: &MintDeployment| -> usize {
        let buffers = mint.agents().map(|agent| agent.params_buffer());
        buffers.map(|buffer| buffer.used_bytes()).sum()
    };
    let (wire_before, live_before) = (buffered(&mint), LIVE_BYTES.with(Cell::get));
    let ((), allocations) = allocations_of(|| {
        for trace in measure {
            mint.ingest_trace(trace);
        }
    });
    let per_span = allocations as f64 / spans as f64;
    assert!(
        per_span <= BUDGET_PER_SPAN,
        "{allocations} allocations for {spans} spans: {per_span:.2} per span, budget {BUDGET_PER_SPAN}"
    );

    // Nothing was sampled and nothing evicted: every span measured is still
    // buffered, and what the heap grew by is what buffering them costs.
    assert!(mint
        .agents()
        .all(|a| a.params_buffer().evicted_blocks() == 0));
    let wire = (buffered(&mint) - wire_before) as f64;
    let retained = (LIVE_BYTES.with(Cell::get) - live_before) as f64;
    assert!(
        retained <= RETAINED_PER_WIRE_BYTE * wire,
        "{retained} bytes retained for {wire} bytes of wire size over {spans} spans: {:.2} per wire byte, budget {RETAINED_PER_WIRE_BYTE}",
        retained / wire
    );
}

#[test]
fn a_span_of_a_known_pattern_allocates_only_its_parameters() {
    let traces = corpus();
    // Two parsers in lockstep, one driven through each form.
    let mut parser = SpanParser::new(&MintConfig::default());
    let mut writing = SpanParser::new(&MintConfig::default());
    let mut writer = ParamsWriter::default();
    let spans: Vec<_> = traces.iter().flat_map(Trace::spans).collect();
    let (learn, measure) = spans.split_at(spans.len() / 2);
    for span in learn {
        parser.parse(span);
        writer.begin_block(span.trace_id());
        writing.parse_into(span, &mut writer);
    }
    let mut checked = 0;
    for span in measure {
        let fallbacks = parser.prefilter_stats().candidates_considered;
        let ((pattern, params, is_new), allocations) = allocations_of(|| parser.parse(span));
        let (written, writer_allocations) = allocations_of(|| {
            writer.begin_block(span.trace_id());
            writing.parse_into(span, &mut writer)
        });
        assert_eq!(written, (pattern, is_new));
        if is_new || parser.prefilter_stats().candidates_considered > fallbacks {
            // Learning (a new pattern, a template created or generalised) may
            // allocate; a fixed-shape corpus rarely gets here after `learn`.
            continue;
        }
        checked += 1;
        // The writer form: the record goes into a buffer that has grown.
        assert_eq!(
            writer_allocations,
            0,
            "span {} of {} attributes through `parse_into`",
            span.span_id(),
            span.attributes().len()
        );
        // The owned form: the positional parameter vector, the packed
        // variable text and its slot boundaries.  Keys, service and
        // operation would be one `String` each on top: 3 + attributes.
        assert!(
            allocations <= 3,
            "span {} of {} attributes allocated {allocations} times",
            span.span_id(),
            span.attributes().len()
        );
        assert_eq!(params.attr_params.len(), span.attributes().len());
    }
    assert!(
        checked * 10 >= measure.len() * 9,
        "only {checked} spans were steady-state"
    );
}

#[test]
fn a_sub_trace_of_a_known_topology_allocates_nothing() {
    let config = MintConfig::default();
    let traces = corpus();
    let mut span_parser = SpanParser::new(&config);
    let mut writer = ParamsWriter::default();
    let mut trace_parser = TraceParser::new();
    // One library for all services here; an agent has one per service.
    let mut library = TopoPatternLibrary::new(&config);
    let mut groups = ServiceGroups::new();
    let mut parsed: Vec<ParsedSpan> = Vec::new();
    // Mounting a trace id inserts it into the pattern's Bloom filter, which
    // hashes it through a `Vec` of its bytes: not the probe's doing.
    let mut filter = BloomFilter::with_byte_budget(config.bloom_buffer_bytes, config.bloom_fpp);
    let (_, mounting) = allocations_of(|| filter.insert(&1u128));
    let (mut checked, mut sub_traces) = (0, 0);
    for (index, trace) in traces.iter().enumerate() {
        for view in groups.split(trace) {
            parsed.clear();
            writer.begin_block(trace.trace_id());
            for span in view.spans() {
                let (pattern, _) = span_parser.parse_into(span, &mut writer);
                parsed.push(ParsedSpan {
                    span_id: span.span_id(),
                    parent_id: span.parent_id(),
                    pattern,
                });
            }
            let (outcome, allocations) = allocations_of(|| {
                let key = trace_parser.encode_parsed(&parsed);
                library.observe_key(&key, trace.trace_id())
            });
            if index < 800 {
                continue;
            }
            sub_traces += 1;
            if !outcome.is_new_pattern && outcome.flushed_bloom.is_none() {
                checked += 1;
                assert_eq!(allocations, mounting, "sub-trace of {} spans", parsed.len());
            }
        }
    }
    assert!(
        checked * 10 >= sub_traces * 9,
        "only {checked} of {sub_traces} topologies were known"
    );
}

#[test]
fn a_value_that_defeats_the_greedy_matcher_allocates_nothing() {
    // `get <*> now <*> end` against `get (now end) x 2047 end`: the greedy
    // scan ends the second slot at the first `end` and fails, so the exact
    // tier decides, over 4 096 tokens.
    let template = StringTemplate::from_raw_tokens(&["get", "1", "now", "2", "end"]);
    let mut value = vec!["get"];
    for _ in 0..2047 {
        value.extend(["now", "end"]);
    }
    value.push("end");
    assert_eq!(value.len(), 4096);
    // A fresh thread: no scratch a matcher may keep per thread has grown.
    let allocations = std::thread::spawn(move || {
        let mut interner = Interner::new();
        let interned = InternedTemplate::from_template(&template, &mut interner);
        let mut ids = Vec::new();
        interner.lookup_into(&value, &mut ids);
        let mut ranges = Vec::with_capacity(template.var_count());
        // Room for the slot text, so only the matcher could allocate.
        let mut vars = PackedVars::default();
        vars.push_slot(&value);
        vars.push_slot(&value);
        vars.clear();
        let (matched, string) =
            allocations_of(|| template.match_and_pack(&value, &mut ranges, &mut vars));
        assert!(matched);
        assert_eq!(ranges, [(1, 1), (2, 4095)]);
        let (matched, interned) = allocations_of(|| interned.match_ranges(&ids, &mut ranges));
        assert!(matched);
        assert_eq!(ranges, [(1, 1), (2, 4095)]);
        (string, interned)
    })
    .join()
    .expect("the matching thread panicked");
    assert_eq!(
        allocations,
        (0, 0),
        "(string, interned) matcher allocations"
    );
}
