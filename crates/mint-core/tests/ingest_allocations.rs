//! Holds the allocation count of the serial ingest spine in tier-1.
//!
//! A counting `#[global_allocator]` (per thread, so the other tests of this
//! binary cannot disturb a count) measures two things on a warmed deployment
//! over a fixed-seed `layered_application` corpus:
//!
//! * steady-state `MintDeployment::ingest_trace` stays under a per-span
//!   allocation budget — the spine borrows the trace, probes its libraries
//!   with ids and owns only the parameters it must return;
//! * a span whose pattern already exists allocates nothing but those
//!   parameters: no `String` for its attribute keys, service or operation.
//!
//! mintbench measures the same count end to end (`allocs_per_span`); this
//! test is what fails first, and names the span.

use mint_core::{MintConfig, MintDeployment, SamplingMode, SpanParser};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use trace_model::{Trace, TraceSet};
use workload::{layered_application, GeneratorConfig, TraceGenerator};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// only addition is a thread-local counter bump, which allocates nothing
// (`const` initialiser, no destructor).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|count| count.set(count.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|count| count.set(count.get() + 1));
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

/// Allocations per span the steady-state spine may make.  Measured: 4.99
/// with nothing sampled, as below; the owning spine before it made 110.5 on
/// the same corpus (and 72 for the first span the second test looks at).
const BUDGET_PER_SPAN: f64 = 8.0;

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
}

#[test]
fn a_span_of_a_known_pattern_allocates_only_its_parameters() {
    let traces = corpus();
    let mut parser = SpanParser::new(&MintConfig::default());
    let spans: Vec<_> = traces.iter().flat_map(Trace::spans).collect();
    let (learn, measure) = spans.split_at(spans.len() / 2);
    for span in learn {
        parser.parse(span);
    }
    let mut checked = 0;
    for span in measure {
        let fallbacks = parser.prefilter_stats().candidates_considered;
        let ((_, params, is_new), allocations) = allocations_of(|| parser.parse(span));
        if is_new || parser.prefilter_stats().candidates_considered > fallbacks {
            // Learning (a new pattern, a template created or generalised) may
            // allocate; a fixed-shape corpus rarely gets here after `learn`.
            continue;
        }
        checked += 1;
        // The positional parameter vector, the packed variable text and its
        // slot boundaries.  Keys, service and operation would be one
        // `String` each on top: 3 + attributes.
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
