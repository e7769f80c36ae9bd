//! The owned sub-trace API as the oracle for the borrowed one.
//!
//! `MintDeployment::ingest_trace` splits a trace with
//! `ServiceGroups::split` (span indices, nothing cloned), feeds each view to
//! `MintAgent::ingest_spans` and encodes its topology with
//! `TraceParser::encode_parsed` over a positional slice of parsed spans.
//! `SubTrace::split_by_service`, `MintAgent::ingest_sub_trace` and
//! `TraceParser::encode(&SubTrace, &HashMap)` are the owned forms the twin
//! pipeline, the experiment binaries and older tests use.  Three invariants:
//!
//! 1. **Same groups** — the views, materialised, are exactly
//!    `split_by_service`'s sub-traces: same groups in the same order with the
//!    same spans in the same order, hence the same `entry_spans`,
//!    `exit_spans` and `wire_size`.
//! 2. **Same topology** — `encode_parsed` over a view's spans and their
//!    patterns, by position, equals `encode` over the owned sub-trace and the id-keyed map,
//!    and both equal the map-and-set encoder `encode` was before it became
//!    an adapter, which survives here as the oracle and nowhere else.
//! 3. **Same ingest** — an agent fed views and an agent fed owned sub-traces
//!    report the same outcomes, and `span_bytes` is what `wire_size` sums.
//!
//! Traces are random and adversarial: one service, every span its own
//! service, interleaved services, the empty service name, names that are
//! prefixes of each other (lexicographic order is not first-seen order), a
//! single span, parents that are missing, remote or the span itself, and the
//! zero span id.

use mint_core::{MintAgent, MintConfig, ParsedSpan, TopoPattern, TraceParser};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};
use trace_model::{
    AttrValue, PatternId, ServiceGroups, Span, SpanId, SubTrace, Trace, TraceId, WireSize,
};
use workload::{online_boutique, GeneratorConfig, TraceGenerator};

/// Service names whose byte order differs from the order they are listed in.
const SERVICES: [&str; 7] = ["cart", "", "a-b", "a", "ab", "Cart", "é"];

/// `(service, parent choice)` per span: the parent is `choice % (n + 2)`,
/// where `0` is "no parent", `1..=n` a span of the trace and `n + 1` an id
/// the trace does not contain.
fn trace_from(specs: &[(usize, usize)], first_id: u64) -> Trace {
    let tid = TraceId::from_u128(0x51);
    let n = specs.len() as u64;
    let spans = specs
        .iter()
        .zip(first_id..)
        .map(|(&(service, parent), id)| {
            let parent = match parent as u64 % (n + 2) {
                0 => 0,
                missing if missing > n => 10_000,
                nth => first_id + nth - 1,
            };
            Span::builder(tid, SpanId::from_u64(id))
                .parent(SpanId::from_u64(parent))
                .service(SERVICES[service % SERVICES.len()])
                .name(format!("op{}", id % 3))
                .start_time_us(id)
                .attr("n", AttrValue::Int(id as i64))
                .build()
        })
        .collect();
    Trace::from_spans(tid, spans).expect("ids are distinct")
}

/// `TraceParser::encode` as it was when it owned the algorithm: an id-keyed
/// map of the local spans, `entry_spans()` for the entries and a `BTreeMap`
/// of parent pattern → children for the edges.
fn oracle_encode(sub_trace: &SubTrace, pattern_of: &HashMap<SpanId, PatternId>) -> TopoPattern {
    let local: HashMap<SpanId, PatternId> = sub_trace
        .spans()
        .iter()
        .filter_map(|s| pattern_of.get(&s.span_id()).map(|&p| (s.span_id(), p)))
        .collect();
    let mut entries: Vec<PatternId> = sub_trace
        .entry_spans()
        .iter()
        .filter_map(|s| local.get(&s.span_id()).copied())
        .collect();
    entries.sort_unstable();
    let mut edges: BTreeMap<PatternId, Vec<PatternId>> = BTreeMap::new();
    for span in sub_trace.spans() {
        let Some(&child_pattern) = local.get(&span.span_id()) else {
            continue;
        };
        if let Some(&parent_pattern) = local.get(&span.parent_id()) {
            edges.entry(parent_pattern).or_default().push(child_pattern);
        }
    }
    let edges = edges
        .into_iter()
        .map(|(parent, mut children)| {
            children.sort_unstable();
            (parent, children)
        })
        .collect();
    TopoPattern { entries, edges }
}

fn ids(spans: &[&Span]) -> Vec<SpanId> {
    spans.iter().map(|span| span.span_id()).collect()
}

/// Invariants 1 and 2 on one trace.
fn assert_views_equal_owned_split(trace: &Trace) {
    let owned = SubTrace::split_by_service(trace);
    let mut groups = ServiceGroups::new();
    let views: Vec<_> = groups.split(trace).collect();
    assert_eq!(views.len(), owned.len(), "group count");

    let mut parser = TraceParser::new();
    for (view, sub) in views.iter().zip(&owned) {
        assert_eq!(view.node(), sub.node());
        assert_eq!(view.trace_id(), sub.trace_id());
        assert_eq!(view.spans().len(), sub.len());
        let materialised = SubTrace::new(
            view.trace_id(),
            view.node(),
            view.spans().cloned().collect(),
        );
        assert_eq!(&materialised, sub, "members or their order differ");
        assert_eq!(
            ids(&materialised.entry_spans()),
            ids(&sub.entry_spans()),
            "entry spans"
        );
        assert_eq!(
            ids(&materialised.exit_spans()),
            ids(&sub.exit_spans()),
            "exit spans"
        );
        let span_bytes: usize = view.spans().map(WireSize::wire_size).sum();
        assert_eq!(16 + 2 + view.node().len() + span_bytes, sub.wire_size());

        // A few patterns shared by many spans, so edges group and sort.
        let pattern = |span: &Span| PatternId::from_u128((span.span_id().as_u64() % 4 + 1) as u128);
        let positional: Vec<ParsedSpan> = view
            .spans()
            .map(|span| ParsedSpan {
                span_id: span.span_id(),
                parent_id: span.parent_id(),
                pattern: pattern(span),
            })
            .collect();
        let by_id: HashMap<SpanId, PatternId> = sub
            .spans()
            .iter()
            .map(|s| (s.span_id(), pattern(s)))
            .collect();
        let expected = oracle_encode(sub, &by_id);
        let node = sub.node();
        assert_eq!(parser.encode_parsed(&positional), expected, "{node:?}");
        assert_eq!(TraceParser::new().encode(sub, &by_id), expected, "{node:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn views_equal_the_owned_split(
        specs in proptest::collection::vec((0usize..7, 0usize..64), 1..40),
        first_id in 0u64..2,
    ) {
        assert_views_equal_owned_split(&trace_from(&specs, first_id));
    }
}

#[test]
fn the_named_shapes() {
    // One service; every span its own service; two services interleaved;
    // only the empty service name; a single span.
    let shapes: [&[(usize, usize)]; 5] = [
        &[(0, 0), (0, 1), (0, 1), (0, 2)],
        &[(0, 0), (1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (6, 6)],
        &[(3, 0), (0, 1), (3, 2), (0, 3), (3, 4), (0, 5)],
        &[(1, 0), (1, 1), (1, 9)],
        &[(2, 0)],
    ];
    for shape in shapes {
        assert_views_equal_owned_split(&trace_from(shape, 1));
    }
    // Lexicographic, not first-seen: "" < "Cart" < "a" < "a-b" < "ab" < "cart" < "é".
    let trace = trace_from(&[(0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (5, 0), (6, 0)], 1);
    let mut groups = ServiceGroups::new();
    let nodes: Vec<&str> = groups.split(&trace).map(|view| view.node()).collect();
    assert_eq!(nodes, ["", "Cart", "a", "a-b", "ab", "cart", "é"]);
}

/// Invariant 3, on a generated workload: every decision an agent takes is the
/// same whether it is handed a view or an owned sub-trace.
#[test]
fn agents_fed_views_and_owned_sub_traces_agree() {
    let traces = TraceGenerator::new(
        online_boutique(),
        GeneratorConfig::default()
            .with_seed(11)
            .with_abnormal_rate(0.05),
    )
    .generate(300);
    let mut by_view: HashMap<String, MintAgent> = HashMap::new();
    let mut by_owned: HashMap<String, MintAgent> = HashMap::new();
    let mut groups = ServiceGroups::new();
    fn agent<'a>(agents: &'a mut HashMap<String, MintAgent>, node: &str) -> &'a mut MintAgent {
        agents
            .entry(node.to_owned())
            .or_insert_with(|| MintAgent::new(node, MintConfig::default()))
    }
    for trace in &traces {
        let owned = SubTrace::split_by_service(trace);
        for (view, sub) in groups.split(trace).zip(&owned) {
            let a = agent(&mut by_view, view.node()).ingest_spans(view.trace_id(), view.spans());
            let b = agent(&mut by_owned, sub.node()).ingest_sub_trace(sub);
            assert_eq!(
                (
                    a.topo_id,
                    a.new_topo_pattern,
                    a.new_span_patterns,
                    a.topo_match_count
                ),
                (
                    b.topo_id,
                    b.new_topo_pattern,
                    b.new_span_patterns,
                    b.topo_match_count
                )
            );
            assert_eq!(
                (
                    a.symptom_sampled,
                    a.edge_case_sampled,
                    a.flushed_bloom.is_some()
                ),
                (
                    b.symptom_sampled,
                    b.edge_case_sampled,
                    b.flushed_bloom.is_some()
                )
            );
            assert_eq!(a.span_bytes as usize, sub.spans().wire_size());
            assert_eq!(a.span_bytes, b.span_bytes);
        }
    }
    for (node, agent) in &by_view {
        assert_eq!(agent.stats(), by_owned[node].stats(), "{node}");
        assert_eq!(agent.catalog(), by_owned[node].catalog(), "{node}");
    }
}
