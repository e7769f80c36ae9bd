//! Sub-traces: the segment of a trace visible on a single node.

use crate::id::{SpanId, TraceId};
use crate::size::WireSize;
use crate::span::Span;
use crate::trace::Trace;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// A segment of a trace observed on one application node.
///
/// The Mint agent runs on an application host and therefore only ever sees
/// the spans produced locally (§3.3).  Those spans still form a tree-like
/// structure according to their parent links; spans whose parent lives on
/// another node become local roots ("entry operations").
///
/// ```
/// use trace_model::{Span, SpanId, SubTrace, Trace, TraceId};
/// let tid = TraceId::from_u128(5);
/// let spans = vec![
///     Span::builder(tid, SpanId::from_u64(1)).service("front").name("GET /").build(),
///     Span::builder(tid, SpanId::from_u64(2)).parent(SpanId::from_u64(1))
///         .service("cart").name("AddItem").build(),
/// ];
/// let trace = Trace::from_spans(tid, spans).unwrap();
/// let subs = SubTrace::split_by_service(&trace);
/// assert_eq!(subs.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubTrace {
    trace_id: TraceId,
    node: String,
    spans: Vec<Span>,
}

impl SubTrace {
    /// Creates a sub-trace from the spans observed on `node`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if any span carries a different trace id.
    pub fn new(trace_id: TraceId, node: impl Into<String>, spans: Vec<Span>) -> Self {
        debug_assert!(spans.iter().all(|s| s.trace_id() == trace_id));
        SubTrace {
            trace_id,
            node: node.into(),
            spans,
        }
    }

    /// Splits a complete trace into per-service sub-traces, emulating what
    /// each node's agent would observe.
    pub fn split_by_service(trace: &Trace) -> Vec<SubTrace> {
        trace
            .spans_by_service()
            .into_iter()
            .map(|(service, spans)| {
                SubTrace::new(
                    trace.trace_id(),
                    service,
                    spans.into_iter().cloned().collect(),
                )
            })
            .collect()
    }

    /// The owning trace id.
    pub fn trace_id(&self) -> TraceId {
        self.trace_id
    }

    /// The node (service instance) that observed these spans.
    pub fn node(&self) -> &str {
        &self.node
    }

    /// The locally observed spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number of spans in this segment.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the segment contains no spans.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Local roots: spans whose parent is not present in this segment.
    /// These are the segment's "entry operations" used for
    /// upstream/downstream matching when reconstructing the full topology.
    pub fn entry_spans(&self) -> Vec<&Span> {
        let local: HashSet<SpanId> = self.spans.iter().map(|s| s.span_id()).collect();
        self.spans
            .iter()
            .filter(|s| !s.parent_id().is_valid() || !local.contains(&s.parent_id()))
            .collect()
    }

    /// Exit operations: local spans that have no local children (leaves of
    /// the local tree).  Client spans among these call into downstream
    /// segments.
    pub fn exit_spans(&self) -> Vec<&Span> {
        let parents: HashSet<SpanId> = self.spans.iter().map(|s| s.parent_id()).collect();
        self.spans
            .iter()
            .filter(|s| !parents.contains(&s.span_id()))
            .collect()
    }

    /// The direct local children of `parent`, ordered by start time.
    pub fn children_of(&self, parent: SpanId) -> Vec<&Span> {
        let mut children: Vec<&Span> = self
            .spans
            .iter()
            .filter(|s| s.parent_id() == parent)
            .collect();
        children.sort_by_key(|s| (s.start_time_us(), s.span_id()));
        children
    }
}

impl WireSize for SubTrace {
    fn wire_size(&self) -> usize {
        16 + 2 + self.node.len() + self.spans.wire_size()
    }
}

/// Reusable scratch that groups the spans of a [`Trace`] by service without
/// cloning them: the borrowed counterpart of [`SubTrace::split_by_service`],
/// which stays the owned reference the grouping is tested against.
///
/// The scratch holds span *indices*, so one instance serves traces of any
/// lifetime and, once grown, grouping allocates nothing.
///
/// ```
/// use trace_model::{ServiceGroups, Span, SpanId, Trace, TraceId};
/// let tid = TraceId::from_u128(5);
/// let spans = vec![
///     Span::builder(tid, SpanId::from_u64(1)).service("front").build(),
///     Span::builder(tid, SpanId::from_u64(2)).service("cart").build(),
/// ];
/// let trace = Trace::from_spans(tid, spans).unwrap();
/// let mut groups = ServiceGroups::new();
/// let nodes: Vec<&str> = groups.split(&trace).map(|view| view.node()).collect();
/// assert_eq!(nodes, ["cart", "front"]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ServiceGroups {
    /// Span indices ordered by (service, position in the trace).
    order: Vec<u32>,
}

impl ServiceGroups {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        ServiceGroups::default()
    }

    /// Groups `trace`'s spans by service.  The views come in lexicographic
    /// service order and each keeps the trace's span order — exactly the
    /// groups, order and members of [`SubTrace::split_by_service`].
    pub fn split<'a>(
        &'a mut self,
        trace: &'a Trace,
    ) -> impl Iterator<Item = SubTraceView<'a>> + Clone {
        let spans = trace.spans();
        let service = |index: u32| spans[index as usize].service();
        self.order.clear();
        self.order
            .extend(0..u32::try_from(spans.len()).unwrap_or(u32::MAX));
        self.order
            .sort_unstable_by(|&a, &b| service(a).cmp(service(b)).then(a.cmp(&b)));
        let trace_id = trace.trace_id();
        self.order
            .chunk_by(move |&a, &b| service(a) == service(b))
            .map(move |members| SubTraceView {
                trace_id,
                spans,
                members,
            })
    }
}

/// One service's spans of a trace, borrowed from the trace: what
/// [`ServiceGroups::split`] yields in place of an owned [`SubTrace`].
#[derive(Debug, Clone, Copy)]
pub struct SubTraceView<'a> {
    trace_id: TraceId,
    spans: &'a [Span],
    /// Indices into `spans`, ascending; never empty.
    members: &'a [u32],
}

impl<'a> SubTraceView<'a> {
    /// The owning trace id.
    pub fn trace_id(&self) -> TraceId {
        self.trace_id
    }

    /// The node (service) that observed these spans.
    pub fn node(&self) -> &'a str {
        self.spans[self.members[0] as usize].service()
    }

    /// The group's spans, in trace order.
    pub fn spans(&self) -> impl ExactSizeIterator<Item = &'a Span> + Clone + 'a {
        let spans = self.spans;
        self.members
            .iter()
            .map(move |&index| &spans[index as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanKind;

    fn tid() -> TraceId {
        TraceId::from_u128(0x77)
    }

    fn span(id: u64, parent: u64, service: &str, kind: SpanKind) -> Span {
        Span::builder(tid(), SpanId::from_u64(id))
            .parent(SpanId::from_u64(parent))
            .service(service)
            .name(format!("op{id}"))
            .kind(kind)
            .start_time_us(id)
            .build()
    }

    #[test]
    fn split_by_service_groups_spans() {
        let trace = Trace::from_spans(
            tid(),
            vec![
                span(1, 0, "front", SpanKind::Server),
                span(2, 1, "front", SpanKind::Client),
                span(3, 2, "cart", SpanKind::Server),
            ],
        )
        .unwrap();
        let subs = SubTrace::split_by_service(&trace);
        assert_eq!(subs.len(), 2);
        let front = subs.iter().find(|s| s.node() == "front").unwrap();
        assert_eq!(front.len(), 2);
    }

    #[test]
    fn entry_spans_are_local_roots() {
        let sub = SubTrace::new(
            tid(),
            "cart",
            vec![
                span(3, 2, "cart", SpanKind::Server),
                span(4, 3, "cart", SpanKind::Internal),
            ],
        );
        let entries = sub.entry_spans();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].span_id(), SpanId::from_u64(3));
    }

    #[test]
    fn exit_spans_are_local_leaves() {
        let sub = SubTrace::new(
            tid(),
            "cart",
            vec![
                span(3, 2, "cart", SpanKind::Server),
                span(4, 3, "cart", SpanKind::Client),
            ],
        );
        let exits = sub.exit_spans();
        assert_eq!(exits.len(), 1);
        assert_eq!(exits[0].span_id(), SpanId::from_u64(4));
    }

    #[test]
    fn children_sorted_by_start_time() {
        let sub = SubTrace::new(
            tid(),
            "svc",
            vec![
                span(1, 0, "svc", SpanKind::Server),
                span(3, 1, "svc", SpanKind::Client),
                span(2, 1, "svc", SpanKind::Client),
            ],
        );
        let children = sub.children_of(SpanId::from_u64(1));
        assert_eq!(children[0].span_id(), SpanId::from_u64(2));
        assert_eq!(children[1].span_id(), SpanId::from_u64(3));
    }

    #[test]
    fn wire_size_nonzero_even_when_empty() {
        let sub = SubTrace::new(tid(), "svc", vec![]);
        assert!(sub.is_empty());
        assert!(sub.wire_size() > 0);
    }
}
