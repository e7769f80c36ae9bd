//! Spans: the unit of work in a distributed trace.

use crate::attr::Attributes;
use crate::id::{SpanId, TraceId};
use crate::size::WireSize;
use crate::value::AttrValue;
use serde::{Deserialize, Serialize};

/// The role a span plays in an RPC, mirroring the OpenTelemetry span kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum SpanKind {
    /// Server side of a remote call.
    #[default]
    Server,
    /// Client side of a remote call.
    Client,
    /// Purely local work.
    Internal,
    /// Message producer.
    Producer,
    /// Message consumer.
    Consumer,
}

impl SpanKind {
    /// A short lowercase label, used in textual renderings.
    pub fn label(&self) -> &'static str {
        match self {
            SpanKind::Server => "server",
            SpanKind::Client => "client",
            SpanKind::Internal => "internal",
            SpanKind::Producer => "producer",
            SpanKind::Consumer => "consumer",
        }
    }
}

/// Completion status of a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum SpanStatus {
    /// The operation completed successfully (or status was not set).
    #[default]
    Ok,
    /// The operation failed; the status code is carried in attributes.
    Error,
}

impl SpanStatus {
    /// Whether the span recorded an error.
    pub fn is_error(&self) -> bool {
        matches!(self, SpanStatus::Error)
    }
}

/// A single unit of work observed by the tracing client library.
///
/// A span is divided into the three parts the paper identifies (§2.2.3):
///
/// * **topology part** — `span_id`, `parent_id`, `kind`;
/// * **metadata part** — `trace_id`, `name`, `service`, timestamps, status;
/// * **attributes part** — user-supplied key/value details (SQL text, URLs,
///   thread names, …) that carry most of the bytes and most of the
///   variability.
///
/// Construct spans with [`Span::builder`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Span {
    trace_id: TraceId,
    span_id: SpanId,
    parent_id: SpanId,
    kind: SpanKind,
    name: String,
    service: String,
    start_time_us: u64,
    duration_us: u64,
    status: SpanStatus,
    attributes: Attributes,
}

impl Span {
    /// Starts building a span for `trace_id` with the given `span_id`.
    pub fn builder(trace_id: TraceId, span_id: SpanId) -> SpanBuilder {
        SpanBuilder::new(trace_id, span_id)
    }

    /// The trace this span belongs to.
    pub fn trace_id(&self) -> TraceId {
        self.trace_id
    }

    /// This span's id.
    pub fn span_id(&self) -> SpanId {
        self.span_id
    }

    /// The parent span id ([`SpanId::INVALID`] for root spans).
    pub fn parent_id(&self) -> SpanId {
        self.parent_id
    }

    /// Whether this span is the root of its trace.
    pub fn is_root(&self) -> bool {
        !self.parent_id.is_valid()
    }

    /// The span kind.
    pub fn kind(&self) -> SpanKind {
        self.kind
    }

    /// The operation name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The service (application) that produced the span.
    pub fn service(&self) -> &str {
        &self.service
    }

    /// Start timestamp in microseconds since the epoch.
    pub fn start_time_us(&self) -> u64 {
        self.start_time_us
    }

    /// Duration in microseconds.
    pub fn duration_us(&self) -> u64 {
        self.duration_us
    }

    /// End timestamp in microseconds since the epoch.
    pub fn end_time_us(&self) -> u64 {
        self.start_time_us + self.duration_us
    }

    /// The span's completion status.
    pub fn status(&self) -> SpanStatus {
        self.status
    }

    /// The attributes part.
    pub fn attributes(&self) -> &Attributes {
        &self.attributes
    }

    /// Mutable access to the attributes part.
    pub fn attributes_mut(&mut self) -> &mut Attributes {
        &mut self.attributes
    }

    /// Overrides the duration (used by fault injection).
    pub fn set_duration_us(&mut self, duration_us: u64) {
        self.duration_us = duration_us;
    }

    /// Overrides the status (used by fault injection).
    pub fn set_status(&mut self, status: SpanStatus) {
        self.status = status;
    }
}

impl WireSize for Span {
    fn wire_size(&self) -> usize {
        // Envelope + ids + fixed metadata + strings + attributes.  The
        // constants approximate OTLP protobuf framing overhead.
        const ENVELOPE: usize = 8;
        ENVELOPE
            + 16 // trace id
            + 8  // span id
            + 8  // parent id
            + 1  // kind
            + 1  // status
            + 8  // start time
            + 8  // duration
            + 2 + self.name.len()
            + 2 + self.service.len()
            + self.attributes.wire_size()
    }
}

/// Builder for [`Span`] values.
///
/// ```
/// use trace_model::{Span, SpanKind, TraceId, SpanId, AttrValue};
/// let span = Span::builder(TraceId::from_u128(1), SpanId::from_u64(2))
///     .parent(SpanId::from_u64(1))
///     .name("get_product")
///     .service("productpage")
///     .kind(SpanKind::Client)
///     .attr("http.method", AttrValue::str("GET"))
///     .build();
/// assert_eq!(span.service(), "productpage");
/// assert!(!span.is_root());
/// ```
#[derive(Debug, Clone)]
pub struct SpanBuilder {
    span: Span,
}

impl SpanBuilder {
    fn new(trace_id: TraceId, span_id: SpanId) -> Self {
        SpanBuilder {
            span: Span {
                trace_id,
                span_id,
                parent_id: SpanId::INVALID,
                kind: SpanKind::default(),
                name: String::new(),
                service: String::new(),
                start_time_us: 0,
                duration_us: 0,
                status: SpanStatus::Ok,
                attributes: Attributes::new(),
            },
        }
    }

    /// Sets the parent span id.
    pub fn parent(mut self, parent_id: SpanId) -> Self {
        self.span.parent_id = parent_id;
        self
    }

    /// Sets the operation name.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.span.name = name.into();
        self
    }

    /// Sets the owning service name.
    pub fn service(mut self, service: impl Into<String>) -> Self {
        self.span.service = service.into();
        self
    }

    /// Sets the span kind.
    pub fn kind(mut self, kind: SpanKind) -> Self {
        self.span.kind = kind;
        self
    }

    /// Sets the start timestamp (microseconds since the epoch).
    pub fn start_time_us(mut self, start: u64) -> Self {
        self.span.start_time_us = start;
        self
    }

    /// Sets the duration in microseconds.
    pub fn duration_us(mut self, duration: u64) -> Self {
        self.span.duration_us = duration;
        self
    }

    /// Sets the completion status.
    pub fn status(mut self, status: SpanStatus) -> Self {
        self.span.status = status;
        self
    }

    /// Adds an attribute.
    pub fn attr(mut self, key: impl Into<String>, value: impl Into<AttrValue>) -> Self {
        self.span.attributes.insert(key, value);
        self
    }

    /// Replaces the attributes part wholesale (for callers that already hold
    /// an [`Attributes`], so keys and values are not copied one by one).
    pub fn attributes(mut self, attributes: Attributes) -> Self {
        self.span.attributes = attributes;
        self
    }

    /// Finishes building the span.
    pub fn build(self) -> Span {
        self.span
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_span() -> Span {
        Span::builder(TraceId::from_u128(0xae61), SpanId::from_u64(4))
            .parent(SpanId::from_u64(2))
            .name("patch")
            .service("inventory")
            .kind(SpanKind::Server)
            .start_time_us(170_469)
            .duration_us(5_769)
            .attr("attributes.threadname", AttrValue::str("scheduling-1"))
            .attr("attributes.tablename", AttrValue::str("patch_inventory"))
            .build()
    }

    #[test]
    fn builder_populates_all_parts() {
        let span = sample_span();
        assert_eq!(span.trace_id(), TraceId::from_u128(0xae61));
        assert_eq!(span.span_id(), SpanId::from_u64(4));
        assert_eq!(span.parent_id(), SpanId::from_u64(2));
        assert_eq!(span.kind(), SpanKind::Server);
        assert_eq!(span.name(), "patch");
        assert_eq!(span.service(), "inventory");
        assert_eq!(span.duration_us(), 5_769);
        assert_eq!(span.end_time_us(), 170_469 + 5_769);
        assert_eq!(span.attributes().len(), 2);
        assert!(!span.is_root());
    }

    #[test]
    fn root_span_has_invalid_parent() {
        let span = Span::builder(TraceId::from_u128(1), SpanId::from_u64(1)).build();
        assert!(span.is_root());
    }

    #[test]
    fn wire_size_grows_with_attributes() {
        let small = Span::builder(TraceId::from_u128(1), SpanId::from_u64(1))
            .name("op")
            .build();
        let large = Span::builder(TraceId::from_u128(1), SpanId::from_u64(1))
            .name("op")
            .attr("sql", AttrValue::str("select * from orders where id = 42"))
            .build();
        assert!(large.wire_size() > small.wire_size());
    }

    #[test]
    fn status_mutators() {
        let mut span = sample_span();
        assert!(!span.status().is_error());
        span.set_status(SpanStatus::Error);
        assert!(span.status().is_error());
        span.set_duration_us(99);
        assert_eq!(span.duration_us(), 99);
    }

    #[test]
    fn kind_labels_are_lowercase() {
        for kind in [
            SpanKind::Server,
            SpanKind::Client,
            SpanKind::Internal,
            SpanKind::Producer,
            SpanKind::Consumer,
        ] {
            assert!(kind.label().chars().all(|c| c.is_ascii_lowercase()));
        }
    }

    #[test]
    fn attributes_mut_allows_insertion() {
        let mut span = sample_span();
        span.attributes_mut().insert("extra", AttrValue::Int(1));
        assert!(span.attributes().contains_key("extra"));
    }
}
