//! Core distributed-trace data model used throughout the Mint reproduction.
//!
//! The crate provides the vocabulary types the rest of the workspace builds
//! on: identifiers ([`TraceId`], [`SpanId`], [`PatternId`]), attribute values
//! ([`AttrValue`]), spans ([`Span`]), whole traces ([`Trace`]), per-node
//! sub-traces ([`SubTrace`]) and a deterministic wire-size model
//! ([`WireSize`]) that approximates an OTLP/protobuf encoding.  Every
//! network/storage number reported by the experiment harness is a sum of
//! [`WireSize::wire_size`] values, so all tracing frameworks are measured
//! with the same ruler.
//!
//! # Example
//!
//! ```
//! use trace_model::{Span, SpanKind, SpanStatus, TraceId, SpanId, AttrValue, WireSize};
//!
//! let trace_id = TraceId::from_u128(0xae61);
//! let span = Span::builder(trace_id, SpanId::from_u64(0x5b7c5))
//!     .name("patch")
//!     .service("inventory")
//!     .kind(SpanKind::Server)
//!     .start_time_us(1_704_690_000_000)
//!     .duration_us(5_769)
//!     .attr("sql.query", AttrValue::str("INSERT INTO patch_inventory (city_id) VALUES (7)"))
//!     .attr("duration.db", AttrValue::Int(57))
//!     .build();
//!
//! assert_eq!(span.name(), "patch");
//! assert!(span.wire_size() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attr;
mod error;
mod id;
mod size;
mod span;
mod subtrace;
mod text;
mod trace;
mod value;
mod view;

pub use attr::{AttrKey, Attributes};
pub use error::ModelError;
pub use id::{PatternId, SpanId, TraceId};
pub use size::WireSize;
pub use span::{Span, SpanBuilder, SpanKind, SpanStatus};
pub use subtrace::{ServiceGroups, SubTrace, SubTraceView};
pub use text::{render_span_text, render_trace_text};
pub use trace::{Trace, TraceSet};
pub use value::AttrValue;
pub use view::{SpanView, TraceView};
