//! Variable parameters extracted from spans and the agent-side Params Buffer.
//!
//! Parameters are bytes from the moment the span parser extracts them: a
//! [`ParamsWriter`] encodes each span's record once (`codec`), the
//! [`ParamsBuffer`] keeps the encoded blocks in a ring of recycled pages
//! (`buffer`), and a sampled block leaves it as one [`ParamBlock`] that the
//! collector charges and the backend queries in place.
//!
//! The types of this file are the *decoded* form of the same data — what
//! the owned adapters ([`ParamsBuffer::push`], `SpanParser::parse`,
//! [`ParamBlock::to_params`]) take and return, and where the [`WireSize`]
//! model every encoded block is charged by is written down.

mod buffer;
mod codec;

pub use buffer::ParamsBuffer;
pub use codec::{ParamBlock, ParamRef, Params, ParamsWriter, Slots, SpanRecord, SpanRecords};

use serde::{Deserialize, Serialize};
use std::ops::Range;
use trace_model::{AttrValue, PatternId, SpanId, TraceId, WireSize};

/// The variable part of one attribute after parsing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ParamValue {
    /// The contents of a string template's variable slots: `count` slots of
    /// the owning span's [`PackedVars`], starting at slot `first`.
    StrVars {
        /// Index of the attribute's first slot in the span's packed text.
        first: u32,
        /// Number of slots (the template's variable count).
        count: u32,
    },
    /// A numeric value as its exponential bucket plus the offset from the
    /// bucket's lower bound (`value = lower_bound(bucket) + offset`).
    Num {
        /// The exponential bucket index.
        bucket: i64,
        /// Offset from the bucket's lower bound.
        offset: f64,
    },
    /// A boolean value.
    Bool(bool),
    /// Fallback: the raw value (used on type drift).
    Raw(AttrValue),
}

/// All variable text of one span in one buffer: the slot contents of every
/// string attribute back to back, plus where each slot ends.  A slot holds
/// the tokens the template's variable matched, joined by single spaces.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PackedVars {
    text: String,
    /// `ends[i]` is the byte offset in `text` one past slot `i`.
    ends: Vec<u32>,
}

impl PackedVars {
    /// An empty buffer with room for `slots` slots of `text` bytes in all.
    pub(crate) fn with_capacity(slots: usize, text: usize) -> Self {
        PackedVars {
            text: String::with_capacity(text),
            ends: Vec::with_capacity(slots),
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether there are no slots.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Empties the buffer, keeping its capacity.
    pub fn clear(&mut self) {
        self.text.clear();
        self.ends.clear();
    }

    /// The content of slot `index` (`None` past the last slot).
    pub fn slot(&self, index: usize) -> Option<&str> {
        let end = *self.ends.get(index)? as usize;
        let start = match index.checked_sub(1) {
            Some(previous) => self.ends[previous] as usize,
            None => 0,
        };
        self.text.get(start..end)
    }

    /// The contents of the slots in `range`, clipped to the slots that exist.
    pub fn slots(&self, range: Range<usize>) -> impl Iterator<Item = &str> {
        range.map_while(|index| self.slot(index))
    }

    /// Appends one slot made of `tokens`, joined by single spaces.
    pub fn push_slot<S: AsRef<str>>(&mut self, tokens: &[S]) {
        for (index, token) in tokens.iter().enumerate() {
            if index > 0 {
                self.text.push(' ');
            }
            self.text.push_str(token.as_ref());
        }
        // More than 4 GiB of variable text in one span is cut off at the
        // boundary table's range rather than wrapped.
        self.ends
            .push(u32::try_from(self.text.len()).unwrap_or(u32::MAX));
    }
}

/// Encoded size of one extracted string variable.  Purely numeric fragments
/// (counters, ids, offsets) are stored as varints rather than ASCII digits;
/// everything else is length-prefixed text.
fn str_var_size(var: &[u8]) -> usize {
    if !var.is_empty() && var.iter().all(u8::is_ascii_digit) {
        // Tag byte plus one byte per two decimal digits (varint-style).
        1 + var.len().div_ceil(2)
    } else {
        2 + var.len()
    }
}

/// Encoded size of a numeric parameter: a varint bucket index plus the
/// offset, which is itself a varint when it is a small integral value (the
/// common case for counters, sizes and millisecond latencies) and a full
/// 8-byte float otherwise.
fn num_param_size(bucket: i64, offset: f64) -> usize {
    let bucket_bytes = if (-63..=63).contains(&bucket) { 1 } else { 2 };
    let offset_bytes = if offset.fract() == 0.0 && offset.abs() < 1e15 {
        let magnitude = offset.abs() as u64;
        ((64 - magnitude.leading_zeros() as usize) / 7 + 1).max(1)
    } else {
        8
    };
    bucket_bytes + offset_bytes
}

/// The variable parameters of one span: everything needed, together with the
/// span's pattern, to reconstruct the exact span.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanParams {
    /// The span's id.
    pub span_id: SpanId,
    /// The parent span id.
    pub parent_id: SpanId,
    /// The span pattern these parameters belong to.
    pub pattern: PatternId,
    /// Start timestamp (microseconds since the epoch).
    pub start_time_us: u64,
    /// Exponential bucket of the span duration.
    pub duration_bucket: i64,
    /// Offset of the duration from its bucket's lower bound.
    pub duration_offset: f64,
    /// Whether the span recorded an error status.
    pub status_error: bool,
    /// Per-attribute variable parameters, positionally: entry `i` belongs to
    /// attribute `i` of the span pattern, which holds the keys.
    pub attr_params: Vec<ParamValue>,
    /// The variable text the [`ParamValue::StrVars`] entries point into.
    pub vars: PackedVars,
}

impl SpanParams {
    /// The slot contents of a [`ParamValue::StrVars`] entry of this span.
    pub fn str_vars(&self, first: u32, count: u32) -> impl Iterator<Item = &str> {
        let first = first as usize;
        self.vars.slots(first..first + count as usize)
    }

    /// Encoded size of one of this span's parameters.
    fn param_wire_size(&self, param: &ParamValue) -> usize {
        1 + match param {
            ParamValue::StrVars { first, count } => {
                let slots = self.str_vars(*first, *count);
                slots.map(|slot| str_var_size(slot.as_bytes())).sum()
            }
            ParamValue::Num { bucket, offset } => num_param_size(*bucket, *offset),
            ParamValue::Bool(_) => 1,
            ParamValue::Raw(value) => value.wire_size(),
        }
    }
}

impl WireSize for SpanParams {
    fn wire_size(&self) -> usize {
        // Attribute keys are part of the span pattern, not of the
        // parameters, which are stored positionally.  The pattern
        // reference is a small library-local index, not a full 128-bit id,
        // and the start timestamp is stored as a delta against the parameter
        // block's base timestamp.
        8  // span id
            + 8 // parent id
            + 2 // pattern reference
            + 4 // start-time delta
            + 2 // duration bucket
            + 8 // duration offset
            + 1 // status
            + self
                .attr_params
                .iter()
                .map(|param| self.param_wire_size(param))
                .sum::<usize>()
    }
}

/// The parameter block of one trace on one agent: all span parameters the
/// local node observed for that trace.  Blocks are the unit the Params Buffer
/// stores and evicts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceParams {
    /// The trace these parameters belong to.
    pub trace_id: TraceId,
    /// Parameters of every locally observed span.
    pub spans: Vec<SpanParams>,
}

impl TraceParams {
    /// Creates an empty block for `trace_id`.
    pub fn new(trace_id: TraceId) -> Self {
        TraceParams {
            trace_id,
            spans: Vec::new(),
        }
    }

    /// Number of spans in the block.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the block has no spans.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }
}

impl WireSize for TraceParams {
    fn wire_size(&self) -> usize {
        16 + self.spans.wire_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span_params(attr_params: Vec<ParamValue>, vars: PackedVars) -> SpanParams {
        SpanParams {
            span_id: SpanId::from_u64(1),
            parent_id: SpanId::INVALID,
            pattern: PatternId::from_u128(1),
            start_time_us: 0,
            duration_bucket: 5,
            duration_offset: 1.5,
            status_error: false,
            attr_params,
            vars,
        }
    }

    fn one_slot(content: &str) -> SpanParams {
        let mut vars = PackedVars::default();
        vars.push_slot(&[content]);
        span_params(vec![ParamValue::StrVars { first: 0, count: 1 }], vars)
    }

    fn block(trace: u128, spans: usize, payload: usize) -> TraceParams {
        let mut b = TraceParams::new(TraceId::from_u128(trace));
        for i in 0..spans {
            let mut params = one_slot(&"x".repeat(payload));
            params.span_id = SpanId::from_u64(i as u64 + 1);
            b.spans.push(params);
        }
        b
    }

    #[test]
    fn param_value_sizes() {
        // What one parameter adds to the span's fixed 33 bytes.
        let size =
            |param: ParamValue| span_params(vec![param], PackedVars::default()).wire_size() - 33;
        assert_eq!(size(ParamValue::Bool(true)), 2);
        // Small integral offsets are varint-encoded: tag + bucket + offset.
        let num = |offset| ParamValue::Num { bucket: 3, offset };
        assert_eq!(size(num(1.0)), 3);
        assert!(size(num(123_456.0)) > size(num(1.0)));
        assert_eq!(size(num(0.125)), 10);
        assert!(one_slot("abc").wire_size() - 33 > 5);
        // Numeric string fragments are cheaper than arbitrary text.
        assert!(one_slot("1234567").wire_size() < one_slot("abcdefg").wire_size());
        assert!(size(ParamValue::Raw(AttrValue::str("abc"))) > 5);
    }

    #[test]
    fn packed_vars_keep_slot_boundaries() {
        let mut vars = PackedVars::default();
        vars.push_slot(&["cart", ":", "7"]);
        vars.push_slot::<&str>(&[]);
        vars.push_slot(&["b", "c"]);
        assert_eq!(vars.len(), 3);
        assert_eq!(vars.slot(0), Some("cart : 7"));
        assert_eq!(vars.slot(1), Some(""));
        assert_eq!(vars.slots(1..9).collect::<Vec<_>>(), ["", "b c"]);
        assert_eq!(vars.slot(3), None);
        vars.clear();
        assert!(vars.is_empty());
    }

    #[test]
    fn buffer_accounts_bytes() {
        let mut buffer = ParamsBuffer::new(10_000);
        let b = block(1, 2, 10);
        let size = b.wire_size();
        buffer.push(b);
        assert_eq!(buffer.used_bytes(), size);
        assert_eq!(buffer.len(), 1);
        assert!(buffer.contains(TraceId::from_u128(1)));
        // What is resident is the encoded block, in whole pages.
        assert!(buffer.encoded_bytes() > 0);
        assert!(buffer.resident_bytes() >= ParamsBuffer::PAGE_BYTES);
    }

    #[test]
    fn buffer_evicts_oldest_when_full() {
        let mut buffer = ParamsBuffer::new(600);
        for trace in 1..=10u128 {
            buffer.push(block(trace, 1, 100));
        }
        assert!(buffer.evicted_blocks() > 0);
        assert!(!buffer.contains(TraceId::from_u128(1)));
        assert!(buffer.contains(TraceId::from_u128(10)));
        assert!(buffer.used_bytes() <= 600);
    }

    #[test]
    fn take_removes_block() {
        let mut buffer = ParamsBuffer::new(10_000);
        buffer.push(block(5, 1, 10));
        buffer.push(block(6, 1, 10));
        let taken = buffer.take(TraceId::from_u128(5)).unwrap();
        assert_eq!(taken.trace_id(), TraceId::from_u128(5));
        assert_eq!(taken.wire_size(), block(5, 1, 10).wire_size());
        assert!(!buffer.contains(TraceId::from_u128(5)));
        assert!(buffer.take(TraceId::from_u128(5)).is_none());
        assert_eq!(buffer.len(), 1);
    }

    #[test]
    fn take_prefers_the_newest_block_of_a_trace_buffered_twice() {
        let mut buffer = ParamsBuffer::new(10_000);
        let (old, filler, new) = (block(7, 1, 10), block(8, 1, 10), block(7, 2, 10));
        let total = old.wire_size() + filler.wire_size() + new.wire_size();
        buffer.push(old.clone());
        buffer.push(filler.clone());
        buffer.push(new.clone());
        assert_eq!(buffer.used_bytes(), total);

        let taken = |buffer: &mut ParamsBuffer| {
            let block = buffer.take(TraceId::from_u128(7));
            block.map(|block| block.to_params())
        };
        assert_eq!(taken(&mut buffer), Some(new.clone()));
        assert_eq!(buffer.used_bytes(), total - new.wire_size());
        assert!(buffer.contains(TraceId::from_u128(7)));
        // What is left keeps its FIFO order: the older block is still first.
        let order: Vec<usize> = buffer.iter().map(|block| block.len()).collect();
        assert_eq!(order, [old.len(), filler.len()]);

        assert_eq!(taken(&mut buffer), Some(old));
        assert!(!buffer.contains(TraceId::from_u128(7)));
        assert_eq!(buffer.used_bytes(), filler.wire_size());
    }

    #[test]
    fn drain_empties_buffer() {
        let mut buffer = ParamsBuffer::new(10_000);
        buffer.push(block(1, 1, 10));
        buffer.push(block(2, 1, 10));
        let drained = buffer.drain();
        assert_eq!(drained, [block(1, 1, 10), block(2, 1, 10)]);
        assert!(buffer.is_empty());
        assert_eq!(buffer.used_bytes(), 0);
        assert_eq!(buffer.encoded_bytes(), 0);
    }

    #[test]
    fn oversized_block_is_still_accepted() {
        // A single block larger than the budget is kept (the buffer cannot
        // split blocks); it simply occupies the whole buffer.
        for capacity in [64, 1] {
            let mut buffer = ParamsBuffer::new(capacity);
            buffer.push(block(1, 3, 200));
            assert_eq!(buffer.len(), 1);
            assert!(buffer.used_bytes() > capacity);
            buffer.push(block(2, 1, 10));
            assert!(!buffer.contains(TraceId::from_u128(1)));
            assert_eq!(buffer.len(), 1);
            assert_eq!(buffer.evicted_blocks(), 1);
        }
        // A block of several pages, and what it leaves behind when it goes.
        let mut buffer = ParamsBuffer::new(64);
        buffer.push(block(1, 4, 30_000));
        assert!(buffer.resident_bytes() > 120_000);
        buffer.push(block(2, 1, 10));
        assert!(buffer.resident_bytes() <= 3 * ParamsBuffer::PAGE_BYTES);
        assert_eq!(buffer.drain(), [block(2, 1, 10)]);
    }

    #[test]
    fn trace_params_helpers() {
        let b = block(9, 3, 4);
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
        assert!(TraceParams::new(TraceId::from_u128(1)).is_empty());
    }
}
