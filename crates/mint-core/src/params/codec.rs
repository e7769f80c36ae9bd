//! The byte form of span parameters: what the span parser writes, the
//! Params Buffer holds, the collector ships and the backend queries.
//!
//! A **block** is the parameters of the spans one node observed for one
//! trace:
//!
//! ```text
//! block  = header record*
//! header = trace id (16) | span count (u32) | wire size (u64)
//!        | encoded length of the records (u64) | taken flag (u8)
//! record = record length (u32) | pattern reference (u32) | span id (u64)
//!        | parent id (u64) | start time (u64) | duration offset (f64 bits)
//!        | status (u8) | duration bucket (zigzag varint) | param*
//! param  = STR    (varint(len + 1) bytes)* 0     -- one entry per slot
//!        | NUM_INT  bucket (zigzag varint) offset (varint)
//!        | NUM_F64  bucket (zigzag varint) offset (f64 bits)
//!        | FALSE | TRUE
//!        | RAW_STR varint(len) bytes | RAW_INT zigzag varint
//!        | RAW_FLOAT f64 bits | RAW_FALSE | RAW_TRUE
//! ```
//!
//! Integers are little-endian.  Parameters are positional: parameter `i`
//! belongs to attribute `i` of the span pattern the record references, which
//! holds the keys.  The pattern reference is the library-local index of the
//! pattern (ids are dense from 1), at a fixed offset so that a merge can
//! re-point it without decoding the record.
//!
//! The *wire size* in the header is not the encoded length: it is the
//! [`WireSize`] estimate every framework under comparison is charged by
//! (`SpanParams::wire_size`, summed), computed once while the block is
//! written.  Budgets, eviction and every charged byte are in those units;
//! what a block really occupies is its encoded length.

use super::{num_param_size, str_var_size, PackedVars, ParamValue, SpanParams, TraceParams};
use crate::lcs::TokenSeq;
use std::sync::Arc;
use trace_model::{AttrValue, PatternId, SpanId, TraceId, WireSize};

/// Bytes of a block header.
pub(super) const HEADER_BYTES: usize = 37;
const SPAN_COUNT_AT: usize = 16;
const WIRE_SIZE_AT: usize = 20;
const ENCODED_LEN_AT: usize = 28;
/// Offset of the taken flag in a block header.
pub(super) const TAKEN_AT: usize = 36;

/// Bytes of a record before its duration bucket.
const RECORD_FIXED_BYTES: usize = 41;
const PATTERN_AT: usize = 4;
const SPAN_ID_AT: usize = 8;
const PARENT_ID_AT: usize = 16;
const START_TIME_AT: usize = 24;
const DURATION_OFFSET_AT: usize = 32;
const STATUS_AT: usize = 40;

const TAG_STR: u8 = 0;
const TAG_NUM_INT: u8 = 1;
const TAG_NUM_F64: u8 = 2;
const TAG_FALSE: u8 = 3;
const TAG_TRUE: u8 = 4;
const TAG_RAW_STR: u8 = 5;
const TAG_RAW_INT: u8 = 6;
const TAG_RAW_FLOAT: u8 = 7;
const TAG_RAW_FALSE: u8 = 8;
const TAG_RAW_TRUE: u8 = 9;

fn put_varint(out: &mut Vec<u8>, mut value: u64) {
    while value >= 0x80 {
        out.push(value as u8 | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

fn zigzag(value: i64) -> u64 {
    ((value << 1) ^ (value >> 63)) as u64
}

fn unzigzag(value: u64) -> i64 {
    (value >> 1) as i64 ^ -((value & 1) as i64)
}

/// The library-local reference of `pattern`.  Ids are dense from 1, so one
/// that does not fit cannot name a pattern of any library.
fn pattern_ref(pattern: PatternId) -> u32 {
    u32::try_from(pattern.as_u128()).unwrap_or(u32::MAX)
}

pub(super) fn u32_at(bytes: &[u8], at: usize) -> Option<u32> {
    let mut word = [0u8; 4];
    word.copy_from_slice(bytes.get(at..at.checked_add(4)?)?);
    Some(u32::from_le_bytes(word))
}

pub(super) fn u64_at(bytes: &[u8], at: usize) -> Option<u64> {
    let mut word = [0u8; 8];
    word.copy_from_slice(bytes.get(at..at.checked_add(8)?)?);
    Some(u64::from_le_bytes(word))
}

/// A checked reader over encoded bytes: every read is `None` past the end.
#[derive(Debug, Clone, Copy)]
struct Cursor<'a>(&'a [u8]);

impl<'a> Cursor<'a> {
    fn take(&mut self, len: usize) -> Option<&'a [u8]> {
        let (taken, rest) = self.0.split_at_checked(len)?;
        self.0 = rest;
        Some(taken)
    }

    fn byte(&mut self) -> Option<u8> {
        self.take(1).map(|byte| byte[0])
    }

    fn varint(&mut self) -> Option<u64> {
        let mut value = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.byte()?;
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Some(value);
            }
        }
        None
    }

    fn f64(&mut self) -> Option<f64> {
        let bits = u64_at(self.take(8)?, 0)?;
        Some(f64::from_bits(bits))
    }

    fn text(&mut self, len: u64) -> Option<&'a str> {
        std::str::from_utf8(self.take(usize::try_from(len).ok()?)?).ok()
    }
}

/// Writes one block: a header, then one record per span, each parameter
/// appended as the attribute parsers produce it.  The span parser's
/// [`parse_into`](crate::SpanParser::parse_into) drives it; the
/// [`ParamsBuffer`](super::ParamsBuffer) owns the one its agent writes into
/// and keeps what was written.  The buffer is reused from block to block, so
/// writing allocates nothing once it has grown to the largest block.
#[derive(Debug, Clone, Default)]
pub struct ParamsWriter {
    bytes: Vec<u8>,
    wire_size: usize,
    spans: u32,
    /// Where the record being written starts.
    record_at: usize,
}

impl ParamsWriter {
    /// Starts the block of `trace_id`, forgetting whatever was written before.
    pub fn begin_block(&mut self, trace_id: TraceId) {
        self.bytes.clear();
        self.bytes
            .extend_from_slice(&trace_id.as_u128().to_le_bytes());
        self.bytes.resize(HEADER_BYTES, 0);
        self.wire_size = 16;
        self.spans = 0;
        self.record_at = HEADER_BYTES;
    }

    /// The [`WireSize`] figure of what was written since
    /// [`Self::begin_block`].
    pub fn wire_size(&self) -> usize {
        self.wire_size
    }

    /// Starts the record of one span; its parameters follow, in attribute
    /// order, and [`Self::end_span`] closes it.
    pub(crate) fn begin_span(
        &mut self,
        span_id: SpanId,
        parent_id: SpanId,
        start_time_us: u64,
        (duration_bucket, duration_offset): (i64, f64),
        status_error: bool,
    ) {
        self.record_at = self.bytes.len();
        // Record length and pattern reference: known at `end_span`.
        self.bytes.extend_from_slice(&[0; 8]);
        self.bytes
            .extend_from_slice(&span_id.as_u64().to_le_bytes());
        self.bytes
            .extend_from_slice(&parent_id.as_u64().to_le_bytes());
        self.bytes.extend_from_slice(&start_time_us.to_le_bytes());
        self.bytes
            .extend_from_slice(&duration_offset.to_bits().to_le_bytes());
        self.bytes.push(u8::from(status_error));
        put_varint(&mut self.bytes, zigzag(duration_bucket));
        // The fixed part of `SpanParams::wire_size`.
        self.wire_size += 33;
        self.spans = self.spans.saturating_add(1);
    }

    /// Closes the record opened by [`Self::begin_span`] as a span of
    /// `pattern`.  A record of 4 GiB or more cannot be framed and reads back
    /// as the end of its block.
    pub(crate) fn end_span(&mut self, pattern: PatternId) {
        let at = self.record_at;
        let len = u32::try_from(self.bytes.len() - at).unwrap_or(u32::MAX);
        self.bytes[at..at + PATTERN_AT].copy_from_slice(&len.to_le_bytes());
        self.bytes[at + PATTERN_AT..at + SPAN_ID_AT]
            .copy_from_slice(&pattern_ref(pattern).to_le_bytes());
    }

    /// Opens a string parameter; its slots follow ([`Self::push_slots`],
    /// [`Self::push_slot`]) and [`Self::end_str`] closes it.  Returns where
    /// the slots start, for [`Self::slots_from`].
    pub(crate) fn begin_str(&mut self) -> usize {
        self.bytes.push(TAG_STR);
        self.wire_size += 1;
        self.bytes.len()
    }

    /// Closes the string parameter opened by [`Self::begin_str`].
    pub(crate) fn end_str(&mut self) {
        self.bytes.push(0);
    }

    /// Appends one slot per `(start, end)` token range of `tokens` — the
    /// matchers' output — each the range's tokens joined by single spaces,
    /// copied straight from the value.
    pub(crate) fn push_slots<T: TokenSeq + ?Sized>(&mut self, tokens: &T, ranges: &[(u32, u32)]) {
        for &(start, end) in ranges {
            // The length goes in front of the text and is known after it:
            // one byte is kept for it, which all but the rare slot of 127
            // bytes or more fits.
            self.bytes.push(0);
            let at = self.bytes.len();
            for index in start as usize..end as usize {
                if index > start as usize {
                    self.bytes.push(b' ');
                }
                self.bytes.extend_from_slice(tokens.token(index).as_bytes());
            }
            self.close_slot(at);
        }
    }

    /// Appends one slot holding `text`.
    pub(crate) fn push_slot(&mut self, text: &str) {
        self.bytes.push(0);
        let at = self.bytes.len();
        self.bytes.extend_from_slice(text.as_bytes());
        self.close_slot(at);
    }

    /// Fills in the length of the slot whose text runs from `at` to the end
    /// of what is written, `at - 1` being the byte kept for it.
    fn close_slot(&mut self, at: usize) {
        let len = self.bytes.len() - at;
        self.wire_size += str_var_size(&self.bytes[at..]);
        if len < 0x7f {
            self.bytes[at - 1] = len as u8 + 1;
        } else {
            self.widen_slot_length(at, len);
        }
    }

    /// Cold half of [`Self::close_slot`]: a length of two bytes or more, for
    /// which the text moves up.
    fn widen_slot_length(&mut self, at: usize, len: usize) {
        let mut length = Vec::with_capacity(10);
        put_varint(&mut length, len as u64 + 1);
        self.bytes.splice(at - 1..at, length);
    }

    /// The slots of the string parameter that starts at `at`, a position
    /// [`Self::begin_str`] returned.
    pub(crate) fn slots_from(&self, at: usize) -> Slots<'_> {
        Slots(Cursor(self.bytes.get(at..).unwrap_or_default()))
    }

    /// Appends a numeric parameter.
    pub(crate) fn push_num(&mut self, bucket: i64, offset: f64) {
        // A non-negative whole offset (counters, sizes, millisecond
        // latencies) is a varint, if that reads back to the same bits —
        // which rules out -0.0, NaN and the infinities.
        let whole = offset as u64;
        if (whole as f64).to_bits() == offset.to_bits() {
            self.bytes.push(TAG_NUM_INT);
            put_varint(&mut self.bytes, zigzag(bucket));
            put_varint(&mut self.bytes, whole);
        } else {
            self.bytes.push(TAG_NUM_F64);
            put_varint(&mut self.bytes, zigzag(bucket));
            self.bytes
                .extend_from_slice(&offset.to_bits().to_le_bytes());
        }
        self.wire_size += 1 + num_param_size(bucket, offset);
    }

    /// Appends a boolean parameter.
    pub(crate) fn push_bool(&mut self, value: bool) {
        self.bytes.push(if value { TAG_TRUE } else { TAG_FALSE });
        self.wire_size += 2;
    }

    /// Appends a value kept raw (type drift).
    pub(crate) fn push_raw(&mut self, value: &AttrValue) {
        match value {
            AttrValue::Str(text) => {
                self.bytes.push(TAG_RAW_STR);
                put_varint(&mut self.bytes, text.len() as u64);
                self.bytes.extend_from_slice(text.as_bytes());
            }
            AttrValue::Int(int) => {
                self.bytes.push(TAG_RAW_INT);
                put_varint(&mut self.bytes, zigzag(*int));
            }
            AttrValue::Float(float) => {
                self.bytes.push(TAG_RAW_FLOAT);
                self.bytes.extend_from_slice(&float.to_bits().to_le_bytes());
            }
            AttrValue::Bool(true) => self.bytes.push(TAG_RAW_TRUE),
            AttrValue::Bool(false) => self.bytes.push(TAG_RAW_FALSE),
        }
        self.wire_size += 1 + value.wire_size();
    }

    /// Appends the record of an already decoded span: the owned adapters'
    /// way in.  A string parameter keeps the slots its `first`/`count` name
    /// that exist; where they sit in the decoded text is not kept.
    pub(crate) fn push_span(&mut self, span: &SpanParams) {
        self.begin_span(
            span.span_id,
            span.parent_id,
            span.start_time_us,
            (span.duration_bucket, span.duration_offset),
            span.status_error,
        );
        for param in &span.attr_params {
            match param {
                ParamValue::StrVars { first, count } => {
                    self.begin_str();
                    for slot in span.str_vars(*first, *count) {
                        self.push_slot(slot);
                    }
                    self.end_str();
                }
                ParamValue::Num { bucket, offset } => self.push_num(*bucket, *offset),
                ParamValue::Bool(value) => self.push_bool(*value),
                ParamValue::Raw(value) => self.push_raw(value),
            }
        }
        self.end_span(span.pattern);
    }

    /// The record written last, once [`Self::end_span`] has closed it.
    pub(crate) fn last_record(&self) -> Option<SpanRecord<'_>> {
        let (record, _) = SpanRecord::split_first(self.bytes.get(self.record_at..)?)?;
        Some(record)
    }

    /// Closes the block: fills the header in and returns the block's bytes.
    pub(super) fn finish(&mut self) -> &[u8] {
        let encoded_len = (self.bytes.len() - HEADER_BYTES) as u64;
        self.bytes[SPAN_COUNT_AT..WIRE_SIZE_AT].copy_from_slice(&self.spans.to_le_bytes());
        self.bytes[WIRE_SIZE_AT..ENCODED_LEN_AT]
            .copy_from_slice(&(self.wire_size as u64).to_le_bytes());
        self.bytes[ENCODED_LEN_AT..TAKEN_AT].copy_from_slice(&encoded_len.to_le_bytes());
        &self.bytes
    }

    /// Bytes the writer keeps allocated.
    pub(super) fn capacity(&self) -> usize {
        self.bytes.capacity()
    }

    /// Gives back what the writer holds beyond `bytes` of capacity, and with
    /// it what was written.
    pub(super) fn shrink_to(&mut self, bytes: usize) {
        if self.bytes.capacity() > bytes {
            self.bytes.clear();
            self.bytes.shrink_to(bytes);
        }
    }
}

/// What a block header says, read from wherever the header lies.
#[derive(Debug, Clone, Copy)]
pub(super) struct BlockHeader {
    pub(super) trace_id: TraceId,
    pub(super) spans: u32,
    pub(super) wire_size: usize,
    /// Header and records.
    pub(super) block_len: usize,
    pub(super) taken: bool,
}

impl BlockHeader {
    pub(super) fn read(header: &[u8; HEADER_BYTES]) -> BlockHeader {
        let mut id = [0u8; 16];
        id.copy_from_slice(&header[..SPAN_COUNT_AT]);
        BlockHeader {
            trace_id: TraceId::from_u128(u128::from_le_bytes(id)),
            spans: u32_at(header, SPAN_COUNT_AT).unwrap_or(0),
            wire_size: u64_at(header, WIRE_SIZE_AT).unwrap_or(0) as usize,
            block_len: HEADER_BYTES
                .saturating_add(u64_at(header, ENCODED_LEN_AT).unwrap_or(0) as usize),
            taken: header[TAKEN_AT] != 0,
        }
    }
}

/// The parameter block of one trace on one node, as bytes: what
/// [`ParamsBuffer::take`](super::ParamsBuffer::take) hands the collector,
/// the collector charges from the header and the backend keeps and queries
/// in place.  The bytes are shared: a clone — the backend's snapshot
/// generations hold one each — is a reference count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamBlock {
    /// A header and the records it describes: the encoded length matches,
    /// and every record up to it is well formed.
    bytes: Arc<[u8]>,
}

impl ParamBlock {
    /// Copies a block out of the buffer's ring, where only blocks a
    /// [`ParamsWriter`] wrote go in, from the pieces it lies in there.
    pub(super) fn from_written<'a>(mut pieces: impl Iterator<Item = &'a [u8]>) -> ParamBlock {
        let first = pieces.next().unwrap_or_default();
        let bytes = match pieces.next() {
            // In one piece, as every block but one across a page boundary is.
            None => first.into(),
            Some(second) => {
                let mut joined = [first, second].concat();
                pieces.for_each(|piece| joined.extend_from_slice(piece));
                joined.into()
            }
        };
        ParamBlock { bytes }
    }

    /// Reads a block back from its bytes: `None` unless they are exactly one
    /// well-formed block whose header agrees with its records (length, span
    /// count and wire size).
    pub fn from_bytes(bytes: &[u8]) -> Option<ParamBlock> {
        let header = BlockHeader::read(bytes.get(..HEADER_BYTES)?.try_into().ok()?);
        if header.block_len != bytes.len() || header.taken {
            return None;
        }
        let block = ParamBlock {
            bytes: bytes.into(),
        };
        let mut spans = block.spans();
        let (mut count, mut wire_size) = (0u32, 16);
        for span in &mut spans {
            if !span.is_well_formed() {
                return None;
            }
            count = count.checked_add(1)?;
            wire_size += span.to_params().wire_size();
        }
        // A walk that stopped before the end stopped at what is no record.
        let whole = spans.rest.is_empty();
        (whole && count == header.spans && wire_size == header.wire_size).then_some(block)
    }

    /// The block's bytes: header, then records.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    fn header(&self) -> BlockHeader {
        let mut header = [0u8; HEADER_BYTES];
        header.copy_from_slice(&self.bytes[..HEADER_BYTES]);
        BlockHeader::read(&header)
    }

    /// The trace these parameters belong to.
    pub fn trace_id(&self) -> TraceId {
        self.header().trace_id
    }

    /// Number of spans in the block.
    pub fn len(&self) -> usize {
        self.header().spans as usize
    }

    /// Whether the block has no spans.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The spans' records, in the order they were written.
    pub fn spans(&self) -> SpanRecords<'_> {
        SpanRecords {
            rest: &self.bytes[HEADER_BYTES..],
        }
    }

    /// The block decoded into its owned form.
    pub fn to_params(&self) -> TraceParams {
        TraceParams {
            trace_id: self.trace_id(),
            spans: self.spans().map(|span| span.to_params()).collect(),
        }
    }

    /// A copy of the block whose pattern references went through `remap`
    /// (library-local id → id): the copy is made once and the fixed-width
    /// references are patched in it, record by record.
    pub(crate) fn with_patterns(&self, remap: impl Fn(PatternId) -> PatternId) -> ParamBlock {
        let mut copy: Arc<[u8]> = self.bytes.as_ref().into();
        // Nothing else holds the copy yet.
        let bytes = Arc::get_mut(&mut copy).unwrap_or_default();
        let mut at = HEADER_BYTES;
        while let (Some(len), Some(pattern)) = (u32_at(bytes, at), u32_at(bytes, at + PATTERN_AT)) {
            let mapped = pattern_ref(remap(PatternId::from_u128(u128::from(pattern))));
            bytes[at + PATTERN_AT..at + SPAN_ID_AT].copy_from_slice(&mapped.to_le_bytes());
            at += (len as usize).max(RECORD_FIXED_BYTES);
        }
        ParamBlock { bytes: copy }
    }
}

impl WireSize for ParamBlock {
    /// The figure the writer computed, read from the header.
    fn wire_size(&self) -> usize {
        self.header().wire_size
    }
}

impl From<&TraceParams> for ParamBlock {
    fn from(params: &TraceParams) -> ParamBlock {
        let mut writer = ParamsWriter::default();
        writer.begin_block(params.trace_id);
        for span in &params.spans {
            writer.push_span(span);
        }
        let block = ParamBlock {
            bytes: writer.finish().into(),
        };
        debug_assert_eq!(block.wire_size(), params.wire_size());
        block
    }
}

impl From<TraceParams> for ParamBlock {
    fn from(params: TraceParams) -> ParamBlock {
        ParamBlock::from(&params)
    }
}

/// The records of a block, in order.  The walk ends where the bytes do, or
/// before bytes that are not a record, which it leaves unread.
#[derive(Debug, Clone)]
pub struct SpanRecords<'a> {
    rest: &'a [u8],
}

impl<'a> Iterator for SpanRecords<'a> {
    type Item = SpanRecord<'a>;

    fn next(&mut self) -> Option<SpanRecord<'a>> {
        let (record, rest) = SpanRecord::split_first(self.rest)?;
        self.rest = rest;
        Some(record)
    }
}

/// The parameters of one span, read in place: everything needed, together
/// with the span's pattern, to reconstruct the exact span.
#[derive(Debug, Clone, Copy)]
pub struct SpanRecord<'a> {
    /// One whole record; at least its fixed part and duration bucket.
    bytes: &'a [u8],
    duration_bucket: i64,
    params_at: usize,
}

impl<'a> SpanRecord<'a> {
    /// The record at the front of `bytes`, and what follows it.
    fn split_first(bytes: &'a [u8]) -> Option<(SpanRecord<'a>, &'a [u8])> {
        let len = u32_at(bytes, 0)? as usize;
        let (record, rest) = bytes.split_at_checked(len)?;
        let mut after_fixed = Cursor(record.get(RECORD_FIXED_BYTES..)?);
        let duration_bucket = unzigzag(after_fixed.varint()?);
        let record = SpanRecord {
            bytes: record,
            duration_bucket,
            params_at: len - after_fixed.0.len(),
        };
        Some((record, rest))
    }

    fn u64_at(&self, at: usize) -> u64 {
        u64_at(self.bytes, at).unwrap_or(0)
    }

    /// The span's id.
    pub fn span_id(&self) -> SpanId {
        SpanId::from_u64(self.u64_at(SPAN_ID_AT))
    }

    /// The parent span id.
    pub fn parent_id(&self) -> SpanId {
        SpanId::from_u64(self.u64_at(PARENT_ID_AT))
    }

    /// The span pattern these parameters belong to.
    pub fn pattern(&self) -> PatternId {
        PatternId::from_u128(u128::from(u32_at(self.bytes, PATTERN_AT).unwrap_or(0)))
    }

    /// Start timestamp (microseconds since the epoch).
    pub fn start_time_us(&self) -> u64 {
        self.u64_at(START_TIME_AT)
    }

    /// Exponential bucket of the span duration.
    pub fn duration_bucket(&self) -> i64 {
        self.duration_bucket
    }

    /// Offset of the duration from its bucket's lower bound.
    pub fn duration_offset(&self) -> f64 {
        f64::from_bits(self.u64_at(DURATION_OFFSET_AT))
    }

    /// Whether the span recorded an error status.
    pub fn status_error(&self) -> bool {
        self.bytes[STATUS_AT] != 0
    }

    /// The per-attribute parameters, positionally.
    pub fn params(&self) -> Params<'a> {
        Params {
            rest: Cursor(&self.bytes[self.params_at..]),
        }
    }

    /// Whether every parameter up to the end of the record can be read.
    fn is_well_formed(&self) -> bool {
        let mut params = self.params();
        let slots_hold = params.all(|param| match param {
            ParamRef::StrVars(slots) => slots.are_well_formed(),
            _ => true,
        });
        slots_hold && params.rest.0.is_empty()
    }

    /// The record decoded into its owned form.  Three allocations, each of
    /// its final size: the parameter vector, the slot text and the slot
    /// boundaries.
    pub fn to_params(&self) -> SpanParams {
        let (mut attrs, mut slots, mut text) = (0, 0, 0);
        for param in self.params() {
            attrs += 1;
            if let ParamRef::StrVars(vars) = param {
                for slot in vars {
                    slots += 1;
                    text += slot.len();
                }
            }
        }
        let mut attr_params = Vec::with_capacity(attrs);
        let mut vars = PackedVars::with_capacity(slots, text);
        for param in self.params() {
            attr_params.push(match param {
                ParamRef::StrVars(slots) => {
                    let first = vars.len() as u32;
                    slots.for_each(|slot| vars.push_slot(&[slot]));
                    ParamValue::StrVars {
                        first,
                        count: vars.len() as u32 - first,
                    }
                }
                ParamRef::Num { bucket, offset } => ParamValue::Num { bucket, offset },
                ParamRef::Bool(value) => ParamValue::Bool(value),
                ParamRef::Raw(value) => ParamValue::Raw(value),
            });
        }
        SpanParams {
            span_id: self.span_id(),
            parent_id: self.parent_id(),
            pattern: self.pattern(),
            start_time_us: self.start_time_us(),
            duration_bucket: self.duration_bucket,
            duration_offset: self.duration_offset(),
            status_error: self.status_error(),
            attr_params,
            vars,
        }
    }
}

/// The variable part of one attribute, read in place.
#[derive(Debug, Clone)]
pub enum ParamRef<'a> {
    /// The contents of a string template's variable slots.
    StrVars(Slots<'a>),
    /// A numeric value as its exponential bucket plus the offset from the
    /// bucket's lower bound.
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

/// The parameters of one record, in attribute order.  The walk ends where
/// the record does, or before bytes that are not a parameter, which it
/// leaves unread.
#[derive(Debug, Clone)]
pub struct Params<'a> {
    rest: Cursor<'a>,
}

impl<'a> Params<'a> {
    fn read(cursor: &mut Cursor<'a>) -> Option<ParamRef<'a>> {
        Some(match cursor.byte()? {
            TAG_STR => {
                let slots = *cursor;
                loop {
                    match cursor.varint()? {
                        0 => break,
                        len => cursor.take(usize::try_from(len - 1).ok()?)?,
                    };
                }
                // Everything up to the terminator.
                let len = slots.0.len() - cursor.0.len() - 1;
                ParamRef::StrVars(Slots(Cursor(&slots.0[..len])))
            }
            tag @ (TAG_NUM_INT | TAG_NUM_F64) => ParamRef::Num {
                bucket: unzigzag(cursor.varint()?),
                offset: if tag == TAG_NUM_INT {
                    cursor.varint()? as f64
                } else {
                    cursor.f64()?
                },
            },
            TAG_FALSE => ParamRef::Bool(false),
            TAG_TRUE => ParamRef::Bool(true),
            TAG_RAW_STR => {
                let len = cursor.varint()?;
                ParamRef::Raw(AttrValue::str(cursor.text(len)?))
            }
            TAG_RAW_INT => ParamRef::Raw(AttrValue::Int(unzigzag(cursor.varint()?))),
            TAG_RAW_FLOAT => ParamRef::Raw(AttrValue::Float(cursor.f64()?)),
            TAG_RAW_FALSE => ParamRef::Raw(AttrValue::Bool(false)),
            TAG_RAW_TRUE => ParamRef::Raw(AttrValue::Bool(true)),
            _ => return None,
        })
    }
}

impl<'a> Iterator for Params<'a> {
    type Item = ParamRef<'a>;

    fn next(&mut self) -> Option<ParamRef<'a>> {
        let mut ahead = self.rest;
        let param = Params::read(&mut ahead)?;
        self.rest = ahead;
        Some(param)
    }
}

/// The slot contents of one string parameter, in slot order.  A slot holds
/// the tokens the template's variable matched, joined by single spaces.
#[derive(Debug, Clone)]
pub struct Slots<'a>(Cursor<'a>);

impl Slots<'_> {
    /// Whether every slot reads back as text.
    fn are_well_formed(mut self) -> bool {
        (&mut self).for_each(drop);
        self.0 .0.is_empty()
    }
}

impl<'a> Iterator for Slots<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let mut ahead = self.0;
        let len = ahead.varint()?.checked_sub(1)?;
        let slot = ahead.text(len)?;
        self.0 = ahead;
        Some(slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span_params(attr_params: Vec<ParamValue>, vars: PackedVars) -> SpanParams {
        SpanParams {
            span_id: SpanId::from_u64(7),
            parent_id: SpanId::from_u64(3),
            pattern: PatternId::from_u128(12),
            start_time_us: 1_700_000_000_000_000,
            duration_bucket: -4,
            duration_offset: 0.375,
            status_error: true,
            attr_params,
            vars,
        }
    }

    fn mixed_block() -> TraceParams {
        let mut vars = PackedVars::default();
        vars.push_slot(&["cart", ":", "7"]);
        vars.push_slot::<&str>(&[]);
        vars.push_slot(&["größe"]);
        let mut block = TraceParams::new(TraceId::from_u128(0xabc));
        block.spans.push(span_params(
            vec![
                ParamValue::StrVars { first: 0, count: 2 },
                ParamValue::Num {
                    bucket: 3,
                    offset: 12.0,
                },
                ParamValue::Num {
                    bucket: i64::MIN,
                    offset: -0.0,
                },
                ParamValue::Bool(true),
                ParamValue::StrVars { first: 2, count: 1 },
                ParamValue::Raw(AttrValue::str("n/a")),
                ParamValue::Raw(AttrValue::Int(-5)),
                ParamValue::StrVars { first: 3, count: 0 },
            ],
            vars,
        ));
        block
            .spans
            .push(span_params(Vec::new(), PackedVars::default()));
        block
    }

    #[test]
    fn a_block_decodes_to_what_was_encoded() {
        let params = mixed_block();
        let block = ParamBlock::from(&params);
        assert_eq!(block.trace_id(), params.trace_id);
        assert_eq!(block.len(), 2);
        assert_eq!(block.wire_size(), params.wire_size());
        assert_eq!(block.to_params(), params);
        assert_eq!(ParamBlock::from_bytes(block.as_bytes()), Some(block));
    }

    #[test]
    fn records_read_in_place() {
        let block = ParamBlock::from(&mixed_block());
        let record = block.spans().next().unwrap();
        assert_eq!(record.span_id(), SpanId::from_u64(7));
        assert_eq!(record.parent_id(), SpanId::from_u64(3));
        assert_eq!(record.pattern(), PatternId::from_u128(12));
        assert_eq!(record.duration_bucket(), -4);
        assert_eq!(record.duration_offset(), 0.375);
        assert!(record.status_error());
        let mut params = record.params();
        let Some(ParamRef::StrVars(slots)) = params.next() else {
            panic!("a string parameter comes first");
        };
        assert_eq!(slots.collect::<Vec<_>>(), ["cart : 7", ""]);
        assert_eq!(params.count(), 7);
    }

    #[test]
    fn an_empty_block_is_a_header() {
        let block = ParamBlock::from(TraceParams::new(TraceId::from_u128(1)));
        assert!(block.is_empty());
        assert_eq!(block.as_bytes().len(), HEADER_BYTES);
        assert_eq!(block.wire_size(), 16);
        assert_eq!(block.spans().count(), 0);
    }

    #[test]
    fn pattern_references_are_patched_in_the_copy() {
        let block = ParamBlock::from(&mixed_block());
        let patched = block.with_patterns(|id| PatternId::from_u128(id.as_u128() + 30));
        let mut expected = mixed_block();
        for span in &mut expected.spans {
            span.pattern = PatternId::from_u128(42);
        }
        assert_eq!(patched.to_params(), expected);
        assert_eq!(patched.wire_size(), block.wire_size());
        assert_eq!(block.to_params(), mixed_block());
    }

    #[test]
    fn damaged_bytes_are_not_a_block() {
        let block = ParamBlock::from(&mixed_block());
        let bytes = block.as_bytes();
        for len in 0..bytes.len() {
            assert_eq!(ParamBlock::from_bytes(&bytes[..len]), None, "cut at {len}");
        }
        let mut longer = bytes.to_vec();
        longer.push(0);
        assert_eq!(ParamBlock::from_bytes(&longer), None);
        // An unknown tag where the first parameter starts.
        let mut unknown_tag = bytes.to_vec();
        let first_param = HEADER_BYTES + RECORD_FIXED_BYTES + 1;
        assert_eq!(unknown_tag[first_param], TAG_STR);
        unknown_tag[first_param] = 0x7f;
        assert_eq!(ParamBlock::from_bytes(&unknown_tag), None);
    }

    #[test]
    fn varints_and_zigzag_round_trip() {
        for value in [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            let mut bytes = Vec::new();
            put_varint(&mut bytes, value);
            let mut cursor = Cursor(&bytes);
            assert_eq!(cursor.varint(), Some(value));
            assert!(cursor.0.is_empty());
        }
        for value in [0i64, -1, 1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(value)), value);
        }
        // Eleven continuation bytes are not a varint.
        assert_eq!(Cursor(&[0xff; 11]).varint(), None);
    }
}
