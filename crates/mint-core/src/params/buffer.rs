//! The agent-side Params Buffer: encoded parameter blocks in a ring of
//! fixed-size, recycled pages.

use super::codec::{u64_at, BlockHeader, ParamBlock, ParamsWriter, TAKEN_AT};
use super::TraceParams;
use std::collections::VecDeque;
use trace_model::{TraceId, WireSize};

/// Bytes of one ring page.
const PAGE_BYTES: usize = 16 * 1024;
/// Bytes after a block's records: the length of header and records, so the
/// ring can be walked from its newest block as well as from its oldest.
const FOOTER_BYTES: usize = 8;

/// A byte queue over fixed-size pages.  Positions count from the start of
/// the first page; pages wholly before `head` or after `tail` go to `spare`
/// and come back from it, so a queue whose length hovers allocates nothing.
#[derive(Debug, Clone, Default)]
struct Ring {
    pages: VecDeque<Box<[u8]>>,
    spare: Vec<Box<[u8]>>,
    /// The first byte held; less than [`PAGE_BYTES`].
    head: usize,
    /// One past the last byte held.
    tail: usize,
}

impl Ring {
    fn append(&mut self, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            let (page, at) = (self.tail / PAGE_BYTES, self.tail % PAGE_BYTES);
            if page == self.pages.len() {
                let recycled = self.spare.pop();
                self.pages
                    .push_back(recycled.unwrap_or_else(|| vec![0; PAGE_BYTES].into()));
            }
            let len = bytes.len().min(PAGE_BYTES - at);
            self.pages[page][at..at + len].copy_from_slice(&bytes[..len]);
            self.tail += len;
            bytes = &bytes[len..];
        }
    }

    /// The `len` bytes at `at`, page by page.
    fn chunks(&self, at: usize, len: usize) -> impl Iterator<Item = &[u8]> + '_ {
        let mut range = at..at + len;
        std::iter::from_fn(move || {
            let (page, at) = (range.start / PAGE_BYTES, range.start % PAGE_BYTES);
            let len = range.len().min(PAGE_BYTES - at);
            range.start += len;
            (len > 0).then(|| &self.pages[page][at..at + len])
        })
    }

    fn read<const N: usize>(&self, at: usize) -> [u8; N] {
        let mut out = [0u8; N];
        let mut filled = 0;
        for chunk in self.chunks(at, N) {
            out[filled..filled + chunk.len()].copy_from_slice(chunk);
            filled += chunk.len();
        }
        out
    }

    fn set(&mut self, at: usize, byte: u8) {
        self.pages[at / PAGE_BYTES][at % PAGE_BYTES] = byte;
    }

    /// Drops the bytes before `to`.
    fn advance_head(&mut self, to: usize) {
        self.head = to;
        while self.head >= PAGE_BYTES {
            self.spare.extend(self.pages.pop_front());
            self.head -= PAGE_BYTES;
            self.tail -= PAGE_BYTES;
        }
    }

    /// Drops the bytes from `to` on.
    fn truncate(&mut self, to: usize) {
        self.tail = to;
        while self.pages.len() > to.div_ceil(PAGE_BYTES) {
            self.spare.extend(self.pages.pop_back());
        }
    }

    /// Moves `len` bytes from `from` down to `to`; the ranges may overlap.
    fn move_down(&mut self, mut from: usize, mut to: usize, mut len: usize) {
        let pages = self.pages.make_contiguous();
        while len > 0 && from != to {
            let (source, source_at) = (from / PAGE_BYTES, from % PAGE_BYTES);
            let (target, target_at) = (to / PAGE_BYTES, to % PAGE_BYTES);
            let chunk = len.min(PAGE_BYTES - source_at).min(PAGE_BYTES - target_at);
            if source == target {
                pages[source].copy_within(source_at..source_at + chunk, target_at);
            } else {
                let (before, after) = pages.split_at_mut(source);
                before[target][target_at..target_at + chunk]
                    .copy_from_slice(&after[0][source_at..source_at + chunk]);
            }
            from += chunk;
            to += chunk;
            len -= chunk;
        }
    }

    fn resident_bytes(&self) -> usize {
        (self.pages.len() + self.spare.len()) * PAGE_BYTES
    }
}

/// The agent-side Params Buffer (§4.1): a FIFO queue of per-trace parameter
/// blocks bounded by a byte budget (default 4 MiB).  When the buffer is full
/// the oldest block is evicted — its parameters are lost, which is acceptable
/// because only the *variability* part is dropped; the commonality part has
/// already been recorded in the pattern libraries.
///
/// Blocks are held encoded, back to back, in a ring of pages:
/// `[header][records…][footer]` each (see `codec` for the first two).  The
/// budget, [`Self::used_bytes`] and eviction are in [`WireSize`] units — the
/// figure in each block's header, what an upload of the block is charged —
/// while [`Self::resident_bytes`] is the memory the ring really holds.
///
/// A block taken from the middle stays behind as a tombstone (its header's
/// taken flag set).  Tombstones at either end are dropped at once, and the
/// ring is compacted whenever its dead bytes (tombstones, plus the gap before
/// the oldest block in the first page) exceed its live bytes; spare pages are
/// kept only within the same bound.  So [`Self::resident_bytes`] never
/// exceeds twice the live encoded bytes plus two pages: one of slack in the
/// ring and one for the block being written.
#[derive(Debug, Clone)]
pub struct ParamsBuffer {
    capacity_bytes: usize,
    /// Wire size of the live blocks.
    used_bytes: usize,
    /// Number of live blocks.
    blocks: usize,
    evicted_blocks: u64,
    /// The block being written.
    writer: ParamsWriter,
    /// Every block pushed and neither evicted nor dropped as a tombstone;
    /// the first and the last are live.
    ring: Ring,
    /// Encoded bytes of the live blocks, footers included.
    live_bytes: usize,
}

impl ParamsBuffer {
    /// Bytes of one ring page: the granularity of [`Self::resident_bytes`].
    pub const PAGE_BYTES: usize = PAGE_BYTES;

    /// Creates a buffer with the given byte budget.
    pub fn new(capacity_bytes: usize) -> Self {
        ParamsBuffer {
            capacity_bytes: capacity_bytes.max(1),
            used_bytes: 0,
            blocks: 0,
            evicted_blocks: 0,
            writer: ParamsWriter::default(),
            ring: Ring::default(),
            live_bytes: 0,
        }
    }

    /// The configured byte budget.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Bytes currently held, as an upload of them would be charged.
    pub fn used_bytes(&self) -> usize {
        self.used_bytes
    }

    /// Bytes of memory the buffer holds: ring pages, spare pages and the
    /// block being written.
    pub fn resident_bytes(&self) -> usize {
        self.ring.resident_bytes() + self.writer.capacity()
    }

    /// Encoded bytes of the blocks currently held.
    pub fn encoded_bytes(&self) -> usize {
        self.live_bytes
    }

    /// Number of blocks currently held.
    pub fn len(&self) -> usize {
        self.blocks
    }

    /// Whether the buffer holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.blocks == 0
    }

    /// Number of blocks evicted because the buffer was full.
    pub fn evicted_blocks(&self) -> u64 {
        self.evicted_blocks
    }

    /// Starts the block of `trace_id` and returns the writer its spans go
    /// through; [`Self::commit`] pushes it.  A block begun and not committed
    /// is forgotten.
    pub fn begin_block(&mut self, trace_id: TraceId) -> &mut ParamsWriter {
        self.writer.begin_block(trace_id);
        &mut self.writer
    }

    /// Pushes the block written since [`Self::begin_block`], evicting from
    /// the front until it fits.
    pub fn commit(&mut self) {
        let size = self.writer.wire_size();
        while self.used_bytes + size > self.capacity_bytes && self.blocks > 0 {
            self.evict_oldest();
        }
        let block = self.writer.finish();
        let footer = block.len() as u64;
        self.ring.append(block);
        self.ring.append(&footer.to_le_bytes());
        self.used_bytes += size;
        self.blocks += 1;
        self.live_bytes += block.len() + FOOTER_BYTES;
        // An oversized block is not what the writer should stay sized for.
        self.writer.shrink_to(PAGE_BYTES);
        self.settle();
    }

    /// Pushes an already decoded block: the owned form of
    /// [`Self::begin_block`] … [`Self::commit`].
    pub fn push(&mut self, block: TraceParams) {
        let writer = self.begin_block(block.trace_id);
        for span in &block.spans {
            writer.push_span(span);
        }
        debug_assert_eq!(writer.wire_size(), block.wire_size());
        self.commit();
    }

    /// Removes and returns the block for `trace_id`, if still buffered, as
    /// one exactly-sized copy.
    ///
    /// The search runs from the newest block: a trace is marked sampled right
    /// after its sub-trace was ingested, so its block is at or near the back.
    /// Should one trace id be buffered more than once (the same trace ingested
    /// again), each call takes the most recently pushed of its blocks and
    /// leaves the older ones, which still leave oldest-first by eviction.
    pub fn take(&mut self, trace_id: TraceId) -> Option<ParamBlock> {
        let (at, header) = self.find(trace_id)?;
        let block = self.copy_block(at, &header);
        let end = at + header.block_len + FOOTER_BYTES;
        self.used_bytes -= header.wire_size;
        self.blocks -= 1;
        self.live_bytes -= end - at;
        if end == self.ring.tail {
            self.ring.truncate(at);
            while self.has_tombstones() {
                match self.block_before(self.ring.tail) {
                    Some((at, header)) if header.taken => self.ring.truncate(at),
                    _ => break,
                }
            }
        } else if at == self.ring.head {
            self.ring.advance_head(end);
            self.drop_leading_tombstones();
        } else {
            self.ring.set(at + TAKEN_AT, 1);
        }
        self.settle();
        Some(block)
    }

    /// Whether a block for `trace_id` is currently buffered.
    pub fn contains(&self, trace_id: TraceId) -> bool {
        self.find(trace_id).is_some()
    }

    /// Iterates over buffered blocks from oldest to newest, decoded.
    pub fn iter(&self) -> impl Iterator<Item = TraceParams> + '_ {
        let mut at = self.ring.head;
        std::iter::from_fn(move || loop {
            if at >= self.ring.tail {
                return None;
            }
            let (block_at, header) = (at, self.header_at(at));
            at += header.block_len + FOOTER_BYTES;
            if !header.taken {
                return Some(self.copy_block(block_at, &header).to_params());
            }
        })
    }

    /// Drains every block out of the buffer, decoded.
    pub fn drain(&mut self) -> Vec<TraceParams> {
        let blocks = self.iter().collect();
        (self.used_bytes, self.blocks, self.live_bytes) = (0, 0, 0);
        self.settle();
        blocks
    }

    /// An exactly-sized copy of the block at `at`.
    fn copy_block(&self, at: usize, header: &BlockHeader) -> ParamBlock {
        ParamBlock::from_written(self.ring.chunks(at, header.block_len))
    }

    fn header_at(&self, at: usize) -> BlockHeader {
        BlockHeader::read(&self.ring.read(at))
    }

    /// Position and header of the block that ends at `end`, tombstone or not.
    fn block_before(&self, end: usize) -> Option<(usize, BlockHeader)> {
        if end <= self.ring.head {
            return None;
        }
        let footer = self.ring.read::<FOOTER_BYTES>(end - FOOTER_BYTES);
        let block_len = u64_at(&footer, 0).unwrap_or(0) as usize;
        let at = end.checked_sub(block_len + FOOTER_BYTES)?;
        Some((at, self.header_at(at)))
    }

    /// Position and header of the newest live block of `trace_id`.
    fn find(&self, trace_id: TraceId) -> Option<(usize, BlockHeader)> {
        let mut end = self.ring.tail;
        loop {
            let (at, header) = self.block_before(end)?;
            if header.trace_id == trace_id && !header.taken {
                return Some((at, header));
            }
            end = at;
        }
    }

    /// Evicts the oldest block, which is live.
    fn evict_oldest(&mut self) {
        let at = self.ring.head;
        let header = self.header_at(at);
        let end = at + header.block_len + FOOTER_BYTES;
        self.used_bytes -= header.wire_size;
        self.blocks -= 1;
        self.live_bytes -= end - at;
        self.evicted_blocks += 1;
        self.ring.advance_head(end);
        self.drop_leading_tombstones();
    }

    /// Whether the ring holds bytes of blocks that were taken.
    fn has_tombstones(&self) -> bool {
        self.ring.tail - self.ring.head > self.live_bytes
    }

    fn drop_leading_tombstones(&mut self) {
        while self.has_tombstones() {
            let header = self.header_at(self.ring.head);
            if !header.taken {
                break;
            }
            self.ring
                .advance_head(self.ring.head + header.block_len + FOOTER_BYTES);
        }
    }

    /// Restores the bound on resident memory after blocks left.
    fn settle(&mut self) {
        if self.blocks == 0 {
            self.ring.head = 0;
            self.ring.truncate(0);
        } else if self.ring.tail - self.live_bytes > self.live_bytes {
            // Dead bytes: tombstones and the gap before the oldest block.
            self.compact();
        }
        let bound = 2 * self.live_bytes + PAGE_BYTES;
        while self.ring.resident_bytes() > bound && self.ring.spare.pop().is_some() {}
    }

    /// Closes the gaps tombstones left, moving live blocks towards the
    /// start of the first page, oldest first.
    fn compact(&mut self) {
        let (mut from, mut to) = (self.ring.head, 0);
        while from < self.ring.tail {
            let header = self.header_at(from);
            let len = header.block_len + FOOTER_BYTES;
            if !header.taken {
                self.ring.move_down(from, to, len);
                to += len;
            }
            from += len;
        }
        self.ring.head = 0;
        self.ring.truncate(to);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{PackedVars, ParamValue, SpanParams};
    use trace_model::{PatternId, SpanId};

    fn block(trace: u128, payload: usize) -> TraceParams {
        let mut vars = PackedVars::default();
        vars.push_slot(&["x".repeat(payload)]);
        let mut block = TraceParams::new(TraceId::from_u128(trace));
        block.spans.push(SpanParams {
            span_id: SpanId::from_u64(trace as u64),
            parent_id: SpanId::INVALID,
            pattern: PatternId::from_u128(1),
            start_time_us: 0,
            duration_bucket: 5,
            duration_offset: 1.5,
            status_error: false,
            attr_params: vec![ParamValue::StrVars { first: 0, count: 1 }],
            vars,
        });
        block
    }

    fn order(buffer: &ParamsBuffer) -> Vec<u128> {
        buffer.iter().map(|b| b.trace_id.as_u128()).collect()
    }

    #[test]
    fn blocks_cross_page_boundaries_intact() {
        let mut buffer = ParamsBuffer::new(usize::MAX / 2);
        let blocks: Vec<TraceParams> = (1..=40).map(|t| block(t, 1_000 + t as usize)).collect();
        for b in &blocks {
            buffer.push(b.clone());
        }
        assert!(buffer.ring.pages.len() > 2);
        assert_eq!(buffer.iter().collect::<Vec<_>>(), blocks);
        // Every other block, oldest first: tombstones in the middle.
        for b in blocks.iter().step_by(2) {
            assert_eq!(
                buffer.take(b.trace_id).map(|b| b.to_params()),
                Some(b.clone())
            );
        }
        let kept: Vec<TraceParams> = blocks.iter().skip(1).step_by(2).cloned().collect();
        assert_eq!(buffer.iter().collect::<Vec<_>>(), kept);
        assert_eq!(buffer.used_bytes(), kept.wire_size());
    }

    #[test]
    fn tombstones_at_either_end_are_dropped_at_once() {
        let mut buffer = ParamsBuffer::new(usize::MAX / 2);
        for trace in 1..=5 {
            buffer.push(block(trace, 100));
        }
        let one = buffer.live_bytes / 5;
        // Middle blocks first: two tombstones between three live blocks.
        buffer.take(TraceId::from_u128(2)).unwrap();
        buffer.take(TraceId::from_u128(4)).unwrap();
        assert_eq!(buffer.ring.tail - buffer.ring.head, 5 * one);
        // Taking the newest drops the tombstone before it as well…
        buffer.take(TraceId::from_u128(5)).unwrap();
        assert_eq!(buffer.ring.tail - buffer.ring.head, 3 * one);
        // …and taking the oldest the one after it.
        buffer.take(TraceId::from_u128(1)).unwrap();
        assert_eq!(order(&buffer), [3]);
        assert_eq!((buffer.ring.head, buffer.ring.tail), (0, one));
        assert_eq!(buffer.live_bytes, one);
    }

    #[test]
    fn compaction_keeps_order_and_content() {
        let mut buffer = ParamsBuffer::new(usize::MAX / 2);
        let blocks: Vec<TraceParams> = (1..=64).map(|t| block(t, 700)).collect();
        for b in &blocks {
            buffer.push(b.clone());
        }
        let pages = buffer.ring.pages.len();
        // All but every eighth block, from the middle out: dead bytes come
        // to exceed live bytes and the ring closes up.
        for b in blocks.iter().filter(|b| b.trace_id.as_u128() % 8 != 0) {
            buffer.take(b.trace_id).unwrap();
        }
        let kept: Vec<TraceParams> = blocks
            .iter()
            .filter(|b| b.trace_id.as_u128() % 8 == 0)
            .cloned()
            .collect();
        assert_eq!(buffer.iter().collect::<Vec<_>>(), kept);
        assert!(buffer.ring.pages.len() < pages / 2);
        assert!(buffer.resident_bytes() <= 2 * buffer.encoded_bytes() + 2 * PAGE_BYTES);
        // The ring still takes and evicts as before.
        buffer.push(block(100, 700));
        assert_eq!(
            buffer.take(TraceId::from_u128(100)),
            Some(block(100, 700).into())
        );
    }

    #[test]
    fn steady_state_eviction_recycles_its_pages() {
        let mut buffer = ParamsBuffer::new(20_000);
        for trace in 1..=200 {
            buffer.push(block(trace, 900));
        }
        let resident = buffer.resident_bytes();
        for trace in 201..=2_000 {
            buffer.push(block(trace, 900));
            assert!(buffer.resident_bytes() <= resident, "grew at {trace}");
        }
        assert!(buffer.evicted_blocks() > 1_900);
    }

    #[test]
    fn a_block_begun_and_not_committed_is_forgotten() {
        let mut buffer = ParamsBuffer::new(10_000);
        buffer.push(block(1, 10));
        buffer.begin_block(TraceId::from_u128(2));
        assert!(!buffer.contains(TraceId::from_u128(2)));
        buffer.push(block(3, 10));
        assert_eq!(order(&buffer), [1, 3]);
    }
}
