//! The Params Buffer against the buffer it replaced.
//!
//! Until the ring of encoded pages, `ParamsBuffer` was a
//! `VecDeque<TraceParams>`: push at the back, evict from the front while the
//! wire size does not fit, take the newest block of a trace.  That buffer
//! lives on here as the oracle.  Random sequences of `push`, `take`,
//! `contains` and `drain` — with trace ids that repeat, blocks larger than
//! the budget, budgets down to one byte and blocks begun but never committed
//! — must leave ring and oracle with the same `used_bytes`, `len`,
//! `evicted_blocks`, the same taken blocks and the same blocks in the same
//! order.
//!
//! What the oracle cannot say is how much memory the ring holds.  That is
//! the second half: `resident_bytes` stays within twice the live encoded
//! bytes plus two pages after every operation of every sequence, and over
//! streams of ten times the budget that are never taken from, or always
//! taken from in the middle.
//!
//! Case counts honour `MINT_SCALE`, as the equivalence suites' sizes do.

use mint_core::{PackedVars, ParamValue, ParamsBuffer, SpanParams, TraceParams};
use proptest::prelude::*;
use std::collections::VecDeque;
use trace_model::{PatternId, SpanId, TraceId, WireSize};

/// `ParamsBuffer` as it was at commit ab72c41.
struct Oracle {
    capacity_bytes: usize,
    used_bytes: usize,
    blocks: VecDeque<TraceParams>,
    evicted_blocks: u64,
}

impl Oracle {
    fn new(capacity_bytes: usize) -> Self {
        Oracle {
            capacity_bytes: capacity_bytes.max(1),
            used_bytes: 0,
            blocks: VecDeque::new(),
            evicted_blocks: 0,
        }
    }

    fn push(&mut self, block: TraceParams) {
        let size = block.wire_size();
        while self.used_bytes + size > self.capacity_bytes && !self.blocks.is_empty() {
            if let Some(evicted) = self.blocks.pop_front() {
                self.used_bytes -= evicted.wire_size();
                self.evicted_blocks += 1;
            }
        }
        self.used_bytes += size;
        self.blocks.push_back(block);
    }

    fn take(&mut self, trace_id: TraceId) -> Option<TraceParams> {
        let idx = self.blocks.iter().rposition(|b| b.trace_id == trace_id)?;
        let block = self.blocks.remove(idx)?;
        self.used_bytes -= block.wire_size();
        Some(block)
    }

    fn contains(&self, trace_id: TraceId) -> bool {
        self.blocks.iter().any(|b| b.trace_id == trace_id)
    }

    fn drain(&mut self) -> Vec<TraceParams> {
        self.used_bytes = 0;
        self.blocks.drain(..).collect()
    }
}

fn cases(base: u32) -> u32 {
    let scale = std::env::var("MINT_SCALE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|v| *v > 0.0)
        .unwrap_or(1.0);
    (f64::from(base) * scale) as u32
}

/// A block of `spans` spans of one slot of `payload` bytes each.
fn block(trace: u128, spans: usize, payload: usize, serial: u64) -> TraceParams {
    let mut block = TraceParams::new(TraceId::from_u128(trace));
    for index in 0..spans {
        let mut vars = PackedVars::default();
        vars.push_slot(&["p".repeat(payload)]);
        block.spans.push(SpanParams {
            span_id: SpanId::from_u64(serial * 100 + index as u64),
            parent_id: SpanId::INVALID,
            pattern: PatternId::from_u128(1 + serial as u128 % 7),
            start_time_us: serial,
            duration_bucket: index as i64,
            duration_offset: 0.5,
            status_error: false,
            attr_params: vec![
                ParamValue::StrVars { first: 0, count: 1 },
                ParamValue::Bool(serial.is_multiple_of(2)),
            ],
            vars,
        });
    }
    block
}

fn assert_same_state(ring: &ParamsBuffer, oracle: &Oracle, step: usize) {
    assert_eq!(ring.used_bytes(), oracle.used_bytes, "used_bytes at {step}");
    assert_eq!(ring.len(), oracle.blocks.len(), "len at {step}");
    assert_eq!(ring.is_empty(), oracle.blocks.is_empty());
    assert_eq!(
        ring.evicted_blocks(),
        oracle.evicted_blocks,
        "evicted at {step}"
    );
    let held: Vec<TraceParams> = ring.iter().collect();
    assert!(
        held.iter().eq(oracle.blocks.iter()),
        "blocks or their order at {step}"
    );
    let bound = 2 * ring.encoded_bytes() + 2 * ParamsBuffer::PAGE_BYTES;
    assert!(
        ring.resident_bytes() <= bound,
        "{} resident for {} encoded at {step}",
        ring.resident_bytes(),
        ring.encoded_bytes()
    );
}

const CAPACITIES: [usize; 6] = [1, 64, 600, 5_000, 40_000, usize::MAX / 4];
/// Payload bytes per span: mostly small, some a page and more.
const PAYLOADS: [usize; 8] = [0, 3, 40, 40, 300, 300, 2_500, 20_000];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(192)))]

    #[test]
    fn the_ring_does_what_the_deque_did(
        capacity in 0usize..6,
        ops in proptest::collection::vec((0u8..10, 0u128..12, 0usize..4, 0usize..8), 1..160),
    ) {
        let capacity = CAPACITIES[capacity];
        let mut ring = ParamsBuffer::new(capacity);
        let mut oracle = Oracle::new(capacity);
        prop_assert_eq!(ring.capacity_bytes(), oracle.capacity_bytes);
        for (step, &(op, trace, spans, payload)) in ops.iter().enumerate() {
            let trace_id = TraceId::from_u128(trace);
            match op {
                // Pushes outnumber the rest, or nothing would ever be evicted.
                0..=4 => {
                    let pushed = block(trace, spans, PAYLOADS[payload], step as u64);
                    if op == 4 {
                        // A block begun and never committed leaves no trace.
                        ring.begin_block(TraceId::from_u128(99));
                    }
                    ring.push(pushed.clone());
                    oracle.push(pushed);
                }
                5..=7 => {
                    let taken = ring.take(trace_id);
                    let expected = oracle.take(trace_id);
                    if let (Some(taken), Some(expected)) = (&taken, &expected) {
                        prop_assert_eq!(taken.wire_size(), expected.wire_size());
                    }
                    prop_assert_eq!(taken.map(|block| block.to_params()), expected, "take at {}", step);
                }
                8 => {
                    for id in 0..12 {
                        let id = TraceId::from_u128(id);
                        prop_assert_eq!(ring.contains(id), oracle.contains(id), "contains at {}", step);
                    }
                }
                _ => prop_assert_eq!(ring.drain(), oracle.drain(), "drain at {}", step),
            }
            assert_same_state(&ring, &oracle, step);
        }
    }
}

/// Bytes `block(.., 2, 300, ..)` is charged.
fn charged() -> usize {
    block(0, 2, 300, 0).wire_size()
}

#[test]
fn a_stream_that_is_never_taken_from_plateaus() {
    let capacity = 64 * 1024;
    let mut ring = ParamsBuffer::new(capacity);
    let mut oracle = Oracle::new(capacity);
    let mut high_water = 0;
    for serial in 0..(10 * capacity / charged()) as u64 {
        let pushed = block(u128::from(serial), 2, 300, serial);
        ring.push(pushed.clone());
        oracle.push(pushed);
        assert_same_state(&ring, &oracle, serial as usize);
        if ring.evicted_blocks() == 1 {
            high_water = high_water.max(ring.resident_bytes());
        } else if ring.evicted_blocks() > 1 {
            // Full once, the buffer reuses the pages eviction frees.
            assert!(ring.resident_bytes() <= high_water + ParamsBuffer::PAGE_BYTES);
        }
    }
    assert!(ring.evicted_blocks() > 8 * (capacity / charged()) as u64);
    assert!(ring.used_bytes() <= capacity);
}

#[test]
fn a_stream_taken_from_in_the_middle_plateaus() {
    let capacity = 64 * 1024;
    let mut ring = ParamsBuffer::new(capacity);
    let mut oracle = Oracle::new(capacity);
    for serial in 0..(10 * capacity / charged()) as u64 {
        let pushed = block(u128::from(serial), 2, 300, serial);
        ring.push(pushed.clone());
        oracle.push(pushed);
        // Three of four blocks leave a few pushes after they arrived:
        // neither the oldest nor the newest, so each leaves a tombstone.
        if serial >= 3 && serial % 4 != 0 {
            let id = TraceId::from_u128(u128::from(serial - 3));
            let taken = ring.take(id).map(|block| block.to_params());
            assert_eq!(taken, oracle.take(id));
        }
        assert_same_state(&ring, &oracle, serial as usize);
    }
    // What is never taken is evicted in the end, and the ring has not grown
    // past what the budget charges for.
    assert!(ring.evicted_blocks() > 0);
    assert!(ring.resident_bytes() <= 2 * (capacity + capacity / 2) + 2 * ParamsBuffer::PAGE_BYTES);
}
