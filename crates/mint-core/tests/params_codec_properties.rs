//! The parameter codec, and the flattened topology key, as properties.
//!
//! * **Identity.**  Encoding parameters into a [`ParamBlock`] and reading
//!   the records back — in place, or decoded into `SpanParams` — gives the
//!   parameters that went in, bit for bit: every `ParamValue` variant, `Raw`
//!   of each `AttrValue` type, NaN, the infinities and −0.0 as offsets, the
//!   catch-all bucket, empty slots, slots past the one-byte length, a slot of
//!   ten thousand tokens, multi-byte UTF-8, spans without attributes, blocks
//!   without spans.  The header's wire size is what walking the decoded
//!   parameters gives.
//! * **No trust in bytes.**  `ParamBlock::from_bytes` of a truncated block
//!   is `None`; of a block with one bit flipped it is `None` or a block that
//!   reads back and re-encodes to itself — never a panic, never a slice out
//!   of bounds.
//! * **Topology keys.**  Two sub-traces get the same topology id from
//!   `TopoPatternLibrary::observe_key` exactly when their owned
//!   `TopoPattern`s are equal, and the ids are the ones the owned `observe`
//!   assigns: on the span shapes of `subtrace_view_properties.rs` (missing,
//!   remote and self parents, the zero span id, few patterns shared by many
//!   spans).
//!
//! Case counts honour `MINT_SCALE`, as the equivalence suites' sizes do.

use mint_core::{
    MintConfig, PackedVars, ParamBlock, ParamRef, ParamValue, ParsedSpan, SpanParams, TopoPattern,
    TopoPatternLibrary, TraceParams, TraceParser,
};
use proptest::prelude::*;
use std::collections::HashMap;
use trace_model::{AttrValue, PatternId, SpanId, TraceId, WireSize};

fn cases(base: u32) -> u32 {
    let scale = std::env::var("MINT_SCALE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|v| *v > 0.0)
        .unwrap_or(1.0);
    (f64::from(base) * scale) as u32
}

const OFFSETS: [f64; 14] = [
    0.0,
    -0.0,
    1.0,
    127.0,
    128.0,
    0.125,
    -3.0,
    9_007_199_254_740_992.0,
    9_223_372_036_854_775_808.0,
    1e300,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
    f64::MIN_POSITIVE,
];

const BUCKETS: [i64; 9] = [0, 1, -1, 63, 64, -64, -65, i64::MAX, i64::MIN];

fn slot(choice: u64) -> String {
    match choice % 12 {
        0 => String::new(),
        1 => "x".to_owned(),
        2 => "0".to_owned(),
        3 => "007".to_owned(),
        4 => "18446744073709551616000".to_owned(),
        5 => "cart : user - 77".to_owned(),
        6 => "größe → 価格\u{3000}円 \u{1f980}".to_owned(),
        // Lengths around the one-byte length's limit.
        7 => "a".repeat(126),
        8 => "b".repeat(127),
        9 => "ü".repeat(64),
        10 => "9".repeat(300),
        _ => format!("v{choice}"),
    }
}

/// One parameter from a `(kind, a, b)` draw; string parameters append their
/// slots to `vars`.
fn param(kind: u8, a: u64, b: u64, vars: &mut PackedVars) -> ParamValue {
    let offset = OFFSETS[a as usize % OFFSETS.len()];
    let bucket = BUCKETS[b as usize % BUCKETS.len()];
    match kind % 10 {
        0..=2 => {
            let first = vars.len() as u32;
            let count = (a % 4) as u32;
            for index in 0..u64::from(count) {
                vars.push_slot(&[slot(b.wrapping_add(index * 5))]);
            }
            ParamValue::StrVars { first, count }
        }
        3 | 4 => ParamValue::Num { bucket, offset },
        5 => ParamValue::Bool(a.is_multiple_of(2)),
        6 => ParamValue::Raw(AttrValue::str(slot(a))),
        7 => ParamValue::Raw(AttrValue::Int(bucket)),
        8 => ParamValue::Raw(AttrValue::Float(offset)),
        _ => ParamValue::Raw(AttrValue::Bool(b.is_multiple_of(2))),
    }
}

type SpanDraw = ((u64, u64, u64), (u64, u64), Vec<(u8, u64, u64)>);

fn span(((span_id, parent_id, start), (a, b), params): &SpanDraw) -> SpanParams {
    let mut vars = PackedVars::default();
    let attr_params = params
        .iter()
        .map(|&(kind, a, b)| param(kind, a, b, &mut vars))
        .collect();
    SpanParams {
        span_id: SpanId::from_u64(*span_id),
        parent_id: SpanId::from_u64(*parent_id),
        pattern: PatternId::from_u128(u128::from(*a as u32)),
        start_time_us: *start,
        duration_bucket: BUCKETS[*b as usize % BUCKETS.len()],
        duration_offset: OFFSETS[*a as usize % OFFSETS.len()],
        status_error: b % 2 == 1,
        attr_params,
        vars,
    }
}

fn block(trace_id: u128, spans: &[SpanDraw]) -> TraceParams {
    let mut block = TraceParams::new(TraceId::from_u128(trace_id));
    block.spans.extend(spans.iter().map(span));
    block
}

/// Equality that tells NaN from NaN and −0.0 from 0.0.
fn bits(params: &TraceParams) -> String {
    let mut out = format!("{:?}", params);
    for span in &params.spans {
        out += &format!(" {:016x}", span.duration_offset.to_bits());
        for param in &span.attr_params {
            match param {
                ParamValue::Num { offset: float, .. }
                | ParamValue::Raw(AttrValue::Float(float)) => {
                    out += &format!(" {:016x}", float.to_bits())
                }
                _ => {}
            }
        }
    }
    out
}

fn span_draws() -> impl Strategy<Value = Vec<SpanDraw>> {
    let ids = (any::<u64>(), any::<u64>(), any::<u64>());
    let params = proptest::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 0..9);
    proptest::collection::vec((ids, (any::<u64>(), any::<u64>()), params), 0..6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(512)))]

    #[test]
    fn encoding_then_reading_is_the_identity(trace_id in any::<u128>(), spans in span_draws()) {
        let params = block(trace_id, &spans);
        let encoded = ParamBlock::from(&params);

        // The header.
        prop_assert_eq!(encoded.trace_id(), params.trace_id);
        prop_assert_eq!(encoded.len(), params.len());
        prop_assert_eq!(encoded.is_empty(), params.is_empty());
        prop_assert_eq!(encoded.wire_size(), params.wire_size());

        // Decoded.
        prop_assert_eq!(bits(&encoded.to_params()), bits(&params));

        // In place.
        prop_assert_eq!(encoded.spans().count(), params.len());
        for (record, span) in encoded.spans().zip(&params.spans) {
            prop_assert_eq!(record.span_id(), span.span_id);
            prop_assert_eq!(record.parent_id(), span.parent_id);
            prop_assert_eq!(record.pattern(), span.pattern);
            prop_assert_eq!(record.start_time_us(), span.start_time_us);
            prop_assert_eq!(record.duration_bucket(), span.duration_bucket);
            prop_assert_eq!(record.duration_offset().to_bits(), span.duration_offset.to_bits());
            prop_assert_eq!(record.status_error(), span.status_error);
            prop_assert_eq!(record.params().count(), span.attr_params.len());
            for (read, param) in record.params().zip(&span.attr_params) {
                match (read, param) {
                    (ParamRef::StrVars(slots), ParamValue::StrVars { first, count }) => {
                        let expected: Vec<&str> = span.str_vars(*first, *count).collect();
                        prop_assert_eq!(slots.collect::<Vec<_>>(), expected);
                    }
                    (ParamRef::Num { bucket, offset }, ParamValue::Num { bucket: b, offset: o }) => {
                        prop_assert_eq!((bucket, offset.to_bits()), (*b, o.to_bits()));
                    }
                    (ParamRef::Bool(read), ParamValue::Bool(written)) => {
                        prop_assert_eq!(read, *written);
                    }
                    (ParamRef::Raw(read), ParamValue::Raw(written)) => {
                        prop_assert_eq!(format!("{read:?}"), format!("{written:?}"));
                    }
                    (read, written) => panic!("{written:?} read back as {read:?}"),
                }
            }
        }

        // From its bytes.
        let reread = ParamBlock::from_bytes(encoded.as_bytes());
        prop_assert_eq!(reread.as_ref(), Some(&encoded));
    }

    #[test]
    fn damaged_bytes_never_panic(
        trace_id in any::<u128>(),
        spans in span_draws(),
        damage in proptest::collection::vec((any::<u64>(), 0u8..8), 1..24),
    ) {
        let params = block(trace_id, &spans);
        let encoded = ParamBlock::from(&params);
        let bytes = encoded.as_bytes();
        for &(at, bit) in &damage {
            // Cut short anywhere: not a block.
            let cut = at as usize % bytes.len();
            prop_assert_eq!(ParamBlock::from_bytes(&bytes[..cut]), None, "cut at {}", cut);
            // One bit flipped: not a block, or another block that holds
            // together — reads back, and re-encodes to what was read.
            let mut flipped = bytes.to_vec();
            flipped[cut] ^= 1 << bit;
            if let Some(other) = ParamBlock::from_bytes(&flipped) {
                let read = other.to_params();
                prop_assert_eq!(other.wire_size(), read.wire_size());
                prop_assert_eq!(bits(&ParamBlock::from(&read).to_params()), bits(&read));
            }
        }
    }
}

#[test]
fn a_slot_of_ten_thousand_tokens_round_trips() {
    let tokens: Vec<String> = (0..10_000).map(|i| format!("tok{i}")).collect();
    let mut vars = PackedVars::default();
    vars.push_slot(&tokens);
    vars.push_slot(&["after"]);
    let mut params = TraceParams::new(TraceId::from_u128(9));
    params.spans.push(SpanParams {
        span_id: SpanId::from_u64(1),
        parent_id: SpanId::INVALID,
        pattern: PatternId::from_u128(1),
        start_time_us: 0,
        duration_bucket: 0,
        duration_offset: 0.0,
        status_error: false,
        attr_params: vec![ParamValue::StrVars { first: 0, count: 2 }],
        vars,
    });
    let encoded = ParamBlock::from(&params);
    assert_eq!(encoded.to_params(), params);
    assert_eq!(encoded.wire_size(), params.wire_size());
    let Some(ParamRef::StrVars(mut slots)) = encoded.spans().next().and_then(|r| r.params().next())
    else {
        panic!("one string parameter");
    };
    assert_eq!(slots.next().map(str::len), Some(tokens.join(" ").len()));
    assert_eq!(slots.next(), Some("after"));
    assert_eq!(slots.next(), None);
}

/// A sub-trace's spans as `subtrace_view_properties.rs` draws them: the
/// parent of span `i` is none, a span of the sub-trace, an id it does not
/// contain, or the span itself; patterns are few and shared.
fn parsed(specs: &[(usize, usize)], first_id: u64) -> Vec<ParsedSpan> {
    let n = specs.len() as u64;
    specs
        .iter()
        .zip(first_id..)
        .map(|(&(pattern, parent), id)| ParsedSpan {
            span_id: SpanId::from_u64(id),
            parent_id: SpanId::from_u64(match parent as u64 % (n + 2) {
                0 => 0,
                missing if missing > n => 10_000,
                nth => first_id + nth - 1,
            }),
            pattern: PatternId::from_u128(pattern as u128 % 4 + 1),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(256)))]

    #[test]
    fn sub_traces_share_a_topology_id_iff_their_patterns_are_equal(
        sub_traces in proptest::collection::vec(
            (proptest::collection::vec((0usize..4, 0usize..64), 0..7), 0u64..2),
            2..24,
        ),
    ) {
        let config = MintConfig::default();
        let mut parser = TraceParser::new();
        let mut by_key = TopoPatternLibrary::new(&config);
        let mut by_pattern = TopoPatternLibrary::new(&config);
        let mut seen: HashMap<TopoPattern, PatternId> = HashMap::new();
        for (index, (specs, first_id)) in sub_traces.iter().enumerate() {
            let trace_id = TraceId::from_u128(index as u128 + 1);
            let spans = parsed(specs, *first_id);
            let key = parser.encode_parsed(&spans);
            let pattern = key.to_pattern();
            prop_assert_eq!(&key, &pattern);
            let outcome = by_key.observe_key(&key, trace_id);
            // Same id as an equal pattern before it, a new id otherwise…
            let next = PatternId::from_u128(seen.len() as u128 + 1);
            let expected = *seen.entry(pattern.clone()).or_insert(next);
            prop_assert_eq!(outcome.topo_id, expected);
            prop_assert_eq!(outcome.is_new_pattern, expected == next);
            prop_assert_eq!(by_key.get(outcome.topo_id), Some(&pattern));
            // …which is what the owned adapter decides, count included.
            let owned = by_pattern.observe(pattern, trace_id);
            prop_assert_eq!(outcome, owned);
        }
        prop_assert_eq!(by_key.len(), seen.len());
        prop_assert_eq!(by_key.total_matches(), sub_traces.len() as u64);
    }
}
