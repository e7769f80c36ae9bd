//! Fidelity of the exact answer: what a sampled trace's attributes look like
//! after pattern + parameters → `query`.
//!
//! The paper promises that sampled traces reconstruct losslessly.  This
//! reproduction keeps that promise up to a **normal form**, written down
//! here and held by these tests:
//!
//! * the answer has the input's attribute keys, in the input's order;
//! * a string value comes back with the same *tokens* (`tokenize`): runs of
//!   whitespace between tokens collapse to one space, and whitespace is
//!   inserted around separator punctuation, nothing else changes;
//! * a numeric value (`Int` or `Float`) comes back as `Float` of the same
//!   number, to the rounding of `lower_bound(bucket) + offset` (1e-9
//!   relative);
//! * a boolean comes back as it was, and so does a value whose type differs
//!   from what its key held before (type drift is kept raw).
//!
//! The parameter representation (`SpanParams`, `PackedVars`) is free to
//! change under that contract; the last test pins the bytes it is charged
//! (`TraceParams::wire_size`, summed by the collector) to what the unpacked
//! representation before it was charged.

use mint_core::{tokenize, MintConfig, MintDeployment, QueryResult, SamplingMode};
use trace_model::{AttrValue, Span, SpanId, Trace, TraceId, TraceSet};
use workload::{layered_application, online_boutique, GeneratorConfig, TraceGenerator};

/// Whether `answer` is `input` under the normal form above.
fn same_value(input: &AttrValue, answer: &AttrValue) -> bool {
    match (input, answer) {
        (AttrValue::Str(a), AttrValue::Str(b)) => tokenize(a) == tokenize(b),
        (AttrValue::Int(_) | AttrValue::Float(_), AttrValue::Float(b)) => {
            let a = input.as_f64().expect("numeric");
            a == *b || (a - b).abs() <= 1e-9 * a.abs().max(1.0)
        }
        _ => input == answer,
    }
}

/// Asserts that every exact answer of `mint` carries its input's attributes,
/// and returns how many traces answered exactly.
fn assert_exact_answers_are_faithful(mint: &MintDeployment, traces: &TraceSet) -> usize {
    let mut exact = 0;
    for trace in traces {
        let QueryResult::Exact(answer) = mint.backend().query(trace.trace_id()) else {
            continue;
        };
        exact += 1;
        assert_eq!(answer.len(), trace.len());
        for span in trace.spans() {
            let got = answer.span(span.span_id()).expect("span id survives");
            let keys = |s: &Span| s.attributes().keys().map(str::to_owned).collect::<Vec<_>>();
            assert_eq!(keys(got), keys(span), "keys of span {}", span.span_id());
            for ((key, input), output) in span.attributes().iter().zip(got.attributes().values()) {
                assert!(
                    same_value(input, output),
                    "trace {} span {} key {key}: {input:?} came back as {output:?}",
                    trace.trace_id(),
                    span.span_id()
                );
            }
        }
    }
    exact
}

fn boutique(n: usize) -> TraceSet {
    let config = GeneratorConfig::default()
        .with_seed(42)
        .with_abnormal_rate(0.03);
    TraceGenerator::new(online_boutique(), config).generate(n)
}

fn layered(n: usize) -> TraceSet {
    let config = GeneratorConfig::default()
        .with_seed(7)
        .with_abnormal_rate(0.02);
    TraceGenerator::new(layered_application("pin", 6, 5, 20), config).generate(n)
}

#[test]
fn sampled_traces_of_the_generated_corpora_round_trip() {
    for (traces, mode) in [
        (boutique(1_200), SamplingMode::MintBiased),
        (layered(800), SamplingMode::MintBiased),
        (boutique(300), SamplingMode::All),
        (layered(300), SamplingMode::All),
    ] {
        let mut mint = MintDeployment::new(MintConfig::default().with_sampling_mode(mode));
        let report = mint.process(&traces);
        let exact = assert_exact_answers_are_faithful(&mint, &traces);
        assert_eq!(exact as u64, report.sampled_traces);
        assert!(exact > 0, "nothing was sampled, nothing was checked");
    }
}

/// One single-span trace per value, all under one key of one operation, so
/// the values meet in one string parser and generalise its templates.
fn traces_of(key: &str, values: &[AttrValue]) -> TraceSet {
    let mut traces = TraceSet::new();
    for (i, value) in values.iter().enumerate() {
        let tid = TraceId::from_u128(0x900 + i as u128);
        let span = Span::builder(tid, SpanId::from_u64(1))
            .service("svc")
            .name("op")
            .duration_us(100 + i as u64)
            .attr(key, value.clone())
            .attr("fixed", AttrValue::str("always the same"))
            .build();
        traces.push(Trace::from_spans(tid, vec![span]).expect("one span"));
    }
    traces
}

#[test]
fn hostile_values_round_trip() {
    let long = |seed: usize| -> String {
        // 10k tokens with a fixed skeleton; the digit-bearing ones vary.
        (0..10_000)
            .map(|i| match i % 50 {
                0 => format!("id{}", seed * 7 + i),
                _ => format!("w{}", i % 13).replace(|c: char| c.is_ascii_digit(), "x"),
            })
            .collect::<Vec<_>>()
            .join(" ")
    };
    let strings = [
        // A literal `<*>` is a token like any other, constant or variable.
        "get <*> now",
        "get <*> now",
        "get cart now",
        "get <*> <*>",
        "<*>",
        // A slot that matches nothing (`get user now` vs `get user alice now`).
        "get user alice now",
        "get user bob now",
        "get user now",
        // All-digit values and fragments, leading zeros included.
        "0",
        "007",
        "18446744073709551616000",
        "id = 0042",
        "id = 7",
        // Whitespace the tokenizer drops, and the empty value.
        "  padded\t\tvalue \n",
        "",
        "   ",
        // Non-ASCII text, separators and whitespace (U+3000, U+00A0).
        "größe=12 naïve→café",
        "größe=13 naïve→thé",
        "価格\u{3000}は\u{a0}100円",
        "価格\u{3000}は\u{a0}250円",
        "a,b;c|d",
        // The anchor-in-slot case the DP tier exists for.
        "run job end end",
        "run job 1 end",
        "run job 2 end",
    ];
    let mut values: Vec<AttrValue> = strings.iter().map(|s| AttrValue::str(*s)).collect();
    values.extend([
        AttrValue::str(long(1)),
        AttrValue::str(long(2)),
        AttrValue::str(long(1)),
    ]);
    // Type drift under a key that holds strings: kept raw.
    values.extend([
        AttrValue::Int(5),
        AttrValue::Bool(true),
        AttrValue::Float(-0.5),
    ]);
    let strings_first = traces_of("value", &values);

    // A numeric key that drifts to text and back, with awkward numbers.
    let numbers = [
        AttrValue::Int(57),
        AttrValue::Int(0),
        AttrValue::Int(-3),
        AttrValue::Int(i64::MAX),
        AttrValue::Float(0.1 + 0.2),
        AttrValue::Float(1e300),
        AttrValue::Float(f64::INFINITY),
        AttrValue::str("n/a"),
        AttrValue::Bool(false),
        AttrValue::Int(58),
    ];
    let numbers_first = traces_of("value", &numbers);

    for traces in [strings_first, numbers_first] {
        for warm_up in [true, false] {
            let config = MintConfig::default().with_sampling_mode(SamplingMode::All);
            let mut mint = MintDeployment::new(config);
            if !warm_up {
                // Everything learned online, nothing clustered in advance.
                mint.warm_up(&TraceSet::new());
            }
            mint.process(&traces);
            let exact = assert_exact_answers_are_faithful(&mint, &traces);
            assert_eq!(exact, traces.len());
        }
    }
}

/// `network.params_bytes` of a deployment that samples everything is the sum
/// of `TraceParams::wire_size` over every parameter block.  The counts are
/// those of commit 222cc6c, where a block was a `Vec<(String, ParamValue)>`
/// of `Vec<String>` slots: the packed representation is charged the same.
#[test]
fn parameter_blocks_are_charged_the_bytes_the_parent_commit_charged() {
    const PARENT: [(u64, u64); 2] = [(208_366, 2_802), (768_356, 2_500)];
    for (traces, (bytes, blocks)) in [boutique(600), layered(500)].iter().zip(PARENT) {
        let config = MintConfig::default().with_sampling_mode(SamplingMode::All);
        let mut mint = MintDeployment::new(config);
        let report = mint.process(traces);
        assert_eq!(report.network.params_bytes, bytes);
        assert_eq!(report.storage.params_bytes, bytes);
        assert_eq!(mint.collector().uploaded_param_blocks(), blocks);
    }
}
