//! Chaos fault-scenario suite: timed fault windows injected live into a
//! streaming source, verified end-to-end through sampling and RCA.
//!
//! The paper's evaluation (Tables 2/3) injects Chaosblade faults into
//! OnlineBoutique and TrainTicket and scores root-cause localization over
//! the retained traces.  This experiment reproduces that *as a streaming
//! scenario*: each run opens a timed fault window (one of the five fault
//! types, one target service) in the middle of a paced trace stream, pushes
//! the stream through the concurrent epoch-based `StreamingDeployment`, and
//! then measures — never assumes — two claims:
//!
//! 1. **Capture** — Mint's biased samplers retain the fault-affected traces
//!    exactly.  The capture rate (fraction of ground-truth affected traces
//!    answerable as `Exact`) is compared against a 5% uniform head-sampling
//!    baseline on the *identical* chaos stream, and the binary asserts
//!    biased ≥ head for every latency-fault scenario.
//! 2. **RCA** — the trace views Mint can reconstruct for *every* trace
//!    (exact where sampled, approximate elsewhere) are enough for MicroRank
//!    and TraceRCA to localize the injected root cause; per-scenario top-1 /
//!    top-3 hits are reported.
//!
//! The full matrix is 5 fault types × 2 topologies × 2 load levels; results
//! are persisted as `BENCH_chaos.json` (override the path with
//! `MINT_CHAOS_OUT`) so the accuracy trajectory is tracked in-repo.
//!
//! ```bash
//! cargo run --release --bin exp_chaos_rca
//! MINT_SMOKE=1 cargo run --release --bin exp_chaos_rca   # CI smoke
//! ```

use bench::{fmt_pct, print_table, ExpConfig};
use mint::core::{MintConfig, SamplingMode, StreamingDeployment};
use rca::{capture_rate, score_streamed_case, MicroRank, RcaMethod, TraceRca};
use std::collections::HashSet;
use trace_model::{TraceId, TraceView};
use workload::{
    default_fault_targets, online_boutique, train_ticket, Application, ChaosScenario, ChaosSource,
    FaultType, FaultWindow, GeneratorConfig, StreamingSource,
};

/// Background load level of a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Load {
    /// Sparse traffic: long inter-arrival gaps.
    Quiet,
    /// Dense traffic: 10× the arrival rate and twice the requests.
    Heavy,
}

impl Load {
    fn label(self) -> &'static str {
        match self {
            Load::Quiet => "quiet",
            Load::Heavy => "heavy",
        }
    }

    fn mean_interarrival_us(self) -> u64 {
        match self {
            Load::Quiet => 20_000,
            Load::Heavy => 2_000,
        }
    }

    fn requests(self, base: usize) -> usize {
        match self {
            Load::Quiet => base,
            Load::Heavy => base * 2,
        }
    }
}

/// Everything measured for one cell of the scenario matrix.
struct ScenarioResult {
    name: String,
    app: &'static str,
    fault: FaultType,
    target: String,
    load: Load,
    requests: usize,
    window_start_us: u64,
    window_duration_us: u64,
    eligible: usize,
    affected: usize,
    mint_capture: f64,
    head_capture: f64,
    epochs_observed: usize,
    rca: Vec<(String, bool, bool)>, // (method, top1, top3)
}

/// One full scenario: stream the chaos-laden source through a deployment
/// with `mode` sampling and return the set of affected ids retained exactly,
/// plus (for the Mint run) everything needed downstream.
fn run_deployment(
    app: &Application,
    scenario: &ChaosScenario,
    generator: GeneratorConfig,
    requests: usize,
    mode: SamplingMode,
    seen_ids: &mut Vec<TraceId>,
    epochs_observed: &mut usize,
) -> (StreamingDeployment, Vec<TraceId>, usize, usize) {
    let config = MintConfig::default()
        .with_sampling_mode(mode)
        .with_shard_count(4)
        .with_epoch_trace_count(64);
    let mut deployment = StreamingDeployment::new(config);
    let mut source = ChaosSource::new(
        StreamingSource::paced(app.clone(), generator, requests),
        scenario,
    );
    seen_ids.clear();
    let mut epochs = 0usize;
    {
        let inspecting = (&mut source).inspect(|trace| seen_ids.push(trace.trace_id()));
        deployment.process_stream_observed(inspecting, |_| epochs += 1);
    }
    *epochs_observed = epochs;
    let truth = &source.ground_truth()[0];
    (
        deployment,
        truth.affected_trace_ids.clone(),
        truth.eligible_traces,
        truth.affected_trace_ids.len(),
    )
}

/// The ids of `affected` that `deployment` can answer exactly.
fn captured_exactly(deployment: &StreamingDeployment, affected: &[TraceId]) -> HashSet<TraceId> {
    affected
        .iter()
        .copied()
        .filter(|id| deployment.backend().query(*id).is_exact())
        .collect()
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders a float for JSON at full round-trip precision; non-finite
/// values (which JSON cannot represent) become `null`.
fn json_f64(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

/// Serializes the results as the `BENCH_chaos.json` document (hand-rolled:
/// the workspace's vendored `serde` is derive-markers only).
fn render_json(cfg: &ExpConfig, smoke: bool, results: &[ScenarioResult]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"mint-chaos-v1\",\n");
    out.push_str(&format!("  \"scale\": {},\n", json_f64(cfg.scale)));
    out.push_str(&format!("  \"seed\": {},\n", cfg.seed));
    out.push_str(&format!("  \"smoke\": {smoke},\n"));
    out.push_str("  \"scenarios\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"name\": \"{}\",\n", json_escape(&r.name)));
        out.push_str(&format!("      \"app\": \"{}\",\n", json_escape(r.app)));
        out.push_str(&format!("      \"fault_type\": \"{}\",\n", r.fault.label()));
        out.push_str(&format!(
            "      \"target_service\": \"{}\",\n",
            json_escape(&r.target)
        ));
        out.push_str(&format!("      \"load\": \"{}\",\n", r.load.label()));
        out.push_str(&format!("      \"requests\": {},\n", r.requests));
        out.push_str(&format!(
            "      \"window_start_us\": {},\n",
            r.window_start_us
        ));
        out.push_str(&format!(
            "      \"window_duration_us\": {},\n",
            r.window_duration_us
        ));
        out.push_str(&format!("      \"eligible_traces\": {},\n", r.eligible));
        out.push_str(&format!("      \"affected_traces\": {},\n", r.affected));
        out.push_str(&format!(
            "      \"mint_capture_rate\": {},\n",
            json_f64(r.mint_capture)
        ));
        out.push_str(&format!(
            "      \"head_capture_rate\": {},\n",
            json_f64(r.head_capture)
        ));
        out.push_str(&format!("      \"epochs\": {},\n", r.epochs_observed));
        out.push_str("      \"rca\": {");
        let cells: Vec<String> = r
            .rca
            .iter()
            .map(|(method, top1, top3)| {
                format!(
                    "\"{}\": {{\"top1\": {top1}, \"top3\": {top3}}}",
                    json_escape(method)
                )
            })
            .collect();
        out.push_str(&cells.join(", "));
        out.push_str("}\n");
        out.push_str(if i + 1 == results.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

fn main() {
    let cfg = ExpConfig::from_env();
    let smoke = std::env::var("MINT_SMOKE").is_ok();
    let base_requests = cfg.scaled(if smoke { 240 } else { 800 });
    let methods: Vec<Box<dyn RcaMethod>> = vec![Box::new(MicroRank), Box::new(TraceRca::default())];

    let apps: [(&'static str, Application); 2] = [
        ("online-boutique", online_boutique()),
        ("train-ticket", train_ticket()),
    ];

    let mut results: Vec<ScenarioResult> = Vec::new();
    for (app_name, app) in &apps {
        let targets = default_fault_targets(app);
        assert!(!targets.is_empty(), "{app_name} has no fault targets");
        for (fault_index, fault) in FaultType::ALL.iter().enumerate() {
            let target = &targets[fault_index % targets.len()];
            for load in [Load::Quiet, Load::Heavy] {
                let requests = load.requests(base_requests);
                let generator = GeneratorConfig::default()
                    .with_seed(cfg.seed ^ (fault_index as u64 + 1))
                    .with_abnormal_rate(0.01)
                    .with_mean_interarrival_us(load.mean_interarrival_us());

                // The window covers the middle of the stream's expected
                // timeline: [45%, 70%) of requests × mean inter-arrival,
                // well past the first-epoch warm-up.
                let expected_span = requests as u64 * load.mean_interarrival_us();
                let window_start = generator.start_time_us + (expected_span * 45) / 100;
                let window_duration = expected_span / 4;
                let name = format!("{app_name}/{}/{}", fault.label(), load.label());
                let scenario = ChaosScenario::new(name.clone(), cfg.seed ^ 0xC4A0).window(
                    FaultWindow::new(*fault, target, window_start, window_duration),
                );

                // Mint run: biased sampling, live epoch observation.
                let mut seen_ids = Vec::new();
                let mut epochs_observed = 0;
                let (mint, affected, eligible, affected_count) = run_deployment(
                    app,
                    &scenario,
                    generator.clone(),
                    requests,
                    SamplingMode::MintBiased,
                    &mut seen_ids,
                    &mut epochs_observed,
                );
                assert_eq!(seen_ids.len(), requests, "{name}: stream was truncated");
                assert!(
                    affected_count > 0,
                    "{name}: fault window affected no traces — widen the window"
                );
                assert!(epochs_observed > 0, "{name}: no epochs observed");
                let mint_capture = capture_rate(&affected, &captured_exactly(&mint, &affected));

                // Head-sampling baseline on the identical chaos stream.
                let mut head_seen = Vec::new();
                let mut head_epochs = 0;
                let (head, head_affected, _, _) = run_deployment(
                    app,
                    &scenario,
                    generator.clone(),
                    requests,
                    SamplingMode::Head,
                    &mut head_seen,
                    &mut head_epochs,
                );
                assert_eq!(
                    affected, head_affected,
                    "{name}: chaos stream not reproducible across runs"
                );
                let head_capture =
                    capture_rate(&head_affected, &captured_exactly(&head, &head_affected));

                if fault.is_latency_fault() {
                    assert!(
                        mint_capture >= head_capture,
                        "{name}: biased capture {mint_capture:.3} fell below the \
                         head-sampling baseline {head_capture:.3}"
                    );
                }

                // RCA over every trace Mint can reconstruct a view for.
                let views: Vec<TraceView> = seen_ids
                    .iter()
                    .filter_map(|id| mint.backend().trace_view(*id))
                    .collect();
                let rca: Vec<(String, bool, bool)> = methods
                    .iter()
                    .map(|method| {
                        let case = score_streamed_case(&views, target, method.as_ref());
                        (method.name().to_owned(), case.hit_at(1), case.hit_at(3))
                    })
                    .collect();

                results.push(ScenarioResult {
                    name,
                    app: app_name,
                    fault: *fault,
                    target: target.clone(),
                    load,
                    requests,
                    window_start_us: window_start,
                    window_duration_us: window_duration,
                    eligible,
                    affected: affected_count,
                    mint_capture,
                    head_capture,
                    epochs_observed,
                    rca,
                });
            }
        }
    }

    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            let mut row = vec![
                r.name.clone(),
                r.target.clone(),
                format!("{}", r.requests),
                format!("{}/{}", r.affected, r.eligible),
                fmt_pct(r.mint_capture),
                fmt_pct(r.head_capture),
            ];
            for (_, top1, top3) in &r.rca {
                row.push(format!(
                    "{}/{}",
                    if *top1 { "hit" } else { "-" },
                    if *top3 { "hit" } else { "-" }
                ));
            }
            row
        })
        .collect();
    print_table(
        "Chaos scenarios: capture rate and RCA localization (Mint biased vs 5% head sampling; \
         biased >= head asserted on latency faults)",
        &[
            "scenario",
            "target",
            "traces",
            "affected/eligible",
            "mint capture",
            "head capture",
            "MicroRank a@1/a@3",
            "TraceRCA a@1/a@3",
        ],
        &rows,
    );

    let latency_scenarios = results
        .iter()
        .filter(|r| r.fault.is_latency_fault())
        .count();
    let mean = |f: &dyn Fn(&ScenarioResult) -> f64| {
        results.iter().map(f).sum::<f64>() / results.len().max(1) as f64
    };
    let mean_mint = mean(&|r: &ScenarioResult| r.mint_capture);
    let mean_head = mean(&|r: &ScenarioResult| r.head_capture);
    let top1 = |method: &str| {
        results
            .iter()
            .flat_map(|r| r.rca.iter())
            .filter(|(m, top1, _)| m == method && *top1)
            .count()
    };
    println!(
        "\n{} scenarios ({} latency-fault scenarios asserted); mean capture: mint {} vs \
         head {}; top-1 hits: MicroRank {}/{}, TraceRCA {}/{}",
        results.len(),
        latency_scenarios,
        fmt_pct(mean_mint),
        fmt_pct(mean_head),
        top1("MicroRank"),
        results.len(),
        top1("TraceRCA"),
        results.len(),
    );

    let out_path =
        std::env::var("MINT_CHAOS_OUT").unwrap_or_else(|_| "BENCH_chaos.json".to_owned());
    std::fs::write(&out_path, render_json(&cfg, smoke, &results))
        .unwrap_or_else(|e| panic!("failed to write {out_path}: {e}"));
    println!("wrote {out_path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario(mint_capture: f64, head_capture: f64) -> ScenarioResult {
        ScenarioResult {
            name: "s".to_owned(),
            app: "app",
            fault: FaultType::NetworkDelay,
            target: "svc".to_owned(),
            load: Load::Quiet,
            requests: 1,
            window_start_us: 0,
            window_duration_us: 1,
            eligible: 0,
            affected: 0,
            mint_capture,
            head_capture,
            epochs_observed: 1,
            rca: Vec::new(),
        }
    }

    #[test]
    fn non_finite_values_are_written_as_null() {
        for value in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(json_f64(value), "null");
        }
        let cfg = ExpConfig {
            scale: f64::INFINITY,
            seed: 1,
        };
        let results = [
            scenario(f64::NAN, f64::INFINITY),
            scenario(f64::NEG_INFINITY, 0.5),
        ];
        let json = render_json(&cfg, true, &results);
        assert!(json.contains("\"scale\": null,"), "{json}");
        assert_eq!(json.matches("_capture_rate\": null,").count(), 3, "{json}");
        assert!(!json.contains("NaN") && !json.contains("inf"), "{json}");
    }

    #[test]
    fn finite_values_parse_back_bit_exact() {
        let sum = 0.1 + 0.2;
        let written = json_f64(sum);
        assert_eq!(written, "0.30000000000000004");
        let read: f64 = written.parse().expect("a JSON number");
        assert_eq!(read.to_bits(), sum.to_bits());
        let json = render_json(
            &ExpConfig {
                scale: 1.0,
                seed: 1,
            },
            true,
            &[scenario(sum, 1.0)],
        );
        assert!(
            json.contains("\"mint_capture_rate\": 0.30000000000000004,"),
            "{json}"
        );
    }
}
