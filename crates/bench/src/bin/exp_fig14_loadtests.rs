//! Figure 14: end-to-end tracing overhead during 14 load tests on a
//! production-like microservice system, comparing No-Tracing, OT-Head (10%)
//! and Mint (10% head-compatible sampling plus its biased samplers).
//!
//! The paper reports four panels: ingress bandwidth (identical across
//! replicas, it is the business traffic), egress bandwidth (business +
//! tracing), CPU usage and memory usage.  Here:
//!
//! * ingress/business traffic is modelled from the request volume;
//! * tracing egress is the measured network cost of each framework;
//! * CPU is the measured wall-clock time each framework spends processing the
//!   batch (No-Tracing is zero by construction);
//! * memory is the resident footprint of the framework's agent-side state
//!   (the pages its Params Buffers hold — `ParamsBuffer::resident_bytes`,
//!   not the wire-size figure their budget is kept in — and the pattern
//!   libraries) plus, for OT-Head, its export queue.

use baselines::{MintFramework, OtHead, TracingFramework};
use bench::{fmt_bytes, print_table, ExpConfig};
use mint_core::MintConfig;
use std::time::Instant;
use workload::{layered_application, load_test_plan, GeneratorConfig, TraceGenerator};

/// Approximate business payload per request (independent of tracing).
const BUSINESS_BYTES_PER_REQUEST: u64 = 2_300;

fn main() {
    let cfg = ExpConfig::from_env();
    let plan = load_test_plan();
    // The production system in the paper serves 8 APIs backed by web, MongoDB
    // and MySQL tiers; the layered application mirrors that shape.
    let app = layered_application("prod", 8, 6, 26);

    let mut rows = Vec::new();
    for (index, test) in plan.iter().enumerate() {
        let requests = cfg.scaled((test.total_requests() / 10) as usize);
        let generator_config = GeneratorConfig::default()
            .with_seed(cfg.seed + index as u64)
            .with_abnormal_rate(0.02)
            .with_mean_interarrival_us(1_000_000 / test.qps.max(1));
        let mut generator =
            TraceGenerator::new(app.with_api_limit(test.api_count), generator_config);
        let traces = generator.generate(requests);

        let minutes = requests as f64 / (test.qps as f64 * 60.0);
        let ingress_mb_per_min =
            (requests as u64 * BUSINESS_BYTES_PER_REQUEST) as f64 / 1e6 / minutes.max(1e-9);

        // OT-Head at 10%, as in the paper's comparison.
        let mut ot = OtHead::new(0.10);
        let ot_start = Instant::now();
        let ot_report = ot.process(&traces);
        let ot_cpu = ot_start.elapsed();

        let mint_config = MintConfig {
            head_sampling_rate: 0.10,
            ..MintConfig::default()
        };
        let mut mint = MintFramework::new(mint_config);
        let mint_start = Instant::now();
        let mint_report = mint.process(&traces);
        let mint_cpu = mint_start.elapsed();

        let egress = |tracing_bytes: u64| {
            (requests as u64 * BUSINESS_BYTES_PER_REQUEST + tracing_bytes) as f64
                / 1e6
                / minutes.max(1e-9)
        };
        let mint_memory: usize = mint
            .deployment()
            .agents()
            .map(|a| a.params_buffer().resident_bytes() + a.library_upload_bytes())
            .sum();
        let ot_memory = (ot_report.network_bytes / 50).max(1); // export queue snapshot

        rows.push(vec![
            test.name.to_owned(),
            format!("{} QPS, {} APIs", test.qps, test.api_count),
            format!("{ingress_mb_per_min:.1}"),
            format!(
                "{:.1} / {:.1} / {:.1}",
                egress(0),
                egress(ot_report.network_bytes),
                egress(mint_report.network_bytes)
            ),
            format!(
                "0.0 / {:.2} / {:.2}",
                ot_cpu.as_secs_f64(),
                mint_cpu.as_secs_f64()
            ),
            format!(
                "0 / {} / {}",
                fmt_bytes(ot_memory),
                fmt_bytes(mint_memory as u64)
            ),
        ]);
    }

    print_table(
        "Fig. 14 — load tests (No-Tracing / OT-Head / Mint)",
        &[
            "test",
            "load",
            "ingress (MB/min)",
            "egress (MB/min)",
            "CPU (s)",
            "tracing memory",
        ],
        &rows,
    );
    println!(
        "\nShape to check: ingress is identical across replicas; Mint's egress increment over \
         No-Tracing is a few percent while OT-Head adds ~20%; Mint's CPU cost stays the same \
         order of magnitude as OT-Head; memory stays bounded by the params buffers (4 MiB of \
         wire size each, a little more than that resident) plus the pattern libraries."
    );
}
