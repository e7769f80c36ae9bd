//! mintbench: one repeatable end-to-end + per-layer benchmark for the Mint
//! pipeline.  See `README.md` beside `Cargo.toml` for the protocol.

mod alloc;
mod check;
mod clock;
mod e2e;
mod layers;
mod runs;
mod stats;
mod tracer;
mod twin;
mod workloads;

use check::Tally;
use std::fmt::Write as _;
use std::io::Write as _;
use std::process::ExitCode;
use workloads::{Sizes, Workload};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The name in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// The unit in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// What the command line fixed for every workload of this invocation.
pub struct Options {
    /// Seed of every generated input.
    pub seed: u64,
    /// The time budget of one run's timed repetitions.  It sizes nothing:
    /// corpora and repetitions are counts.
    pub seconds: f64,
    /// Cores available to the process.
    pub nproc: usize,
    /// Corpus sizes of the end-to-end run.
    pub sizes: Sizes,
    /// Corpus sizes of the traced run.
    pub traced_sizes: Sizes,
    /// Whether this is `--smoke`, whose corpora are too small to time.
    pub smoke: bool,
}

/// Which way an end-to-end metric gets better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Better {
    Lower,
    Higher,
}

/// An end-to-end metric's contract: `bound` is the share of the first
/// value by which a second run may differ before the two disagree.
struct EndToEndSpec {
    name: &'static str,
    better: Better,
    bound: f64,
    /// Counts and ratios repeat bit for bit on the serial workloads.
    exact_when_serial: bool,
}

const END_TO_END: [EndToEndSpec; 10] = [
    spec("setup_s", Better::Lower, 0.25, false),
    spec("ingest_spans_per_s", Better::Higher, 0.2, false),
    spec("ingest_cpu_us_per_span", Better::Lower, 0.2, false),
    spec("allocs_per_span", Better::Lower, 0.03, true),
    spec("alloc_bytes_per_span", Better::Lower, 0.03, true),
    // Not exact: `MintDeployment::process` walks its agents in `HashMap`
    // order while storing their catalogs, which moves the peak's fourth digit.
    spec("peak_heap_mb", Better::Lower, 0.05, false),
    spec("storage_ratio", Better::Lower, 0.05, true),
    spec("network_ratio", Better::Lower, 0.05, true),
    spec("query_per_s", Better::Higher, 0.2, false),
    spec("query_p50_us", Better::Lower, 0.2, false),
];

const fn spec(
    name: &'static str,
    better: Better,
    bound: f64,
    exact_when_serial: bool,
) -> EndToEndSpec {
    EndToEndSpec {
        name,
        better,
        bound,
        exact_when_serial,
    }
}

struct Cli {
    seed: u64,
    seconds: f64,
    workloads: Vec<Workload>,
    trace: bool,
    smoke: bool,
    agree: bool,
    trace_out: Option<String>,
}

const USAGE: &str = "usage: mintbench [--seed N] [--workload NAME] [--trace 0|1] [--seconds N]
                 [--smoke] [--agree] [--trace-out FILE]
  --seed N         seed of every generated input (default 1)
  --workload NAME  prod-serial | incident-serial | drift-serial | prod-stream
                   (default: all four, one result line each)
  --trace 0|1      0: end-to-end metrics, tracing off (default); 1: per-layer metrics
  --seconds N      budget of one run's five timed repetitions (default 20); work is
                   sized by count, a run three times over budget fails
  --smoke          tiny corpora, both kinds of run on every workload, ~11 s in all
  --agree          run the end-to-end set twice and compare within the bounds
  --trace-out FILE with --trace 1: write the twin pass's spans to FILE as JSON lines";

fn parse_cli(args: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        seed: 1,
        seconds: 20.0,
        workloads: Workload::ALL.to_vec(),
        trace: false,
        smoke: false,
        agree: false,
        trace_out: None,
    };
    let mut args = args;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => {
                cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                cli.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?;
            }
            "--workload" => {
                let name = value()?;
                let workload =
                    Workload::from_name(&name).ok_or_else(|| format!("no workload {name}"))?;
                cli.workloads = vec![workload];
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--trace-out" => cli.trace_out = Some(value()?),
            "--smoke" => cli.smoke = true,
            "--agree" => cli.agree = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

/// The one-line JSON result the driver reads.
fn result_line(tally: &Tally, metrics: &[Metric]) -> String {
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0,
        tally.attempted,
        tally.failed
    );
    for (index, metric) in metrics.iter().enumerate() {
        let separator = if index == 0 { "" } else { ", " };
        // `{}` prints the shortest digits that read back as the same f64.
        let _ = write!(
            line,
            "{separator}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            metric.name, metric.value, metric.unit
        );
    }
    line.push_str("}}");
    line
}

fn print_metrics(workload: Workload, metrics: &[Metric]) {
    for metric in metrics {
        println!(
            "{:<16} {:<44} {:>16.4} {}",
            workload.name(),
            metric.name,
            metric.value,
            metric.unit
        );
    }
}

/// Prints one run's result and returns whether it was correct.
fn finish(workload: Workload, mut tally: Tally, metrics: &[Metric]) -> bool {
    if let Some(metric) = metrics.iter().find(|m| !m.value.is_finite()) {
        tally.fail(|| format!("{} is not a finite number", metric.name));
    }
    print_metrics(workload, metrics);
    if let Some(failure) = &tally.first_failure {
        eprintln!(
            "{}: {} of {} operations failed, first: {failure}",
            workload.name(),
            tally.failed,
            tally.attempted
        );
    }
    println!("{}", result_line(&tally, metrics));
    tally.failed == 0
}

fn run_traced(workload: Workload, options: &Options, trace_out: Option<&str>) -> bool {
    let corpus = workloads::generate(workload, options.seed, options.traced_sizes);
    let layers = layers::run(workload, &corpus, options);
    if let Some(path) = trace_out {
        let written = std::fs::File::create(path).and_then(|file| {
            let mut out = std::io::BufWriter::new(file);
            tracer::write_jsonl(&layers.records, &mut out)?;
            out.flush()
        });
        if let Err(error) = written {
            eprintln!("--trace-out {path}: {error}");
            return false;
        }
    }
    finish(workload, layers.tally, &layers.metrics)
}

fn run_end_to_end(workload: Workload, options: &Options) -> (bool, Vec<Metric>) {
    let corpus = workloads::generate(workload, options.seed, options.sizes);
    let run = e2e::run(workload, &corpus, options);
    let correct = finish(workload, run.tally, &run.metrics);
    (correct, run.metrics)
}

/// `--agree`: the end-to-end set twice, compared metric by metric.
fn agree(cli: &Cli, options: &Options) -> bool {
    let mut all_agree = true;
    let mut table = String::new();
    for &workload in &cli.workloads {
        let (first_ok, first) = run_end_to_end(workload, options);
        let (second_ok, second) = run_end_to_end(workload, options);
        all_agree &= first_ok && second_ok;
        for (spec, (a, b)) in END_TO_END.iter().zip(first.iter().zip(&second)) {
            assert_eq!((spec.name, spec.name), (a.name, b.name));
            let worse = match spec.better {
                Better::Lower => (b.value - a.value) / a.value,
                Better::Higher => (a.value - b.value) / a.value,
            };
            let exact = spec.exact_when_serial && !workload.is_stream();
            let agrees = if exact {
                a.value == b.value
            } else {
                worse.abs() <= spec.bound
            };
            all_agree &= agrees;
            let _ = writeln!(
                table,
                "{:<16} {:<24} {:>16.4} {:>16.4} {:>+9.4} {:>7} {}",
                workload.name(),
                spec.name,
                a.value,
                b.value,
                worse,
                if exact {
                    "exact".to_owned()
                } else {
                    format!("{:.2}", spec.bound)
                },
                if agrees { "ok" } else { "DISAGREE" }
            );
        }
    }
    println!(
        "{:<16} {:<24} {:>16} {:>16} {:>9} {:>7} verdict",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    print!("{table}");
    println!(
        "{}",
        if all_agree {
            "the two sets agree"
        } else {
            "the two sets DISAGREE"
        }
    );
    all_agree
}

fn main() -> ExitCode {
    let cli = match parse_cli(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(error) => {
            eprintln!("{error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let options = Options {
        seed: cli.seed,
        seconds: cli.seconds,
        nproc,
        sizes: if cli.smoke { Sizes::SMOKE } else { Sizes::FULL },
        traced_sizes: if cli.smoke {
            Sizes::SMOKE
        } else {
            Sizes::TRACED
        },
        smoke: cli.smoke,
    };
    eprintln!(
        "mintbench: seed {}, budget {} s, nproc {nproc}, {} corpora",
        options.seed,
        options.seconds,
        if cli.smoke { "smoke" } else { "full" }
    );

    let mut correct = true;
    if cli.agree {
        correct = agree(&cli, &options);
    } else {
        for &workload in &cli.workloads {
            // `--smoke` drives both kinds of run; otherwise `--trace` picks.
            if cli.smoke || !cli.trace {
                correct &= run_end_to_end(workload, &options).0;
            }
            if cli.smoke || cli.trace {
                correct &= run_traced(workload, &options, cli.trace_out.as_deref());
            }
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> String {
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json sits beside the mintbench directory")
    }

    /// The names listed under `key`, in order (the file is flat enough that
    /// a full JSON parser is not needed).
    fn names_under(json: &str, key: &str) -> Vec<String> {
        let section = &json[json.find(&format!("\"{key}\"")).expect("key present")..];
        let section = &section[..section.find(']').expect("the list closes")];
        section
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| rest[..rest.find('"').expect("the name closes")].to_owned())
            .collect()
    }

    #[test]
    fn seeded_runs_emit_exactly_the_metrics_benchmark_json_lists() {
        let _turn = alloc::serial();
        let json = benchmark_json();
        let options = Options {
            seed: 4,
            seconds: 20.0,
            nproc: 2,
            sizes: Sizes::SMOKE,
            traced_sizes: Sizes::SMOKE,
            smoke: true,
        };
        let mut counts = Vec::new();
        for workload in Workload::ALL {
            let corpus = workloads::generate(workload, options.seed, options.sizes);
            let run = e2e::run(workload, &corpus, &options);
            assert_eq!(run.tally.failed, 0, "{:?}", run.tally.first_failure);
            let names: Vec<&str> = run.metrics.iter().map(|m| m.name).collect();
            assert_eq!(
                names,
                names_under(&json, "end_to_end"),
                "{}",
                workload.name()
            );
            assert_eq!(names, END_TO_END.iter().map(|s| s.name).collect::<Vec<_>>());
            assert!(
                run.metrics.iter().all(|m| m.value > 0.0),
                "{:?}",
                run.metrics
            );

            let layers = layers::run(workload, &corpus, &options);
            assert_eq!(layers.tally.failed, 0, "{:?}", layers.tally.first_failure);
            let mut names: Vec<&str> = layers.metrics.iter().map(|m| m.name).collect();
            names.sort_unstable();
            let mut listed = names_under(&json, "per_layer");
            listed.sort_unstable();
            assert_eq!(names, listed, "{}", workload.name());

            // Serial counts repeat exactly from one in-process pass to the next.
            if !workload.is_stream() {
                let again = e2e::run(workload, &corpus, &options);
                for (spec, (a, b)) in END_TO_END
                    .iter()
                    .zip(run.metrics.iter().zip(&again.metrics))
                {
                    if spec.exact_when_serial {
                        assert_eq!(a, b, "{}", workload.name());
                    }
                }
            }
            counts.push(run.metrics[3].value);
        }
        assert_eq!(
            names_under(&json, "workloads"),
            Workload::ALL.map(|w| w.name().to_owned())
        );
        assert_ne!(
            counts[0], counts[1],
            "workloads differ in what they allocate"
        );
    }

    #[test]
    fn bounds_and_directions_match_benchmark_json() {
        let json = benchmark_json();
        for spec in END_TO_END {
            let better = match spec.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            let entry = format!("\"name\": \"{}\"", spec.name);
            let line = json
                .lines()
                .find(|line| line.contains(&entry))
                .unwrap_or_else(|| panic!("{} is not in BENCHMARK.json", spec.name));
            assert!(
                line.contains(&format!("\"better\": \"{better}\"")),
                "{line}"
            );
            assert!(
                line.contains(&format!("\"bound\": {}", spec.bound)),
                "{line}"
            );
        }
    }

    #[test]
    fn the_result_line_is_one_json_object_with_all_digits() {
        let mut tally = Tally::default();
        tally.attempted(12);
        let metrics = [
            Metric::new("setup_s", 0.1234567890123, "s"),
            Metric::new("query_per_s", 20000.5, "1/s"),
        ];
        assert_eq!(
            result_line(&tally, &metrics),
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.1234567890123, \"unit\": \"s\"}, \
             \"query_per_s\": {\"value\": 20000.5, \"unit\": \"1/s\"}}}"
        );
        tally.fail(|| "x".into());
        assert!(result_line(&tally, &[])
            .starts_with("{\"correct\": false, \"attempted\": 12, \"failed\": 1"));
    }

    #[test]
    fn the_command_line_is_checked() {
        let parse = |args: &[&str]| parse_cli(args.iter().map(|a| (*a).to_owned()));
        let cli = parse(&[
            "--workload",
            "drift-serial",
            "--seed",
            "9",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!((cli.seed, cli.seconds, cli.trace), (9, 3.0, true));
        assert_eq!(cli.workloads, vec![Workload::DriftSerial]);
        assert!(parse(&["--workload", "live-drift"]).is_err());
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert_eq!(parse(&[]).unwrap().workloads.len(), 4);
    }
}
