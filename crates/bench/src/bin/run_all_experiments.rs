//! Runs every paper-figure binary in sequence, producing the full set of
//! tables and figures in one go.
//!
//! The binaries are located next to this one in the build directory, so build
//! them first: `cargo build --release -p bench && cargo run --release --bin
//! run_all_experiments`.

use std::process::Command;

const EXPERIMENTS: [&str; 12] = [
    "exp_fig01_volume",
    "exp_fig02_overhead",
    "exp_fig03_missrate",
    "exp_table1_commonality",
    "exp_fig11_reduction",
    "exp_fig12_hits",
    "exp_table3_rca",
    "exp_table4_compression",
    "exp_fig14_loadtests",
    "exp_fig15_latency",
    "exp_table5_patterns",
    "exp_fig16_sensitivity",
];

fn main() {
    let current = std::env::current_exe().expect("current executable path");
    let bin_dir = current.parent().expect("binary directory").to_path_buf();

    let mut failures = Vec::new();
    for name in EXPERIMENTS {
        let path = bin_dir.join(name);
        println!("\n######## {name} ########");
        if !path.exists() {
            println!("(binary not built: {})", path.display());
            failures.push(name);
            continue;
        }
        match Command::new(&path).status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                println!("{name} exited with {status}");
                failures.push(name);
            }
            Err(error) => {
                println!("failed to launch {name}: {error}");
                failures.push(name);
            }
        }
    }

    if failures.is_empty() {
        println!("\nAll {} experiments completed.", EXPERIMENTS.len());
    } else {
        println!("\n{} experiments failed: {failures:?}", failures.len());
        std::process::exit(1);
    }
}
