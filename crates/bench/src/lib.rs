//! Shared harness utilities for the experiment binaries.
//!
//! Every table and figure of the paper has a dedicated binary under
//! `src/bin/` (README.md "Running the paper's experiments" lists them).  The
//! binaries share workload construction, framework instantiation and table
//! formatting through this library so that each experiment reads like its
//! description in the paper.
//!
//! All experiments accept a scale factor through the `MINT_SCALE` environment
//! variable (default 1.0 scales workload sizes that are already reduced from
//! the paper's production scale; pass e.g. `MINT_SCALE=4` for larger runs).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use baselines::{Hindsight, MintFramework, OtFull, OtHead, OtTail, Sieve, TracingFramework};
use mint_core::{MintConfig, SamplingMode};
use rca::{MicroRank, RcaMethod, TraceAnomaly, TraceRca};

/// Scale and seed configuration shared by the experiment binaries.
#[derive(Debug, Clone, Copy)]
pub struct ExpConfig {
    /// Multiplier applied to default workload sizes.
    pub scale: f64,
    /// Base RNG seed.
    pub seed: u64,
}

impl ExpConfig {
    /// Reads the configuration from the environment (`MINT_SCALE`,
    /// `MINT_SEED`).
    pub fn from_env() -> Self {
        let scale = std::env::var("MINT_SCALE")
            .ok()
            .and_then(|v| v.parse::<f64>().ok())
            .filter(|v| *v > 0.0)
            .unwrap_or(1.0);
        let seed = std::env::var("MINT_SEED")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0xA5A5);
        ExpConfig { scale, seed }
    }

    /// Scales a default count, with a floor to keep experiments meaningful.
    pub fn scaled(&self, base: usize) -> usize {
        ((base as f64 * self.scale) as usize).max(50)
    }
}

/// Formats a byte count with a binary-prefix unit.
pub fn fmt_bytes(bytes: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit < UNITS.len() - 1 {
        value /= 1024.0;
        unit += 1;
    }
    format!("{value:.1} {}", UNITS[unit])
}

/// Formats a ratio as a percentage with one decimal.
pub fn fmt_pct(ratio: f64) -> String {
    format!("{:.1}%", ratio * 100.0)
}

/// Prints a fixed-width table with a title, headers and rows.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let header_line: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{h:<width$}", width = widths[i]))
        .collect();
    println!("{}", header_line.join("  "));
    println!(
        "{}",
        widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("  ")
    );
    for row in rows {
        let cells: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| {
                format!(
                    "{c:<width$}",
                    width = widths.get(i).copied().unwrap_or(c.len())
                )
            })
            .collect();
        println!("{}", cells.join("  "));
    }
}

/// The Mint configuration used in the controlled-budget comparisons
/// (Fig. 11/12): to keep the retained-trace budget identical across
/// frameworks, the paper makes every biased sampler — Mint included — sample
/// on the injected `is_abnormal` tag.
pub fn budgeted_mint_config() -> MintConfig {
    MintConfig::default().with_sampling_mode(SamplingMode::AbnormalTag)
}

/// Instantiates the full set of frameworks compared in Fig. 11/12, in the
/// paper's order.
pub fn all_frameworks() -> Vec<Box<dyn TracingFramework>> {
    vec![
        Box::new(OtFull::new()),
        Box::new(OtHead::new(0.05)),
        Box::new(OtTail::new()),
        Box::new(Sieve::new(0.05)),
        Box::new(Hindsight::new()),
        Box::new(MintFramework::new(budgeted_mint_config())),
    ]
}

/// The RCA methods of Table 3.
pub fn rca_methods() -> Vec<Box<dyn RcaMethod>> {
    vec![
        Box::new(MicroRank),
        Box::new(TraceAnomaly),
        Box::new(TraceRca::default()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_bytes(512), "512.0 B");
        assert_eq!(fmt_bytes(2048), "2.0 KiB");
        assert_eq!(fmt_pct(0.042), "4.2%");
    }

    #[test]
    fn scale_from_default_env() {
        let config = ExpConfig {
            scale: 1.0,
            seed: 1,
        };
        assert_eq!(config.scaled(100), 100);
        let half = ExpConfig {
            scale: 0.1,
            seed: 1,
        };
        assert_eq!(half.scaled(100), 50);
    }

    #[test]
    fn framework_sets_have_expected_members() {
        let names: Vec<&str> = all_frameworks().iter().map(|f| f.name()).collect();
        assert_eq!(
            names,
            vec![
                "OT-Full",
                "OT-Head",
                "OT-Tail",
                "Sieve",
                "Hindsight",
                "Mint"
            ]
        );
        assert_eq!(rca_methods().len(), 3);
    }
}
