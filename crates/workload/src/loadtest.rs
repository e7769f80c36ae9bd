//! The 14 load tests of Fig. 14.
//!
//! The paper runs 14 load tests on a production microservice system, varying
//! request throughput (200–1000 QPS) and the number of active APIs (1–8),
//! and compares ingress/egress bandwidth, CPU and memory for No-Tracing,
//! OT-Head and Mint.  This module provides the test plan; the experiment
//! harness drives the tracing frameworks with it.

#![deny(clippy::disallowed_methods)]

use serde::{Deserialize, Serialize};

/// One load test: a throughput level and an active API count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LoadTestSpec {
    /// Test label (`T1` … `T14`).
    pub name: &'static str,
    /// Request throughput in queries per second.
    pub qps: u64,
    /// Number of distinct APIs exercised.
    pub api_count: usize,
    /// Test duration in seconds of simulated time.
    pub duration_s: u64,
}

impl LoadTestSpec {
    /// Total number of requests issued during the test.
    pub fn total_requests(&self) -> u64 {
        self.qps * self.duration_s
    }
}

/// The 14-test plan from Fig. 14 (durations are scaled down from the paper's
/// half-hour slots to keep simulation time reasonable; the per-request
/// behaviour is unchanged).
pub fn load_test_plan() -> Vec<LoadTestSpec> {
    let plan: [(&'static str, u64, usize); 14] = [
        ("T1", 200, 5),
        ("T2", 400, 5),
        ("T3", 600, 5),
        ("T4", 800, 5),
        ("T5", 1000, 5),
        ("T6", 1000, 5),
        ("T7", 400, 1),
        ("T8", 400, 2),
        ("T9", 1000, 8),
        ("T10", 600, 3),
        ("T11", 200, 2),
        ("T12", 800, 4),
        ("T13", 200, 4),
        ("T14", 400, 4),
    ];
    plan.into_iter()
        .map(|(name, qps, api_count)| LoadTestSpec {
            name,
            qps,
            api_count,
            duration_s: 10,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_has_fourteen_tests() {
        let plan = load_test_plan();
        assert_eq!(plan.len(), 14);
        assert_eq!(plan[0].name, "T1");
        assert_eq!(plan[13].name, "T14");
    }

    #[test]
    fn qps_and_api_counts_match_fig14() {
        let plan = load_test_plan();
        assert!(plan.iter().all(|t| (200..=1000).contains(&t.qps)));
        assert!(plan.iter().all(|t| (1..=8).contains(&t.api_count)));
        let t9 = plan.iter().find(|t| t.name == "T9").unwrap();
        assert_eq!((t9.qps, t9.api_count), (1000, 8));
    }

    #[test]
    fn total_requests_scale_with_qps() {
        let plan = load_test_plan();
        let t1 = plan[0];
        assert_eq!(t1.total_requests(), t1.qps * t1.duration_s);
    }
}
