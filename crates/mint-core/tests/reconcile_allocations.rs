//! Holds the epoch reconcile of the streaming driver to O(nodes + new state)
//! allocations in tier-1.
//!
//! A counting `#[global_allocator]` (per thread, so neither the shard
//! workers nor the other tests of this binary disturb a count) measures, on
//! a warmed `StreamingDeployment` with a `QueryHandle` held so that every
//! epoch publishes a generation:
//!
//! * a steady-state epoch of known-pattern traces reconciles within a fixed
//!   budget per node, plus 2 per republished partial Bloom filter, plus the
//!   publication — the window measured runs from the router pulling the
//!   epoch's last trace to the epoch observer, so it also holds the barrier;
//! * the same budget holds with a warmed library 4× larger, so the cost
//!   does not grow with the library;
//! * a reconcile with no new traces allocates only the publication.
//!
//! The merge used to deep-copy every library on every epoch: 12 400
//! allocations per epoch on mintbench's `prod-stream`, where the budget
//! below allows a few dozen.

#[expect(dead_code, reason = "this suite counts allocations, not live bytes")]
mod common;

use common::counting::{allocations, allocations_of};
use mint_core::{EpochStats, MintConfig, SamplingMode, StreamingDeployment};
use std::cell::Cell;
use trace_model::{Trace, TraceSet};
use workload::{layered_application, GeneratorConfig, TraceGenerator};

/// Allocations a republished node may make: the duration statistics
/// refolded for it and the catalog holding them beside its shared tables.
const PER_NODE: u64 = 2;

/// Allocations a copied Bloom filter makes: its bits and its `Arc`.
const PER_FILTER: u64 = 2;

/// What the router allocates in the window besides the reconcile: the
/// dispatch buffer that replaces the one the epoch's last trace left in,
/// the `Vec` the shard states are collected into, and growth of the epoch
/// log.
const BARRIER: u64 = 3;

/// Once per shard and stream, the first time the router waits for that
/// shard's state, the channel allocates its list of waiters.
const WAITERS_PER_SHARD: u64 = 1;

const EPOCH: usize = 64;

/// A layered application whose services each run `ops_per_service`
/// operations: the library of a node grows with it, the node count does
/// not.
fn corpus(ops_per_service: usize) -> TraceSet {
    let config = GeneratorConfig::default()
        .with_seed(11)
        .with_abnormal_rate(0.02);
    let app = layered_application("reconcile", ops_per_service, 5, 5 * ops_per_service);
    TraceGenerator::new(app, config).generate(1_200)
}

fn config(shards: usize) -> MintConfig {
    // Nothing sampled, and queues deep enough that routing never blocks:
    // the window then holds the barrier and the reconcile alone.
    MintConfig::default()
        .with_sampling_mode(SamplingMode::None)
        .with_shard_count(shards)
        .with_epoch_trace_count(EPOCH)
        .with_shard_queue_depth(4_096)
        .with_dispatch_batch_size(1)
}

/// One measured stream: the first epochs of `corpus` again, after the
/// whole of it, so that every pattern is known.
struct Measured {
    span_patterns: u64,
    nodes: u64,
    /// What one publication allocates, measured before and after.
    publication: [u64; 2],
    /// Per epoch boundary: the window's allocations and what the merge did.
    epochs: Vec<(u64, EpochStats)>,
}

fn measure(corpus: &TraceSet, shards: usize) -> Measured {
    let mut deployment = StreamingDeployment::new(config(shards));
    deployment.warm_up(corpus);
    let handle = deployment.query_handle();
    let report = deployment.process_stream(corpus.iter().cloned());
    let known = &corpus.traces()[..EPOCH * 10];
    let nodes = deployment.backend().node_count() as u64;

    let publish =
        |deployment: &mut StreamingDeployment| allocations_of(|| drop(deployment.query_handle())).1;
    let before = publish(&mut deployment);
    // Marked after the source has cloned the trace it hands out.
    let pulled = Cell::new(0);
    let source = known.iter().cloned().inspect(|_| pulled.set(allocations()));
    let mut epochs = Vec::with_capacity(known.len() / EPOCH + 2);
    deployment.process_stream_observed(source, |stats| {
        epochs.push((allocations() - pulled.get(), *stats));
    });
    let after = publish(&mut deployment);
    drop(handle);
    Measured {
        span_patterns: report.span_patterns,
        nodes,
        publication: [before, after],
        epochs,
    }
}

/// Checks every steady-state epoch of `measured` against the budget and
/// returns how many there were.
fn assert_within_budget(measured: &Measured, shards: usize, context: &str) -> usize {
    let publication = measured.publication[0].max(measured.publication[1]);
    let mut steady = 0;
    for (allocations, stats) in &measured.epochs {
        let merge = stats.merge;
        let new = merge.new_templates + merge.new_span_patterns + merge.new_topo_patterns;
        if stats.end_of_stream || new > 0 {
            continue;
        }
        steady += 1;
        assert!(
            !merge.full_rebuild,
            "{context}: epoch {} rebuilt",
            stats.epoch
        );
        let filters = (merge.republished_blooms + merge.new_sealed_blooms) as u64;
        let budget = BARRIER
            + WAITERS_PER_SHARD * shards as u64
            + PER_NODE * measured.nodes
            + PER_FILTER * filters
            + publication;
        assert!(
            *allocations <= budget,
            "{context}: epoch {} allocated {allocations}, budget {budget} \
             ({} nodes, {filters} filters copied, publication {publication})",
            stats.epoch,
            measured.nodes
        );
    }
    steady
}

#[test]
fn a_steady_state_epoch_reconciles_in_o_nodes_plus_new_state() {
    let small = corpus(4);
    let large = corpus(16);
    for shards in [1, 2] {
        let base = measure(&small, shards);
        let grown = measure(&large, shards);
        assert!(
            grown.span_patterns >= 3 * base.span_patterns,
            "the larger library has {} span patterns, the smaller {}",
            grown.span_patterns,
            base.span_patterns
        );
        assert_eq!(
            grown.nodes, base.nodes,
            "node count must not grow with the library"
        );
        for (measured, context) in [(&base, "base library"), (&grown, "4x library")] {
            let context = format!("{context}, {shards} shard(s)");
            let steady = assert_within_budget(measured, shards, &context);
            assert!(
                steady * 2 >= measured.epochs.len(),
                "{context}: only {steady} of {} epochs were steady-state",
                measured.epochs.len()
            );
            // Every epoch routes known traces to every node's shards, so
            // filters are republished — and only those with new mounts.
            let copied: usize = measured
                .epochs
                .iter()
                .map(|(_, e)| e.merge.republished_blooms)
                .sum();
            assert!(copied > 0, "{context}: no partial filter was republished");
        }
    }
}

/// Once per shard and stream, the router's first wait on a shard's state
/// allocates its list of waiters — only if the worker has not answered yet,
/// so whether a stream pays it depends on timing.  A waiter can only add
/// allocations: the least of a few streams is the driver's own cost.
const EMPTY_STREAMS: usize = 3;

/// The fewest allocations `process_stream` over an empty source made on
/// this thread, over `EMPTY_STREAMS` such streams.
fn empty_stream(deployment: &mut StreamingDeployment) -> u64 {
    (0..EMPTY_STREAMS)
        .map(|_| allocations_of(|| deployment.process_stream(std::iter::empty::<Trace>())).1)
        .min()
        .unwrap_or(0)
}

#[test]
fn a_reconcile_with_no_new_traces_allocates_only_the_publication() {
    for shards in [1, 2] {
        // The driver's own cost: the same stream over shards without agents,
        // whose reconcile has nothing to walk.
        let mut agentless = StreamingDeployment::new(config(shards));
        agentless.warm_up(&TraceSet::new());
        empty_stream(&mut agentless);
        let driver = empty_stream(&mut agentless);
        let slack = WAITERS_PER_SHARD * shards as u64 + 1;

        for traces in [corpus(4), corpus(16)] {
            let mut deployment = StreamingDeployment::new(config(shards));
            deployment.warm_up(&traces);
            let handle = deployment.query_handle();
            deployment.process_stream(traces.iter().cloned());

            let published = empty_stream(&mut deployment);
            let publication = allocations_of(|| drop(deployment.query_handle())).1;
            drop(handle);
            let unpublished = empty_stream(&mut deployment);
            assert!(
                unpublished <= driver + slack,
                "{shards} shard(s): an idle reconcile allocated {unpublished} with the driver's {driver}"
            );
            assert!(
                published <= unpublished + publication + 1,
                "{shards} shard(s): an idle reconcile allocated {published} while publishing, \
                 {unpublished} without, and a publication costs {publication}"
            );
        }
    }
}
