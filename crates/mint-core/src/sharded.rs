//! Unit tests of the batch-sharded case of the parallel driver: a
//! [`StreamingDeployment`](crate::StreamingDeployment) whose epoch holds the
//! whole batch (`epoch_trace_count = usize::MAX`) warms on the full batch,
//! routes every trace to its shard, ingests per shard and reconciles once.
//! Compiled for tests only; the driver itself lives in `streaming.rs`.

mod tests {
    use crate::config::SamplingMode;
    use crate::streaming::worker_panic_message;
    use crate::{MintConfig, StreamingDeployment};
    use std::time::Duration;
    use trace_model::TraceSet;
    use workload::{online_boutique, GeneratorConfig, TraceGenerator};

    fn workload(n: usize) -> TraceSet {
        TraceGenerator::new(
            online_boutique(),
            GeneratorConfig::default()
                .with_seed(77)
                .with_abnormal_rate(0.05),
        )
        .generate(n)
    }

    /// A deployment that reconciles once per `process` call.
    fn whole_batch(config: MintConfig) -> StreamingDeployment {
        StreamingDeployment::new(config.with_epoch_trace_count(usize::MAX))
    }

    #[test]
    fn sharded_processes_everything_and_answers_queries() {
        let traces = workload(300);
        let mut sharded = whole_batch(MintConfig::default().with_shard_count(4));
        let report = sharded.process(&traces);
        assert_eq!(report.traces, 300);
        assert!(report.spans > 1_000);
        assert_eq!(sharded.shard_count(), 4);
        assert_eq!(sharded.shards().count(), 4);
        assert_eq!(sharded.epoch_stats().len(), 1);
        for trace in &traces {
            assert!(
                !sharded.backend().query(trace.trace_id()).is_miss(),
                "miss for {}",
                trace.trace_id()
            );
        }
    }

    #[test]
    fn repeated_batches_accumulate() {
        let traces = workload(120);
        let mut sharded = whole_batch(MintConfig::default().with_shard_count(2));
        sharded.process(&traces);
        let report = sharded.process(&traces);
        assert_eq!(report.traces, 240);
        assert!(report.duration_s >= 2);
        assert_eq!(sharded.epoch_stats().len(), 2);
        for trace in &traces {
            assert!(!sharded.backend().query(trace.trace_id()).is_miss());
        }
    }

    #[test]
    fn sampled_traces_are_exact_in_the_merged_backend() {
        let traces = workload(200);
        let config = MintConfig::default()
            .with_shard_count(3)
            .with_sampling_mode(SamplingMode::All);
        let mut sharded = whole_batch(config);
        let report = sharded.process(&traces);
        assert_eq!(report.sampled_traces, 200);
        for trace in traces.iter().take(20) {
            assert!(sharded.backend().query(trace.trace_id()).is_exact());
        }
    }

    #[test]
    fn worker_panic_message_reaches_the_coordinator() {
        use trace_model::AttrValue;
        let mut traces: Vec<trace_model::Trace> = workload(40).iter().cloned().collect();
        for span in traces[23].spans_mut() {
            span.attributes_mut()
                .insert("mint_test_panic", AttrValue::str("injected sharded fault"));
        }
        let traces: TraceSet = traces.into_iter().collect();
        let result = std::panic::catch_unwind(move || {
            let mut sharded = whole_batch(MintConfig::default().with_shard_count(4));
            sharded.process(&traces);
        });
        let payload = result.expect_err("worker panic must propagate");
        let message = worker_panic_message(payload.as_ref());
        assert!(
            message.contains("injected sharded fault"),
            "panic message lost: {message:?}"
        );
    }

    #[test]
    fn empty_batch_charges_no_duration_or_network() {
        // Regression: an empty batch used to clamp the empty span window to
        // a 1 s batch and re-charge a full per-batch pattern upload.
        let traces = workload(100);
        let mut sharded = whole_batch(MintConfig::default().with_shard_count(2));
        let before = sharded.process(&traces);
        let after = sharded.process(&TraceSet::default());
        assert_eq!(after.traces, before.traces);
        assert_eq!(
            after.duration_s, before.duration_s,
            "empty batch inflated the simulated duration"
        );
        assert_eq!(
            after.network, before.network,
            "empty batch charged network traffic"
        );
    }

    #[test]
    fn second_batch_merge_is_incremental() {
        let traces = workload(250);
        let mut sharded = whole_batch(MintConfig::default().with_shard_count(4));
        sharded.process(&traces);
        let first = sharded.epoch_stats().last().expect("one epoch").merge;
        assert!(first.new_span_patterns > 0);
        // The identical batch again: everything is already interned, so the
        // merge must not re-intern a single pattern and must not rebuild.
        sharded.process(&traces);
        assert_eq!(sharded.epoch_stats().len(), 2);
        let second = sharded.epoch_stats().last().expect("two epochs");
        assert_eq!(second.merge.new_span_patterns, 0, "{second:?}");
        assert_eq!(second.merge.new_topo_patterns, 0, "{second:?}");
        assert_eq!(second.merge.new_templates, 0, "{second:?}");
        assert_eq!(sharded.merge_full_rebuilds(), 0);
        assert!(second.merge_time > Duration::ZERO);
    }
}
