//! Configuration of a Mint deployment.

use serde::{Deserialize, Serialize};

/// How traces are selected for full (parameter-level) retention.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum SamplingMode {
    /// Mint's native samplers: symptom + edge-case biased sampling (§4.2).
    #[default]
    MintBiased,
    /// Uniform head sampling at [`MintConfig::head_sampling_rate`].
    Head,
    /// Sample traces tagged `is_abnormal` (or containing an error span).
    /// This is the controlled-budget configuration the paper uses in its
    /// overhead comparison so every framework retains the same traces.
    AbnormalTag,
    /// Mark every trace as sampled (full parameter retention, lossless).
    All,
    /// Never upload parameters (patterns and metadata only).
    None,
}

/// Tunable parameters of Mint, with defaults matching the paper's
/// implementation section (§4).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MintConfig {
    /// LCS similarity threshold used when clustering string attribute values
    /// into templates (paper default: 0.8; Fig. 16 sweeps this).
    pub similarity_threshold: f64,
    /// Precision parameter α of the exponential numeric bucketing
    /// (paper default: 0.5, giving γ = 3).
    pub numeric_precision: f64,
    /// Number of spans sampled to warm up the span parser offline
    /// (paper default: 5 000).
    pub warmup_sample_size: usize,
    /// Byte budget of each per-pattern Bloom filter (paper default: 4 KiB).
    pub bloom_buffer_bytes: usize,
    /// Bloom filter false-positive probability (paper default: 0.01).
    pub bloom_fpp: f64,
    /// Byte budget of the per-agent parameter buffer (paper default: 4 MiB).
    pub params_buffer_bytes: usize,
    /// Interval, in simulated seconds, between full pattern-library uploads
    /// (paper default: 60 s).
    pub pattern_report_interval_s: u64,
    /// Words that mark a string parameter as symptomatic.
    pub abnormal_words: Vec<String>,
    /// Quantile above which a numeric parameter is considered an outlier
    /// (paper default: P95).
    pub symptom_quantile: f64,
    /// A topology pattern observed at most this many times is considered
    /// rare by the edge-case sampler.
    pub edge_case_rare_threshold: u64,
    /// The edge-case sampler only fires while the pattern's share of all
    /// observed sub-traces is at or below this frequency, so common paths are
    /// not oversampled during warm-up.
    pub edge_case_max_frequency: f64,
    /// How sampled traces are selected.
    pub sampling_mode: SamplingMode,
    /// Head-sampling rate used when [`SamplingMode::Head`] is selected.
    pub head_sampling_rate: f64,
    /// Number of shard workers a [`StreamingDeployment`](crate::StreamingDeployment)
    /// routes traces across (1 = serial-equivalent single worker).
    pub shard_count: usize,
    /// Number of traces a [`StreamingDeployment`](crate::StreamingDeployment)
    /// accepts between epoch boundaries, i.e. between incremental merges of
    /// the shard states into the queryable backend.  Smaller epochs mean
    /// fresher query results; larger epochs amortize the (already
    /// incremental) merge further.
    pub epoch_trace_count: usize,
    /// Capacity of each streaming shard worker's bounded ingest queue, in
    /// traces.  A full queue blocks the router (backpressure) instead of
    /// buffering unboundedly.
    pub shard_queue_depth: usize,
    /// Number of traces the streaming router buffers per shard before
    /// handing them to the worker in one channel send, amortizing the
    /// per-send synchronization cost (1 = unbatched, send every trace
    /// immediately).  Buffers are always flushed at epoch boundaries and at
    /// end of stream, so batching never changes *what* a worker sees, only
    /// how many wakeups it takes to see it.
    pub dispatch_batch_size: usize,
}

impl Default for MintConfig {
    fn default() -> Self {
        MintConfig {
            similarity_threshold: 0.8,
            numeric_precision: 0.5,
            warmup_sample_size: 5_000,
            bloom_buffer_bytes: 4 * 1024,
            bloom_fpp: 0.01,
            params_buffer_bytes: 4 * 1024 * 1024,
            pattern_report_interval_s: 60,
            abnormal_words: vec![
                "error".to_owned(),
                "exception".to_owned(),
                "timeout".to_owned(),
                "fail".to_owned(),
                "502".to_owned(),
                "500".to_owned(),
                "refused".to_owned(),
            ],
            symptom_quantile: 0.95,
            edge_case_rare_threshold: 10,
            edge_case_max_frequency: 0.02,
            sampling_mode: SamplingMode::MintBiased,
            head_sampling_rate: 0.05,
            shard_count: 1,
            epoch_trace_count: 256,
            shard_queue_depth: 256,
            dispatch_batch_size: 16,
        }
    }
}

impl MintConfig {
    /// Sets the similarity threshold (clamped to `(0, 1]`).
    pub fn with_similarity_threshold(mut self, threshold: f64) -> Self {
        self.similarity_threshold = threshold.clamp(0.05, 1.0);
        self
    }

    /// Sets the sampling mode.
    pub fn with_sampling_mode(mut self, mode: SamplingMode) -> Self {
        self.sampling_mode = mode;
        self
    }

    /// Sets the numeric bucketing precision α (clamped to `(0, 1)`).
    pub fn with_numeric_precision(mut self, alpha: f64) -> Self {
        self.numeric_precision = alpha.clamp(0.01, 0.99);
        self
    }

    /// Sets the warm-up sample size.
    pub fn with_warmup_sample_size(mut self, size: usize) -> Self {
        self.warmup_sample_size = size;
        self
    }

    /// Sets the number of ingest shards (clamped to at least 1).
    pub fn with_shard_count(mut self, shards: usize) -> Self {
        self.shard_count = shards.max(1);
        self
    }

    /// Sets the streaming epoch size in traces (clamped to at least 1).
    pub fn with_epoch_trace_count(mut self, traces: usize) -> Self {
        self.epoch_trace_count = traces.max(1);
        self
    }

    /// Sets the streaming shard queue depth in traces (clamped to at
    /// least 1).
    pub fn with_shard_queue_depth(mut self, depth: usize) -> Self {
        self.shard_queue_depth = depth.max(1);
        self
    }

    /// Sets the per-shard dispatch batch size in traces (clamped to at
    /// least 1; 1 disables batching).
    pub fn with_dispatch_batch_size(mut self, batch: usize) -> Self {
        self.dispatch_batch_size = batch.max(1);
        self
    }

    /// The γ base of the exponential bucketing, `γ = (1 + α) / (1 − α)`.
    pub fn numeric_gamma(&self) -> f64 {
        (1.0 + self.numeric_precision) / (1.0 - self.numeric_precision)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let config = MintConfig::default();
        assert_eq!(config.similarity_threshold, 0.8);
        assert_eq!(config.numeric_precision, 0.5);
        assert_eq!(config.warmup_sample_size, 5_000);
        assert_eq!(config.bloom_buffer_bytes, 4096);
        assert_eq!(config.bloom_fpp, 0.01);
        assert_eq!(config.params_buffer_bytes, 4 * 1024 * 1024);
        assert_eq!(config.pattern_report_interval_s, 60);
        assert_eq!(config.symptom_quantile, 0.95);
        assert_eq!(config.sampling_mode, SamplingMode::MintBiased);
        assert_eq!(config.epoch_trace_count, 256);
        assert_eq!(config.shard_queue_depth, 256);
        assert_eq!(config.dispatch_batch_size, 16);
    }

    #[test]
    fn streaming_builders_clamp_to_one() {
        let config = MintConfig::default()
            .with_epoch_trace_count(0)
            .with_shard_queue_depth(0)
            .with_dispatch_batch_size(0);
        assert_eq!(config.epoch_trace_count, 1);
        assert_eq!(config.shard_queue_depth, 1);
        assert_eq!(config.dispatch_batch_size, 1);
        let config = config
            .with_epoch_trace_count(64)
            .with_shard_queue_depth(8)
            .with_dispatch_batch_size(4);
        assert_eq!(config.epoch_trace_count, 64);
        assert_eq!(config.shard_queue_depth, 8);
        assert_eq!(config.dispatch_batch_size, 4);
    }

    #[test]
    fn gamma_is_three_for_default_precision() {
        let config = MintConfig::default();
        assert!((config.numeric_gamma() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn builders_clamp_inputs() {
        let config = MintConfig::default()
            .with_similarity_threshold(7.0)
            .with_numeric_precision(1.5);
        assert_eq!(config.similarity_threshold, 1.0);
        assert_eq!(config.numeric_precision, 0.99);
    }

    #[test]
    fn sampling_mode_builder() {
        let config = MintConfig::default().with_sampling_mode(SamplingMode::All);
        assert_eq!(config.sampling_mode, SamplingMode::All);
    }
}
