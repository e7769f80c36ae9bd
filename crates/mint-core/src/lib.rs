//! Mint: cost-efficient tracing with all-requests collection via commonality
//! and variability analysis.
//!
//! This crate is a from-scratch Rust implementation of the Mint tracing
//! framework (ASPLOS 2025).  Mint replaces the "1 or 0" sampling paradigm
//! with a "commonality + variability" paradigm:
//!
//! 1. **Inter-span parsing** ([`SpanParser`]) — every span is decomposed into
//!    a *span pattern* (the constant skeleton of its attributes) and
//!    *parameters* (the variable parts).  String attributes are parsed with
//!    LCS-clustered templates; numeric attributes with exponential buckets.
//! 2. **Inter-trace parsing** ([`TraceParser`]) — the spans of one trace
//!    observed on one node (a sub-trace) are encoded as a *topology pattern*
//!    over span-pattern ids; trace metadata is mounted on the pattern with a
//!    Bloom filter.
//! 3. **Reporting** ([`MintAgent`], [`MintCollector`], [`MintBackend`]) — the
//!    pattern libraries and Bloom filters are uploaded for *all* traces
//!    (cheap, because millions of traces share a few hundred patterns);
//!    variable parameters are buffered on the agent and uploaded only for
//!    traces selected by the [`SymptomSampler`] / [`EdgeCaseSampler`].
//! 4. **Querying** — the backend answers every trace-id query: an
//!    *approximate trace* (pattern skeleton) for unsampled traces, the
//!    *exact trace* (pattern + parameters) for sampled ones.
//!
//! # Quick start
//!
//! ```
//! use mint_core::{MintConfig, MintDeployment};
//! use workload::{online_boutique, GeneratorConfig, TraceGenerator};
//!
//! // Generate a small workload.
//! let mut generator = TraceGenerator::new(online_boutique(), GeneratorConfig::default());
//! let traces = generator.generate(200);
//!
//! // Run it through a Mint deployment (one agent per service + backend).
//! let mut mint = MintDeployment::new(MintConfig::default());
//! let report = mint.process(&traces);
//!
//! // Every trace remains queryable — at worst as an approximate trace.
//! let queried = mint.backend().query(traces.traces()[0].trace_id());
//! assert!(!queried.is_miss());
//! assert_eq!(report.traces, 200);
//! // Only a small fraction of traces needed their full parameters uploaded.
//! assert!(report.sampled_traces < report.traces);
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]

mod agent;
mod backend;
mod collector;
mod commonality;
mod compress;
mod config;
mod cost;
mod intern;
mod lcs;
mod merge;
mod params;
mod samplers;
#[cfg(test)]
mod sharded;
mod snapshot;
pub mod span_parser;
mod streaming;
mod trace_parser;

pub use agent::{AgentStats, IngestOutcome, MintAgent};
pub use backend::{ApproximateSpan, ApproximateTrace, MintBackend, QueryResult};
pub use collector::{DeploymentReport, MintCollector, MintDeployment};
pub use commonality::{commonality_statistics, CommonalityStats};
pub use compress::{mint_compressed_size, CompressionBreakdown};
pub use config::{MintConfig, SamplingMode};
pub use cost::{CostReport, NetworkCost, StorageCost};
pub use intern::{
    value_fingerprint, InternedPrefixIndex, InternedTemplate, Interner, PrefilterStats, UNKNOWN_ID,
    WILDCARD_ID,
};
pub use lcs::{
    lcs_length, lcs_length_ids, similarity, similarity_ids, tokenize, tokenize_borrowed,
    tokenize_into, TokenMaskTable,
};
pub use merge::MergeStats;
pub use params::{
    PackedVars, ParamBlock, ParamRef, ParamValue, Params, ParamsBuffer, ParamsWriter, Slots,
    SpanParams, SpanRecord, SpanRecords, TraceParams,
};
pub use samplers::{EdgeCaseSampler, HeadSampler, SamplerDecision, SymptomSampler};
pub use snapshot::{BackendSnapshot, QueryHandle};
pub use span_parser::{
    AttrPattern, NumericBucketer, ParseScratch, PatternCatalog, SpanParser, SpanPattern,
    SpanPatternLibrary, StringTemplate,
};
pub use streaming::{EpochStats, StreamingDeployment};
pub use trace_parser::{ParsedSpan, TopoKey, TopoPattern, TopoPatternLibrary, TraceParser};
