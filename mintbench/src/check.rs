//! Correctness checks built into every run.
//!
//! Every ingested trace and every query is an attempted operation; anything
//! the paper's promise rules out — a miss on an ingested id, a sampled trace
//! that does not reconstruct, a report that disagrees with the corpus — is a
//! failed one.

use crate::workloads::{Corpus, Query};
use mint_core::{DeploymentReport, QueryResult};
use trace_model::{Trace, TraceId};

/// Attempted and failed operations of one run.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted: traces ingested plus queries answered.
    pub attempted: u64,
    /// Operations whose outcome was wrong.
    pub failed: u64,
    /// What the first failure was, for the error message.
    pub first_failure: Option<String>,
}

impl Tally {
    /// Counts `count` attempted operations.
    pub fn attempted(&mut self, count: usize) {
        self.attempted += count as u64;
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(what());
        }
    }

    /// Folds another tally (a reader thread's) into this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }
}

/// Whether `answer` is `input` span for span: same span ids, and for each the
/// same service, operation name, duration and parent.
fn reconstructs(input: &Trace, answer: &Trace) -> bool {
    input.len() == answer.len()
        && input.spans().iter().all(|span| {
            answer.span(span.span_id()).is_some_and(|got| {
                got.service() == span.service()
                    && got.name() == span.name()
                    && got.duration_us() == span.duration_us()
                    && got.parent_id() == span.parent_id()
            })
        })
}

/// The check made on every timed query: an ingested id never misses, and an
/// exact answer has the input's span count.  Cheap enough to sit inside the
/// closed loop.
pub fn check_answer(corpus: &Corpus, query: Query, answer: &QueryResult, tally: &mut Tally) {
    let Some(index) = query.trace else {
        // A never-ingested id may miss or hit a Bloom false positive.
        return;
    };
    match answer {
        QueryResult::Miss => tally.fail(|| format!("ingested trace {} answered Miss", query.id)),
        QueryResult::Exact(trace) => {
            let expected = corpus.traces.traces()[index as usize].len();
            if trace.len() != expected {
                tally.fail(|| {
                    format!(
                        "trace {} answered {} spans, ingested {expected}",
                        query.id,
                        trace.len()
                    )
                });
            }
        }
        QueryResult::Approximate(_) => {}
    }
}

/// The full check, made once per run outside every timed region: every
/// ingested id answers, every exact answer reconstructs its input, exactly
/// the sampled traces answer exactly, and the report agrees with the corpus.
pub fn check_deployment(
    corpus: &Corpus,
    report: &DeploymentReport,
    query: impl Fn(TraceId) -> QueryResult,
    tally: &mut Tally,
) {
    let mut exact = 0u64;
    tally.attempted(corpus.traces.len());
    for trace in &corpus.traces {
        match query(trace.trace_id()) {
            QueryResult::Miss => {
                tally.fail(|| format!("ingested trace {} answered Miss", trace.trace_id()));
            }
            QueryResult::Exact(answer) => {
                exact += 1;
                if !reconstructs(trace, &answer) {
                    tally.fail(|| {
                        format!("sampled trace {} does not reconstruct", trace.trace_id())
                    });
                }
            }
            QueryResult::Approximate(_) => {}
        }
    }
    let expectations = [
        ("traces", report.traces, corpus.traces.len() as u64),
        ("spans", report.spans, corpus.traces.span_count() as u64),
        (
            "raw bytes",
            report.raw_trace_bytes,
            corpus.traces.total_wire_size() as u64,
        ),
        ("exact answers", exact, report.sampled_traces),
    ];
    for (what, got, expected) in expectations {
        if got != expected {
            tally.fail(|| format!("{what}: {got}, expected {expected}"));
        }
    }
    for (what, ratio) in [
        ("storage_ratio", report.storage_ratio()),
        ("network_ratio", report.network_ratio()),
    ] {
        if !(ratio > 0.0 && ratio < 1.0) {
            tally.fail(|| format!("{what} {ratio} outside (0, 1)"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{generate, Sizes, Workload};
    use mint_core::MintDeployment;

    #[test]
    fn a_healthy_deployment_passes_and_a_lossy_one_fails() {
        let _turn = crate::alloc::serial();
        let corpus = generate(Workload::IncidentSerial, 5, Sizes::SMOKE);
        let mut deployment = MintDeployment::new(corpus.config.clone());
        let report = deployment.process(&corpus.traces);
        let mut tally = Tally::default();
        check_deployment(
            &corpus,
            &report,
            |id| deployment.backend().query(id),
            &mut tally,
        );
        assert_eq!(tally.failed, 0, "{:?}", tally.first_failure);
        assert_eq!(tally.attempted, corpus.traces.len() as u64);

        // A backend that forgot everything misses every id.
        let mut tally = Tally::default();
        check_deployment(&corpus, &report, |_| QueryResult::Miss, &mut tally);
        assert!(tally.failed > corpus.traces.len() as u64);
        assert!(tally.first_failure.is_some());
    }

    #[test]
    fn an_exact_answer_of_the_wrong_size_is_a_failure() {
        let _turn = crate::alloc::serial();
        let corpus = generate(Workload::IncidentSerial, 5, Sizes::SMOKE);
        let query = *corpus
            .queries
            .iter()
            .find(|q| q.trace.is_some())
            .expect("most queries ask for an ingested id");
        let input = &corpus.traces.traces()[query.trace.expect("just filtered") as usize];
        let other = corpus
            .traces
            .iter()
            .find(|t| t.len() != input.len())
            .expect("traces differ in size");
        let mut tally = Tally::default();
        check_answer(
            &corpus,
            query,
            &QueryResult::Exact(input.clone()),
            &mut tally,
        );
        assert_eq!(tally.failed, 0);
        check_answer(
            &corpus,
            query,
            &QueryResult::Exact(other.clone()),
            &mut tally,
        );
        assert_eq!(tally.failed, 1);
        check_answer(&corpus, query, &QueryResult::Miss, &mut tally);
        assert_eq!(tally.failed, 2);
    }
}
