//! Correctness checks and failure accounting, run outside every timed
//! region.

use metis_core::{audit_schedule, Incident, SpmInstance};

use crate::workloads::Outcome;

/// Collects failed checks and counts attempted and failed operations.
#[derive(Default)]
pub struct Checker {
    pub problems: Vec<String>,
    /// Solver invocations, online epochs and results, over every solve.
    pub attempted: u64,
    /// Failed invocations, skipped epochs and decline-all results that
    /// carry an incident.
    pub failed: u64,
}

impl Checker {
    pub fn fail(&mut self, what: String) {
        self.problems.push(what);
    }

    pub fn is_correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// Audits one result against its instance and books its operations.
    pub fn result(&mut self, label: &str, instance: &SpmInstance, outcome: &Outcome) {
        let schedule = outcome.schedule();
        let evaluation = outcome.evaluation();
        let audit = audit_schedule(instance, schedule, evaluation);
        for v in &audit.violations {
            self.fail(format!("{label}: audit {v}"));
        }
        // Debug formatting prints each float's shortest round-trip form,
        // so equal strings mean bit-equal evaluations.
        let recomputed = schedule.evaluate(instance);
        if format!("{recomputed:?}") != format!("{evaluation:?}") {
            self.fail(format!(
                "{label}: Schedule::evaluate disagrees with the returned evaluation"
            ));
        }
        if !(evaluation.profit >= 0.0 && evaluation.profit.is_finite()) {
            self.fail(format!("{label}: profit {} is not >= 0", evaluation.profit));
        }

        let (attempted, failed) = match outcome {
            Outcome::Offline(r) => (
                r.round_trace.len(),
                r.round_trace.iter().filter(|t| !t.completed).count(),
            ),
            // The online result carries no round trace: a failed inner
            // invocation shows as its `SolveFailed` incident.
            Outcome::Online(r) => (
                r.epochs.len(),
                r.incidents
                    .iter()
                    .filter(|i| {
                        matches!(
                            i,
                            Incident::SolveFailed { .. } | Incident::EpochSkipped { .. }
                        )
                    })
                    .count(),
            ),
        };
        let silent_collapse = evaluation.accepted == 0 && !outcome.incidents().is_empty();
        self.attempted += attempted as u64 + 1;
        self.failed += failed as u64 + u64::from(silent_collapse);
    }

    /// Requires two solves of one instance to agree bit for bit.
    pub fn same(&mut self, label: &str, first: &Outcome, again: &Outcome) {
        if first.schedule() != again.schedule()
            || format!("{:?}", first.evaluation()) != format!("{:?}", again.evaluation())
        {
            self.fail(format!(
                "{label}: repeated solve returned a different result"
            ));
        }
    }
}
