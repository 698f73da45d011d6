//! The detector registry: the four configurations of Table 2 plus the
//! bloom-table ablation.

use crate::runner::{run_events, RunLimits, RunOutcome};
use hard::{HardConfig, HbMachineConfig};
use hard_lockset::bloom_table::BloomLocksetConfig;
use hard_lockset::IdealLocksetConfig;
use hard_trace::{RaceReport, Trace};
use hard_types::Addr;
use std::fmt;

/// One of the detector configurations the paper evaluates.
#[derive(Clone, Copy, Debug)]
pub enum DetectorKind {
    /// HARD with a concrete hardware configuration ("default" columns).
    Hard(HardConfig),
    /// The ideal lockset implementation (4-byte granularity, exact
    /// sets, unbounded store).
    LocksetIdeal(IdealLocksetConfig),
    /// The hardware happens-before baseline.
    HbHw(HbMachineConfig),
    /// The ideal happens-before implementation. The vector-clock width
    /// is taken from the trace at run time.
    HbIdeal {
        /// Detection granularity (bytes per granule).
        granularity: hard_types::Granularity,
    },
    /// Ablation: bloom-filter lockset with unbounded metadata storage
    /// (isolates the bloom approximation from displacement).
    BloomUnbounded(BloomLocksetConfig),
}

impl DetectorKind {
    /// The paper's default HARD configuration.
    #[must_use]
    pub fn hard_default() -> DetectorKind {
        DetectorKind::Hard(HardConfig::default())
    }

    /// The paper's ideal lockset configuration.
    #[must_use]
    pub fn lockset_ideal() -> DetectorKind {
        DetectorKind::LocksetIdeal(IdealLocksetConfig::default())
    }

    /// The paper's default hardware happens-before configuration.
    #[must_use]
    pub fn hb_default() -> DetectorKind {
        DetectorKind::HbHw(HbMachineConfig::default())
    }

    /// The paper's ideal happens-before configuration.
    #[must_use]
    pub fn hb_ideal() -> DetectorKind {
        DetectorKind::HbIdeal {
            granularity: hard_types::Granularity::new(4),
        }
    }

    /// Parses a CLI/wire detector name (`hard`, `lockset-ideal`, `hb`,
    /// `hb-ideal`) into the corresponding default configuration —
    /// shared by `hard-exp replay`, `hard-exp submit` and the
    /// `hard-serve` session handler so every entry point accepts the
    /// same names.
    ///
    /// # Errors
    ///
    /// Names the unknown detector.
    pub fn parse(name: &str) -> Result<DetectorKind, String> {
        match name {
            "hard" => Ok(DetectorKind::hard_default()),
            "lockset-ideal" => Ok(DetectorKind::lockset_ideal()),
            "hb" => Ok(DetectorKind::hb_default()),
            "hb-ideal" => Ok(DetectorKind::hb_ideal()),
            other => Err(format!("unknown detector: {other}")),
        }
    }

    /// Short label for table headers.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            DetectorKind::Hard(_) => "HARD",
            DetectorKind::LocksetIdeal(_) => "lockset-ideal",
            DetectorKind::HbHw(_) => "HB",
            DetectorKind::HbIdeal { .. } => "HB-ideal",
            DetectorKind::BloomUnbounded(_) => "bloom-unbounded",
        }
    }
}

impl fmt::Display for DetectorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The observable outcome of one detector execution.
#[derive(Clone, Debug)]
pub struct DetectorRun {
    /// All race reports.
    pub reports: Vec<RaceReport>,
    /// For each probe address (in input order): whether the hardware
    /// lost that line's metadata to L2 displacement. Always `false`
    /// for ideal detectors (they have no displacement).
    pub meta_lost: Vec<bool>,
}

/// Runs `kind` over `trace`. `probes` are addresses of interest (the
/// injected race's targets) whose metadata-loss status is recorded for
/// miss classification.
///
/// This is the runner's dispatch core without limits or containment:
/// any panic here is a simulator bug and aborts loudly. The
/// process-global observability handle ([`hard_obs::installed`]) is
/// attached to the hardware machines, so a `--trace-out` style
/// recorder sees every sweep without per-call plumbing. With no global
/// recorder installed (the default) this is bit-identical to the
/// pre-observability behaviour.
#[must_use]
pub fn execute(kind: &DetectorKind, trace: &Trace, probes: &[Addr]) -> DetectorRun {
    let events = trace.events.iter().copied();
    let obs = hard_obs::installed();
    match run_events(
        kind,
        trace.num_threads,
        events,
        probes,
        RunLimits::unlimited(),
        &obs,
    ) {
        RunOutcome::Ok(run, _) => run,
        other => unreachable!("an unlimited, uncontained run completes or panics: {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hard_trace::{ProgramBuilder, SchedConfig, Scheduler};
    use hard_types::{Addr, SiteId};

    #[test]
    fn all_kinds_execute_on_a_trivial_trace() {
        let mut b = ProgramBuilder::new(2);
        b.thread(0).write(Addr(0x1000), 4, SiteId(1));
        b.thread(1).write(Addr(0x1000), 4, SiteId(2));
        let trace = Scheduler::new(SchedConfig::default()).run(&b.build());
        let kinds = [
            DetectorKind::hard_default(),
            DetectorKind::lockset_ideal(),
            DetectorKind::hb_default(),
            DetectorKind::hb_ideal(),
            DetectorKind::BloomUnbounded(Default::default()),
        ];
        for k in kinds {
            let run = execute(&k, &trace, &[Addr(0x1000)]);
            assert!(
                !run.reports.is_empty(),
                "{k} must flag the unprotected sharing"
            );
            assert_eq!(run.meta_lost, vec![false]);
        }
    }

    #[test]
    fn labels_are_distinct() {
        let labels = [
            DetectorKind::hard_default().label(),
            DetectorKind::lockset_ideal().label(),
            DetectorKind::hb_default().label(),
            DetectorKind::hb_ideal().label(),
        ];
        let set: std::collections::BTreeSet<_> = labels.iter().collect();
        assert_eq!(set.len(), 4);
    }
}
