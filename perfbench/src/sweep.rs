//! The `sweep` workload: the paper's Table 2 campaign, run serially
//! over the corpus set-up wrote, with every cell's trace read back from
//! disk as a warm `hard-exp table2 --trace-cache` run reads it.
//!
//! Each Table 2 cell (one trace: read from disk, run through the four
//! detectors, scored) is timed in every pass, and a run reports each
//! cell's fastest time over its passes. On a shared host, memory-heavy
//! code can run at half speed for seconds to minutes at a time (see
//! METRICS.md); a cell's fastest repeat is the steadiest estimate of
//! its own cost.

use crate::inputs::{CorpusFile, Seeds, Setups, Sizes, DEFAULT_SEED};
use crate::out::{median, ms, quantile, Outcome};
use crate::spans::Spans;
use hard_harness::experiments::table2::detector_set;
use hard_harness::{
    alarm_sites, corpus, execute_hardened, execute_hardened_cell, kernel, probes, score,
    BugOutcome, CellTrace, KernelMode, RunLimits, RunOutcome,
};
use hard_trace::RaceReport;
use std::time::{Duration, Instant};

/// The layer each Table 2 detector's time is charged to, in
/// [`detector_set`] order.
pub const DETECTOR_LAYERS: [&str; 4] = [
    "core.hard.sweep_s",
    "lockset.ideal.sweep_s",
    "core.hb.sweep_s",
    "hb.ideal.sweep_s",
];

/// Events over all 264 detector runs at the default seed: the
/// repository's pinned campaign checksum, with [`PINNED_CYCLES`].
pub const PINNED_EVENTS: u64 = 11_808_636;
/// Simulated cycles over all 264 detector runs at the default seed.
pub const PINNED_CYCLES: u64 = 377_378_425;

/// `hard-exp table2 --scale 0.3 --runs 10` at the default seed: per
/// application, `(bugs detected, source-level alarms)` for HARD,
/// lockset-ideal, HB and HB-ideal.
pub const PINNED_ROWS: [[(usize, usize); 4]; 6] = [
    [(10, 74), (10, 24), (9, 51), (9, 35)],
    [(10, 45), (10, 19), (7, 31), (7, 29)],
    [(10, 58), (10, 38), (10, 65), (10, 62)],
    [(10, 29), (10, 1), (10, 17), (10, 3)],
    [(10, 4), (10, 0), (8, 0), (8, 0)],
    [(10, 36), (10, 4), (8, 18), (8, 6)],
];

/// How one detector run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Injected run: the race was reported.
    Detected,
    /// Injected run: missed after the metadata was displaced from L2.
    MissedDisplaced,
    /// Injected run: missed otherwise.
    Missed,
    /// Race-free run: this many source-level alarms.
    Alarms(usize),
    /// The run faulted, timed out or its trace could not be read.
    Failed,
}

/// One detector run on one cell: one operation of the workload.
#[derive(Clone, Debug)]
pub struct OpRecord {
    /// Index of the cell in the corpus.
    pub cell: usize,
    /// Index of the detector in [`detector_set`].
    pub detector: usize,
    /// Events dispatched.
    pub events: u64,
    /// Simulated cycles (0 for untimed detectors).
    pub cycles: u64,
    /// The race reports.
    pub reports: Vec<RaceReport>,
    /// Per probe: whether its metadata was lost to L2 displacement.
    pub meta_lost: Vec<bool>,
    /// How the run ended.
    pub verdict: Verdict,
}

impl OpRecord {
    fn same_result(&self, o: &OpRecord) -> bool {
        self.events == o.events
            && self.cycles == o.cycles
            && self.reports == o.reports
            && self.meta_lost == o.meta_lost
            && self.verdict == o.verdict
    }
}

/// One pass over every cell.
pub struct Pass {
    /// One record per detector run, in cell order.
    pub records: Vec<OpRecord>,
    /// Host time of each cell: its read, its four detector runs and
    /// their scoring.
    pub cells: Vec<Duration>,
    /// Host time of the whole pass.
    pub wall: Duration,
}

impl Pass {
    /// Events dispatched in the pass.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.records.iter().map(|r| r.events).sum()
    }

    /// Events per second of the pass's wall time.
    #[must_use]
    pub fn events_per_s(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let events = self.events() as f64;
        events / self.wall.as_secs_f64()
    }
}

/// Runs the four Table 2 detectors over every cell once, reading each
/// cell's trace from its corpus file.
pub fn pass(files: &[CorpusFile], spans: &mut Spans) -> Pass {
    let kinds = detector_set();
    let started = Instant::now();
    let mut records = Vec::with_capacity(files.len() * kinds.len());
    let mut cells = Vec::with_capacity(files.len());
    for (cell, f) in files.iter().enumerate() {
        let cell_started = Instant::now();
        let (read, _) = spans.time("corpus.read_s", || corpus::read_file(&f.path));
        let Ok((trace, injection)) = read else {
            for detector in 0..kinds.len() {
                records.push(failed(cell, detector));
            }
            cells.push(cell_started.elapsed());
            continue;
        };
        let pr = injection.as_ref().map(probes).unwrap_or_default();
        let trace = CellTrace::Packed(trace);
        for (detector, kind) in kinds.iter().enumerate() {
            let (out, _) = spans.time(DETECTOR_LAYERS[detector], || {
                execute_hardened_cell(kind, &trace, &pr, RunLimits::unlimited())
            });
            let (rec, _) = spans.time("campaign.score_s", || match out {
                RunOutcome::Ok(run, m) => OpRecord {
                    cell,
                    detector,
                    events: m.events,
                    cycles: m.cycles,
                    verdict: match &injection {
                        Some(inj) => match score(&run, inj) {
                            BugOutcome::Detected => Verdict::Detected,
                            BugOutcome::MissedDisplaced => Verdict::MissedDisplaced,
                            BugOutcome::Missed => Verdict::Missed,
                        },
                        None => Verdict::Alarms(alarm_sites(&run).len()),
                    },
                    reports: run.reports,
                    meta_lost: run.meta_lost,
                },
                RunOutcome::Faulted { .. } | RunOutcome::TimedOut { .. } => failed(cell, detector),
            });
            records.push(rec);
        }
        cells.push(cell_started.elapsed());
    }
    Pass {
        records,
        cells,
        wall: started.elapsed(),
    }
}

fn failed(cell: usize, detector: usize) -> OpRecord {
    OpRecord {
        cell,
        detector,
        events: 0,
        cycles: 0,
        reports: Vec::new(),
        meta_lost: Vec::new(),
        verdict: Verdict::Failed,
    }
}

/// Table 2's rows from one pass: per application (in corpus order,
/// `1 + runs` cells each) and detector, `(bugs detected, alarms)`.
#[must_use]
pub fn rows(p: &Pass, runs: usize) -> Vec<[(usize, usize); 4]> {
    let per_app = runs + 1;
    let apps = p
        .records
        .iter()
        .map(|r| r.cell / per_app + 1)
        .max()
        .unwrap_or(0);
    let mut rows = vec![[(0, 0); 4]; apps];
    for r in &p.records {
        let row = &mut rows[r.cell / per_app][r.detector];
        match r.verdict {
            Verdict::Detected => row.0 += 1,
            Verdict::Alarms(n) => row.1 += n,
            Verdict::MissedDisplaced | Verdict::Missed | Verdict::Failed => {}
        }
    }
    rows
}

/// The timed phase: whole passes until `seconds` have gone by (at
/// least one), with the set-up repeats that fall due between them, then
/// the output checks.
///
/// The metrics come from each cell's fastest time over the passes:
/// `events_per_s` is a pass's events over the sum of those times, and a
/// report is one cell's row entry (its four detectors' verdicts), so
/// `report_p50_ms` and `report_p99_ms` are quantiles over the cells.
pub fn run(
    files: &[CorpusFile],
    seeds: Seeds,
    sizes: &Sizes,
    seconds: f64,
    setups: &mut Setups,
) -> Outcome {
    let started = Instant::now();
    let mut passes = Vec::new();
    while passes.is_empty() || started.elapsed().as_secs_f64() < seconds {
        passes.push(pass(files, &mut Spans::off()));
        setups.between();
    }
    let peak = setups.peak_mb();
    let mut o = check(files, seeds, sizes, &passes);
    let best = fastest_cells(&passes);
    let wall: Duration = best.iter().sum();
    let lat: Vec<f64> = best.iter().map(|&d| ms(d)).collect();
    // Every pass dispatches the same events (`check` compares them).
    #[allow(clippy::cast_precision_loss)]
    o.metric(
        "events_per_s",
        passes[0].events() as f64 / wall.as_secs_f64(),
        "events/s",
    );
    o.metric("peak_rss_mb", peak, "MiB");
    o.metric("report_p50_ms", median(&lat), "ms");
    o.metric("report_p99_ms", quantile(&lat, 0.99), "ms");
    o
}

/// Each cell's fastest time over `passes`.
fn fastest_cells(passes: &[Pass]) -> Vec<Duration> {
    let mut best = passes[0].cells.clone();
    for p in &passes[1..] {
        for (b, &t) in best.iter_mut().zip(&p.cells) {
            *b = (*b).min(t);
        }
    }
    best
}

/// The sweep's output checks, computed outside the timed passes:
///
/// * every pass repeats the first one exactly;
/// * at the default seed and full size, the pinned events and cycles
///   checksum and Table 2's detection rows;
/// * at any seed, one cell per application replayed through a second
///   path — the materialized trace, the scalar kernel and the plain
///   hardened runner — must give the same reports and cycles.
pub fn check(files: &[CorpusFile], seeds: Seeds, sizes: &Sizes, passes: &[Pass]) -> Outcome {
    let mut o = Outcome::new();
    let first = &passes[0];
    let mut bad = vec![false; first.records.len()];
    for p in passes {
        o.attempted += p.records.len() as u64;
        for (i, r) in p.records.iter().enumerate() {
            if r.verdict == Verdict::Failed {
                o.failed += 1;
            } else if !r.same_result(&first.records[i]) {
                bad[i] = true;
            }
        }
    }
    if seeds.0 == DEFAULT_SEED && sizes.is_full() {
        let (events, cycles) = (first.events(), first.records.iter().map(|r| r.cycles).sum());
        if (events, cycles) != (PINNED_EVENTS, PINNED_CYCLES) {
            o.problem(format!(
                "sweep checksum: {events} events / {cycles} cycles, \
                 pinned {PINNED_EVENTS} / {PINNED_CYCLES}"
            ));
        }
        if rows(first, sizes.sweep_runs) != PINNED_ROWS {
            o.problem(format!(
                "Table 2 rows {:?} differ from the pinned rows",
                rows(first, sizes.sweep_runs)
            ));
        }
    }
    let per_app = sizes.sweep_runs + 1;
    #[allow(clippy::cast_possible_truncation)]
    let pick = if sizes.sweep_runs == 0 {
        0
    } else {
        1 + (seeds.0 % sizes.sweep_runs as u64) as usize
    };
    let mode = kernel::installed();
    kernel::install(KernelMode::Scalar);
    for cell in (pick..files.len()).step_by(per_app) {
        if !second_path_agrees(&files[cell].path, &first.records, cell) {
            for (i, r) in first.records.iter().enumerate() {
                bad[i] |= r.cell == cell;
            }
            o.problem(format!("sweep cell {cell}: second path disagrees"));
        }
    }
    kernel::install(mode);
    let mismatched = bad.iter().filter(|&&b| b).count();
    if mismatched > 0 {
        o.failed += mismatched as u64;
        o.problem(format!(
            "sweep: {mismatched} detector run(s) failed their check"
        ));
    }
    o
}

fn second_path_agrees(path: &std::path::Path, records: &[OpRecord], cell: usize) -> bool {
    let Ok((packed, injection)) = corpus::read_file(path) else {
        return false;
    };
    let trace = packed.to_trace();
    let pr = injection.as_ref().map(probes).unwrap_or_default();
    detector_set().iter().enumerate().all(|(detector, kind)| {
        let Some(rec) = records
            .iter()
            .find(|r| r.cell == cell && r.detector == detector)
        else {
            return false;
        };
        match execute_hardened(kind, &trace, &pr, RunLimits::unlimited()) {
            RunOutcome::Ok(run, m) => {
                m.events == rec.events
                    && m.cycles == rec.cycles
                    && run.reports == rec.reports
                    && run.meta_lost == rec.meta_lost
            }
            _ => false,
        }
    })
}
