//! The `replay` workload: one large recorded corpus streamed from disk
//! through the HARD detector with telemetry off, as `hard-exp replay`
//! does.

use crate::inputs::{CorpusFile, Setups};
use crate::out::{median, ms, quantile, Outcome};
use hard_harness::{
    corpus, execute_hardened, execute_streamed, BenchRecord, DetectorKind, RunLimits, RunOutcome,
};
use hard_trace::RaceReport;
use std::path::Path;
use std::time::{Duration, Instant};

/// One streamed replay's result.
#[derive(Clone, Debug)]
pub struct ReplayOut {
    /// The race reports.
    pub reports: Vec<RaceReport>,
    /// Events replayed.
    pub events: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Host time from opening the file to the returned report.
    pub wall: Duration,
}

impl ReplayOut {
    /// Events per second of the replay's wall time.
    #[must_use]
    pub fn events_per_s(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let events = self.events as f64;
        events / self.wall.as_secs_f64()
    }
}

/// Simulated cycles credited so far to the harness's process-wide run
/// accounting; the difference across a call is that call's cycles.
#[must_use]
pub fn cycles_so_far() -> u64 {
    BenchRecord::capture("perfbench", 1, 1, Duration::ZERO).cycles
}

/// Replays the corpus at `path` through HARD with
/// `corpus::open_streamed` + `execute_streamed`, verifying the event
/// count and payload checksum against the header as `hard-exp replay`
/// does.
///
/// # Errors
///
/// Unreadable or damaged corpora.
pub fn replay_once(path: &Path) -> Result<ReplayOut, String> {
    let kind = DetectorKind::hard_default();
    let c0 = cycles_so_far();
    let t = Instant::now();
    let (header, mut reader) = corpus::open_streamed(path)?;
    let (run, events, fnv) = execute_streamed(&kind, header.num_threads as usize, &mut reader)?;
    let wall = t.elapsed();
    if events != header.events {
        return Err(format!(
            "stream ended after {events} of {} events",
            header.events
        ));
    }
    if fnv != header.payload_fnv {
        return Err("payload checksum mismatch after replay".into());
    }
    Ok(ReplayOut {
        reports: run.reports,
        events,
        cycles: cycles_so_far() - c0,
        wall,
    })
}

/// The reports, events and cycles of the materialized hardened runner
/// on the trace in `path`: the second path the streamed replay is
/// checked against.
///
/// # Errors
///
/// Unreadable or damaged corpora, or a run that does not complete.
pub fn reference(path: &Path) -> Result<(Vec<RaceReport>, u64, u64), String> {
    let (packed, _) = corpus::read_file(path)?;
    let trace = packed.to_trace();
    match execute_hardened(
        &DetectorKind::hard_default(),
        &trace,
        &[],
        RunLimits::unlimited(),
    ) {
        RunOutcome::Ok(run, m) => Ok((run.reports, m.events, m.cycles)),
        other => Err(format!("reference run did not complete: {other:?}")),
    }
}

/// The timed phase: replays until `seconds` have gone by (at least
/// three), with the set-up repeats that fall due between them, then the
/// output checks.
pub fn run(file: &CorpusFile, seconds: f64, setups: &mut Setups) -> Outcome {
    let mut o = Outcome::new();
    let started = Instant::now();
    let mut ok: Vec<ReplayOut> = Vec::new();
    while o.attempted < 3 || started.elapsed().as_secs_f64() < seconds {
        o.attempted += 1;
        match replay_once(&file.path) {
            Ok(r) => ok.push(r),
            Err(e) => {
                o.failed += 1;
                o.problem(format!("replay: {e}"));
            }
        }
        setups.between();
    }
    let peak = setups.peak_mb();
    check(file, &ok, &mut o);
    let events: u64 = ok.iter().map(|r| r.events).sum();
    let wall: Duration = ok.iter().map(|r| r.wall).sum();
    let lat: Vec<f64> = ok.iter().map(|r| ms(r.wall)).collect();
    #[allow(clippy::cast_precision_loss)]
    o.metric(
        "events_per_s",
        events as f64 / wall.as_secs_f64(),
        "events/s",
    );
    o.metric("peak_rss_mb", peak, "MiB");
    o.metric("report_p50_ms", median(&lat), "ms");
    o.metric("report_p99_ms", quantile(&lat, 0.99), "ms");
    o
}

/// Every completed replay must give the reports, event count and
/// cycles of the materialized hardened run on the same file; one that
/// does not counts as a failed operation.
pub fn check(file: &CorpusFile, ok: &[ReplayOut], o: &mut Outcome) {
    match reference(&file.path) {
        Ok((reports, events, cycles)) => {
            let wrong = ok
                .iter()
                .filter(|r| r.reports != reports || r.events != events || r.cycles != cycles)
                .count();
            if wrong > 0 {
                o.failed += wrong as u64;
                o.problem(format!(
                    "replay: {wrong} replay(s) differ from the materialized run"
                ));
            }
            if events != file.events {
                o.problem(format!(
                    "replay: corpus holds {events} events, set-up built {}",
                    file.events
                ));
            }
        }
        Err(e) => o.problem(format!("replay reference: {e}")),
    }
}
