//! Detector execution: the one dispatch core and its drivers.
//!
//! Every detector run in the harness — a materialized or packed
//! campaign cell, a streamed `replay`, a served upload — goes through
//! one private dispatch core, so HARD, HB and the ideal detectors see
//! the same event sequence whichever driver feeds them. The drivers
//! differ only in where events come from (an iterator for traces,
//! [`StreamFeeder`] for byte streams) and what wraps them.
//!
//! The plain [`execute`](crate::detectors::execute) path is the right
//! tool for the paper's fault-free tables: any panic there is a
//! simulator bug and should abort loudly. Fault-injection campaigns
//! invert that contract — the whole point is to drive the machine into
//! states that *would* crash an unhardened implementation — so every
//! run is isolated behind [`std::panic::catch_unwind`] and bounded by a
//! simulated-cycle deadline, and the campaign reports a structured
//! [`RunOutcome`] instead of tearing down the sweep.

use crate::campaign::CellTrace;
use crate::detectors::{DetectorKind, DetectorRun};
use crate::kernel;
use hard::{HardMachine, HbMachine};
use hard_hb::{IdealHappensBefore, IdealHbConfig};
use hard_lockset::bloom_table::BloomLockset;
use hard_lockset::IdealLockset;
use hard_obs::ObsHandle;
use hard_trace::codec;
use hard_trace::packed_event::{ChunkedReader, PackedEvent, RECORD_BYTES};
use hard_trace::{observe_event, Detector, Op, Trace, TraceEvent, BATCH_EVENTS};
use hard_types::{Addr, FaultStats};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Resource bounds for one hardened run.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunLimits {
    /// Simulated-cycle deadline. Checked on the HARD machine, the only
    /// detector with a full timing model; the others ignore it and are
    /// bounded by `max_events` instead.
    pub max_cycles: Option<u64>,
    /// Trace-event deadline, applied to every detector.
    pub max_events: Option<u64>,
}

impl RunLimits {
    /// No bounds: run to completion.
    #[must_use]
    pub const fn unlimited() -> RunLimits {
        RunLimits {
            max_cycles: None,
            max_events: None,
        }
    }
}

/// Resource accounting for one completed run: fault statistics plus
/// the cycle/traffic attribution the observability spans carry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunMetrics {
    /// Fault-injection statistics (all-zero for detectors without a
    /// fault layer).
    pub faults: FaultStats,
    /// Simulated cycles consumed (0 for untimed detectors).
    pub cycles: u64,
    /// Trace events dispatched.
    pub events: u64,
    /// §3.4 metadata broadcasts issued (hardware detectors only).
    pub meta_broadcasts: u64,
    /// L2 evictions, each losing a line's metadata (hardware detectors
    /// only).
    pub l2_evictions: u64,
}

/// The structured result of one hardened run.
#[derive(Clone, Debug)]
pub enum RunOutcome {
    /// The run finished, with its resource metrics.
    Ok(DetectorRun, RunMetrics),
    /// The detector panicked; the run is charged as a crash, not
    /// silently dropped.
    Faulted {
        /// The panic payload, if it was a string.
        message: String,
    },
    /// A deadline expired before the trace was consumed.
    TimedOut {
        /// Events consumed before the deadline.
        events_done: u64,
        /// Simulated cycles at expiry (0 for untimed detectors).
        cycles: u64,
    },
}

impl RunOutcome {
    /// True for [`RunOutcome::Faulted`].
    #[must_use]
    pub fn is_faulted(&self) -> bool {
        matches!(self, RunOutcome::Faulted { .. })
    }

    /// True for [`RunOutcome::TimedOut`].
    #[must_use]
    pub fn is_timed_out(&self) -> bool {
        matches!(self, RunOutcome::TimedOut { .. })
    }
}

/// How often the deadline is checked, in events. Checking per event
/// would double the dispatch cost for nothing; any overshoot is
/// bounded by this constant. It equals the batch size, so the check
/// lands right after each full batch and batched and per-event runs
/// time out at the same `(events_done, cycles)`.
const DEADLINE_STRIDE: u64 = 256;

const _: () = assert!(DEADLINE_STRIDE == BATCH_EVENTS as u64);

enum AnyDetector {
    Hard(Box<HardMachine>),
    LocksetIdeal(Box<IdealLockset>),
    HbHw(Box<HbMachine>),
    HbIdeal(Box<IdealHappensBefore>),
    BloomUnbounded(Box<BloomLockset>),
}

impl AnyDetector {
    fn build(kind: &DetectorKind, num_threads: usize, obs: &ObsHandle) -> AnyDetector {
        match kind {
            DetectorKind::Hard(cfg) => {
                let mut m = Box::new(HardMachine::new(*cfg));
                m.attach_recorder(obs.clone());
                m.set_lane_kernel(kernel::installed().lane_kernel());
                AnyDetector::Hard(m)
            }
            DetectorKind::LocksetIdeal(cfg) => {
                AnyDetector::LocksetIdeal(Box::new(IdealLockset::new(*cfg)))
            }
            DetectorKind::HbHw(cfg) => {
                let mut m = Box::new(HbMachine::new(*cfg));
                m.attach_recorder(obs.clone());
                AnyDetector::HbHw(m)
            }
            DetectorKind::HbIdeal { granularity } => {
                AnyDetector::HbIdeal(Box::new(IdealHappensBefore::new(IdealHbConfig {
                    num_threads,
                    granularity: *granularity,
                })))
            }
            DetectorKind::BloomUnbounded(cfg) => {
                AnyDetector::BloomUnbounded(Box::new(BloomLockset::new(*cfg)))
            }
        }
    }

    fn on_event(&mut self, index: usize, e: &hard_trace::TraceEvent) {
        match self {
            AnyDetector::Hard(m) => m.on_event(index, e),
            AnyDetector::LocksetIdeal(d) => d.on_event(index, e),
            AnyDetector::HbHw(m) => m.on_event(index, e),
            AnyDetector::HbIdeal(d) => d.on_event(index, e),
            AnyDetector::BloomUnbounded(d) => d.on_event(index, e),
        }
    }

    fn on_batch(&mut self, index: usize, events: &[TraceEvent]) {
        match self {
            // HARD overrides on_batch with its vectorized span kernel;
            // the rest run the trait's default per-event loop.
            AnyDetector::Hard(m) => m.on_batch(index, events),
            AnyDetector::LocksetIdeal(d) => d.on_batch(index, events),
            AnyDetector::HbHw(m) => m.on_batch(index, events),
            AnyDetector::HbIdeal(d) => d.on_batch(index, events),
            AnyDetector::BloomUnbounded(d) => d.on_batch(index, events),
        }
    }

    fn cycles(&self) -> u64 {
        match self {
            // HARD is the only detector with a full timing model; the
            // others fall back to the event deadline.
            AnyDetector::Hard(m) => m.total_cycles().0,
            _ => 0,
        }
    }

    fn fault_stats(&self) -> FaultStats {
        match self {
            AnyDetector::Hard(m) => m.fault_stats(),
            _ => FaultStats::default(),
        }
    }

    /// `(meta_broadcasts, l2_evictions)` for the hardware detectors;
    /// the ideal detectors have no memory hierarchy.
    fn traffic(&self) -> (u64, u64) {
        match self {
            AnyDetector::Hard(m) => (m.stats().meta_broadcasts, m.stats().l2_evictions),
            AnyDetector::HbHw(m) => (m.stats().meta_broadcasts, m.stats().l2_evictions),
            _ => (0, 0),
        }
    }

    fn finish(self, probes: &[Addr]) -> DetectorRun {
        match self {
            AnyDetector::Hard(m) => DetectorRun {
                reports: m.reports().to_vec(),
                meta_lost: probes.iter().map(|&a| m.was_meta_lost(a)).collect(),
            },
            AnyDetector::LocksetIdeal(d) => DetectorRun {
                reports: d.reports().to_vec(),
                meta_lost: vec![false; probes.len()],
            },
            AnyDetector::HbHw(m) => DetectorRun {
                reports: m.reports().to_vec(),
                meta_lost: probes.iter().map(|&a| m.was_meta_lost(a)).collect(),
            },
            AnyDetector::HbIdeal(d) => DetectorRun {
                reports: d.reports().to_vec(),
                meta_lost: vec![false; probes.len()],
            },
            AnyDetector::BloomUnbounded(d) => DetectorRun {
                reports: d.reports().to_vec(),
                meta_lost: vec![false; probes.len()],
            },
        }
    }
}

/// A deadline passed: events consumed and simulated cycles at expiry.
struct Expired {
    events_done: u64,
    cycles: u64,
}

/// The one dispatch loop every detector run goes through: it owns the
/// detector, the kernel mode and observability handle latched at
/// construction, the [`BATCH_EVENTS`] buffer, the global event index
/// and the deadline. Drivers only differ in where events come from.
struct DispatchCore {
    d: AnyDetector,
    obs: ObsHandle,
    /// Batched dispatch: the kernel mode asks for it and no recorder is
    /// on. The observed path stays per-event so trace-level counters
    /// and detector work interleave exactly as they always have.
    batched: bool,
    buf: Vec<TraceEvent>,
    /// Events pushed so far (the global index of the next one).
    events: u64,
    limits: RunLimits,
}

impl DispatchCore {
    fn new(kind: &DetectorKind, num_threads: usize, limits: RunLimits, obs: ObsHandle) -> Self {
        let batched = kernel::installed().is_batched() && !obs.is_on();
        DispatchCore {
            d: AnyDetector::build(kind, num_threads, &obs),
            obs,
            batched,
            buf: Vec::with_capacity(if batched { BATCH_EVENTS } else { 0 }),
            events: 0,
            limits,
        }
    }

    /// Dispatches one event, or buffers it until a batch is full.
    ///
    /// # Errors
    ///
    /// [`Expired`] once a deadline has passed; the run is over.
    fn push(&mut self, e: TraceEvent) -> Result<(), Expired> {
        let index = self.events as usize;
        self.events += 1;
        if self.batched {
            self.buf.push(e);
            if self.buf.len() == BATCH_EVENTS {
                self.flush();
            }
        } else {
            if self.obs.is_on() {
                observe_event(&self.obs, &e);
            }
            self.d.on_event(index, &e);
        }
        if self.events.is_multiple_of(DEADLINE_STRIDE) {
            self.deadline_check()?;
        }
        Ok(())
    }

    /// Hands the buffered events to the detector's batch kernel.
    fn flush(&mut self) {
        if !self.buf.is_empty() {
            let base = self.events as usize - self.buf.len();
            self.d.on_batch(base, &self.buf);
            self.buf.clear();
        }
    }

    fn deadline_check(&self) -> Result<(), Expired> {
        if self.limits.max_events.is_some_and(|max| self.events >= max)
            || self
                .limits
                .max_cycles
                .is_some_and(|max| self.d.cycles() >= max)
        {
            return Err(Expired {
                events_done: self.events,
                cycles: self.d.cycles(),
            });
        }
        Ok(())
    }

    /// Dispatches the tail batch and wraps up the completed run with
    /// its resource metrics, crediting it to the bench accumulator.
    fn finish(mut self, probes: &[Addr]) -> (DetectorRun, RunMetrics) {
        self.flush();
        let (meta_broadcasts, l2_evictions) = self.d.traffic();
        let metrics = RunMetrics {
            faults: self.d.fault_stats(),
            cycles: self.d.cycles(),
            events: self.events,
            meta_broadcasts,
            l2_evictions,
        };
        crate::bench::account(metrics.events, metrics.cycles);
        (self.d.finish(probes), metrics)
    }
}

/// Feeds `events` through a fresh [`DispatchCore`]: the driver for
/// materialized and packed traces alike, so a detector cannot tell
/// them apart.
pub(crate) fn run_events(
    kind: &DetectorKind,
    num_threads: usize,
    events: impl Iterator<Item = TraceEvent>,
    probes: &[Addr],
    limits: RunLimits,
    obs: &ObsHandle,
) -> RunOutcome {
    let mut core = DispatchCore::new(kind, num_threads, limits, obs.clone());
    for e in events {
        if let Err(Expired {
            events_done,
            cycles,
        }) = core.push(e)
        {
            return RunOutcome::TimedOut {
                events_done,
                cycles,
            };
        }
    }
    let (run, metrics) = core.finish(probes);
    RunOutcome::Ok(run, metrics)
}

/// Runs `kind` over `trace` with panic isolation and deadlines, using
/// the process-global observability handle ([`hard_obs::installed`]).
///
/// Unlimited, with a detector that completes and no recorder
/// installed, this produces exactly the reports of
/// [`execute`](crate::detectors::execute) on the same inputs — the
/// hardened path adds containment, not behaviour.
#[must_use]
pub fn execute_hardened(
    kind: &DetectorKind,
    trace: &Trace,
    probes: &[Addr],
    limits: RunLimits,
) -> RunOutcome {
    let events = trace.events.iter().copied();
    let obs = hard_obs::installed();
    hardened(kind, trace.num_threads, events, probes, limits, &obs)
}

/// [`execute_hardened`] over whichever representation the campaign
/// produced ([`CellTrace`]): a packed trace is decoded record by record
/// on the stack, never materialized, and the detector observes the
/// identical event sequence either way.
#[must_use]
pub fn execute_hardened_cell(
    kind: &DetectorKind,
    trace: &CellTrace,
    probes: &[Addr],
    limits: RunLimits,
) -> RunOutcome {
    execute_hardened_cell_observed(kind, trace, probes, limits, &hard_obs::installed())
}

/// [`execute_hardened_cell`] with an explicit observability handle: the
/// whole run is wrapped in a `run:<detector>` span carrying
/// cycle/event attribution, trace events are classified into
/// per-op-class counters, and the hardware machines emit their
/// detection-pipeline metrics.
#[must_use]
pub fn execute_hardened_cell_observed(
    kind: &DetectorKind,
    trace: &CellTrace,
    probes: &[Addr],
    limits: RunLimits,
    obs: &ObsHandle,
) -> RunOutcome {
    match trace {
        CellTrace::Materialized(t) => {
            let events = t.events.iter().copied();
            hardened(kind, t.num_threads, events, probes, limits, obs)
        }
        CellTrace::Packed(p) => hardened(kind, p.num_threads(), p.iter(), probes, limits, obs),
    }
}

/// [`run_events`] inside the containment every hardened run gets:
/// `run:<detector>` span, panic isolation, and bench accounting for
/// the runs that never reach [`DispatchCore::finish`].
fn hardened(
    kind: &DetectorKind,
    num_threads: usize,
    events: impl Iterator<Item = TraceEvent>,
    probes: &[Addr],
    limits: RunLimits,
    obs: &ObsHandle,
) -> RunOutcome {
    let timer = obs.span(|| format!("run:{}", kind.label()));
    let run = || run_events(kind, num_threads, events, probes, limits, obs);
    let outcome = match catch_unwind(AssertUnwindSafe(run)) {
        Ok(outcome) => outcome,
        Err(payload) => {
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            RunOutcome::Faulted { message }
        }
    };
    let (cycles, events) = match &outcome {
        RunOutcome::Ok(_, m) => (m.cycles, m.events),
        RunOutcome::TimedOut {
            events_done,
            cycles,
        } => (*cycles, *events_done),
        RunOutcome::Faulted { .. } => (0, 0),
    };
    if !matches!(outcome, RunOutcome::Ok(..)) {
        crate::bench::account(events, cycles);
    }
    obs.span_end(timer, cycles, events);
    outcome
}

/// Replays a file-backed packed record stream through `kind` without
/// ever holding the payload in memory: the double-buffered
/// [`ChunkedReader`] overlaps disk reads with detection while a
/// [`StreamFeeder`] decodes and dispatches each chunk.
///
/// Returns the completed run, the number of events dispatched and the
/// accumulated payload hash.
///
/// # Errors
///
/// Returns a description of any I/O error or undecodable record. The
/// stream has no ground-truth probes, so `meta_lost` is empty.
pub fn execute_streamed(
    kind: &DetectorKind,
    num_threads: usize,
    reader: &mut ChunkedReader,
) -> Result<(DetectorRun, u64, u64), String> {
    let mut feeder = StreamFeeder::new(kind, num_threads);
    while let Some(chunk) = reader.next_chunk() {
        let chunk = chunk.map_err(|e| format!("stream read failed: {e}"))?;
        feeder.feed(&chunk)?;
    }
    feeder.finish()
}

/// The push-style driver over the dispatch core for byte streams: the
/// caller hands over packed-record bytes *as they arrive* — off the
/// wire in the async serve tier, off disk in [`execute_streamed`] — in
/// any chunking, record-aligned or not, and the detector consumes them
/// incrementally, so a session's memory footprint is one chunk plus
/// detector state, never the whole trace.
///
/// For the same byte sequence [`StreamFeeder::finish`] returns the
/// same reports, event count, payload FNV and error strings at the
/// same record indices regardless of how the bytes were split across
/// [`StreamFeeder::feed`] calls: a partial record is carried to the
/// next call, and the batch kernel's windows live in the core.
pub struct StreamFeeder {
    core: DispatchCore,
    num_threads: usize,
    /// Partial record carried across a feed boundary.
    carry: [u8; RECORD_BYTES],
    carry_len: usize,
    fnv: u64,
}

impl StreamFeeder {
    /// Builds the detector for `kind` and an empty feed state, latching
    /// the kernel mode and the process-global observability handle.
    #[must_use]
    pub fn new(kind: &DetectorKind, num_threads: usize) -> StreamFeeder {
        let obs = hard_obs::installed();
        StreamFeeder {
            core: DispatchCore::new(kind, num_threads, RunLimits::unlimited(), obs),
            num_threads,
            carry: [0u8; RECORD_BYTES],
            carry_len: 0,
            fnv: codec::FNV1A_INIT,
        }
    }

    fn decode(&mut self, rec: &[u8; RECORD_BYTES]) -> Result<(), String> {
        let index = self.core.events;
        let e = PackedEvent::from_bytes(rec)
            .unpack()
            .map_err(|e| format!("record {index}: {e}"))?;
        // Detectors size per-thread state by the thread ids they see,
        // so a record naming a thread the header does not declare is
        // rejected here, as `Trace::validate` rejects it for codec
        // traces.
        if let TraceEvent::Op { thread, op } = e {
            let child = match op {
                Op::Fork { child, .. } | Op::Join { child, .. } => Some(child),
                _ => None,
            };
            if let Some(t) = std::iter::once(thread)
                .chain(child)
                .find(|t| t.index() >= self.num_threads)
            {
                return Err(format!("record {index}: thread {t} out of range"));
            }
        }
        // The core runs without deadlines, so `push` never times out.
        let _ = self.core.push(e);
        Ok(())
    }

    /// Consumes the next chunk of packed-record bytes. Every whole
    /// record is decoded before a trailing partial one is judged (at
    /// [`StreamFeeder::finish`]).
    ///
    /// # Errors
    ///
    /// Returns `record {index}: {cause}` for an undecodable record.
    /// After an error the feeder state is spent; callers drop it.
    pub fn feed(&mut self, mut bytes: &[u8]) -> Result<(), String> {
        self.fnv = codec::fnv1a_update(self.fnv, bytes);
        if self.carry_len > 0 {
            let need = RECORD_BYTES - self.carry_len;
            let take = need.min(bytes.len());
            self.carry[self.carry_len..self.carry_len + take].copy_from_slice(&bytes[..take]);
            self.carry_len += take;
            bytes = &bytes[take..];
            if self.carry_len < RECORD_BYTES {
                return Ok(());
            }
            let rec = self.carry;
            self.carry_len = 0;
            self.decode(&rec)?;
        }
        let whole = bytes.len() - bytes.len() % RECORD_BYTES;
        for rec in bytes[..whole].chunks_exact(RECORD_BYTES) {
            self.decode(rec.try_into().expect("16-byte record"))?;
        }
        let tail = &bytes[whole..];
        self.carry[..tail.len()].copy_from_slice(tail);
        self.carry_len = tail.len();
        Ok(())
    }

    /// Completes the stream: dispatches the tail batch, accounts the
    /// run, and returns `(run, events, payload_fnv)`.
    ///
    /// # Errors
    ///
    /// `stream ends mid-record (N bytes over)` when the byte total is
    /// not a whole number of records.
    pub fn finish(self) -> Result<(DetectorRun, u64, u64), String> {
        if self.carry_len != 0 {
            return Err(format!(
                "stream ends mid-record ({} bytes over)",
                self.carry_len
            ));
        }
        let (run, metrics) = self.core.finish(&[]);
        Ok((run, metrics.events, self.fnv))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detectors::execute;
    use hard::HardConfig;
    use hard_trace::{PackedTrace, ProgramBuilder, SchedConfig, Scheduler};
    use hard_types::{FaultPlan, SiteId};

    fn racy_trace() -> Trace {
        let mut b = ProgramBuilder::new(2);
        for t in 0..2u32 {
            let tp = b.thread(t);
            for i in 0..400u64 {
                tp.write(Addr(0x1000 + (i % 4) * 32), 4, SiteId(t * 1000 + i as u32))
                    .compute(50);
            }
        }
        Scheduler::new(SchedConfig::default()).run(&b.build())
    }

    #[test]
    fn unlimited_hardened_run_matches_plain_execute() {
        let trace = racy_trace();
        for kind in [
            DetectorKind::hard_default(),
            DetectorKind::lockset_ideal(),
            DetectorKind::hb_default(),
            DetectorKind::hb_ideal(),
        ] {
            let plain = execute(&kind, &trace, &[Addr(0x1000)]);
            let hardened = execute_hardened(&kind, &trace, &[Addr(0x1000)], RunLimits::unlimited());
            let RunOutcome::Ok(run, _) = hardened else {
                panic!("{kind}: hardened run must complete");
            };
            assert_eq!(run.reports, plain.reports, "{kind}");
            assert_eq!(run.meta_lost, plain.meta_lost, "{kind}");
        }
    }

    #[test]
    fn cycle_deadline_times_out_long_runs() {
        let trace = racy_trace();
        let limits = RunLimits {
            max_cycles: Some(100),
            max_events: None,
        };
        let out = execute_hardened(&DetectorKind::hard_default(), &trace, &[], limits);
        let RunOutcome::TimedOut {
            events_done,
            cycles,
        } = out
        else {
            panic!("a 100-cycle budget cannot cover 80 timed accesses");
        };
        assert!(events_done < trace.len() as u64);
        assert!(cycles >= 100);
    }

    #[test]
    fn event_deadline_applies_to_untimed_detectors() {
        let trace = racy_trace();
        let limits = RunLimits {
            max_cycles: None,
            max_events: Some(DEADLINE_STRIDE),
        };
        let out = execute_hardened(&DetectorKind::lockset_ideal(), &trace, &[], limits);
        assert!(out.is_timed_out(), "got {out:?}");
    }

    #[test]
    fn faulted_machines_still_return_structured_outcomes() {
        // A heavy fault plan exercises the degradation paths; the
        // hardened runner must come back with Ok + populated stats,
        // never a propagated panic.
        let trace = racy_trace();
        let cfg = HardConfig::default().with_faults(FaultPlan::uniform(1, 300_000));
        let out = execute_hardened(
            &DetectorKind::Hard(cfg),
            &trace,
            &[Addr(0x1000)],
            RunLimits::unlimited(),
        );
        let RunOutcome::Ok(_, m) = out else {
            panic!("degradation must absorb faults: {out:?}");
        };
        assert!(m.faults.injected() > 0);
    }

    #[test]
    fn completed_runs_carry_resource_metrics() {
        let trace = racy_trace();
        let out = execute_hardened(
            &DetectorKind::hard_default(),
            &trace,
            &[],
            RunLimits::unlimited(),
        );
        let RunOutcome::Ok(_, m) = out else {
            panic!("must complete: {out:?}");
        };
        assert_eq!(m.events, trace.len() as u64);
        assert!(m.cycles > 0, "HARD is the timed detector");
        assert_eq!(m.faults, hard_types::FaultStats::default());
        // The untimed ideal detector reports zero cycles and traffic.
        let out = execute_hardened(
            &DetectorKind::lockset_ideal(),
            &trace,
            &[],
            RunLimits::unlimited(),
        );
        let RunOutcome::Ok(_, m) = out else {
            panic!("must complete")
        };
        assert_eq!((m.cycles, m.meta_broadcasts, m.l2_evictions), (0, 0, 0));
        assert_eq!(m.events, trace.len() as u64);
    }

    #[test]
    fn observed_run_matches_and_records_a_span() {
        use hard_obs::{CounterId, MemoryRecorder, ObsHandle};
        use std::sync::Arc;
        let trace = racy_trace();
        let kind = DetectorKind::hard_default();
        let plain = execute_hardened(&kind, &trace, &[Addr(0x1000)], RunLimits::unlimited());
        let rec = Arc::new(MemoryRecorder::new());
        let obs = ObsHandle::new(rec.clone());
        let observed = execute_hardened_cell_observed(
            &kind,
            &CellTrace::Materialized(trace.clone()),
            &[Addr(0x1000)],
            RunLimits::unlimited(),
            &obs,
        );
        let (RunOutcome::Ok(a, ma), RunOutcome::Ok(b, mb)) = (&plain, &observed) else {
            panic!("both must complete");
        };
        assert_eq!(a.reports, b.reports, "observability must not perturb");
        assert_eq!(ma, mb);
        let snap = rec.snapshot();
        assert_eq!(snap.counter(CounterId::TraceEvents), trace.len() as u64);
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].name, "run:HARD");
        assert_eq!(snap.spans[0].cycles, ma.cycles);
        assert_eq!(snap.spans[0].events, ma.events);
        assert_eq!(snap.counter(CounterId::BroadcastsSent), ma.meta_broadcasts);
    }

    /// Runs `f` under `mode`, then restores whatever mode was
    /// installed. Safe under parallel tests precisely because every
    /// mode is bit-identical — a test racing this one cannot observe a
    /// different outcome, only a different (equally correct) speed.
    fn with_kernel_mode<T>(mode: crate::kernel::KernelMode, f: impl FnOnce() -> T) -> T {
        let before = crate::kernel::installed();
        crate::kernel::install(mode);
        let out = f();
        crate::kernel::install(before);
        out
    }

    #[test]
    fn batch_kernel_mode_is_bit_identical_to_scalar() {
        use crate::kernel::KernelMode;
        let trace = racy_trace();
        let packed = CellTrace::Packed(std::sync::Arc::new(
            PackedTrace::from_trace(&trace).unwrap(),
        ));
        let probes = [Addr(0x1000)];
        for kind in [
            DetectorKind::hard_default(),
            DetectorKind::lockset_ideal(),
            DetectorKind::hb_default(),
            DetectorKind::hb_ideal(),
        ] {
            let run = |mode| {
                with_kernel_mode(mode, || {
                    (
                        execute_hardened(&kind, &trace, &probes, RunLimits::unlimited()),
                        execute_hardened_cell(&kind, &packed, &probes, RunLimits::unlimited()),
                    )
                })
            };
            let (s, sp) = run(KernelMode::Scalar);
            for mode in [KernelMode::Batch, KernelMode::Auto] {
                let (b, bp) = run(mode);
                for (scalar, batch) in [(&s, &b), (&sp, &bp)] {
                    let (RunOutcome::Ok(sr, sm), RunOutcome::Ok(br, bm)) = (scalar, batch) else {
                        panic!("{kind}: both kernels must complete");
                    };
                    assert_eq!(sr.reports, br.reports, "{kind}/{mode:?}");
                    assert_eq!(sr.meta_lost, br.meta_lost, "{kind}/{mode:?}");
                    assert_eq!(sm, bm, "{kind}/{mode:?}: metrics must match");
                }
            }
        }
    }

    #[test]
    fn batch_kernel_times_out_at_the_same_event_counts() {
        use crate::kernel::KernelMode;
        let trace = racy_trace();
        for limits in [
            RunLimits {
                max_cycles: None,
                max_events: Some(300),
            },
            RunLimits {
                max_cycles: Some(5_000),
                max_events: None,
            },
        ] {
            let kind = DetectorKind::hard_default();
            let run =
                |mode| with_kernel_mode(mode, || execute_hardened(&kind, &trace, &[], limits));
            let (s, b) = (run(KernelMode::Scalar), run(KernelMode::Batch));
            let (
                RunOutcome::TimedOut {
                    events_done: se,
                    cycles: sc,
                },
                RunOutcome::TimedOut {
                    events_done: be,
                    cycles: bc,
                },
            ) = (&s, &b)
            else {
                panic!("both must time out: {s:?} / {b:?}");
            };
            assert_eq!((se, sc), (be, bc), "identical overshoot required");
        }
    }

    #[test]
    fn streamed_replay_is_kernel_mode_invariant() {
        use crate::kernel::KernelMode;
        use hard_trace::codec;
        let trace = racy_trace();
        let packed = PackedTrace::from_trace(&trace).unwrap();
        let kind = DetectorKind::hard_default();
        let run = |mode| {
            with_kernel_mode(mode, || {
                // Odd chunk size: batch boundaries and chunk boundaries
                // must not need to line up.
                let mut reader =
                    ChunkedReader::spawn(std::io::Cursor::new(packed.bytes().to_vec()), 97);
                execute_streamed(&kind, trace.num_threads, &mut reader).unwrap()
            })
        };
        let (sr, se, sf) = run(KernelMode::Scalar);
        let (br, be, bf) = run(KernelMode::Batch);
        assert_eq!(sr.reports, br.reports);
        assert_eq!((se, sf), (be, bf), "event count and FNV must match");
        assert_eq!(sf, codec::fnv1a_update(codec::FNV1A_INIT, packed.bytes()));
    }

    #[test]
    fn stream_feeder_matches_execute_streamed_for_any_chunking() {
        use crate::kernel::KernelMode;
        let trace = racy_trace();
        let packed = PackedTrace::from_trace(&trace).unwrap();
        for kind in [DetectorKind::hard_default(), DetectorKind::lockset_ideal()] {
            for mode in [KernelMode::Scalar, KernelMode::Batch] {
                let expected = with_kernel_mode(mode, || {
                    let mut reader =
                        ChunkedReader::spawn(std::io::Cursor::new(packed.bytes().to_vec()), 97);
                    execute_streamed(&kind, trace.num_threads, &mut reader).unwrap()
                });
                // Chunk sizes that split records mid-way (7, 13), align
                // (16), and straddle batch windows (4095) must all be
                // invisible to the result.
                for chunk in [7usize, 13, 16, 4095] {
                    let got = with_kernel_mode(mode, || {
                        let mut feeder = StreamFeeder::new(&kind, trace.num_threads);
                        for piece in packed.bytes().chunks(chunk) {
                            feeder.feed(piece).unwrap();
                        }
                        feeder.finish().unwrap()
                    });
                    assert_eq!(got.0.reports, expected.0.reports, "{kind} chunk={chunk}");
                    assert_eq!(
                        (got.1, got.2),
                        (expected.1, expected.2),
                        "{kind} chunk={chunk}"
                    );
                }
            }
        }
    }

    #[test]
    fn stream_feeder_reports_truncation_like_the_pull_path() {
        let trace = racy_trace();
        let packed = PackedTrace::from_trace(&trace).unwrap();
        let kind = DetectorKind::lockset_ideal();
        let truncated = &packed.bytes()[..packed.bytes().len() - 5];
        let mut feeder = StreamFeeder::new(&kind, trace.num_threads);
        feeder.feed(truncated).unwrap();
        let err = feeder.finish().expect_err("mid-record stream must fail");
        let mut reader = ChunkedReader::spawn(std::io::Cursor::new(truncated.to_vec()), 1 << 14);
        let pull_err = execute_streamed(&kind, trace.num_threads, &mut reader)
            .expect_err("mid-record stream must fail");
        assert_eq!(err, pull_err);
        assert!(err.contains("mid-record"), "{err}");

        // A corrupt record and a partial one in the same final chunk:
        // every whole record is decoded before the tail is judged, on
        // the served and the offline path alike.
        let mut corrupt = packed.bytes().to_vec();
        corrupt[10 * RECORD_BYTES] = (corrupt[10 * RECORD_BYTES] & 0xF0) | 9;
        corrupt.extend_from_slice(&[0u8; 3]);
        let mut feeder = StreamFeeder::new(&kind, trace.num_threads);
        let err = feeder.feed(&corrupt).expect_err("corrupt record must fail");
        let mut reader = ChunkedReader::spawn(
            std::io::Cursor::new(corrupt),
            hard_trace::packed_event::DEFAULT_CHUNK_RECORDS,
        );
        let pull_err = execute_streamed(&kind, trace.num_threads, &mut reader)
            .expect_err("corrupt record must fail");
        assert_eq!(err, pull_err);
        assert_eq!(err, "record 10: unknown packed event tag 9");
    }

    #[test]
    fn stream_feeder_rejects_threads_the_header_does_not_declare() {
        let trace = racy_trace();
        let packed = PackedTrace::from_trace(&trace).unwrap();
        let mut feeder = StreamFeeder::new(&DetectorKind::hard_default(), 1);
        let err = feeder
            .feed(packed.bytes())
            .expect_err("a 1-thread header cannot carry thread 1");
        assert!(err.contains("out of range"), "{err}");
    }

    #[test]
    fn panics_are_contained_and_reported() {
        let caught = catch_unwind(|| panic!("boom")).is_err();
        assert!(caught);
        // Simulate a faulting detector through the public surface: the
        // closure-level containment is what execute_hardened wraps.
        let out: RunOutcome = match catch_unwind(AssertUnwindSafe(|| -> RunOutcome {
            panic!("injected crash")
        })) {
            Ok(o) => o,
            Err(p) => RunOutcome::Faulted {
                message: p
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .unwrap_or_default(),
            },
        };
        assert!(out.is_faulted());
    }
}
