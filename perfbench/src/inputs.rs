//! Seeded workload inputs: trace generation, packing and encoding
//! (the timed set-up) and writing the encoded corpora to disk (timed
//! apart from set-up).

use crate::out::vm_hwm_mb;
use hard_harness::corpus;
use hard_trace::{PackedTrace, SchedConfig, Scheduler, Trace};
use hard_workloads::{inject_race, App, Injection, Scale, WorkloadConfig};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The seed at which every workload reproduces the repository's own
/// campaign inputs: `sweep` is then `hard-exp table2 --scale 0.3
/// --runs 10`, `replay` is `hard-exp record --app water-nsquared
/// --packed --scale 10`.
pub const DEFAULT_SEED: u64 = 0;

/// Threads per generated program, as in the paper.
const THREADS: usize = 4;
/// Scheduler quantum bound of the campaign.
const MAX_QUANTUM: u32 = 16;

/// Derives the generator seeds from the benchmark seed. At
/// [`DEFAULT_SEED`] each derived seed equals the one the campaign
/// (`hard_harness::campaign`) uses. Any other seed shifts the scheduler
/// seeds (the interleaving) and the injection seeds (which critical
/// section loses its lock), but not the programs' structure seed: every
/// seed runs the same six programs, so a seed changes the execution
/// measured, not the application.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Seeds(pub u64);

impl Seeds {
    fn offset(self, salt: u64) -> u64 {
        if self.0 == DEFAULT_SEED {
            return 0;
        }
        // splitmix64 finaliser: distinct salts give unrelated offsets.
        let mut z = self.0 ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn workload(self, app: App, scale: f64) -> WorkloadConfig {
        WorkloadConfig {
            num_threads: THREADS,
            seed: 0xA00 + app as u64,
            scale: Scale::Reduced(scale),
        }
    }

    fn race_free_sched(self, app: App) -> u64 {
        (0x5EED_0000 + app as u64).wrapping_add(self.offset(2))
    }

    fn inject(self, run: usize) -> u64 {
        (0xBEEF + run as u64).wrapping_add(self.offset(3))
    }

    fn injected_sched(self, app: App, run: usize) -> u64 {
        (0x1000_0000 + (app as u64) * 1000 + run as u64).wrapping_add(self.offset(4))
    }
}

/// Input sizes. [`Sizes::FULL`] is what the benchmark measures; tests
/// use smaller ones.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Workload scale of the sweep's traces.
    pub sweep_scale: f64,
    /// Injected runs per application in the sweep.
    pub sweep_runs: usize,
    /// Workload scale of the replay corpus (water-nsquared).
    pub replay_scale: f64,
    /// Workload scale of each served session's trace.
    pub serve_scale: f64,
}

impl Sizes {
    /// The measured sizes: Table 2 at 0.3 × 10 runs, a 463 k-event
    /// replay corpus at the default seed and sessions of about ten
    /// thousand events. The replay corpus is a third of the 1.39 M-event
    /// scale-30 recording: that one's simulated hierarchy and lost-
    /// metadata set outgrow what a shared host cache keeps steady, and
    /// its replay times spread twice as wide.
    pub const FULL: Sizes = Sizes {
        sweep_scale: 0.3,
        sweep_runs: 10,
        replay_scale: 10.0,
        serve_scale: 0.05,
    };

    /// True for the sizes the Table 2 pins were taken at.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.sweep_scale == Sizes::FULL.sweep_scale && self.sweep_runs == Sizes::FULL.sweep_runs
    }
}

/// One trace to build: an application, its scale, and either the
/// race-free execution (`run: None`) or injected run `run`.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// The application.
    pub app: App,
    /// Workload scale.
    pub scale: f64,
    /// `None` for the race-free execution, `Some(i)` for injected run `i`.
    pub run: Option<usize>,
}

/// The sweep's cells in the campaign's order: per application, the
/// race-free execution then every injected run.
#[must_use]
pub fn sweep_specs(sizes: &Sizes) -> Vec<Spec> {
    let mut specs = Vec::new();
    for app in App::all() {
        specs.push(Spec {
            app,
            scale: sizes.sweep_scale,
            run: None,
        });
        for run in 0..sizes.sweep_runs {
            specs.push(Spec {
                app,
                scale: sizes.sweep_scale,
                run: Some(run),
            });
        }
    }
    specs
}

/// The replay corpus: one large race-free water-nsquared execution.
#[must_use]
pub fn replay_specs(sizes: &Sizes) -> Vec<Spec> {
    vec![Spec {
        app: App::WaterNsquared,
        scale: sizes.replay_scale,
        run: None,
    }]
}

/// The served sessions' traces: one race-free execution per
/// application.
#[must_use]
pub fn serve_specs(sizes: &Sizes) -> Vec<Spec> {
    App::all()
        .into_iter()
        .map(|app| Spec {
            app,
            scale: sizes.serve_scale,
            run: None,
        })
        .collect()
}

/// Generates the trace `spec` names under `seeds`: program generation,
/// race injection and scheduling.
///
/// # Errors
///
/// When the program has no critical section to inject a race into.
pub fn generate(spec: &Spec, seeds: Seeds) -> Result<(Trace, Option<Injection>), String> {
    let program = spec.app.generate(&seeds.workload(spec.app, spec.scale));
    let (program, injection, sched) = match spec.run {
        None => (program, None, seeds.race_free_sched(spec.app)),
        Some(run) => {
            let (injected, info) = inject_race(&program, seeds.inject(run))
                .map_err(|e| format!("{}: cannot inject run {run}: {e}", spec.app.name()))?;
            (injected, Some(info), seeds.injected_sched(spec.app, run))
        }
    };
    let trace = Scheduler::new(SchedConfig {
        seed: sched,
        max_quantum: MAX_QUANTUM,
    })
    .run(&program);
    Ok((trace, injection))
}

/// Time spent in each set-up layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// `App::generate` + `inject_race` + `Scheduler::run`.
    pub generate: Duration,
    /// `PackedTrace::from_trace`.
    pub pack: Duration,
    /// `corpus::encode_bytes`.
    pub encode: Duration,
}

impl SetupTimes {
    /// The whole set-up.
    #[must_use]
    pub fn total(&self) -> Duration {
        self.generate + self.pack + self.encode
    }
}

/// One built input: its spec, the encoded `HARDCRP1` bytes and the
/// number of events they hold.
pub struct Built {
    /// What was built.
    pub spec: Spec,
    /// The encoded corpus stream.
    pub bytes: Vec<u8>,
    /// Events in the trace.
    pub events: u64,
}

/// Builds every input of `specs` on the calling thread, timing each
/// layer. The trace and its packed form are dropped as soon as the
/// encoded bytes exist.
///
/// # Errors
///
/// As [`generate`], or when a trace cannot be packed.
pub fn build(specs: &[Spec], seeds: Seeds) -> Result<(Vec<Built>, SetupTimes), String> {
    let mut times = SetupTimes::default();
    let mut out = Vec::with_capacity(specs.len());
    for spec in specs {
        let t = Instant::now();
        let (trace, injection) = generate(spec, seeds)?;
        times.generate += t.elapsed();
        let t = Instant::now();
        let packed = PackedTrace::from_trace(&trace)
            .map_err(|e| format!("{}: cannot pack: {e}", spec.app.name()))?;
        times.pack += t.elapsed();
        drop(trace);
        let t = Instant::now();
        let bytes = corpus::encode_bytes(&packed, injection.as_ref());
        times.encode += t.elapsed();
        out.push(Built {
            spec: *spec,
            bytes,
            events: packed.len() as u64,
        });
    }
    Ok((out, times))
}

/// A set-up is due again once the timed phase has run for this many
/// times the last set-up's duration since it ended...
const SETUP_SPACING: u32 = 3;
/// ...and for at least this long.
const SETUP_MIN_GAP: Duration = Duration::from_secs(1);

/// A run's set-ups, spread over its timed phase.
///
/// The host speed can change for seconds at a time, so set-ups
/// repeated back to back before the timed phase all see one speed and
/// their median moves from run to run. Here the first set-up builds the
/// inputs the run uses, and the timed phase calls [`Setups::between`]
/// after each of its operations, which times one more set-up whenever
/// one is due. [`Setups::peak_mb`] reads the peak memory before the
/// first repeat, so neither a repeat's memory nor the heap fragments it
/// leaves behind for later operations count.
pub struct Setups<'a> {
    specs: &'a [Spec],
    seeds: Seeds,
    /// Each set-up's total time, in seconds.
    totals: Vec<f64>,
    /// When the last set-up ended.
    last: Instant,
    /// Timed-phase time due before the next set-up.
    gap: Duration,
    /// The peak memory read before the first repeat.
    peak_mb: Option<f64>,
    error: Option<String>,
}

impl<'a> Setups<'a> {
    /// Runs the first set-up and returns the inputs it built.
    ///
    /// # Errors
    ///
    /// As [`build`].
    pub fn first(specs: &'a [Spec], seeds: Seeds) -> Result<(Setups<'a>, Vec<Built>), String> {
        let mut setups = Setups {
            specs,
            seeds,
            totals: Vec::new(),
            last: Instant::now(),
            gap: Duration::ZERO,
            peak_mb: None,
            error: None,
        };
        let (built, times) = build(specs, seeds)?;
        setups.record(times.total());
        Ok((setups, built))
    }

    fn record(&mut self, took: Duration) {
        self.totals.push(took.as_secs_f64());
        self.gap = (took * SETUP_SPACING).max(SETUP_MIN_GAP);
        self.last = Instant::now();
    }

    /// Called between timed operations: times one more set-up if one is
    /// due. The peak memory of the timed phase is read before the first
    /// one.
    pub fn between(&mut self) {
        if self.error.is_some() || self.last.elapsed() < self.gap {
            return;
        }
        if self.peak_mb.is_none() {
            self.peak_mb = vm_hwm_mb(None);
        }
        let mut took = Duration::ZERO;
        for spec in self.specs {
            // A repeat drops each input as soon as it is built: holding
            // them all would grow the heap the timed phase goes on to
            // use.
            match build(std::slice::from_ref(spec), self.seeds) {
                Ok((_, times)) => took += times.total(),
                Err(e) => {
                    self.error = Some(e);
                    break;
                }
            }
        }
        self.record(took);
    }

    /// Peak resident memory of the benchmark process over the timed
    /// phase up to the first set-up repeat, or over all of it when none
    /// ran.
    #[must_use]
    pub fn peak_mb(&self) -> f64 {
        self.peak_mb.or_else(|| vm_hwm_mb(None)).unwrap_or(0.0)
    }

    /// Every set-up's total time, in seconds.
    ///
    /// # Errors
    ///
    /// A repeat that failed.
    pub fn totals(self) -> Result<Vec<f64>, String> {
        match self.error {
            Some(e) => Err(e),
            None => Ok(self.totals),
        }
    }
}

/// A corpus file on disk and the number of events it holds.
#[derive(Clone, Debug)]
pub struct CorpusFile {
    /// Where it is.
    pub path: PathBuf,
    /// Events in the trace.
    pub events: u64,
}

/// Writes every built input under `dir` (no fsync: the files are read
/// back from the page cache) and returns the files plus the time the
/// writes took.
///
/// # Errors
///
/// Directory-creation and write errors.
pub fn write(dir: &Path, built: &[Built]) -> Result<(Vec<CorpusFile>, Duration), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let t = Instant::now();
    let mut files = Vec::with_capacity(built.len());
    for (i, b) in built.iter().enumerate() {
        let path = dir.join(format!("{i:03}-{}.crp", b.spec.app.name()));
        std::fs::write(&path, &b.bytes)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        files.push(CorpusFile {
            path,
            events: b.events,
        });
    }
    Ok((files, t.elapsed()))
}
