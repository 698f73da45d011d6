//! End-to-end and per-layer benchmark of the HARD reproduction.
//!
//! Three workloads, each built from the benchmark seed and checked
//! against a second path after it is timed:
//!
//! * `sweep` — the Table 2 campaign over a corpus read back from disk;
//! * `replay` — one large corpus streamed from disk through HARD;
//! * `serve` — closed-loop sessions against a `hard-serve` child.
//!
//! An untraced run prints the end-to-end metrics of one workload. A
//! traced run ([`layers::run`]) times the calls into each crate's public
//! functions for all three and prints the per-layer metrics.

#![warn(missing_docs)]

pub mod inputs;
pub mod layers;
pub mod out;
pub mod replay;
pub mod serve;
pub mod spans;
pub mod sweep;

use inputs::{Seeds, Setups, Sizes, Spec};
use out::{median, Outcome};
use std::path::PathBuf;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The Table 2 campaign.
    Sweep,
    /// One large streamed replay.
    Replay,
    /// Closed-loop sessions against `hard-serve`.
    Serve,
}

impl Workload {
    /// Parses a `--workload` value.
    ///
    /// # Errors
    ///
    /// Names the unknown workload.
    pub fn parse(s: &str) -> Result<Workload, String> {
        match s {
            "sweep" => Ok(Workload::Sweep),
            "replay" => Ok(Workload::Replay),
            "serve" => Ok(Workload::Serve),
            other => Err(format!("unknown workload {other} (sweep|replay|serve)")),
        }
    }

    /// The traces the workload's set-up builds.
    #[must_use]
    pub fn specs(self, sizes: &Sizes) -> Vec<Spec> {
        match self {
            Workload::Sweep => inputs::sweep_specs(sizes),
            Workload::Replay => inputs::replay_specs(sizes),
            Workload::Serve => inputs::serve_specs(sizes),
        }
    }
}

/// Everything one run needs.
#[derive(Clone, Debug)]
pub struct Config {
    /// The workload to measure (untraced runs).
    pub workload: Workload,
    /// Input seed.
    pub seeds: Seeds,
    /// Input sizes.
    pub sizes: Sizes,
    /// Length of the measured phase.
    pub seconds: f64,
    /// The `hard-serve` binary.
    pub serve_bin: Option<PathBuf>,
    /// Scratch directory for corpus files; removed when the run ends.
    pub work_dir: PathBuf,
}

/// Removes the work directory, and its parent once empty, when
/// dropped.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// One untraced run of `cfg.workload`: set-up, the timed phase with
/// set-up repeats spread over it (see [`Setups`]), and its output
/// checks.
///
/// # Errors
///
/// When the inputs cannot be built or written, or the server cannot
/// start.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let _dir = WorkDir(cfg.work_dir.clone());
    let specs = cfg.workload.specs(&cfg.sizes);
    let (mut setups, built) = Setups::first(&specs, cfg.seeds)?;
    let (files, _) = inputs::write(&cfg.work_dir, &built)?;
    let mut o = match cfg.workload {
        Workload::Sweep => {
            drop(built);
            out::reset_peak_rss();
            sweep::run(&files, cfg.seeds, &cfg.sizes, cfg.seconds, &mut setups)
        }
        Workload::Replay => {
            drop(built);
            out::reset_peak_rss();
            replay::run(&files[0], cfg.seconds, &mut setups)
        }
        Workload::Serve => {
            let uploads = serve::uploads(&built)?;
            drop(built);
            let bin = cfg.serve_bin.as_ref().ok_or("serve needs --serve-bin")?;
            let child = serve::ServeChild::spawn(bin)?;
            let mut o = serve::run(&child, &uploads, cfg.seconds, &mut setups);
            if let Err(e) = child.shutdown() {
                o.problem(format!("serve: {e}"));
            }
            o
        }
    };
    let totals = setups.totals()?;
    eprintln!("setup_s: median of {} set-ups", totals.len());
    o.metric("setup_s", median(&totals), "s");
    Ok(o)
}
