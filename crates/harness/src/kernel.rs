//! Process-global detection-kernel selection.
//!
//! The batched dispatch path ([`crate::runner`]) and the HARD
//! machine's vectorized span kernel are bit-identical to the scalar
//! per-event path by construction (and pinned so by tests), so which
//! one runs is a pure throughput choice. This module holds that choice
//! as a process-global, mirroring [`crate::corpus::install`]: the
//! `hard-exp --kernel` flag sets it once at startup and every campaign
//! run in the process picks it up.

use hard_bloom::LaneKernel;
use std::sync::atomic::{AtomicU8, Ordering};

/// Which dispatch loop the hardened runner drives.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum KernelMode {
    /// Per-event dispatch with the scalar metadata kernel — the
    /// reference path.
    Scalar,
    /// Batched dispatch ([`hard_trace::BATCH_EVENTS`]-sized runs) with
    /// the widest lane kernel the host supports.
    Batch,
    /// Resolve at startup: batch, since it is bit-identical to scalar
    /// and never slower by more than noise.
    #[default]
    Auto,
}

impl KernelMode {
    /// Parses a `--kernel` argument value.
    ///
    /// # Errors
    ///
    /// Returns a usage message naming the accepted values.
    pub fn parse(s: &str) -> Result<KernelMode, String> {
        match s {
            "scalar" => Ok(KernelMode::Scalar),
            "batch" => Ok(KernelMode::Batch),
            "auto" => Ok(KernelMode::Auto),
            other => Err(format!(
                "unknown kernel '{other}' (expected scalar|batch|auto)"
            )),
        }
    }

    /// True if the batched dispatch loop should run. The machines'
    /// batched MESI/timing model lives inside their `on_batch`, so it
    /// engages exactly with this.
    #[must_use]
    pub fn is_batched(self) -> bool {
        // Auto resolves to batch: the equivalence tests pin it
        // bit-identical, so there is no correctness reason to stay
        // scalar, and the lane kernel below degrades gracefully on
        // hosts without SIMD.
        !matches!(self, KernelMode::Scalar)
    }

    /// The metadata lane kernel this mode implies.
    #[must_use]
    pub fn lane_kernel(self) -> LaneKernel {
        match self {
            KernelMode::Scalar => LaneKernel::Scalar,
            KernelMode::Batch | KernelMode::Auto => LaneKernel::auto(),
        }
    }

    /// The CLI spelling of this mode.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            KernelMode::Scalar => "scalar",
            KernelMode::Batch => "batch",
            KernelMode::Auto => "auto",
        }
    }
}

const MODE_SCALAR: u8 = 0;
const MODE_BATCH: u8 = 1;
const MODE_AUTO: u8 = 2;

static INSTALLED: AtomicU8 = AtomicU8::new(MODE_AUTO);

/// Installs the process-global kernel mode consulted by the hardened
/// runner.
pub fn install(mode: KernelMode) {
    let v = match mode {
        KernelMode::Scalar => MODE_SCALAR,
        KernelMode::Batch => MODE_BATCH,
        KernelMode::Auto => MODE_AUTO,
    };
    INSTALLED.store(v, Ordering::Relaxed);
}

/// The process-global kernel mode ([`KernelMode::Auto`] until
/// installed).
#[must_use]
pub fn installed() -> KernelMode {
    match INSTALLED.load(Ordering::Relaxed) {
        MODE_SCALAR => KernelMode::Scalar,
        MODE_BATCH => KernelMode::Batch,
        _ => KernelMode::Auto,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_the_three_modes_and_rejects_others() {
        assert_eq!(KernelMode::parse("scalar"), Ok(KernelMode::Scalar));
        assert_eq!(KernelMode::parse("batch"), Ok(KernelMode::Batch));
        assert_eq!(KernelMode::parse("auto"), Ok(KernelMode::Auto));
        assert!(KernelMode::parse("simd").unwrap_err().contains("scalar"));
        for m in [KernelMode::Scalar, KernelMode::Batch, KernelMode::Auto] {
            assert_eq!(KernelMode::parse(m.label()), Ok(m));
        }
    }

    #[test]
    fn batching_and_lane_kernels_follow_the_mode() {
        assert!(!KernelMode::Scalar.is_batched());
        assert!(KernelMode::Batch.is_batched());
        assert!(KernelMode::Auto.is_batched());
        assert_eq!(KernelMode::Scalar.lane_kernel(), LaneKernel::Scalar);
        assert_eq!(KernelMode::Batch.lane_kernel(), LaneKernel::auto());
        assert_eq!(KernelMode::Auto.lane_kernel(), LaneKernel::auto());
    }

    #[test]
    fn install_round_trips() {
        let before = installed();
        install(KernelMode::Scalar);
        assert_eq!(installed(), KernelMode::Scalar);
        install(KernelMode::Batch);
        assert_eq!(installed(), KernelMode::Batch);
        install(before);
    }
}
