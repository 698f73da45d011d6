//! Flat spans the benchmark records around its own calls into the
//! repository's crates. Spans never nest, so a span's self time is its
//! duration and the per-layer totals of one pass sum to at most its
//! wall time.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Per-layer time totals, or nothing when tracing is off.
#[derive(Debug, Default)]
pub struct Spans {
    on: bool,
    totals: BTreeMap<&'static str, Duration>,
}

impl Spans {
    /// A recorder that keeps totals.
    #[must_use]
    pub fn on() -> Spans {
        Spans {
            on: true,
            totals: BTreeMap::new(),
        }
    }

    /// A recorder that keeps nothing.
    #[must_use]
    pub fn off() -> Spans {
        Spans::default()
    }

    /// Runs `f`, returning its result and how long it took; with
    /// tracing on, the time is also charged to `layer`.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let t = Instant::now();
        let v = f();
        let d = t.elapsed();
        if self.on {
            *self.totals.entry(layer).or_default() += d;
        }
        (v, d)
    }

    /// Total time charged to `layer`.
    #[must_use]
    pub fn total(&self, layer: &str) -> Duration {
        self.totals.get(layer).copied().unwrap_or_default()
    }

    /// Time charged to every layer together.
    #[must_use]
    pub fn sum(&self) -> Duration {
        self.totals.values().sum()
    }
}
