//! Chaos campaign: the serve tier under seeded network faults.
//!
//! The `faults` sweep asks what the *machine* does when its metadata
//! hardware misbehaves; this campaign asks the same question of the
//! *service*. For each network fault rate (ppm per I/O operation,
//! applied uniformly to resets, bit flips, stalls, and short
//! transfers by a [`crate::chaos::ChaosProxy`] between the clients and
//! a real `hard-serve` instance), a fleet of concurrent retrying
//! clients submits known corpora and the campaign enforces the serve
//! tier's safety invariant end to end:
//!
//! * **No wrong report** — every session that ends in a `Report` is
//!   byte-identical to the offline replay of the same corpus; a
//!   corrupted upload must surface as an explicit error (and be
//!   retried to eventual success), never as a divergent report.
//! * **Eventual success** — with bounded retries, every client session
//!   eventually completes at the swept rates.
//! * **No leaks** — after the fleet drains, the server's session slots
//!   and in-flight byte budget are back to zero (asserted through a
//!   `Health` probe sent directly to the server, bypassing the proxy).
//! * **Bit-inert at rate 0** — the zero-rate row must show zero
//!   injected faults and zero retries: the chaos path costs nothing
//!   when disabled.
//!
//! The campaign drives a *real* `hard-serve` process (spawned as a
//! sibling binary, or an external `--addr`) so the faults cross a real
//! TCP stack, not a loopback mock.

use crate::campaign::{injected_trace, CampaignConfig};
use crate::chaos::{ChaosProxy, ChaosSnapshot, NetFaultPlan};
use crate::corpus::encode_bytes;
use crate::detectors::DetectorKind;
use crate::service::{probe_health, submit_bytes_retrying, ReportBody, RetryPolicy, Submission};
use crate::table::TextTable;
use hard_trace::PackedTrace;
use hard_workloads::App;
use std::io::BufRead;
use std::time::{Duration, Instant};

/// Parameters of the chaos campaign.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// The underlying campaign shape (scale, inject mode) used to
    /// build the corpus fixtures.
    pub campaign: CampaignConfig,
    /// Network fault rates to sweep, in ppm per I/O operation.
    pub rates_ppm: Vec<u32>,
    /// Concurrent client threads per rate.
    pub clients: usize,
    /// Sessions each client submits per rate.
    pub sessions_per_client: usize,
    /// Seeds the fault schedules and the clients' backoff jitter.
    pub seed: u64,
    /// Data-frame chunk size for uploads.
    pub chunk: usize,
    /// The retry discipline every client runs under.
    pub retry: RetryPolicy,
    /// An already-running `hard-serve` to target; `None` spawns a
    /// sibling `hard-serve` child process for the campaign's lifetime.
    pub addr: Option<String>,
    /// Path of the `hard-serve` binary to spawn (default: a sibling of
    /// the current executable). Ignored when `addr` is set.
    pub serve_cmd: Option<String>,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig {
            campaign: CampaignConfig::reduced(0.05, 2),
            rates_ppm: vec![0, 100, 1_000],
            clients: 8,
            sessions_per_client: 4,
            seed: 0xC4A0_5157,
            chunk: 1 << 10,
            retry: RetryPolicy {
                // Generous budget: eventual success is the invariant
                // under test, so the budget must dominate the fault
                // rate, not race it.
                max_attempts: 10,
                base_delay: Duration::from_millis(20),
                max_delay: Duration::from_millis(500),
                jitter_seed: 0,
                connect_timeout: Duration::from_secs(5),
                io_timeout: Duration::from_secs(20),
            },
            addr: None,
            serve_cmd: None,
        }
    }
}

/// One rate's tallies.
#[derive(Clone, Debug)]
pub struct ChaosRow {
    /// The swept fault rate (ppm per I/O operation).
    pub rate_ppm: u32,
    /// Sessions attempted (clients × sessions each).
    pub sessions: usize,
    /// Sessions that ended in a report byte-identical to offline
    /// replay.
    pub ok: usize,
    /// Sessions whose report **differed** from offline replay — the
    /// invariant violation; must be zero.
    pub divergent: usize,
    /// Sessions that exhausted their retry budget without a report.
    pub failed: usize,
    /// Re-attempts across all sessions (0 = every first try landed).
    pub retries: u64,
    /// Attempts answered with a `Busy` shed.
    pub busy: u64,
    /// Injected faults, from the proxy's own accounting.
    pub chaos: ChaosSnapshot,
    /// Sessions still holding a server slot after the drain deadline.
    pub leaked_sessions: u64,
    /// In-flight bytes still reserved after the drain deadline.
    pub leaked_bytes: u64,
}

/// The full sweep result.
#[derive(Clone, Debug)]
pub struct ChaosStudy {
    /// One row per swept rate, in sweep order.
    pub rows: Vec<ChaosRow>,
}

impl ChaosStudy {
    /// Renders the sweep as an aligned table.
    #[must_use]
    pub fn render(&self) -> TextTable {
        let mut t = TextTable::new(vec![
            "rate_ppm",
            "sessions",
            "ok",
            "divergent",
            "failed",
            "retries",
            "busy",
            "resets",
            "flips",
            "stalls",
            "shorts",
            "leaked",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.rate_ppm.to_string(),
                r.sessions.to_string(),
                r.ok.to_string(),
                r.divergent.to_string(),
                r.failed.to_string(),
                r.retries.to_string(),
                r.busy.to_string(),
                r.chaos.resets.to_string(),
                r.chaos.flips.to_string(),
                r.chaos.stalls.to_string(),
                r.chaos.shorts.to_string(),
                format!("{}s/{}B", r.leaked_sessions, r.leaked_bytes),
            ]);
        }
        t
    }

    /// Invariant check: zero divergent reports, zero exhausted
    /// clients, zero leaked sessions or bytes, and a bit-inert
    /// zero-rate row (no injections, no retries).
    ///
    /// # Errors
    ///
    /// Describes every violated invariant.
    pub fn check(&self) -> Result<(), String> {
        let mut violations = Vec::new();
        for r in &self.rows {
            if r.divergent > 0 {
                violations.push(format!(
                    "rate {}: {} divergent report(s) — the no-wrong-report invariant is broken",
                    r.rate_ppm, r.divergent
                ));
            }
            if r.failed > 0 {
                violations.push(format!(
                    "rate {}: {} session(s) exhausted their retry budget",
                    r.rate_ppm, r.failed
                ));
            }
            if r.leaked_sessions > 0 || r.leaked_bytes > 0 {
                violations.push(format!(
                    "rate {}: leaked {} session slot(s) / {} in-flight byte(s) after drain",
                    r.rate_ppm, r.leaked_sessions, r.leaked_bytes
                ));
            }
            if r.rate_ppm == 0
                && (r.chaos.resets + r.chaos.flips + r.chaos.stalls + r.chaos.shorts > 0)
            {
                violations.push(format!(
                    "rate 0 injected faults ({:?}) — the chaos path is not inert",
                    r.chaos
                ));
            }
            if r.rate_ppm == 0 && r.retries > 0 {
                violations.push(format!(
                    "rate 0 needed {} retries — the fault-free path is not clean",
                    r.retries
                ));
            }
        }
        if violations.is_empty() {
            Ok(())
        } else {
            Err(violations.join("; "))
        }
    }
}

/// One fixture: corpus bytes plus the offline-replay report encoding
/// every served report must match byte for byte. Shared with the
/// `obs-serve` campaign, which drives the same fixtures through the
/// telemetry path.
pub(crate) struct Fixture {
    pub(crate) detector: String,
    pub(crate) corpus: Vec<u8>,
    pub(crate) expected: String,
}

/// Builds the corpus fixtures: two applications × two detectors, each
/// replayed offline through the same [`crate::StreamFeeder`] the
/// server uses, so "expected" is the ground truth by construction.
pub(crate) fn build_fixtures(cfg: &CampaignConfig) -> Result<Vec<Fixture>, String> {
    let specs = [
        (App::WaterNsquared, 0usize, "hard"),
        (App::Barnes, 1usize, "lockset-ideal"),
    ];
    let mut fixtures = Vec::with_capacity(specs.len());
    for (app, run_idx, detector) in specs {
        let (trace, injection) = injected_trace(app, cfg, run_idx);
        let packed = PackedTrace::from_trace(&trace).map_err(|e| format!("pack failed: {e}"))?;
        let corpus = encode_bytes(&packed, Some(&injection));
        let expected = ReportBody::replay(&DetectorKind::parse(detector)?, &corpus)?.encode();
        fixtures.push(Fixture {
            detector: detector.to_string(),
            corpus,
            expected,
        });
    }
    Ok(fixtures)
}

/// A `hard-serve` child process managed by a campaign: killed (after
/// a polite `Shutdown`) when dropped, so a panicking campaign never
/// leaves a stray server behind.
pub(crate) struct ServeChild {
    child: std::process::Child,
    pub(crate) addr: String,
    /// The `--serve-metrics` scrape address, when the child was
    /// spawned with that flag (parsed from its banner).
    pub(crate) metrics_addr: Option<String>,
}

impl ServeChild {
    /// Spawns `hard-serve` on an ephemeral port (with `extra_args`
    /// appended, e.g. `--serve-metrics`) and parses the bound
    /// address(es) from its stderr banner.
    pub(crate) fn spawn(
        serve_cmd: Option<&str>,
        extra_args: &[&str],
    ) -> Result<ServeChild, String> {
        let path = match serve_cmd {
            Some(cmd) => std::path::PathBuf::from(cmd),
            None => {
                let me = std::env::current_exe()
                    .map_err(|e| format!("cannot locate current executable: {e}"))?;
                let dir = me
                    .parent()
                    .ok_or("current executable has no parent directory")?;
                // Integration tests live one level down in deps/.
                let sibling = dir.join("hard-serve");
                if sibling.exists() {
                    sibling
                } else {
                    dir.parent()
                        .map(|d| d.join("hard-serve"))
                        .filter(|p| p.exists())
                        .ok_or_else(|| {
                            format!(
                                "hard-serve binary not found next to {} — build it \
                                 (`cargo build --bin hard-serve`) or pass --serve-cmd/--addr",
                                me.display()
                            )
                        })?
                }
            }
        };
        let mut child = std::process::Command::new(&path)
            .args([
                "--addr",
                "127.0.0.1:0",
                // A short idle timeout reclaims sessions whose client
                // connection a fault tore mid-upload.
                "--idle-timeout-ms",
                "1500",
                "--workers",
                "2",
                // Capacity (workers + queue) at least the default
                // fleet size, so rate 0 is retry-free; the shed path
                // itself is pinned by the serve chaos integration
                // test, not this campaign.
                "--queue-depth",
                "8",
                "--busy-retry-after-ms",
                "50",
            ])
            .args(extra_args)
            .stdin(std::process::Stdio::null())
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", path.display()))?;
        let stderr = child.stderr.take().ok_or("child stderr not captured")?;
        let mut lines = std::io::BufReader::new(stderr);
        // The metrics banner (if any) prints before the listening one.
        let mut metrics_addr = None;
        let addr = loop {
            let mut line = String::new();
            match lines.read_line(&mut line) {
                Ok(0) => {
                    let _ = child.kill();
                    return Err("hard-serve exited before announcing its address".into());
                }
                Ok(_) => {
                    let line = line.trim();
                    if let Some(rest) = line.strip_prefix("metrics on http://") {
                        if let Some(addr) = rest.split("/metrics").next() {
                            metrics_addr = Some(addr.to_string());
                        }
                    }
                    if let Some(rest) = line.strip_prefix("hard-serve listening on ") {
                        break rest.to_string();
                    }
                }
                Err(e) => {
                    let _ = child.kill();
                    return Err(format!("reading hard-serve banner: {e}"));
                }
            }
        };
        // Keep draining stderr so the child never blocks on a full pipe.
        std::thread::spawn(move || {
            let mut sink = String::new();
            loop {
                sink.clear();
                match lines.read_line(&mut sink) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {}
                }
            }
        });
        Ok(ServeChild {
            child,
            addr,
            metrics_addr,
        })
    }
}

impl ServeChild {
    /// OS pid of the child — lets campaigns read its procfs entries
    /// (e.g. `VmHWM` for the serve-load RSS claim).
    pub(crate) fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for ServeChild {
    fn drop(&mut self) {
        let _ = crate::service::request_shutdown(&self.addr);
        // The polite path drains; the kill is the backstop for a
        // wedged child (and a no-op once it has exited).
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                _ => break,
            }
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Polls the server's health probe until sessions and in-flight bytes
/// drain to zero or the deadline passes; returns the final (leaked)
/// counts.
pub(crate) fn await_drain(addr: &str, deadline: Duration) -> (u64, u64) {
    let until = Instant::now() + deadline;
    let mut last = (u64::MAX, u64::MAX);
    while Instant::now() < until {
        if let Ok(h) = probe_health(addr, Duration::from_secs(2)) {
            last = (h.active_sessions, h.inflight_bytes);
            if last == (0, 0) {
                return last;
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    last
}

/// Runs the sweep.
///
/// # Errors
///
/// Fixture construction and server management errors. Invariant
/// violations are **not** errors here — they are rows in the study;
/// call [`ChaosStudy::check`] to enforce them.
pub fn run(cfg: &ChaosConfig) -> Result<ChaosStudy, String> {
    let fixtures = build_fixtures(&cfg.campaign)?;
    // One server outlives the whole sweep; each rate gets a fresh
    // proxy so its fault schedule is deterministic in isolation.
    let child = match cfg.addr.as_deref() {
        Some(_) => None,
        None => Some(ServeChild::spawn(cfg.serve_cmd.as_deref(), &[])?),
    };
    let server_addr = cfg
        .addr
        .clone()
        .or_else(|| child.as_ref().map(|c| c.addr.clone()))
        .expect("either an external addr or a spawned child");

    let mut rows = Vec::with_capacity(cfg.rates_ppm.len());
    for (rate_idx, &rate_ppm) in cfg.rates_ppm.iter().enumerate() {
        let plan = if rate_ppm == 0 {
            NetFaultPlan::none()
        } else {
            NetFaultPlan::uniform(
                cfg.seed ^ (rate_idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                rate_ppm,
            )
        };
        let proxy = ChaosProxy::spawn("127.0.0.1:0", &server_addr, plan)
            .map_err(|e| format!("cannot start chaos proxy: {e}"))?;
        let proxy_addr = proxy.local_addr().to_string();

        let clients = cfg.clients.max(1);
        let sessions_each = cfg.sessions_per_client.max(1);
        let results: Vec<(usize, usize, usize, u64, u64)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..clients)
                .map(|client_idx| {
                    let fixtures = &fixtures;
                    let proxy_addr = proxy_addr.clone();
                    let mut policy = cfg.retry;
                    policy.jitter_seed = cfg
                        .seed
                        .wrapping_add(client_idx as u64)
                        .wrapping_mul(0x2545_F491_4F6C_DD1D)
                        ^ u64::from(rate_ppm);
                    s.spawn(move || {
                        let (mut ok, mut divergent, mut failed) = (0usize, 0usize, 0usize);
                        let (mut retries, mut busy) = (0u64, 0u64);
                        for sess in 0..sessions_each {
                            let fixture = &fixtures[(client_idx + sess) % fixtures.len()];
                            let (outcome, stats) = submit_bytes_retrying(
                                &proxy_addr,
                                &fixture.corpus,
                                &fixture.detector,
                                cfg.chunk,
                                &policy,
                            );
                            retries += u64::from(stats.attempts.saturating_sub(1));
                            busy += u64::from(stats.busy);
                            match outcome {
                                Ok(Submission::Report { body, .. }) => {
                                    if body.encode() == fixture.expected {
                                        ok += 1;
                                    } else {
                                        divergent += 1;
                                    }
                                }
                                Ok(_) | Err(_) => failed += 1,
                            }
                        }
                        (ok, divergent, failed, retries, busy)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("chaos client panicked"))
                .collect()
        });

        // Leak check against the server directly (no faults in the
        // way): slots and bytes must drain once the fleet is gone.
        let (leaked_sessions, leaked_bytes) = await_drain(&server_addr, Duration::from_secs(10));
        let chaos = proxy.shutdown();

        let mut row = ChaosRow {
            rate_ppm,
            sessions: clients * sessions_each,
            ok: 0,
            divergent: 0,
            failed: 0,
            retries: 0,
            busy: 0,
            chaos,
            leaked_sessions,
            leaked_bytes,
        };
        for (ok, divergent, failed, retries, busy) in results {
            row.ok += ok;
            row.divergent += divergent;
            row.failed += failed;
            row.retries += retries;
            row.busy += busy;
        }
        rows.push(row);
    }
    drop(child); // polite shutdown before returning
    Ok(ChaosStudy { rows })
}
