//! The traced run: per-layer metrics for all three workloads, from
//! spans the benchmark records around its own calls into each crate's
//! public functions, plus standalone passes over single layers.
//!
//! Every workload is run once untraced and once traced, so the tracing
//! overhead is reported as traced over untraced `events_per_s` with
//! both bases, and each traced pass's layer times must sum to within
//! [`SHARE_TOLERANCE`] of its wall time.

use crate::inputs::{self, CorpusFile, SetupTimes};
use crate::out::{median, ms, Outcome};
use crate::replay::{self, ReplayOut};
use crate::serve::{self, ServeChild, Upload};
use crate::spans::Spans;
use crate::sweep::{self, DETECTOR_LAYERS};
use crate::{Config, WorkDir, Workload};
use hard::metadata::HardMetaFactory;
use hard::HardMachine;
use hard_cache::{Hierarchy, MemStats};
use hard_harness::{corpus, kernel, DetectorKind, KernelMode, StreamFeeder};
use hard_obs::{MemoryRecorder, ObsHandle};
use hard_trace::codec::{fnv1a_update, FNV1A_INIT};
use hard_trace::packed_event::RECORD_BYTES;
use hard_trace::wire::{FrameAssembler, MAX_FRAME_BYTES};
use hard_trace::{Detector, Op, PackedEvent, TraceEvent, BATCH_EVENTS};
use hard_types::{AccessKind, CoreId};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How far a traced pass's layer sum may stray from its wall time.
pub const SHARE_TOLERANCE: f64 = 0.10;
/// Sessions each traced-run drive completes at least.
const TRACED_SESSIONS: usize = 200;
/// The server's per-session stages that follow one another without
/// overlap, as its `hard_serve_stage_*_us` histograms name them. Its
/// queue-wait and detect stages are not among them: they are spent
/// inside `upload`, where each `Data` frame is detected as it arrives,
/// and in the short tail between `End` and `render`.
const SERVER_STAGES: [&str; 4] = ["handshake", "upload", "render", "flush"];

/// Events per second of `events` over `d`.
#[allow(clippy::cast_precision_loss)]
fn rate(events: u64, d: Duration) -> f64 {
    events as f64 / d.as_secs_f64()
}

/// Nanoseconds per item of `n` items over `d`.
#[allow(clippy::cast_precision_loss)]
fn ns_per(d: Duration, n: u64) -> f64 {
    d.as_secs_f64() * 1e9 / n.max(1) as f64
}

/// Records one workload's tracing overhead and layer coverage.
fn consistency(
    o: &mut Outcome,
    wl: &str,
    traced: f64,
    untraced: f64,
    layers: Duration,
    wall: Duration,
) {
    let share = layers.as_secs_f64() / wall.as_secs_f64();
    o.metric(&format!("{wl}.traced_events_per_s"), traced, "events/s");
    o.metric(&format!("{wl}.untraced_events_per_s"), untraced, "events/s");
    o.metric(&format!("{wl}.trace_overhead"), traced / untraced, "ratio");
    o.metric(&format!("{wl}.layer_share"), share, "ratio");
    if (share - 1.0).abs() > SHARE_TOLERANCE {
        o.problem(format!(
            "{wl}: layer times sum to {share:.3} of the traced wall"
        ));
    }
}

/// The whole traced run.
///
/// # Errors
///
/// When inputs cannot be built or written, or the server cannot start.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let _dir = WorkDir(cfg.work_dir.clone());
    let mut o = Outcome::new();
    let mut setup = SetupTimes::default();
    let mut write = Duration::ZERO;
    let mut built_files = |wl: Workload, sub: &str| -> Result<_, String> {
        let (built, t) = inputs::build(&wl.specs(&cfg.sizes), cfg.seeds)?;
        setup.generate += t.generate;
        setup.pack += t.pack;
        setup.encode += t.encode;
        let (files, w) = inputs::write(&cfg.work_dir.join(sub), &built)?;
        write += w;
        Ok((built, files))
    };
    let (_, sweep_files) = built_files(Workload::Sweep, "sweep")?;
    let (_, replay_files) = built_files(Workload::Replay, "replay")?;
    let (serve_built, _) = built_files(Workload::Serve, "serve")?;
    let uploads = serve::uploads(&serve_built)?;
    drop(serve_built);
    o.metric("workloads.generate_s", setup.generate.as_secs_f64(), "s");
    o.metric("trace.pack_s", setup.pack.as_secs_f64(), "s");
    o.metric("corpus.encode_s", setup.encode.as_secs_f64(), "s");
    o.metric("corpus.write_s", write.as_secs_f64(), "s");

    sweep_layers(cfg, &sweep_files, &mut o);
    let base = replay_layers(&replay_files[0], &mut o)?;
    serve_layers(cfg, &uploads, &mut o)?;
    // Installing a recorder is permanent for the process, so the
    // telemetry-on pass runs last.
    obs_on_layer(&replay_files[0], &base, &mut o)?;
    Ok(o)
}

fn sweep_layers(cfg: &Config, files: &[CorpusFile], o: &mut Outcome) {
    let untraced = sweep::pass(files, &mut Spans::off());
    let mut spans = Spans::on();
    let traced = sweep::pass(files, &mut spans);
    consistency(
        o,
        "sweep",
        traced.events_per_s(),
        untraced.events_per_s(),
        spans.sum(),
        traced.wall,
    );
    o.metric(
        "corpus.read_s",
        spans.total("corpus.read_s").as_secs_f64(),
        "s",
    );
    for layer in DETECTOR_LAYERS {
        o.metric(layer, spans.total(layer).as_secs_f64(), "s");
    }
    o.metric(
        "campaign.score_s",
        spans.total("campaign.score_s").as_secs_f64(),
        "s",
    );
    o.absorb(sweep::check(
        files,
        cfg.seeds,
        &cfg.sizes,
        &[untraced, traced],
    ));
}

/// Returns the untraced replay, which the telemetry-on pass must match.
fn replay_layers(file: &CorpusFile, o: &mut Outcome) -> Result<ReplayOut, String> {
    // Untraced: the workload's own call, batch kernel.
    o.attempted += 1;
    let base = replay::replay_once(&file.path)?;
    let mut checked = vec![base.clone()];
    o.metric(
        "core.hard.detect_ns_per_event",
        ns_per(base.wall, base.events),
        "ns/event",
    );

    // Traced: the same stream driven from here, one span per layer.
    o.attempted += 1;
    let mut spans = Spans::on();
    let t = Instant::now();
    let (traced, stats) = replay_traced(&file.path, &mut spans)?;
    let wall = t.elapsed();
    consistency(
        o,
        "replay",
        rate(traced.events, wall),
        base.events_per_s(),
        spans.sum(),
        wall,
    );
    for (metric, layer) in [
        ("replay.read_s", "read"),
        ("replay.decode_s", "decode"),
        ("replay.detect_s", "detect"),
    ] {
        o.metric(metric, spans.total(layer).as_secs_f64(), "s");
    }
    #[allow(clippy::cast_precision_loss)]
    for (name, v) in [
        ("cache.l1_misses", stats.l1_misses),
        ("cache.l2_misses", stats.l2_misses),
        ("cache.meta_broadcasts", stats.meta_broadcasts),
        ("cache.l2_evictions", stats.l2_evictions),
    ] {
        o.metric(name, v as f64, "count");
    }
    checked.push(traced);

    // The scalar kernel on the same call.
    o.attempted += 1;
    kernel::install(KernelMode::Scalar);
    let scalar = replay::replay_once(&file.path);
    kernel::install(KernelMode::Auto);
    let scalar = scalar?;
    o.metric(
        "core.hard.scalar_ns_per_event",
        ns_per(scalar.wall, scalar.events),
        "ns/event",
    );
    checked.push(scalar);
    replay::check(file, &checked, o);

    o.metric(
        "trace.decode_ns_per_event",
        decode_streamed(&file.path)?,
        "ns/event",
    );
    let (packed, _) = corpus::read_file(&file.path)?;
    o.metric(
        "trace.decode_batch_ns_per_event",
        decode_batch(&packed),
        "ns/event",
    );
    o.metric(
        "cache.access_ns_per_event",
        cache_pass(&packed)?,
        "ns/event",
    );
    let builds: Vec<f64> = (0..101)
        .map(|_| {
            let t = Instant::now();
            let f = StreamFeeder::new(&DetectorKind::hard_default(), 4);
            let d = t.elapsed();
            drop(black_box(f));
            d.as_secs_f64() * 1e6
        })
        .collect();
    o.metric("core.hard.build_us", median(&builds), "us");
    Ok(base)
}

/// The replay loop of `execute_streamed`, driven from the benchmark so
/// that reading, decoding and detection each get a span. Returns the
/// result and the machine's memory-hierarchy counts.
fn replay_traced(path: &Path, spans: &mut Spans) -> Result<(ReplayOut, MemStats), String> {
    let DetectorKind::Hard(cfg) = DetectorKind::hard_default() else {
        unreachable!("hard_default is a HARD configuration")
    };
    let t = Instant::now();
    let (opened, _) = spans.time("read", || corpus::open_streamed(path));
    let (header, mut reader) = opened?;
    let (mut m, _) = spans.time("detect", || {
        let mut m = HardMachine::new(cfg);
        m.set_lane_kernel(kernel::installed().lane_kernel());
        m
    });
    let mut buf: Vec<TraceEvent> = Vec::with_capacity(BATCH_EVENTS);
    let (mut base, mut fnv) = (0usize, FNV1A_INIT);
    loop {
        let (next, _) = spans.time("read", || reader.next_chunk());
        let Some(chunk) = next else { break };
        let chunk = chunk.map_err(|e| format!("stream read failed: {e}"))?;
        for window in chunk.chunks(BATCH_EVENTS * RECORD_BYTES) {
            let (decoded, _) = spans.time("decode", || {
                fnv = fnv1a_update(fnv, window);
                buf.clear();
                for rec in window.chunks_exact(RECORD_BYTES) {
                    let rec: &[u8; RECORD_BYTES] = rec.try_into().expect("16-byte record");
                    buf.push(
                        PackedEvent::from_bytes(rec)
                            .unpack()
                            .map_err(|e| e.to_string())?,
                    );
                }
                Ok::<(), String>(())
            });
            decoded?;
            spans.time("detect", || m.on_batch(base, &buf));
            base += buf.len();
        }
    }
    let events = base as u64;
    if events != header.events || fnv != header.payload_fnv {
        return Err("traced replay does not match the corpus header".into());
    }
    Ok((
        ReplayOut {
            reports: m.reports().to_vec(),
            events,
            cycles: m.total_cycles().0,
            wall: t.elapsed(),
        },
        *m.stats(),
    ))
}

/// Decode only: the file through `ChunkedReader` and `unpack`.
fn decode_streamed(path: &Path) -> Result<f64, String> {
    let t = Instant::now();
    let (_, mut reader) = corpus::open_streamed(path)?;
    let mut buf: Vec<TraceEvent> = Vec::with_capacity(BATCH_EVENTS);
    let mut n = 0u64;
    while let Some(chunk) = reader.next_chunk() {
        let chunk = chunk.map_err(|e| e.to_string())?;
        for window in chunk.chunks(BATCH_EVENTS * RECORD_BYTES) {
            buf.clear();
            for rec in window.chunks_exact(RECORD_BYTES) {
                let rec: &[u8; RECORD_BYTES] = rec.try_into().expect("16-byte record");
                buf.push(
                    PackedEvent::from_bytes(rec)
                        .unpack()
                        .map_err(|e| e.to_string())?,
                );
            }
            n += buf.len() as u64;
            black_box(&buf);
        }
    }
    Ok(ns_per(t.elapsed(), n))
}

/// Decode only: an in-memory packed trace through `decode_batch`.
fn decode_batch(packed: &hard_trace::PackedTrace) -> f64 {
    let mut buf = Vec::with_capacity(BATCH_EVENTS);
    let t = Instant::now();
    let mut start = 0;
    loop {
        let n = packed.decode_batch(start, &mut buf);
        if n == 0 {
            break;
        }
        black_box(&buf);
        start += n;
    }
    ns_per(t.elapsed(), start as u64)
}

/// The memory hierarchy alone: every access of the trace through
/// `Hierarchy::access_batch` in 256-access windows, with HARD's line
/// metadata and an empty hierarchy to start.
fn cache_pass(packed: &hard_trace::PackedTrace) -> Result<f64, String> {
    let DetectorKind::Hard(cfg) = DetectorKind::hard_default() else {
        unreachable!("hard_default is a HARD configuration")
    };
    #[allow(clippy::cast_possible_truncation)]
    let cores = cfg.hierarchy.num_cores as u32;
    let accesses: Vec<(CoreId, hard_types::Addr, AccessKind)> = packed
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Op { thread, op } => match op {
                Op::Read { addr, .. } => Some((CoreId(thread.0 % cores), addr, AccessKind::Read)),
                Op::Write { addr, .. } => Some((CoreId(thread.0 % cores), addr, AccessKind::Write)),
                _ => None,
            },
            TraceEvent::BarrierComplete { .. } => None,
        })
        .collect();
    let factory = HardMetaFactory {
        shape: cfg.bloom,
        granules_per_line: cfg.granules_per_line(),
    };
    let mut h = Hierarchy::new(cfg.hierarchy, factory).map_err(|e| e.to_string())?;
    let mut out = Vec::with_capacity(BATCH_EVENTS);
    let t = Instant::now();
    for window in accesses.chunks(BATCH_EVENTS) {
        h.access_batch(window, &mut out)
            .map_err(|e| e.to_string())?;
    }
    Ok(ns_per(t.elapsed(), accesses.len() as u64))
}

fn serve_layers(cfg: &Config, uploads: &[Upload], o: &mut Outcome) -> Result<(), String> {
    // Frame assembly over each session's framed bytes, in socket-sized
    // pieces.
    let mut bytes = 0u64;
    let t = Instant::now();
    while t.elapsed() < Duration::from_millis(200) {
        for u in uploads {
            let mut asm = FrameAssembler::new();
            for piece in u.framed.chunks(64 << 10) {
                asm.push(piece);
                while let Some(f) = asm.next_frame(MAX_FRAME_BYTES).map_err(|e| e.to_string())? {
                    black_box(&f);
                }
            }
            bytes += u.framed.len() as u64;
        }
    }
    o.metric(
        "wire.assemble_ns_per_byte",
        ns_per(t.elapsed(), bytes),
        "ns/byte",
    );

    // The detector fed as the server feeds it, and the report render.
    let kind = DetectorKind::hard_default();
    let (mut feed, mut render) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        for u in uploads {
            o.attempted += 1;
            let (header, at) = corpus::parse_header(&u.corpus)?;
            let t = Instant::now();
            let mut f = StreamFeeder::new(&kind, header.num_threads as usize);
            let fed = u.corpus[at..]
                .chunks(serve::DATA_FRAME_BYTES)
                .try_for_each(|c| f.feed(c))
                .and_then(|()| f.finish());
            feed.push(ms(t.elapsed()));
            let (run, events, _) = fed?;
            let body = hard_harness::ReportBody {
                label: kind.label().to_string(),
                events,
                reports: run.reports,
            };
            let t = Instant::now();
            let encoded = body.encode();
            render.push(t.elapsed().as_secs_f64() * 1e6);
            if encoded != u.expected {
                o.failed += 1;
                o.problem("serve: StreamFeeder report differs from execute_streamed");
            }
        }
    }
    o.metric("runner.feed_ms", median(&feed), "ms");
    o.metric("service.render_us", median(&render), "us");

    // The served path against one child: an untraced drive, then a
    // traced one bracketed by scrapes of the server's stage histograms.
    let bin = cfg.serve_bin.as_ref().ok_or("serve needs --serve-bin")?;
    let child = ServeChild::spawn(bin)?;
    let phase = (cfg.seconds / 2.0).min(4.0);
    let drive = || {
        serve::drive(
            &child.addr,
            uploads,
            serve::CONNECTIONS,
            phase,
            TRACED_SESSIONS,
        )
    };
    let untraced = drive();
    let before = serve::scrape(&child.metrics);
    let traced = drive();
    let after = serve::scrape(&child.metrics);
    if let Err(e) = child.shutdown() {
        o.problem(format!("serve: {e}"));
    }
    let (ev_u, _) = serve::verify(&untraced, uploads, o);
    let (ev_t, _) = serve::verify(&traced, uploads, o);
    let (before, after) = (before?, after?);
    let mut server_us = 0.0;
    for stage in SERVER_STAGES {
        let sum = format!("hard_serve_stage_{stage}_us_sum");
        match (serve::sample(&before, &sum), serve::sample(&after, &sum)) {
            (Some(b), Some(a)) => server_us += a - b,
            _ => o.problem(format!("serve: scrape has no {sum}")),
        }
    }
    #[allow(clippy::cast_possible_truncation)]
    consistency(
        o,
        "serve",
        rate(ev_t, traced.wall),
        rate(ev_u, untraced.wall),
        Duration::from_secs_f64(server_us.max(0.0) / 1e6),
        traced.wall * serve::CONNECTIONS as u32,
    );
    let upload: Vec<f64> = traced.sessions.iter().map(|s| ms(s.upload_time)).collect();
    let wait: Vec<f64> = traced.sessions.iter().map(|s| ms(s.wait_time)).collect();
    o.metric("serve.upload_ms", median(&upload), "ms");
    o.metric("serve.wait_ms", median(&wait), "ms");
    for (metric, sample) in [
        ("serve.queue_wait_us", "hard_serve_stage_queue_wait_us_p50"),
        ("serve.detect_us", "hard_serve_stage_detect_us_p50"),
        ("serve.flush_us", "hard_serve_stage_flush_us_p50"),
    ] {
        match serve::sample(&after, sample) {
            Some(v) => o.metric(metric, v, "us"),
            None => o.problem(format!("serve: scrape has no {sample}")),
        }
    }
    Ok(())
}

fn obs_on_layer(file: &CorpusFile, base: &ReplayOut, o: &mut Outcome) -> Result<(), String> {
    if !hard_obs::install(ObsHandle::new(Arc::new(MemoryRecorder::new()))) {
        return Err("a recorder was already installed".into());
    }
    o.attempted += 1;
    let on = replay::replay_once(&file.path)?;
    if on.reports != base.reports || on.cycles != base.cycles || on.events != base.events {
        o.failed += 1;
        o.problem("replay: telemetry-on run differs from telemetry-off");
    }
    o.metric(
        "core.hard.obs_on_ns_per_event",
        ns_per(on.wall, on.events),
        "ns/event",
    );
    Ok(())
}
