//! The `serve` workload: a `hard-serve` child with its metrics endpoint
//! on and the report cache off, driven by closed-loop clients that each
//! connect, upload one small trace and wait for its report per session.

use crate::inputs::{Built, Setups};
use crate::out::{median, ms, quantile, Outcome};
use hard_harness::corpus::parse_header;
use hard_harness::{execute_streamed, DetectorKind, ReportBody};
use hard_trace::packed_event::{ChunkedReader, DEFAULT_CHUNK_RECORDS};
use hard_trace::wire::{
    decode_busy, encode_begin, read_frame, read_handshake, split_traced, write_frame,
    write_handshake, FrameKind, MAX_FRAME_BYTES,
};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Bytes per `Data` frame.
pub const DATA_FRAME_BYTES: usize = 4096;
/// Closed-loop clients, each with one session open at a time.
pub const CONNECTIONS: usize = 2;
/// Sessions a measured run completes at least, so that its p99 has at
/// least ten samples beyond it.
pub const MIN_SESSIONS: usize = 1000;
/// The measured phase drives the server in slices this long.
pub const SLICE_SECONDS: f64 = 1.0;
/// A drive that has not finished after this long is cut off.
const DRIVE_CAP: Duration = Duration::from_secs(120);
/// Per-read and per-write deadline on a client connection.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// One session's upload: its framed bytes and the report the offline
/// replay of the same corpus bytes renders.
pub struct Upload {
    /// `Begin`, the corpus in [`DATA_FRAME_BYTES`] `Data` frames, `End`.
    pub framed: Vec<u8>,
    /// The `HARDCRP1` corpus bytes the frames carry.
    pub corpus: Vec<u8>,
    /// Events in the corpus.
    pub events: u64,
    /// The offline report body the served one must equal byte for byte.
    pub expected: String,
}

/// The report body `execute_streamed` gives for `corpus`, rendered as
/// the server renders its `Report` payload.
///
/// # Errors
///
/// Damaged corpus bytes.
pub fn offline_body(corpus: &[u8]) -> Result<ReportBody, String> {
    let kind = DetectorKind::hard_default();
    let (header, at) = parse_header(corpus)?;
    let mut reader = ChunkedReader::spawn(
        std::io::Cursor::new(corpus[at..].to_vec()),
        DEFAULT_CHUNK_RECORDS,
    );
    let (run, events, fnv) = execute_streamed(&kind, header.num_threads as usize, &mut reader)?;
    if events != header.events || fnv != header.payload_fnv {
        return Err("offline replay does not match the corpus header".into());
    }
    Ok(ReportBody {
        label: kind.label().to_string(),
        events,
        reports: run.reports,
    })
}

/// Frames every built corpus as one session's upload and renders its
/// expected report offline.
///
/// # Errors
///
/// As [`offline_body`].
pub fn uploads(built: &[Built]) -> Result<Vec<Upload>, String> {
    built
        .iter()
        .map(|b| {
            let mut framed = Vec::with_capacity(b.bytes.len() + b.bytes.len() / 800 + 64);
            let frame = |out: &mut Vec<u8>, kind, payload: &[u8]| {
                write_frame(out, kind, payload).map_err(|e| format!("framing: {e}"))
            };
            frame(&mut framed, FrameKind::Begin, &encode_begin("hard", None))?;
            for piece in b.bytes.chunks(DATA_FRAME_BYTES) {
                frame(&mut framed, FrameKind::Data, piece)?;
            }
            frame(&mut framed, FrameKind::End, &[])?;
            Ok(Upload {
                framed,
                corpus: b.bytes.clone(),
                events: b.events,
                expected: offline_body(&b.bytes)?.encode(),
            })
        })
        .collect()
}

/// A running `hard-serve` child. Dropping it kills the process if
/// [`ServeChild::shutdown`] did not end it, reaps it, and joins the
/// thread draining its stderr.
pub struct ServeChild {
    child: Child,
    /// The wire protocol address.
    pub addr: String,
    /// The `/metrics` endpoint address.
    pub metrics: String,
    drain: Option<std::thread::JoinHandle<()>>,
}

impl ServeChild {
    /// Starts `bin` with the metrics endpoint on and the report cache
    /// off, on ephemeral ports read back from its start-up banner.
    ///
    /// # Errors
    ///
    /// When the child cannot start or exits before listening.
    pub fn spawn(bin: &Path) -> Result<ServeChild, String> {
        let mut child = Command::new(bin)
            .args([
                "--addr",
                "127.0.0.1:0",
                "--serve-metrics",
                "127.0.0.1:0",
                "--no-report-cache",
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let mut lines = BufReader::new(stderr).lines();
        let (mut addr, mut metrics) = (None, None);
        while addr.is_none() {
            let Some(Ok(line)) = lines.next() else {
                let _ = child.kill();
                let _ = child.wait();
                return Err("hard-serve exited before listening".into());
            };
            if let Some(rest) = line.strip_prefix("metrics on http://") {
                metrics = rest.split('/').next().map(str::to_string);
            } else if let Some(rest) = line.strip_prefix("hard-serve listening on ") {
                addr = Some(rest.trim().to_string());
            }
        }
        // Keep the pipe drained so the child never blocks on stderr.
        let drain = std::thread::spawn(move || lines.map_while(Result::ok).for_each(drop));
        let me = ServeChild {
            child,
            addr: addr.expect("loop ends with an address"),
            metrics: metrics.unwrap_or_default(),
            drain: Some(drain),
        };
        if me.metrics.is_empty() {
            return Err("hard-serve printed no metrics address".into());
        }
        Ok(me)
    }

    /// The child's process id.
    #[must_use]
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the server to drain and exit, and waits for it.
    ///
    /// # Errors
    ///
    /// When the shutdown request fails or the child does not exit
    /// cleanly within 30 s (it is then killed).
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = hard_harness::service::request_shutdown(&self.addr);
        let deadline = Instant::now() + Duration::from_secs(30);
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(s)) => break Some(s),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                _ => break None,
            }
        };
        asked?;
        match status {
            Some(s) if s.success() => Ok(()),
            Some(s) => Err(format!("hard-serve exited with {s}")),
            None => Err("hard-serve did not exit after Shutdown".into()),
        }
    }
}

impl Drop for ServeChild {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
    }
}

/// One `GET` on the metrics endpoint; returns the body.
///
/// # Errors
///
/// Connection and read errors.
pub fn scrape(addr: &str) -> Result<String, String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("cannot connect {addr}: {e}"))?;
    s.set_read_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    write!(
        s,
        "GET /metrics HTTP/1.1\r\nHost: perfbench\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| format!("scrape: {e}"))?;
    let mut raw = String::new();
    s.read_to_string(&mut raw)
        .map_err(|e| format!("scrape: {e}"))?;
    Ok(raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default())
}

/// The value of the unlabelled sample `name` in a metrics body.
#[must_use]
pub fn sample(body: &str, name: &str) -> Option<f64> {
    body.lines().find_map(|l| {
        let (n, v) = l.split_once(' ')?;
        (n == name).then(|| v.trim().parse().ok()).flatten()
    })
}

/// How one session ended, as the client saw it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Answer {
    /// A `Report` frame; its body with the trace-ID prefix removed.
    Report(Vec<u8>),
    /// A `Busy` shed.
    Busy(String),
    /// An `Error` frame.
    Error(String),
    /// A connection or framing failure.
    Io(String),
}

/// One session, timed from the connect.
#[derive(Clone, Debug)]
pub struct Session {
    /// Index of the upload sent.
    pub upload: usize,
    /// Connect → `End` written: connect, handshake and upload.
    pub upload_time: Duration,
    /// `End` written → response frame read.
    pub wait_time: Duration,
    /// The response.
    pub answer: Answer,
}

impl Session {
    /// Client-observed latency: connect → response read.
    #[must_use]
    pub fn latency(&self) -> Duration {
        self.upload_time + self.wait_time
    }
}

/// A connection that has handshaken, ready for one session.
struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("cannot connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(IO_TIMEOUT)))
            .and_then(|()| stream.set_write_timeout(Some(IO_TIMEOUT)))
            .map_err(|e| e.to_string())?;
        let mut w = stream.try_clone().map_err(|e| e.to_string())?;
        let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        write_handshake(&mut w).map_err(|e| format!("handshake send: {e}"))?;
        read_handshake(&mut reader).map_err(|e| format!("handshake recv: {e}"))?;
        Ok(Conn { stream, reader })
    }

    /// Uploads `framed` and reads the response; `t0` is when the
    /// connect began.
    fn session(mut self, t0: Instant, upload: usize, framed: &[u8]) -> Session {
        let sent = self.stream.write_all(framed);
        let t1 = Instant::now();
        // A shedding server answers and closes without reading the
        // upload, so a failed write still looks for its verdict.
        let answer = match read_frame(&mut self.reader, MAX_FRAME_BYTES) {
            Ok(f) => {
                let (_, body) = split_traced(&f.payload);
                match f.kind {
                    FrameKind::Report => Answer::Report(body.to_vec()),
                    FrameKind::Busy => Answer::Busy(decode_busy(body).1),
                    FrameKind::Error => Answer::Error(String::from_utf8_lossy(body).into_owned()),
                    other => Answer::Io(format!("unexpected {other:?} frame")),
                }
            }
            Err(e) => match sent {
                Err(w) => Answer::Io(format!("upload: {w}")),
                Ok(()) => Answer::Io(format!("response: {e}")),
            },
        };
        Session {
            upload,
            upload_time: t1 - t0,
            wait_time: t1.elapsed(),
            answer,
        }
    }
}

/// What a closed-loop drive produced.
pub struct Drive {
    /// Every session attempted, per connection in order.
    pub sessions: Vec<Session>,
    /// Host time of the drive.
    pub wall: Duration,
}

/// Runs `conns` closed-loop clients against `addr`, cycling through
/// `uploads`, until `seconds` have gone by and at least `min_sessions`
/// sessions have ended. Each session connects and handshakes anew, as
/// the repository's clients do; a client whose connect or handshake
/// fails records the failed session and stops.
#[must_use]
pub fn drive(
    addr: &str,
    uploads: &[Upload],
    conns: usize,
    seconds: f64,
    min_sessions: usize,
) -> Drive {
    let started = Instant::now();
    let next = AtomicUsize::new(0);
    let ended = AtomicUsize::new(0);
    let per_conn: Vec<Vec<Session>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..conns)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let elapsed = started.elapsed();
                        let done = elapsed.as_secs_f64() >= seconds
                            && ended.load(Ordering::SeqCst) >= min_sessions;
                        if done || elapsed >= DRIVE_CAP {
                            break;
                        }
                        let i = next.fetch_add(1, Ordering::SeqCst) % uploads.len();
                        let t0 = Instant::now();
                        let opened = Conn::open(addr);
                        let stop = opened.is_err();
                        mine.push(match opened {
                            Ok(c) => c.session(t0, i, &uploads[i].framed),
                            Err(e) => Session {
                                upload: i,
                                upload_time: t0.elapsed(),
                                wait_time: Duration::ZERO,
                                answer: Answer::Io(e),
                            },
                        });
                        ended.fetch_add(1, Ordering::SeqCst);
                        if stop {
                            break;
                        }
                    }
                    mine
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    Drive {
        sessions: per_conn.into_iter().flatten().collect(),
        wall: started.elapsed(),
    }
}

/// Checks every session's answer against its upload's offline report
/// and returns the verified sessions' events and latencies in ms. A
/// session that was refused, failed, or whose report differs is a
/// failed operation.
pub fn verify(d: &Drive, uploads: &[Upload], o: &mut Outcome) -> (u64, Vec<f64>) {
    let mut events = 0;
    let mut lat = Vec::with_capacity(d.sessions.len());
    let mut failures: std::collections::BTreeMap<String, usize> = Default::default();
    for s in &d.sessions {
        o.attempted += 1;
        let why = match &s.answer {
            Answer::Report(body) if body == uploads[s.upload].expected.as_bytes() => {
                events += uploads[s.upload].events;
                lat.push(ms(s.latency()));
                continue;
            }
            Answer::Report(_) => "report differs from the offline replay".to_string(),
            Answer::Busy(m) => format!("Busy: {m}"),
            Answer::Error(m) => format!("Error: {m}"),
            Answer::Io(m) => format!("I/O: {m}"),
        };
        o.failed += 1;
        *failures.entry(why).or_default() += 1;
    }
    for (why, n) in failures {
        o.problem(format!("serve: {n} session(s): {why}"));
    }
    if d.sessions.is_empty() {
        o.problem("serve: no session ran");
    }
    (events, lat)
}

/// The measured phase: drives the child in slices of [`SLICE_SECONDS`]
/// for `seconds` (and at least [`MIN_SESSIONS`] sessions), with the
/// set-up repeats that fall due between slices, then reads its peak
/// memory. A slice with no report in it ends the phase.
pub fn run(child: &ServeChild, uploads: &[Upload], seconds: f64, setups: &mut Setups) -> Outcome {
    let mut o = Outcome::new();
    let started = Instant::now();
    let mut d = Drive {
        sessions: Vec::new(),
        wall: Duration::ZERO,
    };
    while started.elapsed() < DRIVE_CAP
        && (started.elapsed().as_secs_f64() < seconds || d.sessions.len() < MIN_SESSIONS)
    {
        let slice = drive(&child.addr, uploads, CONNECTIONS, SLICE_SECONDS, 0);
        let served = slice
            .sessions
            .iter()
            .any(|s| matches!(s.answer, Answer::Report(_)));
        d.sessions.extend(slice.sessions);
        d.wall += slice.wall;
        if !served {
            break;
        }
        setups.between();
    }
    let peak = crate::out::vm_hwm_mb(Some(child.pid())).unwrap_or(0.0);
    let (events, lat) = verify(&d, uploads, &mut o);
    if lat.len() < MIN_SESSIONS {
        o.problem(format!(
            "serve: {} verified session(s), fewer than {MIN_SESSIONS}",
            lat.len()
        ));
    }
    #[allow(clippy::cast_precision_loss)]
    o.metric(
        "events_per_s",
        events as f64 / d.wall.as_secs_f64(),
        "events/s",
    );
    o.metric("peak_rss_mb", peak, "MiB");
    o.metric("report_p50_ms", median(&lat), "ms");
    o.metric("report_p99_ms", quantile(&lat, 0.99), "ms");
    o
}
