//! The benchmark's own checks, at a tiny size.

use hard_harness::{injected_trace, race_free_trace, CampaignConfig};
use hard_serve::{ServeConfig, Server};
use hard_trace::wire::{
    encode_busy, read_frame, read_handshake, write_frame, write_handshake, FrameKind,
    MAX_FRAME_BYTES,
};
use perfbench::inputs::{self, CorpusFile, Seeds, Setups, Sizes, Spec, DEFAULT_SEED};
use perfbench::out::Outcome;
use perfbench::{replay, serve, sweep};
use std::net::TcpListener;
use std::path::PathBuf;

const TINY: Sizes = Sizes {
    sweep_scale: 0.02,
    sweep_runs: 2,
    replay_scale: 0.5,
    serve_scale: 0.02,
};

/// A fresh directory for one test's corpus files.
fn dir(name: &str) -> PathBuf {
    let d = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Sets up `specs` and writes their corpus files.
fn corpus<'a>(specs: &'a [Spec], seeds: Seeds, name: &str) -> (Vec<CorpusFile>, Setups<'a>) {
    let (setups, built) = Setups::first(specs, seeds).expect("tiny inputs build");
    let files = inputs::write(&dir(name), &built).expect("corpus writes").0;
    (files, setups)
}

#[test]
fn default_seed_reproduces_the_campaign_traces() {
    let cfg = CampaignConfig::reduced(TINY.sweep_scale, TINY.sweep_runs);
    for spec in inputs::sweep_specs(&TINY) {
        let (trace, injection) = inputs::generate(&spec, Seeds(DEFAULT_SEED)).expect("generates");
        match spec.run {
            None => assert_eq!(trace, race_free_trace(spec.app, &cfg)),
            Some(run) => {
                let (t, i) = injected_trace(spec.app, &cfg, run);
                assert_eq!(trace, t);
                assert_eq!(injection, Some(i));
            }
        }
    }
}

#[test]
fn held_out_seed_changes_inputs_and_sweep_stays_green() {
    let specs = inputs::sweep_specs(&TINY);
    let (default, _) = inputs::generate(&specs[1], Seeds(DEFAULT_SEED)).expect("generates");
    let (held_out, _) = inputs::generate(&specs[1], Seeds(7)).expect("generates");
    assert_ne!(default, held_out);

    let (files, mut setups) = corpus(&specs, Seeds(7), "sweep-held-out");
    let o = sweep::run(&files, Seeds(7), &TINY, 0.0, &mut setups);
    assert!(o.correct, "{:?}", o.problems);
    assert_eq!(o.failed, 0);
    assert_eq!(o.attempted, 4 * specs.len() as u64);
}

#[test]
fn flipped_corpus_byte_fails_replay() {
    let specs = inputs::replay_specs(&TINY);
    let (files, mut setups) = corpus(&specs, Seeds(3), "replay-flip");
    let clean = replay::run(&files[0], 0.0, &mut setups);
    assert!(clean.correct, "{:?}", clean.problems);
    assert_eq!(clean.failed, 0);

    let mut bytes = std::fs::read(&files[0].path).expect("corpus reads");
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(&files[0].path, bytes).expect("corpus writes");
    let flipped = replay::run(&files[0], 0.0, &mut setups);
    assert!(!flipped.correct);
    assert!(flipped.failed > 0);
    assert_eq!(flipped.failed, flipped.attempted);
}

fn tiny_uploads() -> Vec<serve::Upload> {
    let (built, _) = inputs::build(&inputs::serve_specs(&TINY), Seeds(5)).expect("builds");
    serve::uploads(&built).expect("offline reports render")
}

#[test]
fn busy_answer_is_a_failed_session() {
    const SESSIONS: usize = 3;
    let uploads = tiny_uploads();
    let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
    let addr = listener.local_addr().expect("has an address").to_string();
    // Sheds every session at Begin, as a saturated server does, then
    // reads the rest of the upload until the client hangs up.
    let server = std::thread::spawn(move || {
        for _ in 0..SESSIONS {
            let (mut s, _) = listener.accept().expect("accepts");
            read_handshake(&mut s).expect("handshake");
            write_handshake(&mut s).expect("handshake");
            let begin = read_frame(&mut s, MAX_FRAME_BYTES).expect("Begin");
            assert_eq!(begin.kind, FrameKind::Begin);
            let busy = encode_busy(250, "detection queue saturated");
            write_frame(&mut s, FrameKind::Busy, &busy).expect("Busy");
            let _ = std::io::copy(&mut s, &mut std::io::sink());
        }
    });
    let d = serve::drive(&addr, &uploads, 1, 0.0, SESSIONS);
    server.join().expect("fake server ran");
    let mut o = Outcome::new();
    let (events, lat) = serve::verify(&d, &uploads, &mut o);
    assert_eq!(o.attempted, SESSIONS as u64);
    assert_eq!(o.failed, SESSIONS as u64);
    assert_eq!((events, lat.len()), (0, 0));
    assert!(!o.correct);
    assert!(
        o.problems.iter().any(|p| p.contains("Busy")),
        "{:?}",
        o.problems
    );
}

#[test]
fn served_reports_equal_the_offline_replay() {
    let uploads = tiny_uploads();
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        report_cache: false,
        ..ServeConfig::default()
    })
    .expect("binds");
    let addr = server.local_addr().expect("has an address").to_string();
    let running = std::thread::spawn(move || server.run());
    let d = serve::drive(&addr, &uploads, 2, 0.0, 2 * uploads.len());
    hard_harness::service::request_shutdown(&addr).expect("shuts down");
    running
        .join()
        .expect("server thread")
        .expect("server drains");
    let mut o = Outcome::new();
    let (events, lat) = serve::verify(&d, &uploads, &mut o);
    assert!(o.correct, "{:?}", o.problems);
    assert_eq!(o.failed, 0);
    assert_eq!(lat.len(), d.sessions.len());
    assert!(events > 0);
}
