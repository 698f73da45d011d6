//! Fuzzes the push-style record decoder
//! ([`hard_harness::StreamFeeder`]) that `hard-serve` runs on upload
//! bytes as they arrive.
//!
//! Input layout: one byte `k` (cut count, mod 8), then `k` little-endian
//! `u16` cut offsets, then the packed-record payload. Invariant: for
//! `hard` and `lockset-ideal`, feeding the payload in the pieces the
//! cuts make ends exactly like one whole-buffer `feed` — the same
//! `(reports, events, fnv)` or the same error string — and nothing
//! panics.

use hard_harness::{DetectorKind, StreamFeeder};
use hard_trace::packed_event::RECORD_BYTES;
use hard_trace::{PackedTrace, RaceReport};
use std::process::ExitCode;

type Verdict = Result<(Vec<RaceReport>, u64, u64), String>;

fn run(kind: &DetectorKind, pieces: &[&[u8]]) -> Verdict {
    let mut feeder = StreamFeeder::new(kind, 4);
    for piece in pieces {
        feeder.feed(piece)?;
    }
    feeder
        .finish()
        .map(|(run, events, fnv)| (run.reports, events, fnv))
}

fn target(data: &[u8]) {
    let Some((&k, rest)) = data.split_first() else {
        return;
    };
    let cuts_len = (usize::from(k % 8) * 2).min(rest.len());
    let (cut_bytes, payload) = rest.split_at(cuts_len);
    let mut cuts: Vec<usize> = cut_bytes
        .chunks_exact(2)
        .map(|c| usize::from(u16::from_le_bytes([c[0], c[1]])) % (payload.len() + 1))
        .collect();
    cuts.sort_unstable();
    let mut pieces = Vec::with_capacity(cuts.len() + 1);
    let mut at = 0;
    for cut in cuts {
        pieces.push(&payload[at..cut]);
        at = cut;
    }
    pieces.push(&payload[at..]);
    for kind in [DetectorKind::hard_default(), DetectorKind::lockset_ideal()] {
        assert_eq!(
            run(&kind, &pieces),
            run(&kind, &[payload]),
            "{kind}: split feed diverged from one whole feed"
        );
    }
}

/// Real packed records from a tiny generated trace behind a few cuts,
/// so mutations start from a stream that decodes and detects.
fn seeds() -> Vec<Vec<u8>> {
    let cfg = hard_harness::CampaignConfig::reduced(0.02, 1);
    let (trace, _) = hard_harness::campaign::injected_trace(hard_workloads::App::Ocean, &cfg, 0);
    let packed = PackedTrace::from_trace(&trace).expect("workload trace packs");
    let bytes = packed.bytes();
    let payload = &bytes[..bytes.len().min(128 * RECORD_BYTES)];
    let mut seed = vec![3u8];
    for cut in [7u16, 260, 1031] {
        seed.extend_from_slice(&cut.to_le_bytes());
    }
    seed.extend_from_slice(payload);
    vec![seed, vec![0u8]]
}

fn main() -> ExitCode {
    hard_fuzz::fuzz_main("fuzz_stream_feeder", seeds(), target)
}
