//! Every on-disk and wire decoder is total: whatever bytes it is
//! handed, it returns a value or a typed error, never a panic. A wire
//! decoder that returns a value must also re-encode it canonically: the
//! value's own encoding decodes back to the same value.
//!
//! A deterministic fuzz loop: valid encodings of each format are mutated
//! by a fixed-seed [`SmallRng`] — bit flips, byte overwrites,
//! truncation, appended bytes, and 8-byte words set to values just below
//! `u64::MAX` (the lengths that overflow a naive `len + k` bounds check)
//! — and each decoder runs on every mutant under `catch_unwind`. The
//! seed and the iteration count are fixed, so a failure reproduces
//! exactly.

use std::panic::{catch_unwind, AssertUnwindSafe};

use tlabp::core::config::SchemeConfig;
use tlabp::service::proto::{
    decode_frame, done_payload, encode_frame, error_payload, parse_done_payload,
    parse_error_payload, parse_result_payload, result_payload, FrameAssembler, FrameKind,
};
use tlabp::sim::plan::{ExecPath, Job, MetricSet, Plan, TargetCacheSpec};
use tlabp::sim::runner::{ContextSwitchConfig, SimConfig};
use tlabp::sim::{JobMetrics, JobOutcome, SimResult};
use tlabp::trace::io::{
    encode_section, read_artifacts, read_memo, read_trace, validate_section, walk_artifact,
    write_artifacts_chunked, write_memo, write_trace, ArtifactForm, MemoArtifact,
};
use tlabp::trace::rng::SmallRng;
use tlabp::trace::synth::LoopNest;
use tlabp::trace::{InternedConds, PatternStream, Trace};
use tlabp::workloads::Benchmark;

/// Mutants per decoder.
const MUTANTS: usize = 10_000;

/// A decoder under test; its result is dropped, only a panic counts.
type Decoder = fn(&[u8]);

/// Applies one to three random mutations to a copy of `valid`.
fn mutate(valid: &[u8], rng: &mut SmallRng) -> Vec<u8> {
    let mut bytes = valid.to_vec();
    for _ in 0..rng.next_range(1, 4) {
        let at = |rng: &mut SmallRng, len: usize| rng.next_below(len.max(1) as u64) as usize;
        match rng.next_below(5) {
            0 if !bytes.is_empty() => {
                let pos = at(rng, bytes.len());
                bytes[pos] ^= 1 << rng.next_below(8);
            }
            1 if !bytes.is_empty() => {
                let pos = at(rng, bytes.len());
                bytes[pos] = rng.next_u64() as u8;
            }
            2 => bytes.truncate(at(rng, bytes.len())),
            3 => {
                let extra = rng.next_range(1, 17) as usize;
                bytes.extend((0..extra).map(|_| rng.next_u64() as u8));
            }
            _ if bytes.len() >= 8 => {
                let pos = at(rng, bytes.len() - 7);
                let word = u64::MAX - rng.next_below(16);
                bytes[pos..pos + 8].copy_from_slice(&word.to_le_bytes());
            }
            _ => {}
        }
    }
    bytes
}

/// Runs `decode` on [`MUTANTS`] mutants of `valid` and returns how many
/// panicked.
fn panics(name: &str, valid: &[u8], seed: u64, decode: Decoder) -> usize {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut panicked = 0;
    for index in 0..MUTANTS {
        let mutant = mutate(valid, &mut rng);
        if catch_unwind(AssertUnwindSafe(|| decode(&mutant))).is_err() {
            if panicked == 0 {
                eprintln!("{name}: mutant {index} panicked ({} bytes)", mutant.len());
            }
            panicked += 1;
        }
    }
    panicked
}

fn sample_trace() -> Trace {
    LoopNest::new(&[5, 7]).generate()
}

fn sample_streams(interned: &InternedConds) -> Vec<(Vec<u8>, PatternStream)> {
    let mut unlaned = PatternStream::new(6, false);
    let mut laned = PatternStream::new(4, true);
    for (i, event) in interned.events().iter().enumerate() {
        unlaned.push(i % 64, event.taken());
        laned.push_with_lane(i % 16, event.taken(), event.id());
    }
    vec![(vec![0, 6, 0, 0, 0], unlaned), (b"laned".to_vec(), laned)]
}

#[test]
fn decoders_never_panic_on_mutated_inputs() {
    let trace = sample_trace();
    let packed = trace.pack_conditionals();
    let interned = InternedConds::from_packed(&packed);
    let streams = sample_streams(&interned);
    let refs: Vec<(Vec<u8>, &PatternStream)> =
        streams.iter().map(|(key, stream)| (key.clone(), stream)).collect();
    // A 64-byte chunk budget gives every section several chunks.
    let artifact =
        write_artifacts_chunked(7, Some(&trace), Some(&packed), Some(&interned), &refs, 64);
    let sections = [
        encode_section(ArtifactForm::Trace(&trace), 64),
        encode_section(ArtifactForm::Interned(&interned), 64),
        encode_section(ArtifactForm::Stream(&streams[1].0, &streams[1].1), 64),
    ];
    let memo = write_memo(&MemoArtifact {
        plan_hash: 0x1234,
        fingerprint: 0x5678,
        plan: r#"{"version":1,"jobs":[{"scheme":"PAg(12)"}]}"#.to_owned(),
        frames: vec![r#"{"index":0}"#.to_owned(), r#"{"index":1}"#.to_owned()],
    });
    let bare = write_trace(&trace);

    let targets: [(&str, &[u8], Decoder); 7] = [
        ("read_artifacts", &artifact, |b| drop(read_artifacts(b))),
        ("walk_artifact", &artifact, |b| drop(walk_artifact(b))),
        ("validate_section(trace)", &sections[0], |b| drop(validate_section(b))),
        ("validate_section(interned)", &sections[1], |b| drop(validate_section(b))),
        ("validate_section(stream)", &sections[2], |b| drop(validate_section(b))),
        ("read_trace", &bare, |b| drop(read_trace(b))),
        ("read_memo", &memo, |b| drop(read_memo(b))),
    ];
    let panicked: Vec<(&str, usize)> = targets
        .into_iter()
        .zip(1..)
        .map(|((name, valid, decode), seed)| (name, panics(name, valid, seed, decode)))
        .filter(|&(_, count)| count > 0)
        .collect();
    assert!(panicked.is_empty(), "decoders panicked (of {MUTANTS} mutants each): {panicked:?}");
}

/// A plan covering every [`ExecPath`], every context-switch model (none,
/// the paper's, a custom interval without traps) and every metric set.
fn sample_plan() -> Plan {
    let li = Benchmark::by_name("li").expect("li exists");
    let switches = [
        SimConfig::no_context_switch(),
        SimConfig::paper_context_switch(),
        SimConfig {
            context_switch: Some(ContextSwitchConfig {
                interval_instructions: 2_000,
                on_traps: false,
            }),
        },
    ];
    let fetch = Some(TargetCacheSpec { entries: 256, ways: 2 });
    let metrics = [
        MetricSet::ACCURACY,
        MetricSet { miss_breakdown: true, fetch: None },
        MetricSet { miss_breakdown: false, fetch },
        MetricSet { miss_breakdown: true, fetch },
    ];
    ExecPath::ALL
        .iter()
        .enumerate()
        .map(|(i, &path)| {
            let job = if i == 1 {
                Job::custom("gshare(12)", li)
            } else {
                Job::scheme(SchemeConfig::pag(8 + i as u32), li)
            };
            job.with_path(path).with_sim(switches[i % switches.len()]).with_metrics(metrics[i])
        })
        .collect()
}

/// Decodes a plan; a decoded plan must re-encode to a canonical text
/// that decodes back to the same plan.
fn decode_plan(bytes: &[u8]) {
    if let Ok(plan) = Plan::from_json_str(&String::from_utf8_lossy(bytes)) {
        let canonical = plan.to_json_string();
        let back = Plan::from_json_str(&canonical).expect("a decoded plan's encoding decodes");
        assert_eq!(back, plan, "re-decoded plan differs");
        assert_eq!(back.to_json_string(), canonical, "re-encoding is not canonical");
    }
}

/// Reassembles a byte stream into frames (fragmented at a
/// length-derived stride), decodes each frame and its payload, and
/// checks that every decoded value survives its own re-encoding.
fn decode_frames(bytes: &[u8]) {
    let mut assembler = FrameAssembler::new(1 << 12);
    for chunk in bytes.chunks(bytes.len() % 13 + 1) {
        let Ok(lines) = assembler.push(chunk) else { return };
        for line in lines {
            let Ok((kind, payload)) = decode_frame(&line) else { continue };
            assert_eq!(decode_frame(&encode_frame(kind, payload)), Ok((kind, payload)));
            match kind {
                FrameKind::Plan => decode_plan(payload.as_bytes()),
                FrameKind::Result => {
                    if let Ok((index, outcome)) = parse_result_payload(payload) {
                        let again = parse_result_payload(&result_payload(index, &outcome));
                        assert_eq!(again.ok(), Some((index, outcome)));
                    }
                }
                FrameKind::Done => {
                    if let Ok(done) = parse_done_payload(payload) {
                        let again = parse_done_payload(&done_payload(done.jobs, done.memo));
                        assert_eq!(again.ok(), Some(done));
                    }
                }
                FrameKind::Error => {
                    let message = parse_error_payload(payload);
                    assert_eq!(parse_error_payload(&error_payload(&message)), message);
                }
            }
        }
    }
}

#[test]
fn wire_decoders_never_panic_and_re_encode_canonically() {
    let plan = sample_plan().to_json_string();
    let measured = JobOutcome::Measured(JobMetrics {
        sim: SimResult {
            scheme: "PAg(8, A2)".to_owned(),
            predictions: 1_000,
            correct: 900,
            context_switches: 3,
        },
        miss_breakdown: None,
        fetch: None,
    });
    let frames = [
        encode_frame(FrameKind::Plan, &plan),
        encode_frame(FrameKind::Result, &result_payload(0, &measured)),
        encode_frame(
            FrameKind::Result,
            &result_payload(1, &JobOutcome::Skipped { reason: "no training set".to_owned() }),
        ),
        encode_frame(FrameKind::Done, &done_payload(2, true)),
        encode_frame(FrameKind::Error, &error_payload("bad \"plan\"")),
    ];
    let stream: String = frames.iter().map(|frame| format!("{frame}\n")).collect();

    let targets: [(&str, &[u8], Decoder); 2] = [
        ("Plan::from_json_str", plan.as_bytes(), decode_plan),
        ("FrameAssembler + decode_frame", stream.as_bytes(), decode_frames),
    ];
    let panicked: Vec<(&str, usize)> = targets
        .into_iter()
        .zip(101..)
        .map(|((name, valid, decode), seed)| (name, panics(name, valid, seed, decode)))
        .filter(|&(_, count)| count > 0)
        .collect();
    assert!(panicked.is_empty(), "decoders failed (of {MUTANTS} mutants each): {panicked:?}");
}
