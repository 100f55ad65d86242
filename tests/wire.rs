//! Satellite: property tests for the service wire formats.
//!
//! Three layers are pinned from the outside: the canonical
//! [`Plan`]/[`ResultSet`] JSON codecs (random plans round-trip
//! losslessly and re-render byte-identically), the frame envelope (every
//! truncation and every byte substitution of a valid frame is rejected,
//! version skew is named as such), and the memo-key property that the
//! daemon's cache correctness rests on (equal plans ⇔ equal canonical
//! encodings ⇔ equal hashes).

use tlabp::core::automaton::Automaton;
use tlabp::core::bht::BhtConfig;
use tlabp::core::config::SchemeConfig;
use tlabp::service::proto::{
    decode_frame, encode_frame, parse_result_payload, result_payload, FrameError, FrameKind,
};
use tlabp::sim::plan::{ExecPath, Job, MetricSet, Plan, TargetCacheSpec};
use tlabp::sim::runner::SimConfig;
use tlabp::sim::JobOutcome;
use tlabp::trace::rng::SmallRng;
use tlabp::workloads::{Benchmark, DataSet};

/// Draws one random-but-valid job: any catalog scheme or a custom name,
/// any benchmark/data-set pair that exists, any sim/metric/engine
/// options. The space deliberately covers every optional field of the
/// wire form.
fn random_job(rng: &mut SmallRng) -> Job {
    let benchmark = &Benchmark::ALL[rng.next_below(Benchmark::ALL.len() as u64) as usize];
    let config = match rng.next_below(8) {
        0 => SchemeConfig::gag(6 + rng.next_below(12) as u32),
        1 => SchemeConfig::pag(4 + rng.next_below(10) as u32),
        2 => SchemeConfig::pap(4 + rng.next_below(8) as u32),
        3 => SchemeConfig::gsg(8 + rng.next_below(10) as u32),
        4 => SchemeConfig::psg(8 + rng.next_below(6) as u32),
        5 => SchemeConfig::btb(Automaton::A2),
        6 => SchemeConfig::btfn(),
        _ => SchemeConfig::profiling(),
    };
    let config = match rng.next_below(4) {
        0 => config.with_bht(BhtConfig::Ideal),
        1 => config.with_bht(BhtConfig::Cache {
            entries: 1 << (6 + rng.next_below(4)),
            ways: 1 << rng.next_below(3),
        }),
        _ => config,
    };
    let config = config.with_context_switch(rng.random_bool(0.3));
    // The wire encoding for a scheme IS the Table 3 notation, which
    // normalizes combinations that make no sense for a kind (a BHT on
    // BTFN, say). Normalize through the notation so the drawn config is
    // exactly what any decoder can reconstruct.
    let config: SchemeConfig = config.to_string().parse().expect("generated notation parses back");
    let mut job = if rng.random_bool(0.15) {
        Job::custom(format!("custom-{}", rng.next_below(1000)), benchmark)
    } else {
        Job::scheme(config, benchmark)
    };
    if benchmark.has_training_set() && rng.random_bool(0.2) {
        job.trace.data_set = DataSet::Training;
    }
    if rng.random_bool(0.3) {
        job = job.with_sim(SimConfig::paper_context_switch());
    }
    if rng.random_bool(0.25) {
        job = job.with_metrics(MetricSet {
            miss_breakdown: rng.random_bool(0.5),
            fetch: rng.random_bool(0.5).then_some(TargetCacheSpec { entries: 256, ways: 2 }),
        });
    }
    job.with_path(ExecPath::ALL[rng.next_below(ExecPath::ALL.len() as u64) as usize])
}

fn random_plan(rng: &mut SmallRng, max_jobs: u64) -> Plan {
    (0..rng.next_below(max_jobs + 1)).map(|_| random_job(rng)).collect()
}

/// Random plans survive encode → decode → re-encode with byte equality,
/// and the wire hash is a function of the canonical text alone.
#[test]
fn random_plans_round_trip_canonically() {
    let mut rng = SmallRng::seed_from_u64(0x7ab5_1e55);
    for _ in 0..200 {
        let plan = random_plan(&mut rng, 12);
        let text = plan.to_json_string();
        let back = Plan::from_json_str(&text).expect("canonical text decodes");
        assert_eq!(back, plan, "decode must reconstruct every job field");
        assert_eq!(back.to_json_string(), text, "re-encode must be byte-identical");
        assert_eq!(back.wire_hash(), plan.wire_hash());
    }
}

/// The memo-key property: two plans share a canonical encoding (and
/// hash) iff they are equal; a one-field perturbation changes both.
#[test]
fn canonical_encoding_separates_distinct_plans() {
    let mut rng = SmallRng::seed_from_u64(0xd15_7a9c);
    for _ in 0..100 {
        let mut plan = random_plan(&mut rng, 8);
        if plan.is_empty() {
            continue;
        }
        let text = plan.to_json_string();
        let hash = plan.wire_hash();
        // Perturb one job's path — the smallest possible change.
        let victim = rng.next_below(plan.len() as u64) as usize;
        let jobs: Vec<Job> = plan
            .jobs()
            .iter()
            .enumerate()
            .map(|(i, job)| {
                let mut job = job.clone();
                if i == victim {
                    let next = ExecPath::ALL.iter().position(|&p| p == job.path).unwrap() + 1;
                    job.path = ExecPath::ALL[next % ExecPath::ALL.len()];
                }
                job
            })
            .collect();
        plan = jobs.into_iter().collect();
        assert_ne!(plan.to_json_string(), text, "distinct plans must encode distinctly");
        assert_ne!(plan.wire_hash(), hash, "distinct plans must hash distinctly");
    }
}

/// Every prefix truncation of a valid frame fails to decode — a client
/// can never mistake a torn line for a complete response.
#[test]
fn truncated_frames_are_rejected_at_every_boundary() {
    let mut rng = SmallRng::seed_from_u64(0x0dd_ba11);
    let plan = random_plan(&mut rng, 6);
    let frames = [
        encode_frame(FrameKind::Plan, &plan.to_json_string()),
        encode_frame(
            FrameKind::Result,
            &result_payload(3, &JobOutcome::Skipped { reason: "spaces matter here".into() }),
        ),
    ];
    for frame in &frames {
        assert!(decode_frame(frame).is_ok());
        for cut in 0..frame.len() {
            if !frame.is_char_boundary(cut) {
                continue;
            }
            assert!(
                decode_frame(&frame[..cut]).is_err(),
                "prefix of length {cut} of {frame:?} must not decode"
            );
        }
    }
    // A length token far past the line's end — up to `usize::MAX`, where
    // sizing the payload must not overflow — reads as truncated.
    let fields: Vec<&str> = frames[1].splitn(5, ' ').collect();
    let [magic, version, kind, _, body] = fields[..] else { panic!("five frame fields") };
    for len in [body.len(), usize::MAX] {
        let frame = format!("{magic} {version} {kind} {len} {body}");
        assert_eq!(decode_frame(&frame), Err(FrameError::Truncated), "length {len}");
    }
}

/// Every single-byte substitution of a valid frame is rejected: either
/// the envelope breaks (magic/version/kind/length) or the checksum
/// catches the payload flip. No corruption decodes silently to a
/// *different* payload.
#[test]
fn corrupted_frames_never_decode_to_different_payloads() {
    let original_payload = result_payload(7, &JobOutcome::Skipped { reason: "x".into() });
    let frame = encode_frame(FrameKind::Result, &original_payload);
    let bytes = frame.as_bytes();
    for position in 0..bytes.len() {
        for replacement in [b'0', b'z', b' ', b'"'] {
            if bytes[position] == replacement {
                continue;
            }
            let mut corrupted = bytes.to_vec();
            corrupted[position] = replacement;
            let Ok(corrupted) = String::from_utf8(corrupted) else { continue };
            if let Ok((kind, payload)) = decode_frame(&corrupted) {
                // The only tolerated decodes are ones that preserve the
                // message exactly (e.g. flipping a checksum hex digit to
                // itself is skipped above, so nothing should land here).
                assert_eq!(
                    (kind, payload),
                    (FrameKind::Result, original_payload.as_str()),
                    "byte {position} -> {replacement:?} decoded to a different message"
                );
                panic!("byte {position} -> {replacement:?} still decoded: {corrupted:?}");
            }
        }
    }
}

/// Version skew is reported as version skew — not as a checksum or
/// length error — for both the frame envelope and the plan payload.
#[test]
fn version_mismatches_are_named() {
    let plan: Plan = [Job::scheme(SchemeConfig::pag(8), &Benchmark::ALL[0])].into_iter().collect();
    let good = encode_frame(FrameKind::Plan, &plan.to_json_string());

    let skewed = good.replacen("TLBS 1 ", "TLBS 99 ", 1);
    assert_eq!(
        decode_frame(&skewed),
        Err(FrameError::BadVersion { found: "99".to_owned() }),
        "envelope version skew must be identified"
    );

    let payload_skew = plan.to_json_string().replacen("\"version\":2", "\"version\":3", 1);
    let err = Plan::from_json_str(&payload_skew).expect_err("future plan version must not decode");
    assert!(err.to_string().contains("version"), "error names the version field: {err}");
}

/// Result payloads round-trip through the frame layer: what the server
/// streams is exactly what the client reconstructs.
#[test]
fn result_payloads_round_trip_through_frames() {
    let outcomes = [
        JobOutcome::Skipped { reason: "profiling needs a training set".into() },
        JobOutcome::Skipped { reason: String::new() },
    ];
    for (index, outcome) in outcomes.iter().enumerate() {
        let frame = encode_frame(FrameKind::Result, &result_payload(index, outcome));
        let (kind, payload) = decode_frame(&frame).expect("frame decodes");
        assert_eq!(kind, FrameKind::Result);
        let (back_index, back) = parse_result_payload(payload).expect("payload parses");
        assert_eq!(back_index, index);
        assert_eq!(&back, outcome);
    }
}

/// A version-1 plan, with its three path booleans in place of one
/// `path` string, is rejected as a version mismatch, not half-decoded
/// under today's field names.
#[test]
fn version_one_plans_are_rejected_by_name() {
    let plan: Plan = [Job::scheme(SchemeConfig::pag(12), &Benchmark::ALL[0])].into_iter().collect();
    let v1 = plan.to_json_string().replacen("\"version\":2", "\"version\":1", 1).replacen(
        "\"path\":\"auto\"",
        "\"reference_path\":false,\"fuse\":true,\"replay\":true",
        1,
    );
    assert!(v1.contains("\"fuse\":true"), "{v1}");
    let err = Plan::from_json_str(&v1).expect_err("a version-1 plan must not decode");
    assert!(err.to_string().contains("unsupported plan version 1"), "{err}");
}
