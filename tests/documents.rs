//! The four JSON documents the triage loop exchanges — run manifest,
//! soak cursor, shrink repro and postmortem bundle — decode through one
//! strict reader. Two properties pin that down:
//!
//! * every truncation, every single-bit flip and random pairs of flips of
//!   a rendered document either fail to decode or decode to a value that
//!   re-renders to the same JSON value as the mutated text, so no value is
//!   re-cased, re-padded, rounded or silently ignored (a deleted field
//!   is the probe table's job: no flip deletes one and keeps the JSON
//!   valid);
//! * each hand edit that once decoded to an invented value now fails
//!   with an error naming the field.

use std::process::Command;

use acr_ckpt::{
    BreachRecord, EscalationStep, EventRecord, IntervalRecord, InvariantSummary, MonitorCounters,
    PostmortemBundle, ReproDoc, RingDigest, SoakCell, SoakCursor,
};
use acr_mem::{CoreId, WordAddr};
use acr_rng::check::forall;
use acr_sim::{Fault, FaultKind};
use acr_trace::{parse_json, BenchStats, Json, Manifest};

fn manifest() -> Manifest {
    Manifest {
        command: "bench".to_owned(),
        config: vec![
            ("seed".to_owned(), "42".to_owned()),
            ("scale".to_owned(), "0.03".to_owned()),
        ],
        sim_hashes: vec![
            ("cg".to_owned(), 0xc54b_bffb_988c_4c35),
            ("combined".to_owned(), 0x0012_cbe9_09fd_e42a),
        ],
        metrics_digest: 0x89e6_964e_2a03_7a46,
        host: vec![
            ("host.wall_ns".to_owned(), 168_348_307),
            ("host.rss.peak_bytes".to_owned(), 7_843_840),
        ],
        bench: Some(BenchStats::from_samples(&[90, 100, 110, 95, 105], 1)),
    }
}

fn cursor() -> SoakCursor {
    let cell = |key: &str, cases, due, chain| SoakCell {
        key: key.to_owned(),
        cases,
        recovered: cases - due,
        due,
        sdc: 0,
        hang: 0,
        hash_chain: chain,
    };
    SoakCursor {
        seed: 42,
        chunk_cases: 5,
        fingerprint: 0xdfb0_b8ae_98d7_89ea,
        chunks_done: 4,
        cells: vec![
            cell("cg/stuck/baseline", 10, 3, 0x72d1_69d2_5268_1609),
            cell("cg/stuck/nested", 10, 0, 0x0000_0000_0000_0001),
        ],
    }
}

fn repro() -> ReproDoc {
    ReproDoc {
        workload: "cg".to_owned(),
        case: 0,
        seed: 42,
        threads: 2,
        scale: 0.03,
        checkpoints: 4,
        latency: 0.1,
        amnesic: true,
        recovery_faults: false,
        generations: 1,
        watchdog_budget: 0,
        trigger: "divergence",
        probable_cause: "mem fault (0x80) planned at progress 1 -> divergence".to_owned(),
        original_faults: 10,
        faults: vec![
            Fault {
                at_progress: 1,
                core: CoreId(0),
                kind: FaultKind::MemBitFlip {
                    addr: WordAddr::new(0x80),
                    bit: 0,
                },
            },
            Fault {
                at_progress: 9,
                core: CoreId(1),
                kind: FaultKind::MemBurst {
                    addr: WordAddr::new(0x1f8),
                    bit: 60,
                    span: 7,
                },
            },
            Fault {
                at_progress: 20,
                core: CoreId(1),
                kind: FaultKind::StuckAt {
                    addr: WordAddr::new(0x8),
                    bit: 3,
                    stuck_one: true,
                },
            },
            Fault {
                at_progress: 33,
                core: CoreId(0),
                kind: FaultKind::RegBitFlip { reg: 3, bit: 17 },
            },
        ],
    }
}

fn bundle() -> PostmortemBundle {
    let mut invariants = InvariantSummary {
        log_conservation: MonitorCounters {
            checks: 7,
            breaches: 0,
        },
        checksum_spot: MonitorCounters {
            checks: 3,
            breaches: 1,
        },
        ..InvariantSummary::default()
    };
    invariants.first_breach = Some(BreachRecord {
        monitor: "checksum_spot",
        epoch: 4,
        cycle: 900,
        detail: "record 2 failed verify".to_owned(),
    });
    let event = |kind, name: &str, cycle, args: &[(&str, u64)]| EventRecord {
        kind,
        name: name.to_owned(),
        cat: "ckpt".to_owned(),
        track: 0,
        cycle,
        dur: 12,
        args: args.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect(),
    };
    PostmortemBundle {
        trigger: "invariant-breach",
        workload: "cg".to_owned(),
        repro: "acr_cli inject --seed 42".to_owned(),
        seed: 42,
        case: 3,
        fault_kind: "mem",
        fault_detail: "0x80b0 bit 5".to_owned(),
        fault_core: 1,
        fault_at_progress: 500,
        landing_cycle: 2000,
        recovery_fault: Some("torn-record"),
        outcome: "diverged",
        cycles: 4000,
        final_retired: 1000,
        failed_condition: Some("retired 1000 vs 800".to_owned()),
        mem_fnv: 0x0e73_a8b3_6bdb_db2f,
        mem_divergence: 2,
        reg_divergence: 0,
        shadow_divergence: 1,
        lifetime_logged: 7,
        lifetime_omitted: 3,
        intervals_tail: vec![IntervalRecord {
            epoch: 2,
            progress: 640,
            records: 11,
            omitted: 4,
            bytes: 352,
            baseline_bytes: 0,
            stall_cycles: 90,
            lines_flushed: 0,
        }],
        intervals_dropped: 1,
        escalation: vec![EscalationStep {
            detected_at_cycles: 2100,
            safe_epoch: 1,
            replay_retries: 2,
            generation_fallbacks: 0,
            degraded_entered: true,
        }],
        escalation_exhausted: 0,
        invariants,
        rings: vec![RingDigest {
            track: "core0".to_owned(),
            capacity: 4,
            total: 5,
            dropped: 3,
            events: vec![
                event("span", "ckpt", 100, &[("core0", 1), ("core1", 64)]),
                event("instant", "fault.inject", 2000, &[]),
            ],
        }],
        probable_cause: "invariant breach (checksum_spot) at epoch 4".to_owned(),
    }
}

/// Decodes `text` as one document type and re-renders it.
type Codec = fn(&str) -> Option<String>;

fn documents() -> [(&'static str, String, Codec); 4] {
    [
        ("manifest", manifest().to_json(), |t| {
            Manifest::from_json(t).ok().map(|m| m.to_json())
        }),
        ("cursor", cursor().to_json(), |t| {
            SoakCursor::from_json(t).ok().map(|c| c.to_json())
        }),
        ("repro", repro().to_json(), |t| {
            ReproDoc::from_json(t).ok().map(|r| r.to_json())
        }),
        ("bundle", bundle().to_json(), |t| {
            PostmortemBundle::from_json(t).ok().map(|b| b.to_json())
        }),
    ]
}

/// A mutated document either fails to decode or re-renders to the same
/// JSON value (whitespace aside).
fn check(name: &str, codec: Codec, mutated: &[u8]) {
    let Ok(text) = std::str::from_utf8(mutated) else {
        return; // not text: no reader ever sees it
    };
    if let Some(rendered) = codec(text) {
        let want: Option<Json> = parse_json(text).ok();
        assert_eq!(
            parse_json(&rendered).ok(),
            want,
            "{name}: decoded a value that renders differently\n--- input ---\n{text}\n--- \
             rendered ---\n{rendered}"
        );
    }
}

#[test]
fn every_document_rejects_or_round_trips_each_mutation() {
    let docs = documents();
    // The unmutated documents decode to exactly what was rendered.
    assert_eq!(Manifest::from_json(&docs[0].1).unwrap(), manifest());
    assert_eq!(SoakCursor::from_json(&docs[1].1).unwrap(), cursor());
    assert_eq!(ReproDoc::from_json(&docs[2].1).unwrap(), repro());
    assert_eq!(PostmortemBundle::from_json(&docs[3].1).unwrap(), bundle());
    // Every truncation and every single-bit flip, exhaustively.
    for (name, text, codec) in &docs {
        assert_eq!(codec(text).as_deref(), Some(text.as_str()), "{name}");
        for cut in 0..text.len() {
            check(name, *codec, &text.as_bytes()[..cut]);
        }
        for bit in 0..text.len() * 8 {
            let mut bytes = text.clone().into_bytes();
            bytes[bit / 8] ^= 1 << (bit % 8);
            check(name, *codec, &bytes);
        }
    }
    // Random pairs of flips reach edits one flip cannot.
    forall("document bit-flip pairs", 4000, 0xD0C5, |rng| {
        let (name, text, codec) = rng.choose(&docs);
        let mut bytes = text.clone().into_bytes();
        for _ in 0..2 {
            let at = rng.gen_range(0..bytes.len());
            bytes[at] ^= 1 << rng.gen_range(0..8u32);
        }
        check(name, *codec, &bytes);
    });
}

/// Runs `acr_cli` on a document written to a temp file; returns the exit
/// code, stdout and stderr.
fn cli(args: &[&str], doc: &str, tag: &str) -> (i32, String, String) {
    let path =
        std::env::temp_dir().join(format!("acr-documents-{}-{tag}.json", std::process::id()));
    std::fs::write(&path, doc).expect("write probe document");
    let path_str = path.to_str().expect("utf-8 temp path");
    let out = Command::new(env!("CARGO_BIN_EXE_acr_cli"))
        .args(args)
        .arg(path_str)
        .output()
        .expect("acr_cli starts");
    let _ = std::fs::remove_file(&path);
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// `shrink --replay` of an edited repro must exit 2 with one `error:`
/// line.
fn replay(doc: &str, tag: &str) -> String {
    let (code, _, stderr) = cli(&["shrink", "--replay"], doc, tag);
    assert_eq!(code, 2, "{tag}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{tag}: {stderr}");
    assert!(stderr.starts_with("error: "), "{tag}: {stderr}");
    stderr
}

/// The error text of a decode that must fail.
fn rejected<T: std::fmt::Debug>(r: Result<T, acr_trace::JsonError>) -> String {
    r.expect_err("edited document must not decode").to_string()
}

#[test]
fn edited_documents_fail_with_the_field_path() {
    let rendered_repro = repro().to_json();
    let rendered_cursor = cursor().to_json();
    let rendered_manifest = manifest().to_json();
    let rendered_bundle = bundle().to_json();
    // (document, text to replace, replacement, expected output fragment)
    type Run = fn(&str, &str) -> String;
    let probes: [(&str, &str, &str, &str, Run); 11] = [
        (
            &rendered_repro,
            "\"addr\": \"0x80\"",
            "\"addr\": \"0xfffffff8\"",
            "fault address 0xfffffff8 lies outside the",
            replay,
        ),
        (
            &rendered_repro,
            "\n  \"checkpoints\": 4,",
            "",
            "checkpoints: missing",
            replay,
        ),
        (
            &rendered_repro,
            "\"policy\": \"acr\"",
            "\"policy\": \"acx\"",
            "policy: \"acx\" is not one of acr|baseline",
            replay,
        ),
        (
            &rendered_repro,
            "\"recovery_faults\": false",
            "\"recovery_faults\": \"yes\"",
            "recovery_faults: expected true or false, found \"yes\"",
            replay,
        ),
        (
            &rendered_repro,
            "\"addr\": \"0x80\", \"bit\": 0",
            "\"addr\": \"0x80\", \"bit\": 300",
            "faults[0].bit: 300 out of range for u8",
            replay,
        ),
        (
            &rendered_repro,
            "{\"at\": 1, \"core\": 0,",
            "{\"at\": 1, \"core\": 7,",
            "faults[0].core: 7 outside 0..=1",
            replay,
        ),
        (
            &rendered_repro,
            "\"generations\": 1",
            "\"generations\": 0",
            "generations: 0 outside 1..=4294967295",
            replay,
        ),
        (
            &rendered_cursor,
            "\"chunk_cases\": 5",
            "\"chunk_cases\": 4294967301",
            "chunk_cases: 4294967301 out of range for u32",
            |doc, _| rejected(SoakCursor::from_json(doc)),
        ),
        (
            &rendered_cursor,
            "\"chunks_done\": 4",
            "\"chunks_done\": 2.5",
            "chunks_done: expected a non-negative integer, found 2.5",
            |doc, _| rejected(SoakCursor::from_json(doc)),
        ),
        (
            &rendered_manifest,
            "\"reps\":5",
            "\"reps\":9",
            "bench.reps: 9 does not match the 5 wall_ns samples",
            |doc, _| rejected(Manifest::from_json(doc)),
        ),
        (
            &rendered_bundle,
            "\"seed\": 42,",
            "\"seed\": 16045690984833335023,",
            "  seed 16045690984833335023  outcome diverged\n",
            |doc, tag| {
                let (code, stdout, stderr) = cli(&["explain"], doc, tag);
                assert_eq!(code, 0, "{tag}: {stderr}");
                stdout
            },
        ),
    ];
    for (i, (doc, from, to, want, run)) in probes.into_iter().enumerate() {
        assert!(doc.contains(from), "probe {i}: `{from}` not in\n{doc}");
        let out = run(&doc.replacen(from, to, 1), &format!("probe{i}"));
        assert!(out.contains(want), "probe {i}: want `{want}` in\n{out}");
    }
}
