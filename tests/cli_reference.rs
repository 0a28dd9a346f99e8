//! Pins every user-facing `acr_cli` output against
//! `results/CLI_reference.txt`.
//!
//! The campaign hashes, the figures and the engine are pinned elsewhere;
//! this test covers what the CLI writes around them: postmortem bundles
//! and their `explain` text, the soak cursor and its resume, shrink repro
//! documents and `--replay`, manifests and `diff`, traces, metrics,
//! profiles, per-case CSVs and `run` stdout. Each invocation runs the
//! built binary in a fresh temporary directory with relative output
//! names, so path echoes are stable, and every artifact becomes one
//! `name 0x<fnv1a>` line plus one `exit` line per invocation. Host timing
//! stays out: a manifest's `"host"` line is dropped before hashing and
//! stderr is never read.
//!
//! On a mismatch the test names the first differing artifact and prints
//! the full computed file, which replaces the reference after review when
//! the change is intended.

use std::path::{Path, PathBuf};
use std::process::Command;

use acr_trace::fnv1a;

const REFERENCE: &str = include_str!("../results/CLI_reference.txt");

struct Pin {
    dir: PathBuf,
    lines: Vec<String>,
}

impl Pin {
    /// Runs `acr_cli args` in the pin directory, recording its exit code
    /// and stdout hash under `name`.
    fn run(&mut self, name: &str, args: &[&str]) {
        let out = Command::new(env!("CARGO_BIN_EXE_acr_cli"))
            .args(args)
            .current_dir(&self.dir)
            .output()
            .expect("acr_cli starts");
        let code = out
            .status
            .code()
            .map_or("signal".to_owned(), |c| c.to_string());
        self.lines.push(format!("{name}.exit {code}"));
        self.hash(&format!("{name}.stdout"), &out.stdout);
    }

    fn hash(&mut self, name: &str, bytes: &[u8]) {
        self.lines.push(format!("{name} {:#018x}", fnv1a(bytes)));
    }

    fn read(&self, rel: &str) -> Vec<u8> {
        std::fs::read(self.dir.join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
    }

    /// Hashes one output file.
    fn file(&mut self, rel: &str) {
        let bytes = self.read(rel);
        self.hash(rel, &bytes);
    }

    /// Hashes a manifest without its host-timing line.
    fn manifest(&mut self, rel: &str) {
        let text = String::from_utf8(self.read(rel)).expect("manifest is UTF-8");
        let sim: String = text
            .lines()
            .filter(|l| !l.starts_with("\"host\":"))
            .map(|l| format!("{l}\n"))
            .collect();
        self.hash(&format!("{rel} (host line dropped)"), sim.as_bytes());
    }

    /// The files of one output directory, sorted by name.
    fn listing(&self, rel: &str) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(self.dir.join(rel))
            .unwrap_or_else(|e| panic!("{rel}: {e}"))
            .map(|e| {
                format!(
                    "{rel}/{}",
                    e.expect("dir entry").file_name().to_string_lossy()
                )
            })
            .collect();
        names.sort();
        names
    }
}

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("acr-cli-reference-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn pin_all(p: &mut Pin) {
    let small = ["--scale", "0.03", "--threads", "2"];
    let with = |args: &[&'static str]| -> Vec<&'static str> { [args, &small[..]].concat() };

    // A forced-divergence campaign: every failed case writes a bundle.
    p.run(
        "inject",
        &with(&[
            "inject",
            "--seed",
            "42",
            "--faults",
            "30",
            "--workloads",
            "cg",
            "--kinds",
            "mem",
            "--postmortem-dir",
            "pm",
            "--manifest-out",
            "inject.manifest.json",
            "--csv",
            "csv",
        ]),
    );
    p.manifest("inject.manifest.json");
    for f in p.listing("csv") {
        p.file(&f);
    }

    let soak = |cases: &'static str| -> Vec<&'static str> {
        with(&[
            "soak",
            "--workloads",
            "cg",
            "--cases",
            cases,
            "--chunk",
            "5",
            "--models",
            "stuck",
            "--resilience",
            "baseline",
            "--cursor",
            "soak.cursor.json",
            "--postmortem-dir",
            "pmsoak",
        ])
    };
    p.run("soak", &soak("10"));
    p.file("soak.cursor.json");
    p.run("soak.resume", &soak("20"));
    p.file("soak.cursor.json");

    let bundles: Vec<String> = [p.listing("pm"), p.listing("pmsoak")].concat();
    for b in &bundles {
        p.file(b);
        p.run(&format!("explain {b}"), &["explain", b]);
    }

    p.run(
        "shrink",
        &with(&[
            "shrink",
            "--workload",
            "cg",
            "--seed",
            "42",
            "--faults",
            "10",
            "--checkpoints",
            "4",
            "--out",
            "repro.json",
        ]),
    );
    p.file("repro.json");
    p.run("shrink.replay", &["shrink", "--replay", "repro.json"]);

    let baseline = Path::new(env!("CARGO_MANIFEST_DIR")).join("results/BENCH_baseline.json");
    let text = std::fs::read_to_string(&baseline).expect("baseline manifest");
    let combined = text
        .split("\"combined\":\"")
        .nth(1)
        .and_then(|rest| rest.get(..18))
        .expect("baseline has a combined hash");
    let perturbed = text.replace(combined, "0x0000000000000000");
    std::fs::write(p.dir.join("base.json"), &text).expect("write baseline copy");
    std::fs::write(p.dir.join("bad.json"), perturbed).expect("write perturbed copy");
    p.run("diff.same", &["diff", "base.json", "base.json"]);
    p.run("diff.perturbed", &["diff", "base.json", "bad.json"]);

    p.run(
        "trace",
        &with(&[
            "trace",
            "--workload",
            "cg",
            "--out",
            "run.trace.json",
            "--metrics-out",
            "run.metrics.jsonl",
        ]),
    );
    p.file("run.trace.json");
    p.file("run.metrics.jsonl");

    p.run(
        "profile",
        &with(&[
            "profile",
            "--workload",
            "cg",
            "--flame-out",
            "prof.folded",
            "--ledger-out",
            "prof.ledger.txt",
            "--trace-out",
            "prof.trace.json",
        ]),
    );
    p.file("prof.folded");
    p.file("prof.ledger.txt");
    p.file("prof.trace.json");

    p.run(
        "run",
        &[
            "run",
            "--workloads",
            "is",
            "--scale",
            "0.02",
            "--threads",
            "2",
            "--errors",
            "1",
        ],
    );
}

#[test]
fn every_cli_output_matches_its_reference() {
    let mut p = Pin {
        dir: temp_dir(),
        lines: Vec::new(),
    };
    pin_all(&mut p);
    let _ = std::fs::remove_dir_all(&p.dir);
    let computed: String = p.lines.iter().map(|l| format!("{l}\n")).collect();
    if computed != REFERENCE {
        let first = computed
            .lines()
            .zip(REFERENCE.lines())
            .find(|(c, r)| c != r)
            .map_or_else(
                || "the artifact list changed length".to_owned(),
                |(c, r)| format!("first mismatch: `{c}`, reference `{r}`"),
            );
        panic!("CLI output moved; {first}\n--- computed results/CLI_reference.txt ---\n{computed}");
    }
}
