//! Machine-readable run manifests and the manifest diff.
//!
//! A **run manifest** is one JSON document describing what a CLI run
//! computed and how fast the host computed it:
//!
//! * `config` — the sim-relevant knobs of the run (seed, fault count,
//!   workloads, …) as ordered string pairs. Execution knobs that must not
//!   change results (worker count) are deliberately excluded: they live in
//!   the host section.
//! * `sim` — the deterministic outcome: named content hashes plus a
//!   metrics digest. For a fixed config this section is **byte-identical**
//!   across invocations, machines and `--jobs` values; `acr_cli diff`
//!   compares it exactly.
//! * `host` — wall-clock phase timings, throughput, RSS and worker-load
//!   gauges from [`crate::perf`]. Never deterministic; compared with a
//!   tolerance band.
//! * `bench` — optional repetition statistics when the manifest came from
//!   `acr_cli bench` (median / MAD / min over reps).
//!
//! Serialisation uses this crate's own JSON exporter conventions and
//! [`crate::read_document`] for the reverse direction — no external
//! dependencies. Hash values are rendered as `0x…` hex *strings*, not JSON
//! numbers, because a `u64` hash does not survive the round trip through
//! an `f64` intact.

use crate::json::{read_document, render_json, Coder, JsonError, JsonResult, Layout};

/// Manifest schema identifier (bump on breaking layout changes).
pub const MANIFEST_SCHEMA: &str = "acr-manifest-v1";

/// Repetition statistics of an `acr_cli bench` run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BenchStats {
    /// Untimed warmup repetitions that preceded the timed ones.
    pub warmup: u64,
    /// Wall time of each timed repetition, in order, in nanoseconds.
    pub wall_ns: Vec<u64>,
    /// Median of `wall_ns`.
    pub median_ns: u64,
    /// Median absolute deviation around the median — a robust spread
    /// measure that one outlier repetition cannot blow up.
    pub mad_ns: u64,
    /// Fastest repetition.
    pub min_ns: u64,
}

/// Median of a sample set (mean of the two middle values for even sizes;
/// 0 for an empty set).
pub fn median(samples: &[u64]) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut s = samples.to_vec();
    s.sort_unstable();
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2
    }
}

impl BenchStats {
    /// Derives the summary statistics from per-repetition wall times.
    pub fn from_samples(wall_ns: &[u64], warmup: u64) -> Self {
        let med = median(wall_ns);
        let dev: Vec<u64> = wall_ns.iter().map(|&x| x.abs_diff(med)).collect();
        BenchStats {
            warmup,
            wall_ns: wall_ns.to_vec(),
            median_ns: med,
            mad_ns: median(&dev),
            min_ns: wall_ns.iter().copied().min().unwrap_or(0),
        }
    }

    /// Number of timed repetitions.
    pub fn reps(&self) -> u64 {
        self.wall_ns.len() as u64
    }
}

/// A run manifest (see the module docs for the section semantics).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Manifest {
    /// The producing subcommand (`inject`, `trace`, `profile`,
    /// `repro_all`, `bench`).
    pub command: String,
    /// Ordered sim-relevant configuration pairs.
    pub config: Vec<(String, String)>,
    /// Ordered named content hashes (per-workload hashes plus a
    /// `combined` fold). What a hash covers is the producing command's
    /// contract: campaign report hashes for `inject`/`bench`, exported
    /// artifact hashes for `trace`/`profile`/`repro_all`.
    pub sim_hashes: Vec<(String, u64)>,
    /// FNV-1a digest of the run's deterministic metrics
    /// ([`crate::MetricsRegistry::digest`] for campaigns, artifact-byte
    /// digests for exporters).
    pub metrics_digest: u64,
    /// Ordered `host.*` gauges from [`crate::HostPerf::finish`].
    pub host: Vec<(String, u64)>,
    /// Repetition statistics (bench runs only).
    pub bench: Option<BenchStats>,
}

/// The manifest's top level: one section per line.
const SECTIONS: Layout = Layout::new("\n", ",\n", ":", "\n", "\n");

/// A section's members on one line, without spaces.
const COMPACT: Layout = Layout::new("", ",", ":", "", "");

impl Manifest {
    /// The sim-deterministic section as JSON — the exact bytes embedded in
    /// [`Manifest::to_json`], exposed separately so tests and CI can
    /// assert byte-identity across invocations and `--jobs` values.
    pub fn sim_json(&self) -> String {
        render_json(None, COMPACT, &mut |c| self.clone().code_sim(c))
    }

    fn code_sim(&mut self, c: &mut Coder<'_, '_>) -> JsonResult {
        let hashes = &mut self.sim_hashes;
        c.map("hashes", COMPACT, hashes, &mut |c, (k, v)| c.hex(k, v, 16))?;
        c.hex("metrics_digest", &mut self.metrics_digest, 16)
    }

    /// The manifest's fields, in document order (see [`Coder`]).
    /// `bench.reps` must equal the number of `wall_ns` samples it
    /// summarises.
    fn code(&mut self, c: &mut Coder<'_, '_>) -> JsonResult {
        c.string("command", &mut self.command)?;
        c.map("config", COMPACT, &mut self.config, &mut |c, (k, v)| {
            c.string(k, v)
        })?;
        c.obj("sim", COMPACT, &mut |c| self.code_sim(c))?;
        c.map("host", COMPACT, &mut self.host, &mut |c, (k, v)| {
            c.uint(k, v)
        })?;
        c.opt_obj("bench", false, COMPACT, &mut self.bench, &mut |c, b| {
            let mut reps = b.reps();
            c.uint("reps", &mut reps)?;
            c.uint("warmup", &mut b.warmup)?;
            c.uints("wall_ns", COMPACT, &mut b.wall_ns)?;
            c.uint("median_ns", &mut b.median_ns)?;
            c.uint("mad_ns", &mut b.mad_ns)?;
            c.uint("min_ns", &mut b.min_ns)?;
            let samples = b.reps();
            c.check("reps", reps == samples, || {
                format!("{reps} does not match the {samples} wall_ns samples")
            })
        })
    }

    /// Renders the manifest as a JSON document (one top-level section per
    /// line; deterministic given identical contents).
    pub fn to_json(&self) -> String {
        let body = &mut |c: &mut Coder<'_, '_>| self.clone().code(c);
        render_json(Some(MANIFEST_SCHEMA), SECTIONS, body) + "\n"
    }

    /// Decodes a manifest rendered by [`Manifest::to_json`] (key order is
    /// kept, so decode-then-render round-trips).
    ///
    /// # Errors
    ///
    /// A [`JsonError`] naming the first bad field.
    pub fn from_json(text: &str) -> Result<Manifest, JsonError> {
        let mut m = Manifest::default();
        read_document(text, MANIFEST_SCHEMA, &mut |c| m.code(c))?;
        Ok(m)
    }

    /// Looks up a named content hash.
    pub fn hash(&self, name: &str) -> Option<u64> {
        self.sim_hashes
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    /// Looks up a `host.*` gauge.
    pub fn host_gauge(&self, key: &str) -> Option<u64> {
        self.host.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }
}

/// How [`diff_manifests`] compares two manifests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffOptions {
    /// Allowed host-timing growth (or, under [`Self::gate_tput`],
    /// throughput drop) in percent before the candidate counts as a
    /// regression (the band absorbs normal host noise).
    pub tolerance_pct: f64,
    /// Whether a host-timing regression fails the diff. Off in CI, where
    /// shared runners make wall time report-only; on for local gating.
    pub gate_host: bool,
    /// Whether a `host.tput.cycles_per_sec` drop beyond the tolerance
    /// fails the diff. Unlike wall time, simulated-cycles-per-host-second
    /// normalises away campaign length, so it is the gauge perf gates
    /// pin (`--host-gate tput`). A missing gauge on either side fails a
    /// gated diff: a perf gate that cannot measure must not pass.
    pub gate_tput: bool,
}

impl Default for DiffOptions {
    fn default() -> Self {
        DiffOptions {
            tolerance_pct: 20.0,
            gate_host: true,
            gate_tput: false,
        }
    }
}

/// The outcome of comparing a candidate manifest against a baseline.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiffReport {
    /// Human-readable findings, one per line, mismatches first.
    pub lines: Vec<String>,
    /// A sim-deterministic field differed (hash, digest, config or
    /// command) — always a failure: determinism never has a tolerance
    /// band.
    pub sim_mismatch: bool,
    /// The gated host timing exceeded the tolerance band.
    pub host_regression: bool,
    /// Whether host regressions were gated when the diff ran.
    pub host_gated: bool,
    /// The candidate's `host.tput.cycles_per_sec` fell more than the
    /// tolerance below the baseline's (or the gauge was missing while
    /// gated).
    pub tput_regression: bool,
    /// Whether throughput regressions were gated when the diff ran.
    pub tput_gated: bool,
}

impl DiffReport {
    /// Whether the comparison should fail the invoking process.
    pub fn failed(&self) -> bool {
        self.sim_mismatch
            || (self.host_gated && self.host_regression)
            || (self.tput_gated && self.tput_regression)
    }

    /// The findings as one printable block.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for l in &self.lines {
            out.push_str(l);
            out.push('\n');
        }
        out
    }
}

/// First-occurrence union of two key sequences, order-preserving.
fn union_keys<'a>(
    a: impl Iterator<Item = &'a str>,
    b: impl Iterator<Item = &'a str>,
) -> Vec<&'a str> {
    let mut out: Vec<&str> = Vec::new();
    for k in a.chain(b) {
        if !out.contains(&k) {
            out.push(k);
        }
    }
    out
}

/// The timing gauge a diff gates on: the bench median when both manifests
/// carry repetition statistics (robust), otherwise the total wall time.
fn gate_timing(m: &Manifest) -> Option<(&'static str, u64)> {
    if let Some(b) = &m.bench {
        return Some(("bench.median_ns", b.median_ns));
    }
    m.host_gauge("host.wall_ns").map(|v| ("host.wall_ns", v))
}

/// Compares `candidate` against `baseline`: byte-exact on the
/// sim-deterministic sections (command, config, hashes, metrics digest),
/// tolerance-banded on host timings. See [`DiffReport::failed`] for the
/// pass/fail rule.
pub fn diff_manifests(baseline: &Manifest, candidate: &Manifest, opts: &DiffOptions) -> DiffReport {
    let mut r = DiffReport {
        host_gated: opts.gate_host,
        tput_gated: opts.gate_tput,
        ..DiffReport::default()
    };
    if baseline.command != candidate.command {
        r.sim_mismatch = true;
        r.lines.push(format!(
            "FAIL command: baseline `{}` vs candidate `{}`",
            baseline.command, candidate.command
        ));
    }
    // Config: the union of keys must agree pairwise — comparing runs of
    // different campaigns is a user error the diff surfaces, not masks.
    let keys = union_keys(
        baseline.config.iter().map(|(k, _)| k.as_str()),
        candidate.config.iter().map(|(k, _)| k.as_str()),
    );
    for key in keys {
        let b = baseline
            .config
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v);
        let c = candidate
            .config
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v);
        if b != c {
            r.sim_mismatch = true;
            r.lines.push(format!(
                "FAIL config.{key}: baseline {} vs candidate {}",
                b.map_or("<absent>", |v| v),
                c.map_or("<absent>", |v| v),
            ));
        }
    }
    // Sim hashes: exact, over the union of names.
    let names = union_keys(
        baseline.sim_hashes.iter().map(|(k, _)| k.as_str()),
        candidate.sim_hashes.iter().map(|(k, _)| k.as_str()),
    );
    let mut hashes_ok = 0usize;
    for name in names {
        match (baseline.hash(name), candidate.hash(name)) {
            (Some(b), Some(c)) if b == c => hashes_ok += 1,
            (b, c) => {
                r.sim_mismatch = true;
                r.lines.push(format!(
                    "FAIL sim.hashes.{name}: baseline {} vs candidate {}",
                    b.map_or("<absent>".to_owned(), |v| format!("{v:#018x}")),
                    c.map_or("<absent>".to_owned(), |v| format!("{v:#018x}")),
                ));
            }
        }
    }
    if baseline.metrics_digest != candidate.metrics_digest {
        r.sim_mismatch = true;
        r.lines.push(format!(
            "FAIL sim.metrics_digest: baseline {:#018x} vs candidate {:#018x}",
            baseline.metrics_digest, candidate.metrics_digest
        ));
    } else if !r.sim_mismatch {
        r.lines.push(format!(
            "ok   sim: {hashes_ok} hashes and the metrics digest match byte-exactly"
        ));
    }
    // Host: tolerance band on the gate timing; RSS is report-only.
    match (gate_timing(baseline), gate_timing(candidate)) {
        (Some((key, b)), Some((_, c))) if b > 0 => {
            let delta_pct = 100.0 * (c as f64 - b as f64) / b as f64;
            let limit = opts.tolerance_pct;
            if delta_pct > limit {
                r.host_regression = true;
                r.lines.push(format!(
                    "{} {key}: {:.3} ms -> {:.3} ms ({delta_pct:+.1}%, tolerance +{limit:.0}%)",
                    if opts.gate_host { "FAIL" } else { "warn" },
                    b as f64 / 1e6,
                    c as f64 / 1e6,
                ));
            } else {
                r.lines.push(format!(
                    "ok   {key}: {:.3} ms -> {:.3} ms ({delta_pct:+.1}%, tolerance +{limit:.0}%)",
                    b as f64 / 1e6,
                    c as f64 / 1e6,
                ));
            }
        }
        _ => r
            .lines
            .push("warn host: no comparable timing gauge on both sides".to_owned()),
    }
    // Throughput: simulated cycles per host second, higher is better. A
    // drop beyond the tolerance is the regression; growth never fails.
    match (
        baseline.host_gauge("host.tput.cycles_per_sec"),
        candidate.host_gauge("host.tput.cycles_per_sec"),
    ) {
        (Some(b), Some(c)) if b > 0 => {
            let delta_pct = 100.0 * (c as f64 - b as f64) / b as f64;
            let limit = opts.tolerance_pct;
            if delta_pct < -limit {
                r.tput_regression = true;
                r.lines.push(format!(
                    "{} host.tput.cycles_per_sec: {b} -> {c} ({delta_pct:+.1}%, \
                     tolerance -{limit:.0}%)",
                    if opts.gate_tput { "FAIL" } else { "warn" },
                ));
            } else {
                r.lines.push(format!(
                    "ok   host.tput.cycles_per_sec: {b} -> {c} ({delta_pct:+.1}%, \
                     tolerance -{limit:.0}%)",
                ));
            }
        }
        _ if opts.gate_tput => {
            r.tput_regression = true;
            r.lines.push(
                "FAIL host.tput.cycles_per_sec: gauge missing on one side \
                 (a gated throughput diff must be able to measure)"
                    .to_owned(),
            );
        }
        _ => {}
    }
    if let (Some(b), Some(c)) = (
        baseline.host_gauge("host.rss.peak_bytes"),
        candidate.host_gauge("host.rss.peak_bytes"),
    ) {
        if b > 0 && c > 0 {
            r.lines.push(format!(
                "info host.rss.peak_bytes: {:.1} MiB -> {:.1} MiB (report-only)",
                b as f64 / (1 << 20) as f64,
                c as f64 / (1 << 20) as f64,
            ));
        }
    }
    // Mismatches first, then ok/info lines, preserving relative order.
    r.lines.sort_by_key(|l| !l.starts_with("FAIL"));
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest {
            command: "bench".to_owned(),
            config: vec![
                ("seed".to_owned(), "42".to_owned()),
                ("faults".to_owned(), "200".to_owned()),
            ],
            sim_hashes: vec![
                ("is".to_owned(), 0x06521c827f174fec),
                ("combined".to_owned(), 0xbc40ca2ec6d2d9bd),
            ],
            metrics_digest: 0xdead_beef_cafe_f00d,
            host: vec![
                ("host.wall_ns".to_owned(), 1_000_000),
                ("host.tput.cycles_per_sec".to_owned(), 30_000_000),
                ("host.rss.peak_bytes".to_owned(), 10 << 20),
            ],
            bench: Some(BenchStats::from_samples(&[90, 100, 110], 1)),
        }
    }

    #[test]
    fn json_round_trips_exactly() {
        let m = sample();
        let json = m.to_json();
        let back = Manifest::from_json(&json).expect("parses");
        assert_eq!(back, m);
        // Render → parse → render is a fixed point.
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn median_and_mad_are_robust() {
        assert_eq!(median(&[]), 0);
        assert_eq!(median(&[7]), 7);
        assert_eq!(median(&[1, 9]), 5);
        let b = BenchStats::from_samples(&[100, 90, 5000, 110, 95], 2);
        assert_eq!(b.median_ns, 100, "outlier must not move the median");
        assert_eq!(b.min_ns, 90);
        // Deviations from 100 are 0, 10, 4900, 10, 5 -> median 10.
        assert_eq!(b.mad_ns, 10);
        assert_eq!(b.reps(), 5);
    }

    #[test]
    fn identical_manifests_pass() {
        let r = diff_manifests(&sample(), &sample(), &DiffOptions::default());
        assert!(!r.failed(), "{}", r.render());
        assert!(!r.sim_mismatch && !r.host_regression);
    }

    #[test]
    fn perturbed_hash_is_a_hard_failure() {
        let mut c = sample();
        c.sim_hashes[1].1 ^= 1;
        let r = diff_manifests(&sample(), &c, &DiffOptions::default());
        assert!(r.sim_mismatch && r.failed());
        assert!(r.lines[0].contains("sim.hashes.combined"), "{}", r.render());
        // Host gating off must not rescue a sim mismatch.
        let r = diff_manifests(
            &sample(),
            &c,
            &DiffOptions {
                gate_host: false,
                ..DiffOptions::default()
            },
        );
        assert!(r.failed());
    }

    #[test]
    fn timing_regression_respects_tolerance_and_gate() {
        let mut c = sample();
        let b = c.bench.as_mut().expect("bench stats");
        b.median_ns = 150; // +50% over the baseline median of 100
        let r = diff_manifests(&sample(), &c, &DiffOptions::default());
        assert!(r.host_regression && r.failed(), "{}", r.render());
        // Within the band: passes.
        c.bench.as_mut().expect("bench stats").median_ns = 115;
        let r = diff_manifests(&sample(), &c, &DiffOptions::default());
        assert!(!r.failed(), "{}", r.render());
        // Report-only mode: regression noted, diff passes.
        c.bench.as_mut().expect("bench stats").median_ns = 150;
        let r = diff_manifests(
            &sample(),
            &c,
            &DiffOptions {
                gate_host: false,
                ..DiffOptions::default()
            },
        );
        assert!(r.host_regression && !r.failed());
    }

    #[test]
    fn tput_gate_fails_on_throughput_drop() {
        let tput_only = DiffOptions {
            gate_host: false,
            gate_tput: true,
            ..DiffOptions::default()
        };
        // -50% throughput: report-only by default, fails the tput gate.
        let mut c = sample();
        c.host[1].1 = 15_000_000;
        let r = diff_manifests(&sample(), &c, &DiffOptions::default());
        assert!(r.tput_regression && !r.failed(), "{}", r.render());
        let r = diff_manifests(&sample(), &c, &tput_only);
        assert!(r.tput_regression && r.failed(), "{}", r.render());
        assert!(r.lines[0].contains("host.tput.cycles_per_sec"));
        // Throughput growth never fails, no matter how large.
        c.host[1].1 = 300_000_000;
        let r = diff_manifests(&sample(), &c, &tput_only);
        assert!(!r.failed(), "{}", r.render());
        // Within the band: passes.
        c.host[1].1 = 27_000_000; // -10% under the default 20% tolerance
        let r = diff_manifests(&sample(), &c, &tput_only);
        assert!(!r.failed(), "{}", r.render());
        // A gated diff that cannot measure must fail, not silently pass.
        c.host.remove(1);
        let r = diff_manifests(&sample(), &c, &tput_only);
        assert!(r.tput_regression && r.failed(), "{}", r.render());
        assert!(
            !diff_manifests(&sample(), &c, &DiffOptions::default()).failed(),
            "ungated diff tolerates the missing gauge"
        );
    }

    #[test]
    fn config_drift_is_a_hard_failure() {
        let mut c = sample();
        c.config[1].1 = "1000".to_owned();
        let r = diff_manifests(&sample(), &c, &DiffOptions::default());
        assert!(r.sim_mismatch);
        assert!(r.lines[0].contains("config.faults"), "{}", r.render());
        // A key present on only one side also fails.
        let mut c = sample();
        c.config.push(("scheme".to_owned(), "local".to_owned()));
        assert!(diff_manifests(&sample(), &c, &DiffOptions::default()).sim_mismatch);
    }

    #[test]
    fn sim_json_is_embedded_in_the_document() {
        let m = sample();
        assert!(m.to_json().contains(&m.sim_json()));
        assert!(m.sim_json().contains("0x06521c827f174fec"));
    }
}
