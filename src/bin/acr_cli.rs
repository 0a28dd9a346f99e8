//! `acr_cli` — command-line front end for the ACR reproduction.
//!
//! The `inject` subcommand runs a deterministic fault-injection and
//! recovery-verification campaign over the bundled workloads: same seed,
//! byte-identical output. The `trace` subcommand runs one ACR execution
//! under injected recoverable faults with the trace sink attached and
//! exports a Chrome `trace_event` JSON (loadable in Perfetto /
//! `chrome://tracing`) plus optional interval-sampled metrics as JSONL.
//! The `profile` subcommand runs the same faulted execution with the
//! attribution profiler and the omission-decision ledger attached and
//! exports a collapsed-stack flamegraph (speedscope / inferno) plus a
//! ledger text report — byte-identical for a given seed. The `run`
//! subcommand runs the paper's configurations over a workload with every
//! experiment knob exposed, and `figures` regenerates the paper's tables
//! and figures (plus the ablation studies) by name.
//!
//! Host-performance observability rides alongside: `inject`/`trace`/
//! `profile` emit a machine-readable run manifest behind `--manifest-out`
//! (sim-deterministic hashes + host timings), `bench` times the reference
//! campaign over warmup + N repetitions into `BENCH_<name>.json`, and
//! `diff` compares two manifests — byte-exact on the sim section,
//! tolerance-band on host timings — exiting nonzero on a regression.
//!
//! Every flag is declared once, as a [`Flag`] row; each [`Subcommand`]
//! lists the rows it accepts with its own defaults. One loop parses argv
//! for all of them, and the same rows render the manifest `config`, the
//! repro line stamped into postmortem bundles, and the OPTIONS sections
//! of `help`.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::str::FromStr;

use acr::{placement, sweep, AddrMapConfig, ExperimentError, ExperimentSpec, RunResult};
use acr_bench::{
    paper_experiment, run_campaigns, workload, FigureTask, FIGURE_TASKS, PAPER_FIGURES,
};
use acr_ckpt::{
    default_models, default_resilience, fault_to_json, run_soak, CampaignConfig, CampaignError,
    CampaignTotals, CaseOutcome, CkptError, OmitReason, ParallelRunner, PostmortemBundle, ReproDoc,
    RingDigest, Scheme, SecondaryStorage, ShrinkConfig, SoakCursor, SoakGrid, SoakModel,
    SoakResilience,
};
use acr_mem::CoreId;
use acr_sim::{Fault, FaultKind, FaultKindSet, FaultStorm};
use acr_trace::{
    chrome_trace_json, diff_manifests, fnv1a, merge_loads, BenchStats, DiffOptions, Fnv1a,
    HostPerf, Manifest, MetricsRegistry, SharedSink, Stopwatch, TraceEvent, WorkerLoad,
    TRACK_ENGINE,
};
use acr_workloads::{Benchmark, WorkloadConfig};

const USAGE: &str = "\
acr_cli — ACR (Amnesic Checkpointing and Recovery) reproduction driver

USAGE:
    acr_cli inject [OPTIONS]     run a deterministic fault-injection campaign
    acr_cli trace [OPTIONS]      trace one ACR run under injected faults
    acr_cli profile [OPTIONS]    attribution-profile one ACR run: per-PC cycle
                                 accounting, omission-decision ledger,
                                 flamegraph export
    acr_cli bench [OPTIONS]      time the reference campaign over warmup +
                                 N repetitions; write a BENCH_<name>.json
                                 manifest with median/MAD/min host stats
    acr_cli diff BASE CAND [OPTIONS]
                                 compare two run manifests: byte-exact on
                                 sim hashes and the metrics digest,
                                 tolerance-band on host timings; exit 1 on
                                 any regression
    acr_cli explain BUNDLE.json  render a postmortem bundle as a human-
                                 readable triage report: fault chain,
                                 invariant tallies, escalation ladder,
                                 merged flight-recorder timeline, and the
                                 probable-cause classification
    acr_cli soak [OPTIONS]       run a long-horizon randomized soak: chunked
                                 campaigns round-robin over a workload x
                                 fault-model x resilience grid, every case
                                 classified recovered/due/sdc/hang, bounded
                                 by --cases / --budget-secs and resumable
                                 from a --cursor file
    acr_cli shrink [OPTIONS]     delta-debug one failing fault case down to
                                 a minimal reproducer with the identical
                                 postmortem trigger; writes an acr.repro.v1
                                 JSON replayable with --replay
    acr_cli run [OPTIONS]        run the paper's configurations (No_Ckpt,
                                 ReCkpt, Ckpt) over each workload and print
                                 time, energy, EDP and checkpoint statistics
    acr_cli figures [OPTIONS]    print the paper's tables and figures, or
                                 the --only tasks, in a fixed order; the
                                 wall time goes to stderr
    acr_cli workloads            list the bundled workloads
    acr_cli help                 show this message

Each option is described where it first appears below; later sections
list it with that subcommand's default.
";

const EXIT_CODES: &str = "
EXIT CODES (uniform across subcommands):
    0   success — the run completed and every gate passed (`explain`
        exits 0 whenever the bundle parses; `shrink --replay` exits 0
        when the repro no longer fails)
    1   gate or divergence failure — `inject` saw diverged or aborted
        cases, `soak` saw silent data corruption, `shrink --replay`
        reproduced its failure, or `diff` found a regression
    2   usage or configuration error — unknown flag or subcommand, bad
        value, unreadable input; the message is a single `error: …`
        line on stderr

Every quantity the campaign reports is derived from the seeded plan and
the deterministic simulator — two invocations with the same options
produce byte-identical output (the content hash makes that checkable,
and `cmp` on two same-seed trace files does too). Manifests keep the two
worlds apart: the sim section is byte-identical across machines and
--jobs values, the host.* section is honest wall-clock and only ever
compared with a tolerance band.
";

/// Every option of every table-driven subcommand. A field is written only
/// by its [`Flag`] row: first with the subcommand's default, then from
/// argv.
#[derive(Debug, Clone, Default, PartialEq)]
struct RunArgs {
    seed: u64,
    faults: u32,
    workloads: Vec<Benchmark>,
    threads: u32,
    scale: f64,
    checkpoints: u32,
    latency: f64,
    kinds: FaultKindSet,
    storm: Option<FaultStorm>,
    watchdog_budget: u64,
    amnesic: bool,
    scheme: Scheme,
    recovery_faults: bool,
    generations: u32,
    sample_interval: u64,
    detail: bool,
    chunk: u32,
    models: Vec<SoakModel>,
    resilience: Vec<SoakResilience>,
    case: usize,
    max_evals: u64,
    errors: u32,
    threshold: Option<usize>,
    addrmap: Option<usize>,
    secondary: Option<u32>,
    adaptive: bool,
    oracle: bool,
    only: Vec<&'static str>,
    jobs: usize,
    progress: bool,
    print_metrics: bool,
    csv_dir: Option<String>,
    metrics_out: Option<String>,
    manifest_out: Option<String>,
    postmortem_dir: Option<String>,
    out: Option<String>,
    flame_out: String,
    ledger_out: String,
    trace_out: Option<String>,
    top: usize,
    cases: u64,
    budget_secs: u64,
    cursor: Option<String>,
    replay: Option<String>,
    name: String,
    reps: u32,
    warmup: u32,
    tolerance_pct: f64,
    gate_host: bool,
    gate_tput: bool,
    /// Bare tokens, for subcommands that take operands (`diff`).
    operands: Vec<String>,
}

/// One row of the flag table.
struct Flag {
    name: &'static str,
    /// Value placeholder in `help`; empty for a switch, which takes no
    /// value.
    meta: &'static str,
    help: &'static str,
    /// How a sim-relevant value enters the manifest `config` and the
    /// repro line. `None` marks an execution knob (`--jobs`, `--progress`,
    /// output paths), which must not change results and so appears in
    /// neither.
    sim: Option<Sim>,
    /// Parses and validates a value (`""` for a switch) into the args.
    set: Setter,
}

type Setter = fn(&mut RunArgs, &str) -> Result<(), String>;

impl Flag {
    /// An execution knob.
    const fn knob(name: &'static str, meta: &'static str, help: &'static str, set: Setter) -> Self {
        Flag {
            name,
            meta,
            help,
            sim: None,
            set,
        }
    }

    /// A sim-relevant option, recorded in the manifest `config` as `key`.
    const fn sim(
        name: &'static str,
        meta: &'static str,
        key: &'static str,
        get: fn(&RunArgs) -> String,
        help: &'static str,
        set: Setter,
    ) -> Self {
        let sim = Sim {
            key,
            get,
            elide_default: false,
        };
        Flag {
            sim: Some(sim),
            ..Flag::knob(name, meta, help, set)
        }
    }

    /// See [`Sim::elide_default`].
    const fn elided(self) -> Self {
        match self.sim {
            Some(sim) => Flag {
                sim: Some(Sim {
                    elide_default: true,
                    ..sim
                }),
                ..self
            },
            None => self,
        }
    }
}

struct Sim {
    /// Manifest `config` key.
    key: &'static str,
    /// The current value, as the manifest records it.
    get: fn(&RunArgs) -> String,
    /// The repro line spells the value out only when it differs from the
    /// subcommand's default (otherwise always, ahead of these).
    elide_default: bool,
}

/// A row plus one subcommand's default for it (`""` = unset).
type Opt = (&'static Flag, &'static str);

struct Subcommand {
    name: &'static str,
    /// Appended to the subcommand's OPTIONS heading in `help`.
    note: &'static str,
    /// Accepted rows in the order the manifest `config`, the repro line
    /// and `help` list them.
    opts: &'static [&'static [Opt]],
    /// Whether bare tokens are operands (`diff`'s manifests) rather than
    /// unknown options.
    operands: bool,
    run: fn(&RunArgs) -> Result<ExitCode, String>,
}

/// A row's setter body: writes a parsed value into its field.
fn store<T>(field: &mut T, value: Result<T, String>) -> Result<(), String> {
    *field = value?;
    Ok(())
}

fn num<T: FromStr>(v: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    v.parse().map_err(|e| format!("{e}"))
}

fn positive<T: FromStr + Default + PartialEq>(v: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    let n: T = num(v)?;
    if n == T::default() {
        return Err("must be positive".into());
    }
    Ok(n)
}

fn fraction(v: &str) -> Result<f64, String> {
    let x: f64 = num(v)?;
    if !(0.0..=1.0).contains(&x) {
        return Err("must be within [0, 1]".into());
    }
    Ok(x)
}

fn workload_list(v: &str) -> Result<Vec<Benchmark>, String> {
    v.split(',')
        .map(|n| Benchmark::from_name(n.trim()).ok_or_else(|| format!("unknown workload `{n}`")))
        .collect()
}

fn workload_names(a: &RunArgs) -> String {
    labels(&a.workloads, |b| b.name())
}

fn opt_string<T: ToString>(v: Option<T>) -> String {
    v.map_or_else(String::new, |v| v.to_string())
}

fn labels<T>(presets: &[T], label: impl Fn(&T) -> &str) -> String {
    presets.iter().map(label).collect::<Vec<_>>().join(",")
}

/// Selects presets by label from `all`, preserving the canonical order
/// (the grid fingerprint depends on it, so a reordered `--models` list
/// still resumes the same soak).
fn pick_presets<T: Clone>(
    value: &str,
    all: &[T],
    label: impl Fn(&T) -> &str,
) -> Result<Vec<T>, String> {
    let wanted: Vec<&str> = value.split(',').map(str::trim).collect();
    if let Some(w) = wanted.iter().find(|w| !all.iter().any(|p| label(p) == **w)) {
        return Err(format!(
            "unknown preset `{w}` (known: {})",
            labels(all, &label)
        ));
    }
    Ok(all
        .iter()
        .filter(|p| wanted.contains(&label(p)))
        .cloned()
        .collect())
}

static SEED: Flag = Flag::sim(
    "--seed",
    "N",
    "seed",
    |a| a.seed.to_string(),
    "seed of the campaign, the fault placement, every soak chunk or the \
     shrink plan; for run, the workload generator seed",
    |a, v| store(&mut a.seed, num(v)),
);

static FAULTS: Flag = Flag::sim(
    "--faults",
    "N",
    "faults",
    |a| a.faults.to_string(),
    "faults: split across the workloads (inject, bench), recoverable \
     register faults spread along the run, at most one per retired \
     instruction (trace, profile), or one dense case's plan (shrink)",
    |a, v| store(&mut a.faults, positive(v)),
);

static WORKLOADS: Flag = Flag::sim(
    "--workloads",
    "LIST",
    "workloads",
    workload_names,
    "comma-separated workload names (see `acr_cli workloads`)",
    |a, v| store(&mut a.workloads, workload_list(v)),
);

static WORKLOAD: Flag = Flag::sim(
    "--workload",
    "W",
    "workloads",
    workload_names,
    "workload(s), comma-separated; with several, each output file gains a \
     .<name> suffix before its extension (shrink takes one)",
    |a, v| store(&mut a.workloads, workload_list(v)),
);

static THREADS: Flag = Flag::sim(
    "--threads",
    "N",
    "threads",
    |a| a.threads.to_string(),
    "cores == threads, 1 to 64 (core masks are 64-bit)",
    |a, v| {
        a.threads = num(v)?;
        if !(1..=64).contains(&a.threads) {
            return Err("must be within 1..=64".into());
        }
        Ok(())
    },
);

static SCALE: Flag = Flag::sim(
    "--scale",
    "F",
    "scale",
    |a| a.scale.to_string(),
    "workload scale factor, positive",
    |a, v| {
        a.scale = num(v)?;
        if !(a.scale > 0.0 && a.scale.is_finite()) {
            return Err("must be positive".into());
        }
        Ok(())
    },
);

static CHECKPOINTS: Flag = Flag::sim(
    "--checkpoints",
    "N",
    "checkpoints",
    |a| a.checkpoints.to_string(),
    "checkpoints per nominal run",
    |a, v| store(&mut a.checkpoints, num(v)),
);

static LATENCY: Flag = Flag::sim(
    "--latency",
    "F",
    "latency",
    |a| a.latency.to_string(),
    "detection latency as a fraction of the checkpoint period, in [0, 1]",
    |a, v| store(&mut a.latency, fraction(v)),
);

static KINDS: Flag = Flag::sim(
    "--kinds",
    "SET",
    "kinds",
    |a| a.kinds.labels(true).join(","),
    "fault kinds: all | recoverable | adversarial | comma list of \
     reg,pc,mem,burst,stuck,crash",
    |a, v| store(&mut a.kinds, FaultKindSet::parse(v)),
);

static STORM: Flag = Flag::sim(
    "--storm",
    "G,B",
    "storm",
    |a| storm_str(a.storm),
    "cluster injection points into seeded Poisson bursts: mean gap G \
     instructions between storms, up to B faults per storm (unset = \
     uniform placement)",
    |a, v| store(&mut a.storm, FaultStorm::parse(v).map(Some)),
)
.elided();

static WATCHDOG_BUDGET: Flag = Flag::sim(
    "--watchdog-budget",
    "N",
    "watchdog_budget",
    |a| a.watchdog_budget.to_string(),
    "recovery-watchdog cycle budget: a single recovery escalation \
     exceeding N cycles is aborted into a `hang` postmortem (0 = off)",
    |a, v| store(&mut a.watchdog_budget, num(v)),
)
.elided();

static POLICY: Flag = Flag::sim(
    "--policy",
    "P",
    "policy",
    |a| (if a.amnesic { "acr" } else { "baseline" }).to_owned(),
    "acr | baseline (the non-amnesic Ckpt baseline)",
    |a, v| {
        a.amnesic = match v {
            "acr" => true,
            "baseline" => false,
            other => return Err(format!("unknown policy `{other}`")),
        };
        Ok(())
    },
);

static SCHEME: Flag = Flag::sim(
    "--scheme",
    "S",
    "scheme",
    |a| scheme_str(a.scheme).to_owned(),
    "global | local coordination",
    |a, v| {
        a.scheme = match v {
            "global" => Scheme::GlobalCoordinated,
            "local" => Scheme::LocalCoordinated,
            other => return Err(format!("unknown scheme `{other}`")),
        };
        Ok(())
    },
);

static RECOVERY_FAULTS: Flag = Flag::sim(
    "--recovery-faults",
    "",
    "recovery_faults",
    |a| a.recovery_faults.to_string(),
    "also strike each case's first recovery with a deterministic \
     recovery-window fault (torn record, flipped restored word, corrupt \
     replay, crash mid-restore, torn commit) and report the escalation \
     histogram (global scheme only)",
    |a, _| store(&mut a.recovery_faults, Ok(true)),
)
.elided();

static GENERATIONS: Flag = Flag::sim(
    "--generations",
    "N",
    "generations",
    |a| a.generations.to_string(),
    "checkpoint generations retained as rollback fallbacks (at least 2 \
     with --recovery-faults)",
    |a, v| store(&mut a.generations, positive(v)),
)
.elided();

static SAMPLE_INTERVAL: Flag = Flag::sim(
    "--sample-interval",
    "N",
    "sample_interval",
    |a| a.sample_interval.to_string(),
    "metrics sampling interval in cycles; 0 = off, which --metrics-out \
     turns into 5000",
    |a, v| store(&mut a.sample_interval, num(v)),
)
.elided();

static DETAIL: Flag = Flag::sim(
    "--detail",
    "FLAG",
    "detail",
    |a| (if a.detail { "on" } else { "off" }).to_owned(),
    "on | off — per-store/assoc/miss trace instants",
    |a, v| {
        a.detail = match v {
            "on" => true,
            "off" => false,
            other => return Err(format!("takes on|off, got `{other}`")),
        };
        Ok(())
    },
);

static CHUNK: Flag = Flag::sim(
    "--chunk",
    "N",
    "chunk",
    |a| a.chunk.to_string(),
    "cases per chunk (pinned by the cursor)",
    |a, v| store(&mut a.chunk, positive(v)),
);

static MODELS: Flag = Flag::sim(
    "--models",
    "LIST",
    "models",
    |a| labels(&a.models, |m| &m.label),
    "fault-model presets to sweep, a comma-separated subset of the default",
    |a, v| {
        store(
            &mut a.models,
            pick_presets(v, &default_models(), |m| &m.label),
        )
    },
);

static RESILIENCE: Flag = Flag::sim(
    "--resilience",
    "LIST",
    "resilience",
    |a| labels(&a.resilience, |r| &r.label),
    "resilience presets to sweep, a comma-separated subset of the default",
    |a, v| {
        store(
            &mut a.resilience,
            pick_presets(v, &default_resilience(), |r| &r.label),
        )
    },
);

static CASE: Flag = Flag::sim(
    "--case",
    "N",
    "case",
    |a| a.case.to_string(),
    "case index (seeds the per-case machinery)",
    |a, v| store(&mut a.case, num(v)),
);

static MAX_EVALS: Flag = Flag::sim(
    "--max-evals",
    "N",
    "max_evals",
    |a| a.max_evals.to_string(),
    "engine-run evaluation budget",
    |a, v| store(&mut a.max_evals, positive(v)),
);

static ERRORS: Flag = Flag::sim(
    "--errors",
    "N",
    "errors",
    |a| a.errors.to_string(),
    "errors injected into the Ckpt and ReCkpt runs",
    |a, v| store(&mut a.errors, num(v)),
);

static THRESHOLD: Flag = Flag::sim(
    "--threshold",
    "N",
    "threshold",
    |a| opt_string(a.threshold),
    "Slice-length threshold (unset = the workload's default)",
    |a, v| store(&mut a.threshold, num(v).map(Some)),
)
.elided();

static ADDRMAP: Flag = Flag::sim(
    "--addrmap",
    "N",
    "addrmap",
    |a| opt_string(a.addrmap),
    "AddrMap capacity per core (unset = the spec default)",
    |a, v| store(&mut a.addrmap, num(v).map(Some)),
)
.elided();

static SECONDARY: Flag = Flag::sim(
    "--secondary",
    "K",
    "secondary",
    |a| opt_string(a.secondary),
    "hierarchical checkpointing: a level-2 checkpoint every K-th one \
     (unset = off)",
    |a, v| store(&mut a.secondary, num(v).map(Some)),
)
.elided();

static ADAPTIVE: Flag = Flag::sim(
    "--adaptive",
    "",
    "adaptive",
    |a| a.adaptive.to_string(),
    "compare uniform against recomputation-aware checkpoint placement \
     (acr policy only)",
    |a, _| store(&mut a.adaptive, Ok(true)),
)
.elided();

static ORACLE: Flag = Flag::sim(
    "--oracle",
    "",
    "oracle",
    |a| a.oracle.to_string(),
    "verify every recovery against shadow memory",
    |a, _| store(&mut a.oracle, Ok(true)),
)
.elided();

static ONLY: Flag = Flag::sim(
    "--only",
    "LIST",
    "only",
    |a| a.only.join(","),
    "figure/table tasks to run, a comma-separated subset of fig01, table1, \
     figs06-09, table2, fig10, fig10-csv, fig11, fig12, scalability, fig13, \
     ablation-addrmap, ablation-detection-latency, ablation-hierarchical, \
     ablation-scratchpad, ablation-trivial-slices, energy-breakdown and \
     extension-placement; printed in that order",
    |a, v| {
        let tasks = pick_presets(v, FIGURE_TASKS, |t| t.0)?;
        a.only = tasks.iter().map(|t| t.0).collect();
        Ok(())
    },
);

static JOBS: Flag = Flag::knob(
    "--jobs",
    "N",
    "worker threads (0 = auto: ACR_JOBS env, else available parallelism); \
     output is byte-identical for every value",
    |a, v| store(&mut a.jobs, num(v)),
);

static PROGRESS: Flag = Flag::knob(
    "--progress",
    "",
    "print one line per fault case; lines are buffered per shard and \
     flushed in case order, so the output is also jobs-invariant",
    |a, _| store(&mut a.progress, Ok(true)),
);

static PRINT_METRICS: Flag = Flag::knob(
    "--print-metrics",
    "",
    "print the merged metrics (trace: each workload's final sample) as an \
     aligned key/value/unit table",
    |a, _| store(&mut a.print_metrics, Ok(true)),
);

static CSV: Flag = Flag::knob(
    "--csv",
    "DIR",
    "also write per-case CSVs into DIR",
    |a, v| store(&mut a.csv_dir, Ok(Some(v.to_owned()))),
);

static METRICS_OUT: Flag = Flag::knob(
    "--metrics-out",
    "F",
    "write the metrics samples (inject: the fault-free baseline's) to F as \
     JSONL",
    |a, v| store(&mut a.metrics_out, Ok(Some(v.to_owned()))),
);

static MANIFEST_OUT: Flag = Flag::knob(
    "--manifest-out",
    "F",
    "write a run manifest (JSON): config, sim hashes, metrics digest and \
     host.* timings; the sim section is identical for every --jobs value",
    |a, v| store(&mut a.manifest_out, Ok(Some(v.to_owned()))),
);

static POSTMORTEM_DIR: Flag = Flag::knob(
    "--postmortem-dir",
    "D",
    "write one postmortem bundle (JSON) per failed case into D, \
     byte-identical for a given seed and every --jobs value; feed them to \
     `acr_cli explain`",
    |a, v| store(&mut a.postmortem_dir, Ok(Some(v.to_owned()))),
);

static OUT: Flag = Flag::knob(
    "--out",
    "FILE",
    "output path: the Chrome trace (trace), the repro document (shrink; \
     unset = repro.<workload>.case<NNNN>.json) or the manifest (bench; \
     unset = BENCH_<name>.json)",
    |a, v| store(&mut a.out, Ok(Some(v.to_owned()))),
);

static FLAME_OUT: Flag = Flag::knob(
    "--flame-out",
    "F",
    "collapsed-stack flamegraph output (speedscope / inferno)",
    |a, v| store(&mut a.flame_out, Ok(v.to_owned())),
);

static LEDGER_OUT: Flag = Flag::knob(
    "--ledger-out",
    "F",
    "omission-decision ledger text output",
    |a, v| store(&mut a.ledger_out, Ok(v.to_owned())),
);

static TRACE_OUT: Flag = Flag::knob(
    "--trace-out",
    "F",
    "also write a Chrome trace with the profile and ledger counter tracks",
    |a, v| store(&mut a.trace_out, Ok(Some(v.to_owned()))),
);

static TOP: Flag = Flag::knob(
    "--top",
    "N",
    "hottest attribution sites to print",
    |a, v| store(&mut a.top, num(v)),
);

static CASES: Flag = Flag::knob(
    "--cases",
    "N",
    "stop once the cursor's total finished cases reach N (resumed history \
     counts, so a budget spans invocations)",
    |a, v| store(&mut a.cases, positive(v)),
);

static BUDGET_SECS: Flag = Flag::knob(
    "--budget-secs",
    "N",
    "also stop after N seconds of wall clock, checked between chunks (0 = \
     off)",
    |a, v| store(&mut a.budget_secs, num(v)),
);

static CURSOR: Flag = Flag::knob(
    "--cursor",
    "FILE",
    "resume from FILE if it exists and write the advanced cursor back on \
     exit; the cursor pins seed, chunk size and a grid fingerprint",
    |a, v| store(&mut a.cursor, Ok(Some(v.to_owned()))),
);

static REPLAY: Flag = Flag::knob(
    "--replay",
    "FILE",
    "instead of shrinking, re-run FILE's minimal plan once: exit 1 if it \
     still fails, 0 if it no longer reproduces",
    |a, v| store(&mut a.replay, Ok(Some(v.to_owned()))),
);

static NAME: Flag = Flag::knob("--name", "NAME", "benchmark name", |a, v| {
    store(&mut a.name, Ok(v.to_owned()))
});

static REPS: Flag = Flag::knob("--reps", "N", "timed repetitions", |a, v| {
    store(&mut a.reps, positive(v))
});

static WARMUP: Flag = Flag::knob("--warmup", "N", "untimed warmup repetitions", |a, v| {
    store(&mut a.warmup, num(v))
});

static TOLERANCE_PCT: Flag = Flag::knob(
    "--tolerance-pct",
    "F",
    "allowed host-timing growth before the candidate counts as a regression",
    |a, v| {
        a.tolerance_pct = num(v)?;
        if a.tolerance_pct.is_nan() || a.tolerance_pct < 0.0 {
            return Err("must be non-negative".into());
        }
        Ok(())
    },
);

static HOST_GATE: Flag = Flag::knob(
    "--host-gate",
    "FLAG",
    "on | off | tput — whether host performance fails the diff; tput gates \
     on host.tput.cycles_per_sec instead of wall time (a drop beyond the \
     tolerance fails, growth never does); sim mismatches always fail",
    |a, v| {
        (a.gate_host, a.gate_tput) = match v {
            "on" => (true, false),
            "off" => (false, false),
            "tput" => (false, true),
            other => return Err(format!("takes on|off|tput, got `{other}`")),
        };
        Ok(())
    },
);

/// The campaign options `inject` and `bench` share (after `--seed` and
/// `--faults`, whose order the manifest `config` fixes ahead of these).
static CAMPAIGN: &[Opt] = &[
    (&WORKLOADS, "is,cg,mg"),
    (&THREADS, "4"),
    (&SCALE, "0.05"),
    (&CHECKPOINTS, "12"),
    (&LATENCY, "0.5"),
    (&KINDS, "recoverable"),
    (&STORM, ""),
    (&WATCHDOG_BUDGET, "0"),
    (&POLICY, "acr"),
    (&SCHEME, "global"),
    (&RECOVERY_FAULTS, ""),
    (&GENERATIONS, "1"),
    (&SAMPLE_INTERVAL, "0"),
    (&CSV, ""),
    (&METRICS_OUT, ""),
    (&JOBS, "0"),
    (&PROGRESS, ""),
    (&MANIFEST_OUT, ""),
    (&POSTMORTEM_DIR, ""),
    (&PRINT_METRICS, ""),
];

/// The faulted-run options `trace` and `profile` share.
static FAULTED: &[Opt] = &[
    (&SEED, "42"),
    (&FAULTS, "1"),
    (&WORKLOAD, "cg"),
    (&THREADS, "2"),
    (&SCALE, "0.05"),
    (&CHECKPOINTS, "12"),
    (&SCHEME, "global"),
];

static INJECT: Subcommand = Subcommand {
    name: "inject",
    note: "",
    opts: &[&[(&SEED, "42"), (&FAULTS, "1000")], CAMPAIGN],
    operands: false,
    run: inject,
};

static TRACE: Subcommand = Subcommand {
    name: "trace",
    note: "",
    opts: &[
        FAULTED,
        &[
            (&SAMPLE_INTERVAL, "5000"),
            (&DETAIL, "off"),
            (&OUT, "run.trace.json"),
            (&METRICS_OUT, ""),
            (&JOBS, "0"),
            (&PRINT_METRICS, ""),
            (&MANIFEST_OUT, ""),
        ],
    ],
    operands: false,
    run: trace,
};

static PROFILE: Subcommand = Subcommand {
    name: "profile",
    note: "",
    opts: &[
        FAULTED,
        &[
            (&FLAME_OUT, "run.folded"),
            (&LEDGER_OUT, "run.ledger.txt"),
            (&TRACE_OUT, ""),
            (&TOP, "10"),
            (&JOBS, "0"),
            (&MANIFEST_OUT, ""),
        ],
    ],
    operands: false,
    run: profile,
};

static BENCH: Subcommand = Subcommand {
    name: "bench",
    note: " (inject's, with --faults defaulting to 200 — the reference \
           campaign whose hashes the golden tests pin)",
    opts: &[
        &[(&SEED, "42"), (&FAULTS, "200")],
        CAMPAIGN,
        &[(&NAME, "ref"), (&REPS, "5"), (&WARMUP, "1"), (&OUT, "")],
    ],
    operands: false,
    run: bench,
};

static DIFF: Subcommand = Subcommand {
    name: "diff",
    note: "",
    opts: &[&[(&TOLERANCE_PCT, "20"), (&HOST_GATE, "on")]],
    operands: true,
    run: diff,
};

static SOAK: Subcommand = Subcommand {
    name: "soak",
    note: "",
    opts: &[&[
        (&WORKLOADS, "is,cg"),
        (&SEED, "42"),
        (&CHUNK, "25"),
        (&THREADS, "2"),
        (&SCALE, "0.05"),
        (&CHECKPOINTS, "8"),
        (&LATENCY, "0.5"),
        (&POLICY, "acr"),
        (
            &MODELS,
            "recoverable,classic,adversarial,adversarial-storm,stuck",
        ),
        (&RESILIENCE, "baseline,nested,watchdog"),
        (&CASES, "500"),
        (&BUDGET_SECS, "0"),
        (&JOBS, "0"),
        (&CURSOR, ""),
        (&POSTMORTEM_DIR, ""),
        (&PRINT_METRICS, ""),
    ]],
    operands: false,
    run: soak,
};

static SHRINK: Subcommand = Subcommand {
    name: "shrink",
    note: "",
    opts: &[&[
        (&WORKLOAD, "cg"),
        (&SEED, "42"),
        (&FAULTS, "10"),
        (&KINDS, "mem"),
        (&STORM, ""),
        (&THREADS, "2"),
        (&SCALE, "0.05"),
        (&CHECKPOINTS, "4"),
        (&LATENCY, "0.5"),
        (&POLICY, "acr"),
        (&RECOVERY_FAULTS, ""),
        (&GENERATIONS, "1"),
        (&WATCHDOG_BUDGET, "0"),
        (&CASE, "0"),
        (&MAX_EVALS, "2048"),
        (&JOBS, "0"),
        (&OUT, ""),
        (&REPLAY, ""),
    ]],
    operands: false,
    run: shrink,
};

static RUN: Subcommand = Subcommand {
    name: "run",
    note: " (--seed is the workload generator seed)",
    opts: &[&[
        (&WORKLOADS, "bt"),
        (&THREADS, "8"),
        (&SCALE, "1.0"),
        (&SEED, "2886869024"),
        (&CHECKPOINTS, "25"),
        (&ERRORS, "0"),
        (&THRESHOLD, ""),
        (&SCHEME, "global"),
        (&LATENCY, "0.5"),
        (&ADDRMAP, ""),
        (&SECONDARY, ""),
        (&ADAPTIVE, ""),
        (&ORACLE, ""),
        (&POLICY, "acr"),
    ]],
    operands: false,
    run,
};

static FIGURES: Subcommand = Subcommand {
    name: "figures",
    note: "",
    opts: &[&[
        (&ONLY, PAPER_FIGURES),
        (&SCALE, "1.0"),
        (&SAMPLE_INTERVAL, "5000"),
        (&JOBS, "0"),
        (&METRICS_OUT, ""),
        (&MANIFEST_OUT, ""),
    ]],
    operands: false,
    run: figures,
};

static SUBCOMMANDS: [&Subcommand; 9] = [
    &INJECT, &TRACE, &PROFILE, &BENCH, &DIFF, &SOAK, &SHRINK, &RUN, &FIGURES,
];

impl Subcommand {
    fn opts(&self) -> impl Iterator<Item = &'static Opt> {
        self.opts.iter().flat_map(|group| group.iter())
    }

    /// The table's default column for this subcommand, parsed through
    /// each row's own validation.
    fn defaults(&self) -> RunArgs {
        let mut a = RunArgs::default();
        for (flag, default) in self.opts().filter(|(_, d)| !d.is_empty()) {
            if let Err(e) = (flag.set)(&mut a, default) {
                panic!(
                    "{} {}: bad table default `{default}`: {e}",
                    self.name, flag.name
                );
            }
        }
        a
    }

    fn parse(&self, args: &[String]) -> Result<RunArgs, String> {
        let mut a = self.defaults();
        let mut tokens = args.iter();
        while let Some(tok) = tokens.next() {
            let Some((flag, _)) = self.opts().find(|(f, _)| f.name == tok) else {
                if self.operands && !tok.starts_with("--") {
                    a.operands.push(tok.clone());
                    continue;
                }
                return Err(format!("unknown option `{tok}`"));
            };
            let value = if flag.meta.is_empty() {
                ""
            } else {
                tokens
                    .next()
                    .ok_or_else(|| format!("{tok} needs a value"))?
            };
            (flag.set)(&mut a, value).map_err(|e| format!("{tok}: {e}"))?;
        }
        if a.metrics_out.is_some() && a.sample_interval == 0 {
            a.sample_interval = 5000;
        }
        Ok(a)
    }

    /// The sim-relevant options as ordered manifest `config` pairs.
    fn config(&self, a: &RunArgs) -> Vec<(String, String)> {
        self.opts()
            .filter_map(|(f, _)| f.sim.as_ref())
            .map(|s| (s.key.to_owned(), (s.get)(a)))
            .collect()
    }

    /// The exact command line that reproduces a run's results, stamped
    /// into each postmortem bundle `inject` and `soak` write so a triage
    /// report is self-describing: every sim-relevant option, the
    /// default-elided ones last and only when changed.
    fn repro_line(&self, a: &RunArgs) -> String {
        let defaults = self.defaults();
        let mut line = format!("acr_cli {}", self.name);
        for elided in [false, true] {
            for (flag, _) in self.opts() {
                let Some(sim) = flag.sim.as_ref().filter(|s| s.elide_default == elided) else {
                    continue;
                };
                let value = (sim.get)(a);
                if elided && value == (sim.get)(&defaults) {
                    continue;
                }
                if flag.meta.is_empty() {
                    if value == "true" {
                        let _ = write!(line, " {}", flag.name);
                    }
                } else {
                    let _ = write!(line, " {} {value}", flag.name);
                }
            }
        }
        line
    }
}

/// Greedy word wrap at `width` columns.
fn wrap(text: &str, width: usize) -> Vec<String> {
    let mut lines = vec![String::new()];
    for word in text.split_whitespace() {
        let line = lines.last_mut().expect("starts non-empty");
        if !line.is_empty() && line.len() + 1 + word.len() > width {
            lines.push(word.to_owned());
        } else {
            if !line.is_empty() {
                line.push(' ');
            }
            line.push_str(word);
        }
    }
    lines
}

/// `help`: the subcommand summary, every subcommand's OPTIONS section
/// rendered from its table rows (each option described where it first
/// appears), and the exit codes.
fn usage() -> String {
    const INDENT: usize = 22;
    let mut out = String::from(USAGE);
    let mut described: Vec<&str> = Vec::new();
    for cmd in SUBCOMMANDS {
        let heading = format!("{} OPTIONS{}:", cmd.name.to_uppercase(), cmd.note);
        out.push('\n');
        for line in wrap(&heading, 76) {
            let _ = writeln!(out, "{line}");
        }
        for (flag, default) in cmd.opts() {
            let head = format!("    {} {}", flag.name, flag.meta);
            let head = head.trim_end();
            let mut text = String::new();
            if !described.contains(&flag.name) {
                described.push(flag.name);
                text.push_str(flag.help);
            }
            if !default.is_empty() {
                let _ = write!(text, " (default {default})");
            }
            let lines = wrap(&text, 78 - INDENT);
            let mut rest = lines.iter();
            if head.len() < INDENT {
                let first = rest.next().expect("wrap yields a line");
                let _ = writeln!(out, "{}", format!("{head:<INDENT$}{first}").trim_end());
            } else {
                let _ = writeln!(out, "{head}");
            }
            for line in rest.filter(|l| !l.is_empty()) {
                let _ = writeln!(out, "{:INDENT$}{line}", "");
            }
        }
    }
    out.push_str(EXIT_CODES);
    out
}

fn scheme_str(s: Scheme) -> &'static str {
    match s {
        Scheme::GlobalCoordinated => "global",
        Scheme::LocalCoordinated => "local",
    }
}

/// A storm schedule as the `G,B` spec `--storm` accepts (`off` when
/// placement is uniform).
fn storm_str(s: Option<FaultStorm>) -> String {
    match s {
        Some(s) => format!("{},{}", s.mean_gap, s.max_burst),
        None => "off".to_string(),
    }
}

/// The unit column of the metrics pretty-printer, inferred from the key's
/// last dotted segment.
fn metric_unit(key: &str) -> &'static str {
    let mut segs = key.rsplit('.');
    let mut last = segs.next().unwrap_or(key);
    // Histogram digests (`….cycles.p50`) carry their base key's unit;
    // the sample count stays a count.
    if matches!(last, "max" | "min" | "sum" | "p50" | "p90" | "p99") {
        last = segs.next().unwrap_or(last);
    }
    if last.ends_with("cycles") || last == "stall" {
        "cycles"
    } else if last.ends_with("bytes") {
        "bytes"
    } else if last.ends_with("joules") {
        "J"
    } else if last.ends_with("pct") {
        "%"
    } else {
        "count"
    }
}

/// Renders metric key/value pairs as an aligned three-column table
/// (key, value, unit), two-space indented.
fn metrics_table(pairs: &[(String, u64)]) -> String {
    let width = pairs.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (k, v) in pairs {
        let _ = writeln!(out, "  {k:<width$}  {v:>14}  {}", metric_unit(k));
    }
    out
}

/// The campaign flags as one [`CampaignConfig`] (`inject` and `bench`
/// split it over the workloads, `soak` derives its chunks from it).
fn campaign_config(a: &RunArgs) -> CampaignConfig {
    CampaignConfig {
        seed: a.seed,
        count: a.faults,
        kinds: a.kinds,
        storm: a.storm,
        num_checkpoints: a.checkpoints,
        detection_latency_frac: a.latency,
        scheme: a.scheme,
        sample_interval: a.sample_interval,
        recovery_faults: a.recovery_faults,
        generations: a.generations,
        watchdog_budget_cycles: a.watchdog_budget,
        jobs: a.jobs,
        progress: a.progress,
        ..CampaignConfig::default()
    }
}

/// Closes a manifest's host section: throughput of `(sim cycles, retired
/// instructions)` over `wall_ns`, and the worker split.
fn host_section(
    mut host: HostPerf,
    a: &RunArgs,
    (cycles, retired): (u64, u64),
    wall_ns: u64,
    loads: &[WorkerLoad],
) -> Vec<(String, u64)> {
    host.record_throughput(cycles, retired, wall_ns);
    host.record_jobs(
        a.jobs as u64,
        ParallelRunner::new(a.jobs).jobs() as u64,
        loads,
    );
    host.finish()
}

/// The deterministic outcome of one inject-style sweep, accumulated for
/// manifests: per-workload content hashes, the merged metrics digest, and
/// the host-side observability that rides next to them.
struct SweepDigest {
    /// `(workload, content_hash)` in workload order.
    hashes: Vec<(String, u64)>,
    /// Digest of all workloads' metrics registries merged into one.
    digest: u64,
    /// Per-worker loads merged index-wise across workloads.
    loads: Vec<WorkerLoad>,
    /// Simulated cycles executed across all fault cases.
    sim_cycles: u64,
    /// Retired instructions across all cases (each case re-runs the
    /// nominal execution, so this is `total_progress x cases` summed).
    retired: u64,
}

impl SweepDigest {
    fn new() -> Self {
        SweepDigest {
            hashes: Vec::new(),
            digest: 0,
            loads: Vec::new(),
            sim_cycles: 0,
            retired: 0,
        }
    }

    /// Folds one workload outcome in (workload order = call order).
    fn fold(&mut self, name: &str, run: &acr::CampaignRunResult, merged: &mut MetricsRegistry) {
        let r = &run.report;
        self.hashes.push((name.to_owned(), r.content_hash()));
        merged.merge(&r.metrics);
        self.digest = merged.digest();
        merge_loads(&mut self.loads, &run.host_loads);
        self.sim_cycles += r
            .metrics
            .hist("campaign.case.cycles")
            .map_or(0, |h| h.sum());
        self.retired += r.total_progress * r.injected();
    }

    /// The CLI's combined hash over the workloads' content hashes.
    fn combined(&self) -> u64 {
        combined_hash(&self.hashes)
    }

    /// The manifest's sim-hash list: per-workload hashes plus the
    /// `combined` fold.
    fn sim_hashes(&self) -> Vec<(String, u64)> {
        let mut out = self.hashes.clone();
        out.push(("combined".to_owned(), self.combined()));
        out
    }
}

/// A manifest's `combined` hash: FNV-1a over the little-endian bytes of
/// each hash, in order.
fn combined_hash(hashes: &[(String, u64)]) -> u64 {
    let mut h = Fnv1a::new();
    for (_, hash) in hashes {
        h.write_u64(*hash);
    }
    h.finish()
}

fn write_manifest(path: &str, m: &Manifest) -> Result<(), String> {
    std::fs::write(path, m.to_json()).map_err(|e| format!("{path}: {e}"))
}

fn inject(a: &RunArgs) -> Result<ExitCode, String> {
    if let Some(dir) = &a.csv_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("--csv {dir}: {e}"))?;
    }
    if let Some(dir) = &a.postmortem_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("--postmortem-dir {dir}: {e}"))?;
    }

    let mut total = CampaignTotals::default();
    let mut recovery_energy = 0.0f64;
    let mut metrics_jsonl = String::new();
    let mut digest = SweepDigest::new();
    let mut merged = MetricsRegistry::new();
    let mut host = HostPerf::start();

    // One campaign per workload; the sweep shards --jobs workers over
    // workloads first and hands any surplus down as per-case campaign
    // shards. Every byte below is identical for every jobs value —
    // except the host.* manifest section, which is honest wall-clock.
    let campaign = campaign_config(a);
    let outcomes = host.time("sweep", || {
        run_campaigns(
            &a.workloads,
            workload(a.threads, a.scale),
            &campaign,
            a.amnesic,
            a.jobs,
        )
    });

    for (bench, run, host_ns) in outcomes {
        let name = bench.name();
        let run = run.map_err(|e| format!("{name}: {e}"))?;
        let r = &run.report;
        host.add_phase_ns(name, host_ns);
        digest.fold(name, &run, &mut merged);

        println!("== {} ({}) ==", name, run.label);
        if a.progress {
            print!("{}", r.case_log);
        }
        print!("{}", r.summary());
        println!(
            "  recovery energy {:.6e} J over {:.6e} s",
            run.recovery_energy_joules, run.recovery_seconds
        );
        for c in r
            .cases
            .iter()
            .filter(|c| c.outcome == CaseOutcome::Diverged)
        {
            println!(
                "  case {}: fault landed at cycle {}, recovery stalled {} cycles \
                 ({} words still divergent)",
                c.case,
                c.landing_cycle,
                c.recovery_stall_cycles,
                c.mem_divergence + c.reg_divergence
            );
        }
        if let Some(dir) = &a.postmortem_dir {
            for bundle in &r.postmortems {
                let mut b = bundle.clone();
                b.workload = name.to_owned();
                b.repro = INJECT.repro_line(a);
                let path = format!("{dir}/postmortem.{name}.case{:04}.json", b.case);
                std::fs::write(&path, b.to_json()).map_err(|e| format!("{path}: {e}"))?;
                println!("  postmortem -> {path}");
            }
        }
        if a.metrics_out.is_some() {
            metrics_jsonl.push_str(&r.baseline_series.to_jsonl(&[("workload", name)]));
        }
        total += r.totals();
        recovery_energy += run.recovery_energy_joules;

        if let Some(dir) = &a.csv_dir {
            let path = format!("{dir}/{name}.csv");
            std::fs::write(&path, r.csv()).map_err(|e| format!("{path}: {e}"))?;
            println!("  cases written to {path}");
        }
    }

    println!("== campaign total ==");
    println!(
        "  injected {}  detected {}  recovered {}  diverged {}  aborted {}",
        total.injected, total.detected, total.recovered, total.diverged, total.aborted
    );
    let [recovered, due, sdc, hang] = total.classes;
    println!("  outcome classes: recovered {recovered}  due {due}  sdc {sdc}  hang {hang}");
    println!(
        "  state-divergence count {}  recovery cycles {}  recovery energy {recovery_energy:.6e} J",
        total.divergent_words, total.recovery_stall_cycles
    );
    if a.recovery_faults {
        println!(
            "  escalation total: replay_retries {}  generation_fallbacks {}  degraded_entries {}",
            total.replay_retries, total.generation_fallbacks, total.degraded_entries
        );
    }
    if let Some(path) = &a.metrics_out {
        std::fs::write(path, &metrics_jsonl).map_err(|e| format!("{path}: {e}"))?;
        println!(
            "  baseline metrics written to {path} (every {} cycles)",
            a.sample_interval
        );
    }
    println!("  combined hash {:#018x}", digest.combined());
    if a.print_metrics {
        let pairs: Vec<(String, u64)> = merged.iter().map(|(k, v)| (k.to_owned(), v)).collect();
        println!("  merged metrics ({} keys):", pairs.len());
        print!("{}", metrics_table(&pairs));
    }
    if let Some(path) = &a.manifest_out {
        let wall = host.wall_ns();
        let work = (digest.sim_cycles, digest.retired);
        let m = Manifest {
            command: "inject".to_owned(),
            config: INJECT.config(a),
            sim_hashes: digest.sim_hashes(),
            metrics_digest: digest.digest,
            host: host_section(host, a, work, wall, &digest.loads),
            bench: None,
        };
        write_manifest(path, &m)?;
        println!("  manifest -> {path}");
    }
    Ok(if total.diverged > 0 || total.aborted > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

fn soak(a: &RunArgs) -> Result<ExitCode, String> {
    if let Some(dir) = &a.postmortem_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("--postmortem-dir {dir}: {e}"))?;
    }
    let names: Vec<String> = a.workloads.iter().map(|b| b.name().to_string()).collect();
    let grid = SoakGrid::new(&names, &a.models, &a.resilience);
    let cursor = match &a.cursor {
        Some(path) if std::path::Path::new(path).exists() => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let c = SoakCursor::from_json(&text).map_err(|e| format!("--cursor {path}: {e}"))?;
            c.check_grid(&grid)
                .map_err(|e| format!("--cursor {path}: {e}"))?;
            if c.seed != a.seed {
                return Err(format!(
                    "--cursor {path}: cursor seed {:#x} != --seed {:#x}; a resumed \
                     soak must keep its seed",
                    c.seed, a.seed
                ));
            }
            if c.chunk_cases != a.chunk {
                return Err(format!(
                    "--cursor {path}: cursor chunk size {} != --chunk {}; a resumed \
                     soak must keep its chunk size",
                    c.chunk_cases, a.chunk
                ));
            }
            c
        }
        _ => SoakCursor::new(&grid, a.seed, a.chunk),
    };

    // Each chunk overrides the seed, count, fault model and resilience
    // fields of this base.
    let base = campaign_config(a);
    // One cached experiment per workload: instrumentation is paid once,
    // not once per chunk.
    let mut exps = a
        .workloads
        .iter()
        .map(|&b| {
            paper_experiment(b, workload(a.threads, a.scale), |spec| spec)
                .map(|e| (b.name().to_string(), e))
                .map_err(|e| format!("{b}: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    println!(
        "== soak: {} combos x {} cases/chunk, seed {} ==",
        grid.combos.len(),
        a.chunk,
        a.seed
    );
    if cursor.chunks_done > 0 {
        let (done, ..) = cursor.totals();
        println!(
            "  resuming at chunk {} ({done} cases on the books)",
            cursor.chunks_done
        );
    }

    let started = std::time::Instant::now();
    let out = run_soak(
        &grid,
        &base,
        cursor,
        |combo, cfg| {
            let exp = exps
                .iter_mut()
                .find(|(n, _)| *n == combo.workload)
                .map(|(_, e)| e)
                .expect("grid workloads are built from these experiments");
            exp.run_fault_campaign(cfg, a.amnesic)
                .map(|r| r.report)
                .map_err(|e| match e {
                    ExperimentError::Campaign(c) => c,
                    other => CampaignError::Config(CkptError::Unsupported {
                        what: other.to_string(),
                    }),
                })
        },
        |c| {
            let (cases, ..) = c.totals();
            cases < a.cases && (a.budget_secs == 0 || started.elapsed().as_secs() < a.budget_secs)
        },
    )
    .map_err(|e| e.to_string())?;

    print!("{}", out.log);
    println!(
        "== soak matrix ({} chunks total, {} this run) ==",
        out.cursor.chunks_done, out.chunks_run
    );
    print!("{}", out.cursor.matrix());
    if let Some(dir) = &a.postmortem_dir {
        for pm in &out.postmortems {
            let mut b = pm.bundle.clone();
            b.workload = pm.workload.clone();
            b.repro = SOAK.repro_line(a);
            let path = format!(
                "{dir}/postmortem.{}.chunk{:04}.case{:04}.json",
                pm.workload, pm.chunk, b.case
            );
            std::fs::write(&path, b.to_json()).map_err(|e| format!("{path}: {e}"))?;
        }
        println!("  {} postmortems -> {dir}", out.postmortems.len());
    }
    if a.print_metrics {
        let pairs: Vec<(String, u64)> =
            out.metrics.iter().map(|(k, v)| (k.to_owned(), v)).collect();
        println!("  soak metrics ({} keys):", pairs.len());
        print!("{}", metrics_table(&pairs));
    }
    if let Some(path) = &a.cursor {
        std::fs::write(path, out.cursor.to_json()).map_err(|e| format!("{path}: {e}"))?;
        println!("  cursor -> {path}");
    }
    let (_, _, _, sdc, _) = out.cursor.totals();
    if sdc > 0 {
        println!("  SILENT DATA CORRUPTION: {sdc} case(s) — triage the postmortems");
        Ok(ExitCode::from(1))
    } else {
        Ok(ExitCode::SUCCESS)
    }
}

/// Re-runs a repro document's minimal plan exactly once: exit 1 when the
/// failure reproduces (same-signature triage can proceed), 0 when it no
/// longer fails (the repro is stale).
fn shrink_replay(path: &str) -> Result<ExitCode, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = ReproDoc::from_json(&text).map_err(|e| format!("{path}: {e}"))?;
    let bench = Benchmark::from_name(&doc.workload)
        .ok_or_else(|| format!("{path}: workload: unknown `{}`", doc.workload))?;
    let mut exp = paper_experiment(bench, workload(doc.threads, doc.scale), |spec| spec)
        .map_err(|e| format!("{bench}: {e}"))?;
    println!(
        "== replay: {} case {:04}, {} fault(s) ==",
        bench.name(),
        doc.case,
        doc.faults.len()
    );
    match exp
        .replay_fault_case(&doc.campaign_config(), doc.amnesic, doc.case, &doc.faults)
        .map_err(|e| e.to_string())?
    {
        Some(failure) => {
            println!(
                "  reproduced: trigger {} (recorded {})",
                failure.trigger, doc.trigger
            );
            println!("  probable cause: {}", failure.bundle.probable_cause);
            Ok(ExitCode::from(1))
        }
        None => {
            println!("  did not reproduce: the plan no longer fails");
            Ok(ExitCode::SUCCESS)
        }
    }
}

fn shrink(a: &RunArgs) -> Result<ExitCode, String> {
    let &[bench] = a.workloads.as_slice() else {
        return Err("--workload: shrink takes exactly one workload".into());
    };
    if let Some(path) = &a.replay {
        return shrink_replay(path);
    }
    let cfg = campaign_config(a);
    let mut exp = paper_experiment(bench, workload(a.threads, a.scale), |spec| spec)
        .map_err(|e| format!("{bench}: {e}"))?;
    let faults = exp
        .plan_dense_faults(&cfg, a.amnesic)
        .map_err(|e| e.to_string())?;
    println!(
        "== shrink: {} case {:04}, {} planned fault(s) ==",
        bench.name(),
        a.case,
        faults.len()
    );
    let out = exp
        .shrink_fault_case(
            &cfg,
            a.amnesic,
            a.case,
            &faults,
            &ShrinkConfig {
                jobs: a.jobs,
                max_evaluations: a.max_evals,
            },
        )
        .map_err(|e| e.to_string())?;
    println!(
        "  {} fault(s) -> {} ({} dropped, {} field(s) narrowed) in {} round(s), \
         {} evaluation(s)",
        out.original_faults,
        out.minimal.len(),
        out.dropped_faults(),
        out.narrowed_fields,
        out.rounds,
        out.evaluations
    );
    println!("  trigger {}", out.failure.trigger);
    println!("  probable cause: {}", out.failure.bundle.probable_cause);
    println!("  minimal plan:");
    for f in &out.minimal {
        println!("    {}", fault_to_json(f));
    }
    let out_path = a
        .out
        .clone()
        .unwrap_or_else(|| format!("repro.{}.case{:04}.json", bench.name(), a.case));
    let doc = ReproDoc {
        workload: bench.name().to_owned(),
        case: a.case,
        seed: a.seed,
        threads: a.threads,
        scale: a.scale,
        checkpoints: a.checkpoints,
        latency: a.latency,
        amnesic: a.amnesic,
        recovery_faults: a.recovery_faults,
        generations: a.generations,
        watchdog_budget: a.watchdog_budget,
        trigger: out.failure.trigger,
        probable_cause: out.failure.bundle.probable_cause,
        original_faults: out.original_faults,
        faults: out.minimal,
    };
    std::fs::write(&out_path, doc.to_json()).map_err(|e| format!("{out_path}: {e}"))?;
    println!("  repro -> {out_path}");
    println!("  replay: acr_cli shrink --replay {out_path}");
    Ok(ExitCode::SUCCESS)
}

/// With several workloads (`multi`), inserts `.{name}` before the final
/// extension (`run.trace.json` → `run.trace.cg.json`; extensionless paths
/// get `.{name}` appended) — how multi-workload trace/profile runs keep
/// one output file per workload.
fn suffixed(path: &str, name: &str, multi: bool) -> String {
    match path.rfind('.') {
        _ if !multi => path.to_owned(),
        Some(i) if i > 0 && !path[i..].contains('/') => {
            format!("{}.{name}{}", &path[..i], &path[i..])
        }
        _ => format!("{path}.{name}"),
    }
}

/// Places `count` guaranteed-recoverable register faults deterministically
/// along the progress axis: evenly spaced, cores round-robin, register and
/// bit derived from the seed. No RNG — the same seed always yields the
/// same trace bytes. Each fault needs its own progress point, so `count`
/// may not exceed the fault-free run's `total` retired instructions
/// (checked before anything is allocated).
fn planned_faults(
    seed: u64,
    count: u32,
    total: u64,
    threads: u32,
) -> Result<Vec<Fault>, ExperimentError> {
    if u64::from(count) > total {
        let what = format!(
            "--faults {count} exceeds the {total} retired instructions of the \
             fault-free run (one fault per progress point)"
        );
        return Err(ExperimentError::Campaign(
            CkptError::Unsupported { what }.into(),
        ));
    }
    Ok((0..u64::from(count))
        .map(|i| Fault {
            at_progress: total * (i + 1) / (u64::from(count) + 1),
            core: CoreId((i % u64::from(threads)) as u32),
            kind: FaultKind::RegBitFlip {
                reg: (4 + (seed.wrapping_add(i)) % 24) as u8,
                bit: ((seed.wrapping_mul(7).wrapping_add(i * 13)) % 64) as u8,
            },
        })
        .collect())
}

/// One traced/profiled run of `bench`: the paper experiment at the
/// `--threads`/`--scale`/`--checkpoints`/`--scheme` flags, refined by
/// `refine`, run as `ReCkpt_F` under the [`planned_faults`] plan. With
/// `detail: Some(_)` a fresh in-memory trace sink rides along; sinks are
/// `Rc`-based, so each worker builds its own here and traced events come
/// back per workload, never interleaved. Returns the run, the captured
/// events (empty when not tracing) and the instrumented binary it
/// executed (for flamegraph region labels).
fn faulted_run(
    a: &RunArgs,
    bench: Benchmark,
    detail: Option<bool>,
    refine: impl FnOnce(ExperimentSpec) -> ExperimentSpec,
) -> Result<(RunResult, Vec<TraceEvent>, acr_isa::Program), ExperimentError> {
    let (sink, recorded) = SharedSink::memory();
    let mut exp = paper_experiment(bench, workload(a.threads, a.scale), |spec| {
        let spec = refine(spec.with_checkpoints(a.checkpoints).with_scheme(a.scheme));
        match detail {
            Some(detail) => spec.with_trace(sink.with_detail(detail)),
            None => spec,
        }
    })?;
    let total = exp.total_work()?;
    let result = exp.run_reckpt_faulted(planned_faults(a.seed, a.faults, total, a.threads)?)?;
    let events = recorded.borrow().events().to_vec();
    Ok((result, events, exp.instrumented().0.clone()))
}

fn trace(a: &RunArgs) -> Result<ExitCode, String> {
    let out = a.out.as_deref().expect("the table defaults trace's --out");
    let multi = a.workloads.len() > 1;
    let mut host = HostPerf::start();
    let mut sim_hashes: Vec<(String, u64)> = Vec::new();
    let mut metrics_digest = Fnv1a::new();
    let mut sim_cycles = 0u64;
    let mut retired = 0u64;
    let outcomes = host.time("sweep", || {
        sweep(a.workloads.len(), a.jobs, |i, _| {
            faulted_run(a, a.workloads[i], Some(a.detail), |spec| {
                spec.with_sample_interval(a.sample_interval)
            })
        })
    });

    for (&bench, (run, host_ns)) in a.workloads.iter().zip(outcomes) {
        let name = bench.name();
        let (result, events, _) = run.map_err(|e| format!("{name}: {e}"))?;
        let report = result.report.as_ref().expect("engine runs carry a report");
        host.add_phase_ns(name, host_ns);
        sim_cycles += result.cycles;
        retired += result.sim.retired;

        let out_path = suffixed(out, name, multi);
        let json = chrome_trace_json(&events, Some(&report.series));
        std::fs::write(&out_path, &json).map_err(|e| format!("{out_path}: {e}"))?;
        sim_hashes.push((name.to_owned(), fnv1a(json.as_bytes())));

        println!(
            "traced {} ({}): {} cycles, {} checkpoints, {} faults injected, {} recoveries",
            name,
            result.label,
            result.cycles,
            report.checkpoints_taken,
            report.faults_injected,
            report.recoveries.len(),
        );
        for (i, rec) in report.recoveries.iter().enumerate() {
            let landed = report.fault_landing_cycles.get(i).copied().unwrap_or(0);
            println!(
                "  recovery {i}: fault landed at cycle {landed}, detected at cycle {}, \
                 stalled {} cycles ({} values recomputed by Slice replay)",
                rec.detected_at_cycles, rec.stall_cycles, rec.recomputed_values
            );
        }
        println!(
            "  {} trace events + {} metric samples (every {} cycles) -> {}",
            events.len(),
            report.series.samples().len(),
            a.sample_interval,
            out_path
        );
        if a.print_metrics {
            if let Some(sample) = report.series.samples().last() {
                println!("  final metrics sample (cycle {}):", sample.cycle);
                print!("{}", metrics_table(&sample.values));
            }
        }
        let jsonl = report
            .series
            .to_jsonl(&[("workload", name), ("run", "reckpt_faulted")]);
        metrics_digest.write(jsonl.as_bytes());
        if let Some(path) = &a.metrics_out {
            let path = suffixed(path, name, multi);
            std::fs::write(&path, jsonl).map_err(|e| format!("{path}: {e}"))?;
            println!("  metrics samples -> {path}");
        }
    }
    if let Some(path) = &a.manifest_out {
        let wall = host.wall_ns();
        let m = Manifest {
            command: "trace".to_owned(),
            config: TRACE.config(a),
            sim_hashes,
            metrics_digest: metrics_digest.finish(),
            host: host_section(host, a, (sim_cycles, retired), wall, &[]),
            bench: None,
        };
        write_manifest(path, &m)?;
        println!("manifest -> {path}");
    }
    Ok(ExitCode::SUCCESS)
}

/// Sanitizes a region label for the collapsed-stack format (frames are
/// `;`-separated, samples end at the first space).
fn flame_frame(label: &str) -> String {
    label.replace([';', ' '], "_")
}

/// Renders the per-PC profile as collapsed stacks:
/// `workload;tN;region;class;pc_0x… ticks`, one line per attribution
/// site, in `(core, pc)` order — loadable in speedscope or inferno.
fn collapsed_stacks(
    workload: &str,
    program: &acr_isa::Program,
    prof: &acr_sim::PcProfile,
) -> String {
    let mut out = String::new();
    for ((core, pc), c) in prof.iter() {
        if c.ticks == 0 {
            continue;
        }
        let region = flame_frame(program.label_at(*core, *pc).unwrap_or("code"));
        let class = if c.mem_ticks > 0 { "mem" } else { "cpu" };
        let _ = writeln!(
            out,
            "{workload};t{core};{region};{class};pc_0x{pc:x} {}",
            c.ticks
        );
    }
    out
}

/// Renders the omission-decision ledger as a deterministic text report:
/// reason totals, the per-4-KiB-range split, per-Slice omission counts and
/// per-Slice replay cost (cycles plus pJ from the energy model).
fn ledger_report(
    workload: &str,
    seed: u64,
    ledger: &acr_ckpt::DecisionLedger,
    energy: &acr_energy::EnergyModel,
) -> String {
    let mut out = String::new();
    let total = ledger.total_decisions();
    let _ = writeln!(out, "# omission-decision ledger: {workload} seed {seed}");
    let _ = writeln!(
        out,
        "decisions {total}  logged {}  omitted {}",
        ledger.total_logged(),
        ledger.total_omitted()
    );
    for reason in OmitReason::ALL {
        let n = ledger.total(reason);
        let pct = if total == 0 {
            0.0
        } else {
            100.0 * n as f64 / total as f64
        };
        let _ = writeln!(out, "  {:<24} {n:>10}  {pct:>5.1}%", reason.code());
    }
    let _ = writeln!(
        out,
        "# per 4 KiB range: base {}",
        OmitReason::ALL.map(OmitReason::code).join(" ")
    );
    for (base, counts) in ledger.ranges() {
        let _ = write!(out, "range {base:#012x}");
        for n in counts {
            let _ = write!(out, " {n}");
        }
        out.push('\n');
    }
    let _ = writeln!(out, "# per-slice omissions");
    for (slice, n) in ledger.per_slice() {
        let _ = writeln!(out, "slice {} omitted {n}", slice.0);
    }
    let _ = writeln!(out, "# per-slice replay cost");
    for (slice, rc) in ledger.replays() {
        let pj = rc.alu_ops as f64 * energy.alu_pj + rc.opbuf_reads as f64 * energy.opbuf_pj;
        let _ = writeln!(
            out,
            "slice {} replays {} cycles {} alu {} opbuf {} energy_pj {pj:.1}",
            slice.0, rc.replays, rc.cycles, rc.alu_ops, rc.opbuf_reads
        );
    }
    out
}

fn profile(a: &RunArgs) -> Result<ExitCode, String> {
    let multi = a.workloads.len() > 1;
    let tracing = a.trace_out.is_some();
    let mut host = HostPerf::start();
    let mut sim_hashes: Vec<(String, u64)> = Vec::new();
    let mut metrics_digest = Fnv1a::new();
    let mut sim_cycles = 0u64;
    let mut retired = 0u64;
    let outcomes = host.time("sweep", || {
        sweep(a.workloads.len(), a.jobs, |i, _| {
            faulted_run(a, a.workloads[i], tracing.then_some(false), |spec| {
                let spec = spec.with_profile(true);
                if tracing {
                    spec.with_sample_interval(5000)
                } else {
                    spec
                }
            })
        })
    });

    let energy = acr_energy::EnergyModel::default();
    for (&bench, (run, host_ns)) in a.workloads.iter().zip(outcomes) {
        let name = bench.name();
        let (result, events, iprog) = run.map_err(|e| format!("{name}: {e}"))?;
        let prof = result.profile.as_ref().expect("profiling was enabled");
        let ledger = result.ledger.as_ref().expect("profiling was enabled");
        let (logged, omitted) = result.log_totals.expect("profiling was enabled");

        // Conservation: the ledger classified every first-update decision,
        // and its logged/omitted split matches the log controller's word
        // totals. A violation is an attribution bug, not a user error.
        assert_eq!(
            ledger.total_decisions(),
            logged + omitted,
            "ledger decisions must equal words logged + omitted"
        );
        assert_eq!(ledger.total_omitted(), omitted);

        let flame_out = suffixed(&a.flame_out, name, multi);
        let ledger_out = suffixed(&a.ledger_out, name, multi);
        let flame = collapsed_stacks(name, &iprog, prof);
        std::fs::write(&flame_out, &flame).map_err(|e| format!("{flame_out}: {e}"))?;
        let ledger_txt = ledger_report(name, a.seed, ledger, &energy);
        std::fs::write(&ledger_out, &ledger_txt).map_err(|e| format!("{ledger_out}: {e}"))?;
        host.add_phase_ns(name, host_ns);
        sim_cycles += result.cycles;
        retired += result.sim.retired;
        sim_hashes.push((format!("{name}.flame"), fnv1a(flame.as_bytes())));
        sim_hashes.push((format!("{name}.ledger"), fnv1a(ledger_txt.as_bytes())));
        metrics_digest.write(flame.as_bytes());
        metrics_digest.write(ledger_txt.as_bytes());

        println!(
            "profiled {} ({}): {} cycles, {} attribution sites, {} retires",
            name,
            result.label,
            result.cycles,
            prof.len(),
            prof.total_retires(),
        );
        let (p50, p90, p99) = prof.tick_histogram().digest();
        println!("  retire ticks p50 {p50} p90 {p90} p99 {p99}");
        println!(
            "  decisions {}: {} omitted, {} logged",
            ledger.total_decisions(),
            omitted,
            logged
        );

        // Hottest sites by attributed ticks (ties broken by site order).
        let mut sites: Vec<_> = prof.iter().collect();
        sites.sort_by(|a, b| b.1.ticks.cmp(&a.1.ticks).then(a.0.cmp(b.0)));
        println!(
            "  {:<5} {:<10} {:<16} {:>9} {:>9} {:>8} {:>8}",
            "core", "pc", "region", "retires", "ticks", "mem", "stall"
        );
        for ((core, pc), c) in sites.into_iter().take(a.top) {
            println!(
                "  {core:<5} {:<10} {:<16} {:>9} {:>9} {:>8} {:>8}",
                format!("0x{pc:x}"),
                iprog.label_at(*core, *pc).unwrap_or("code"),
                c.retires,
                c.ticks,
                c.mem_ticks,
                c.stall_ticks
            );
        }
        println!("  flamegraph -> {flame_out}");
        println!("  ledger -> {ledger_out}");

        if let Some(path) = &a.trace_out {
            let path = suffixed(path, name, multi);
            let report = result.report.as_ref().expect("engine runs carry a report");
            let mut recorded = events;
            // Ledger reason totals as one counter track per reason, stamped
            // at the end of the run, plus the retire-latency digest.
            for reason in OmitReason::ALL {
                recorded.push(
                    TraceEvent::counter(reason.code(), "ledger", TRACK_ENGINE, result.cycles)
                        .with_arg("words", ledger.total(reason)),
                );
            }
            recorded.push(
                TraceEvent::counter(
                    "profile.retire.ticks",
                    "profile",
                    TRACK_ENGINE,
                    result.cycles,
                )
                .with_arg("p50", p50)
                .with_arg("p90", p90)
                .with_arg("p99", p99),
            );
            let json = chrome_trace_json(&recorded, Some(&report.series));
            std::fs::write(&path, &json).map_err(|e| format!("{path}: {e}"))?;
            println!("  trace -> {path}");
        }
    }
    if let Some(path) = &a.manifest_out {
        let wall = host.wall_ns();
        let m = Manifest {
            command: "profile".to_owned(),
            config: PROFILE.config(a),
            sim_hashes,
            metrics_digest: metrics_digest.finish(),
            host: host_section(host, a, (sim_cycles, retired), wall, &[]),
            bench: None,
        };
        write_manifest(path, &m)?;
        println!("manifest -> {path}");
    }
    Ok(ExitCode::SUCCESS)
}

fn bench(a: &RunArgs) -> Result<ExitCode, String> {
    let campaign = campaign_config(a);
    let run_campaign = |campaign: &CampaignConfig| -> Result<SweepDigest, String> {
        let mut digest = SweepDigest::new();
        let mut merged = MetricsRegistry::new();
        for (bench, run, _) in run_campaigns(
            &a.workloads,
            workload(a.threads, a.scale),
            campaign,
            a.amnesic,
            a.jobs,
        ) {
            let run = run.map_err(|e| format!("{bench}: {e}"))?;
            digest.fold(bench.name(), &run, &mut merged);
        }
        Ok(digest)
    };
    let run_once = || run_campaign(&campaign);

    let mut host = HostPerf::start();
    println!(
        "benchmark {}: faults {} workloads {} jobs {} — {} warmup + {} timed reps",
        a.name,
        a.faults,
        workload_names(a),
        a.jobs,
        a.warmup,
        a.reps
    );
    for _ in 0..a.warmup {
        host.time("warmup", run_once)?;
    }

    let mut samples = Vec::with_capacity(a.reps as usize);
    let mut loads: Vec<WorkerLoad> = Vec::new();
    let mut reference: Option<SweepDigest> = None;
    for rep in 0..a.reps {
        let sw = Stopwatch::start();
        let digest = run_once()?;
        let ns = sw.elapsed_ns();
        host.add_phase_ns("reps", ns);
        samples.push(ns);
        println!(
            "  rep {}/{}: {:.3} s  combined {:#018x}",
            rep + 1,
            a.reps,
            ns as f64 / 1e9,
            digest.combined()
        );
        merge_loads(&mut loads, &digest.loads);
        match &reference {
            // The timed campaign must be deterministic or the numbers
            // mean nothing: every rep re-proves the sim section.
            Some(r) if r.hashes != digest.hashes || r.digest != digest.digest => {
                return Err(
                    "nondeterministic campaign: sim hashes differ across repetitions".into(),
                );
            }
            Some(_) => {}
            None => reference = Some(digest),
        }
    }
    let reference = reference.expect("--reps is positive");
    let stats = BenchStats::from_samples(&samples, u64::from(a.warmup));
    println!(
        "  median {:.3} s  mad {:.3} s  min {:.3} s",
        stats.median_ns as f64 / 1e9,
        stats.mad_ns as f64 / 1e9,
        stats.min_ns as f64 / 1e9
    );

    // Recorder-overhead phase: the flight recorder rides along on every
    // fault case by default, so re-time the identical campaign with the
    // rings detached. The recorder is purely observational — the hashes
    // must not move — and the median split quantifies its host cost
    // (budgeted under 1 % on the reference campaign).
    let off_campaign = CampaignConfig {
        recorder: false,
        ..campaign.clone()
    };
    let mut off_samples = Vec::with_capacity(a.reps as usize);
    for _ in 0..a.reps {
        let sw = Stopwatch::start();
        let digest = run_campaign(&off_campaign)?;
        let ns = sw.elapsed_ns();
        host.add_phase_ns("recorder_off", ns);
        off_samples.push(ns);
        if digest.hashes != reference.hashes || digest.digest != reference.digest {
            return Err(
                "flight recorder perturbed the campaign: recorder-off sim hashes differ".into(),
            );
        }
    }
    let off = BenchStats::from_samples(&off_samples, 0);
    let overhead_pct = if off.median_ns == 0 {
        0.0
    } else {
        100.0 * (stats.median_ns as f64 - off.median_ns as f64) / off.median_ns as f64
    };
    println!(
        "  recorder overhead {overhead_pct:+.2}% (median {:.3} s on vs {:.3} s off; \
         hashes identical)",
        stats.median_ns as f64 / 1e9,
        off.median_ns as f64 / 1e9
    );

    // Throughput is per *repetition* (median), not per total wall time,
    // so it is comparable across different --reps choices.
    let work = (reference.sim_cycles, reference.retired);
    let m = Manifest {
        command: "bench".to_owned(),
        config: BENCH.config(a),
        sim_hashes: reference.sim_hashes(),
        metrics_digest: reference.digest,
        host: host_section(host, a, work, stats.median_ns, &loads),
        bench: Some(stats),
    };
    let out_path = a
        .out
        .clone()
        .unwrap_or_else(|| format!("BENCH_{}.json", a.name));
    write_manifest(&out_path, &m)?;
    println!("manifest -> {out_path}");
    if let Some(path) = &a.manifest_out {
        write_manifest(path, &m)?;
        println!("manifest -> {path}");
    }
    Ok(ExitCode::SUCCESS)
}

fn diff(a: &RunArgs) -> Result<ExitCode, String> {
    let [base, cand] = a.operands.as_slice() else {
        return Err(format!(
            "diff takes exactly two manifest paths, got {}",
            a.operands.len()
        ));
    };
    let opts = DiffOptions {
        tolerance_pct: a.tolerance_pct,
        gate_host: a.gate_host,
        gate_tput: a.gate_tput,
    };
    let read = |path: &str| -> Result<Manifest, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Manifest::from_json(&text).map_err(|e| format!("{path}: {e}"))
    };
    let report = diff_manifests(&read(base)?, &read(cand)?, &opts);
    print!("{}", report.render());
    Ok(if report.failed() {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

fn print_result(label: &str, r: &RunResult, base: Option<&RunResult>) {
    println!("--- {label} ---");
    println!("  cycles          {:>14}", r.cycles);
    println!("  time            {:>14.6} ms", r.seconds * 1e3);
    println!(
        "  energy          {:>14.6} mJ",
        r.energy.total_joules() * 1e3
    );
    println!("  EDP             {:>14.6e} J*s", r.edp);
    if let Some(b) = base {
        println!(
            "  time overhead   {:>13.2}% vs {}",
            r.time_overhead_pct(b),
            b.label
        );
        println!(
            "  energy overhead {:>13.2}% vs {}",
            r.energy_overhead_pct(b),
            b.label
        );
    }
    if let Some(rep) = &r.report {
        println!("  checkpoints     {:>14}", rep.checkpoints_taken);
        println!("  ckpt bytes      {:>14}", rep.total_checkpoint_bytes());
        if rep.total_baseline_bytes() > rep.total_checkpoint_bytes() {
            println!(
                "  size reduction  {:>13.2}% (max interval {:.2}%)",
                rep.overall_reduction_pct(),
                rep.max_interval_reduction_pct()
            );
        }
        if rep.errors_handled > 0 {
            let recomputed: u64 = rep.recoveries.iter().map(|x| x.recomputed_values).sum();
            let waste: u64 = rep.recoveries.iter().map(|x| x.waste_cycles).sum();
            println!("  errors handled  {:>14}", rep.errors_handled);
            println!("  recomputed      {:>14}", recomputed);
            println!("  wasted cycles   {:>14}", waste);
        }
        if rep.secondary_checkpoints > 0 {
            println!(
                "  level-2 ckpts   {:>14} ({} B)",
                rep.secondary_checkpoints, rep.secondary_bytes
            );
        }
    }
    if let Some(acr) = &r.acr {
        println!(
            "  AddrMap         {:>14} writes, {} reads, peak {} live, {} capacity drops",
            acr.addrmap_writes, acr.addrmap_reads, acr.addrmap_peak_live, acr.capacity_rejections
        );
    }
}

/// Runs `No_Ckpt`, then the `--policy` configuration and (under ACR) the
/// Ckpt baseline for context, or uniform vs adaptive placement with
/// `--adaptive`, over every workload in turn.
fn run(a: &RunArgs) -> Result<ExitCode, String> {
    for &bench in &a.workloads {
        run_workload(a, bench).map_err(|e| format!("{bench}: {e}"))?;
    }
    Ok(ExitCode::SUCCESS)
}

fn run_workload(a: &RunArgs, bench: Benchmark) -> Result<(), ExperimentError> {
    let wl = WorkloadConfig {
        seed: a.seed,
        ..workload(a.threads, a.scale)
    };
    let mut exp = paper_experiment(bench, wl, |spec| {
        let threshold = a.threshold.unwrap_or(spec.slicer.threshold);
        ExperimentSpec {
            detection_latency_frac: a.latency,
            addrmap: a
                .addrmap
                .map_or(spec.addrmap, |capacity_per_core| AddrMapConfig {
                    capacity_per_core,
                }),
            secondary: a.secondary.map(|every| SecondaryStorage {
                every,
                ..Default::default()
            }),
            ..spec
        }
        .with_checkpoints(a.checkpoints)
        .with_threshold(threshold)
        .with_scheme(a.scheme)
        .with_oracle(a.oracle)
    })?;
    let program = exp.program();
    println!(
        "workload {} — {} threads, {} static instrs, {} B image",
        bench,
        program.num_threads(),
        program.static_len(),
        program.mem_bytes()
    );

    let no = exp.run_no_ckpt()?;
    print_result("No_Ckpt", &no, None);

    if a.adaptive && a.amnesic {
        let outcome = placement::tune(&mut exp, 4)?;
        print_result("ReCkpt (uniform)", &outcome.uniform, Some(&no));
        print_result("ReCkpt (adaptive placement)", &outcome.adaptive, Some(&no));
        println!(
            "adaptive placement: {:+.2}% bytes, {:+.2}% time vs uniform",
            outcome.bytes_improvement_pct(),
            outcome.time_improvement_pct()
        );
        return Ok(());
    }

    let main = if a.amnesic {
        exp.run_reckpt(a.errors)?
    } else {
        exp.run_ckpt(a.errors)?
    };
    print_result(&main.label, &main, Some(&no));
    if a.amnesic {
        let base = exp.run_ckpt(a.errors)?;
        print_result(&base.label, &base, Some(&no));
        println!(
            "ACR vs baseline: {:.2}% time, {:.2}% energy, {:.2}% EDP reduction",
            100.0 * (base.cycles as f64 - main.cycles as f64) / base.cycles as f64,
            100.0 * (base.energy.total_joules() - main.energy.total_joules())
                / base.energy.total_joules(),
            main.edp_reduction_pct(&base),
        );
    }
    Ok(())
}

/// Runs the `--only` tasks across `--jobs` workers and prints their
/// reports in task order, so stdout is byte-identical for every jobs
/// value; the wall time goes to stderr. The manifest hashes each task's
/// report text and times it under `host.phase.<task>.ns`.
fn figures(a: &RunArgs) -> Result<ExitCode, String> {
    let tasks: Vec<&FigureTask> = FIGURE_TASKS
        .iter()
        .filter(|t| a.only.contains(&t.0))
        .collect();
    let mut host = HostPerf::start();
    // Each worker times its own task; the per-task wall times come back
    // with the reports, so host.phase.* is accurate under any --jobs.
    let chunks = host.time("figures", || {
        ParallelRunner::new(a.jobs).run_ordered(tasks.len(), |i| {
            let sw = Stopwatch::start();
            let out = (tasks[i].1)(a.scale);
            (out, sw.elapsed_ns())
        })
    });
    let mut sim_hashes: Vec<(String, u64)> = Vec::new();
    let mut digest = Fnv1a::new();
    for ((name, _), (chunk, task_ns)) in tasks.iter().zip(chunks) {
        let reports = chunk.map_err(|e| format!("{name}: {e}"))?;
        host.add_phase_ns(name, task_ns);
        let mut h = Fnv1a::new();
        for report in reports {
            h.write(report.as_bytes());
            digest.write(report.as_bytes());
            print!("{report}");
            println!();
        }
        sim_hashes.push(((*name).to_owned(), h.finish()));
    }
    if let Some(path) = &a.metrics_out {
        let jsonl = host
            .time("metrics", || {
                acr_bench::sampled_metrics(a.scale, a.sample_interval)
            })
            .map_err(|e| format!("metrics: {e}"))?;
        std::fs::write(path, jsonl).map_err(|e| format!("{path}: {e}"))?;
        println!(
            "metrics samples (every {} cycles) -> {path}",
            a.sample_interval
        );
        println!();
    }
    if let Some(path) = &a.manifest_out {
        let combined = combined_hash(&sim_hashes);
        sim_hashes.push(("combined".to_owned(), combined));
        host.record_jobs(
            a.jobs as u64,
            ParallelRunner::new(a.jobs).jobs() as u64,
            &[],
        );
        let m = Manifest {
            command: "figures".to_owned(),
            config: FIGURES.config(a),
            sim_hashes,
            metrics_digest: digest.finish(),
            host: host.finish(),
            bench: None,
        };
        write_manifest(path, &m)?;
        println!("manifest -> {path}");
        println!();
    }
    eprintln!("total wall time: {:.1}s", host.wall_ns() as f64 / 1e9);
    Ok(ExitCode::SUCCESS)
}

/// Merged flight-recorder timeline lines. Within-ring order is already
/// chronological, so the stable sort by `(cycle, track)` interleaves the
/// rings without reordering equal-cycle events of one core.
fn explain_timeline(rings: &[RingDigest]) -> Vec<String> {
    let mut events: Vec<(u64, u32, String)> = Vec::new();
    for ev in rings.iter().flat_map(|r| &r.events) {
        let mut line = format!(
            "[{:>10}] t{:<4} {} ({}/{})",
            ev.cycle, ev.track, ev.name, ev.cat, ev.kind
        );
        if ev.dur > 0 {
            let _ = write!(line, " dur {}", ev.dur);
        }
        for (k, v) in &ev.args {
            let _ = write!(line, " {k}={v}");
        }
        events.push((ev.cycle, ev.track, line));
    }
    events.sort_by_key(|e| (e.0, e.1));
    events.into_iter().map(|(_, _, l)| l).collect()
}

/// Renders a postmortem bundle as a human-readable triage report: header,
/// fault chain, machine digest, invariant tallies, escalation ladder, log
/// tail, the merged flight-recorder timeline, and the probable-cause
/// classification. A bundle that does not decode is a usage error.
fn explain(args: &[String]) -> Result<ExitCode, String> {
    let path = match args {
        [p] if !p.starts_with("--") => p.as_str(),
        _ => return Err("explain takes exactly one postmortem bundle path".into()),
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let b = PostmortemBundle::from_json(&text).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "== postmortem: {} case {} — {} ==",
        if b.workload.is_empty() {
            "?"
        } else {
            &b.workload
        },
        b.case,
        b.trigger
    );
    println!("  seed {}  outcome {}", b.seed, b.outcome);
    println!(
        "  fault: {} ({}) on core {}, planned at progress {}, landed at cycle {}",
        b.fault_kind, b.fault_detail, b.fault_core, b.fault_at_progress, b.landing_cycle
    );
    println!("  recovery fault: {}", b.recovery_fault.unwrap_or("none"));
    println!(
        "  machine: {} cycles, {} retired, mem fnv {:#018x}",
        b.cycles, b.final_retired, b.mem_fnv
    );
    // A diverged case whose memory and registers match the reference
    // names the progress condition it failed instead.
    match &b.failed_condition {
        Some(cond) => println!("  divergence: {cond}"),
        None => println!(
            "  divergence: {} mem, {} reg, {} shadow words",
            b.mem_divergence, b.reg_divergence, b.shadow_divergence
        ),
    }
    println!(
        "  log: {} words logged, {} omitted over the case lifetime",
        b.lifetime_logged, b.lifetime_omitted
    );
    if !b.intervals_tail.is_empty() {
        println!(
            "  interval tail (last {}, {} earlier dropped):",
            b.intervals_tail.len(),
            b.intervals_dropped
        );
        for iv in &b.intervals_tail {
            println!(
                "    epoch {:>4}: progress {} records {} omitted {} bytes {} stall {}",
                iv.epoch, iv.progress, iv.records, iv.omitted, iv.bytes, iv.stall_cycles
            );
        }
    }
    println!("  invariants: {} breaches", b.invariants.total_breaches());
    for (name, c) in b.invariants.monitors() {
        println!(
            "    {name:<24} {} checks, {} breaches",
            c.checks, c.breaches
        );
    }
    if let Some(fb) = &b.invariants.first_breach {
        println!(
            "    first breach: {} at epoch {} cycle {}: {}",
            fb.monitor, fb.epoch, fb.cycle, fb.detail
        );
    }
    println!(
        "  escalation: {} recoveries, {} ladder exhaustions",
        b.escalation.len(),
        b.escalation_exhausted
    );
    for s in &b.escalation {
        println!(
            "    detected at cycle {}: safe epoch {}, {} re-replays, \
             {} generation fallbacks, degraded {}",
            s.detected_at_cycles,
            s.safe_epoch,
            s.replay_retries,
            s.generation_fallbacks,
            s.degraded_entered
        );
    }
    if b.rings.is_empty() {
        println!("  timeline: no flight-recorder rings captured");
    } else {
        const SHOW: usize = 80;
        let lines = explain_timeline(&b.rings);
        let dropped: u64 = b.rings.iter().map(|r| r.dropped).sum();
        let skip = lines.len().saturating_sub(SHOW);
        let suffix = if skip > 0 {
            format!(", showing last {SHOW}")
        } else {
            String::new()
        };
        println!(
            "  timeline: {} events retained across {} rings \
             ({dropped} older events dropped){suffix}",
            lines.len(),
            b.rings.len()
        );
        for line in lines.iter().skip(skip) {
            println!("    {line}");
        }
    }
    println!("  probable cause: {}", b.probable_cause);
    if !b.repro.is_empty() {
        println!("  repro: {}", b.repro);
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // One dispatcher, one error path: every subcommand returns
    // `Result<ExitCode, String>`; any `Err` prints a single `error: …`
    // line on stderr and exits 2 (usage/config), while gate failures
    // (inject divergence/abort, diff regression) exit 1 via `Ok`.
    let result = match args.first().map(String::as_str) {
        Some("explain") => explain(&args[1..]),
        Some("workloads") => {
            for b in Benchmark::ALL {
                println!("{}", b.name());
            }
            Ok(ExitCode::SUCCESS)
        }
        Some("help" | "-h" | "--help") | None => {
            print!("{}", usage());
            Ok(ExitCode::SUCCESS)
        }
        Some(name) => match SUBCOMMANDS.iter().find(|c| c.name == name) {
            Some(cmd) => cmd.parse(&args[1..]).and_then(|a| (cmd.run)(&a)),
            None => Err(format!("unknown subcommand `{name}` (try `acr_cli help`)")),
        },
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acr_rng::check::forall;
    use acr_rng::SmallRng;

    fn argv(tokens: &[&str]) -> Vec<String> {
        tokens.iter().map(|t| (*t).to_owned()).collect()
    }

    /// Every subcommand's table is well-formed: its defaults parse through
    /// their own rows, and no flag name or config key is listed twice.
    #[test]
    fn table_is_consistent() {
        for cmd in SUBCOMMANDS {
            let a = cmd.defaults();
            let names: Vec<&str> = cmd.opts().map(|(f, _)| f.name).collect();
            let mut unique = names.clone();
            unique.sort_unstable();
            unique.dedup();
            assert_eq!(unique.len(), names.len(), "{}: duplicate flag", cmd.name);
            let keys: Vec<String> = cmd.config(&a).into_iter().map(|(k, _)| k).collect();
            let mut unique = keys.clone();
            unique.sort_unstable();
            unique.dedup();
            assert_eq!(unique.len(), keys.len(), "{}: duplicate key", cmd.name);
        }
        for (name, _) in FIGURE_TASKS {
            assert!(ONLY.help.contains(name), "--only help misses {name}");
        }
        // Defaults the table spells out that other crates also define.
        assert_eq!(RUN.defaults().seed, WorkloadConfig::default().seed);
        assert_eq!(SOAK.defaults().models, default_models());
        assert_eq!(SOAK.defaults().resilience, default_resilience());
    }

    /// Random argv over the table's flag names plus junk values: every
    /// subcommand's parser answers `Ok` or `Err`, never a panic.
    #[test]
    fn random_argv_never_panics() {
        let names: Vec<&str> = SUBCOMMANDS
            .iter()
            .flat_map(|c| c.opts())
            .map(|(f, _)| f.name)
            .collect();
        let junk = [
            "",
            "0",
            "1",
            "2",
            "65",
            "-1",
            "1.5",
            "0.5",
            "nan",
            "inf",
            "4000000000",
            "18446744073709551616",
            "on",
            "off",
            "tput",
            "acr",
            "baseline",
            "global",
            "local",
            "cg",
            "is,cg",
            "cg,,is",
            "nope",
            "all",
            "mem",
            "200,3",
            "0,0",
            ",",
            "stuck",
            "--",
            "-h",
            "x.json",
            "é",
        ];
        forall("random_argv_never_panics", 3000, 0xac12, |rng| {
            let len = rng.gen_range(0..8usize);
            let tokens: Vec<String> = (0..len)
                .map(|_| {
                    let pool = if rng.gen_bool() {
                        &names[..]
                    } else {
                        &junk[..]
                    };
                    (*rng.choose(pool)).to_owned()
                })
                .collect();
            for cmd in SUBCOMMANDS {
                let _ = cmd.parse(&tokens);
            }
        });
    }

    /// The inputs that used to panic, abort or silently corrupt are
    /// rejected by the table.
    #[test]
    fn out_of_range_values_are_rejected() {
        for (cmd, args) in [
            (&INJECT, ["--threads", "65"]),
            (&TRACE, ["--threads", "100"]),
            (&SOAK, ["--threads", "65"]),
            (&SHRINK, ["--threads", "65"]),
            (&BENCH, ["--threads", "65"]),
            (&RUN, ["--threads", "0"]),
            (&RUN, ["--latency", "1.5"]),
            (&FIGURES, ["--scale", "0"]),
            (&FIGURES, ["--scale", "nan"]),
            (&FIGURES, ["--only", "nosuch"]),
            (&FIGURES, ["--only", "fig10,"]),
        ] {
            // main prints the message as the one `error:` line of exit 2.
            let err = cmd.parse(&argv(&args)).expect_err(cmd.name);
            assert!(!err.contains('\n'), "{} {args:?}: {err}", cmd.name);
        }
        assert!(planned_faults(42, 5, 4, 2).is_err());
        let faults = planned_faults(42, 4, 4, 2).expect("one fault per progress point");
        assert_eq!(faults.len(), 4);
    }

    /// The default `bench` config renders byte-identical to the committed
    /// baseline manifest's — `acr_cli diff` gates on it.
    #[test]
    fn bench_default_config_matches_baseline() {
        let m = Manifest {
            command: "bench".to_owned(),
            config: BENCH.config(&BENCH.defaults()),
            sim_hashes: Vec::new(),
            metrics_digest: 0,
            host: Vec::new(),
            bench: None,
        };
        let config_line = |json: &str| {
            json.lines()
                .find(|l| l.starts_with("\"config\":"))
                .expect("manifests have a config line")
                .to_owned()
        };
        let baseline = include_str!("../../results/BENCH_baseline.json");
        assert_eq!(config_line(&m.to_json()), config_line(baseline));
    }

    /// Traced runs of several workloads come back per workload and
    /// identical for every jobs value: each worker's sink sees only its
    /// own workload's events, and the instrumented binary `profile` labels
    /// its flamegraph regions from does not depend on the worker either.
    #[test]
    fn traced_runs_are_jobs_invariant_per_workload() {
        let a = TRACE
            .parse(&argv(&["--workload", "cg,is", "--scale", "0.02"]))
            .expect("parses");
        let runs = |jobs| {
            sweep(a.workloads.len(), jobs, |i, _| {
                faulted_run(&a, a.workloads[i], Some(false), |spec| spec)
                    .map(|(result, events, instrumented)| (result.cycles, events, instrumented))
                    .expect("runs")
            })
        };
        let seq = runs(1);
        assert_eq!(seq.len(), 2);
        assert_ne!(seq[0].0, seq[1].0, "two workloads, two traces");
        assert_ne!(seq[0].0 .2, seq[1].0 .2, "two workloads, two binaries");
        for jobs in [2, 4] {
            for ((s, _), (p, _)) in seq.iter().zip(runs(jobs)) {
                assert_eq!(s.0, p.0, "jobs={jobs}: cycles");
                assert_eq!(s.1, p.1, "jobs={jobs}: traced events");
                assert_eq!(s.2, p.2, "jobs={jobs}: instrumented binary");
                assert!(!s.1.is_empty(), "tracing was on");
            }
        }
    }

    fn sample(flag: &Flag, rng: &mut SmallRng) -> &'static str {
        let pool: &[&'static str] = match flag.name {
            "--seed" => &["0", "7", "42", "18446744073709551615"],
            "--faults" => &["1", "30", "1000"],
            "--workloads" => &["is", "cg,mg", "is,cg,mg", "ft,dc,lu"],
            "--threads" => &["1", "2", "64"],
            "--scale" => &["0.03", "0.05", "1"],
            "--checkpoints" => &["0", "4", "12"],
            "--latency" => &["0", "0.25", "1"],
            "--kinds" => &[
                "recoverable",
                "mem",
                "reg,pc,mem,burst,stuck",
                "adversarial",
            ],
            "--storm" => &["200,3", "1,1"],
            "--watchdog-budget" => &["0", "400000"],
            "--policy" => &["acr", "baseline"],
            "--scheme" => &["global", "local"],
            "--recovery-faults" => &[""],
            "--generations" => &["1", "3"],
            "--sample-interval" => &["0", "4000"],
            "--chunk" => &["1", "5"],
            "--models" => &["stuck", "classic,recoverable"],
            "--resilience" => &["baseline", "nested,watchdog"],
            "--workload" => &["is", "cg", "bt"],
            "--detail" => &["on", "off"],
            "--case" => &["0", "3"],
            "--max-evals" => &["1", "2048"],
            "--errors" => &["0", "2"],
            "--threshold" => &["5", "10", "50"],
            "--addrmap" => &["64", "1024"],
            "--secondary" => &["2", "4"],
            "--adaptive" | "--oracle" => &[""],
            "--only" => &[
                "fig01",
                "table2,fig10",
                "fig10-csv,ablation-addrmap",
                "fig13,figs06-09,extension-placement",
            ],
            other => panic!("no sample values for {other}"),
        };
        pool[rng.gen_range(0..pool.len())]
    }

    /// Every subcommand's repro line (the one stamped into postmortem
    /// bundles, and the manifest config it is rendered from) parses back
    /// through the same table into identical args.
    #[test]
    fn repro_lines_round_trip() {
        let cmds: Vec<&Subcommand> = SUBCOMMANDS
            .into_iter()
            .filter(|c| c.opts().any(|(f, _)| f.sim.is_some()))
            .collect();
        forall("repro_lines_round_trip", 500, 0x5eed, |rng| {
            let cmd = cmds[rng.gen_range(0..cmds.len())];
            let mut tokens = Vec::new();
            for (flag, _) in cmd.opts().filter(|(f, _)| f.sim.is_some()) {
                if rng.gen_bool() {
                    tokens.push(flag.name.to_owned());
                    if !flag.meta.is_empty() {
                        tokens.push(sample(flag, rng).to_owned());
                    }
                }
            }
            let a = cmd.parse(&tokens).expect("sampled values are valid");
            let line = cmd.repro_line(&a);
            let words: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
            assert_eq!(words[..2], ["acr_cli", cmd.name]);
            assert_eq!(cmd.parse(&words[2..]).expect(&line), a, "{line}");
        });
    }
}
