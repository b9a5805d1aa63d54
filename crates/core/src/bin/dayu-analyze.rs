//! Offline analysis of a persisted DaYu trace — the post-execution half of
//! the toolset: point it at a `trace.dtb` produced by any instrumented
//! run and get the graphs, findings and recommendations.
//!
//! ```text
//! dayu-analyze trace.dtb                   # summary to stdout
//! dayu-analyze trace.dtb --out report/     # + FTG/SDG html/dot/json
//! dayu-analyze trace.dtb --regions 8       # address-region nodes
//! dayu-analyze trace.dtb --aggregate       # collapse parallel task groups
//! dayu-analyze dump trace.dtb              # the trace as JSON Lines, to stdout
//! dayu-analyze check trace.dtb             # dataflow-hazard lint (exit 1 on findings)
//! dayu-analyze check trace.dtb --inputs a.h5,b.h5     # declared external inputs
//! dayu-analyze check trace.dtb --json --deny extent-race --deny use-after-close
//!                                          # CI gate: exit 1 only on denied classes
//! dayu-analyze check trace.dtb --waste     # also report dead datasets / redundant overwrites
//! dayu-analyze check --contracts ddmd      # static contract pass alone: prove/refute the
//!                                          # declared footprints, no trace needed
//! dayu-analyze predict ddmd                # contract-derived sSDG/sFTG + abstract cost
//!                                          # model: per-stage bytes/ops, critical path
//! dayu-analyze predict ddmd --compare run/trace.dtb --deny incomplete-contract
//!                                          # CI gate: recorded SDG must be contained in
//!                                          # the prediction (exit 1 on contract holes)
//! dayu-analyze check trace.dtb --contracts ddmd --deny contract-violation
//!                                          # + replay the trace against the declared
//!                                          # contracts (out-of-footprint I/O, waste)
//! dayu-analyze record ddmd                 # record a built-in workload, analyze it
//! dayu-analyze record ddmd --out run/     # persist as run/trace.dtb
//! dayu-analyze record arldm --chaos-seed 7 --retries 3 --fault-rate 0.05 --out run/
//! dayu-analyze record ddmd --crash-seed 11 --crash-at 40 --durability journal --resume
//!                                          # torn-write crash + journaled recovery resume
//! dayu-analyze record ddmd --bundle run.drb    # + self-contained replay bundle
//! dayu-analyze bundle verify run.drb       # hash-chain check, no re-execution
//! dayu-analyze replay run.drb              # re-execute + diff against the recording
//! dayu-analyze diff a.drb b.drb [--json]   # first divergent event + SDG ancestors
//! dayu-analyze serve --idle-shutdown-ms 60000   # streaming-ingest service (quarantine,
//!                                          # budgets, live per-tenant FTG/SDG)
//! dayu-analyze ingest run/trace.dtb --addr 127.0.0.1:7474   # stream a trace into it
//! ```
//!
//! `record` executes one of the paper's workloads under full
//! instrumentation — optionally under seeded chaos injection with retry,
//! or a seeded torn-write power-loss crash — prints per-task outcomes,
//! audits every surviving file image with fsck, and analyzes whatever
//! trace survived. Exit status:
//!
//! * `0` — every task completed and every file image is fsck-clean
//!   (tasks that resumed from journal recovery still count as clean:
//!   their traces are complete and carry a `Recovered` marker);
//! * `3` — degraded: at least one task exhausted its retries and its
//!   trace is a salvaged fragment, but every surviving image is intact
//!   or repairable (`dayu-h5ls --fsck --repair` can rebuild it);
//! * `4` — unrecoverable corruption: at least one surviving file image
//!   has no valid superblock slot, so no metadata can be trusted and
//!   repair cannot rebuild it.
//!
//! On the failure exits (3/4) `record` automatically emits a replay
//! bundle and prints the exact command line that reproduces the run —
//! same seeds, schedule and durability — so the failure travels as one
//! artifact. `replay` re-executes a bundle and diffs its trace against the
//! recording like `diff` does (exit 0: validated, 5: diverged); `diff`
//! compares two bundles and names the first divergent event plus its SDG
//! causal ancestors (exit 0: identical, 1: diverged).

use dayu_analyzer::{export, resolution, Analysis, BundleDiff, DetectorConfig, SdgOptions};
use dayu_lint::{
    analyze_contracts, analyze_stream, check_conformance_stream, cost_model, fsck_bytes,
    repair_bytes, CostConfig, Finding, LintConfig, StaticPrediction,
};
use dayu_trace::TraceBundle;
use dayu_vfd::MemFs;
use dayu_workflow::{
    record_to_bundle, replay_bundle, RecordOptions, ReplayBundle, RetryPolicy, WorkflowSpec,
    RECORD_FLAGS,
};
use dayu_workloads::{arldm, ddmd, pyflextrkr};
use std::io::{BufReader, BufWriter, Write};
use std::path::PathBuf;
use std::str::FromStr;

mod out;
use out::Out;

fn usage() -> ! {
    eprintln!(
        "usage: dayu-analyze <trace.dtb> [--out DIR] [--regions N] [--aggregate]\n       dayu-analyze dump <trace.dtb>           # the trace as JSON Lines, to stdout\n       dayu-analyze check [<trace.dtb>] [--inputs FILE,FILE,...] [--json]\n                           [--deny CLASS]... [--waste]\n                           [--contracts <ddmd|pyflextrkr|arldm>]\n                           (a trace, --contracts, or both; --contracts alone runs\n                            the static footprint pass, with a trace it also checks\n                            conformance)\n       dayu-analyze predict <ddmd|pyflextrkr|arldm> [--json]\n                           [--compare <trace.dtb>] [--deny CLASS]...\n                           (contract-derived static sSDG/sFTG + abstract cost model;\n                            --compare validates a recorded trace against the prediction,\n                            unpredicted raw edges are incomplete-contract findings)\n       dayu-analyze record <ddmd|pyflextrkr|arldm> [--chaos-seed N] [--retries N]\n                           [--fault-rate P] [--dead-at N] [--crash-seed N] [--crash-at N]\n                           [--durability journal|write-through] [--resume]\n                           [--manual-clock] [--bundle FILE.drb] [--out DIR]\n                           (--fault-rate and --dead-at need --chaos-seed, --crash-at\n                            needs --crash-seed)\n       record exits 0 (clean), 3 (degraded trace), 4 (unrecoverable corruption);\n       on 3/4 a replay bundle is auto-emitted with the reproduction command\n       dayu-analyze bundle verify <run.drb>    # hash-chain check, no re-execution\n       dayu-analyze replay <run.drb>           # re-execute + cross-check (exit 5: diverged)\n       dayu-analyze diff <a.drb> <b.drb> [--json]   # first divergence + SDG ancestors
       dayu-analyze serve [--addr HOST:PORT] [--idle-shutdown-ms N]
                           [--max-tenants N] [--sections-per-sec R]
                           # resilient streaming-ingest service: quarantine,
                           # budgets/backpressure, live per-tenant graphs
       dayu-analyze ingest <trace.dtb> [--addr HOST:PORT] [--tenant NAME]
                           # stream a trace in per-task sections
                           # (digest-framed, deduplicated, retried)"
    );
    std::process::exit(2);
}

/// A usage error that names its reason instead of printing the usage.
fn usage_error(reason: &str) -> ! {
    eprintln!("{reason}");
    std::process::exit(2);
}

/// A subcommand's arguments, read front to back: [`Args::flag`] yields the
/// flags and sets positional arguments aside, [`Args::value`] reads the
/// value of the flag just read. A missing or unparsable value is a usage
/// error, and every subcommand rejects an unknown flag (`-h` included)
/// the same way.
struct Args {
    unread: std::vec::IntoIter<String>,
    positional: Vec<String>,
}

impl Args {
    fn new(args: Vec<String>) -> Self {
        Self {
            unread: args.into_iter(),
            positional: Vec::new(),
        }
    }

    /// The next flag, or `None` once every argument is read.
    fn flag(&mut self) -> Option<String> {
        for arg in self.unread.by_ref() {
            if arg.starts_with('-') {
                return Some(arg);
            }
            self.positional.push(arg);
        }
        None
    }

    /// The value of the flag just read.
    fn value<T: FromStr>(&mut self) -> T {
        self.unread
            .next()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| usage())
    }

    /// The positional arguments; an unread flag is a usage error.
    fn rest(mut self) -> Vec<String> {
        if self.flag().is_some() {
            usage()
        }
        self.positional
    }

    /// Exactly `N` positional arguments, or a usage error.
    fn exactly<const N: usize>(self) -> [String; N] {
        self.rest().try_into().unwrap_or_else(|_| usage())
    }
}

/// `dayu-analyze record`: run a built-in workload under instrumentation
/// (and optionally chaos), report per-task outcomes, analyze the result.
/// The run-shaping flags go through the [`RecordOptions`] codec, which
/// also renders the bundle's params and the reproduction command.
fn record_main(mut args: Args) -> ! {
    let mut out_dir: Option<PathBuf> = None;
    let mut bundle_path: Option<PathBuf> = None;
    let mut run_flags: Vec<String> = Vec::new();
    while let Some(flag) = args.flag() {
        match flag.as_str() {
            "--out" => out_dir = Some(args.value()),
            "--bundle" => bundle_path = Some(args.value()),
            _ => {
                let Some(&(_, valued)) = RECORD_FLAGS.iter().find(|(f, _)| *f == flag) else {
                    usage()
                };
                run_flags.push(flag);
                if valued {
                    run_flags.push(args.value());
                }
            }
        }
    }
    let [workload] = args.exactly();
    let opts = RecordOptions::from_args(&run_flags)
        .unwrap_or_else(|e| usage_error(&format!("dayu-analyze record: {e}")));

    let fs = MemFs::new();
    if workload == "pyflextrkr" {
        pyflextrkr::prepare_inputs_untraced(&fs, &pyflextrkr::PyflextrkrConfig::default())
            .unwrap_or_else(|e| {
                eprintln!("cannot prepare pyflextrkr inputs: {e}");
                std::process::exit(1);
            });
    }
    let spec: WorkflowSpec = workload_spec(&workload);

    // The flag string doubles as the bundle's params field and (with the
    // workload and a bundle path) the exact reproduction command line.
    let flags = opts.to_args().join(" ");
    let params = if flags.is_empty() { "default" } else { &flags };

    let (run, drb) = record_to_bundle(&spec, &fs, &opts, params, env!("CARGO_PKG_VERSION"))
        .unwrap_or_else(|e| {
            eprintln!("record failed: {e}");
            std::process::exit(1);
        });

    let mut out = Out::new("record");
    writeln!(out, "workload {workload}: {} task(s)", run.outcomes.len());
    if let Some(c) = &opts.chaos {
        writeln!(
            out,
            "  chaos seed {:#018x}, retries {}, fault rate {}",
            c.seed, opts.retry.max_attempts, c.read_fault_prob
        );
    }
    if let Some(c) = &opts.crash {
        writeln!(
            out,
            "  crash seed {:#018x} (torn writes), durability {:?}, resume {}",
            c.seed, opts.durability, opts.resume
        );
    }
    writeln!(
        out,
        "  {:<24} {:>8} {:>7} {:>9} {:>9}  error",
        "task", "attempts", "faults", "degraded", "recovered"
    );
    for o in &run.outcomes {
        writeln!(
            out,
            "  {:<24} {:>8} {:>7} {:>9} {:>9}  {}",
            o.task,
            o.attempts,
            o.faults_injected,
            if o.degraded { "yes" } else { "-" },
            if o.recovered() { "yes" } else { "-" },
            o.error.as_deref().unwrap_or("-"),
        );
    }

    // Audit every surviving file image: a degraded run's salvage is only
    // trustworthy if the bytes it points at still parse, and a crashed
    // run must distinguish repairable torn state from total loss.
    let mut unrecoverable: Vec<String> = Vec::new();
    let mut repairable: Vec<String> = Vec::new();
    let mut names = fs.list();
    names.sort();
    for name in &names {
        let Some(bytes) = fs.snapshot(name) else {
            continue;
        };
        // A created-but-never-written file carries no data to audit.
        if bytes.is_empty() || fsck_bytes(&bytes).is_clean() {
            continue;
        }
        let mut scratch = bytes.clone();
        if repair_bytes(&mut scratch).is_clean() {
            repairable.push(name.clone());
        } else {
            unrecoverable.push(name.clone());
        }
    }
    if !repairable.is_empty() || !unrecoverable.is_empty() {
        writeln!(out, "\nfile image audit:");
        for name in &repairable {
            writeln!(
                out,
                "  {name}: corrupt, repairable (dayu-h5ls --fsck --repair)"
            );
        }
        for name in &unrecoverable {
            writeln!(out, "  {name}: UNRECOVERABLE (no valid superblock slot)");
        }
    }

    let analysis = Analysis::run(&run.bundle);
    let recommendations = dayu_advisor::advise(&analysis.findings);
    writeln!(
        out,
        "\nFTG: {} nodes / {} edges;  SDG: {} nodes / {} edges;  findings: {}",
        analysis.ftg.nodes.len(),
        analysis.ftg.edges.len(),
        analysis.sdg.nodes.len(),
        analysis.sdg.edges.len(),
        analysis.findings.len()
    );
    writeln!(out, "\n{}", dayu_advisor::report(&recommendations));

    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).expect("create out dir");
        let f = std::fs::File::create(dir.join("trace.dtb")).expect("create trace file");
        run.bundle.write_binary(f).expect("write trace file");
        // Dump every file image the run left behind (including ones a
        // killed or degraded task only partially wrote) so the format fsck
        // (`dayu-h5ls --fsck`) can audit them offline.
        let mut names = fs.list();
        names.sort();
        for name in names {
            if let Some(bytes) = fs.snapshot(&name) {
                std::fs::write(dir.join(name.replace('/', "_")), bytes).expect("dump image");
            }
        }
        writeln!(out, "trace and file images written to {}/", dir.display());
    }

    let code = if !unrecoverable.is_empty() {
        4
    } else if run.degraded() {
        3
    } else {
        0
    };

    // A failure exit always leaves a bundle behind: the degraded or
    // corrupt run travels as one self-contained, replayable artifact.
    let emit_path = bundle_path.or_else(|| {
        (code != 0).then(|| match &out_dir {
            Some(dir) => dir.join("failure.drb"),
            None => PathBuf::from(format!("{workload}-failure.drb")),
        })
    });
    if let Some(path) = emit_path {
        drb.write_file(&path).unwrap_or_else(|e| {
            eprintln!("cannot write bundle {}: {e}", path.display());
            std::process::exit(1);
        });
        writeln!(out, "\nreplay bundle written to {}", path.display());
        if code != 0 {
            let sep = if flags.is_empty() { "" } else { " " };
            writeln!(
                out,
                "reproduce with:\n  dayu-analyze record {workload}{sep}{flags} --bundle {}",
                path.display()
            );
            writeln!(out, "  dayu-analyze replay {}", path.display());
        }
    }

    out.exit(code);
}

/// Builds a bundled workload's spec, contracts included. The same specs
/// `record` executes, so a recorded trace lines up with the contracts
/// task-for-task.
fn workload_spec(name: &str) -> WorkflowSpec {
    match name {
        "ddmd" => ddmd::workflow(&ddmd::DdmdConfig::default()),
        "pyflextrkr" => pyflextrkr::workflow(&pyflextrkr::PyflextrkrConfig::default()),
        "arldm" => arldm::workflow(&arldm::ArldmConfig::default()),
        other => {
            eprintln!("unknown workload {other:?} (expected ddmd, pyflextrkr or arldm)");
            usage()
        }
    }
}

/// Reads a `.dtb` trace; a missing or unreadable file exits 1.
fn load_bundle(input: &PathBuf) -> TraceBundle {
    let file = std::fs::File::open(input).unwrap_or_else(|e| {
        eprintln!("cannot open {}: {e}", input.display());
        std::process::exit(1);
    });
    TraceBundle::load(BufReader::new(file)).unwrap_or_else(|e| {
        eprintln!("cannot parse {}: {e}", input.display());
        std::process::exit(1);
    })
}

/// `dayu-analyze dump`: prints a `.dtb` trace as JSON Lines, a `Meta`
/// line and then one line per record, the trace's readable export.
fn dump_main(args: Args) -> ! {
    let [input] = args.exactly();
    let bundle = load_bundle(&PathBuf::from(input));
    let mut out = Out::new("dump");
    out.write_with(|w| {
        let mut w = BufWriter::new(w);
        bundle.write_jsonl(&mut w)?;
        w.flush()
    });
    out.exit(0);
}

/// A `--deny` value: a finding class `dayu-lint` knows.
fn deny_class(args: &mut Args) -> String {
    let class: String = args.value();
    if !Finding::categories().contains(&class.as_str()) {
        usage_error(&format!(
            "unknown finding class {class:?}; expected one of: {}",
            Finding::categories().join(", ")
        ));
    }
    class
}

/// `dayu-analyze check`: static dataflow-hazard lint over a recorded
/// `.dtb` trace, streamed record by record (the checker never
/// materializes the bundle, so multi-gigabyte traces lint in bounded
/// memory).
///
/// `--contracts <workload>` adds the symbolic passes: the static
/// footprint analysis always runs (it needs no trace — `check
/// --contracts ddmd` with no input proves or refutes the declared
/// partition by itself), and when a trace is given it is also replayed
/// against the contracts for conformance (out-of-footprint I/O,
/// declared-but-never-touched waste).
///
/// Exit codes, designed for CI gating: 0 — no denied findings; 1 — at
/// least one denied finding (`--deny <class>` restricts which classes
/// fail the run; no `--deny` denies every class); 2 — usage error,
/// including an unknown `--deny` class.
fn check_main(mut args: Args) -> ! {
    let mut cfg = LintConfig::default();
    let mut json = false;
    let mut deny: Vec<String> = Vec::new();
    let mut contracts: Option<String> = None;
    while let Some(flag) = args.flag() {
        match flag.as_str() {
            "--inputs" => {
                let list: String = args.value();
                cfg.external_inputs = Some(
                    list.split(',')
                        .filter(|s| !s.is_empty())
                        .map(str::to_owned)
                        .collect(),
                );
            }
            "--json" => json = true,
            "--waste" => cfg.report_dead_data = true,
            "--contracts" => contracts = Some(args.value()),
            "--deny" => deny.push(deny_class(&mut args)),
            _ => usage(),
        }
    }
    let input = match args.rest().as_slice() {
        [] => None,
        [path] => Some(PathBuf::from(path)),
        _ => usage(),
    };
    let spec = contracts.as_deref().map(workload_spec);
    if input.is_none() && spec.is_none() {
        usage()
    }

    let mut report = dayu_lint::Report::new();
    let mut records = 0u64;
    // Static contract pass: spec + happens-before alone, before any trace.
    if let Some(spec) = &spec {
        report
            .findings
            .extend(analyze_contracts(spec, &cfg).findings);
    }
    if let Some(input) = &input {
        let open = || {
            std::fs::File::open(input).unwrap_or_else(|e| {
                eprintln!("cannot open {}: {e}", input.display());
                std::process::exit(1);
            })
        };
        let (hazards, n) = analyze_stream(BufReader::new(open()), &cfg).unwrap_or_else(|e| {
            eprintln!("cannot parse {}: {e}", input.display());
            std::process::exit(1);
        });
        records = n;
        report.findings.extend(hazards.findings);
        // Conformance: replay the same trace against the declarations.
        if let Some(spec) = &spec {
            let (conf, _) =
                check_conformance_stream(BufReader::new(open()), spec).unwrap_or_else(|e| {
                    eprintln!("cannot parse {}: {e}", input.display());
                    std::process::exit(1);
                });
            report.findings.extend(conf.findings);
        }
    }

    let denied = report.denied(&deny);
    let source = match (&input, &contracts) {
        (Some(p), Some(w)) => format!("{} + contracts:{w}", p.display()),
        (Some(p), None) => p.display().to_string(),
        (None, Some(w)) => format!("contracts:{w} (static only)"),
        (None, None) => unreachable!(),
    };
    let mut out = Out::new("check");
    if json {
        writeln!(out, "{}", report.to_json());
    } else if report.is_clean() {
        writeln!(out, "{source}: no findings ({records} records checked)");
    } else {
        writeln!(
            out,
            "{source}: {} finding(s), {} denied",
            report.len(),
            denied.len()
        );
        for f in &report.findings {
            writeln!(out, "  [{}] {f}", f.category());
        }
    }
    out.exit(if denied.is_empty() { 0 } else { 1 });
}

/// `dayu-analyze predict`: static dataflow prediction — abstract
/// interpretation of the workload's declared contracts builds the sSDG
/// and sFTG without opening a single VFD, and the abstract cost model
/// prices every task, stage and the symbolic critical path.
///
/// `--compare <trace>` additionally builds the *recorded* SDG from a
/// trace of the same workload and checks containment: every recorded
/// raw-data edge must have a static counterpart. A recorded edge the
/// contracts never predict is an `incomplete-contract` finding (a hole in
/// the declaration); a recorded task the spec does not know is a
/// `graph-mismatch`. Exit codes mirror `check`: 0 — no denied findings;
/// 1 — at least one denied finding; 2 — usage error.
fn predict_main(mut args: Args) -> ! {
    let mut compare: Option<PathBuf> = None;
    let mut json = false;
    let mut deny: Vec<String> = Vec::new();
    let cost_cfg = CostConfig::default();
    while let Some(flag) = args.flag() {
        match flag.as_str() {
            "--json" => json = true,
            "--compare" => compare = Some(args.value()),
            "--deny" => deny.push(deny_class(&mut args)),
            _ => usage(),
        }
    }
    let [workload] = args.exactly();
    let spec = workload_spec(&workload);
    let pred = StaticPrediction::from_spec(&spec);
    let costs = cost_model(&pred, &cost_cfg);

    let comparison = compare.as_ref().map(|path| {
        let bundle = load_bundle(path);
        let analysis = Analysis::run(&bundle);
        pred.compare(&analysis.sdg)
    });

    let mut out = Out::new("predict");
    if json {
        writeln!(
            out,
            "{}",
            dayu_lint::prediction_json(
                &workload,
                &costs,
                &pred.flows,
                &pred.live_ranges,
                comparison.as_ref()
            )
        );
    } else {
        let contracted = pred.tasks.iter().filter(|t| t.contracted).count();
        writeln!(
            out,
            "workflow {workload}: {} task(s) over {} stage(s); contracts cover {contracted}/{}",
            pred.tasks.len(),
            pred.stage_names.len(),
            pred.tasks.len()
        );
        writeln!(
            out,
            "sSDG: {} nodes / {} edges;  sFTG: {} nodes / {} edges;  flows: {};  live ranges: {}",
            pred.sdg.nodes.len(),
            pred.sdg.edges.len(),
            pred.ftg.nodes.len(),
            pred.ftg.edges.len(),
            pred.flows.len(),
            pred.live_ranges.len()
        );
        writeln!(
            out,
            "\npredicted cost ({} B requests, {} B cache):",
            cost_cfg.request_bytes, cost_cfg.cache_bytes
        );
        writeln!(
            out,
            "  {:<20} {:>5} {:>12} {:>12} {:>7} {:>12}  heaviest task",
            "stage", "tasks", "read B", "written B", "ops", "working set"
        );
        for s in &costs.stages {
            writeln!(
                out,
                "  {:<20} {:>5} {:>12} {:>12} {:>7} {:>12}{} {} ({} B)",
                s.stage,
                s.tasks,
                s.bytes_read,
                s.bytes_written,
                s.ops,
                s.working_set,
                if s.over_cache { "!" } else { " " },
                s.critical_task,
                s.critical_bytes
            );
        }
        writeln!(
            out,
            "  total: {} B moved in {} predicted op(s)",
            costs.total_bytes, costs.total_ops
        );
        writeln!(
            out,
            "critical path ({} B): {}",
            costs.critical_path_bytes,
            costs.critical_path.join(" -> ")
        );
        if let (Some(c), Some(path)) = (&comparison, &compare) {
            writeln!(
                out,
                "\ncompare vs {}: {} matched, {} missing, {} extra, {} mismatched \
                 (precision {:.2}, recall {:.2})",
                path.display(),
                c.matched,
                c.missing,
                c.extra,
                c.mismatched,
                c.precision(),
                c.recall()
            );
            for f in &c.report.findings {
                writeln!(out, "  [{}] {f}", f.category());
            }
            if c.is_sound() {
                writeln!(
                    out,
                    "  prediction sound: every recorded raw-data edge was predicted"
                );
            }
        }
    }

    let denied = comparison
        .map(|c| c.report.denied(&deny).len())
        .unwrap_or(0);
    out.exit(if denied == 0 { 0 } else { 1 });
}

/// Loads a replay bundle, turning every failure mode — missing file,
/// torn section, hash mismatch, malformed manifest — into a structured
/// one-line error instead of a panic.
fn load_drb(path: &PathBuf) -> ReplayBundle {
    ReplayBundle::read_file(path).unwrap_or_else(|e| {
        eprintln!("cannot load bundle {}: {e}", path.display());
        std::process::exit(1);
    })
}

/// `dayu-analyze bundle verify`: checks the section hash chain without
/// decoding or re-executing anything. Exit 0: intact; 1: rejected (with
/// the offending section named); 2: usage.
fn bundle_main(args: Args) -> ! {
    let [cmd, path] = args.exactly();
    if cmd != "verify" {
        usage();
    }
    let path = PathBuf::from(path);
    let mut out = Out::new("bundle");
    match ReplayBundle::verify_file(&path) {
        Ok(report) => {
            writeln!(out, "{}: bundle intact", path.display());
            for s in &report.sections {
                writeln!(
                    out,
                    "  {:<24} {:>10} bytes  sha256:{}",
                    s.name, s.bytes, s.digest
                );
            }
            writeln!(out, "  chain: {}", report.chain);
            out.exit(0);
        }
        Err(e) => {
            eprintln!("{}: bundle verification failed: {e}", path.display());
            std::process::exit(1);
        }
    }
}

/// `dayu-analyze replay`: re-executes a bundle's workload, diffs the
/// replayed trace against the recording and reports the verdict. Exit 0:
/// validated; 5: diverged or mismatched; 1: bundle unreadable, or a
/// strict run's task failed.
fn replay_main(args: Args) -> ! {
    let [path] = args.exactly();
    let path = PathBuf::from(path);
    let bundle = load_drb(&path);
    let m = &bundle.manifest;
    let mut out = Out::new("replay");
    writeln!(
        out,
        "replaying {} (workload {}, params {:?}, recorded by v{})",
        path.display(),
        m.workload,
        m.params,
        m.tool_version
    );
    let spec = workload_spec(&m.workload);
    let fs = MemFs::new();
    let report = replay_bundle(&bundle, &spec, &fs).unwrap_or_else(|e| {
        eprintln!("replay failed: {e}");
        std::process::exit(1);
    });
    if report.validated() {
        writeln!(
            out,
            "replay validated: {} task(s), {} recorded op(s), zero divergences",
            report.run.outcomes.len(),
            bundle.trace.vfd.len()
        );
        out.exit(0);
    }
    for m in &report.mismatches {
        writeln!(out, "MISMATCH: {m}");
    }
    if !report.diff.is_empty() {
        writeln!(
            out,
            "op streams diverge (run A: the recording, run B: the replay)"
        );
        print_diff(&mut out, &report.diff);
    }
    out.exit(5);
}

/// `dayu-analyze diff`: compares two bundles' recorded operation streams
/// and reports the first divergent event with its causal SDG ancestors.
/// Exit 0: operationally identical; 1: diverged; 2: usage.
fn diff_main(mut args: Args) -> ! {
    let mut json = false;
    while let Some(flag) = args.flag() {
        match flag.as_str() {
            "--json" => json = true,
            _ => usage(),
        }
    }
    let [pa, pb] = args.exactly().map(PathBuf::from);
    let (a, b) = (load_drb(&pa), load_drb(&pb));
    let diff = dayu_analyzer::diff_traces(&a.trace, &b.trace);
    let mut out = Out::new("diff");
    if json {
        writeln!(out, "{}", dayu_trace::json::to_string_pretty(&diff));
        out.exit(i32::from(!diff.is_empty()));
    }
    writeln!(
        out,
        "diff {} ({}) vs {} ({})",
        pa.display(),
        diff.workload_a,
        pb.display(),
        diff.workload_b
    );
    if diff.is_empty() {
        writeln!(out, "  operation streams identical (timestamps ignored)");
        out.exit(0);
    }
    print_diff(&mut out, &diff);
    out.exit(1);
}

/// Prints a non-empty diff: the first divergent event with its causal SDG
/// ancestors, the diverged and one-sided tasks, and the advisor's advice.
fn print_diff(out: &mut Out, diff: &BundleDiff) {
    if let Some(first) = &diff.first {
        writeln!(out, "first divergence: {}", first.detail);
        if !first.ancestors.is_empty() {
            writeln!(
                out,
                "  causal ancestors (SDG walk over run A):\n    tasks:    {}\n    datasets: {}\n    files:    {}",
                first.ancestors.tasks.join(", "),
                first.ancestors.datasets.join(", "),
                first.ancestors.files.join(", ")
            );
        } else {
            writeln!(
                out,
                "  no upstream producers: the cause is local to the task"
            );
        }
    }
    if !diff.diverged_tasks.is_empty() {
        writeln!(out, "diverged tasks: {}", diff.diverged_tasks.join(", "));
    }
    if !diff.only_in_a.is_empty() {
        writeln!(out, "tasks only in run A: {}", diff.only_in_a.join(", "));
    }
    if !diff.only_in_b.is_empty() {
        writeln!(out, "tasks only in run B: {}", diff.only_in_b.join(", "));
    }
    if let Some(finding) = diff.finding() {
        let recs = dayu_advisor::advise(&[finding]);
        if !recs.is_empty() {
            writeln!(out, "\n{}", dayu_advisor::report(&recs));
        }
    }
}

/// `dayu-analyze serve`: run the resilient streaming-ingest service.
/// Workflows stream `.dtb` sections in over TCP; corrupt sections are
/// quarantined, over-budget tenants are shed, and each tenant's live graph
/// stays identical to the batch build of its accepted sections.
fn serve_main(mut args: Args) -> ! {
    let mut addr = "127.0.0.1:7474".to_owned();
    let mut idle_shutdown_ms: Option<u64> = None;
    let mut budgets = dayu_served::Budgets::default();
    while let Some(flag) = args.flag() {
        match flag.as_str() {
            "--addr" => addr = args.value(),
            "--idle-shutdown-ms" => idle_shutdown_ms = Some(args.value()),
            "--max-tenants" => budgets.max_tenants = args.value(),
            "--sections-per-sec" => budgets.sections_per_sec = args.value(),
            _ => usage(),
        }
    }
    let [] = args.exactly();
    let service = std::sync::Arc::new(dayu_served::Served::new(budgets));
    let opts = dayu_served::ServerOptions {
        idle_shutdown: idle_shutdown_ms.map(std::time::Duration::from_millis),
        ..dayu_served::ServerOptions::default()
    };
    let server = match dayu_served::Server::bind(&addr, std::sync::Arc::clone(&service), opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    let mut out = Out::new("serve");
    writeln!(out, "serving on {}", server.local_addr());
    server.wait();
    let findings = service.watchdog();
    for t in service.tenants() {
        if let Some(s) = service.stats(&t) {
            writeln!(
                out,
                "tenant {t}: {} accepted, {} quarantined, {} dropped, {} B retained{}",
                s.accepted,
                s.quarantined,
                s.dropped,
                s.retained_bytes,
                s.degraded
                    .as_deref()
                    .map(|r| format!(" (DEGRADED: {r})"))
                    .unwrap_or_default()
            );
        }
    }
    for f in &findings {
        writeln!(out, "  [{}] {f:?}", f.category());
    }
    out.exit(0);
}

/// `dayu-analyze ingest`: stream a persisted trace into a running serve
/// instance, one section per task, with digest framing and retry.
fn ingest_main(mut args: Args) -> ! {
    let mut addr = "127.0.0.1:7474".to_owned();
    let mut tenant: Option<String> = None;
    while let Some(flag) = args.flag() {
        match flag.as_str() {
            "--addr" => addr = args.value(),
            "--tenant" => tenant = Some(args.value()),
            _ => usage(),
        }
    }
    let [input] = args.exactly();
    let bundle = load_bundle(&PathBuf::from(input));
    let tenant = tenant.unwrap_or_else(|| bundle.meta.workflow.clone());
    // A seed per tenant and process, so clients reconnecting after a
    // service restart back off at different instants.
    let seed = dayu_trace::rng::fnv1a64(&tenant) ^ u64::from(std::process::id());
    let mut client =
        dayu_served::IngestClient::new(addr.clone(), RetryPolicy::default()).with_jitter_seed(seed);
    let sections = bundle.split_per_task();
    let mut out = Out::new("ingest");
    let mut failed = false;
    for (i, section) in sections.iter().enumerate() {
        let bytes = section.to_binary_bytes();
        let mut attempt = 0u32;
        loop {
            match client.ingest(&tenant, &bytes) {
                Ok(dayu_served::IngestStatus::Accepted { records, duplicate }) => {
                    writeln!(
                        out,
                        "section {}/{}: accepted, {records} records{}",
                        i + 1,
                        sections.len(),
                        if duplicate { " (duplicate)" } else { "" }
                    );
                    break;
                }
                Ok(dayu_served::IngestStatus::Throttled { retry_after_ns }) => {
                    attempt += 1;
                    if attempt > 100 {
                        eprintln!("section {}: throttled too long, giving up", i + 1);
                        failed = true;
                        break;
                    }
                    std::thread::sleep(client.throttle_pause(retry_after_ns, attempt));
                }
                Ok(dayu_served::IngestStatus::Quarantined(report)) => {
                    eprintln!("section {}: quarantined: {report}", i + 1);
                    failed = true;
                    break;
                }
                Ok(dayu_served::IngestStatus::Rejected { reason }) => {
                    eprintln!("section {}: rejected: {reason}", i + 1);
                    failed = true;
                    break;
                }
                Err(e) => {
                    eprintln!("section {}: transport failure: {e}", i + 1);
                    failed = true;
                    break;
                }
            }
        }
        if failed {
            break;
        }
    }
    if let Ok(Some(s)) = client.stats(&tenant) {
        writeln!(
            out,
            "tenant {tenant} @ {addr}: {} accepted, {} duplicates, {} quarantined, {} dropped",
            s.accepted, s.duplicates, s.quarantined, s.dropped
        );
    }
    out.exit(i32::from(failed));
}

/// A subcommand: reads its arguments and exits with its status.
type Command = fn(Args) -> !;

/// Every subcommand by name; any other first argument is a trace to
/// analyze.
const COMMANDS: [(&str, Command); 9] = [
    ("dump", dump_main),
    ("check", check_main),
    ("predict", predict_main),
    ("record", record_main),
    ("bundle", bundle_main),
    ("replay", replay_main),
    ("diff", diff_main),
    ("serve", serve_main),
    ("ingest", ingest_main),
];

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let command = raw
        .first()
        .and_then(|c| COMMANDS.iter().find(|(name, _)| name == c));
    if let Some((_, command)) = command {
        command(Args::new(raw[1..].to_vec()));
    }
    let mut args = Args::new(raw);
    let mut out_dir: Option<PathBuf> = None;
    let mut regions: u64 = 0;
    let mut aggregate = false;
    while let Some(flag) = args.flag() {
        match flag.as_str() {
            "--out" => out_dir = Some(args.value()),
            "--regions" => regions = args.value(),
            "--aggregate" => aggregate = true,
            _ => usage(),
        }
    }
    let [input] = args.exactly();
    let bundle = load_bundle(&PathBuf::from(input));

    let opts = SdgOptions {
        include_regions: regions > 0,
        region_count: regions.max(4),
    };
    let analysis = Analysis::run_with(&bundle, &opts, &DetectorConfig::default());
    let recommendations = dayu_advisor::advise(&analysis.findings);

    let mut out = Out::new("dayu-analyze");
    writeln!(out, "workflow {:?}", bundle.meta.workflow);
    writeln!(
        out,
        "  tasks: {}, object records: {}, low-level ops: {}, files: {}",
        bundle.meta.task_order.len(),
        bundle.vol.len(),
        bundle.vfd.len(),
        bundle.files.len()
    );
    let (mut ftg, mut sdg) = (analysis.ftg, analysis.sdg);
    if aggregate {
        ftg = resolution::aggregate(&ftg, &resolution::by_task_prefix);
        sdg = resolution::aggregate(&sdg, &resolution::by_task_prefix);
        writeln!(out, "  (task groups aggregated by numeric-suffix prefix)");
    }
    writeln!(
        out,
        "  FTG: {} nodes / {} edges;  SDG: {} nodes / {} edges",
        ftg.nodes.len(),
        ftg.edges.len(),
        sdg.nodes.len(),
        sdg.edges.len()
    );
    writeln!(out, "\nfindings ({}):", analysis.findings.len());
    for f in &analysis.findings {
        writeln!(out, "  [{}] {f:?}", f.category());
    }
    writeln!(out, "\n{}", dayu_advisor::report(&recommendations));

    if let Some(dir) = out_dir {
        std::fs::create_dir_all(&dir).expect("create out dir");
        for (g, name) in [(&ftg, "ftg"), (&sdg, "sdg")] {
            std::fs::write(dir.join(format!("{name}.dot")), export::to_dot(g)).unwrap();
            std::fs::write(dir.join(format!("{name}.html")), export::to_html(g)).unwrap();
            std::fs::write(dir.join(format!("{name}.json")), export::to_json(g)).unwrap();
        }
        writeln!(out, "graphs written to {}/", dir.display());
    }
    out.exit(0);
}
