//! End-to-end pipeline benchmark: **record → save → load → analyze**.
//!
//! The other benches time one subsystem each; this one walks a trace through
//! the whole life cycle the way a real deployment does, through the `.dtb`
//! format, and emits a machine-readable `BENCH_pipeline.json` that the CI
//! perf job tracks over time. Workloads:
//!
//! * **corner-case ×N** — the many-small-datasets worst case of Fig. 9c/d,
//!   scaled up by a read multiplier so the VFD trace dominates;
//! * **ddmd** — the DeepDriveMD pipeline recorded through the workflow
//!   runner, a VOL-heavy trace with many tasks and files.
//!
//! For every workload the report carries record throughput (ops/sec), and
//! the `.dtb` save time, load time, size and bytes/record.
//!
//! At full scale the report also climbs the **ddmd ladder**: ddmd recorded
//! at 3, 30 and 100 iterations, saved as `.dtb` and reloaded, with each
//! rung's record count, its `.dtb` encode, decode and `Analysis::run`
//! costs per record, the process's peak RSS after them, and the cost per
//! record of absorbing the rung's per-task sections into a fresh
//! `PartialGraph`, as the ingest service does. Analysis must stay linear:
//! the cost per record at the top rung may be at most
//! [`LADDER_RATIO_CEILING`] times the bottom rung's, timed in paired
//! rounds ([`LADDER_GATE_ROUNDS`]).
//!
//! ```text
//! cargo run --release -p dayu-bench -- pipeline [--smoke] [--check] [--out PATH]
//! ```

use crate::{min_filling, Report, Scale};
use dayu_analyzer::{build_ftg, build_sdg, Analysis, PartialGraph, SdgOptions};
use dayu_trace::TraceBundle;
use dayu_vfd::MemFs;
use dayu_workflow::record;
use dayu_workloads::ddmd::{self, DdmdConfig};
use dayu_workloads::{corner_case, Backend, Instrumentation};
use std::time::{Duration, Instant};

/// Pipeline benchmark parameters.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Run size.
    pub scale: Scale,
    /// Corner-case read multiplier (the ×N of the issue): `dataset_reads`
    /// is `base × n` so the VFD record count grows linearly.
    pub corner_multiplier: usize,
}

impl PipelineConfig {
    /// The run at `scale`: corner-case ×2 for smoke, ×8 for full.
    pub fn new(scale: Scale) -> Self {
        let corner_multiplier = match scale {
            Scale::Quick => 2,
            Scale::Full => 8,
        };
        Self {
            scale,
            corner_multiplier,
        }
    }
}

/// `.dtb` timings over one workload's bundle.
#[derive(Clone, Copy, Debug)]
pub struct FormatTimings {
    /// Serialize into an in-memory buffer, nanoseconds.
    pub save_ns: u64,
    /// Deserialize back from that buffer, nanoseconds.
    pub load_ns: u64,
    /// Encoded size in bytes.
    pub bytes: u64,
}

impl FormatTimings {
    fn measure(bundle: &TraceBundle) -> (Self, TraceBundle) {
        let mut buf = Vec::with_capacity(1 << 20);
        let t0 = Instant::now();
        bundle.write_binary(&mut buf).expect("save");
        let save_ns = t0.elapsed().as_nanos() as u64;
        let t0 = Instant::now();
        let reloaded = TraceBundle::load(&buf[..]).expect("load");
        let load_ns = t0.elapsed().as_nanos() as u64;
        assert_eq!(
            &reloaded, bundle,
            "the round trip must be lossless before it is worth timing"
        );
        (
            Self {
                save_ns,
                load_ns,
                bytes: buf.len() as u64,
            },
            reloaded,
        )
    }
}

/// One workload's trip through the pipeline.
#[derive(Clone, Debug)]
pub struct WorkloadReport {
    /// Workload id, e.g. `"corner_case_x8"`.
    pub name: String,
    /// Total trace records (VFD + VOL + file).
    pub records: u64,
    /// Wall time of the record phase, nanoseconds.
    pub record_ns: u64,
    /// Binary (`.dtb`) persistence timings.
    pub binary: FormatTimings,
    /// FTG build, nanoseconds.
    pub ftg_ns: u64,
    /// SDG build (with regions), nanoseconds.
    pub sdg_ns: u64,
    /// Full `Analysis::run` (graphs + detectors), nanoseconds.
    pub analysis_ns: u64,
}

impl WorkloadReport {
    fn from_bundle(name: String, bundle: TraceBundle, record_ns: u64) -> Self {
        let records = records(&bundle) as u64;
        let (binary, reloaded) = FormatTimings::measure(&bundle);

        // Analyze the *reloaded* bundle: that is what a consumer holds.
        let t0 = Instant::now();
        let _ftg = build_ftg(&reloaded);
        let ftg_ns = t0.elapsed().as_nanos() as u64;
        let opts = SdgOptions {
            include_regions: true,
            region_count: 4,
        };
        let t0 = Instant::now();
        let _sdg = build_sdg(&reloaded, &opts);
        let sdg_ns = t0.elapsed().as_nanos() as u64;
        let t0 = Instant::now();
        let _analysis = Analysis::run(&reloaded);
        let analysis_ns = t0.elapsed().as_nanos() as u64;

        Self {
            name,
            records,
            record_ns,
            binary,
            ftg_ns,
            sdg_ns,
            analysis_ns,
        }
    }

    /// Trace records produced per second of record-phase wall time.
    pub fn record_ops_per_sec(&self) -> f64 {
        if self.record_ns == 0 {
            0.0
        } else {
            self.records as f64 * 1e9 / self.record_ns as f64
        }
    }

    fn add_to(&self, r: &mut Report) {
        let n = |m: &str| format!("{}.{m}", self.name);
        r.metric(n("records"), self.records as f64, "records");
        r.metric(n("record_ns"), self.record_ns as f64, "ns");
        r.metric(n("record_ops_per_sec"), self.record_ops_per_sec(), "ops/s");
        let t = &self.binary;
        let b = |m: &str| n(&format!("binary.{m}"));
        r.metric(b("save_ns"), t.save_ns as f64, "ns");
        r.metric(b("load_ns"), t.load_ns as f64, "ns");
        r.metric(b("bytes"), t.bytes as f64, "B");
        let per_record = t.bytes as f64 / self.records.max(1) as f64;
        r.metric(b("bytes_per_record"), per_record, "B");
        r.metric(n("ftg_ns"), self.ftg_ns as f64, "ns");
        r.metric(n("sdg_ns"), self.sdg_ns as f64, "ns");
        r.metric(n("analysis_ns"), self.analysis_ns as f64, "ns");
    }
}

fn corner_case_bundle(cfg: &PipelineConfig) -> (String, TraceBundle, u64) {
    let (base, name) = match cfg.scale {
        Scale::Quick => (
            corner_case::CornerCaseConfig {
                datasets: 20,
                file_bytes: 64 << 10,
                dataset_reads: 100,
            },
            format!("corner_case_x{}", cfg.corner_multiplier),
        ),
        Scale::Full => (
            corner_case::CornerCaseConfig::default(),
            format!("corner_case_x{}", cfg.corner_multiplier),
        ),
    };
    let scaled = corner_case::CornerCaseConfig {
        dataset_reads: base.dataset_reads * cfg.corner_multiplier,
        ..base
    };
    let run = corner_case::run(&scaled, Backend::mem(), Instrumentation::Full).expect("workload");
    let bundle = run.bundle.expect("instrumented run carries a bundle");
    (name, bundle, run.wall_ns)
}

fn ddmd_bundle(cfg: &PipelineConfig) -> (String, TraceBundle, u64) {
    let dcfg = match cfg.scale {
        Scale::Quick => DdmdConfig {
            sim_tasks: 4,
            epochs: 3,
            reread_epochs: vec![3],
            ..Default::default()
        },
        Scale::Full => DdmdConfig {
            iterations: 3,
            ..Default::default()
        },
    };
    let fs = MemFs::new();
    let t0 = Instant::now();
    let run = record(&ddmd::workflow(&dcfg), &fs).expect("record ddmd");
    let record_ns = t0.elapsed().as_nanos() as u64;
    ("ddmd".to_string(), run.bundle, record_ns)
}

/// ddmd iteration counts of the full-scale ladder, ascending, so the
/// process's peak RSS after a rung is that rung's own.
pub const LADDER_ITERATIONS: [usize; 3] = [3, 30, 100];

/// Ceiling on the top rung's `Analysis::run` cost per record over the
/// bottom rung's.
pub const LADDER_RATIO_CEILING: f64 = 3.0;

/// Each rung's timing is the fastest of at least [`LADDER_MIN_RUNS`] runs
/// that take at least this long together, so the bottom rung's
/// millisecond-long analysis is timed about a hundred times and one
/// preempted run cannot set its row.
pub const LADDER_MIN_TIME: Duration = Duration::from_millis(100);

/// Fewest runs behind each rung's timing.
pub const LADDER_MIN_RUNS: usize = 3;

/// Paired rounds behind the linearity gate. Each round times the bottom
/// rung's `Analysis::run` back to back as often as it takes to cover the
/// top rung's records, then the top rung's once, so the two halves see
/// the same machine load; the gate reads the median round. A ratio of
/// two rows, timed seconds apart, swung with the load of a busy machine
/// even when each row was the fastest of a hundred runs.
pub const LADDER_GATE_ROUNDS: usize = 7;

/// The ddmd ladder's measurements.
#[derive(Clone, Debug, Default)]
pub struct Ladder {
    /// One rung per iteration count, ascending.
    pub rungs: Vec<LadderRung>,
    /// The top rung's `Analysis::run` cost per record over the bottom
    /// rung's, in [`LADDER_GATE_ROUNDS`] paired rounds (`None` with fewer
    /// than two rungs).
    pub analysis_ratio: Option<f64>,
}

/// One rung of the ddmd ladder.
#[derive(Clone, Debug)]
pub struct LadderRung {
    /// ddmd iterations recorded.
    pub iterations: usize,
    /// Total trace records (VFD + VOL + file).
    pub records: u64,
    /// Fastest `to_binary_bytes` of the recorded bundle, nanoseconds.
    pub encode_ns: u64,
    /// Fastest `TraceBundle::load` of its `.dtb`, nanoseconds.
    pub decode_ns: u64,
    /// Fastest `Analysis::run` over the reloaded bundle, nanoseconds.
    pub analysis_ns: u64,
    /// Fastest absorb of the reloaded bundle's `split_per_task` sections
    /// into a fresh `PartialGraph`, nanoseconds.
    pub absorb_ns: u64,
    /// Peak resident set of the process after the analysis and before the
    /// absorb, MiB (`None` where the platform does not report it).
    pub peak_rss_mb: Option<f64>,
}

/// Records ddmd at each of `iterations`, saves and reloads the trace in
/// the binary format only, and times the encode, the decode, the analysis
/// and the absorb of its per-task sections, each by [`min_filling`] over
/// [`LADDER_MIN_RUNS`] and [`LADDER_MIN_TIME`]; then the gate's paired
/// rounds on the bottom and top rungs.
pub fn ddmd_ladder(iterations: &[usize]) -> Ladder {
    let mut ladder = Ladder::default();
    let mut bottom_dtb = None;
    for (i, &n) in iterations.iter().enumerate() {
        let dcfg = DdmdConfig {
            iterations: n,
            ..Default::default()
        };
        let recorded = record(&ddmd::workflow(&dcfg), &MemFs::new())
            .expect("record ddmd")
            .bundle;
        let (encode_ns, dtb) = min_filling(LADDER_MIN_RUNS, LADDER_MIN_TIME, || {
            recorded.to_binary_bytes()
        });
        drop(recorded);
        let (decode_ns, bundle) = min_filling(LADDER_MIN_RUNS, LADDER_MIN_TIME, || {
            TraceBundle::load(&dtb[..]).expect("load")
        });
        let (analysis_ns, _) =
            min_filling(LADDER_MIN_RUNS, LADDER_MIN_TIME, || Analysis::run(&bundle));
        let peak_rss_mb = peak_rss_mb();
        let sections = bundle.split_per_task();
        let (absorb_ns, _) = min_filling(LADDER_MIN_RUNS, LADDER_MIN_TIME, || {
            let mut pg = PartialGraph::new();
            for s in &sections {
                pg.absorb(s);
            }
            pg
        });
        ladder.rungs.push(LadderRung {
            iterations: n,
            records: records(&bundle) as u64,
            encode_ns,
            decode_ns,
            analysis_ns,
            absorb_ns,
            peak_rss_mb,
        });
        match &bottom_dtb {
            None => bottom_dtb = Some(dtb),
            Some(bottom) if i + 1 == iterations.len() => {
                let bottom = TraceBundle::load(&bottom[..]).expect("load");
                ladder.analysis_ratio = Some(paired_ratio(&bottom, &bundle));
            }
            Some(_) => {}
        }
    }
    ladder
}

/// Trace records (VFD + VOL + file) in `b`.
fn records(b: &TraceBundle) -> usize {
    b.vfd.len() + b.vol.len() + b.files.len()
}

/// The median over [`LADDER_GATE_ROUNDS`] paired rounds of `top`'s
/// `Analysis::run` cost per record over `bottom`'s.
fn paired_ratio(bottom: &TraceBundle, top: &TraceBundle) -> f64 {
    let repeats = (records(top) / records(bottom).max(1)).max(1);
    let ns_per_record = |b: &TraceBundle, runs: usize| {
        let t0 = Instant::now();
        for _ in 0..runs {
            drop(Analysis::run(b));
        }
        t0.elapsed().as_nanos() as f64 / (runs * records(b).max(1)) as f64
    };
    let mut ratios: Vec<f64> = (0..LADDER_GATE_ROUNDS)
        .map(|_| {
            let low = ns_per_record(bottom, repeats);
            ns_per_record(top, 1) / low
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    ratios[ratios.len() / 2]
}

/// `VmHWM` (peak resident set) of this process, MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Adds the ladder's rows, and with two rungs or more the linearity gate.
fn add_ladder(r: &mut Report, ladder: &Ladder) {
    for rung in &ladder.rungs {
        let n = |m: &str| format!("ddmd_ladder.i{}.{m}", rung.iterations);
        let per_record = |ns: u64| ns as f64 / rung.records.max(1) as f64;
        r.metric(n("records"), rung.records as f64, "records");
        r.metric(n("encode_ns_per_record"), per_record(rung.encode_ns), "ns");
        r.metric(n("decode_ns_per_record"), per_record(rung.decode_ns), "ns");
        r.metric(
            n("analysis_ns_per_record"),
            per_record(rung.analysis_ns),
            "ns",
        );
        r.metric(n("absorb_ns_per_record"), per_record(rung.absorb_ns), "ns");
        if let Some(mb) = rung.peak_rss_mb {
            r.metric(n("peak_rss_mb"), mb, "MiB");
        }
    }
    if let Some(ratio) = ladder.analysis_ratio {
        r.ceiling(
            "ddmd_ladder.analysis_per_record_ratio",
            ratio,
            "x",
            LADDER_RATIO_CEILING,
        );
    }
}

/// Runs the full pipeline benchmark and returns per-workload reports.
pub fn run(cfg: &PipelineConfig) -> Vec<WorkloadReport> {
    let mut out = Vec::new();
    for (name, bundle, record_ns) in [corner_case_bundle(cfg), ddmd_bundle(cfg)] {
        out.push(WorkloadReport::from_bundle(name, bundle, record_ns));
    }
    out
}

/// The `pipeline` report: per workload, record throughput, the `.dtb`
/// save and load, and the analysis phases.
pub fn report(cfg: &PipelineConfig, workloads: &[WorkloadReport]) -> Report {
    let mut r = Report::new("pipeline", cfg.scale);
    for w in workloads {
        w.add_to(&mut r);
    }
    r
}

/// Runs the suite at `scale` and reports it. The ladder (full scale only)
/// runs first, so no larger workload has raised the peak RSS it reads.
pub fn bench(scale: Scale) -> Report {
    let cfg = PipelineConfig::new(scale);
    let ladder = match scale {
        Scale::Quick => Ladder::default(),
        Scale::Full => ddmd_ladder(&LADDER_ITERATIONS),
    };
    let mut r = report(&cfg, &run(&cfg));
    add_ladder(&mut r, &ladder);
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{assert_gated, failing};

    #[test]
    fn smoke_run_produces_both_workloads() {
        let cfg = PipelineConfig::new(Scale::Quick);
        let reports = run(&cfg);
        assert_eq!(reports.len(), 2);
        for r in &reports {
            assert!(r.records > 0, "{} recorded nothing", r.name);
            assert!(r.binary.bytes > 0);
        }
        let doc = report(&cfg, &reports);
        assert_eq!(doc.mode, "smoke");
        for w in ["corner_case_x2", "ddmd"] {
            assert!(doc
                .metrics
                .contains_key(&format!("{w}.binary.bytes_per_record")));
        }
        assert!(doc.failures().is_empty(), "{:?}", doc.failures());
    }

    #[test]
    fn ladder_rows_and_linearity_gate() {
        let ladder = ddmd_ladder(&[1, 2]);
        let rungs = &ladder.rungs;
        assert!(rungs[0].records > 0 && rungs[1].records > rungs[0].records);
        let mut r = Report::new("pipeline", Scale::Full);
        add_ladder(&mut r, &ladder);
        for m in [
            "records",
            "encode_ns_per_record",
            "decode_ns_per_record",
            "analysis_ns_per_record",
            "absorb_ns_per_record",
        ] {
            assert!(r.metrics.contains_key(&format!("ddmd_ladder.i2.{m}")));
        }
        assert_gated(&r, &["ddmd_ladder.analysis_per_record_ratio"]);

        let gate = |analysis_ratio| {
            let mut r = Report::new("pipeline", Scale::Full);
            let ladder = Ladder {
                rungs: Vec::new(),
                analysis_ratio,
            };
            add_ladder(&mut r, &ladder);
            r
        };
        assert!(gate(Some(3.0)).failures().is_empty());
        assert_eq!(
            failing(&gate(Some(3.001))),
            ["ddmd_ladder.analysis_per_record_ratio"]
        );
        assert!(!gate(None)
            .metrics
            .contains_key("ddmd_ladder.analysis_per_record_ratio"));
    }
}
