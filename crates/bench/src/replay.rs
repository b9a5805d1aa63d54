//! Replay-bundle benchmark: **record → pack → verify → unpack → replay**.
//!
//! The replay engine earns its keep only if checking a run costs little
//! more than recording it: a failed CI job re-runs under validation
//! by default, so the overhead must stay in the noise. This bench times,
//! per workload:
//!
//! * plain recording (the baseline everything is measured against);
//! * packing the run into a `.drb` artifact, and the artifact's size;
//! * hash-chain verification and full unpacking of that artifact;
//! * a validated replay ([`replay_bundle`]) of the bundle.
//!
//! The gate holds every replay to zero divergences and validated replay
//! to at most **25%** more wall time than plain recording. Each phase is
//! run [`ReplayConfig::repeats`] times and the *minimum* is kept, so
//! scheduler noise does not fail CI. Plain recording and validated replay,
//! the two sides of the gated ratio, run in alternating pairs, so a drift
//! in machine speed slows both sides alike, and the pairs go on until they
//! have also taken [`REPLAY_MIN_TIME`] together: a smoke-scale record
//! takes well under a millisecond, too short for a handful of runs to
//! find its floor.
//!
//! ```text
//! cargo run --release -p dayu-bench -- replay [--smoke] [--check] [--out PATH]
//! ```

use crate::{min_over, throughput, Report, Scale};
use dayu_vfd::MemFs;
use dayu_workflow::{record_opts, record_to_bundle, replay_bundle, RecordOptions, ReplayBundle};
use dayu_workloads::arldm::{self, ArldmConfig};
use dayu_workloads::ddmd::{self, DdmdConfig};
use std::time::{Duration, Instant};

/// Replay benchmark parameters.
#[derive(Clone, Debug)]
pub struct ReplayConfig {
    /// Run size.
    pub scale: Scale,
    /// Times each phase is repeated; the minimum wall time is reported.
    pub repeats: usize,
}

impl ReplayConfig {
    /// The run at `scale`: 3 repeats for smoke, 5 for full.
    pub fn new(scale: Scale) -> Self {
        let repeats = match scale {
            Scale::Quick => 3,
            Scale::Full => 5,
        };
        Self { scale, repeats }
    }
}

/// The replay-overhead budget the gate enforces.
pub const MAX_REPLAY_OVERHEAD: f64 = 0.25;

/// Least time the alternating record/replay pairs behind the gate take
/// together, whatever [`ReplayConfig::repeats`] says.
pub const REPLAY_MIN_TIME: Duration = Duration::from_millis(100);

/// One workload's trip through record → pack → verify → unpack → replay.
#[derive(Clone, Debug)]
pub struct ReplayReportRow {
    /// Workload id, e.g. `"ddmd"`.
    pub name: String,
    /// VFD records in the recorded trace (the op stream the replay checks).
    pub vfd_records: u64,
    /// Plain record wall time, nanoseconds (min over repeats).
    pub record_ns: u64,
    /// Validated replay wall time, nanoseconds (min over repeats).
    pub replay_ns: u64,
    /// `.drb` artifact size in bytes.
    pub bundle_bytes: u64,
    /// Pack (serialize + hash) wall time, nanoseconds (min over repeats).
    pub pack_ns: u64,
    /// Hash-chain verification wall time, nanoseconds (min over repeats).
    pub verify_ns: u64,
    /// Full unpack (parse + decode) wall time, nanoseconds (min over repeats).
    pub unpack_ns: u64,
    /// Whether every replay validated with zero divergences.
    pub validated: bool,
}

impl ReplayReportRow {
    /// Fractional extra wall time of a validated replay over a plain
    /// record: `0.0` means free, `0.25` means a quarter slower.
    pub fn replay_overhead(&self) -> f64 {
        if self.record_ns == 0 {
            return 0.0;
        }
        (self.replay_ns as f64 - self.record_ns as f64).max(0.0) / self.record_ns as f64
    }

    /// Pack throughput, bytes per second.
    pub fn pack_bytes_per_sec(&self) -> f64 {
        throughput(self.bundle_bytes, self.pack_ns)
    }

    /// Unpack throughput, bytes per second.
    pub fn unpack_bytes_per_sec(&self) -> f64 {
        throughput(self.bundle_bytes, self.unpack_ns)
    }
}

fn workloads(cfg: &ReplayConfig) -> Vec<(String, dayu_workflow::WorkflowSpec)> {
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
    let acfg = match cfg.scale {
        Scale::Quick => ArldmConfig {
            stories: 16,
            mean_image_bytes: 4 << 10,
            mean_text_bytes: 256,
            chunk_elems: 8,
            batch: 4,
            ..Default::default()
        },
        Scale::Full => ArldmConfig::default(),
    };
    vec![
        ("ddmd".to_string(), ddmd::workflow(&dcfg)),
        ("arldm".to_string(), arldm::workflow(&acfg)),
    ]
}

/// Times `a` and `b` in alternating pairs, at least `repeats` pairs and
/// until the pairs have taken `min_time` together, and returns each
/// side's minimum. Alternating keeps a drift in machine speed from
/// landing on one side of the ratio the gate checks.
fn min_over_pairs<A, B>(
    repeats: usize,
    min_time: Duration,
    mut a: impl FnMut() -> A,
    mut b: impl FnMut() -> B,
) -> (u64, u64) {
    let start = Instant::now();
    let (mut best_a, mut best_b) = (u64::MAX, u64::MAX);
    let mut pairs = 0;
    while pairs < repeats.max(1) || start.elapsed() < min_time {
        pairs += 1;
        // Results drop after the clock stops, as in `min_over`.
        let t0 = Instant::now();
        let ra = a();
        best_a = best_a.min(t0.elapsed().as_nanos() as u64);
        drop(ra);
        let t0 = Instant::now();
        let rb = b();
        best_b = best_b.min(t0.elapsed().as_nanos() as u64);
        drop(rb);
    }
    (best_a, best_b)
}

fn bench_workload(
    name: String,
    spec: &dayu_workflow::WorkflowSpec,
    cfg: &ReplayConfig,
) -> ReplayReportRow {
    let opts = RecordOptions::default();

    // The bundle everything downstream consumes.
    let fs = MemFs::new();
    let (run, bundle) =
        record_to_bundle(spec, &fs, &opts, "bench", "dayu-bench").expect("record to bundle");
    let vfd_records = run.bundle.vfd.len() as u64;

    let (pack_ns, bytes) = min_over(cfg.repeats, || bundle.to_bytes());
    let bundle_bytes = bytes.len() as u64;
    let (verify_ns, _) = min_over(cfg.repeats, || {
        ReplayBundle::verify_bytes(&bytes).expect("fresh bundle verifies")
    });
    let (unpack_ns, unpacked) = min_over(cfg.repeats, || {
        ReplayBundle::from_bytes(&bytes).expect("fresh bundle parses")
    });

    // Plain recording (no bundle) against validated replay (re-execution,
    // then a diff of its trace against the recording), in pairs.
    let mut validated = true;
    let (record_ns, replay_ns) = min_over_pairs(
        cfg.repeats,
        REPLAY_MIN_TIME,
        || {
            let fs = MemFs::new();
            record_opts(spec, &fs, &opts).expect("plain record")
        },
        || {
            let fs = MemFs::new();
            let report = replay_bundle(&unpacked, spec, &fs).expect("replay");
            validated &= report.validated();
            report
        },
    );

    ReplayReportRow {
        name,
        vfd_records,
        record_ns,
        replay_ns,
        bundle_bytes,
        pack_ns,
        verify_ns,
        unpack_ns,
        validated,
    }
}

/// Runs the replay benchmark and returns per-workload reports.
pub fn run(cfg: &ReplayConfig) -> Vec<ReplayReportRow> {
    workloads(cfg)
        .into_iter()
        .map(|(name, spec)| bench_workload(name, &spec, cfg))
        .collect()
}

/// The `replay` report: per workload, every replay must validate with
/// zero divergences and cost at most [`MAX_REPLAY_OVERHEAD`] more than a
/// plain record, and the bundle must be non-empty and timed.
pub fn report(cfg: &ReplayConfig, rows: &[ReplayReportRow]) -> Report {
    let mut r = Report::new("replay", cfg.scale);
    for row in rows {
        let n = |m: &str| format!("{}.{m}", row.name);
        r.metric(n("vfd_records"), row.vfd_records as f64, "records");
        r.metric(n("record_ns"), row.record_ns as f64, "ns");
        r.metric(n("replay_ns"), row.replay_ns as f64, "ns");
        let overhead = row.replay_overhead();
        r.ceiling(n("replay_overhead"), overhead, "ratio", MAX_REPLAY_OVERHEAD);
        let validated = f64::from(u8::from(row.validated));
        r.floor(n("validated"), validated, "bool", 1.0);
        r.floor(n("bundle_bytes"), row.bundle_bytes as f64, "B", 1.0);
        r.metric(n("pack_ns"), row.pack_ns as f64, "ns");
        r.metric(n("verify_ns"), row.verify_ns as f64, "ns");
        r.metric(n("unpack_ns"), row.unpack_ns as f64, "ns");
        let timed = (row.pack_ns + row.unpack_ns) as f64;
        r.floor(n("pack_unpack_ns"), timed, "ns", 1.0);
        r.metric(n("pack_bytes_per_sec"), row.pack_bytes_per_sec(), "B/s");
        r.metric(n("unpack_bytes_per_sec"), row.unpack_bytes_per_sec(), "B/s");
    }
    r
}

/// Runs the suite at `scale` and reports it.
pub fn bench(scale: Scale) -> Report {
    let cfg = ReplayConfig::new(scale);
    report(&cfg, &run(&cfg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{assert_gated, failing};

    #[test]
    fn smoke_run_replays_validated() {
        let cfg = ReplayConfig::new(Scale::Quick);
        let reports = run(&cfg);
        assert_eq!(reports.len(), 2);
        for r in &reports {
            assert!(r.vfd_records > 0, "{} recorded nothing", r.name);
            assert!(r.validated, "{} replay did not validate", r.name);
            assert!(r.bundle_bytes > 0);
        }
        let doc = report(&cfg, &reports);
        for w in ["ddmd", "arldm"] {
            let gated = [
                "validated",
                "replay_overhead",
                "bundle_bytes",
                "pack_unpack_ns",
            ];
            assert_gated(&doc, &gated.map(|m| format!("{w}.{m}")));
        }
    }

    #[test]
    fn gated_sides_run_in_alternating_pairs() {
        let order = std::cell::RefCell::new(String::new());
        let (a_ns, b_ns) = min_over_pairs(
            3,
            Duration::ZERO,
            || order.borrow_mut().push('a'),
            || order.borrow_mut().push('b'),
        );
        assert_eq!(order.into_inner(), "ababab");
        assert!(a_ns < u64::MAX && b_ns < u64::MAX);

        // Three pairs take about 3 ms here; pairs go on, still
        // alternating, until the minimum time is filled.
        let min_time = Duration::from_millis(20);
        let order = std::cell::RefCell::new(String::new());
        let t0 = Instant::now();
        min_over_pairs(
            3,
            min_time,
            || {
                order.borrow_mut().push('a');
                std::thread::sleep(Duration::from_millis(1));
            },
            || order.borrow_mut().push('b'),
        );
        assert!(t0.elapsed() >= min_time);
        let order = order.into_inner();
        let pairs = order.len() / 2;
        assert!(pairs >= 3, "{order}");
        assert_eq!(order, "ab".repeat(pairs));
    }

    #[test]
    fn check_gate_flags_divergence_and_overhead() {
        let cfg = ReplayConfig::new(Scale::Quick);
        let ok = ReplayReportRow {
            name: "ok".into(),
            vfd_records: 10,
            record_ns: 1_000,
            replay_ns: 1_100,
            bundle_bytes: 64,
            pack_ns: 10,
            verify_ns: 10,
            unpack_ns: 10,
            validated: true,
        };
        assert!(report(&cfg, std::slice::from_ref(&ok))
            .failures()
            .is_empty());
        let alone = |edit: fn(&mut ReplayReportRow), name: &str| {
            let mut row = ok.clone();
            edit(&mut row);
            assert_eq!(failing(&report(&cfg, &[row])), [name]);
        };
        alone(|r| r.validated = false, "ok.validated");
        alone(|r| r.replay_ns = 2_000, "ok.replay_overhead");
        alone(|r| r.bundle_bytes = 0, "ok.bundle_bytes");
        alone(
            |r| {
                r.pack_ns = 0;
                r.unpack_ns = 0;
            },
            "ok.pack_unpack_ns",
        );
        let at_budget = ReplayReportRow {
            replay_ns: 1_250,
            ..ok
        };
        assert!(report(&cfg, &[at_budget]).failures().is_empty());
    }
}
