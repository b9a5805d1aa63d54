//! Fig. 10 — breakdown of the mapper's own execution time.
//!
//! * **10a** — under h5bench (large sequential I/O): the paper measures
//!   38.83 ms of mapper time (0.008% of the run), dominated by the
//!   Characteristic Mapper;
//! * **10b** — under the corner case (object churn): 813.74 ms, ~4% of the
//!   run, dominated by the Access Tracker (56.9%) with the Characteristic
//!   Mapper second (41.7%) and the Input Parser negligible.

use crate::{ms, pct, FigResult, Scale};
use dayu_hdf::{DataType, DatasetBuilder};
use dayu_mapper::Mapper;
use dayu_vfd::MemFs;
use dayu_workflow::TaskIo;
use dayu_workloads::util::payload;

/// Breakdown measured from one instrumented run.
pub struct Breakdown {
    /// Total mapper time, ns.
    pub total_ns: u64,
    /// Input Parser fraction.
    pub input_parser: f64,
    /// Access Tracker fraction.
    pub access_tracker: f64,
    /// Characteristic Mapper fraction.
    pub characteristic_mapper: f64,
}

fn breakdown_of(mapper: &Mapper) -> Breakdown {
    let t = mapper.timers();
    let (ip, at, cm) = t.breakdown();
    Breakdown {
        total_ns: t.total_ns(),
        input_parser: ip,
        access_tracker: at,
        characteristic_mapper: cm,
    }
}

/// Runs an h5bench-like body (few large datasets, bulk I/O) under a fresh
/// mapper and returns the component breakdown.
pub fn h5bench_breakdown(total_bytes: usize) -> Breakdown {
    let fs = MemFs::new();
    let mapper =
        Mapper::from_config_text("fig10a", "page_size=4096\ntrace_io=on\n").expect("config");
    mapper.set_task("h5bench");
    let io = TaskIo::new(&fs, &mapper);
    let f = io.create("big.h5").unwrap();
    let per = total_bytes / 4;
    let data = payload(per, 7);
    for d in 0..4 {
        let mut ds = f
            .root()
            .create_dataset(
                &format!("dset_{d}"),
                DatasetBuilder::new(DataType::Int { width: 1 }, &[per as u64]),
            )
            .unwrap();
        ds.write(&data).unwrap();
        ds.close().unwrap();
    }
    for d in 0..4 {
        let mut ds = f.root().open_dataset(&format!("dset_{d}")).unwrap();
        ds.read().unwrap();
        ds.close().unwrap();
    }
    f.close().unwrap();
    breakdown_of(&mapper)
}

/// Runs the corner-case body (many datasets, reopen churn) under a fresh
/// mapper and returns the component breakdown.
pub fn corner_breakdown(datasets: usize, reads: usize) -> Breakdown {
    let fs = MemFs::new();
    let mapper =
        Mapper::from_config_text("fig10b", "page_size=4096\ntrace_io=on\n").expect("config");
    mapper.set_task("corner");
    let io = TaskIo::new(&fs, &mapper);
    let f = io.create("corner.h5").unwrap();
    for d in 0..datasets {
        let mut ds = f
            .root()
            .create_dataset(
                &format!("d{d:03}"),
                DatasetBuilder::new(DataType::Int { width: 1 }, &[256]),
            )
            .unwrap();
        ds.write(&payload(256, d as u64)).unwrap();
        ds.close().unwrap();
    }
    for i in 0..reads {
        let mut ds = f
            .root()
            .open_dataset(&format!("d{:03}", i % datasets))
            .unwrap();
        ds.read().unwrap();
        ds.close().unwrap();
    }
    f.close().unwrap();
    breakdown_of(&mapper)
}

/// Regenerates Fig. 10a and 10b.
pub fn run(scale: Scale) -> FigResult {
    let (bench_bytes, datasets, reads) = match scale {
        Scale::Quick => (4 << 20, 100, 1000),
        Scale::Full => (64 << 20, 200, 8000),
    };
    let a = h5bench_breakdown(bench_bytes);
    let b = corner_breakdown(datasets, reads);

    let mut fig = FigResult::new(
        "fig10",
        "Mapper execution-time breakdown (a: h5bench, b: corner case)",
        &[
            "scenario",
            "total_ms",
            "input_parser",
            "access_tracker",
            "characteristic_mapper",
        ],
    );
    for (name, bd) in [("h5bench (10a)", &a), ("corner case (10b)", &b)] {
        fig.row(vec![
            name.to_owned(),
            ms(bd.total_ns),
            pct(bd.input_parser),
            pct(bd.access_tracker),
            pct(bd.characteristic_mapper),
        ]);
    }
    fig.note(format!(
        "10a: Characteristic Mapper dominant at {} (paper: dominant); \
         10b: Access Tracker at {} (paper: 56.9%)",
        pct(a.characteristic_mapper),
        pct(b.access_tracker)
    ));
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each component's fastest time over `runs`, in ns: input parser,
    /// access tracker, characteristic mapper. Preemption only adds time,
    /// so one preempted sample cannot decide a comparison of these.
    fn fastest_ns(runs: &[Breakdown]) -> [f64; 3] {
        let mut best = [f64::INFINITY; 3];
        for b in runs {
            assert!(b.total_ns > 0);
            let shares = [b.input_parser, b.access_tracker, b.characteristic_mapper];
            for (best, share) in best.iter_mut().zip(shares) {
                *best = best.min(share * b.total_ns as f64);
            }
        }
        best
    }

    /// The body moves 16 MiB: the Characteristic Mapper's time grows with
    /// the op count, the Input Parser's one config parse does not, and at
    /// 2 MiB the two are about equal.
    #[test]
    fn h5bench_dominated_by_characteristic_mapper() {
        let runs: Vec<Breakdown> = (0..3).map(|_| h5bench_breakdown(16 << 20)).collect();
        let [ip, _, cm] = fastest_ns(&runs);
        assert!(
            cm > ip,
            "cm {cm:.0} ns vs ip {ip:.0} ns, fastest of three runs"
        );
    }

    #[test]
    fn corner_case_access_tracker_grows() {
        // The paper's contrast: object churn shifts time toward the Access
        // Tracker relative to the bulk-I/O scenario.
        let bulk: Vec<Breakdown> = (0..3).map(|_| h5bench_breakdown(2 << 20)).collect();
        let churn: Vec<Breakdown> = (0..3).map(|_| corner_breakdown(100, 2000)).collect();
        let tracker_share = |runs: &[Breakdown]| {
            let [ip, at, cm] = fastest_ns(runs);
            at / (ip + at + cm)
        };
        let (churn_at, bulk_at) = (tracker_share(&churn), tracker_share(&bulk));
        assert!(
            churn_at > bulk_at,
            "churn shifts cost into the Access Tracker: {churn_at:.3} vs {bulk_at:.3}, \
             shares of the fastest times of three runs"
        );
        // Fractions form a distribution.
        for b in &churn {
            let sum = b.input_parser + b.access_tracker + b.characteristic_mapper;
            assert!((sum - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn figure_renders_two_rows() {
        let fig = run(Scale::Quick);
        assert_eq!(fig.rows.len(), 2);
        assert!(fig.render().contains("corner case"));
    }
}
