//! # dayu-analyzer
//!
//! The Workflow Analyzer (Section V of the paper): connects data-to-task
//! into workflow graphs and decorates them with data semantics and I/O
//! statistics.
//!
//! * [`build::build_ftg`] — **File-Task Graphs**: the complete overview of
//!   task/file dependencies, I/O operations and time-ordered access.
//! * [`build::build_sdg`] — **Semantic Dataflow Graphs**: a dataset layer
//!   between tasks and files, optionally enriched with file-address region
//!   nodes showing where each dataset's content lands (Fig. 3, Fig. 8).
//! * [`detect`] — bottleneck detectors reproducing the paper's Section VI
//!   observations (data reuse, scattered small datasets, unused datasets,
//!   metadata overhead, layout mismatches, co-schedulable chains…).
//! * [`resolution`] — graph aggregation by task/time/space dimensions for
//!   complex workflows.
//! * [`export`] — DOT, JSON, and self-contained interactive HTML with the
//!   Fig.-7-style statistics pop-ups.
//!
//! The complete pipeline in one call: [`Analysis::run`].

pub mod build;
pub mod detect;
pub mod diff;
pub mod export;
pub mod graph;
pub mod partial;
pub mod resolution;

pub use build::{build_ftg, build_sdg, SdgOptions};
pub use detect::{run_detectors, DetectorConfig, Finding};
pub use diff::{diff_traces, BundleDiff, CausalAncestors, DiffEvent, FirstDivergence};
pub use graph::{Edge, EdgeStats, Graph, GraphKind, Node, NodeKind, Operation};
pub use partial::PartialGraph;

use dayu_trace::store::TraceBundle;

/// One-shot analysis of a trace bundle: both graphs plus all findings.
pub struct Analysis {
    /// The File-Task Graph.
    pub ftg: Graph,
    /// The Semantic Dataflow Graph.
    pub sdg: Graph,
    /// Detector findings.
    pub findings: Vec<Finding>,
}

impl Analysis {
    /// Builds the FTG and SDG and runs every detector with default
    /// thresholds.
    pub fn run(bundle: &TraceBundle) -> Analysis {
        Self::run_with(bundle, &SdgOptions::default(), &DetectorConfig::default())
    }

    /// Builds graphs and runs detectors with explicit options. The bundle
    /// is split by task and its VFD records folded once, for both graphs.
    pub fn run_with(bundle: &TraceBundle, opts: &SdgOptions, det_cfg: &DetectorConfig) -> Analysis {
        let parts = build::partition_for(bundle, opts);
        let (workflow, vfd_empty) = (&bundle.meta.workflow, bundle.vfd.is_empty());
        let ftg = build::ftg_of(workflow, vfd_empty, &parts);
        let sdg = build::sdg_of(workflow, vfd_empty, &parts);
        let findings = run_detectors(bundle, &ftg, &sdg, det_cfg);
        Analysis { ftg, sdg, findings }
    }

    /// Findings of a category.
    pub fn findings_of<'a>(&'a self, category: &'a str) -> impl Iterator<Item = &'a Finding> + 'a {
        self.findings
            .iter()
            .filter(move |f| f.category() == category)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dayu_trace::ids::{FileKey, ObjectKey, TaskKey};
    use dayu_trace::time::Timestamp;
    use dayu_trace::vfd::{AccessType, IoKind, VfdRecord};

    #[test]
    fn one_shot_analysis() {
        let mut b = TraceBundle::new("wf");
        b.push_task(TaskKey::new("w"));
        b.push_task(TaskKey::new("r1"));
        b.push_task(TaskKey::new("r2"));
        let mk = |task: &str, kind, at| VfdRecord {
            task: TaskKey::new(task),
            file: FileKey::new("f.h5"),
            kind,
            offset: 0,
            len: 100,
            access: AccessType::RawData,
            object: ObjectKey::new("/d"),
            start: Timestamp(at),
            end: Timestamp(at + 1),
        };
        b.vfd = vec![
            mk("w", IoKind::Write, 0),
            mk("r1", IoKind::Read, 10),
            mk("r2", IoKind::Read, 20),
        ];
        let a = Analysis::run(&b);
        assert_eq!(a.ftg.kind, GraphKind::Ftg);
        assert_eq!(a.sdg.kind, GraphKind::Sdg);
        assert_eq!(a.findings_of("data-reuse").count(), 1);
        assert_eq!(a.findings_of("nonexistent").count(), 0);
    }
}
