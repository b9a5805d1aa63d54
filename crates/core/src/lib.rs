//! # dayu-core
//!
//! The DaYu facade: one entry point over the whole toolset.
//!
//! DaYu (after Yu the Great, the legendary tamer of floods) is a dataflow
//! analysis and optimization framework for distributed scientific
//! workflows that exchange data through self-describing formats. This
//! workspace reimplements the system described in *"DaYu: Optimizing
//! Distributed Scientific Workflows by Decoding Dataflow Semantics and
//! Dynamics"* (IEEE CLUSTER 2024):
//!
//! * [`hdf`] — a from-scratch HDF5-like format library with VOL hook
//!   points and a driver (VFD) abstraction;
//! * [`mapper`] — the Data Semantic Mapper (VOL + VFD profilers joined by
//!   a shared context channel);
//! * [`analyzer`] — the Workflow Analyzer (FTG/SDG graphs, detectors,
//!   exporters);
//! * [`advisor`] — the optimization guideline engine;
//! * [`lint`] — static analysis: dataflow-hazard linting, transform
//!   semantics-preservation verification, and a format fsck;
//! * [`workflow`] — staged workflow execution, trace replay, optimization
//!   transforms;
//! * [`sim`] — the cluster/storage discrete-event simulator;
//! * [`workloads`] — the paper's applications and benchmarks.
//!
//! ## The one-call pipeline
//!
//! ```
//! use dayu_core::{diagnose, prelude::*};
//! use dayu_core::workloads::ddmd;
//!
//! let fs = MemFs::new();
//! let cfg = ddmd::DdmdConfig {
//!     sim_tasks: 2,
//!     contact_map_dim: 8,
//!     point_cloud_points: 16,
//!     scalar_series_len: 8,
//!     ..Default::default()
//! };
//! let diagnosis = diagnose(&ddmd::workflow(&cfg), &fs).unwrap();
//! assert!(!diagnosis.recommendations.is_empty());
//! println!("{}", diagnosis.summary());
//! ```

pub mod auto;

pub use dayu_advisor as advisor;
pub use dayu_analyzer as analyzer;
pub use dayu_hdf as hdf;
pub use dayu_lint as lint;
pub use dayu_mapper as mapper;
pub use dayu_sim as sim;
pub use dayu_trace as trace;
pub use dayu_vfd as vfd;
pub use dayu_workflow as workflow;
pub use dayu_workloads as workloads;

use dayu_advisor::Recommendation;
use dayu_analyzer::{export, Analysis, SdgOptions};
use dayu_hdf::Result;
use dayu_vfd::MemFs;
use dayu_workflow::{RecordedRun, WorkflowSpec};
use std::io::Write as _;
use std::path::Path;

/// Commonly used types, one `use` away.
pub mod prelude {
    pub use dayu_advisor::{advise, Action, Guideline, Recommendation};
    pub use dayu_analyzer::{
        build_ftg, build_sdg, diff_traces, run_detectors, Analysis, BundleDiff, DetectorConfig,
        Finding, FirstDivergence, Graph, GraphKind, NodeKind, SdgOptions,
    };
    pub use dayu_hdf::{
        AttrValue, DataType, Dataset, DatasetBuilder, FileOptions, Group, H5File, HdfError,
        LayoutKind, Selection,
    };
    pub use dayu_lint::{
        analyze_bundle, analyze_sim_tasks, analyze_stream, fsck_bytes, ExtentCatalog,
        Finding as LintFinding, LintConfig, Report as LintReport, TaskHb,
    };
    pub use dayu_mapper::{Mapper, MapperConfig};
    pub use dayu_sim::{Cluster, Engine, FileLocation, Placement, SimOp, SimTask, TierKind};
    pub use dayu_trace::{SharedContext, TraceBundle};
    pub use dayu_vfd::{
        FaultInjector, FaultSchedule, MemFs, MemVfd, ReplayDivergence, ReplayValidator, Vfd,
    };
    pub use dayu_workflow::{
        record, record_opts, record_to_bundle, replay_bundle, to_sim_tasks, BundleError,
        RecordOptions, ReplayBundle, ReplayReport, RetryPolicy, Schedule, TaskIo, TaskOutcome,
        TaskSpec, WorkflowSpec,
    };
}

/// Everything DaYu derives from one profiled workflow execution.
pub struct Diagnosis {
    /// The recorded run (trace bundle + stage metadata).
    pub run: RecordedRun,
    /// Graphs and findings.
    pub analysis: Analysis,
    /// Optimization recommendations per the Section III-A guidelines.
    pub recommendations: Vec<Recommendation>,
}

impl Diagnosis {
    /// A one-page text summary.
    pub fn summary(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let b = &self.run.bundle;
        let _ = writeln!(out, "DaYu diagnosis — workflow {:?}", b.meta.workflow);
        let _ = writeln!(
            out,
            "  tasks: {}, files: {}, objects: {}, low-level ops: {}",
            b.meta.task_order.len(),
            self.analysis
                .ftg
                .nodes_of(dayu_analyzer::NodeKind::File)
                .count(),
            b.vol.len(),
            b.vfd.len()
        );
        let _ = writeln!(
            out,
            "  FTG: {} nodes / {} edges;  SDG: {} nodes / {} edges",
            self.analysis.ftg.nodes.len(),
            self.analysis.ftg.edges.len(),
            self.analysis.sdg.nodes.len(),
            self.analysis.sdg.edges.len()
        );
        let _ = writeln!(out, "  findings ({}):", self.analysis.findings.len());
        let mut by_cat: std::collections::BTreeMap<&str, usize> = Default::default();
        for f in &self.analysis.findings {
            *by_cat.entry(f.category()).or_default() += 1;
        }
        for (cat, n) in by_cat {
            let _ = writeln!(out, "    {cat}: {n}");
        }
        let _ = write!(out, "{}", dayu_advisor::report(&self.recommendations));
        out
    }

    /// Writes the full artifact set into `dir`: the `.dtb` trace, FTG and
    /// SDG in DOT/JSON/HTML, and the recommendation report.
    pub fn write_artifacts(&self, dir: impl AsRef<Path>) -> std::io::Result<()> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let f = std::fs::File::create(dir.join("trace.dtb"))?;
        self.run.bundle.write_binary(f)?;
        for (graph, name) in [(&self.analysis.ftg, "ftg"), (&self.analysis.sdg, "sdg")] {
            std::fs::write(dir.join(format!("{name}.dot")), export::to_dot(graph))?;
            std::fs::write(dir.join(format!("{name}.json")), export::to_json(graph))?;
            std::fs::write(dir.join(format!("{name}.html")), export::to_html(graph))?;
        }
        let mut f = std::fs::File::create(dir.join("recommendations.txt"))?;
        f.write_all(dayu_advisor::report(&self.recommendations).as_bytes())?;
        Ok(())
    }
}

/// Records a workflow under full instrumentation, analyzes the traces and
/// derives recommendations — the end-to-end DaYu pipeline in one call.
pub fn diagnose(spec: &WorkflowSpec, fs: &MemFs) -> Result<Diagnosis> {
    diagnose_with(spec, fs, &SdgOptions::default())
}

/// [`diagnose`] with explicit SDG options (e.g. address-region nodes).
pub fn diagnose_with(spec: &WorkflowSpec, fs: &MemFs, sdg_opts: &SdgOptions) -> Result<Diagnosis> {
    let run = dayu_workflow::record(spec, fs)?;
    let analysis = Analysis::run_with(
        &run.bundle,
        sdg_opts,
        &dayu_analyzer::DetectorConfig::default(),
    );
    let recommendations = dayu_advisor::advise(&analysis.findings);
    Ok(Diagnosis {
        run,
        analysis,
        recommendations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dayu_workloads::ddmd;

    fn tiny() -> ddmd::DdmdConfig {
        ddmd::DdmdConfig {
            sim_tasks: 2,
            iterations: 1,
            contact_map_dim: 8,
            point_cloud_points: 16,
            scalar_series_len: 8,
            compute_ns: 10,
            ..Default::default()
        }
    }

    #[test]
    fn diagnose_end_to_end() {
        let fs = MemFs::new();
        let d = diagnose(&ddmd::workflow(&tiny()), &fs).unwrap();
        assert!(!d.analysis.findings.is_empty());
        assert_eq!(d.analysis.findings.len(), d.recommendations.len());
        let s = d.summary();
        assert!(s.contains("ddmd"));
        assert!(s.contains("findings"));
        assert!(s.contains("recommendations"));
    }

    #[test]
    fn artifacts_written_to_disk() {
        let fs = MemFs::new();
        let d = diagnose(&ddmd::workflow(&tiny()), &fs).unwrap();
        let dir = std::env::temp_dir().join(format!("dayu-core-test-{}", std::process::id()));
        d.write_artifacts(&dir).unwrap();
        for name in [
            "trace.dtb",
            "ftg.dot",
            "ftg.json",
            "ftg.html",
            "sdg.dot",
            "sdg.json",
            "sdg.html",
            "recommendations.txt",
        ] {
            let p = dir.join(name);
            assert!(p.exists(), "{name} missing");
            assert!(std::fs::metadata(&p).unwrap().len() > 0, "{name} empty");
        }
        // The trace round-trips.
        let bytes = std::fs::read(dir.join("trace.dtb")).unwrap();
        let back = dayu_trace::TraceBundle::load(&bytes[..]).unwrap();
        assert_eq!(back, d.run.bundle);
        std::fs::remove_dir_all(dir).unwrap();
    }
}
