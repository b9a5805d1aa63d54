//! # dayu-sim
//!
//! A cluster and storage simulator substituting for the paper's testbed
//! hardware (Table III: a CPU cluster with NFS/NVMe/SATA/HDD storage and a
//! GPU cluster with BeeGFS and node-local SSD). It provides
//!
//! * [`tiers`] — parameterized storage tier cost models (latency, streaming
//!   bandwidth, metadata-op latency, contention behaviour) with presets
//!   calibrated to commodity hardware of the paper's class;
//! * [`cluster`] — nodes, their local tiers, shared (parallel) filesystems,
//!   the interconnect, and file → location placements;
//! * [`program`] — the replay vocabulary: per-task sequences of I/O and
//!   compute operations, typically converted from DaYu VFD traces;
//! * [`engine`] — a discrete-event simulator executing a task DAG over a
//!   cluster, with per-tier bandwidth sharing and metadata-server
//!   contention, producing per-task timings and the workflow makespan.
//!
//! The DES is used by `dayu-workflow` to score *baseline vs DaYu-optimized*
//! executions (paper Figures 11–13): the same traced op streams are
//! replayed under different placements, schedules and layouts, so measured
//! differences come only from the optimization under study.

pub mod cluster;
pub mod engine;
pub mod program;
pub mod tiers;

pub use cluster::{Cluster, FileLocation, NodeId, Placement};
pub use engine::{Engine, SimReport, TaskReport};
pub use program::{IoDir, SimOp, SimTask, TaskId};
pub use tiers::{NetworkModel, TierKind, TierModel};
