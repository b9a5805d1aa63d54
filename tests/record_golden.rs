//! Pinned `.dtb` bytes of two recordings under a manual clock.
//!
//! The record path (format library, VOL/VFD profilers, shared context,
//! mapper state, `.dtb` writer) is tuned for speed, and every such change
//! promises the same trace. This test holds it to that: it records
//!
//! * the paper's corner case, scaled down: 50 datasets, 500
//!   reopen/read/close cycles and one failed open of a missing name, on a
//!   `ManualClock` that advances a fixed step per cycle;
//! * `ddmd` with 2 iterations through `record_opts` with `manual_clock`;
//! * whole-dataset chunked sweeps that overflow the chunk cache, so the
//!   cache bypass runs: a 1-D dataset of 64 chunks and a 2-D one whose
//!   chunks span its trailing dimension, each against an 8-chunk cache,
//!   written, read in part, reopened, read whole and in part again,
//!
//! and pins the SHA-256 of each `.dtb`. A change to the op stream, to
//! attribution or to the writer changes a digest. When a trace changes on
//! purpose, the failure message lists the new digests in `PINNED`'s
//! format; review the change, then replace `PINNED`.
//!
//! The analysis of those three recordings, and of `pyflextrkr` (with its
//! input-preparation stage) and `arldm` recorded with `manual_clock`, is
//! pinned the same way in `ANALYSIS`: the `Debug` text of the FTG's and
//! the SDG's nodes and edges (the SDG with and without region nodes), the
//! detector findings and the advice built from them. A change to graph
//! building or to a detector that alters any output on a recorded trace
//! changes a digest. On every one of them, `Analysis::run` must also
//! build the graphs `build_ftg` and `build_sdg` build.
//!
//! `AUTO` pins `dayu_core::auto::optimize` on the `ddmd` and
//! `pyflextrkr` runs, on a two-node GPU cluster: the actions applied,
//! the advisories, the rewrites the semantics verifier rejected (with
//! the regressions it named), the cost model's candidate scores, and the
//! predicted critical-path bytes and simulated makespan of the result.

use dayu_advisor::advise;
use dayu_analyzer::{build_ftg, build_sdg, run_detectors, Analysis, DetectorConfig, SdgOptions};
use dayu_core::auto::optimize;
use dayu_core::mapper::{Mapper, MapperConfig};
use dayu_core::sim::cluster::Cluster;
use dayu_core::workflow::{record_opts, RecordOptions, RecordedRun};
use dayu_core::workloads::{arldm, ddmd, pyflextrkr};
use dayu_hdf::{DataType, DatasetBuilder, H5File, HdfError, Selection};
use dayu_trace::sha256::{hex, sha256};
use dayu_trace::time::ManualClock;
use dayu_trace::TraceBundle;
use dayu_vfd::MemFs;
use std::sync::Arc;

const PINNED: &[(&str, &str)] = &[
    (
        "corner_case",
        "1177060c66f63660d50fec4b42dce797ddde0bf8508acc8b835579d7a35c3fd0",
    ),
    (
        "ddmd",
        "a8372f95b2bf41da97aefd1a53412b421a4a1a11ea10d2015e0fa1d4d29fcd89",
    ),
    (
        "chunked_sweeps",
        "35579fe6c7471f533d5c8370f0ee33485b774be03bc2e34cb1e958fc3088e2a9",
    ),
];

/// Digests of each recording's analysis outputs, keyed `trace.output`.
const ANALYSIS: &[(&str, &str)] = &[
    (
        "corner_case.ftg.nodes",
        "202e0e229389b7632c60027cf71460b2eda530cc9d1844f501a5954bc835e814",
    ),
    (
        "corner_case.ftg.edges",
        "86d4807d1b7ec59839afb1e5825266733b997c58a808d5f761dc2cc583d178e5",
    ),
    (
        "corner_case.sdg_regions.nodes",
        "9d2268d50edf48dd3c59e49c3efc94af99226d9c149434b7b8788a273cb27fd2",
    ),
    (
        "corner_case.sdg_regions.edges",
        "b0f3cf00519a778c9a68315535f70fc426e04c8e31675cd89975d97602b31276",
    ),
    (
        "corner_case.sdg.nodes",
        "5910e363f8c92a0278f199860245c3b7a7ed7da04568f8bb9b5f35fa1e2bc5ea",
    ),
    (
        "corner_case.sdg.edges",
        "6f6892ddaac3aaef4e4c4f8133e0bc5158dab1b4de5202f2150b62c9f4a06f94",
    ),
    (
        "corner_case.findings",
        "98098d5181b46e734b84f0a90c9e927f7b556c81e0df4e0fa6b84c8199fe375d",
    ),
    (
        "corner_case.advice",
        "d22650174593a7e6968902f063b3e02a53a260a29da5ddd8a512c1094293804e",
    ),
    (
        "ddmd.ftg.nodes",
        "dd77310f8db6b0e66682411ab347aea295a4579603029aef4487aa50a22a1292",
    ),
    (
        "ddmd.ftg.edges",
        "baa06590f415a0027cde7b963702c7358ce1a9e45adf6d16c3016679b45971d0",
    ),
    (
        "ddmd.sdg_regions.nodes",
        "9c6f1b4751482a1b61262be77d587f9e17d8cd52536a438ff1e2bb6ac9869768",
    ),
    (
        "ddmd.sdg_regions.edges",
        "550c8bd798f3fada0f33783fdb9ef1f90809049704cd4032b64cca27686164df",
    ),
    (
        "ddmd.sdg.nodes",
        "7c801be0e4d60f169ae3aafde2a7f8219e4447af064fa2e0c5063b627830e544",
    ),
    (
        "ddmd.sdg.edges",
        "458a9b4bb397302f8fd5c218f5a347e474dde1e9f322c806bb087e6d1792c85a",
    ),
    (
        "ddmd.findings",
        "dbba44e2ef4fd623ec3464dca1b11a90763f5a28a8420bdb873d567c36462da3",
    ),
    (
        "ddmd.advice",
        "9b9fbf4be1028b3ff9ee317ff6270f219a5294679003749a81b8647e77d7f102",
    ),
    (
        "chunked_sweeps.ftg.nodes",
        "f3959d1de1a39b32d15fbf437bb4b42821b270eba3cd39cbebbfefa09eff9152",
    ),
    (
        "chunked_sweeps.ftg.edges",
        "c8ff92ab38222e54002b8d6273332716c934b211d3c176db76b5b1ac4abc13bd",
    ),
    (
        "chunked_sweeps.sdg_regions.nodes",
        "b25d05443adbf5cd0cb53aad999d640361da045d9b25f94d192cf90ce00f5c05",
    ),
    (
        "chunked_sweeps.sdg_regions.edges",
        "b455cba58532848a856a7df12641e60d07f40a93c57e01267c40ea2f63df22d5",
    ),
    (
        "chunked_sweeps.sdg.nodes",
        "f9d454d8fa65e766a04563b05f587045e343f8b29290da1fb33384cd5aa6c461",
    ),
    (
        "chunked_sweeps.sdg.edges",
        "bf7deb28de93dbc8420c7ff58b1d131880706813168439eb9602db1d20f8be45",
    ),
    (
        "chunked_sweeps.findings",
        "5a1df1ee469635392add2e5968d7ab9bc38babd8b90614fb3efd8fec8d7184d2",
    ),
    (
        "chunked_sweeps.advice",
        "b4d2927d4dc40c7a31126d61bcf3639d965d2c328ab58c1fcf989f0037dd10d4",
    ),
    (
        "pyflextrkr.ftg.nodes",
        "e810cf8eded630622e8194af9a5f7f09a5204ea78a71894ac49970fe09cc0cd8",
    ),
    (
        "pyflextrkr.ftg.edges",
        "0e3dd540976b92a78b16fac2f35cd18a6c748ab23c52a143bfdc9170d6bec786",
    ),
    (
        "pyflextrkr.sdg_regions.nodes",
        "e3bee21edf840bc52b8a593b21c8515cfc1e6998265ac866756531bbbdb488e1",
    ),
    (
        "pyflextrkr.sdg_regions.edges",
        "40f6a0cd7c9d7e55b642f8e363a25f64fe3ed9b97c364463906b8bad1f96cbdb",
    ),
    (
        "pyflextrkr.sdg.nodes",
        "6e0c503df6897a0eef47bad2b84f0d66e3863afa2967561dd4d33dc48df50105",
    ),
    (
        "pyflextrkr.sdg.edges",
        "e7f8cf32b754f6f29d82bc0f5d25a6db07905afe6a016b243973bdd9833bbb02",
    ),
    (
        "pyflextrkr.findings",
        "a49ecb175aa66624342b3823c034e11efdd6b6a119fb03b580787429ef3b1250",
    ),
    (
        "pyflextrkr.advice",
        "4191ea6d8dff0af68f7c9b84cf46de833b5bc27ae3a2ae5076a36afa4b186d6a",
    ),
    (
        "arldm.ftg.nodes",
        "ff35989ba0d19745394b491fb9ad00d2d27937aba14880ac9fc9f2154a5e31eb",
    ),
    (
        "arldm.ftg.edges",
        "268563a6d41ebc922d403fd3d0418e722c4d2851fe341371af0847644525adad",
    ),
    (
        "arldm.sdg_regions.nodes",
        "c3d885f28d9bed3441cc96e79b384bd8605e8de920dfbb67fde0114d7b9cb835",
    ),
    (
        "arldm.sdg_regions.edges",
        "c4a41da705a067ff75c0df4f9ce3704192cdf4ecd4b761261df9a4fac6131877",
    ),
    (
        "arldm.sdg.nodes",
        "89a22252246115722a29878793fbf6e386662545d145f9a527eed3bab30313b2",
    ),
    (
        "arldm.sdg.edges",
        "a1f150663ddd9b6cd1321b47d8f22563200b44886f662d82aeaf26c56abb97f3",
    ),
    (
        "arldm.findings",
        "aa27a144da1f0297ff191317e95fd2c9b5a48b54b385ab875c40dfe0e481df24",
    ),
    (
        "arldm.advice",
        "f4363596ca187ae5645fc38a9d0b16fe308de9aefbff36215a7d04ec5a225b88",
    ),
];

/// Digests of `auto::optimize`'s outcome on each run, keyed
/// `run.output`.
const AUTO: &[(&str, &str)] = &[
    (
        "ddmd.applied",
        "8da2987b289a98a65524f33d2c11eebe38d38a26d3fb1c038e8678cec4f60ffb",
    ),
    (
        "ddmd.advisories",
        "bd15e44d888cfc8db83f5a79ae3eb701d02c888b1566920cbea38198be08eefb",
    ),
    (
        "ddmd.rejected",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ),
    (
        "ddmd.plan_scores",
        "7dc07eff00a3f106aa4aa2c197b74ee9150c879eae28580ff41cc7b7eea45fef",
    ),
    (
        "ddmd.predicted",
        "e1ee25510f71b2869e38771af9750195a4b9f720ed5d8a8b73e3408ca5063f94",
    ),
    (
        "pyflextrkr.applied",
        "762ff7f85a83fd430580f5d2d0eb2c453760be35622e73da2fd9a21b3a93fa84",
    ),
    (
        "pyflextrkr.advisories",
        "8d6437105a560d597bc5714093472df9f8054803a7a8a5fb9d7abcdf41350134",
    ),
    (
        "pyflextrkr.rejected",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ),
    (
        "pyflextrkr.plan_scores",
        "5cfdc3c4769cb283629fa71532eece5e2aa10e6ee6c9d7d5aec45bf65891ab2d",
    ),
    (
        "pyflextrkr.predicted",
        "96f5fdbab7cbc10be44dfd845a4ba82b6fcdc297fb2edae4da84def468f0274d",
    ),
];

/// The corner case on a manual clock: 50 datasets of 64 bytes, 500
/// reopen/read/close cycles, one open of a name the file lacks.
fn corner_case() -> TraceBundle {
    let clock = ManualClock::new();
    let mapper = Mapper::with_config_and_clock(
        "corner_case",
        MapperConfig::default(),
        Arc::new(clock.clone()),
    );
    mapper.set_task("corner_case");
    let fs = MemFs::new();
    let f = H5File::create(
        mapper.wrap_vfd(fs.create("corner.h5"), "corner.h5"),
        "corner.h5",
        mapper.file_options(),
    )
    .unwrap();
    let root = f.root();
    let data: Vec<u8> = (0..64u8).collect();
    for d in 0..50 {
        let mut ds = root
            .create_dataset(
                &format!("dset_{d:03}"),
                DatasetBuilder::new(DataType::Int { width: 1 }, &[64]),
            )
            .unwrap();
        ds.write(&data).unwrap();
        ds.close().unwrap();
        clock.advance(1_000);
    }
    for i in 0..500 {
        let mut ds = root.open_dataset(&format!("dset_{:03}", i % 50)).unwrap();
        assert_eq!(ds.read().unwrap(), data);
        ds.close().unwrap();
        clock.advance(1_000);
    }
    assert!(matches!(
        root.open_dataset("dset_missing"),
        Err(HdfError::NotFound(_))
    ));
    f.close().unwrap();
    mapper.into_bundle()
}

/// A workflow run with a manual clock.
fn run_manual(spec: &dayu_core::workflow::WorkflowSpec) -> RecordedRun {
    let opts = RecordOptions {
        manual_clock: true,
        ..Default::default()
    };
    record_opts(spec, &MemFs::new(), &opts).unwrap()
}

/// A workflow's trace, recorded with a manual clock.
fn record_manual(spec: &dayu_core::workflow::WorkflowSpec) -> TraceBundle {
    run_manual(spec).bundle
}

/// `ddmd` with 2 iterations, run with a manual clock.
fn ddmd_two_iterations_run() -> RecordedRun {
    run_manual(&ddmd::workflow(&ddmd::DdmdConfig {
        iterations: 2,
        ..Default::default()
    }))
}

/// `ddmd` with 2 iterations, recorded with a manual clock.
fn ddmd_two_iterations() -> TraceBundle {
    ddmd_two_iterations_run().bundle
}

/// Chunked sweeps on a manual clock: a 1-D dataset of 64 chunks of
/// 1 KiB, and a 94 × 512 one in 4 × 512 chunks (24 chunks, the last one
/// partial), both against an 8 KiB cache set through
/// `FileOptions::chunk_cache_bytes`, so reopened handles get it too.
fn chunked_sweeps() -> TraceBundle {
    let clock = ManualClock::new();
    let mapper = Mapper::with_config_and_clock(
        "chunked_sweeps",
        MapperConfig::default(),
        Arc::new(clock.clone()),
    );
    mapper.set_task("chunked_sweeps");
    let fs = MemFs::new();
    let mut opts = mapper.file_options();
    opts.chunk_cache_bytes = 8 << 10;
    let f = H5File::create(
        mapper.wrap_vfd(fs.create("sweeps.h5"), "sweeps.h5"),
        "sweeps.h5",
        opts,
    )
    .unwrap();
    let root = f.root();
    let sweeps = [
        (
            "line",
            [64 << 10].to_vec(),
            [1 << 10].to_vec(),
            Selection::slab(&[5000], &[3000]),
        ),
        (
            "grid",
            [94, 512].to_vec(),
            [4, 512].to_vec(),
            Selection::slab(&[10, 100], &[20, 50]),
        ),
    ];
    for (name, shape, chunks, part) in sweeps {
        let data: Vec<u8> = (0..shape.iter().product::<u64>())
            .map(|i| (i * 37 % 251) as u8)
            .collect();
        let builder = DatasetBuilder::new(DataType::Int { width: 1 }, &shape).chunks(&chunks);
        // A step after every call stamps each driver op with the call
        // that issued it: an eviction moved from a sweep to the next
        // call changes the trace.
        let mut ds = root.create_dataset(name, builder).unwrap();
        ds.write(&data).unwrap();
        clock.advance(1_000);
        ds.read_slab(&part).unwrap();
        clock.advance(1_000);
        ds.close().unwrap();
        clock.advance(1_000);
        let mut ds = root.open_dataset(name).unwrap();
        assert_eq!(ds.read().unwrap(), data);
        clock.advance(1_000);
        ds.read_slab(&part).unwrap();
        clock.advance(1_000);
        ds.close().unwrap();
        clock.advance(1_000);
    }
    f.close().unwrap();
    mapper.into_bundle()
}

#[test]
fn recorded_traces_match_pinned_digests() {
    let got: Vec<(&str, String)> = [
        ("corner_case", corner_case()),
        ("ddmd", ddmd_two_iterations()),
        ("chunked_sweeps", chunked_sweeps()),
    ]
    .into_iter()
    .map(|(name, bundle)| (name, hex(&sha256(&bundle.to_binary_bytes()))))
    .collect();
    assert_pinned(&got, PINNED, "recorded traces");
}

#[test]
fn analysis_of_recorded_traces_matches_pinned_digests() {
    let regions = SdgOptions {
        include_regions: true,
        region_count: 4,
    };
    let mut got: Vec<(String, String)> = Vec::new();
    for (name, bundle) in [
        ("corner_case", corner_case()),
        ("ddmd", ddmd_two_iterations()),
        ("chunked_sweeps", chunked_sweeps()),
        (
            "pyflextrkr",
            record_manual(&pyflextrkr::workflow_with_inputs(&Default::default())),
        ),
        (
            "arldm",
            record_manual(&arldm::workflow(&Default::default())),
        ),
    ] {
        let mut pin = |output: &str, text: String| {
            got.push((format!("{name}.{output}"), hex(&sha256(text.as_bytes()))));
        };
        let ftg = build_ftg(&bundle);
        pin("ftg.nodes", format!("{:?}", ftg.nodes));
        pin("ftg.edges", format!("{:?}", ftg.edges));
        let sdg_regions = build_sdg(&bundle, &regions);
        pin("sdg_regions.nodes", format!("{:?}", sdg_regions.nodes));
        pin("sdg_regions.edges", format!("{:?}", sdg_regions.edges));
        let sdg = build_sdg(&bundle, &SdgOptions::default());
        pin("sdg.nodes", format!("{:?}", sdg.nodes));
        pin("sdg.edges", format!("{:?}", sdg.edges));
        let findings = run_detectors(&bundle, &ftg, &sdg, &DetectorConfig::default());
        pin("findings", format!("{findings:?}"));
        pin("advice", format!("{:?}", advise(&findings)));
        let run = Analysis::run(&bundle);
        assert!(run.ftg == ftg && run.sdg == sdg, "{name}: Analysis::run");
        let run = Analysis::run_with(&bundle, &regions, &DetectorConfig::default());
        assert!(run.ftg == ftg && run.sdg == sdg_regions, "{name}: regions");
    }
    let got: Vec<(&str, String)> = got.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
    assert_pinned(&got, ANALYSIS, "analysis outputs");
}

#[test]
fn auto_optimize_of_recorded_runs_matches_pinned_digests() {
    let cluster = Cluster::gpu_cluster(2);
    let mut got: Vec<(String, String)> = Vec::new();
    for (name, run) in [
        ("ddmd", ddmd_two_iterations_run()),
        (
            "pyflextrkr",
            run_manual(&pyflextrkr::workflow_with_inputs(&Default::default())),
        ),
    ] {
        let out = optimize(&run, &cluster).unwrap();
        // Each action is applied once, however many findings advise it.
        let distinct: std::collections::HashSet<&String> = out.applied.iter().collect();
        assert_eq!(
            distinct.len(),
            out.applied.len(),
            "{name}: an action applied twice"
        );
        let mut pin = |output: &str, text: String| {
            got.push((format!("{name}.{output}"), hex(&sha256(text.as_bytes()))));
        };
        pin("applied", format!("{:?}", out.applied));
        pin("advisories", format!("{:?}", out.advisories));
        pin("rejected", format!("{:?}", out.rejected));
        pin("plan_scores", format!("{:?}", out.plan_scores));
        pin(
            "predicted",
            format!(
                "{} {} {}",
                out.predicted_baseline_cp_bytes,
                out.predicted_plan_cp_bytes,
                out.optimized.makespan_ns
            ),
        );
    }
    let got: Vec<(&str, String)> = got.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
    assert_pinned(&got, AUTO, "auto::optimize outcomes");
}

/// Asserts `got` equals `pinned`; on a mismatch the message lists `got`
/// in the pinned table's format.
fn assert_pinned(got: &[(&str, String)], pinned: &[(&str, &str)], what: &str) {
    let listing: String = got
        .iter()
        .map(|(k, v)| format!("    (\"{k}\", \"{v}\"),\n"))
        .collect();
    let pinned: Vec<(&str, String)> = pinned.iter().map(|&(k, v)| (k, v.to_owned())).collect();
    assert!(got == pinned, "{what} changed; digests now:\n{listing}");
}
