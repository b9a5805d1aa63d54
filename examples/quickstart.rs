//! Quickstart: profile a tiny producer/consumer workflow end to end.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Demonstrates the full DaYu pipeline on a two-task workflow: the format
//! library runs under the Data Semantic Mapper, the Workflow Analyzer
//! builds the FTG and SDG (the Fig. 3-style single-producer graph), the
//! detectors fire, and the advisor prints its recommendations. Artifacts
//! (interactive HTML graphs, DOT, JSON, the `.dtb` trace) land in
//! `dayu_quickstart_out/`.

use dayu::prelude::*;
use dayu_core::diagnose_with;

fn main() {
    let fs = MemFs::new();

    let spec = WorkflowSpec::new("quickstart")
        .stage(
            "produce",
            vec![TaskSpec::new("producer", |io: &TaskIo| {
                let file = io.create("results.h5")?;
                let group = file.root().create_group("experiment")?;

                // A contiguous fixed-length dataset…
                let mut temps = group.create_dataset(
                    "temperature",
                    DatasetBuilder::new(DataType::Float { width: 8 }, &[64, 64]),
                )?;
                temps.write_f64s(&vec![293.15; 64 * 64])?;
                temps.set_attr("units", AttrValue::Str("K".into()))?;
                temps.close()?;

                // …a chunked one…
                let mut grid = group.create_dataset(
                    "velocity",
                    DatasetBuilder::new(DataType::Float { width: 8 }, &[128, 128])
                        .chunks(&[32, 128]),
                )?;
                grid.write_f64s(&vec![0.5; 128 * 128])?;
                grid.close()?;

                // …and a variable-length one (the fragmentation-prone case).
                let mut notes =
                    group.create_dataset("notes", DatasetBuilder::new(DataType::VarLen, &[4]))?;
                notes.write_varlen(
                    0,
                    &[b"warm start", b"equilibrated", b"vortex shed", b"done"],
                )?;
                notes.close()?;
                file.close()
            })
            .with_compute(1_000_000)],
        )
        .stage(
            "analyze",
            vec![TaskSpec::new("analyzer", |io: &TaskIo| {
                let file = io.open("results.h5")?;
                let group = file.root().open_group("experiment")?;
                let mut temps = group.open_dataset("temperature")?;
                let mean: f64 = temps.read_f64s()?.iter().sum::<f64>() / (64.0 * 64.0);
                println!("  [analyzer] mean temperature: {mean:.2} K");
                temps.close()?;
                // Partial access: only one row of the velocity grid.
                let mut grid = group.open_dataset("velocity")?;
                grid.read_slab(&Selection::slab(&[0, 0], &[1, 128]))?;
                grid.close()?;
                file.close()
            })
            .with_compute(500_000)],
        );

    println!("recording + analyzing the workflow…");
    let diagnosis = diagnose_with(
        &spec,
        &fs,
        &SdgOptions {
            include_regions: true,
            region_count: 4,
        },
    )
    .expect("diagnosis");

    println!("\n{}", diagnosis.summary());

    let out = std::path::Path::new("dayu_quickstart_out");
    diagnosis.write_artifacts(out).expect("artifacts");
    println!(
        "artifacts written to {}/ (open sdg.html in a browser)",
        out.display()
    );
}
