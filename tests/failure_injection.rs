//! Failure-path integration: storage faults under the full stack must
//! surface as errors (never panics or corruption), and the profiler's
//! traces must stay consistent — failed operations are not recorded.
//!
//! Fault accounting: only raw-data (payload-moving) operations advance the
//! chaos engine's op counter, so `FaultSchedule::new(0).with_dead_at(n)`
//! means "after `n` payload ops", independent of how much metadata traffic (superblock,
//! object headers) the format library generates around them. A device that
//! must refuse even the superblock write is modeled with
//! [`FaultSchedule::dead_on_arrival`].

use dayu::prelude::*;
use dayu_core::vfd::{FaultInjector, FaultSchedule, FaultyVfd, MemFs, MemVfd};

fn faulty_file(schedule: FaultSchedule) -> (Mapper, FaultInjector, dayu_core::hdf::Result<H5File>) {
    let mapper = Mapper::new("faulty");
    mapper.set_task("t");
    let inner = FaultyVfd::with_injector(MemVfd::new(), schedule.injector_for(""));
    let inj = inner.injector().clone();
    let file = H5File::create(
        mapper.wrap_vfd(inner, "f.h5"),
        "f.h5",
        mapper.file_options(),
    );
    (mapper, inj, file)
}

#[test]
fn data_death_spares_metadata_creation() {
    // with_dead_at(0): the very first raw-data op fails, but file creation is
    // metadata-only traffic and is not counted against the fault schedule.
    let (mapper, inj, file) = faulty_file(FaultSchedule::new(0).with_dead_at(0));
    let file = file.expect("metadata-only creation survives a data-dead device");
    assert_eq!(inj.data_ops(), 0, "creation moved no payload bytes");
    assert!(inj.meta_ops() > 0, "creation did go through the device");
    let result = (|| -> dayu_core::hdf::Result<()> {
        let mut ds = file
            .root()
            .create_dataset("d", DatasetBuilder::new(DataType::Int { width: 1 }, &[64]))?;
        ds.write(&[7u8; 64])?;
        ds.close()
    })();
    assert!(
        result.is_err(),
        "the first payload op must hit the dead device"
    );
    assert!(inj.is_dead());
    assert!(inj.faults_injected() >= 1);
    // The failed op was never recorded; what was recorded round-trips.
    let bundle = mapper.into_bundle();
    let bytes = bundle.to_binary_bytes();
    assert_eq!(TraceBundle::load(&bytes[..]).unwrap(), bundle);
}

#[test]
fn born_dead_device_fails_creation() {
    // dead_on_arrival refuses everything, metadata included: even the
    // superblock write fails, and the error names the chaos seed.
    let mapper = Mapper::new("faulty");
    mapper.set_task("t");
    let schedule = FaultSchedule::new(0xDEAD).dead_on_arrival();
    let inner = FaultyVfd::with_injector(MemVfd::new(), schedule.injector_for("t"));
    let file = H5File::create(
        mapper.wrap_vfd(inner, "f.h5"),
        "f.h5",
        mapper.file_options(),
    );
    let err = file.err().expect("superblock write must fail");
    assert!(err.to_string().contains("chaos seed"), "{err}");
    let bundle = mapper.into_bundle();
    // No data-moving ops were recorded (the open record may exist).
    assert_eq!(bundle.vfd.iter().filter(|r| r.kind.moves_data()).count(), 0);
}

#[test]
fn mid_write_fault_surfaces_and_trace_stays_consistent() {
    // Creation and the first 8 chunk writes succeed, then the device dies
    // mid dataset write (the 64 KiB payload spans 16 chunks of 4 KiB).
    let (mapper, _inj, file) = faulty_file(FaultSchedule::new(0).with_dead_at(8));
    let file = file.expect("creation is metadata-only and survives");
    let result = (|| -> dayu_core::hdf::Result<()> {
        let mut ds = file.root().create_dataset(
            "d",
            DatasetBuilder::new(DataType::Int { width: 1 }, &[1 << 16]).chunks(&[4096]),
        )?;
        ds.write(&vec![7u8; 1 << 16])?;
        ds.close()?;
        file.close()
    })();
    assert!(result.is_err(), "the injected fault must surface");

    let bundle = mapper.into_bundle();
    // Every recorded op is one that actually completed: offsets/lengths are
    // internally consistent and serialization round-trips.
    for r in &bundle.vfd {
        if r.kind.moves_data() {
            assert!(r.len > 0 || r.kind == dayu_core::trace::vfd::IoKind::Read);
            assert!(r.end >= r.start);
        }
    }
    let bytes = bundle.to_binary_bytes();
    let back = TraceBundle::load(&bytes[..]).unwrap();
    assert_eq!(back, bundle);
}

#[test]
fn transient_fault_is_retryable_at_the_application_level() {
    let mapper = Mapper::new("transient");
    mapper.set_task("t");
    let schedule = FaultSchedule::new(0).with_transient_at(12);
    let inner = FaultyVfd::with_injector(MemVfd::new(), schedule.injector_for(""));
    let file = H5File::create(
        mapper.wrap_vfd(inner, "f.h5"),
        "f.h5",
        mapper.file_options(),
    )
    .expect("creation is metadata-only, consumes no counted ops");
    let mut ds = file
        .root()
        .create_dataset("d", DatasetBuilder::new(DataType::Int { width: 8 }, &[64]))
        .unwrap();
    // Enough writes to be certain one crosses the injected op; exactly one
    // (the 13th payload write) fails, and retries succeed.
    let mut failures = 0;
    let mut last_ok = 0u64;
    for attempt in 0..20u64 {
        match ds.write_u64s(&[attempt; 64]) {
            Ok(()) => last_ok = attempt,
            Err(_) => failures += 1,
        }
    }
    assert_eq!(failures, 1, "exactly one injected failure");
    assert_eq!(last_ok, 19);
    assert_eq!(ds.read_u64s().unwrap(), vec![19u64; 64], "last write won");
    ds.close().unwrap();
    file.close().unwrap();
}

#[test]
fn workflow_task_failure_aborts_the_record_cleanly() {
    // A workflow whose second stage fails: record() returns the error and
    // the shared filesystem still holds stage-1 output intact.
    let fs = MemFs::new();
    let spec = WorkflowSpec::new("failing")
        .stage(
            "ok",
            vec![TaskSpec::new("producer", |io: &TaskIo| {
                let f = io.create("good.h5")?;
                let mut ds = f
                    .root()
                    .create_dataset("d", DatasetBuilder::new(DataType::Int { width: 1 }, &[8]))?;
                ds.write(&[1; 8])?;
                ds.close()?;
                f.close()
            })],
        )
        .stage(
            "bad",
            vec![TaskSpec::new("crasher", |io: &TaskIo| {
                io.open("does_not_exist.h5").map(|_| ())
            })],
        );
    let err = match record(&spec, &fs) {
        Err(e) => e,
        Ok(_) => panic!("record should fail"),
    };
    assert!(matches!(err, HdfError::NotFound(_)));
    // Stage-1 output survives and is readable.
    let f = H5File::open(fs.open("good.h5"), "good.h5", FileOptions::default()).unwrap();
    assert_eq!(
        f.root().open_dataset("d").unwrap().read().unwrap(),
        vec![1; 8]
    );
    f.close().unwrap();
}
