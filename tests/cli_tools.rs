//! Integration tests for the command-line tools (`dayu-analyze`,
//! `dayu-h5ls`): write real artifacts to disk, invoke the binaries, check
//! their output.

use dayu::prelude::*;
use std::path::PathBuf;
use std::process::Command;
use std::sync::Once;

/// `target/<profile>/<name>`, next to the test executable's directory.
/// The binaries belong to `dayu-core`, and `cargo test` builds only the
/// tested packages' binaries, so the first call builds them in this
/// test's profile.
fn bin(name: &str) -> PathBuf {
    static BUILT: Once = Once::new();
    let mut p = std::env::current_exe().unwrap();
    p.pop(); // the test executable
    p.pop(); // deps/
    BUILT.call_once(|| {
        let mut cargo = Command::new(env!("CARGO"));
        cargo
            .args(["build", "--quiet", "-p", "dayu-core", "--bins"])
            .current_dir(env!("CARGO_MANIFEST_DIR"));
        if p.ends_with("release") {
            cargo.arg("--release");
        }
        let status = cargo.status().expect("run cargo build");
        assert!(status.success(), "cargo build -p dayu-core --bins failed");
    });
    p.push(name);
    p
}

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("dayu-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn dayu_h5ls_lists_a_real_file() {
    let dir = tmp_dir("h5ls");
    let path = dir.join("sample.h5");
    {
        let vfd = dayu_core::vfd::FileVfd::create(&path).unwrap();
        let f = H5File::create(vfd, "sample.h5", FileOptions::default()).unwrap();
        let g = f.root().create_group("observations").unwrap();
        let mut ds = g
            .create_dataset(
                "radar",
                DatasetBuilder::new(DataType::Float { width: 8 }, &[32, 8]).chunks(&[8, 8]),
            )
            .unwrap();
        ds.write_f64s(&vec![1.0; 256]).unwrap();
        ds.set_attr("station", AttrValue::Str("KOUN".into()))
            .unwrap();
        ds.close().unwrap();
        f.close().unwrap();
    }

    let out = Command::new(bin("dayu-h5ls"))
        .arg(&path)
        .args(["--extents", "--attrs"])
        .output()
        .expect("run dayu-h5ls");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("observations/"), "{text}");
    assert!(text.contains("radar"), "{text}");
    assert!(text.contains("chunked"), "{text}");
    assert!(text.contains("shape [32, 8]"), "{text}");
    assert!(text.contains("@station = \"KOUN\""), "{text}");
    assert!(text.contains("extent ["), "{text}");
    std::fs::remove_dir_all(dir).unwrap();
}

/// `dayu-h5ls` writes through `dayu-analyze`'s handled writer: a reader
/// that closes the pipe after one line ends the listing quietly with the
/// command's own exit code, and a full device exits 1 naming the command.
#[test]
fn dayu_h5ls_output_stops_quietly_when_the_reader_closes_the_pipe() {
    use std::io::BufRead;
    use std::process::Stdio;

    // 4096 chunks, one `extent` line each: over 100 KiB of listing, more
    // than any default pipe buffers, so its writes outlast the reader.
    let dir = tmp_dir("h5ls-pipe");
    let path = dir.join("many_chunks.h5");
    {
        let vfd = dayu_core::vfd::FileVfd::create(&path).unwrap();
        let f = H5File::create(vfd, "many_chunks.h5", FileOptions::default()).unwrap();
        let mut ds = f
            .root()
            .create_dataset(
                "line",
                DatasetBuilder::new(DataType::Int { width: 1 }, &[1 << 16]).chunks(&[16]),
            )
            .unwrap();
        ds.write(&vec![7; 1 << 16]).unwrap();
        ds.close().unwrap();
        f.close().unwrap();
    }
    let path = path.to_str().unwrap();
    for args in [
        vec![path, "--extents", "--attrs"],
        vec![path, "--fsck", "--extents"],
    ] {
        let mut child = Command::new(bin("dayu-h5ls"))
            .args(&args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        let mut line = String::new();
        // The reader is dropped, and the pipe closed, after one line.
        std::io::BufReader::new(child.stdout.take().unwrap())
            .read_line(&mut line)
            .unwrap();
        assert!(!line.is_empty(), "{args:?}");
        let out = child.wait_with_output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        assert_eq!(out.status.code(), Some(0), "{args:?}: {err}");
        assert!(err.is_empty(), "{args:?}: {err}");
    }

    // A full device is an error, not a closed reader.
    if let Ok(full) = std::fs::OpenOptions::new().write(true).open("/dev/full") {
        let out = Command::new(bin("dayu-h5ls"))
            .args([path, "--extents"])
            .stdout(full)
            .output()
            .unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{err}");
        assert!(err.starts_with("dayu-h5ls: cannot write: "), "{err}");
    }
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn dayu_h5ls_rejects_garbage() {
    let dir = tmp_dir("h5ls-bad");
    let path = dir.join("garbage.h5");
    std::fs::write(&path, vec![0u8; 256]).unwrap();
    let out = Command::new(bin("dayu-h5ls")).arg(&path).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("not a valid file"));
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn dayu_analyze_processes_a_trace() {
    let dir = tmp_dir("analyze");
    // Produce a trace with a known reuse finding.
    let fs = MemFs::new();
    let spec = WorkflowSpec::new("cli_wf")
        .stage(
            "w",
            vec![TaskSpec::new("writer", |io: &TaskIo| {
                let f = io.create("shared.h5")?;
                let mut ds = f.root().create_dataset(
                    "d",
                    DatasetBuilder::new(DataType::Int { width: 1 }, &[4096]),
                )?;
                ds.write(&[7; 4096])?;
                ds.close()?;
                f.close()
            })],
        )
        .stage("r", {
            (0..2)
                .map(|i| {
                    TaskSpec::new(format!("reader_{i}"), |io: &TaskIo| {
                        let f = io.open("shared.h5")?;
                        f.root().open_dataset("d")?.read()?;
                        f.close()
                    })
                })
                .collect()
        });
    let run = record(&spec, &fs).unwrap();
    let trace_path = dir.join("trace.dtb");
    std::fs::write(&trace_path, run.bundle.to_binary_bytes()).unwrap();

    let out_dir = dir.join("report");
    let out = Command::new(bin("dayu-analyze"))
        .arg(&trace_path)
        .args(["--regions", "4", "--aggregate", "--out"])
        .arg(&out_dir)
        .output()
        .expect("run dayu-analyze");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("workflow \"cli_wf\""), "{text}");
    assert!(text.contains("aggregated"), "{text}");
    assert!(text.contains("data-reuse"), "{text}");
    assert!(text.contains("recommendations"), "{text}");
    for name in ["ftg.html", "sdg.html", "ftg.dot", "sdg.json"] {
        assert!(out_dir.join(name).exists(), "{name} missing");
    }
    std::fs::remove_dir_all(dir).unwrap();
}

/// Walks the raw metadata of an on-disk file to the chunk index of
/// `observations/radar`, returning the index block's address.
fn chunk_index_addr(image: &[u8]) -> u64 {
    use dayu_hdf::meta::{self, LayoutMessage, ObjectHeader, Superblock};
    let sb = Superblock::decode(&image[..meta::SUPERBLOCK_SIZE as usize]).unwrap();
    let hdr = |addr: u64| {
        ObjectHeader::decode(&image[addr as usize..(addr + meta::HEADER_BLOCK_SIZE) as usize])
            .unwrap()
    };
    let table = |h: &ObjectHeader| {
        dayu_hdf::group::decode_table(
            &image[h.table_addr as usize..(h.table_addr + h.table_len) as usize],
        )
        .unwrap()
    };
    let root = hdr(sb.root_addr);
    let obs = table(&root)
        .into_iter()
        .find(|e| e.name == "observations")
        .unwrap();
    let radar = table(&hdr(obs.addr))
        .into_iter()
        .find(|e| e.name == "radar")
        .unwrap();
    match hdr(radar.addr).layout {
        Some(LayoutMessage::Chunked { index_addr, .. }) => index_addr,
        other => panic!("expected chunked layout, got {other:?}"),
    }
}

#[test]
fn dayu_h5ls_fsck_catches_corrupted_chunk_index() {
    let dir = tmp_dir("fsck");
    let path = dir.join("sample.h5");
    {
        let vfd = dayu_core::vfd::FileVfd::create(&path).unwrap();
        let f = H5File::create(vfd, "sample.h5", FileOptions::default()).unwrap();
        let g = f.root().create_group("observations").unwrap();
        let mut ds = g
            .create_dataset(
                "radar",
                DatasetBuilder::new(DataType::Float { width: 8 }, &[32, 8]).chunks(&[8, 8]),
            )
            .unwrap();
        ds.write_f64s(&vec![1.0; 256]).unwrap();
        ds.close().unwrap();
        f.close().unwrap();
    }

    // An intact file passes --fsck and still prints the listing.
    let out = Command::new(bin("dayu-h5ls"))
        .arg(&path)
        .arg("--fsck")
        .output()
        .expect("run dayu-h5ls");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("fsck: clean"), "{text}");
    assert!(text.contains("radar"), "{text}");

    // Point the first chunk-index entry far beyond the end of the file.
    let mut image = std::fs::read(&path).unwrap();
    let entry = chunk_index_addr(&image) as usize + 4;
    image[entry..entry + 8].copy_from_slice(&u64::MAX.to_le_bytes()[..8]);
    std::fs::write(&path, &image).unwrap();

    let out = Command::new(bin("dayu-h5ls"))
        .arg(&path)
        .arg("--fsck")
        .output()
        .unwrap();
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("chunk-out-of-bounds"), "{text}");
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn dayu_analyze_check_passes_clean_trace_and_flags_planted_hazard() {
    use dayu_trace::ids::{FileKey, ObjectKey, TaskKey};
    use dayu_trace::time::Timestamp;
    use dayu_trace::vfd::{AccessType, IoKind, VfdRecord};

    let dir = tmp_dir("check");

    // A clean recorded run is hazard-free.
    let fs = MemFs::new();
    let spec = WorkflowSpec::new("check_wf")
        .stage(
            "w",
            vec![TaskSpec::new("writer", |io: &TaskIo| {
                let f = io.create("out.h5")?;
                let mut ds = f
                    .root()
                    .create_dataset("d", DatasetBuilder::new(DataType::Int { width: 1 }, &[512]))?;
                ds.write(&[3; 512])?;
                ds.close()?;
                f.close()
            })],
        )
        .stage(
            "r",
            vec![TaskSpec::new("reader", |io: &TaskIo| {
                let f = io.open("out.h5")?;
                f.root().open_dataset("d")?.read()?;
                f.close()
            })],
        );
    let run = record(&spec, &fs).unwrap();
    let clean_path = dir.join("clean.dtb");
    std::fs::write(&clean_path, run.bundle.to_binary_bytes()).unwrap();
    let out = Command::new(bin("dayu-analyze"))
        .args(["check"])
        .arg(&clean_path)
        .output()
        .expect("run dayu-analyze check");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let records = run.bundle.vol.len() + run.bundle.vfd.len() + run.bundle.files.len();
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        format!(
            "{}: no findings ({records} records checked)\n",
            clean_path.display()
        )
    );

    // A trace whose reader observably started before the writer is flagged.
    let mut bundle = dayu_trace::TraceBundle::new("planted");
    for (task, kind, start, end) in [
        ("eager_reader", IoKind::Read, 0u64, 50),
        ("producer", IoKind::Write, 100, 200),
    ] {
        bundle.vfd.push(VfdRecord {
            task: TaskKey::new(task),
            file: FileKey::new("data.h5"),
            kind,
            offset: 0,
            len: 1024,
            access: AccessType::RawData,
            object: ObjectKey::new("/d"),
            start: Timestamp(start),
            end: Timestamp(end),
        });
    }
    let bad_path = dir.join("planted.dtb");
    std::fs::write(&bad_path, bundle.to_binary_bytes()).unwrap();
    let out = Command::new(bin("dayu-analyze"))
        .args(["check"])
        .arg(&bad_path)
        .output()
        .unwrap();
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("read-before-write"), "{text}");
    std::fs::remove_dir_all(dir).unwrap();
}

/// A reader that closes stdout after one line (`dayu-analyze … | head -1`)
/// ends the output quietly: no panic, and the exit code the command's
/// result decides, so `check` still exits 1 on its findings. Any other
/// write error exits 1 and names the command.
#[test]
fn dayu_analyze_output_stops_quietly_when_the_reader_closes_the_pipe() {
    use dayu_trace::{
        AccessType, FileKey, IoKind, ObjectKey, TaskKey, Timestamp, TraceBundle, VfdRecord,
    };
    use std::io::BufRead;
    use std::process::Stdio;

    // Each reader starts before its producer: one read-before-write
    // finding per pair. `dump` alone writes over 1 MiB, more than any
    // default pipe buffers, so its writes outlast the reader.
    const PAIRS: usize = 4000;
    let dir = tmp_dir("pipe");
    let mut bundle = TraceBundle::new("pipe_wf");
    for i in 0..PAIRS {
        let file = FileKey::new(format!("data_{i}.h5"));
        for (task, kind, start) in [
            ("reader", IoKind::Read, 0),
            ("producer", IoKind::Write, 100),
        ] {
            bundle.vfd.push(VfdRecord {
                task: TaskKey::new(format!("{task}_{i}")),
                file: file.clone(),
                kind,
                offset: 0,
                len: 1024,
                access: AccessType::RawData,
                object: ObjectKey::new("/d"),
                start: Timestamp(start),
                end: Timestamp(start + 50),
            });
        }
    }
    let dtb = dir.join("trace.dtb");
    std::fs::write(&dtb, bundle.to_binary_bytes()).unwrap();
    let path = dtb.to_str().unwrap();
    for (args, code) in [
        (vec![path], 0),
        (vec!["dump", path], 0),
        (vec!["check", path], 1),
    ] {
        let mut child = Command::new(bin("dayu-analyze"))
            .args(&args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        let mut line = String::new();
        // The reader is dropped, and the pipe closed, after one line.
        std::io::BufReader::new(child.stdout.take().unwrap())
            .read_line(&mut line)
            .unwrap();
        assert!(!line.is_empty(), "{args:?}");
        let out = child.wait_with_output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        assert_ne!(out.status.code(), Some(101), "{args:?}: {err}");
        assert_eq!(out.status.code(), Some(code), "{args:?}: {err}");
        assert!(err.is_empty(), "{args:?}: {err}");
    }

    // A full device is an error, not a closed reader.
    if let Ok(full) = std::fs::OpenOptions::new().write(true).open("/dev/full") {
        for (args, command) in [(vec![path], "dayu-analyze"), (vec!["dump", path], "dump")] {
            let out = Command::new(bin("dayu-analyze"))
                .args(&args)
                .stdout(full.try_clone().unwrap())
                .output()
                .unwrap();
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
            assert!(
                err.starts_with(&format!("{command}: cannot write: ")),
                "{args:?}: {err}"
            );
        }
    }
    std::fs::remove_dir_all(dir).unwrap();
}

/// `dump` prints a `.dtb` trace as its JSONL export, byte for byte, and
/// every subcommand that reads a trace refuses that export as input: the
/// CLI reads `.dtb` only.
#[test]
fn dayu_analyze_dump_exports_jsonl_that_no_command_reads() {
    use dayu_trace::{
        AccessType, FileKey, IoKind, ObjectKey, TaskKey, Timestamp, TraceBundle, VfdRecord,
    };
    let dir = tmp_dir("dump");
    let mut bundle = TraceBundle::new("dump_wf");
    bundle.push_task(TaskKey::new("writer"));
    bundle.vfd.push(VfdRecord {
        task: TaskKey::new("writer"),
        file: FileKey::new("out \"quoted\".h5"),
        kind: IoKind::Write,
        offset: 0,
        len: 64,
        access: AccessType::RawData,
        object: ObjectKey::new("/d"),
        start: Timestamp(1),
        end: Timestamp(2),
    });
    let dtb = dir.join("trace.dtb");
    std::fs::write(&dtb, bundle.to_binary_bytes()).unwrap();
    let out = Command::new(bin("dayu-analyze"))
        .arg("dump")
        .arg(&dtb)
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(out.stdout, bundle.to_jsonl_bytes());

    let jsonl = dir.join("trace.jsonl");
    std::fs::write(&jsonl, bundle.to_jsonl_bytes()).unwrap();
    let path = jsonl.to_str().unwrap();
    for args in [
        vec![path],
        vec!["dump", path],
        vec!["check", path],
        vec!["predict", "ddmd", "--compare", path],
        vec!["ingest", path, "--addr", "127.0.0.1:1"],
    ] {
        let out = Command::new(bin("dayu-analyze"))
            .args(&args)
            .output()
            .unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(
            err.contains(&format!(
                "cannot parse {path}: not a DaYu binary trace (bad magic)"
            )),
            "{args:?}: {err}"
        );
    }
    std::fs::remove_dir_all(dir).unwrap();
}

/// A zero-byte file holds no trace section: every command that reads a
/// trace refuses it instead of reading an empty trace.
#[test]
fn dayu_analyze_refuses_an_empty_trace() {
    let dir = tmp_dir("empty");
    let empty = dir.join("empty.dtb");
    std::fs::write(&empty, b"").unwrap();
    let path = empty.to_str().unwrap();
    for args in [
        vec![path],
        vec!["dump", path],
        vec![
            "check",
            path,
            "--deny",
            "extent-race",
            "--deny",
            "use-after-close",
        ],
        vec!["predict", "ddmd", "--compare", path],
        vec!["ingest", path, "--addr", "127.0.0.1:1"],
    ] {
        let out = Command::new(bin("dayu-analyze"))
            .args(&args)
            .output()
            .unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(
            err.contains(&format!(
                "cannot parse {path}: not a DaYu binary trace (empty input)"
            )),
            "{args:?}: {err}"
        );
    }
    std::fs::remove_dir_all(dir).unwrap();
}

/// `replay` of a bundle whose trace lost its last record: the replay does
/// one op more than the recording, exits 5 and names the task with the
/// text `diff` prints.
#[test]
fn dayu_analyze_replay_of_a_doctored_bundle_exits_5() {
    let dir = tmp_dir("replay-doctored");
    let drb = dir.join("run.drb");
    let out = Command::new(bin("dayu-analyze"))
        .args(["record", "ddmd", "--manual-clock", "--bundle"])
        .arg(&drb)
        .current_dir(&dir)
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let replay = || {
        let out = Command::new(bin("dayu-analyze"))
            .arg("replay")
            .arg(&drb)
            .output()
            .unwrap();
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stdout).into_owned(),
        )
    };
    let (code, text) = replay();
    assert_eq!(code, Some(0), "{text}");
    assert!(text.contains("replay validated"), "{text}");

    let mut bundle = ReplayBundle::read_file(&drb).unwrap();
    let dropped = bundle.trace.vfd.pop().expect("ddmd records I/O");
    let task = dropped.task.as_str();
    let index = bundle
        .trace
        .vfd
        .iter()
        .filter(|r| r.task == dropped.task)
        .count();
    bundle.write_file(&drb).unwrap();
    let (code, text) = replay();
    assert_eq!(code, Some(5), "{text}");
    assert!(
        text.contains("op streams diverge (run A: the recording, run B: the replay)"),
        "{text}"
    );
    assert!(
        text.contains(&format!(
            "first divergence: task \"{task}\" event {index}: run A's stream ended"
        )),
        "{text}"
    );
    assert!(
        text.contains(&format!("diverged tasks: {task}\n")),
        "{text}"
    );
    assert!(!text.contains("MISMATCH"), "{text}");
    std::fs::remove_dir_all(dir).unwrap();
}

/// `dayu-analyze record` exit-code contract: 0 — clean run; 3 — degraded
/// trace but every surviving image intact or repairable; 4 — at least one
/// image is beyond recovery (no valid superblock slot).
#[test]
fn dayu_analyze_record_exit_codes_track_damage() {
    // Clean run: exit 0.
    let out = Command::new(bin("dayu-analyze"))
        .args(["record", "ddmd"])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // A device dead from the first raw-data op with no retry budget:
    // every task fails, but each image is either empty (skipped by the
    // audit) or carries the intact superblock written before death —
    // degraded trace, repairable images, exit 3.
    let out = Command::new(bin("dayu-analyze"))
        .args([
            "record",
            "ddmd",
            "--chaos-seed",
            "1",
            "--dead-at",
            "0",
            "--retries",
            "1",
        ])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(3),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("degraded"), "{text}");

    // A torn crash at write-op 1 lands mid-superblock during file
    // bootstrap (write 0 is the root header, write 1 the first
    // superblock), so neither slot ever becomes valid: unrecoverable
    // corruption, exit 4.
    let out = Command::new(bin("dayu-analyze"))
        .args([
            "record",
            "ddmd",
            "--crash-seed",
            "1",
            "--crash-at",
            "1",
            "--retries",
            "1",
        ])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(4),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("UNRECOVERABLE"), "{text}");
}

/// Every subcommand rejects an unknown flag and a flag missing its value
/// as a usage error (exit 2), before it reads any file. So does `record`
/// for a flag whose qualifying flag is absent: it would otherwise be
/// dropped without a word. Neither `record` nor `predict` takes
/// `--io-engine`.
#[test]
fn dayu_analyze_usage_errors_exit_2() {
    let cases: &[&[&str]] = &[
        &["trace.dtb", "--bogus"],
        &["dump", "trace.dtb", "--bogus"],
        &["check", "trace.dtb", "--bogus"],
        &["predict", "ddmd", "--bogus"],
        &["record", "ddmd", "--bogus"],
        &["bundle", "verify", "run.drb", "--bogus"],
        &["replay", "run.drb", "--bogus"],
        &["diff", "a.drb", "b.drb", "--bogus"],
        &["serve", "--bogus"],
        &["ingest", "trace.dtb", "--bogus"],
        &["trace.dtb", "--regions"],
        &["check", "trace.dtb", "--deny"],
        &["predict", "ddmd", "--compare"],
        &["record", "ddmd", "--out"],
        &["record", "ddmd", "--chaos-seed"],
        &["serve", "--addr"],
        &["ingest", "trace.dtb", "--tenant"],
        &["record", "ddmd", "--fault-rate", "0.1"],
        &["record", "ddmd", "--dead-at", "0"],
        &["record", "ddmd", "--crash-at", "40"],
        &["record", "ddmd", "--io-engine", "batched"],
        &["predict", "ddmd", "--io-engine", "scalar"],
        &["record", "ddmd", "--format", "jsonl"],
        &["trace.dtb", "--format", "binary"],
        &["ingest", "trace.dtb", "--format", "binary"],
    ];
    for args in cases {
        let out = Command::new(bin("dayu-analyze"))
            .args(*args)
            .output()
            .unwrap();
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

/// The `reproduce with:` line a failed `record` prints, run verbatim,
/// records the same run: an equal manifest and the same op streams.
#[test]
fn dayu_analyze_reproduce_line_reproduces_the_run() {
    let dir = tmp_dir("reproduce");
    let record = |args: &[&str]| {
        let out = Command::new(bin("dayu-analyze"))
            .args(args)
            .current_dir(&dir)
            .output()
            .unwrap();
        let text = String::from_utf8_lossy(&out.stdout).into_owned();
        assert_eq!(out.status.code(), Some(3), "{args:?}: {text}");
        text
    };
    let text = record(&[
        "record",
        "ddmd",
        "--chaos-seed",
        "7",
        "--dead-at",
        "0",
        "--retries",
        "2",
        "--manual-clock",
    ]);
    let line = text
        .lines()
        .skip_while(|l| *l != "reproduce with:")
        .nth(1)
        .unwrap_or_else(|| panic!("no reproduce line: {text}"));
    let argv: Vec<&str> = line.split_whitespace().collect();
    assert_eq!(argv[0], "dayu-analyze", "{line}");
    let path = dir.join(argv[argv.len() - 1]);
    let first = ReplayBundle::read_file(&path).unwrap();
    assert_eq!(
        first.manifest.params,
        "--chaos-seed 7 --dead-at 0 --retries 2 --manual-clock"
    );
    record(&argv[1..]);
    let second = ReplayBundle::read_file(&path).unwrap();
    assert_eq!(second.manifest, first.manifest);
    assert!(diff_traces(&first.trace, &second.trace).is_empty());
    std::fs::remove_dir_all(dir).unwrap();
}

/// `dayu-h5ls --fsck --repair` rolls a torn journaled image forward to a
/// clean state in place.
#[test]
fn dayu_h5ls_repair_heals_a_torn_journaled_image() {
    use dayu_core::vfd::{CrashSchedule, CrashVfd, MemFs, Vfd};

    // Stages `image` into a fresh in-memory file and reads dataset "a".
    fn read_a(image: &[u8]) -> Option<Vec<u64>> {
        let mem = MemFs::new();
        let mut v = mem.create("x.h5");
        v.write(0, image, dayu_core::trace::AccessType::RawData)
            .ok()?;
        let f = H5File::open(mem.open_existing("x.h5")?, "x.h5", FileOptions::default()).ok()?;
        let mut a = f.root().open_dataset("a").ok()?;
        let data = a.read_u64s().ok()?;
        a.close().ok()?;
        f.close().ok()?;
        Some(data)
    }
    let dir = tmp_dir("h5ls-repair");
    let path = dir.join("torn.h5");

    // Build a torn image: journaled file, two commit epochs, crash swept
    // past bootstrap (write 0/1) until a point leaves the image dirty
    // but with its superblock intact.
    let torn_image = |crash_at: u64| -> Vec<u8> {
        let fs = MemFs::new();
        let ctrl = CrashSchedule::new(11)
            .with_crash_at(crash_at)
            .torn()
            .controller_for("t");
        let vfd = CrashVfd::with_controller(fs.create("torn.h5"), ctrl);
        let opts = FileOptions::default().with_durability(dayu_core::hdf::Durability::Journal);
        let body = || -> dayu_core::hdf::Result<()> {
            let f = H5File::create(vfd, "torn.h5", opts)?;
            let mut a = f
                .root()
                .create_dataset("a", DatasetBuilder::new(DataType::Int { width: 8 }, &[32]))?;
            a.write_u64s(&[7; 32])?;
            a.close()?;
            f.flush()?;
            let mut b = f
                .root()
                .create_dataset("b", DatasetBuilder::new(DataType::Int { width: 8 }, &[32]))?;
            b.write_u64s(&[9; 32])?;
            b.close()?;
            f.close()
        };
        let _ = body();
        fs.snapshot("torn.h5").unwrap()
    };
    // Pick a point whose image is dirty *and* post-dates the first
    // commit (so repair must preserve the committed dataset "a").
    let image = (2..64)
        .map(torn_image)
        .find(|img| {
            if fsck_bytes(img).is_clean() {
                return false;
            }
            let mut scratch = img.clone();
            dayu_core::lint::repair_bytes(&mut scratch).is_clean()
                && read_a(&scratch).as_deref() == Some(&[7u64; 32][..])
        })
        .expect("some crash point must leave a dirty image with 'a' committed");
    std::fs::write(&path, &image).unwrap();

    let out = Command::new(bin("dayu-h5ls"))
        .arg(&path)
        .args(["--fsck", "--repair"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("clean after"), "{text}");

    // The repair persisted: the image on disk is now fsck-clean and the
    // committed dataset survived.
    let healed = std::fs::read(&path).unwrap();
    assert!(fsck_bytes(&healed).is_clean());
    assert_eq!(read_a(&healed).as_deref(), Some(&[7u64; 32][..]));
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn dayu_analyze_rejects_missing_and_garbage_input() {
    let out = Command::new(bin("dayu-analyze"))
        .arg("/nonexistent/trace.jsonl")
        .output()
        .unwrap();
    assert!(!out.status.success());

    let dir = tmp_dir("analyze-bad");
    let p = dir.join("bad.jsonl");
    std::fs::write(&p, "this is not json\n").unwrap();
    let out = Command::new(bin("dayu-analyze")).arg(&p).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot parse"));

    // Input shorter than the 8-byte magic: bytes that leave the magic are
    // bad magic, a real trace cut inside it is a truncated magic.
    let trace = dayu_trace::TraceBundle::new("short_wf").to_binary_bytes();
    for (name, bytes, why) in [
        (
            "abc.dtb",
            &b"abc"[..],
            "not a DaYu binary trace (bad magic)",
        ),
        (
            "cut.dtb",
            &trace[..5],
            "truncated .dtb magic (5 of 8 bytes)",
        ),
    ] {
        let p = dir.join(name);
        std::fs::write(&p, bytes).unwrap();
        let path = p.to_str().unwrap();
        for args in [vec![path], vec!["check", path]] {
            let out = Command::new(bin("dayu-analyze"))
                .args(&args)
                .output()
                .unwrap();
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
            assert_eq!(err, format!("cannot parse {path}: {why}\n"), "{args:?}");
        }
    }
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn dayu_analyze_serve_and_ingest_round_trip() {
    use std::io::{BufRead, BufReader, Read};

    let dir = tmp_dir("serve");
    let trace = dir.join("wf.dtb");
    {
        use dayu_trace::{
            AccessType, FileKey, IoKind, ObjectKey, TaskKey, Timestamp, TraceBundle, VfdRecord,
        };
        let mut b = TraceBundle::new("wf-serve");
        for t in ["produce", "consume"] {
            b.push_task(TaskKey::new(t));
        }
        for (i, (task, kind)) in [("produce", IoKind::Write), ("consume", IoKind::Read)]
            .iter()
            .enumerate()
        {
            b.vfd.push(VfdRecord {
                task: TaskKey::new(*task),
                file: FileKey::new("data.h5"),
                object: ObjectKey::new("/grid"),
                kind: *kind,
                offset: 0,
                len: 4096,
                access: AccessType::RawData,
                start: Timestamp(i as u64 * 100),
                end: Timestamp(i as u64 * 100 + 50),
            });
        }
        std::fs::write(&trace, b.to_binary_bytes()).unwrap();
    }

    // Port 0: the kernel picks a free port; the server prints the bound
    // address as its first output line.
    let mut child = Command::new(bin("dayu-analyze"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--idle-shutdown-ms",
            "1500",
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn dayu-analyze serve");
    let mut reader = BufReader::new(child.stdout.take().unwrap());
    let mut first = String::new();
    reader.read_line(&mut first).unwrap();
    let addr = first
        .trim()
        .strip_prefix("serving on ")
        .unwrap_or_else(|| panic!("unexpected serve banner: {first:?}"))
        .to_string();

    let out = Command::new(bin("dayu-analyze"))
        .arg("ingest")
        .arg(&trace)
        .args(["--addr", &addr])
        .output()
        .expect("run dayu-analyze ingest");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{text}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(text.contains("accepted"), "{text}");
    assert!(
        text.contains("2 accepted, 0 duplicates, 0 quarantined"),
        "{text}"
    );

    // Re-ingesting the same trace is acknowledged as duplicates, not
    // double-counted.
    let out = Command::new(bin("dayu-analyze"))
        .arg("ingest")
        .arg(&trace)
        .args(["--addr", &addr])
        .output()
        .unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{text}");
    assert!(text.contains("(duplicate)"), "{text}");
    assert!(text.contains("2 accepted, 2 duplicates"), "{text}");

    // The server idles out, prints per-tenant stats, and exits cleanly.
    let mut rest = String::new();
    reader.read_to_string(&mut rest).unwrap();
    let status = child.wait().unwrap();
    assert!(status.success(), "serve exited with {status}: {rest}");
    assert!(rest.contains("tenant wf-serve"), "{rest}");
    assert!(rest.contains("2 accepted"), "{rest}");
    std::fs::remove_dir_all(dir).unwrap();
}
