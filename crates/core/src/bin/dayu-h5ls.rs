//! Inspect a file written by the format library — the `h5ls`/`h5dump`
//! counterpart for this repo's self-describing format.
//!
//! ```text
//! dayu-h5ls file.h5              # object tree with shapes/layouts
//! dayu-h5ls file.h5 --extents    # + file extents per dataset (fragmentation)
//! dayu-h5ls file.h5 --attrs      # + attributes
//! dayu-h5ls file.h5 --fsck       # structural integrity check first (exit 1 on findings)
//! dayu-h5ls file.h5 --fsck --repair  # replay the journal + prune damage, rewrite in place
//! ```
//!
//! Output goes through the same handled writer as `dayu-analyze`'s: a
//! reader that closes the pipe early ends it quietly with the command's
//! own exit code, and any other write error exits 1 with
//! `dayu-h5ls: cannot write: …`.

use dayu_hdf::{AttrValue, FileOptions, Group, H5File, LayoutKind};
use dayu_lint::{fsck_bytes, repair_bytes};
use dayu_trace::vol::ObjectKind;
use dayu_vfd::FileVfd;
use std::path::PathBuf;

mod out;
use out::Out;

fn usage() -> ! {
    eprintln!("usage: dayu-h5ls <file> [--extents] [--attrs] [--fsck] [--repair]");
    std::process::exit(2);
}

fn fmt_attr(v: &AttrValue) -> String {
    match v {
        AttrValue::U64(x) => x.to_string(),
        AttrValue::I64(x) => x.to_string(),
        AttrValue::F64(x) => x.to_string(),
        AttrValue::Str(s) => format!("{s:?}"),
        AttrValue::Bytes(b) => format!("<{} bytes>", b.len()),
    }
}

fn walk(out: &mut Out, group: &Group, indent: usize, extents: bool, attrs: bool) {
    let pad = "  ".repeat(indent);
    if attrs {
        for a in group.attrs().unwrap_or_default() {
            writeln!(out, "{pad}  @{} = {}", a.name, fmt_attr(&a.value));
        }
    }
    for (name, kind) in group.list().unwrap_or_default() {
        match kind {
            ObjectKind::Group => {
                writeln!(out, "{pad}{name}/");
                if let Ok(child) = group.open_group(&name) {
                    walk(out, &child, indent + 1, extents, attrs);
                }
            }
            _ => {
                let Ok(mut ds) = group.open_dataset(&name) else {
                    writeln!(out, "{pad}{name}  <unreadable>");
                    continue;
                };
                let layout = match ds.layout() {
                    LayoutKind::Compact => "compact",
                    LayoutKind::Contiguous => "contiguous",
                    LayoutKind::Chunked => "chunked",
                };
                writeln!(
                    out,
                    "{pad}{name}  shape {:?}  {:?}  {layout}",
                    ds.shape(),
                    ds.dtype()
                );
                if attrs {
                    for a in ds.attrs().unwrap_or_default() {
                        writeln!(out, "{pad}  @{} = {}", a.name, fmt_attr(&a.value));
                    }
                }
                if extents {
                    match ds.extents() {
                        Ok(ext) if ext.is_empty() => {
                            writeln!(out, "{pad}  extents: (none allocated)")
                        }
                        Ok(ext) => {
                            for (addr, len) in ext {
                                writeln!(out, "{pad}  extent [{addr}, {})", addr + len);
                            }
                        }
                        Err(e) => writeln!(out, "{pad}  extents: error: {e}"),
                    }
                }
                let _ = ds.close();
            }
        }
    }
}

fn main() {
    let mut path: Option<PathBuf> = None;
    let mut extents = false;
    let mut attrs = false;
    let mut fsck = false;
    let mut repair = false;
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--extents" => extents = true,
            "--attrs" => attrs = true,
            "--fsck" => fsck = true,
            "--repair" => repair = true,
            "-h" | "--help" => usage(),
            p if path.is_none() => path = Some(PathBuf::from(p)),
            _ => usage(),
        }
    }
    let Some(path) = path else { usage() };
    let mut out = Out::new("dayu-h5ls");
    if repair {
        // Journal replay + targeted pruning, in place. The repaired image
        // is only written back when something actually changed.
        let mut image = std::fs::read(&path).unwrap_or_else(|e| {
            eprintln!("cannot read {}: {e}", path.display());
            std::process::exit(1);
        });
        let report = repair_bytes(&mut image);
        write!(out, "{report}");
        if report.modified() {
            std::fs::write(&path, &image).unwrap_or_else(|e| {
                eprintln!("cannot write {}: {e}", path.display());
                std::process::exit(1);
            });
        }
        if !report.is_clean() {
            out.exit(1);
        }
    } else if fsck {
        // Run on the raw image before trying to open: a corrupt file may
        // not survive H5File::open, but fsck still pinpoints the damage.
        let image = std::fs::read(&path).unwrap_or_else(|e| {
            eprintln!("cannot read {}: {e}", path.display());
            std::process::exit(1);
        });
        let report = fsck_bytes(&image);
        if report.is_clean() {
            writeln!(out, "fsck: clean ({} bytes)", image.len());
        } else {
            writeln!(out, "fsck: {} finding(s)", report.len());
            for f in &report.findings {
                writeln!(out, "  [{}] {f}", f.category());
            }
            out.exit(1);
        }
    }
    let vfd = FileVfd::open(&path).unwrap_or_else(|e| {
        eprintln!("cannot open {}: {e}", path.display());
        std::process::exit(1);
    });
    let name = path.file_name().and_then(|s| s.to_str()).unwrap_or("file");
    let file = H5File::open(vfd, name, FileOptions::default()).unwrap_or_else(|e| {
        eprintln!("not a valid file: {e}");
        std::process::exit(1);
    });
    writeln!(
        out,
        "{name}  ({} bytes allocated, {} free)",
        file.eof(),
        file.free_space()
    );
    writeln!(out, "/");
    walk(&mut out, &file.root(), 1, extents, attrs);
    let _ = file.close();
    out.exit(0);
}
