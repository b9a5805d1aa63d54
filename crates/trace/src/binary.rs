//! The `.dtb` compact binary trace store ("trace store v2"), the one
//! format traces persist in.
//!
//! A `.dtb` stream is a sequence of self-contained *sections*, one per
//! [`TraceBundle`] written — concatenating files produced by separately
//! profiled tasks merges them on read. Each section is:
//!
//! ```text
//! magic    8 bytes  89 'D' 'T' 'B' 0D 0A 1A <version>
//! table    varint count, then per string: varint length + UTF-8 bytes
//! frames   tag byte + frame body, repeated
//!          01 meta   (workflow id, page_size, task_order, degraded_tasks,
//!                     then the recovered set from v3, the stage lists
//!                     from v2 and the origin from v4)
//!          02 vol    (one VolRecord)
//!          03 vfd    (one VfdRecord)
//!          04 file   (one FileRecord)
//!          00 end of section
//! ```
//!
//! Every integer is an LEB128 varint, with the encoding, sanity caps and
//! error texts of [`crate::wire`]'s codec (the one `.drb` and the served
//! wire protocol use); every name (task, file, object, workflow) is a
//! varint index into the section's string table — the persisted form of
//! the process-wide interner ([`crate::intern`]). The magic's first byte
//! is 0x89, non-ASCII like PNG's, so no text file (a JSONL export
//! included) passes for a trace.
//!
//! Unknown versions and truncated frames are `InvalidData` errors: the
//! format carries no per-frame lengths, so a reader cannot skip content it
//! does not understand. Bump the version byte for any layout change.
//!
//! **Writing** takes two passes over the bundle. The first gives every
//! name its table id in first-use order, in a dense table indexed by
//! [`Symbol::index`]; the second encodes the frames into a small buffer
//! that goes to the writer a few KiB at a time.
//!
//! **Reading** decodes runs of whole VOL, VFD and FILE frames straight
//! from the bytes [`BufRead::fill_buf`] already holds. A frame that run
//! cannot finish — a meta or end frame, one cut by the buffer's end or by
//! truncation, one with an invalid tag, string id or varint — is read
//! again from its tag byte by the careful reader, a field at a time
//! through [`crate::wire`]. The careful reader is the only source of
//! errors, so the offset a failure leaves the reader at and its message
//! do not depend on where the buffer ended. Both readers run the same
//! frame decoders, over the `Fields` of the buffer or of the reader.
//!
//! **Header memo.** Every section [`TraceBundle::split_per_task`] cuts
//! repeats the bundle's meta frame and, at the front of its string table,
//! the names that frame uses. A [`HeaderMemo`] keeps the last section's
//! table as symbols and the last meta frame it decoded, with the meta
//! behind an [`Arc`]. Reading through a memo, a table entry whose bytes
//! spell its memo entry's name takes that symbol without interning, and a
//! meta frame takes the memo's meta when its bytes, the section version
//! and the table entries up to the highest id the frame names all match
//! the memo's. Those keys fix what a fresh decode builds, so the memo is a
//! pure cache: a memo left by any earlier section yields the fresh result,
//! and reading without one ([`stream_bundles`]) is unchanged.

use crate::ids::{FileKey, ObjectKey, TaskKey};
use crate::intern::Symbol;
use crate::store::{RecordSink, TraceBundle, TraceMeta, TraceOrigin};
use crate::time::{Interval, Timestamp};
use crate::vfd::{AccessType, FileRecord, FileStats, IoKind, VfdRecord};
use crate::vol::{
    DataType, LayoutKind, ObjectDescription, ObjectKind, VolAccess, VolAccessKind, VolRecord,
};
use crate::wire::{bad, read_len, read_u8, read_varint, LEN_CAP};
use std::cell::Cell;
use std::io::{self, BufRead, Write};
use std::sync::Arc;

/// Section magic; the trailing byte is the format version this build
/// *writes*. The reader additionally accepts [`VERSION_V1`] through
/// [`VERSION_V3`] sections, which differ only by the absence of stage lists
/// (v1), recovered-task sets (v1, v2) and trace provenance (v1–v3) in the
/// meta frame.
pub const MAGIC: [u8; 8] = [0x89, b'D', b'T', b'B', 0x0D, 0x0A, 0x1A, 0x04];

/// The pre-stage-membership format version, still readable.
pub const VERSION_V1: u8 = 0x01;

/// The pre-crash-recovery format version, still readable.
pub const VERSION_V2: u8 = 0x02;

/// The pre-provenance format version, still readable.
pub const VERSION_V3: u8 = 0x03;

const TAG_END: u8 = 0x00;
const TAG_META: u8 = 0x01;
const TAG_VOL: u8 = 0x02;
const TAG_VFD: u8 = 0x03;
const TAG_FILE: u8 = 0x04;

// ---------------------------------------------------------------- writer

/// Encoded bytes the writer gathers before one `write_all`.
const SPILL_AT: usize = 8 << 10;

/// Appends `v` as an LEB128 varint, the bytes [`crate::wire::write_varint`]
/// writes.
#[inline(always)]
fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

fn put_usize(buf: &mut Vec<u8>, v: usize) {
    put_varint(buf, v as u64);
}

/// Maps process-wide symbols to dense per-section string-table ids.
#[derive(Default)]
struct TableBuilder {
    /// Indexed by [`Symbol::index`]: the symbol's table id plus one, or 0
    /// for a symbol not in the table.
    ids: Vec<u32>,
    strings: Vec<&'static str>,
}

impl TableBuilder {
    fn add(&mut self, sym: Symbol) {
        let i = sym.index() as usize;
        if i >= self.ids.len() {
            self.ids.resize(i + 1, 0);
        }
        if self.ids[i] == 0 {
            self.strings.push(sym.as_str());
            self.ids[i] = self.strings.len() as u32;
        }
    }

    /// Appends the table id of `sym`, which [`Self::add`] has seen.
    #[inline(always)]
    fn put(&self, buf: &mut Vec<u8>, sym: Symbol) {
        put_varint(buf, u64::from(self.ids[sym.index() as usize] - 1));
    }
}

/// Collects the section string table: every name in the bundle, in first-use
/// order (workflow name first), deduplicated.
fn build_table(bundle: &TraceBundle) -> TableBuilder {
    let mut t = TableBuilder::default();
    t.add(Symbol::intern(&bundle.meta.workflow));
    for k in &bundle.meta.task_order {
        t.add(k.symbol());
    }
    for k in &bundle.meta.degraded_tasks {
        t.add(k.symbol());
    }
    for k in &bundle.meta.recovered_tasks {
        t.add(k.symbol());
    }
    for stage in &bundle.meta.stages {
        for k in stage {
            t.add(k.symbol());
        }
    }
    if let Some(origin) = &bundle.meta.origin {
        t.add(Symbol::intern(&origin.workload));
        t.add(Symbol::intern(&origin.params));
        t.add(Symbol::intern(&origin.tool_version));
    }
    for r in &bundle.vol {
        t.add(r.task.symbol());
        t.add(r.file.symbol());
        t.add(r.object.symbol());
    }
    for r in &bundle.vfd {
        t.add(r.task.symbol());
        t.add(r.file.symbol());
        t.add(r.object.symbol());
    }
    for r in &bundle.files {
        t.add(r.task.symbol());
        t.add(r.file.symbol());
    }
    t
}

fn put_tasks(buf: &mut Vec<u8>, t: &TableBuilder, tasks: &[TaskKey]) {
    put_usize(buf, tasks.len());
    for k in tasks {
        t.put(buf, k.symbol());
    }
}

fn put_intervals(buf: &mut Vec<u8>, ivs: &[Interval]) {
    put_usize(buf, ivs.len());
    for iv in ivs {
        put_varint(buf, iv.start.nanos());
        put_varint(buf, iv.end.nanos());
    }
}

fn put_dims(buf: &mut Vec<u8>, dims: &[u64]) {
    put_usize(buf, dims.len());
    for d in dims {
        put_varint(buf, *d);
    }
}

fn put_meta(buf: &mut Vec<u8>, t: &TableBuilder, meta: &TraceMeta) {
    buf.push(TAG_META);
    t.put(buf, Symbol::intern(&meta.workflow));
    put_varint(buf, meta.page_size);
    put_tasks(buf, t, &meta.task_order);
    put_tasks(buf, t, &meta.degraded_tasks);
    put_tasks(buf, t, &meta.recovered_tasks);
    put_usize(buf, meta.stages.len());
    for stage in &meta.stages {
        put_tasks(buf, t, stage);
    }
    match &meta.origin {
        None => buf.push(0),
        Some(origin) => {
            buf.push(1);
            t.put(buf, Symbol::intern(&origin.workload));
            t.put(buf, Symbol::intern(&origin.params));
            t.put(buf, Symbol::intern(&origin.tool_version));
        }
    }
}

fn put_vol(buf: &mut Vec<u8>, t: &TableBuilder, r: &VolRecord) {
    buf.push(TAG_VOL);
    t.put(buf, r.task.symbol());
    t.put(buf, r.file.symbol());
    t.put(buf, r.object.symbol());
    buf.push(match r.kind {
        ObjectKind::File => 0,
        ObjectKind::Group => 1,
        ObjectKind::Dataset => 2,
        ObjectKind::Attribute => 3,
    });
    put_intervals(buf, &r.lifetimes);
    // Description.
    put_dims(buf, &r.description.shape);
    match r.description.dtype {
        None => buf.push(0),
        Some(DataType::Int { width }) => {
            buf.push(1);
            put_varint(buf, u64::from(width));
        }
        Some(DataType::Float { width }) => {
            buf.push(2);
            put_varint(buf, u64::from(width));
        }
        Some(DataType::FixedBytes { len }) => {
            buf.push(3);
            put_varint(buf, u64::from(len));
        }
        Some(DataType::VarLen) => buf.push(4),
    }
    put_varint(buf, r.description.logical_size);
    buf.push(match r.description.layout {
        None => 0,
        Some(LayoutKind::Compact) => 1,
        Some(LayoutKind::Contiguous) => 2,
        Some(LayoutKind::Chunked) => 3,
    });
    put_dims(buf, &r.description.chunk_shape);
    // Accesses.
    put_usize(buf, r.accesses.len());
    for a in &r.accesses {
        buf.push(match a.kind {
            VolAccessKind::Read => 0,
            VolAccessKind::Write => 1,
        });
        put_varint(buf, a.count);
        put_varint(buf, a.bytes);
        put_dims(buf, &a.sel_offset);
        put_dims(buf, &a.sel_count);
        put_varint(buf, a.at.nanos());
    }
}

fn put_vfd(buf: &mut Vec<u8>, t: &TableBuilder, r: &VfdRecord) {
    buf.push(TAG_VFD);
    t.put(buf, r.task.symbol());
    t.put(buf, r.file.symbol());
    t.put(buf, r.object.symbol());
    buf.push(match r.kind {
        IoKind::Read => 0,
        IoKind::Write => 1,
        IoKind::Open => 2,
        IoKind::Close => 3,
        IoKind::Flush => 4,
        IoKind::Truncate => 5,
    });
    buf.push(match r.access {
        AccessType::Metadata => 0,
        AccessType::RawData => 1,
    });
    put_varint(buf, r.offset);
    put_varint(buf, r.len);
    put_varint(buf, r.start.nanos());
    // Durations are tiny next to absolute timestamps: delta-encode the end.
    put_varint(buf, r.end.nanos().saturating_sub(r.start.nanos()));
}

fn put_file(buf: &mut Vec<u8>, t: &TableBuilder, r: &FileRecord) {
    buf.push(TAG_FILE);
    t.put(buf, r.task.symbol());
    t.put(buf, r.file.symbol());
    put_intervals(buf, &r.lifetimes);
    for v in [
        r.stats.read_ops,
        r.stats.write_ops,
        r.stats.bytes_read,
        r.stats.bytes_written,
        r.stats.sequential_ops,
        r.stats.metadata_ops,
        r.stats.metadata_bytes,
        r.stats.max_address,
    ] {
        put_varint(buf, v);
    }
}

/// Hands `buf` to `w` once it holds [`SPILL_AT`] bytes.
fn spill<W: Write>(buf: &mut Vec<u8>, w: &mut W) -> io::Result<()> {
    if buf.len() >= SPILL_AT {
        w.write_all(buf)?;
        buf.clear();
    }
    Ok(())
}

/// Writes one complete `.dtb` section for `bundle`.
pub fn write_bundle<W: Write>(bundle: &TraceBundle, w: &mut W) -> io::Result<()> {
    let table = build_table(bundle);
    let mut buf = Vec::with_capacity(SPILL_AT + 256);
    buf.extend_from_slice(&MAGIC);
    put_usize(&mut buf, table.strings.len());
    for s in &table.strings {
        put_usize(&mut buf, s.len());
        buf.extend_from_slice(s.as_bytes());
        spill(&mut buf, w)?;
    }
    put_meta(&mut buf, &table, &bundle.meta);
    for r in &bundle.vol {
        put_vol(&mut buf, &table, r);
        spill(&mut buf, w)?;
    }
    for r in &bundle.vfd {
        put_vfd(&mut buf, &table, r);
        spill(&mut buf, w)?;
    }
    for r in &bundle.files {
        put_file(&mut buf, &table, r);
        spill(&mut buf, w)?;
    }
    buf.push(TAG_END);
    w.write_all(&buf)
}

// ---------------------------------------------------------------- reader

/// Where the frame decoders read their fields from: a [`Careful`] reader,
/// or a [`Buffered`] cursor over bytes a reader already holds.
trait Fields {
    /// `io::Error` for the careful reader, [`Bail`] for the cursor.
    type Err;
    fn u8(&mut self) -> Result<u8, Self::Err>;
    fn varint(&mut self) -> Result<u64, Self::Err>;
    /// A length field, rejected above `cap`.
    fn len(&mut self, what: &str, cap: u64) -> Result<usize, Self::Err>;
    /// The error for a field read in full but invalid; only the careful
    /// reader builds the message.
    fn invalid(msg: impl FnOnce() -> String) -> Self::Err;
}

/// Reads fields a byte at a time through [`crate::wire`], across buffer
/// refills, and reports every fault with `wire`'s error texts.
struct Careful<'r, R>(&'r mut R);

impl<R: BufRead> Fields for Careful<'_, R> {
    type Err = io::Error;

    fn u8(&mut self) -> io::Result<u8> {
        read_u8(self.0)
    }

    fn varint(&mut self) -> io::Result<u64> {
        read_varint(self.0)
    }

    fn len(&mut self, what: &str, cap: u64) -> io::Result<usize> {
        read_len(self.0, what, cap)
    }

    fn invalid(msg: impl FnOnce() -> String) -> io::Error {
        bad(msg())
    }
}

/// The [`Buffered`] cursor gave up on a frame: it ran past the buffer or
/// met a field the careful reader will report.
struct Bail;

/// A cursor over the bytes a reader has buffered.
struct Buffered<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Fields for Buffered<'_> {
    type Err = Bail;

    #[inline(always)]
    fn u8(&mut self) -> Result<u8, Bail> {
        let b = *self.buf.get(self.pos).ok_or(Bail)?;
        self.pos += 1;
        Ok(b)
    }

    /// Accepts exactly the varints [`read_varint`] accepts.
    #[inline(always)]
    fn varint(&mut self) -> Result<u64, Bail> {
        let b = self.u8()?;
        if b < 0x80 {
            return Ok(u64::from(b));
        }
        let mut v = u64::from(b & 0x7F);
        let mut shift = 7u32;
        loop {
            let b = self.u8()?;
            if shift >= 63 && b > 1 {
                return Err(Bail);
            }
            v |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    #[inline(always)]
    fn len(&mut self, _what: &str, cap: u64) -> Result<usize, Bail> {
        match self.varint()? {
            v if v > cap => Err(Bail),
            v => Ok(v as usize),
        }
    }

    #[inline(always)]
    fn invalid(_msg: impl FnOnce() -> String) -> Bail {
        Bail
    }
}

/// Per-section string table, re-interned into the process pool on read.
struct Table {
    syms: Vec<Symbol>,
}

/// Resolves a frame's string ids against a section's table.
trait Names {
    /// The symbol of table id `id`, if the table has one.
    fn get(&self, id: u64) -> Option<Symbol>;

    #[inline(always)]
    fn sym<F: Fields>(&self, f: &mut F) -> Result<Symbol, F::Err> {
        let id = f.varint()?;
        self.get(id)
            .ok_or_else(|| F::invalid(|| format!("string id {id} out of table range")))
    }

    fn tasks<F: Fields>(&self, f: &mut F, what: &str) -> Result<Vec<TaskKey>, F::Err> {
        let n = f.len(what, LEN_CAP)?;
        let mut out = Vec::with_capacity(n.min(65536));
        for _ in 0..n {
            out.push(TaskKey::from_symbol(self.sym(f)?));
        }
        Ok(out)
    }
}

impl Names for Table {
    #[inline(always)]
    fn get(&self, id: u64) -> Option<Symbol> {
        self.syms.get(id as usize).copied()
    }
}

/// A table that notes how far into it a frame's string ids reach.
struct Noting<'t> {
    table: &'t Table,
    /// One past the highest id resolved.
    reach: Cell<usize>,
}

impl Names for Noting<'_> {
    fn get(&self, id: u64) -> Option<Symbol> {
        let sym = self.table.get(id)?;
        self.reach.set(self.reach.get().max(id as usize + 1));
        Some(sym)
    }
}

/// The header of the last section read through it: the string table's
/// symbols, and the last meta frame decoded afresh with its meta. One
/// per stream of related sections (the ingest service keeps one per
/// tenant); see the module docs for when an entry is reused.
#[derive(Clone, Debug, Default)]
pub struct HeaderMemo {
    /// The last section's string table.
    table: Vec<Symbol>,
    meta: Option<MemoMeta>,
}

/// A meta frame and what it decodes to.
#[derive(Clone, Debug)]
struct MemoMeta {
    /// The section version it was read under.
    version: u8,
    /// The frame's bytes, from its tag byte.
    frame: Vec<u8>,
    /// Its section's table up to the highest id the frame names.
    names: Vec<Symbol>,
    /// The frame's meta, in [`TraceMeta::into_first`] form.
    meta: Arc<TraceMeta>,
}

impl HeaderMemo {
    /// The meta of the meta frame at the reader's position, read from the
    /// memo or decoded from the reader's buffer, with the frame consumed.
    /// `None`, consuming nothing, when no meta frame starts there or the
    /// buffer cannot finish one: the careful reader takes it from there.
    fn meta_frame<R: BufRead>(
        &mut self,
        r: &mut R,
        t: &Table,
        version: u8,
    ) -> Option<Arc<TraceMeta>> {
        let buf = r.fill_buf().ok()?;
        if buf.first() != Some(&TAG_META) {
            return None;
        }
        if let Some(m) = &self.meta {
            if m.version == version
                && buf.starts_with(&m.frame)
                && t.syms.get(..m.names.len()) == Some(&m.names[..])
            {
                let meta = Arc::clone(&m.meta);
                r.consume(m.frame.len());
                return Some(meta);
            }
        }
        let names = Noting {
            table: t,
            reach: Cell::new(0),
        };
        let mut f = Buffered { buf, pos: 1 };
        let meta = Arc::new(read_meta(&mut f, &names, version).ok()?.into_first());
        let len = f.pos;
        self.meta = Some(MemoMeta {
            version,
            frame: buf[..len].to_vec(),
            names: t.syms[..names.reach.get()].to_vec(),
            meta: Arc::clone(&meta),
        });
        r.consume(len);
        Some(meta)
    }
}

/// Tighter cap for a single string-table entry. Strings are task, file,
/// object and workflow names; unlike the collection caps (which bound loop
/// counts, not buffers), this one bounds a real upfront allocation
/// (`scratch.resize`), so a flipped length varint must not be able to
/// demand gigabytes before the subsequent read fails.
const STRING_CAP: u64 = 1 << 20;

fn read_intervals<F: Fields>(f: &mut F) -> Result<Vec<Interval>, F::Err> {
    let n = f.len("interval list", LEN_CAP)?;
    let mut out = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let start = Timestamp(f.varint()?);
        let end = Timestamp(f.varint()?);
        out.push(Interval::new(start, end));
    }
    Ok(out)
}

fn read_dims<F: Fields>(f: &mut F) -> Result<Vec<u64>, F::Err> {
    let n = f.len("dimension list", LEN_CAP)?;
    let mut out = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        out.push(f.varint()?);
    }
    Ok(out)
}

/// Reads a varint into a narrower field, rejecting values that do not fit
/// rather than truncating them.
fn read_field<F: Fields, T: TryFrom<u64>>(f: &mut F, what: &str) -> Result<T, F::Err> {
    let v = f.varint()?;
    T::try_from(v).map_err(|_| F::invalid(|| format!("{what} {v} out of range")))
}

/// The body of a meta frame; `version` says which of the later fields the
/// section carries.
fn read_meta<F: Fields, N: Names>(f: &mut F, t: &N, version: u8) -> Result<TraceMeta, F::Err> {
    let workflow = t.sym(f)?.as_str().to_owned();
    let page_size = f.varint()?;
    let task_order = t.tasks(f, "task order")?;
    let degraded_tasks = t.tasks(f, "degraded set")?;
    let mut recovered_tasks = Vec::new();
    if version >= 0x03 {
        recovered_tasks = t.tasks(f, "recovered set")?;
    }
    let mut stages = Vec::new();
    if version >= 0x02 {
        let n = f.len("stage list", LEN_CAP)?;
        stages.reserve(n.min(65536));
        for _ in 0..n {
            stages.push(t.tasks(f, "stage")?);
        }
    }
    let mut origin = None;
    if version >= 0x04 {
        match f.u8()? {
            0 => {}
            1 => {
                origin = Some(TraceOrigin {
                    workload: t.sym(f)?.as_str().to_owned(),
                    params: t.sym(f)?.as_str().to_owned(),
                    tool_version: t.sym(f)?.as_str().to_owned(),
                });
            }
            other => return Err(F::invalid(|| format!("bad origin presence byte {other}"))),
        }
    }
    Ok(TraceMeta {
        workflow,
        task_order,
        page_size,
        degraded_tasks,
        recovered_tasks,
        stages,
        origin,
    })
}

fn read_vol<F: Fields>(f: &mut F, t: &Table) -> Result<VolRecord, F::Err> {
    let task = TaskKey::from_symbol(t.sym(f)?);
    let file = FileKey::from_symbol(t.sym(f)?);
    let object = ObjectKey::from_symbol(t.sym(f)?);
    let kind = match f.u8()? {
        0 => ObjectKind::File,
        1 => ObjectKind::Group,
        2 => ObjectKind::Dataset,
        3 => ObjectKind::Attribute,
        other => return Err(F::invalid(|| format!("bad object kind {other}"))),
    };
    let lifetimes = read_intervals(f)?;
    let shape = read_dims(f)?;
    let dtype = match f.u8()? {
        0 => None,
        1 => Some(DataType::Int {
            width: read_field(f, "integer width")?,
        }),
        2 => Some(DataType::Float {
            width: read_field(f, "float width")?,
        }),
        3 => Some(DataType::FixedBytes {
            len: read_field(f, "fixed-bytes length")?,
        }),
        4 => Some(DataType::VarLen),
        other => return Err(F::invalid(|| format!("bad dtype tag {other}"))),
    };
    let logical_size = f.varint()?;
    let layout = match f.u8()? {
        0 => None,
        1 => Some(LayoutKind::Compact),
        2 => Some(LayoutKind::Contiguous),
        3 => Some(LayoutKind::Chunked),
        other => return Err(F::invalid(|| format!("bad layout tag {other}"))),
    };
    let chunk_shape = read_dims(f)?;
    let n = f.len("access list", LEN_CAP)?;
    let mut accesses = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let kind = match f.u8()? {
            0 => VolAccessKind::Read,
            1 => VolAccessKind::Write,
            other => return Err(F::invalid(|| format!("bad access kind {other}"))),
        };
        accesses.push(VolAccess {
            kind,
            count: f.varint()?,
            bytes: f.varint()?,
            sel_offset: read_dims(f)?,
            sel_count: read_dims(f)?,
            at: Timestamp(f.varint()?),
        });
    }
    Ok(VolRecord {
        task,
        file,
        object,
        kind,
        lifetimes,
        description: ObjectDescription {
            shape,
            dtype,
            logical_size,
            layout,
            chunk_shape,
        },
        accesses,
    })
}

#[inline(always)]
fn read_vfd<F: Fields>(f: &mut F, t: &Table) -> Result<VfdRecord, F::Err> {
    let task = TaskKey::from_symbol(t.sym(f)?);
    let file = FileKey::from_symbol(t.sym(f)?);
    let object = ObjectKey::from_symbol(t.sym(f)?);
    let kind = match f.u8()? {
        0 => IoKind::Read,
        1 => IoKind::Write,
        2 => IoKind::Open,
        3 => IoKind::Close,
        4 => IoKind::Flush,
        5 => IoKind::Truncate,
        other => return Err(F::invalid(|| format!("bad io kind {other}"))),
    };
    let access = match f.u8()? {
        0 => AccessType::Metadata,
        1 => AccessType::RawData,
        other => return Err(F::invalid(|| format!("bad access type {other}"))),
    };
    let offset = f.varint()?;
    let len = f.varint()?;
    let start = f.varint()?;
    let dur = f.varint()?;
    Ok(VfdRecord {
        task,
        file,
        object,
        kind,
        access,
        offset,
        len,
        start: Timestamp(start),
        end: Timestamp(start.saturating_add(dur)),
    })
}

// `FileStats` keeps its sequentiality cursor private, so the decoder fills
// the public statistics into a default value (the cursor legitimately
// resets across persistence; the JSONL export omits it too).
#[allow(clippy::field_reassign_with_default)]
fn read_file<F: Fields>(f: &mut F, t: &Table) -> Result<FileRecord, F::Err> {
    let task = TaskKey::from_symbol(t.sym(f)?);
    let file = FileKey::from_symbol(t.sym(f)?);
    let lifetimes = read_intervals(f)?;
    let mut stats = FileStats::default();
    stats.read_ops = f.varint()?;
    stats.write_ops = f.varint()?;
    stats.bytes_read = f.varint()?;
    stats.bytes_written = f.varint()?;
    stats.sequential_ops = f.varint()?;
    stats.metadata_ops = f.varint()?;
    stats.metadata_bytes = f.varint()?;
    stats.max_address = f.varint()?;
    Ok(FileRecord {
        task,
        file,
        lifetimes,
        stats,
    })
}

/// Reads a section's magic and string table. Input that ends inside the
/// magic is bad magic unless it holds the magic's own first bytes; then
/// it is a trace cut short, an `UnexpectedEof` at the cut. An entry whose
/// bytes spell the name of `last`'s entry at its position takes that
/// symbol.
fn read_header<R: BufRead>(r: &mut R, last: &[Symbol]) -> io::Result<(u8, Table)> {
    let mut magic = [0u8; 8];
    let mut got = 0;
    while got < magic.len() {
        match r.read(&mut magic[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let known = got.min(7);
    if magic[..known] != MAGIC[..known] {
        return Err(bad("not a DaYu binary trace (bad magic)"));
    }
    if got < magic.len() {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("truncated .dtb magic ({got} of {} bytes)", magic.len()),
        ));
    }
    let version = magic[7];
    if !(VERSION_V1..=MAGIC[7]).contains(&version) {
        return Err(bad(format!(
            "unsupported .dtb version {version} (this build reads {} through {})",
            VERSION_V1, MAGIC[7]
        )));
    }
    let n = read_len(r, "string table", LEN_CAP)?;
    let mut syms = Vec::with_capacity(n.min(65536));
    let mut scratch = Vec::new();
    for i in 0..n {
        let len = read_len(r, "string", STRING_CAP)?;
        scratch.resize(len, 0);
        r.read_exact(&mut scratch)?;
        let sym = match last.get(i) {
            Some(&sym) if sym.as_str().as_bytes() == scratch => sym,
            _ => {
                let s =
                    std::str::from_utf8(&scratch).map_err(|e| bad(format!("bad utf-8: {e}")))?;
                Symbol::intern(s)
            }
        };
        syms.push(sym);
    }
    Ok((version, Table { syms }))
}

/// Why [`buffered_frames`] stopped.
enum Stop {
    /// At a frame it leaves to [`careful_frame`].
    Careful,
    /// The sink refused a record; the frame that carried it is read.
    Sink(io::Error),
}

/// Decodes whole VOL, VFD and FILE frames from the front of `buf` into
/// `sink` until it meets one it cannot finish. Returns the bytes of the
/// frames it read and why it stopped. Generic over the sink only, and kept
/// out of line, so every reader type runs the same machine code.
#[inline(never)]
fn buffered_frames<S: RecordSink>(
    buf: &[u8],
    t: &Table,
    sink: &mut S,
    records: &mut u64,
) -> (usize, Stop) {
    let mut f = Buffered { buf, pos: 0 };
    loop {
        let at = f.pos;
        let delivered = match f.u8() {
            Ok(TAG_VFD) => read_vfd(&mut f, t).map(|r| sink.vfd(r)),
            Ok(TAG_VOL) => read_vol(&mut f, t).map(|r| sink.vol(r)),
            Ok(TAG_FILE) => read_file(&mut f, t).map(|r| sink.file(r)),
            _ => Err(Bail),
        };
        match delivered {
            Ok(Ok(())) => *records += 1,
            Ok(Err(e)) => return (f.pos, Stop::Sink(e)),
            Err(Bail) => return (at, Stop::Careful),
        }
    }
}

/// Reads one frame, from its tag byte, a field at a time. Returns whether
/// the section goes on (false after its end frame).
fn careful_frame<R: BufRead, S: RecordSink>(
    r: &mut R,
    t: &Table,
    version: u8,
    sink: &mut S,
    records: &mut u64,
) -> io::Result<bool> {
    let f = &mut Careful(r);
    match f.u8()? {
        TAG_END => return Ok(false),
        TAG_META => sink.meta(read_meta(f, t, version)?)?,
        TAG_VOL => {
            *records += 1;
            sink.vol(read_vol(f, t)?)?;
        }
        TAG_VFD => {
            *records += 1;
            sink.vfd(read_vfd(f, t)?)?;
        }
        TAG_FILE => {
            *records += 1;
            sink.file(read_file(f, t)?)?;
        }
        other => return Err(bad(format!("unknown frame tag {other:#04x}"))),
    }
    Ok(true)
}

/// Streams a `.dtb` stream into `sink` frame by frame, never holding more
/// than one record beyond the reader's buffer. Section meta frames
/// (including v1 sections, which carry no stage lists) are delivered
/// through [`RecordSink::meta`]; returns the number of data records
/// delivered. An input that holds no section is `InvalidData`: every
/// writer emits at least one, so an empty file is a lost trace, not an
/// empty one. A failure leaves the reader just past the bytes the careful
/// reader consumed before giving up, wherever the reader's buffer ended.
pub fn stream_bundles<R: BufRead, S: RecordSink>(r: R, sink: &mut S) -> io::Result<u64> {
    stream_with(r, sink, None)
}

/// [`stream_bundles`], reading each section's header through `memo` when
/// there is one: a meta it holds arrives through
/// [`RecordSink::shared_meta`], and each section's table replaces its
/// table. The sink sees what it would see without the memo, and the
/// reader stops where it would.
pub(crate) fn stream_with<R: BufRead, S: RecordSink>(
    mut r: R,
    sink: &mut S,
    mut memo: Option<&mut HeaderMemo>,
) -> io::Result<u64> {
    if r.fill_buf()?.is_empty() {
        return Err(bad("not a DaYu binary trace (empty input)"));
    }
    let mut records = 0u64;
    // Section boundary: clean EOF ends the stream. EOF is detected by
    // peeking, not by catching `read_exact`'s UnexpectedEof — that would
    // also swallow a *partial* magic (trailing garbage, or a section cut
    // mid-header), which must be an error.
    while !r.fill_buf()?.is_empty() {
        let last = memo.as_deref().map_or(&[][..], |m| &m.table[..]);
        let (version, table) = read_header(&mut r, last)?;
        loop {
            // A failed refill is left for the careful reader to meet again
            // (and to retry, if it was an interruption).
            let (read, stop) = match r.fill_buf() {
                Ok(buf) => buffered_frames(buf, &table, sink, &mut records),
                Err(_) => (0, Stop::Careful),
            };
            r.consume(read);
            if let Stop::Sink(e) = stop {
                return Err(e);
            }
            if let Some(memo) = memo.as_deref_mut() {
                if let Some(meta) = memo.meta_frame(&mut r, &table, version) {
                    sink.shared_meta(meta)?;
                    continue;
                }
            }
            if !careful_frame(&mut r, &table, version, sink, &mut records)? {
                break;
            }
        }
        if let Some(memo) = memo.as_deref_mut() {
            memo.table = table.syms;
        }
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::write_varint;

    /// `wire`'s writer, which hand-built sections use to check the
    /// section writer's bytes.
    fn write_usize(w: &mut Vec<u8>, v: usize) -> io::Result<()> {
        write_varint(w, v as u64)
    }

    #[test]
    fn buffered_varints_are_wire_varints() {
        // Every value's encoding, each with a byte cut off, and ten-byte
        // varints whose tenth byte takes every value (at most 1 fits).
        let mut blobs = Vec::new();
        for s in 0..64 {
            for v in [(1u64 << s) - 1, 1 << s, u64::MAX >> s] {
                let mut b = Vec::new();
                write_varint(&mut b, v).unwrap();
                blobs.push(b[..b.len() - 1].to_vec());
                blobs.push(b);
            }
        }
        for tenth in 0..=u8::MAX {
            let mut b = vec![0xFF; 9];
            b.extend([tenth, 0x00]);
            blobs.push(b);
        }
        for blob in blobs {
            let mut rest = &blob[..];
            let wire = read_varint(&mut rest).ok();
            let mut cursor = Buffered { buf: &blob, pos: 0 };
            let ours = cursor.varint().ok();
            assert_eq!(ours, wire, "{blob:02x?}");
            if ours.is_some() {
                assert_eq!(cursor.pos, blob.len() - rest.len(), "{blob:02x?}");
            }
        }
    }

    #[test]
    fn put_varint_writes_wire_varints() {
        let mut values = vec![0, 1, 127, 128, 300, 16383, 16384, u64::MAX - 1, u64::MAX];
        values.extend((0..64).flat_map(|s| [(1u64 << s) - 1, 1 << s, (1 << s) + 1]));
        for v in values {
            let (mut ours, mut wire) = (Vec::new(), Vec::new());
            put_varint(&mut ours, v);
            write_varint(&mut wire, v).unwrap();
            assert_eq!(ours, wire, "{v}");
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let err = TraceBundle::load(&b"{\"Meta\":{}}"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn input_shorter_than_the_magic() {
        // Alone or after a whole section, and read a byte at a time:
        // bytes that leave the magic are bad magic, a cut magic is a
        // truncation.
        let section = TraceBundle::new("wf").to_binary_bytes();
        for prefix in [&[][..], &section[..]] {
            for (tail, kind, message) in [
                (
                    &b"abc"[..],
                    io::ErrorKind::InvalidData,
                    "not a DaYu binary trace (bad magic)",
                ),
                (
                    &[MAGIC[0], b'D', b'X'][..],
                    io::ErrorKind::InvalidData,
                    "not a DaYu binary trace (bad magic)",
                ),
                (
                    &MAGIC[..5],
                    io::ErrorKind::UnexpectedEof,
                    "truncated .dtb magic (5 of 8 bytes)",
                ),
            ] {
                let bytes = [prefix, tail].concat();
                for capacity in [1, 8192] {
                    let r = io::BufReader::with_capacity(capacity, &bytes[..]);
                    let err = TraceBundle::load(r).unwrap_err();
                    assert_eq!((err.kind(), err.to_string().as_str()), (kind, message));
                }
            }
        }
    }

    #[test]
    fn input_without_a_section_is_rejected() {
        struct Refuse;
        impl RecordSink for Refuse {
            fn meta(&mut self, _: TraceMeta) -> io::Result<()> {
                panic!("no section, no meta")
            }
            fn vol(&mut self, _: VolRecord) -> io::Result<()> {
                panic!("no section, no record")
            }
            fn vfd(&mut self, _: VfdRecord) -> io::Result<()> {
                panic!("no section, no record")
            }
            fn file(&mut self, _: FileRecord) -> io::Result<()> {
                panic!("no section, no record")
            }
        }
        let err = stream_bundles(&b""[..], &mut Refuse).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(err.to_string(), "not a DaYu binary trace (empty input)");
        let err = TraceBundle::load(&b""[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // An empty bundle still writes a section, which loads.
        let empty = TraceBundle::default().to_binary_bytes();
        assert!(!empty.is_empty());
        assert_eq!(
            TraceBundle::load(&empty[..]).unwrap(),
            TraceBundle::default()
        );
    }

    #[test]
    fn future_version_rejected() {
        let mut bytes = MAGIC.to_vec();
        bytes[7] = 0x7F;
        bytes.push(0); // empty table
        let err = TraceBundle::load(&bytes[..]).unwrap_err();
        assert!(err.to_string().contains("version"));
    }

    #[test]
    fn v1_sections_read_without_stages() {
        // A pre-stage-membership section: identical layout minus the stage
        // lists at the end of the meta frame.
        let mut bytes = Vec::new();
        let mut magic = MAGIC;
        magic[7] = VERSION_V1;
        bytes.extend_from_slice(&magic);
        write_usize(&mut bytes, 2).unwrap();
        for s in ["wf", "t1"] {
            write_usize(&mut bytes, s.len()).unwrap();
            bytes.extend_from_slice(s.as_bytes());
        }
        bytes.push(TAG_META);
        write_varint(&mut bytes, 0).unwrap(); // workflow id
        write_varint(&mut bytes, 4096).unwrap(); // page size
        write_usize(&mut bytes, 1).unwrap(); // task order
        write_varint(&mut bytes, 1).unwrap();
        write_usize(&mut bytes, 0).unwrap(); // degraded set
        bytes.push(TAG_END);
        let b = TraceBundle::load(&bytes[..]).unwrap();
        assert_eq!(b.meta.workflow, "wf");
        assert_eq!(b.meta.task_order, vec![TaskKey::new("t1")]);
        assert!(b.meta.stages.is_empty());
    }

    #[test]
    fn v2_sections_read_without_recovered_set() {
        // A pre-crash-recovery section: degraded set, then stage lists,
        // no recovered set in between.
        let mut bytes = Vec::new();
        let mut magic = MAGIC;
        magic[7] = VERSION_V2;
        bytes.extend_from_slice(&magic);
        write_usize(&mut bytes, 2).unwrap();
        for s in ["wf", "t1"] {
            write_usize(&mut bytes, s.len()).unwrap();
            bytes.extend_from_slice(s.as_bytes());
        }
        bytes.push(TAG_META);
        write_varint(&mut bytes, 0).unwrap(); // workflow id
        write_varint(&mut bytes, 4096).unwrap(); // page size
        write_usize(&mut bytes, 1).unwrap(); // task order
        write_varint(&mut bytes, 1).unwrap();
        write_usize(&mut bytes, 1).unwrap(); // degraded set
        write_varint(&mut bytes, 1).unwrap();
        write_usize(&mut bytes, 1).unwrap(); // one stage...
        write_usize(&mut bytes, 1).unwrap(); // ...of one task
        write_varint(&mut bytes, 1).unwrap();
        bytes.push(TAG_END);
        let b = TraceBundle::load(&bytes[..]).unwrap();
        assert!(b.is_degraded(&TaskKey::new("t1")));
        assert!(b.meta.recovered_tasks.is_empty());
        assert_eq!(b.meta.stages, vec![vec![TaskKey::new("t1")]]);
    }

    #[test]
    fn recovered_set_round_trips() {
        let mut b = TraceBundle::new("wf");
        b.push_task(TaskKey::new("a"));
        b.push_task(TaskKey::new("b"));
        b.mark_recovered(TaskKey::new("a"));
        let bytes = b.to_binary_bytes();
        assert_eq!(bytes[7], MAGIC[7]);
        let back = TraceBundle::load(&bytes[..]).unwrap();
        assert!(back.is_recovered(&TaskKey::new("a")));
        assert!(!back.is_recovered(&TaskKey::new("b")));
        assert_eq!(back, b);
    }

    #[test]
    fn v3_sections_read_without_origin() {
        // A pre-provenance section: recovered set and stage lists, no
        // origin presence byte at the end of the meta frame.
        let mut bytes = Vec::new();
        let mut magic = MAGIC;
        magic[7] = VERSION_V3;
        bytes.extend_from_slice(&magic);
        write_usize(&mut bytes, 2).unwrap();
        for s in ["wf", "t1"] {
            write_usize(&mut bytes, s.len()).unwrap();
            bytes.extend_from_slice(s.as_bytes());
        }
        bytes.push(TAG_META);
        write_varint(&mut bytes, 0).unwrap(); // workflow id
        write_varint(&mut bytes, 4096).unwrap(); // page size
        write_usize(&mut bytes, 1).unwrap(); // task order
        write_varint(&mut bytes, 1).unwrap();
        write_usize(&mut bytes, 0).unwrap(); // degraded set
        write_usize(&mut bytes, 1).unwrap(); // recovered set
        write_varint(&mut bytes, 1).unwrap();
        write_usize(&mut bytes, 0).unwrap(); // stage lists
        bytes.push(TAG_END);
        let b = TraceBundle::load(&bytes[..]).unwrap();
        assert!(b.is_recovered(&TaskKey::new("t1")));
        assert!(b.meta.origin.is_none());
    }

    #[test]
    fn origin_round_trips() {
        let mut b = TraceBundle::new("wf");
        b.push_task(TaskKey::new("t1"));
        b.meta.origin = Some(TraceOrigin {
            workload: "ddmd".into(),
            params: "default".into(),
            tool_version: "0.1.0".into(),
        });
        let bytes = b.to_binary_bytes();
        let back = TraceBundle::load(&bytes[..]).unwrap();
        assert_eq!(back.meta.origin, b.meta.origin);
        assert_eq!(back, b);
    }

    #[test]
    fn stages_round_trip() {
        let mut b = TraceBundle::new("wf");
        b.push_task(TaskKey::new("a"));
        b.push_task(TaskKey::new("b"));
        b.meta.stages = vec![
            vec![TaskKey::new("a")],
            vec![TaskKey::new("b"), TaskKey::new("c")],
        ];
        let bytes = b.to_binary_bytes();
        assert_eq!(bytes[7], MAGIC[7]);
        let back = TraceBundle::load(&bytes[..]).unwrap();
        assert_eq!(back.meta.stages, b.meta.stages);
        assert_eq!(back.meta.stage_of(&TaskKey::new("c")), Some(1));
        assert_eq!(back.meta.stage_of(&TaskKey::new("zz")), None);
    }

    /// A one-record section, laid out byte by byte, whose vol frame has
    /// dtype tag `tag` with width or length `value`. Returns the bytes and
    /// the offset just past that varint.
    fn section_with_dtype(tag: u8, value: u64) -> (Vec<u8>, usize) {
        let mut bytes = MAGIC.to_vec();
        write_usize(&mut bytes, 4).unwrap();
        for s in ["wf", "t", "f.h5", "/d"] {
            write_usize(&mut bytes, s.len()).unwrap();
            bytes.extend_from_slice(s.as_bytes());
        }
        bytes.push(TAG_META);
        write_varint(&mut bytes, 0).unwrap(); // workflow id
        write_varint(&mut bytes, 4096).unwrap(); // page size
        for _ in 0..4 {
            // task order, degraded set, recovered set, stage lists
            write_usize(&mut bytes, 0).unwrap();
        }
        bytes.push(0); // no origin
        bytes.push(TAG_VOL);
        for id in [1, 2, 3] {
            write_varint(&mut bytes, id).unwrap(); // task, file, object
        }
        bytes.push(2); // dataset
        write_usize(&mut bytes, 0).unwrap(); // lifetimes
        write_usize(&mut bytes, 0).unwrap(); // shape
        bytes.push(tag);
        write_varint(&mut bytes, value).unwrap();
        let past = bytes.len();
        write_varint(&mut bytes, 0).unwrap(); // logical size
        bytes.push(0); // no layout
        write_usize(&mut bytes, 0).unwrap(); // chunk shape
        write_usize(&mut bytes, 0).unwrap(); // accesses
        bytes.push(TAG_END);
        (bytes, past)
    }

    #[test]
    fn out_of_range_type_fields_are_rejected_not_truncated() {
        // 264 would truncate to an 8-byte width, 1 << 32 to a zero length.
        for (tag, fits, overflows, dtype) in [
            (1, 255, 264, DataType::Int { width: 255 }),
            (2, 255, 264, DataType::Float { width: 255 }),
            (
                3,
                u64::from(u32::MAX),
                1 << 32,
                DataType::FixedBytes { len: u32::MAX },
            ),
        ] {
            let (good, _) = section_with_dtype(tag, fits);
            let b = TraceBundle::load(&good[..]).unwrap();
            assert_eq!(b.vol[0].description.dtype, Some(dtype));
            assert_eq!(b.to_binary_bytes(), good, "{dtype:?} must round-trip");
            let (bad, past) = section_with_dtype(tag, overflows);
            let err = crate::decode_section(&bad).unwrap_err();
            assert_eq!(
                err.cause.kind(),
                io::ErrorKind::InvalidData,
                "{}",
                err.cause
            );
            assert!(
                err.cause.to_string().contains("out of range"),
                "{}",
                err.cause
            );
            assert_eq!(err.offset, past as u64, "tag {tag}: {}", err.cause);
        }
    }

    #[test]
    fn overlong_varint_in_a_section_is_pinned() {
        // The dtype width as ten bytes that overflow `u64` at the tenth,
        // whether the tenth byte ends the varint or continues it.
        let (good, past) = section_with_dtype(1, 0);
        let at = past - 1;
        for tail in [0x7F, 0x80] {
            let mut bytes = good[..at].to_vec();
            bytes.extend([0xFF; 9]);
            bytes.push(tail);
            bytes.extend(&good[past..]);
            let err = crate::decode_section(&bytes).unwrap_err();
            assert_eq!(err.cause.kind(), io::ErrorKind::InvalidData);
            assert_eq!(err.cause.to_string(), "varint overflows u64");
            assert_eq!(err.offset, at as u64 + 10, "tail {tail:#04x}");
        }
    }

    #[test]
    fn truncated_section_is_an_error() {
        let mut b = TraceBundle::new("wf");
        b.push_task(TaskKey::new("t"));
        let bytes = b.to_binary_bytes();
        let cut = &bytes[..bytes.len() - 2];
        assert!(TraceBundle::load(cut).is_err());
    }

    #[test]
    fn trailing_garbage_after_a_section_is_an_error() {
        let mut b = TraceBundle::new("wf");
        b.push_task(TaskKey::new("t"));
        let mut bytes = b.to_binary_bytes();
        // Shorter than a magic header: must not be mistaken for clean EOF.
        bytes.extend([0xFF; 4]);
        assert!(TraceBundle::load(&bytes[..]).is_err());
    }
}
