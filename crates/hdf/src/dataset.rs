//! Datasets: typed N-dimensional arrays with pluggable storage layouts.
//!
//! This module performs the format's *dual translation*: an application's
//! logical read/write of a hyperslab is first mapped to file addresses by
//! the layout logic (compact / contiguous / chunked) and then issued as
//! low-level driver operations. Variable-length datasets store 16-byte
//! descriptors through the same layout machinery while their payloads go to
//! the global heap — so descriptor locality follows the layout but payload
//! bytes scatter across heap blocks, reproducing the VL fragmentation of
//! the paper's Challenge 3.

use crate::chunk::{copy_slab, ChunkCache, ChunkGrid, ChunkIndex};
use crate::error::{HdfError, Result};
use crate::file::FileCore;
use crate::group::{self, Group};
use crate::heap::HeapRef;
use crate::meta::{AttrValue, Attribute, LayoutMessage, ObjectHeader, COMPACT_MAX};
use crate::space::{element_count, Selection};
use dayu_trace::ids::ObjectKey;
use dayu_trace::sync::lock;
use dayu_trace::vfd::AccessType;
use dayu_trace::vol::{DataType, LayoutKind, ObjectDescription, ObjectKind, VolAccessKind};
use std::sync::{Arc, Mutex};

/// Specification for creating a dataset.
#[derive(Clone, Debug)]
pub struct DatasetBuilder {
    dtype: DataType,
    shape: Vec<u64>,
    layout: LayoutKind,
    chunk_dims: Option<Vec<u64>>,
    cache_bytes: Option<u64>,
}

impl DatasetBuilder {
    /// A dataset of `dtype` elements with the given shape; contiguous
    /// layout by default.
    pub fn new(dtype: DataType, shape: &[u64]) -> Self {
        Self {
            dtype,
            shape: shape.to_vec(),
            layout: LayoutKind::Contiguous,
            chunk_dims: None,
            cache_bytes: None,
        }
    }

    /// Selects the storage layout.
    pub fn layout(mut self, layout: LayoutKind) -> Self {
        self.layout = layout;
        self
    }

    /// Selects chunked layout with the given chunk dimensions.
    pub fn chunks(mut self, dims: &[u64]) -> Self {
        self.layout = LayoutKind::Chunked;
        self.chunk_dims = Some(dims.to_vec());
        self
    }

    /// Overrides the chunk cache capacity for this dataset.
    pub fn cache_bytes(mut self, bytes: u64) -> Self {
        self.cache_bytes = Some(bytes);
        self
    }
}

struct ChunkState {
    grid: ChunkGrid,
    index: ChunkIndex,
    cache: ChunkCache,
}

/// Handle to an open dataset.
pub struct Dataset {
    core: Arc<Mutex<FileCore>>,
    header_addr: u64,
    path: String,
    /// `path`, interned once at create or open.
    key: ObjectKey,
    shape: Vec<u64>,
    dtype: DataType,
    layout: LayoutKind,
    chunk: Option<ChunkState>,
    /// Variable-length payload bytes written through this handle but not
    /// yet folded into the header (flushed at close, like HDF5's metadata
    /// cache defers object-header updates).
    vl_pending: u64,
    closed: bool,
}

impl Dataset {
    fn esize(dtype: DataType) -> u64 {
        dtype.element_size()
    }

    fn describe(&self, logical_size: u64) -> ObjectDescription {
        ObjectDescription {
            shape: self.shape.clone(),
            dtype: Some(self.dtype),
            logical_size,
            layout: Some(self.layout),
            chunk_shape: self
                .chunk
                .as_ref()
                .map(|c| c.grid.chunk_dims.clone())
                .unwrap_or_default(),
        }
    }

    pub(crate) fn create(
        core: Arc<Mutex<FileCore>>,
        parent: &Group,
        name: &str,
        builder: DatasetBuilder,
    ) -> Result<Dataset> {
        let path = parent.make_child_path(name);
        let key = ObjectKey::new(path.clone());
        let esize = Self::esize(builder.dtype);
        let total_bytes = element_count(&builder.shape) * esize;

        if builder.dtype.is_varlen() && builder.shape.len() != 1 {
            return Err(HdfError::InvalidArgument(
                "variable-length datasets must be one-dimensional".into(),
            ));
        }

        let ctx = lock(&core).ctx.clone();
        let (header_addr, chunk) = ctx.with_object(key.clone(), || {
            let (layout_msg, chunk) = match builder.layout {
                LayoutKind::Compact => {
                    if total_bytes > COMPACT_MAX {
                        return Err(HdfError::InvalidArgument(format!(
                            "compact dataset of {total_bytes} bytes exceeds {COMPACT_MAX}"
                        )));
                    }
                    (
                        LayoutMessage::Compact {
                            data: vec![0u8; total_bytes as usize],
                        },
                        None,
                    )
                }
                LayoutKind::Contiguous => (
                    LayoutMessage::Contiguous {
                        addr: 0,
                        size: total_bytes,
                    },
                    None,
                ),
                LayoutKind::Chunked => {
                    let dims = builder
                        .chunk_dims
                        .clone()
                        .unwrap_or_else(|| builder.shape.clone());
                    let grid = ChunkGrid::new(&builder.shape, &dims)?;
                    let mut core_guard = lock(&core);
                    core_guard.check_open()?;
                    let index = ChunkIndex::create(&mut core_guard.rf, grid.chunk_count())?;
                    let cache_bytes = builder.cache_bytes.unwrap_or(core_guard.chunk_cache_bytes);
                    let chunk_bytes = grid.chunk_elements() * esize;
                    let msg = LayoutMessage::Chunked {
                        chunk_dims: dims,
                        index_addr: index.addr,
                        index_len: ChunkIndex::byte_len(grid.chunk_count()),
                    };
                    (
                        msg,
                        Some(ChunkState {
                            grid,
                            index,
                            cache: ChunkCache::new(chunk_bytes, cache_bytes),
                        }),
                    )
                }
            };
            let header =
                ObjectHeader::new_dataset(builder.shape.clone(), builder.dtype, layout_msg);
            let addr = parent.insert_child_header(name, &header)?;
            Ok((addr, chunk))
        })?;

        let ds = Dataset {
            core,
            header_addr,
            path,
            key,
            shape: builder.shape,
            dtype: builder.dtype,
            layout: builder.layout,
            chunk,
            vl_pending: 0,
            closed: false,
        };
        ds.fire_opened(total_bytes);
        Ok(ds)
    }

    pub(crate) fn open(core: Arc<Mutex<FileCore>>, parent: &Group, name: &str) -> Result<Dataset> {
        let path = parent.make_child_path(name);
        let key = ObjectKey::new(path.clone());
        let ctx = lock(&core).ctx.clone();
        let (header_addr, header) = ctx.with_object(key.clone(), || {
            let (addr, kind) = parent.lookup_child(name)?;
            if kind != ObjectKind::Dataset {
                return Err(HdfError::TypeMismatch(format!("{path} is not a dataset")));
            }
            let header = lock(&core).load_header(addr)?;
            Ok((addr, header))
        })?;

        let dtype = header
            .dtype
            .ok_or_else(|| HdfError::Corrupt("dataset without datatype".into()))?;
        let esize = Self::esize(dtype);
        let (layout, chunk, logical) = match &header.layout {
            Some(LayoutMessage::Compact { data }) => (LayoutKind::Compact, None, data.len() as u64),
            Some(LayoutMessage::Contiguous { size, .. }) => (LayoutKind::Contiguous, None, *size),
            Some(LayoutMessage::Chunked {
                chunk_dims,
                index_addr,
                ..
            }) => {
                let grid = ChunkGrid::new(&header.shape, chunk_dims)?;
                let index = ChunkIndex::open(*index_addr, grid.chunk_count());
                let cache_bytes = lock(&core).chunk_cache_bytes;
                let chunk_bytes = grid.chunk_elements() * esize;
                let logical = if dtype.is_varlen() {
                    header.vl_logical_bytes
                } else {
                    element_count(&header.shape) * esize
                };
                (
                    LayoutKind::Chunked,
                    Some(ChunkState {
                        grid,
                        index,
                        cache: ChunkCache::new(chunk_bytes, cache_bytes),
                    }),
                    logical,
                )
            }
            None => return Err(HdfError::Corrupt("dataset without layout".into())),
        };

        let ds = Dataset {
            core,
            header_addr,
            path,
            key,
            shape: header.shape,
            dtype,
            layout,
            chunk,
            vl_pending: 0,
            closed: false,
        };
        ds.fire_opened(logical);
        Ok(ds)
    }

    fn fire_opened(&self, logical_size: u64) {
        let core = lock(&self.core);
        if !core.hooks.is_active() {
            return;
        }
        let desc = self.describe(logical_size);
        let now = core.now();
        let file = core.name.clone();
        core.hooks
            .each(|h| h.object_opened(&file, &self.key, ObjectKind::Dataset, &desc, now));
    }

    fn fire_access(&self, kind: VolAccessKind, bytes: u64, sel: Option<&Selection>) {
        let core = lock(&self.core);
        if !core.hooks.is_active() {
            return;
        }
        let now = core.now();
        let file = core.name.clone();
        core.hooks.each(|h| {
            h.object_access(
                &file,
                &self.key,
                kind,
                bytes,
                sel.map(|s| (s.offset.as_slice(), s.count.as_slice())),
                now,
            )
        });
    }

    /// The dataset's full path.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// The dataspace shape.
    pub fn shape(&self) -> &[u64] {
        &self.shape
    }

    /// The element datatype.
    pub fn dtype(&self) -> DataType {
        self.dtype
    }

    /// The storage layout.
    pub fn layout(&self) -> LayoutKind {
        self.layout
    }

    fn check_fixed(&self) -> Result<u64> {
        if self.closed {
            return Err(HdfError::Closed);
        }
        if self.dtype.is_varlen() {
            return Err(HdfError::TypeMismatch(
                "use write_varlen/read_varlen for variable-length datasets".into(),
            ));
        }
        Ok(Self::esize(self.dtype))
    }

    /// Writes raw bytes covering the whole dataspace.
    pub fn write(&mut self, data: &[u8]) -> Result<()> {
        let sel = Selection::all(&self.shape);
        self.write_slab(&sel, data)
    }

    /// Reads the whole dataspace as raw bytes.
    pub fn read(&mut self) -> Result<Vec<u8>> {
        let sel = Selection::all(&self.shape);
        self.read_slab(&sel)
    }

    /// Writes raw bytes into a hyperslab.
    pub fn write_slab(&mut self, sel: &Selection, data: &[u8]) -> Result<()> {
        let esize = self.check_fixed()?;
        sel.validate(&self.shape)?;
        let expect = sel.element_count() * esize;
        if data.len() as u64 != expect {
            return Err(HdfError::InvalidArgument(format!(
                "buffer is {} bytes, selection needs {expect}",
                data.len()
            )));
        }
        self.fire_access(
            VolAccessKind::Write,
            expect,
            (!sel.is_all(&self.shape)).then_some(sel),
        );
        self.raw_write(sel, data, esize)
    }

    /// Reads a hyperslab as raw bytes.
    pub fn read_slab(&mut self, sel: &Selection) -> Result<Vec<u8>> {
        let esize = self.check_fixed()?;
        sel.validate(&self.shape)?;
        let bytes = sel.element_count() * esize;
        self.fire_access(
            VolAccessKind::Read,
            bytes,
            (!sel.is_all(&self.shape)).then_some(sel),
        );
        self.raw_read(sel, esize)
    }

    fn raw_write(&mut self, sel: &Selection, data: &[u8], esize: u64) -> Result<()> {
        let ctx = lock(&self.core).ctx.clone();
        ctx.with_object(self.key.clone(), || match self.layout {
            LayoutKind::Compact => self.compact_write(sel, data, esize),
            LayoutKind::Contiguous => self.contiguous_write(sel, data, esize),
            LayoutKind::Chunked => self.chunked_write(sel, data, esize),
        })
    }

    fn raw_read(&mut self, sel: &Selection, esize: u64) -> Result<Vec<u8>> {
        let ctx = lock(&self.core).ctx.clone();
        ctx.with_object(self.key.clone(), || match self.layout {
            LayoutKind::Compact => self.compact_read(sel, esize),
            LayoutKind::Contiguous => self.contiguous_read(sel, esize),
            LayoutKind::Chunked => self.chunked_read(sel, esize),
        })
    }

    fn compact_write(&mut self, sel: &Selection, data: &[u8], esize: u64) -> Result<()> {
        let mut core = lock(&self.core);
        core.check_open()?;
        let mut header = core.load_header(self.header_addr)?;
        let Some(LayoutMessage::Compact { data: stored }) = &mut header.layout else {
            return Err(HdfError::Corrupt("layout mismatch".into()));
        };
        let mut off = 0usize;
        for (start, len) in sel.runs(&self.shape) {
            let byte_start = (start * esize) as usize;
            let byte_len = (len * esize) as usize;
            stored[byte_start..byte_start + byte_len].copy_from_slice(&data[off..off + byte_len]);
            off += byte_len;
        }
        core.store_header(self.header_addr, &header)
    }

    fn compact_read(&mut self, sel: &Selection, esize: u64) -> Result<Vec<u8>> {
        let mut core = lock(&self.core);
        core.check_open()?;
        let Some(LayoutMessage::Compact { data: stored }) = &core.header(self.header_addr)?.layout
        else {
            return Err(HdfError::Corrupt("layout mismatch".into()));
        };
        let mut out = Vec::with_capacity((sel.element_count() * esize) as usize);
        for (start, len) in sel.runs(&self.shape) {
            let byte_start = (start * esize) as usize;
            let byte_len = (len * esize) as usize;
            out.extend_from_slice(&stored[byte_start..byte_start + byte_len]);
        }
        Ok(out)
    }

    /// Ensures the contiguous extent is allocated (HDF5 "late allocation"),
    /// returning its address.
    fn ensure_contiguous(&mut self) -> Result<(u64, u64)> {
        let mut core = lock(&self.core);
        core.check_open()?;
        let mut header = core.load_header(self.header_addr)?;
        let Some(LayoutMessage::Contiguous { addr, size }) = &mut header.layout else {
            return Err(HdfError::Corrupt("layout mismatch".into()));
        };
        if *addr == 0 && *size > 0 {
            let new_addr = core.rf.alloc(*size)?;
            let size = *size;
            if let Some(LayoutMessage::Contiguous { addr, .. }) = &mut header.layout {
                *addr = new_addr;
            }
            core.store_header(self.header_addr, &header)?;
            // Partial first writes must leave the rest of the extent
            // readable as fill (zeros).
            core.rf.ensure_eof(new_addr + size)?;
            return Ok((new_addr, size));
        }
        Ok((*addr, *size))
    }

    fn contiguous_write(&mut self, sel: &Selection, data: &[u8], esize: u64) -> Result<()> {
        let (addr, _) = self.ensure_contiguous()?;
        let mut core = lock(&self.core);
        let mut off = 0usize;
        for (start, len) in sel.runs(&self.shape) {
            let byte_len = (len * esize) as usize;
            core.rf.write_at(
                addr + start * esize,
                &data[off..off + byte_len],
                AccessType::RawData,
            )?;
            off += byte_len;
        }
        Ok(())
    }

    fn contiguous_read(&mut self, sel: &Selection, esize: u64) -> Result<Vec<u8>> {
        let addr = {
            let mut core = lock(&self.core);
            core.check_open()?;
            match core.header(self.header_addr)?.layout {
                Some(LayoutMessage::Contiguous { addr, .. }) => addr,
                _ => return Err(HdfError::Corrupt("layout mismatch".into())),
            }
        };
        // Never written: reads return fill value (zeros).
        let mut out = vec![0u8; (sel.element_count() * esize) as usize];
        if addr == 0 {
            return Ok(out);
        }
        let mut core = lock(&self.core);
        let mut off = 0usize;
        for (start, len) in sel.runs(&self.shape) {
            let byte_len = (len * esize) as usize;
            core.rf.read_into(
                addr + start * esize,
                &mut out[off..off + byte_len],
                AccessType::RawData,
            )?;
            off += byte_len;
        }
        Ok(out)
    }

    /// Chunked write: the chunks the sweep plan bypasses go straight to
    /// the file, the rest through the cache.
    fn chunked_write(&mut self, sel: &Selection, data: &[u8], esize: u64) -> Result<()> {
        let state = self.chunk.as_mut().expect("chunked dataset has state");
        let mut core = lock(&self.core);
        core.check_open()?;
        let sweep = Sweep::new(state, sel, esize);
        let direct = sweep_plan(&mut core, state, &sweep, &self.shape, true)?;
        if let Err((j, e)) = direct_sweep_write(&mut core, state, &sweep, direct, data) {
            install_write_window(state, &sweep, data, j);
            return Err(e);
        }
        cached_write(&mut core, state, &sweep, direct, data)
    }

    /// Chunked read: the chunks the sweep plan bypasses come straight
    /// from the file, the rest through the cache.
    fn chunked_read(&mut self, sel: &Selection, esize: u64) -> Result<Vec<u8>> {
        let state = self.chunk.as_mut().expect("chunked dataset has state");
        let mut core = lock(&self.core);
        core.check_open()?;
        let mut out = vec![0u8; (sel.element_count() * esize) as usize];
        let sweep = Sweep::new(state, sel, esize);
        let direct = sweep_plan(&mut core, state, &sweep, &self.shape, false)?;
        let swept = direct_sweep_read(&mut core, state, &sweep, direct, &mut out)
            .and_then(|()| cached_read(&mut core, state, &sweep, direct, &mut out));
        match swept {
            Ok(()) => Ok(out),
            Err((j, e)) => {
                if direct > 0 {
                    install_read_window(state, &sweep, &out, j);
                }
                Err(e)
            }
        }
    }

    /// Writes `items` as variable-length elements at element offset `start`.
    pub fn write_varlen(&mut self, start: u64, items: &[&[u8]]) -> Result<()> {
        if self.closed {
            return Err(HdfError::Closed);
        }
        if !self.dtype.is_varlen() {
            return Err(HdfError::TypeMismatch(
                "write_varlen requires a variable-length dataset".into(),
            ));
        }
        let sel = Selection::slab(&[start], &[items.len() as u64]);
        sel.validate(&self.shape)?;
        let payload: u64 = items.iter().map(|i| i.len() as u64).sum();
        self.fire_access(VolAccessKind::Write, payload, Some(&sel));

        let ctx = lock(&self.core).ctx.clone();
        ctx.with_object(self.key.clone(), || {
            // Payloads to the global heap.
            let mut descriptors = Vec::with_capacity(items.len() * HeapRef::SIZE as usize);
            {
                let mut core = lock(&self.core);
                core.check_open()?;
                let FileCore { rf, heap, .. } = &mut *core;
                for item in items {
                    let href = heap.insert(rf, item)?;
                    descriptors.extend_from_slice(&href.encode());
                }
            }
            // Descriptors through the layout machinery.
            match self.layout {
                LayoutKind::Compact => self.compact_write(&sel, &descriptors, HeapRef::SIZE),
                LayoutKind::Contiguous => self.contiguous_write(&sel, &descriptors, HeapRef::SIZE),
                LayoutKind::Chunked => self.chunked_write(&sel, &descriptors, HeapRef::SIZE),
            }?;
            // Defer the logical-volume header update to close: one
            // metadata write per handle instead of one per write call.
            self.vl_pending += payload;
            Ok(())
        })
    }

    /// Reads `count` variable-length elements starting at element `start`.
    pub fn read_varlen(&mut self, start: u64, count: u64) -> Result<Vec<Vec<u8>>> {
        if self.closed {
            return Err(HdfError::Closed);
        }
        if !self.dtype.is_varlen() {
            return Err(HdfError::TypeMismatch(
                "read_varlen requires a variable-length dataset".into(),
            ));
        }
        let sel = Selection::slab(&[start], &[count]);
        sel.validate(&self.shape)?;

        let ctx = lock(&self.core).ctx.clone();
        let (items, payload) = ctx.with_object(self.key.clone(), || {
            let descriptors = match self.layout {
                LayoutKind::Compact => self.compact_read(&sel, HeapRef::SIZE),
                LayoutKind::Contiguous => self.contiguous_read(&sel, HeapRef::SIZE),
                LayoutKind::Chunked => self.chunked_read(&sel, HeapRef::SIZE),
            }?;
            let mut core = lock(&self.core);
            core.check_open()?;
            let FileCore { rf, heap, .. } = &mut *core;
            let mut items = Vec::with_capacity(count as usize);
            let mut payload = 0u64;
            for d in descriptors.chunks_exact(HeapRef::SIZE as usize) {
                let href = HeapRef::decode(d)?;
                payload += href.len as u64;
                items.push(heap.read(rf, href)?);
            }
            Ok::<_, HdfError>((items, payload))
        })?;
        self.fire_access(VolAccessKind::Read, payload, Some(&sel));
        Ok(items)
    }

    /// Writes the whole dataset from a slice of `f64`s.
    pub fn write_f64s(&mut self, values: &[f64]) -> Result<()> {
        let mut bytes = Vec::with_capacity(values.len() * 8);
        for v in values {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        self.write(&bytes)
    }

    /// Reads the whole dataset as `f64`s.
    pub fn read_f64s(&mut self) -> Result<Vec<f64>> {
        let bytes = self.read()?;
        if bytes.len() % 8 != 0 {
            return Err(HdfError::TypeMismatch("size not a multiple of 8".into()));
        }
        Ok(bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// Writes the whole dataset from a slice of `u64`s.
    pub fn write_u64s(&mut self, values: &[u64]) -> Result<()> {
        let mut bytes = Vec::with_capacity(values.len() * 8);
        for v in values {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        self.write(&bytes)
    }

    /// Reads the whole dataset as `u64`s.
    pub fn read_u64s(&mut self) -> Result<Vec<u64>> {
        let bytes = self.read()?;
        if bytes.len() % 8 != 0 {
            return Err(HdfError::TypeMismatch("size not a multiple of 8".into()));
        }
        Ok(bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// Sets an attribute on this dataset.
    pub fn set_attr(&self, name: &str, value: AttrValue) -> Result<()> {
        group::set_attr_on(&self.core, self.header_addr, &self.path, name, value)
    }

    /// Reads an attribute of this dataset.
    pub fn attr(&self, name: &str) -> Result<Option<AttrValue>> {
        group::attr_on(&self.core, self.header_addr, name)
    }

    /// All attributes of this dataset.
    pub fn attrs(&self) -> Result<Vec<Attribute>> {
        group::attrs_on(&self.core, self.header_addr)
    }

    /// The file extents holding this dataset's (descriptor) payload, as
    /// `(address, length)` pairs — the raw material of fragmentation
    /// analyses (paper Fig. 1 / Fig. 8). Unallocated pieces are omitted;
    /// compact datasets report none (their bytes live in the header).
    pub fn extents(&mut self) -> Result<Vec<(u64, u64)>> {
        if self.closed {
            return Err(HdfError::Closed);
        }
        let mut core = lock(&self.core);
        core.check_open()?;
        match self.layout {
            LayoutKind::Compact => Ok(Vec::new()),
            LayoutKind::Contiguous => match core.header(self.header_addr)?.layout {
                Some(LayoutMessage::Contiguous { addr, size }) if addr != 0 => {
                    Ok(vec![(addr, size)])
                }
                _ => Ok(Vec::new()),
            },
            LayoutKind::Chunked => {
                let state = self.chunk.as_mut().expect("chunked state");
                let mut out = Vec::new();
                for ord in 0..state.grid.chunk_count() {
                    let (addr, size) = state.index.entry(&mut core.rf, ord)?;
                    if addr != 0 {
                        out.push((addr, size as u64));
                    }
                }
                Ok(out)
            }
        }
    }

    /// Flushes buffered chunks and fires the close hook. Idempotent close is
    /// an error, matching file semantics.
    pub fn close(&mut self) -> Result<()> {
        if self.closed {
            return Err(HdfError::Closed);
        }
        if let Some(state) = self.chunk.as_mut() {
            let ctx = lock(&self.core).ctx.clone();
            ctx.with_object(self.key.clone(), || {
                let mut core = lock(&self.core);
                core.check_open()?;
                state.cache.flush(&mut core.rf, &mut state.index)?;
                state.index.flush(&mut core.rf)
            })?;
        }
        if self.vl_pending > 0 {
            let ctx = lock(&self.core).ctx.clone();
            ctx.with_object(self.key.clone(), || {
                let mut core = lock(&self.core);
                core.check_open()?;
                let mut header = core.load_header(self.header_addr)?;
                header.vl_logical_bytes += self.vl_pending;
                core.store_header(self.header_addr, &header)
            })?;
            self.vl_pending = 0;
        }
        self.closed = true;
        let core = lock(&self.core);
        if core.hooks.is_active() {
            let now = core.now();
            let file = core.name.clone();
            core.hooks.each(|h| h.object_closed(&file, &self.key, now));
        }
        Ok(())
    }
}

impl Drop for Dataset {
    fn drop(&mut self) {
        if !self.closed {
            // Best-effort flush; errors cannot be surfaced from drop.
            let _ = self.close();
        }
    }
}

// ---------------------------------------------------------------------------
// Chunk sweeps.
//
// A chunked read or write visits its chunks in ordinal order through the
// write-back cache: the *cached loop* (`cached_write` / `cached_read`), the
// code every partial selection takes. For one access shape its behaviour is
// fully determined in advance: a whole-dataspace sweep of n chunks over an
// empty cache of k < n chunks. A write sweep over unallocated chunks
// allocates and writes back chunks 0..n-k ascending as evictions fire and
// leaves the last k dirty; a read sweep loads allocated chunks ascending
// (holes read as fill) and leaves the last k resident. Everything the cache
// does to the first n - k chunks is copy them in and evict them unread.
//
// The sweep plan (`sweep_plan`) names those n - k leading chunks, and the
// sweep moves them straight between the application buffer and the file,
// one op per chunk on the chunk's own slice of the buffer (only where each
// chunk is one contiguous run of it). The ops are issued in exactly the
// cached loop's order at its addresses, and the last k chunks go through
// the cache as before, so the op stream, the file image and the cache left
// behind are the cached loop's. Any later I/O, the flush at close and crash
// replay see identical state.
//
// When chunk j's op fails, the cached loop has already evicted every chunk
// before a window around j; the install functions put that window into the
// cache before the error returns, so later reads and the close issue the
// same ops too.

/// One chunk's piece of a selection: `(ordinal, selection inside the
/// chunk, selection inside the application buffer)`.
type Part = (u64, Selection, Selection);

/// A failed sweep: the position in [`Sweep::parts`] of the chunk whose op
/// failed, and the error.
type SweepError = (usize, HdfError);

/// A chunked read or write of `sel`: its per-chunk pieces in the order the
/// cached loop visits them, and the element size.
struct Sweep<'a> {
    sel: &'a Selection,
    parts: Vec<Part>,
    esize: u64,
}

impl<'a> Sweep<'a> {
    fn new(state: &ChunkState, sel: &'a Selection, esize: u64) -> Self {
        Self {
            sel,
            parts: state.grid.intersect(sel),
            esize,
        }
    }

    /// Chunk `part` as the cached loop builds it from the application
    /// buffer `buf`: fill, then the part's elements.
    fn chunk_from(&self, grid: &ChunkGrid, chunk_bytes: u64, part: &Part, buf: &[u8]) -> Vec<u8> {
        let (_, local, in_buf) = part;
        let mut chunk = vec![0u8; chunk_bytes as usize];
        copy_slab(
            buf,
            &self.sel.count,
            in_buf,
            &mut chunk,
            &grid.chunk_dims,
            local,
            self.esize,
        );
        chunk
    }
}

/// The sweep plan: how many leading chunks skip the cache. Non-zero only
/// for a whole-dataspace sweep over an empty cache that overflows it
/// (n > k), where it is n - k: the chunks the cached loop would evict
/// unread. A write additionally needs every chunk unallocated, so
/// allocation order is eviction order; a read handles holes per chunk.
/// A chunk is bypassed only as one contiguous run of the buffer
/// ([`ChunkGrid::chunks_are_runs`]); the edge chunk is then always in the
/// cached tail, so every bypassed chunk is full.
fn sweep_plan(
    core: &mut FileCore,
    state: &mut ChunkState,
    sweep: &Sweep<'_>,
    shape: &[u64],
    write: bool,
) -> Result<usize> {
    let n = state.grid.chunk_count();
    let k = state.cache.capacity_chunks();
    if !sweep.sel.is_all(shape)
        || !state.cache.is_empty()
        || n <= k
        || !state.grid.chunks_are_runs()
    {
        return Ok(0);
    }
    debug_assert_eq!(
        sweep.parts.len() as u64,
        n,
        "full selection covers every chunk"
    );
    if write {
        // The entry scan loads the index on first use — the same single
        // metadata read the cached loop's first chunk would issue here.
        for ord in 0..n {
            if state.index.entry(&mut core.rf, ord)? != (0, 0) {
                return Ok(0);
            }
        }
    }
    Ok((n - k) as usize)
}

/// The cached loop's write: every part from position `from` on goes
/// through the cache.
fn cached_write(
    core: &mut FileCore,
    state: &mut ChunkState,
    sweep: &Sweep<'_>,
    from: usize,
    data: &[u8],
) -> Result<()> {
    for (ord, local, buf) in &sweep.parts[from..] {
        let chunk = state
            .cache
            .chunk_mut(&mut core.rf, &mut state.index, *ord, true)?;
        copy_slab(
            data,
            &sweep.sel.count,
            buf,
            chunk,
            &state.grid.chunk_dims,
            local,
            sweep.esize,
        );
    }
    Ok(())
}

/// The cached loop's read: every part from position `from` on comes
/// through the cache.
fn cached_read(
    core: &mut FileCore,
    state: &mut ChunkState,
    sweep: &Sweep<'_>,
    from: usize,
    out: &mut [u8],
) -> std::result::Result<(), SweepError> {
    for (j, (ord, local, buf)) in sweep.parts.iter().enumerate().skip(from) {
        let chunk = state
            .cache
            .chunk_mut(&mut core.rf, &mut state.index, *ord, false)
            .map_err(|e| (j, e))?;
        copy_slab(
            chunk,
            &state.grid.chunk_dims,
            local,
            out,
            &sweep.sel.count,
            buf,
            sweep.esize,
        );
    }
    Ok(())
}

/// The bypass for a write: each of the first `direct` chunks is
/// allocated, indexed and written from its own run of `data`, one op per
/// chunk, as the cached loop's evictions would.
fn direct_sweep_write(
    core: &mut FileCore,
    state: &mut ChunkState,
    sweep: &Sweep<'_>,
    direct: usize,
    data: &[u8],
) -> std::result::Result<(), SweepError> {
    let chunk_bytes = state.cache.chunk_bytes();
    let runs = data.chunks_exact(chunk_bytes as usize);
    for (j, (run, (ord, _, _))) in runs.zip(&sweep.parts[..direct]).enumerate() {
        let addr = core.rf.alloc(chunk_bytes).map_err(|e| (j, e))?;
        state
            .index
            .set_entry(&mut core.rf, *ord, addr, chunk_bytes as u32)
            .and_then(|()| core.rf.write_at(addr, run, AccessType::RawData))
            .map_err(|e| (j, e))?;
        state.cache.stores += 1;
    }
    Ok(())
}

/// The bypass for a read: each allocated chunk of the first `direct` is
/// read into its own run of `out`, one op per chunk, as the cached loop's
/// loads would; holes keep the fill `out` starts with.
fn direct_sweep_read(
    core: &mut FileCore,
    state: &mut ChunkState,
    sweep: &Sweep<'_>,
    direct: usize,
    out: &mut [u8],
) -> std::result::Result<(), SweepError> {
    let runs = out.chunks_exact_mut(state.cache.chunk_bytes() as usize);
    for (j, (run, (ord, _, _))) in runs.zip(&sweep.parts[..direct]).enumerate() {
        let (addr, _) = state.index.entry(&mut core.rf, *ord).map_err(|e| (j, e))?;
        if addr != 0 {
            state.cache.loads += 1;
            core.rf
                .read_into(addr, run, AccessType::RawData)
                .map_err(|e| (j, e))?;
        }
    }
    Ok(())
}

/// The cache a write sweep leaves when chunk `j`'s write fails: the cached
/// loop was inserting chunk j + k and had evicted chunk j, so chunks
/// j+1 … j+k−1 are resident and dirty, oldest first.
fn install_write_window(state: &mut ChunkState, sweep: &Sweep<'_>, data: &[u8], j: usize) {
    let (k, chunk_bytes) = (state.cache.capacity_chunks(), state.cache.chunk_bytes());
    let end = (j + k as usize).min(sweep.parts.len());
    for part in &sweep.parts[j + 1..end] {
        let chunk = || sweep.chunk_from(&state.grid, chunk_bytes, part, data);
        state.cache.install(part.0, chunk, true);
    }
}

/// The cache a read sweep leaves when chunk `j`'s read fails: chunks
/// j−k+1 … j−1 resident and clean, oldest first. Bypassed chunks are
/// rebuilt from what `out` received (holes as fill); chunks the cached
/// tail loaded are resident already and only move up in recency.
fn install_read_window(state: &mut ChunkState, sweep: &Sweep<'_>, out: &[u8], j: usize) {
    let (k, chunk_bytes) = (state.cache.capacity_chunks(), state.cache.chunk_bytes());
    for part in &sweep.parts[(j + 1).saturating_sub(k as usize)..j] {
        let chunk = || sweep.chunk_from(&state.grid, chunk_bytes, part, out);
        state.cache.install(part.0, chunk, false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::{FileOptions, H5File};
    use dayu_vfd::{MemFs, MemVfd};

    fn file() -> H5File {
        H5File::create(MemVfd::new(), "d.h5", FileOptions::default()).unwrap()
    }

    #[test]
    fn contiguous_full_round_trip() {
        let f = file();
        let mut ds = f
            .root()
            .create_dataset(
                "d",
                DatasetBuilder::new(DataType::Float { width: 8 }, &[4, 4]),
            )
            .unwrap();
        let vals: Vec<f64> = (0..16).map(|i| i as f64 * 0.5).collect();
        ds.write_f64s(&vals).unwrap();
        assert_eq!(ds.read_f64s().unwrap(), vals);
        assert_eq!(ds.layout(), LayoutKind::Contiguous);
        assert_eq!(ds.shape(), &[4, 4]);
    }

    #[test]
    fn contiguous_slab_io() {
        let f = file();
        let mut ds = f
            .root()
            .create_dataset(
                "d",
                DatasetBuilder::new(DataType::Int { width: 1 }, &[4, 4]),
            )
            .unwrap();
        ds.write(&(0u8..16).collect::<Vec<_>>()).unwrap();
        let slab = ds.read_slab(&Selection::slab(&[1, 1], &[2, 2])).unwrap();
        assert_eq!(slab, vec![5, 6, 9, 10]);
        ds.write_slab(&Selection::slab(&[0, 0], &[1, 4]), &[9; 4])
            .unwrap();
        assert_eq!(&ds.read().unwrap()[..4], &[9, 9, 9, 9]);
    }

    #[test]
    fn unwritten_contiguous_reads_zeros() {
        let f = file();
        let mut ds = f
            .root()
            .create_dataset("d", DatasetBuilder::new(DataType::Int { width: 4 }, &[8]))
            .unwrap();
        assert_eq!(ds.read().unwrap(), vec![0u8; 32]);
    }

    #[test]
    fn chunked_round_trip_with_partial_access() {
        let f = file();
        let mut ds = f
            .root()
            .create_dataset(
                "d",
                DatasetBuilder::new(DataType::Int { width: 1 }, &[6, 6]).chunks(&[4, 4]),
            )
            .unwrap();
        let data: Vec<u8> = (0..36).collect();
        ds.write(&data).unwrap();
        assert_eq!(ds.read().unwrap(), data);
        // A slab crossing all four chunks.
        let slab = ds.read_slab(&Selection::slab(&[3, 3], &[2, 2])).unwrap();
        assert_eq!(slab, vec![21, 22, 27, 28]);
        ds.close().unwrap();
    }

    #[test]
    fn chunked_data_persists_across_reopen() {
        let fs = MemFs::new();
        {
            let f = H5File::create(fs.create("c.h5"), "c.h5", FileOptions::default()).unwrap();
            let mut ds = f
                .root()
                .create_dataset(
                    "grid",
                    DatasetBuilder::new(DataType::Float { width: 8 }, &[10, 10]).chunks(&[3, 3]),
                )
                .unwrap();
            ds.write_f64s(&(0..100).map(f64::from).collect::<Vec<_>>())
                .unwrap();
            ds.close().unwrap();
            f.close().unwrap();
        }
        let f = H5File::open(fs.open("c.h5"), "c.h5", FileOptions::default()).unwrap();
        let mut ds = f.root().open_dataset("grid").unwrap();
        assert_eq!(ds.layout(), LayoutKind::Chunked);
        let vals = ds.read_f64s().unwrap();
        assert_eq!(vals[57], 57.0);
        ds.close().unwrap();
        f.close().unwrap();
    }

    #[test]
    fn compact_dataset_round_trip() {
        let f = file();
        let mut ds = f
            .root()
            .create_dataset(
                "small",
                DatasetBuilder::new(DataType::Int { width: 2 }, &[10]).layout(LayoutKind::Compact),
            )
            .unwrap();
        ds.write(&[1u8; 20]).unwrap();
        assert_eq!(ds.read().unwrap(), vec![1u8; 20]);
        assert!(ds.extents().unwrap().is_empty(), "compact has no extents");
    }

    #[test]
    fn compact_too_large_is_rejected() {
        let f = file();
        match f.root().create_dataset(
            "big",
            DatasetBuilder::new(DataType::Float { width: 8 }, &[1000]).layout(LayoutKind::Compact),
        ) {
            Err(HdfError::InvalidArgument(_)) => {}
            Err(other) => panic!("unexpected error {other}"),
            Ok(_) => panic!("oversized compact dataset accepted"),
        }
    }

    #[test]
    fn varlen_round_trip() {
        let f = file();
        let mut ds = f
            .root()
            .create_dataset("vl", DatasetBuilder::new(DataType::VarLen, &[5]))
            .unwrap();
        let items: Vec<&[u8]> = vec![b"a", b"longer item", b"", b"xy", b"0123456789"];
        ds.write_varlen(0, &items).unwrap();
        let back = ds.read_varlen(0, 5).unwrap();
        assert_eq!(back.len(), 5);
        for (a, b) in items.iter().zip(&back) {
            assert_eq!(*a, &b[..]);
        }
        // Partial read.
        assert_eq!(ds.read_varlen(1, 1).unwrap()[0], b"longer item");
    }

    #[test]
    fn varlen_chunked_round_trip() {
        let f = file();
        let mut ds = f
            .root()
            .create_dataset(
                "vl",
                DatasetBuilder::new(DataType::VarLen, &[10]).chunks(&[4]),
            )
            .unwrap();
        for i in 0..10u64 {
            let item = vec![i as u8; (i as usize + 1) * 3];
            ds.write_varlen(i, &[&item]).unwrap();
        }
        for i in 0..10u64 {
            assert_eq!(
                ds.read_varlen(i, 1).unwrap()[0],
                vec![i as u8; (i as usize + 1) * 3]
            );
        }
        ds.close().unwrap();
    }

    #[test]
    fn varlen_requires_rank_one() {
        let f = file();
        assert!(f
            .root()
            .create_dataset("vl2", DatasetBuilder::new(DataType::VarLen, &[2, 2]))
            .is_err());
    }

    #[test]
    fn fixed_api_on_varlen_is_type_mismatch() {
        let f = file();
        let mut ds = f
            .root()
            .create_dataset("vl", DatasetBuilder::new(DataType::VarLen, &[2]))
            .unwrap();
        assert!(matches!(ds.write(&[0; 32]), Err(HdfError::TypeMismatch(_))));
        assert!(matches!(ds.read(), Err(HdfError::TypeMismatch(_))));
    }

    #[test]
    fn varlen_api_on_fixed_is_type_mismatch() {
        let f = file();
        let mut ds = f
            .root()
            .create_dataset("d", DatasetBuilder::new(DataType::Int { width: 4 }, &[4]))
            .unwrap();
        assert!(matches!(
            ds.write_varlen(0, &[b"x"]),
            Err(HdfError::TypeMismatch(_))
        ));
        assert!(matches!(
            ds.read_varlen(0, 1),
            Err(HdfError::TypeMismatch(_))
        ));
    }

    #[test]
    fn wrong_buffer_size_is_invalid() {
        let f = file();
        let mut ds = f
            .root()
            .create_dataset("d", DatasetBuilder::new(DataType::Int { width: 4 }, &[4]))
            .unwrap();
        assert!(matches!(
            ds.write(&[0; 15]),
            Err(HdfError::InvalidArgument(_))
        ));
    }

    #[test]
    fn dataset_attributes() {
        let f = file();
        let ds = f
            .root()
            .create_dataset("d", DatasetBuilder::new(DataType::Int { width: 4 }, &[4]))
            .unwrap();
        ds.set_attr("units", AttrValue::Str("m/s".into())).unwrap();
        assert_eq!(
            ds.attr("units").unwrap(),
            Some(AttrValue::Str("m/s".into()))
        );
    }

    #[test]
    fn extents_reflect_layout() {
        let f = file();
        let mut contig = f
            .root()
            .create_dataset("c", DatasetBuilder::new(DataType::Int { width: 1 }, &[100]))
            .unwrap();
        assert!(contig.extents().unwrap().is_empty(), "late allocation");
        contig.write(&[1; 100]).unwrap();
        let ext = contig.extents().unwrap();
        assert_eq!(ext.len(), 1);
        assert_eq!(ext[0].1, 100);

        let mut chunked = f
            .root()
            .create_dataset(
                "k",
                DatasetBuilder::new(DataType::Int { width: 1 }, &[100]).chunks(&[30]),
            )
            .unwrap();
        chunked.write(&[2; 100]).unwrap();
        chunked.close().unwrap();
        let f2 = f.root().open_dataset("k").unwrap().extents().unwrap();
        assert_eq!(f2.len(), 4, "4 chunks of 30 elements each");
    }

    #[test]
    fn use_after_close_is_error() {
        let f = file();
        let mut ds = f
            .root()
            .create_dataset("d", DatasetBuilder::new(DataType::Int { width: 1 }, &[4]))
            .unwrap();
        ds.close().unwrap();
        assert!(matches!(ds.write(&[0; 4]), Err(HdfError::Closed)));
        assert!(matches!(ds.close(), Err(HdfError::Closed)));
    }

    #[test]
    fn open_dataset_as_group_is_type_mismatch() {
        let f = file();
        f.root()
            .create_dataset("d", DatasetBuilder::new(DataType::Int { width: 1 }, &[4]))
            .unwrap();
        assert!(matches!(
            f.root().open_group("d"),
            Err(HdfError::TypeMismatch(_))
        ));
        f.root().create_group("g").unwrap();
        assert!(matches!(
            f.root().open_dataset("g"),
            Err(HdfError::TypeMismatch(_))
        ));
    }

    #[test]
    fn u64_round_trip() {
        let f = file();
        let mut ds = f
            .root()
            .create_dataset("u", DatasetBuilder::new(DataType::Int { width: 8 }, &[3]))
            .unwrap();
        ds.write_u64s(&[u64::MAX, 0, 42]).unwrap();
        assert_eq!(ds.read_u64s().unwrap(), vec![u64::MAX, 0, 42]);
    }
}

#[cfg(test)]
mod props {
    use super::*;
    use crate::file::{FileOptions, H5File};
    use dayu_trace::rng::cases;
    use dayu_vfd::MemVfd;

    /// Random slab writes against a shadow model read back exactly: the
    /// body of `slab_io_matches_model`, shared with its saved failures.
    fn slab_io_against_model(layout: LayoutKind, chunk: u64, len: u64, ops: &[(u64, u64, u8)]) {
        let f = H5File::create(MemVfd::new(), "p.h5", FileOptions::default()).unwrap();
        let builder = DatasetBuilder::new(DataType::Int { width: 1 }, &[len]);
        let builder = match layout {
            LayoutKind::Chunked => builder.chunks(&[chunk.min(len).max(1)]),
            other => builder.layout(other),
        };
        let mut ds = f.root().create_dataset("d", builder).unwrap();
        let mut model = vec![0u8; len as usize];
        for &(off, cnt, val) in ops {
            let off = off % len;
            let cnt = cnt.min(len - off);
            if cnt == 0 {
                continue;
            }
            ds.write_slab(&Selection::slab(&[off], &[cnt]), &vec![val; cnt as usize])
                .unwrap();
            for i in off..off + cnt {
                model[i as usize] = val;
            }
            // Read back a random-ish slab (reuse off/cnt shifted).
            let roff = (off / 2) % len;
            let rcnt = cnt.min(len - roff);
            let got = ds.read_slab(&Selection::slab(&[roff], &[rcnt])).unwrap();
            assert_eq!(&got[..], &model[roff as usize..(roff + rcnt) as usize]);
        }
        assert_eq!(ds.read().unwrap(), model);
        ds.close().unwrap();
        f.close().unwrap();
    }

    /// A failure `slab_io_matches_model` once found and saved: one
    /// zero-valued byte written at offset 0 of a 112-byte contiguous
    /// dataset.
    #[test]
    fn slab_io_saved_failure_contiguous_112() {
        slab_io_against_model(LayoutKind::Contiguous, 0, 112, &[(0, 1, 0)]);
    }

    /// Random slab writes against a shadow model read back exactly,
    /// for every layout and random chunk size.
    #[test]
    fn slab_io_matches_model() {
        cases("slab_io_matches_model", 64, |rng| {
            let (layout, chunk) = if rng.chance(0.5) {
                (LayoutKind::Contiguous, 0)
            } else {
                (LayoutKind::Chunked, rng.range(1, 40))
            };
            let len = rng.range(1, 200);
            let ops: Vec<(u64, u64, u8)> = (0..rng.range(1, 25))
                .map(|_| (rng.range(0, 200), rng.range(1, 64), rng.range(0, 255) as u8))
                .collect();
            slab_io_against_model(layout, chunk, len, &ops);
        });
    }

    /// Variable-length round trips with arbitrary item sizes, both
    /// layouts.
    #[test]
    fn varlen_matches_model() {
        cases("varlen_matches_model", 64, |rng| {
            let chunked = rng.chance(0.5);
            let items: Vec<Vec<u8>> = (0..rng.range(1, 20))
                .map(|_| {
                    (0..rng.range(0, 500))
                        .map(|_| rng.next_u64() as u8)
                        .collect()
                })
                .collect();
            let f = H5File::create(MemVfd::new(), "v.h5", FileOptions::default()).unwrap();
            let n = items.len() as u64;
            let builder = DatasetBuilder::new(DataType::VarLen, &[n]);
            let builder = if chunked {
                builder.chunks(&[3])
            } else {
                builder
            };
            let mut ds = f.root().create_dataset("vl", builder).unwrap();
            for (i, item) in items.iter().enumerate() {
                ds.write_varlen(i as u64, &[item]).unwrap();
            }
            assert_eq!(ds.read_varlen(0, n).unwrap(), items);
            ds.close().unwrap();
            f.close().unwrap();
        });
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::file::{FileOptions, H5File};
    use dayu_vfd::{MemFs, MemVfd};

    #[test]
    fn compact_varlen_descriptors() {
        // VL descriptors through the compact layout: 8 elements × 16 bytes
        // of descriptors live in the header; payloads in the heap.
        let f = H5File::create(MemVfd::new(), "cv.h5", FileOptions::default()).unwrap();
        let mut ds = f
            .root()
            .create_dataset(
                "vl",
                DatasetBuilder::new(DataType::VarLen, &[8]).layout(LayoutKind::Compact),
            )
            .unwrap();
        for i in 0..8u64 {
            let item = vec![i as u8; (i as usize + 1) * 5];
            ds.write_varlen(i, &[&item]).unwrap();
        }
        for i in 0..8u64 {
            assert_eq!(
                ds.read_varlen(i, 1).unwrap()[0],
                vec![i as u8; (i as usize + 1) * 5]
            );
        }
        assert!(ds.extents().unwrap().is_empty(), "compact: no extents");
        ds.close().unwrap();
        f.close().unwrap();
    }

    #[test]
    fn deep_nesting_persists() {
        let fs = MemFs::new();
        {
            let f =
                H5File::create(fs.create("deep.h5"), "deep.h5", FileOptions::default()).unwrap();
            let mut g = f.root().create_group("l0").unwrap();
            for depth in 1..8 {
                g = g.create_group(&format!("l{depth}")).unwrap();
            }
            let mut ds = g
                .create_dataset(
                    "leaf",
                    DatasetBuilder::new(DataType::Int { width: 2 }, &[4]),
                )
                .unwrap();
            ds.write(&[1; 8]).unwrap();
            ds.close().unwrap();
            f.close().unwrap();
        }
        let f = H5File::open(fs.open("deep.h5"), "deep.h5", FileOptions::default()).unwrap();
        let mut g = f.root().open_group("l0").unwrap();
        for depth in 1..8 {
            g = g.open_group(&format!("l{depth}")).unwrap();
        }
        let mut ds = g.open_dataset("leaf").unwrap();
        assert_eq!(ds.read().unwrap(), vec![1; 8]);
        ds.close().unwrap();
        f.close().unwrap();
    }

    #[test]
    fn group_attributes_persist_across_reopen() {
        let fs = MemFs::new();
        {
            let f = H5File::create(fs.create("ga.h5"), "ga.h5", FileOptions::default()).unwrap();
            let g = f.root().create_group("meta").unwrap();
            g.set_attr("run_id", AttrValue::U64(42)).unwrap();
            g.set_attr("label", AttrValue::Str("calib".into())).unwrap();
            f.close().unwrap();
        }
        let f = H5File::open(fs.open("ga.h5"), "ga.h5", FileOptions::default()).unwrap();
        let g = f.root().open_group("meta").unwrap();
        assert_eq!(g.attr("run_id").unwrap(), Some(AttrValue::U64(42)));
        assert_eq!(
            g.attr("label").unwrap(),
            Some(AttrValue::Str("calib".into()))
        );
        f.close().unwrap();
    }

    #[test]
    fn mixed_layouts_in_one_file_reopen() {
        let fs = MemFs::new();
        {
            let f = H5File::create(fs.create("mix.h5"), "mix.h5", FileOptions::default()).unwrap();
            let root = f.root();
            let mut a = root
                .create_dataset(
                    "compact",
                    DatasetBuilder::new(DataType::Int { width: 1 }, &[16])
                        .layout(LayoutKind::Compact),
                )
                .unwrap();
            a.write(&[1; 16]).unwrap();
            a.close().unwrap();
            let mut b = root
                .create_dataset(
                    "contig",
                    DatasetBuilder::new(DataType::Int { width: 1 }, &[16]),
                )
                .unwrap();
            b.write(&[2; 16]).unwrap();
            b.close().unwrap();
            let mut c = root
                .create_dataset(
                    "chunked",
                    DatasetBuilder::new(DataType::Int { width: 1 }, &[16]).chunks(&[5]),
                )
                .unwrap();
            c.write(&[3; 16]).unwrap();
            c.close().unwrap();
            let mut v = root
                .create_dataset("vl", DatasetBuilder::new(DataType::VarLen, &[2]))
                .unwrap();
            v.write_varlen(0, &[b"alpha", b"bee"]).unwrap();
            v.close().unwrap();
            f.close().unwrap();
        }
        let f = H5File::open(fs.open("mix.h5"), "mix.h5", FileOptions::default()).unwrap();
        let root = f.root();
        for (name, fill, layout) in [
            ("compact", 1u8, LayoutKind::Compact),
            ("contig", 2, LayoutKind::Contiguous),
            ("chunked", 3, LayoutKind::Chunked),
        ] {
            let mut ds = root.open_dataset(name).unwrap();
            assert_eq!(ds.layout(), layout, "{name}");
            assert_eq!(ds.read().unwrap(), vec![fill; 16], "{name}");
            ds.close().unwrap();
        }
        let mut v = root.open_dataset("vl").unwrap();
        let items = v.read_varlen(0, 2).unwrap();
        assert_eq!(items[0], b"alpha");
        assert_eq!(items[1], b"bee");
        v.close().unwrap();
        f.close().unwrap();
    }

    #[test]
    fn full_read_of_unwritten_chunks_is_fill() {
        let f = H5File::create(MemVfd::new(), "z.h5", FileOptions::default()).unwrap();
        let mut ds = f
            .root()
            .create_dataset(
                "d",
                DatasetBuilder::new(DataType::Int { width: 1 }, &[256])
                    .chunks(&[16])
                    .cache_bytes(32),
            )
            .unwrap();
        // All chunks are holes: the bypassed ones must not touch the device.
        assert_eq!(ds.read().unwrap(), vec![0u8; 256]);
        // Partial writes go through the cache and still interoperate.
        ds.write_slab(&Selection::slab(&[100], &[20]), &[7; 20])
            .unwrap();
        let back = ds.read().unwrap();
        assert_eq!(&back[100..120], &[7u8; 20]);
        assert_eq!(&back[..100], &vec![0u8; 100][..]);
    }

    #[test]
    fn partial_write_then_distant_read_returns_fill() {
        // Regression for the extent-hole bug the slab property caught:
        // a partial first write must leave the rest of the extent readable.
        let f = H5File::create(MemVfd::new(), "hole.h5", FileOptions::default()).unwrap();
        let mut ds = f
            .root()
            .create_dataset(
                "d",
                DatasetBuilder::new(DataType::Int { width: 1 }, &[4096]),
            )
            .unwrap();
        ds.write_slab(&Selection::slab(&[0], &[10]), &[9; 10])
            .unwrap();
        let tail = ds.read_slab(&Selection::slab(&[4000], &[96])).unwrap();
        assert_eq!(tail, vec![0u8; 96], "unwritten region reads as fill");
        let head = ds.read_slab(&Selection::slab(&[0], &[10])).unwrap();
        assert_eq!(head, vec![9u8; 10]);
        ds.close().unwrap();
        f.close().unwrap();
    }
}

/// Full-dataspace sweeps against the cached loop, called directly: the
/// same driver ops (a failed one included), results, file image, and ops
/// and results of a later probe of every chunk plus the close, with a
/// fault injected at every op of the sweep in turn.
#[cfg(test)]
mod sweep_props {
    use super::*;
    use crate::file::{FileOptions, H5File};
    use crate::journal::Durability;
    use dayu_trace::rng::{cases, ChaosRng};
    use dayu_vfd::{MemFs, MemVfd, Vfd, VfdError};

    /// One driver op: write?, offset, length, access, failed?
    type Op = (bool, u64, u64, AccessType, bool);

    #[derive(Default)]
    struct Log {
        ops: Vec<Op>,
        /// Ops counted since the sweep began, while armed.
        armed: Option<usize>,
        fail_at: Option<usize>,
    }

    /// A memory driver that logs every read and write and fails the
    /// `fail_at`-th op of the armed window.
    struct LogVfd {
        inner: MemVfd,
        log: Arc<Mutex<Log>>,
    }

    impl LogVfd {
        fn op(
            &self,
            write: bool,
            offset: u64,
            len: u64,
            access: AccessType,
        ) -> dayu_vfd::Result<()> {
            let mut log = lock(&self.log);
            let fail_at = log.fail_at;
            let fail = log.armed.as_mut().is_some_and(|seen| {
                *seen += 1;
                fail_at == Some(*seen - 1)
            });
            log.ops.push((write, offset, len, access, fail));
            if fail {
                return Err(VfdError::Io(std::io::Error::other("injected")));
            }
            Ok(())
        }
    }

    impl Vfd for LogVfd {
        fn read(
            &mut self,
            offset: u64,
            buf: &mut [u8],
            access: AccessType,
        ) -> dayu_vfd::Result<()> {
            self.op(false, offset, buf.len() as u64, access)?;
            self.inner.read(offset, buf, access)
        }
        fn write(&mut self, offset: u64, data: &[u8], access: AccessType) -> dayu_vfd::Result<()> {
            self.op(true, offset, data.len() as u64, access)?;
            self.inner.write(offset, data, access)
        }
        fn eof(&self) -> u64 {
            self.inner.eof()
        }
        fn truncate(&mut self, eof: u64) -> dayu_vfd::Result<()> {
            self.inner.truncate(eof)
        }
        fn close(&mut self) -> dayu_vfd::Result<()> {
            self.inner.close()
        }
    }

    #[derive(Clone, Debug)]
    struct Geometry {
        shape: Vec<u64>,
        chunks: Vec<u64>,
        esize: u32,
        cache_bytes: u64,
        /// Chunks written before a read sweep; the rest stay holes.
        written: Vec<bool>,
        /// Whether the sweep runs on a reopened handle (index not loaded).
        reopen: bool,
        durability: Durability,
    }

    impl Geometry {
        fn grid(&self) -> ChunkGrid {
            ChunkGrid::new(&self.shape, &self.chunks).unwrap()
        }

        fn builder(&self) -> DatasetBuilder {
            DatasetBuilder::new(DataType::FixedBytes { len: self.esize }, &self.shape)
                .chunks(&self.chunks)
                .cache_bytes(self.cache_bytes)
        }

        /// Chunks the plan should bypass in a full sweep of a fresh
        /// dataset: n − k where every chunk is one run of the buffer and
        /// the sweep overflows the cache, else none.
        fn bypass(&self) -> usize {
            let grid = self.grid();
            let chunk_bytes = grid.chunk_elements() * self.esize as u64;
            let k = (self.cache_bytes / chunk_bytes).max(1);
            if grid.chunks_are_runs() {
                grid.chunk_count().saturating_sub(k) as usize
            } else {
                0
            }
        }

        /// The selection chunk `ord` covers, clipped to the dataspace.
        fn chunk_sel(&self, ord: u64) -> Selection {
            let grid = self.grid();
            let mut rest = ord;
            let mut offset = vec![0; self.shape.len()];
            for d in (0..self.shape.len()).rev() {
                offset[d] = rest % grid.grid[d] * self.chunks[d];
                rest /= grid.grid[d];
            }
            let count = (0..self.shape.len())
                .map(|d| self.chunks[d].min(self.shape[d] - offset[d]))
                .collect::<Vec<_>>();
            Selection::slab(&offset, &count)
        }

        fn bytes(&self, sel: &Selection, salt: u64) -> Vec<u8> {
            let len = sel.element_count() * self.esize as u64;
            (0..len).map(|i| (i * 31 + salt * 7 + 1) as u8).collect()
        }
    }

    /// The cached loop's write of the whole dataspace.
    fn cached_loop_write(ds: &mut Dataset, data: &[u8]) -> Result<()> {
        let esize = ds.check_fixed()?;
        let sel = Selection::all(&ds.shape);
        let state = ds.chunk.as_mut().unwrap();
        let mut core = lock(&ds.core);
        core.check_open()?;
        let sweep = Sweep::new(state, &sel, esize);
        cached_write(&mut core, state, &sweep, 0, data)
    }

    /// The cached loop's read of the whole dataspace.
    fn cached_loop_read(ds: &mut Dataset) -> Result<Vec<u8>> {
        let esize = ds.check_fixed()?;
        let sel = Selection::all(&ds.shape);
        let state = ds.chunk.as_mut().unwrap();
        let mut core = lock(&ds.core);
        core.check_open()?;
        let mut out = vec![0u8; (sel.element_count() * esize) as usize];
        let sweep = Sweep::new(state, &sel, esize);
        cached_read(&mut core, state, &sweep, 0, &mut out).map_err(|(_, e)| e)?;
        Ok(out)
    }

    /// What one run shows: the full op log, the cache the sweep left
    /// (least recently used first), the sweep's, probe's and closes'
    /// results, and the final image.
    #[derive(Debug, PartialEq)]
    struct Run {
        ops: Vec<Op>,
        sweep_ops: usize,
        cache: Vec<(u64, bool, Vec<u8>)>,
        results: Vec<String>,
        image: Vec<u8>,
    }

    /// What `sweep_plan` returns for a full sweep of a fresh dataset of `g`.
    fn plan(g: &Geometry, write: bool) -> usize {
        let f = H5File::create(MemVfd::new(), "q.h5", FileOptions::default()).unwrap();
        let mut ds = f.root().create_dataset("d", g.builder()).unwrap();
        let sel = Selection::all(&g.shape);
        let state = ds.chunk.as_mut().unwrap();
        let mut core = lock(&ds.core);
        let sweep = Sweep::new(state, &sel, g.esize as u64);
        sweep_plan(&mut core, state, &sweep, &g.shape, write).unwrap()
    }

    /// One sweep of `g` (a write, or a read after writing `g.written`)
    /// through `Dataset::write`/`read` when `planned`, else through the
    /// cached loop.
    fn run(g: &Geometry, planned: bool, read: bool, fail_at: Option<usize>) -> Run {
        let fs = MemFs::new();
        let log = Arc::new(Mutex::new(Log::default()));
        let vfd = LogVfd {
            inner: fs.create("p.h5"),
            log: log.clone(),
        };
        let mut opts = FileOptions::default().with_durability(g.durability);
        // The cache a reopened handle gets.
        opts.chunk_cache_bytes = g.cache_bytes;
        let f = H5File::create(vfd, "p.h5", opts).unwrap();
        let mut ds = f.root().create_dataset("d", g.builder()).unwrap();
        let n = g.grid().chunk_count();
        if read {
            for ord in (0..n).filter(|&o| g.written[o as usize]) {
                let sel = g.chunk_sel(ord);
                ds.write_slab(&sel, &g.bytes(&sel, ord)).unwrap();
            }
        }
        if read || g.reopen {
            ds.close().unwrap();
            ds = f.root().open_dataset("d").unwrap();
        }
        let all = Selection::all(&g.shape);
        let data = g.bytes(&all, 99);
        {
            let mut l = lock(&log);
            l.armed = Some(0);
            l.fail_at = fail_at;
        }
        let swept = match (read, planned) {
            (false, false) => format!("{:?}", cached_loop_write(&mut ds, &data)),
            (false, true) => format!("{:?}", ds.write(&data)),
            (true, false) => format!("{:?}", cached_loop_read(&mut ds)),
            (true, true) => format!("{:?}", ds.read()),
        };
        let sweep_ops = lock(&log).armed.take().unwrap();
        let cache = ds.chunk.as_ref().unwrap().cache.resident();
        let cache = cache
            .into_iter()
            .map(|(o, d, c)| (o, d, c.to_vec()))
            .collect();
        let mut results = vec![swept];
        for ord in 0..n {
            results.push(format!("{:?}", ds.read_slab(&g.chunk_sel(ord))));
        }
        results.push(format!("{:?}", ds.close()));
        results.push(format!("{:?}", f.close()));
        let ops = std::mem::take(&mut lock(&log).ops);
        Run {
            ops,
            sweep_ops,
            cache,
            results,
            image: fs.snapshot("p.h5").unwrap(),
        }
    }

    /// The planned sweep against the cached loop, clean and with a fault
    /// at each op the clean sweep issues. Where the plan bypasses nothing
    /// (non-spanning chunks, or a sweep the cache holds) the two must be
    /// the same code path; the plan is checked first.
    fn sweeps_match_cached_loop(g: &Geometry) {
        for read in [false, true] {
            assert_eq!(plan(g, !read), g.bypass(), "plan of {g:?}");
            let clean = run(g, false, read, None);
            assert!(
                clean.results.iter().all(|r| r.starts_with("Ok")),
                "{:?}",
                clean.results
            );
            for fail_at in std::iter::once(None).chain((0..clean.sweep_ops).map(Some)) {
                let want = run(g, false, read, fail_at);
                let got = run(g, true, read, fail_at);
                assert!(
                    got == want,
                    "{} sweep, fault at {fail_at:?}: {:?}",
                    if read { "read" } else { "write" },
                    first_difference(&got, &want)
                );
            }
        }
    }

    fn first_difference(got: &Run, want: &Run) -> String {
        if let Some(i) =
            (0..got.ops.len().max(want.ops.len())).find(|&i| got.ops.get(i) != want.ops.get(i))
        {
            return format!("op {i}: {:?} vs {:?}", got.ops.get(i), want.ops.get(i));
        }
        if got.cache != want.cache {
            let ords = |r: &Run| r.cache.iter().map(|c| (c.0, c.1)).collect::<Vec<_>>();
            return format!("cache {:?} vs {:?}", ords(got), ords(want));
        }
        if let Some(i) = (0..got.results.len()).find(|&i| got.results.get(i) != want.results.get(i))
        {
            return format!(
                "result {i}: {:?} vs {:?}",
                got.results.get(i),
                want.results.get(i)
            );
        }
        "images differ".into()
    }

    fn geometry(rng: &mut ChaosRng) -> Geometry {
        let shape = match rng.range(0, 3) {
            0 => vec![rng.range(1, 48)],
            1 => vec![rng.range(1, 12), rng.range(1, 5)],
            _ => vec![rng.range(1, 8), rng.range(1, 4), rng.range(1, 4)],
        };
        let esize = rng.range(1, 5) as u32;
        let reopen = rng.chance(0.5);
        let journal = rng.chance(0.5);
        // Dim 0 is free; later dims span the dataspace when picked.
        let chunks: Vec<u64> = shape
            .iter()
            .enumerate()
            .map(|(d, &s)| {
                let (c, span) = (rng.range(0, 64), rng.chance(0.5));
                if d > 0 && span {
                    s
                } else {
                    1 + c % s
                }
            })
            .collect();
        let grid = ChunkGrid::new(&shape, &chunks).unwrap();
        let n = grid.chunk_count();
        let chunk_bytes = grid.chunk_elements() * esize as u64;
        let k = 1 + rng.range(0, 100) * n / 100;
        let extra = rng.range(0, 100);
        Geometry {
            shape,
            chunks,
            esize,
            cache_bytes: k * chunk_bytes + extra * chunk_bytes / 100,
            written: (0..n).map(|_| rng.range(0, 4) != 0).collect(),
            reopen,
            durability: if journal {
                Durability::Journal
            } else {
                Durability::WriteThrough
            },
        }
    }

    /// 64 chunks of 1 KiB against an 8 KiB cache: 56 bypassed chunks.
    #[test]
    fn one_dimensional_example_matches_cached_loop() {
        let g = Geometry {
            shape: vec![64 << 10],
            chunks: vec![1 << 10],
            esize: 1,
            cache_bytes: 8 << 10,
            written: (0..64).map(|i| i % 5 != 3).collect(),
            reopen: false,
            durability: Durability::WriteThrough,
        };
        assert_eq!(g.bypass(), 56);
        sweeps_match_cached_loop(&g);
    }

    /// Random 1-D and N-D geometries, spanning and non-spanning chunk
    /// dims, random cache sizes and durabilities.
    #[test]
    fn full_sweeps_match_cached_loop() {
        cases("full_sweeps_match_cached_loop", 24, |rng| {
            sweeps_match_cached_loop(&geometry(rng))
        });
    }
}
