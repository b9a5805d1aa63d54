//! File handles and the shared file core.
//!
//! [`H5File`] owns a [`RawFile`] (driver + allocator), the global heap, the
//! header cache, and the observation plumbing (VOL [`HookSet`], shared
//! context, clock). [`crate::Group`] and [`crate::Dataset`]
//! handles share the core through an `Arc<Mutex<…>>`, mirroring HDF5 where
//! every object handle operates on the containing file's state.
//!
//! The header cache is read-cached but **write-through**: header updates go
//! to storage immediately, so metadata churn is visible to the VFD profiler
//! the way it is in HDF5 traces.

use crate::error::{HdfError, Result};
use crate::group::{EntryTable, Group, TableMemo};
use crate::heap::{GlobalHeap, DEFAULT_HEAP_BLOCK};
use crate::hooks::HookSet;
use crate::journal::{self, Durability, RecoveryReport, DEFAULT_JOURNAL_CAPACITY};
use crate::meta::{ObjectHeader, Superblock, HEADER_BLOCK_SIZE, SUPERBLOCK_REGION};
use crate::raw::RawFile;
use dayu_trace::context::SharedContext;
use dayu_trace::ids::FileKey;
use dayu_trace::sync::lock;
use dayu_trace::time::{Clock, RealClock, Timestamp};
use dayu_trace::vfd::AccessType;
use dayu_vfd::Vfd;
use std::collections::{hash_map, HashMap};
use std::sync::{Arc, Mutex};

/// Configuration for creating or opening a file.
#[derive(Clone)]
pub struct FileOptions {
    /// VOL hooks observing object-level events.
    pub hooks: HookSet,
    /// The VOL→VFD context channel; the format publishes the current object
    /// here so a profiling driver can attribute low-level I/O.
    pub context: SharedContext,
    /// Time source for VOL event stamps.
    pub clock: Arc<dyn Clock>,
    /// Global heap block size for variable-length payloads.
    pub heap_block_size: u64,
    /// Default chunk cache capacity per dataset, in bytes.
    pub chunk_cache_bytes: u64,
    /// Metadata durability contract. `Journal` stages metadata writes and
    /// commits them through the write-ahead journal on flush/close, so a
    /// crash never leaves half-applied metadata. Only consulted at create
    /// time: an existing file's superblock records whether it carries a
    /// journal, and that property wins on open.
    pub durability: Durability,
    /// Capacity of the journal region reserved at create time (journaled
    /// files only); the journal relocates itself if a commit outgrows it.
    pub journal_capacity: u64,
}

impl Default for FileOptions {
    fn default() -> Self {
        Self {
            hooks: HookSet::none(),
            context: SharedContext::new(),
            clock: Arc::new(RealClock::new()),
            heap_block_size: DEFAULT_HEAP_BLOCK,
            chunk_cache_bytes: crate::chunk::DEFAULT_CACHE_BYTES,
            durability: Durability::WriteThrough,
            journal_capacity: DEFAULT_JOURNAL_CAPACITY,
        }
    }
}

impl FileOptions {
    /// Selects the durability contract for files this options set creates.
    pub fn with_durability(mut self, d: Durability) -> Self {
        self.durability = d;
        self
    }
}

impl std::fmt::Debug for FileOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileOptions")
            .field("hooks", &self.hooks)
            .field("heap_block_size", &self.heap_block_size)
            .field("chunk_cache_bytes", &self.chunk_cache_bytes)
            .field("durability", &self.durability)
            .field("journal_capacity", &self.journal_capacity)
            .finish()
    }
}

/// Shared mutable state of one open file.
pub(crate) struct FileCore {
    pub(crate) name: FileKey,
    pub(crate) rf: RawFile,
    pub(crate) heap: GlobalHeap,
    pub(crate) hooks: HookSet,
    pub(crate) ctx: SharedContext,
    pub(crate) clock: Arc<dyn Clock>,
    pub(crate) chunk_cache_bytes: u64,
    header_cache: HashMap<u64, ObjectHeader>,
    /// Group entry tables decoded earlier (see [`FileCore::group_table`]).
    pub(crate) tables: TableMemo,
    root_addr: u64,
    open: bool,
    /// Last committed superblock generation.
    generation: u64,
    /// Journal region location (0 = write-through file).
    journal_addr: u64,
    journal_cap: u64,
    /// Clean flag of the newest durable superblock slot.
    clean_on_device: bool,
    /// `rf.write_count()` as of the last superblock write (or open). A
    /// flush with no writes since is a no-op — pure readers do not
    /// rewrite the superblock and so never appear as writers in FTGs.
    persisted_writes: u64,
}

impl FileCore {
    pub(crate) fn now(&self) -> Timestamp {
        self.clock.now()
    }

    /// Address of the root group's object header.
    pub(crate) fn root_header_addr(&self) -> u64 {
        self.root_addr
    }

    pub(crate) fn check_open(&self) -> Result<()> {
        if self.open {
            Ok(())
        } else {
            Err(HdfError::Closed)
        }
    }

    /// An object header, served from the cache after its first load (a
    /// minimal metadata cache, like HDF5's).
    pub(crate) fn header(&mut self, addr: u64) -> Result<&ObjectHeader> {
        match self.header_cache.entry(addr) {
            hash_map::Entry::Occupied(cached) => Ok(cached.into_mut()),
            hash_map::Entry::Vacant(slot) => {
                let buf = self
                    .rf
                    .read_at(addr, HEADER_BLOCK_SIZE, AccessType::Metadata)?;
                Ok(slot.insert(ObjectHeader::decode(&buf)?))
            }
        }
    }

    /// A copy of an object header, for callers that modify and store it.
    pub(crate) fn load_header(&mut self, addr: u64) -> Result<ObjectHeader> {
        self.header(addr).cloned()
    }

    /// The entry table of the group whose header is at `group_addr`, or
    /// `None` for a group that never had a child. The table is read on
    /// every call, so the op stream a profiler sees is unchanged; only its
    /// decode is reused, and only while the bytes read equal the bytes
    /// last decoded at that address.
    pub(crate) fn group_table(&mut self, group_addr: u64) -> Result<Option<&EntryTable>> {
        let header = self.header(group_addr)?;
        let (addr, len) = (header.table_addr, header.table_len);
        if addr == 0 {
            return Ok(None);
        }
        self.tables
            .table(addr, |buf| {
                self.rf
                    .read_at_reusing(addr, len, AccessType::Metadata, buf)
            })
            .map(Some)
    }

    /// Writes a header through to storage and updates the cache.
    pub(crate) fn store_header(&mut self, addr: u64, h: &ObjectHeader) -> Result<()> {
        let bytes = h.encode()?;
        self.rf.write_at(addr, &bytes, AccessType::Metadata)?;
        self.header_cache.insert(addr, h.clone());
        Ok(())
    }

    /// Allocates a header block and writes `h` into it.
    pub(crate) fn create_header(&mut self, h: &ObjectHeader) -> Result<u64> {
        let addr = self.rf.alloc(HEADER_BLOCK_SIZE)?;
        self.store_header(addr, h)?;
        Ok(addr)
    }

    fn superblock_for(&self, generation: u64, clean: bool) -> Superblock {
        Superblock {
            root_addr: self.root_addr,
            eof: self.rf.eof(),
            generation,
            clean,
            journal_addr: self.journal_addr,
            journal_cap: self.journal_cap,
        }
    }

    /// Writes superblock `sb` into the slot its generation selects and
    /// advances the dirty watermark.
    fn write_superblock_slot(&mut self, sb: Superblock) -> Result<()> {
        self.rf.write_direct(
            Superblock::slot_offset(sb.generation),
            &sb.encode(),
            AccessType::Metadata,
        )?;
        self.generation = sb.generation;
        self.clean_on_device = sb.clean;
        self.persisted_writes = self.rf.write_count();
        Ok(())
    }

    /// Makes the session's writes durable. A no-op when nothing changed
    /// since the last superblock write and the clean flag already matches
    /// (the dirty-flag contract asserted by `clean_flush_is_a_noop`).
    pub(crate) fn persist(&mut self, clean: bool) -> Result<()> {
        if self.rf.write_count() == self.persisted_writes && clean == self.clean_on_device {
            return Ok(());
        }
        if self.rf.journaling() {
            self.commit(clean)
        } else {
            let sb = self.superblock_for(self.generation + 1, clean);
            self.write_superblock_slot(sb)
        }
    }

    /// Journaled commit: seals the staged metadata as one epoch, then
    /// applies it in place. Ordering (each `flush` is a barrier):
    ///
    /// 1. journal frames for every staged block — `flush` (raw data and
    ///    frames durable);
    /// 2. commit marker — `flush` (the epoch is now sealed: recovery
    ///    rolls it forward);
    /// 3. staged blocks applied in place, then the generation-`epoch`
    ///    superblock slot — `flush`. A crash inside step 3 is repaired
    ///    from the sealed journal, so the two need no barrier between.
    fn commit(&mut self, clean: bool) -> Result<()> {
        let staged = self.rf.take_overlay();
        let needed: u64 = staged.iter().map(|(_, d)| d.len() as u64 + 32).sum::<u64>() + 64;
        if needed > self.journal_cap {
            self.relocate_journal(needed)?;
        }
        self.rf.apply_pending_frees();
        let epoch = self.generation + 1;
        let mut frames = Vec::with_capacity(needed as usize);
        for (addr, data) in &staged {
            frames.extend_from_slice(&journal::encode_block_frame(epoch, *addr, data));
        }
        self.rf
            .write_direct(self.journal_addr, &frames, AccessType::Metadata)?;
        self.rf.flush()?;
        let marker = journal::encode_commit_marker(
            epoch,
            self.root_addr,
            self.rf.eof(),
            self.journal_addr,
            self.journal_cap,
        );
        self.rf.write_direct(
            self.journal_addr + frames.len() as u64,
            &marker,
            AccessType::Metadata,
        )?;
        self.rf.flush()?;
        for (addr, data) in &staged {
            self.rf.write_direct(*addr, data, AccessType::Metadata)?;
        }
        self.write_superblock_slot(self.superblock_for(epoch, clean))?;
        self.rf.flush()?;
        Ok(())
    }

    /// Moves the journal to a larger region via a marker-only epoch: the
    /// relocation commits (in the old region) before any frame is written
    /// to the new one, so the new region is only ever referenced by a
    /// durable superblock.
    fn relocate_journal(&mut self, needed: u64) -> Result<()> {
        let new_cap = needed
            .checked_next_power_of_two()
            .unwrap_or(needed)
            .max(self.journal_cap);
        let new_addr = self.rf.alloc(new_cap)?;
        self.rf.ensure_eof(new_addr + new_cap)?;
        let epoch = self.generation + 1;
        let (old_addr, old_cap) = (self.journal_addr, self.journal_cap);
        self.journal_addr = new_addr;
        self.journal_cap = new_cap;
        let marker =
            journal::encode_commit_marker(epoch, self.root_addr, self.rf.eof(), new_addr, new_cap);
        self.rf.flush()?;
        self.rf
            .write_direct(old_addr, &marker, AccessType::Metadata)?;
        self.rf.flush()?;
        self.write_superblock_slot(self.superblock_for(epoch, false))?;
        self.rf.flush()?;
        // The old region stays reserved until the next commit applies
        // the deferred free, so a crash rolls back safely.
        self.rf.free(old_addr, old_cap);
        Ok(())
    }
}

/// An open format file.
pub struct H5File {
    pub(crate) core: Arc<Mutex<FileCore>>,
}

impl H5File {
    /// Creates a new file on `vfd` (existing contents are ignored and
    /// overwritten from address 0).
    pub fn create<V: Vfd + 'static>(vfd: V, name: &str, opts: FileOptions) -> Result<H5File> {
        let journaled = opts.durability == Durability::Journal;
        let journal_capacity = opts.journal_capacity.max(4096);
        let mut core = FileCore {
            name: FileKey::new(name),
            rf: RawFile::new(Box::new(vfd), SUPERBLOCK_REGION),
            heap: GlobalHeap::new(opts.heap_block_size),
            hooks: opts.hooks,
            ctx: opts.context,
            clock: opts.clock,
            chunk_cache_bytes: opts.chunk_cache_bytes,
            header_cache: HashMap::new(),
            tables: TableMemo::default(),
            root_addr: 0,
            open: true,
            generation: 0,
            journal_addr: 0,
            journal_cap: 0,
            clean_on_device: false,
            persisted_writes: 0,
        };
        // Root group header.
        let root = ObjectHeader::new_group();
        let root_addr = core.create_header(&root)?;
        core.root_addr = root_addr;
        if journaled {
            let addr = core.rf.alloc(journal_capacity)?;
            core.rf.ensure_eof(addr + journal_capacity)?;
            core.journal_addr = addr;
            core.journal_cap = journal_capacity;
        }
        // Generation 1 lands in slot B, so creation costs one superblock
        // write; slot A stays vacant (all zeros) until generation 2.
        let sb = core.superblock_for(1, true);
        core.write_superblock_slot(sb)?;
        if journaled {
            core.rf.flush()?;
            core.rf.set_journaling(true);
        }
        let now = core.now();
        let name_key = core.name.clone();
        core.hooks.each(|h| h.file_opened(&name_key, now));
        Ok(H5File {
            core: Arc::new(Mutex::new(core)),
        })
    }

    /// Opens an existing file on `vfd`, discarding the recovery report.
    pub fn open<V: Vfd + 'static>(vfd: V, name: &str, opts: FileOptions) -> Result<H5File> {
        Self::open_reporting(vfd, name, opts).map(|(f, _)| f)
    }

    /// Opens an existing file on `vfd` and reports what recovery found.
    ///
    /// A journaled file that missed its clean shutdown is repaired here:
    /// a sealed epoch is rolled forward, a torn one discarded (see
    /// [`journal::recover_image`]), and the repaired image is written
    /// back before the file is used. For write-through files the report
    /// only states whether the shutdown was clean.
    pub fn open_reporting<V: Vfd + 'static>(
        vfd: V,
        name: &str,
        opts: FileOptions,
    ) -> Result<(H5File, RecoveryReport)> {
        let mut rf = RawFile::new(Box::new(vfd), 0);
        let region = rf.read_at(0, SUPERBLOCK_REGION, AccessType::Metadata)?;
        let mut sb = Superblock::decode_region(&region)?;
        let report = if sb.journal_addr != 0 {
            let len = rf.device_eof();
            let mut image = rf.read_at(0, len, AccessType::Metadata)?;
            let (report, modified) = journal::recover_bytes(&mut image)?;
            if modified {
                rf.write_direct(0, &image, AccessType::Metadata)?;
                rf.truncate(image.len() as u64)?;
                rf.flush()?;
            }
            sb = Superblock::decode_region(&image)?;
            report
        } else {
            RecoveryReport {
                generation: sb.generation,
                was_clean: sb.clean,
                ..RecoveryReport::default()
            }
        };
        let mut core = FileCore {
            name: FileKey::new(name),
            rf: RawFile::new(Box::new(NullVfd), 0), // replaced below
            heap: GlobalHeap::new(opts.heap_block_size),
            hooks: opts.hooks,
            ctx: opts.context,
            clock: opts.clock,
            chunk_cache_bytes: opts.chunk_cache_bytes,
            header_cache: HashMap::new(),
            tables: TableMemo::default(),
            root_addr: sb.root_addr,
            open: true,
            generation: sb.generation,
            journal_addr: sb.journal_addr,
            journal_cap: sb.journal_cap,
            clean_on_device: sb.clean,
            persisted_writes: 0,
        };
        // Rebuild the raw file with allocation starting at the persisted EOF.
        core.rf = rf.restart_at(sb.eof);
        if sb.journal_addr != 0 {
            core.rf.set_journaling(true);
        }
        let now = core.now();
        let name_key = core.name.clone();
        core.hooks.each(|h| h.file_opened(&name_key, now));
        Ok((
            H5File {
                core: Arc::new(Mutex::new(core)),
            },
            report,
        ))
    }

    /// The file's name key.
    pub fn name(&self) -> FileKey {
        lock(&self.core).name.clone()
    }

    /// The root group.
    pub fn root(&self) -> Group {
        Group::root(self.core.clone())
    }

    /// Flushes the heap's current block and the superblock without
    /// closing. On a journaled file this commits one epoch; either way a
    /// flush with nothing dirty writes nothing.
    pub fn flush(&self) -> Result<()> {
        let mut core = lock(&self.core);
        core.check_open()?;
        let FileCore { rf, heap, .. } = &mut *core;
        heap.flush(rf)?;
        // Mid-session durability point: the file stays marked in-flight
        // until close, so a later crash is still detected on open.
        core.persist(false)?;
        core.rf.flush()?;
        Ok(())
    }

    /// Closes the file: flushes the heap, commits/writes the clean
    /// superblock, truncates to EOF, closes the driver and fires the
    /// `file_closed` hook. Dataset handles must be closed first (their
    /// chunk caches flush on their close).
    pub fn close(&self) -> Result<()> {
        let mut core = lock(&self.core);
        core.check_open()?;
        {
            let FileCore { rf, heap, .. } = &mut *core;
            heap.flush(rf)?;
        }
        core.persist(true)?;
        core.rf.close()?;
        core.open = false;
        let now = core.now();
        let name_key = core.name.clone();
        core.hooks.each(|h| h.file_closed(&name_key, now));
        Ok(())
    }

    /// Current end-of-file (allocated bytes).
    pub fn eof(&self) -> u64 {
        lock(&self.core).rf.eof()
    }

    /// Bytes currently on the internal free list (fragmentation metric).
    pub fn free_space(&self) -> u64 {
        lock(&self.core).rf.free_bytes()
    }
}

impl RawFile {
    /// Consumes this raw file and returns one whose allocator starts at
    /// `eof` (used when opening an existing file whose superblock records
    /// the persisted end-of-file).
    fn restart_at(self, eof: u64) -> RawFile {
        RawFile::new(self.into_vfd(), eof)
    }
}

/// Inert driver used briefly during two-phase open.
struct NullVfd;

impl Vfd for NullVfd {
    fn read(&mut self, _: u64, _: &mut [u8], _: AccessType) -> dayu_vfd::Result<()> {
        Err(dayu_vfd::VfdError::Closed)
    }
    fn write(&mut self, _: u64, _: &[u8], _: AccessType) -> dayu_vfd::Result<()> {
        Err(dayu_vfd::VfdError::Closed)
    }
    fn eof(&self) -> u64 {
        0
    }
    fn truncate(&mut self, _: u64) -> dayu_vfd::Result<()> {
        Err(dayu_vfd::VfdError::Closed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DatasetBuilder, Selection};
    use dayu_trace::vol::DataType;
    use dayu_vfd::{MemFs, MemVfd};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A memory driver that counts its writes.
    struct WriteCounter {
        inner: MemVfd,
        writes: Arc<AtomicUsize>,
    }

    impl Vfd for WriteCounter {
        fn read(
            &mut self,
            offset: u64,
            buf: &mut [u8],
            access: AccessType,
        ) -> dayu_vfd::Result<()> {
            self.inner.read(offset, buf, access)
        }
        fn write(&mut self, offset: u64, data: &[u8], access: AccessType) -> dayu_vfd::Result<()> {
            self.inner.write(offset, data, access)?;
            self.writes.fetch_add(1, Ordering::Relaxed);
            Ok(())
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

    #[test]
    fn create_close_reopen() {
        let fs = MemFs::new();
        let f = H5File::create(fs.create("a.h5"), "a.h5", FileOptions::default()).unwrap();
        assert_eq!(f.name().as_str(), "a.h5");
        assert!(f.eof() >= SUPERBLOCK_REGION + HEADER_BLOCK_SIZE);
        f.close().unwrap();

        let f2 = H5File::open(fs.open("a.h5"), "a.h5", FileOptions::default()).unwrap();
        let root = f2.root();
        assert_eq!(root.list().unwrap().len(), 0);
        f2.close().unwrap();
    }

    #[test]
    fn clean_flush_is_a_noop() {
        let writes = Arc::new(AtomicUsize::new(0));
        let vfd = WriteCounter {
            inner: MemVfd::new(),
            writes: writes.clone(),
        };
        let f = H5File::create(vfd, "c.h5", FileOptions::default()).unwrap();
        let mut ds = f
            .root()
            .create_dataset("d", DatasetBuilder::new(DataType::Int { width: 8 }, &[4]))
            .unwrap();
        ds.write_u64s(&[1, 2, 3, 4]).unwrap();
        f.flush().unwrap();
        let after_first = writes.load(Ordering::Relaxed);
        // Nothing changed since: the second flush must not write at all.
        f.flush().unwrap();
        assert_eq!(
            writes.load(Ordering::Relaxed),
            after_first,
            "clean flush must not rewrite the superblock"
        );
        f.close().unwrap();
    }

    #[test]
    fn journaled_file_round_trips() {
        let fs = MemFs::new();
        let opts = FileOptions::default().with_durability(Durability::Journal);
        let f = H5File::create(fs.create("j.h5"), "j.h5", opts.clone()).unwrap();
        let mut ds = f
            .root()
            .create_dataset("d", DatasetBuilder::new(DataType::Int { width: 8 }, &[4]))
            .unwrap();
        ds.write_u64s(&[9, 8, 7, 6]).unwrap();
        f.close().unwrap();

        let (f2, report) = H5File::open_reporting(fs.open("j.h5"), "j.h5", opts).unwrap();
        assert!(report.was_clean, "clean close: no recovery expected");
        let mut ds = f2.root().open_dataset("d").unwrap();
        assert_eq!(ds.read_u64s().unwrap(), vec![9, 8, 7, 6]);
        f2.close().unwrap();
    }

    #[test]
    fn torn_commit_rolls_back_to_last_committed_state() {
        let fs = MemFs::new();
        let opts = FileOptions::default().with_durability(Durability::Journal);
        let f = H5File::create(fs.create("t.h5"), "t.h5", opts.clone()).unwrap();
        let mut ds = f
            .root()
            .create_dataset("d", DatasetBuilder::new(DataType::Int { width: 8 }, &[2]))
            .unwrap();
        ds.write_u64s(&[5, 6]).unwrap();
        f.close().unwrap();

        // Simulate a crash mid-epoch: a torn next-epoch frame in the
        // journal and an uncommitted tail past the committed EOF — the
        // committed state must survive the reopen.
        {
            let image = fs.snapshot("t.h5").expect("image exists");
            let sb = Superblock::decode_region(&image).unwrap();
            let frame = journal::encode_block_frame(sb.generation + 1, 128, &[0xAB; 64]);
            let torn = &frame[..frame.len() / 2];
            let mut v = fs.open("t.h5");
            v.write(sb.journal_addr, torn, AccessType::Metadata)
                .unwrap();
            v.write(image.len() as u64, &[0xCD; 100], AccessType::RawData)
                .unwrap();
        }
        let (f2, report) = H5File::open_reporting(fs.open("t.h5"), "t.h5", opts).unwrap();
        assert!(report.performed_recovery());
        let mut ds = f2.root().open_dataset("d").unwrap();
        assert_eq!(ds.read_u64s().unwrap(), vec![5, 6]);
        f2.close().unwrap();
    }

    #[test]
    fn double_close_is_an_error() {
        let f = H5File::create(MemVfd::new(), "x", FileOptions::default()).unwrap();
        f.close().unwrap();
        assert!(matches!(f.close(), Err(HdfError::Closed)));
        assert!(matches!(f.flush(), Err(HdfError::Closed)));
    }

    #[test]
    fn open_garbage_is_corrupt() {
        let v = MemVfd::with_bytes(vec![0u8; 128]);
        assert!(matches!(
            H5File::open(v, "bad", FileOptions::default()),
            Err(HdfError::Corrupt(_))
        ));
    }

    #[test]
    fn open_truncated_file_is_error() {
        let v = MemVfd::with_bytes(vec![0u8; 10]);
        assert!(H5File::open(v, "tiny", FileOptions::default()).is_err());
    }

    /// Rewrites the object header at `addr` of the closed file `name`
    /// through `edit`, with a fresh CRC: only the edited fields lie.
    fn forge_header(fs: &MemFs, name: &str, addr: u64, edit: impl FnOnce(&mut ObjectHeader)) {
        let image = fs.snapshot(name).unwrap();
        let mut h = ObjectHeader::decode(&image[addr as usize..]).unwrap();
        edit(&mut h);
        fs.open(name)
            .write(addr, &h.encode().unwrap(), AccessType::Metadata)
            .unwrap();
    }

    fn is_out_of_bounds<T>(r: Result<T>) -> bool {
        matches!(
            r,
            Err(HdfError::Vfd(dayu_vfd::VfdError::OutOfBounds { .. }))
        )
    }

    #[test]
    fn forged_table_len_is_an_error_not_an_allocation() {
        for table_len in [1u64 << 62, 1 << 63, u64::MAX] {
            let fs = MemFs::new();
            let f = H5File::create(fs.create("t.h5"), "t.h5", FileOptions::default()).unwrap();
            f.root().create_group("g").unwrap();
            f.close().unwrap();
            let root = Superblock::decode_region(&fs.snapshot("t.h5").unwrap())
                .unwrap()
                .root_addr;
            forge_header(&fs, "t.h5", root, |h| h.table_len = table_len);

            let f = H5File::open(fs.open("t.h5"), "t.h5", FileOptions::default()).unwrap();
            assert!(is_out_of_bounds(f.root().list()), "table_len {table_len}");
            assert!(is_out_of_bounds(f.root().exists("g")));
        }
    }

    #[test]
    fn forged_chunk_count_is_an_error_not_an_allocation() {
        let fs = MemFs::new();
        let f = H5File::create(fs.create("c.h5"), "c.h5", FileOptions::default()).unwrap();
        let b = DatasetBuilder::new(DataType::Int { width: 8 }, &[4]).chunks(&[1]);
        let mut ds = f.root().create_dataset("d", b).unwrap();
        ds.write_u64s(&[1, 2, 3, 4]).unwrap();
        ds.close().unwrap();
        let (addr, _) = f.root().lookup_child("d").unwrap();
        f.close().unwrap();
        // 2^40 one-element chunks: a 12 TiB chunk index.
        forge_header(&fs, "c.h5", addr, |h| h.shape = vec![1 << 40]);

        let f = H5File::open(fs.open("c.h5"), "c.h5", FileOptions::default()).unwrap();
        let mut ds = f.root().open_dataset("d").unwrap();
        assert!(is_out_of_bounds(ds.read_slab(&Selection::slab(&[0], &[1]))));
    }
}
