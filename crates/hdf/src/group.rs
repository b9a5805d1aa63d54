//! Groups: hierarchical containers of datasets and other groups.
//!
//! A group's children live in an *entry table* block (the analogue of
//! HDF5's symbol table): a packed list of `(name, header address, kind)`
//! entries. Adding a child rewrites the table into a freshly allocated
//! block and frees the old one — exactly the metadata-churn pattern that
//! makes object creation visible as small metadata I/O in VFD traces.

use crate::codec::{Decoder, Encoder};
use crate::dataset::{Dataset, DatasetBuilder};
use crate::error::{HdfError, Result};
use crate::file::FileCore;
use crate::meta::{self, AttrValue, Attribute, ObjectHeader};
use dayu_trace::ids::ObjectKey;
use dayu_trace::sync::lock;
use dayu_trace::vfd::AccessType;
use dayu_trace::vol::{ObjectDescription, ObjectKind};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// One child entry of a group.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Entry {
    /// Child's leaf name.
    pub name: String,
    /// Address of the child's object header.
    pub addr: u64,
    /// Group or dataset.
    pub kind: ObjectKind,
}

/// Encodes an entry-table block. Public (like [`decode_table`]) so
/// external repair tooling can rebuild pruned tables byte-compatibly.
pub fn encode_table(entries: &[Entry]) -> Vec<u8> {
    let mut e = Encoder::new();
    e.u32(entries.len() as u32);
    for en in entries {
        e.str(&en.name).u64(en.addr).u8(match en.kind {
            ObjectKind::Group => 1,
            _ => 2,
        });
    }
    e.finish()
}

/// Smallest encoded entry: an empty name's u16 length, the u64 address
/// and the u8 kind.
const MIN_ENTRY_BYTES: usize = 2 + 8 + 1;

/// Decodes an entry-table block into its child entries. Public so external
/// integrity checkers (dayu-lint's fsck) can walk the hierarchy from raw
/// bytes without opening the file.
pub fn decode_table(buf: &[u8]) -> Result<Vec<Entry>> {
    let mut d = Decoder::new(buf);
    let n = d.u32()? as usize;
    // The count is untrusted: reserve no more entries than the block
    // could hold.
    let mut out = Vec::with_capacity(n.min(d.remaining() / MIN_ENTRY_BYTES));
    for _ in 0..n {
        let name = d.str()?;
        let addr = d.u64()?;
        let kind = match d.u8()? {
            1 => ObjectKind::Group,
            2 => ObjectKind::Dataset,
            k => return Err(HdfError::Corrupt(format!("bad entry kind {k}"))),
        };
        out.push(Entry { name, addr, kind });
    }
    Ok(out)
}

/// A decoded entry table and its name index.
#[derive(Default)]
pub(crate) struct EntryTable {
    entries: Vec<Entry>,
    /// Name → position of the first entry with that name, so a table
    /// that repeats a name resolves it as a front-to-back scan would.
    /// Names come from the file, so the map keeps std's keyed hasher.
    index: HashMap<String, usize>,
}

impl EntryTable {
    fn new(entries: Vec<Entry>) -> Self {
        let mut index = HashMap::with_capacity(entries.len());
        for (i, e) in entries.iter().enumerate() {
            index.entry(e.name.clone()).or_insert(i);
        }
        Self { entries, index }
    }

    /// The entries in table order.
    pub(crate) fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// The address and kind of the first child named `name`.
    pub(crate) fn find(&self, name: &str) -> Option<(u64, ObjectKind)> {
        let e = &self.entries[*self.index.get(name)?];
        Some((e.addr, e.kind))
    }

    /// Appends a child whose name the table does not hold yet.
    fn push(&mut self, entry: Entry) {
        self.index.insert(entry.name.clone(), self.entries.len());
        self.entries.push(entry);
    }
}

/// Entry tables decoded earlier, keyed by table address.
///
/// A slot holds the bytes last decoded at its address and the table they
/// decoded to. A lookup still reads the table, into a buffer the memo
/// keeps; it reuses the decoded table only when the bytes it just read
/// equal the slot's. So a table rewritten in place, by this handle or by
/// another one on the same image, is decoded again, and nothing stale is
/// ever returned.
#[derive(Default)]
pub(crate) struct TableMemo {
    slots: HashMap<u64, TableSlot>,
    /// Where the next table read lands.
    buf: Vec<u8>,
}

struct TableSlot {
    bytes: Vec<u8>,
    table: EntryTable,
}

impl TableMemo {
    /// The table at `addr`, once `read` has put the bytes stored there
    /// into the memo's buffer. A table that fails to decode leaves no slot
    /// behind.
    pub(crate) fn table(
        &mut self,
        addr: u64,
        read: impl FnOnce(&mut Vec<u8>) -> Result<()>,
    ) -> Result<&EntryTable> {
        read(&mut self.buf)?;
        if self.slots.get(&addr).is_none_or(|s| s.bytes != self.buf) {
            self.slots.remove(&addr);
            let table = EntryTable::new(decode_table(&self.buf)?);
            let bytes = std::mem::take(&mut self.buf);
            self.slots.insert(addr, TableSlot { bytes, table });
        }
        Ok(&self.slots[&addr].table)
    }

    /// Moves the table at `addr` (0 for a group without one) out of the
    /// memo with `entry` appended, and returns it with its encoding, for
    /// [`TableMemo::install`] at the address the encoding is written to.
    /// The table must have just been returned by [`TableMemo::table`], so
    /// no copy and no second decode is made.
    fn extend(&mut self, addr: u64, entry: Entry) -> (EntryTable, Vec<u8>) {
        let mut table = match addr {
            0 => EntryTable::default(),
            addr => {
                self.slots
                    .remove(&addr)
                    .expect("the table was just looked up")
                    .table
            }
        };
        table.push(entry);
        let bytes = encode_table(table.entries());
        (table, bytes)
    }

    /// Records the table this handle wrote: `bytes`, encoding `table`, now
    /// at `addr`.
    fn install(&mut self, addr: u64, bytes: Vec<u8>, table: EntryTable) {
        self.slots.insert(addr, TableSlot { bytes, table });
    }
}

/// Handle to a group within an open file.
pub struct Group {
    core: Arc<Mutex<FileCore>>,
    header_addr: u64,
    path: String,
    is_root: bool,
}

impl Group {
    pub(crate) fn root(core: Arc<Mutex<FileCore>>) -> Group {
        let header_addr = {
            let core_guard = lock(&core);
            // Root header address is recorded in the superblock which the
            // core loaded at open; it is always the first header block.
            core_guard.root_header_addr()
        };
        Group {
            core,
            header_addr,
            path: "/".to_owned(),
            is_root: true,
        }
    }

    /// This group's full path (e.g. `/` or `/sim/step0`).
    pub fn path(&self) -> &str {
        &self.path
    }

    fn child_path(&self, name: &str) -> String {
        if self.is_root {
            format!("/{name}")
        } else {
            format!("{}/{name}", self.path)
        }
    }

    fn insert_child(&self, name: &str, child: &ObjectHeader) -> Result<u64> {
        let mut core = lock(&self.core);
        core.check_open()?;
        if core
            .group_table(self.header_addr)?
            .is_some_and(|t| t.find(name).is_some())
        {
            return Err(HdfError::AlreadyExists(self.child_path(name)));
        }
        let mut header = core.load_header(self.header_addr)?;
        let child_addr = core.create_header(child)?;
        let (table, bytes) = core.tables.extend(
            header.table_addr,
            Entry {
                name: name.to_owned(),
                addr: child_addr,
                kind: child.kind,
            },
        );
        let new_addr = core.rf.alloc_write(&bytes, AccessType::Metadata)?;
        if header.table_addr != 0 {
            core.rf.free(header.table_addr, header.table_len);
        }
        header.table_addr = new_addr;
        header.table_len = bytes.len() as u64;
        core.tables.install(new_addr, bytes, table);
        core.store_header(self.header_addr, &header)?;
        Ok(child_addr)
    }

    /// The address and kind of child `name`.
    fn find_child(&self, name: &str) -> Result<(u64, ObjectKind)> {
        let mut core = lock(&self.core);
        core.check_open()?;
        core.group_table(self.header_addr)?
            .and_then(|t| t.find(name))
            .ok_or_else(|| HdfError::NotFound(self.child_path(name)))
    }

    /// Creates a child group.
    pub fn create_group(&self, name: &str) -> Result<Group> {
        let path = self.child_path(name);
        let ctx = lock(&self.core).ctx.clone();
        let key = ObjectKey::new(path.clone());
        let addr = ctx.with_object(key.clone(), || {
            self.insert_child(name, &ObjectHeader::new_group())
        })?;
        {
            let core = lock(&self.core);
            let now = core.now();
            let file = core.name.clone();
            core.hooks.each(|h| {
                h.object_opened(
                    &file,
                    &key,
                    ObjectKind::Group,
                    &ObjectDescription::default(),
                    now,
                )
            });
        }
        Ok(Group {
            core: self.core.clone(),
            header_addr: addr,
            path,
            is_root: false,
        })
    }

    /// Opens an existing child group.
    pub fn open_group(&self, name: &str) -> Result<Group> {
        let path = self.child_path(name);
        let key = ObjectKey::new(path.clone());
        let ctx = lock(&self.core).ctx.clone();
        let header_addr = ctx.with_object(key.clone(), || {
            let (addr, kind) = self.find_child(name)?;
            if kind != ObjectKind::Group {
                return Err(HdfError::TypeMismatch(format!("{path} is not a group")));
            }
            // Pull the header into the cache under the object's scope so the
            // metadata read is attributed to it.
            lock(&self.core).header(addr)?;
            Ok(addr)
        })?;
        {
            let core = lock(&self.core);
            let now = core.now();
            let file = core.name.clone();
            core.hooks.each(|h| {
                h.object_opened(
                    &file,
                    &key,
                    ObjectKind::Group,
                    &ObjectDescription::default(),
                    now,
                )
            });
        }
        Ok(Group {
            core: self.core.clone(),
            header_addr,
            path,
            is_root: false,
        })
    }

    /// Creates a dataset in this group per the builder's specification.
    pub fn create_dataset(&self, name: &str, builder: DatasetBuilder) -> Result<Dataset> {
        Dataset::create(self.core.clone(), self, name, builder)
    }

    /// Opens an existing dataset.
    pub fn open_dataset(&self, name: &str) -> Result<Dataset> {
        Dataset::open(self.core.clone(), self, name)
    }

    /// Opens `name` if it exists, creating it per `builder` otherwise.
    ///
    /// The idempotent form of [`Group::create_dataset`] for resume-aware
    /// task bodies: a retry that reopens a recovered file finds the
    /// datasets a previous attempt committed and continues in place.
    pub fn ensure_dataset(&self, name: &str, builder: DatasetBuilder) -> Result<Dataset> {
        match self.find_child(name) {
            Ok(_) => self.open_dataset(name),
            Err(HdfError::NotFound(_)) => self.create_dataset(name, builder),
            Err(e) => Err(e),
        }
    }

    /// Opens child group `name` if it exists, creating it otherwise (the
    /// idempotent form of [`Group::create_group`]).
    pub fn ensure_group(&self, name: &str) -> Result<Group> {
        match self.find_child(name) {
            Ok(_) => self.open_group(name),
            Err(HdfError::NotFound(_)) => self.create_group(name),
            Err(e) => Err(e),
        }
    }

    /// Lists the group's children as `(name, kind)` pairs.
    pub fn list(&self) -> Result<Vec<(String, ObjectKind)>> {
        let mut core = lock(&self.core);
        core.check_open()?;
        Ok(core
            .group_table(self.header_addr)?
            .map_or(&[][..], |t| t.entries())
            .iter()
            .map(|e| (e.name.clone(), e.kind))
            .collect())
    }

    /// Whether a child with `name` exists.
    pub fn exists(&self, name: &str) -> Result<bool> {
        match self.find_child(name) {
            Ok(_) => Ok(true),
            Err(HdfError::NotFound(_)) => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Sets (or replaces) an attribute on this group.
    pub fn set_attr(&self, name: &str, value: AttrValue) -> Result<()> {
        set_attr_on(&self.core, self.header_addr, &self.path, name, value)
    }

    /// Reads an attribute of this group.
    pub fn attr(&self, name: &str) -> Result<Option<AttrValue>> {
        attr_on(&self.core, self.header_addr, name)
    }

    /// All attributes of this group.
    pub fn attrs(&self) -> Result<Vec<Attribute>> {
        attrs_on(&self.core, self.header_addr)
    }

    pub(crate) fn insert_child_header(&self, name: &str, header: &ObjectHeader) -> Result<u64> {
        self.insert_child(name, header)
    }

    pub(crate) fn lookup_child(&self, name: &str) -> Result<(u64, ObjectKind)> {
        self.find_child(name)
    }

    pub(crate) fn make_child_path(&self, name: &str) -> String {
        self.child_path(name)
    }
}

/// Shared attribute mutation used by both groups and datasets: loads the
/// attribute block, updates it, writes a fresh block and frees the old one.
pub(crate) fn set_attr_on(
    core: &Arc<Mutex<FileCore>>,
    header_addr: u64,
    path: &str,
    name: &str,
    value: AttrValue,
) -> Result<()> {
    let ctx = lock(core).ctx.clone();
    ctx.with_object(ObjectKey::new(path), || {
        let mut core = lock(core);
        core.check_open()?;
        let mut header = core.load_header(header_addr)?;
        let mut attrs = if header.attr_addr == 0 {
            Vec::new()
        } else {
            let buf = core
                .rf
                .read_at(header.attr_addr, header.attr_len, AccessType::Metadata)?;
            meta::decode_attrs(&buf)?
        };
        match attrs.iter_mut().find(|a| a.name == name) {
            Some(a) => a.value = value,
            None => attrs.push(Attribute {
                name: name.to_owned(),
                value,
            }),
        }
        let bytes = meta::encode_attrs(&attrs);
        let new_addr = core.rf.alloc_write(&bytes, AccessType::Metadata)?;
        if header.attr_addr != 0 {
            core.rf.free(header.attr_addr, header.attr_len);
        }
        header.attr_addr = new_addr;
        header.attr_len = bytes.len() as u64;
        core.store_header(header_addr, &header)
    })
}

pub(crate) fn attr_on(
    core: &Arc<Mutex<FileCore>>,
    header_addr: u64,
    name: &str,
) -> Result<Option<AttrValue>> {
    Ok(attrs_on(core, header_addr)?
        .into_iter()
        .find(|a| a.name == name)
        .map(|a| a.value))
}

pub(crate) fn attrs_on(core: &Arc<Mutex<FileCore>>, header_addr: u64) -> Result<Vec<Attribute>> {
    let mut core = lock(core);
    core.check_open()?;
    let header = core.header(header_addr)?;
    let (addr, len) = (header.attr_addr, header.attr_len);
    if addr == 0 {
        return Ok(Vec::new());
    }
    let buf = core.rf.read_at(addr, len, AccessType::Metadata)?;
    meta::decode_attrs(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::{FileOptions, H5File};
    use crate::DatasetBuilder;
    use dayu_trace::vol::DataType;
    use dayu_vfd::{MemFs, MemVfd, Vfd};

    fn file() -> H5File {
        H5File::create(MemVfd::new(), "t.h5", FileOptions::default()).unwrap()
    }

    /// The root group's table location and decoded entries.
    fn root_table(f: &H5File) -> (u64, u64, Vec<Entry>) {
        let mut core = lock(&f.core);
        let root = core.root_header_addr();
        let entries = core.group_table(root).unwrap().unwrap().entries().to_vec();
        let header = core.header(root).unwrap();
        (header.table_addr, header.table_len, entries)
    }

    /// A VFD that logs the `(offset, len, access)` of every read.
    struct ReadLog {
        inner: MemVfd,
        reads: Arc<Mutex<Vec<(u64, u64, AccessType)>>>,
    }

    impl Vfd for ReadLog {
        fn read(
            &mut self,
            offset: u64,
            buf: &mut [u8],
            access: AccessType,
        ) -> dayu_vfd::Result<()> {
            lock(&self.reads).push((offset, buf.len() as u64, access));
            self.inner.read(offset, buf, access)
        }
        fn write(&mut self, offset: u64, data: &[u8], access: AccessType) -> dayu_vfd::Result<()> {
            self.inner.write(offset, data, access)
        }
        fn eof(&self) -> u64 {
            self.inner.eof()
        }
        fn truncate(&mut self, eof: u64) -> dayu_vfd::Result<()> {
            self.inner.truncate(eof)
        }
    }

    #[test]
    fn table_codec_round_trip() {
        let entries = vec![
            Entry {
                name: "alpha".into(),
                addr: 1024,
                kind: ObjectKind::Group,
            },
            Entry {
                name: "beta".into(),
                addr: 2048,
                kind: ObjectKind::Dataset,
            },
        ];
        let bytes = encode_table(&entries);
        assert_eq!(decode_table(&bytes).unwrap(), entries);
        assert!(decode_table(&encode_table(&[])).unwrap().is_empty());
    }

    #[test]
    fn table_count_beyond_its_block_is_corrupt() {
        // A count of u32::MAX in a 4-byte block: no entry follows it.
        assert!(matches!(
            decode_table(&[0xff; 4]),
            Err(HdfError::Corrupt(_))
        ));
    }

    #[test]
    fn table_rewritten_in_place_is_decoded_again() {
        let fs = MemFs::new();
        let f = H5File::create(fs.create("w.h5"), "w.h5", FileOptions::default()).unwrap();
        let root = f.root();
        root.create_group("alpha").unwrap();
        root.create_group("beta").unwrap();
        assert!(root.exists("alpha").unwrap());
        // Another handle on the same image renames `alpha` in place; the
        // same-length name keeps the table's address and length.
        let (addr, _, mut entries) = root_table(&f);
        entries[0].name = "gamma".into();
        fs.open("w.h5")
            .write(addr, &encode_table(&entries), AccessType::Metadata)
            .unwrap();
        assert!(root.exists("gamma").unwrap());
        assert!(matches!(
            root.open_group("alpha"),
            Err(HdfError::NotFound(_))
        ));
        assert_eq!(root.open_group("gamma").unwrap().path(), "/gamma");
        let names: Vec<String> = root.list().unwrap().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["gamma", "beta"]);
    }

    #[test]
    fn repeated_name_resolves_to_the_first_entry() {
        let fs = MemFs::new();
        let f = H5File::create(fs.create("n.h5"), "n.h5", FileOptions::default()).unwrap();
        for (name, value) in [("a", 1u64), ("b", 2)] {
            let mut ds = f
                .root()
                .create_dataset(name, DatasetBuilder::new(DataType::Int { width: 8 }, &[1]))
                .unwrap();
            ds.write_u64s(&[value]).unwrap();
            ds.close().unwrap();
        }
        let (addr, _, mut entries) = root_table(&f);
        f.close().unwrap();
        // Forge the table so both entries are named `a`; the same-length
        // name keeps the table's address and length.
        entries[1].name = "a".into();
        fs.open("n.h5")
            .write(addr, &encode_table(&entries), AccessType::Metadata)
            .unwrap();

        let f = H5File::open(fs.open("n.h5"), "n.h5", FileOptions::default()).unwrap();
        let root = f.root();
        let mut ds = root.open_dataset("a").unwrap();
        assert_eq!(ds.read_u64s().unwrap(), vec![1], "the first `a` wins");
        ds.close().unwrap();
        assert!(!root.exists("b").unwrap());
        let names: Vec<String> = root.list().unwrap().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a", "a"]);
        f.close().unwrap();
    }

    #[test]
    fn every_open_reads_the_table() {
        let fs = MemFs::new();
        let f = H5File::create(fs.create("r.h5"), "r.h5", FileOptions::default()).unwrap();
        for i in 0..20 {
            f.root()
                .create_dataset(
                    &format!("d{i:02}"),
                    DatasetBuilder::new(DataType::Int { width: 1 }, &[4]),
                )
                .unwrap()
                .close()
                .unwrap();
        }
        f.close().unwrap();

        let reads = Arc::new(Mutex::new(Vec::new()));
        let vfd = ReadLog {
            inner: fs.open("r.h5"),
            reads: reads.clone(),
        };
        let f = H5File::open(vfd, "r.h5", FileOptions::default()).unwrap();
        let (addr, len, _) = root_table(&f);
        lock(&reads).clear();
        const OPENS: usize = 50;
        for i in 0..OPENS {
            let mut ds = f.root().open_dataset(&format!("d{:02}", i % 20)).unwrap();
            ds.close().unwrap();
        }
        let table_reads = lock(&reads)
            .iter()
            .filter(|&&r| r == (addr, len, AccessType::Metadata))
            .count();
        assert_eq!(table_reads, OPENS, "one table read per open");
        f.close().unwrap();
    }

    #[test]
    fn create_and_list_children() {
        let f = file();
        let root = f.root();
        root.create_group("a").unwrap();
        root.create_group("b").unwrap();
        let names: Vec<String> = root.list().unwrap().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a", "b"]);
        assert!(root.exists("a").unwrap());
        assert!(!root.exists("zz").unwrap());
    }

    #[test]
    fn nested_groups_and_paths() {
        let f = file();
        let root = f.root();
        assert_eq!(root.path(), "/");
        let a = root.create_group("a").unwrap();
        assert_eq!(a.path(), "/a");
        let b = a.create_group("b").unwrap();
        assert_eq!(b.path(), "/a/b");
        // Reopen through the hierarchy.
        let again = root.open_group("a").unwrap().open_group("b").unwrap();
        assert_eq!(again.path(), "/a/b");
    }

    #[test]
    fn duplicate_names_rejected() {
        let f = file();
        let root = f.root();
        root.create_group("x").unwrap();
        assert!(matches!(
            root.create_group("x"),
            Err(HdfError::AlreadyExists(_))
        ));
    }

    #[test]
    fn open_missing_group_fails() {
        let f = file();
        assert!(matches!(
            f.root().open_group("nope"),
            Err(HdfError::NotFound(_))
        ));
    }

    #[test]
    fn groups_persist_across_reopen() {
        let fs = MemFs::new();
        {
            let f = H5File::create(fs.create("g.h5"), "g.h5", FileOptions::default()).unwrap();
            f.root().create_group("persisted").unwrap();
            f.close().unwrap();
        }
        let f = H5File::open(fs.open("g.h5"), "g.h5", FileOptions::default()).unwrap();
        assert!(f.root().exists("persisted").unwrap());
        f.close().unwrap();
    }

    #[test]
    fn group_attributes() {
        let f = file();
        let g = f.root().create_group("g").unwrap();
        g.set_attr("version", AttrValue::U64(3)).unwrap();
        g.set_attr("desc", AttrValue::Str("storm".into())).unwrap();
        assert_eq!(g.attr("version").unwrap(), Some(AttrValue::U64(3)));
        // Replace.
        g.set_attr("version", AttrValue::U64(4)).unwrap();
        assert_eq!(g.attr("version").unwrap(), Some(AttrValue::U64(4)));
        assert_eq!(g.attrs().unwrap().len(), 2);
        assert_eq!(g.attr("missing").unwrap(), None);
    }

    #[test]
    fn ensure_helpers_are_idempotent() {
        let f = file();
        let root = f.root();
        let g1 = root.ensure_group("sim").unwrap();
        let g2 = root.ensure_group("sim").unwrap();
        assert_eq!(g1.path(), g2.path());
        let b = || DatasetBuilder::new(DataType::Int { width: 8 }, &[2]);
        let mut d = g1.ensure_dataset("d", b()).unwrap();
        d.write_u64s(&[3, 4]).unwrap();
        let mut again = g2.ensure_dataset("d", b()).unwrap();
        assert_eq!(again.read_u64s().unwrap(), vec![3, 4]);
        assert_eq!(g1.list().unwrap().len(), 1);
    }

    #[test]
    fn many_children_scale() {
        let f = file();
        let root = f.root();
        for i in 0..100 {
            root.create_group(&format!("g{i:03}")).unwrap();
        }
        assert_eq!(root.list().unwrap().len(), 100);
        assert!(root.exists("g057").unwrap());
    }
}

#[cfg(test)]
mod props {
    use super::*;
    use dayu_trace::rng::{cases, ChaosRng};

    /// Names over a three-letter alphabet, so tables repeat names.
    fn name(rng: &mut ChaosRng) -> String {
        (0..rng.range(0, 3))
            .map(|_| char::from(b'a' + rng.range(0, 3) as u8))
            .collect()
    }

    fn table(rng: &mut ChaosRng) -> Vec<Entry> {
        (0..rng.range(0, 301))
            .map(|_| Entry {
                name: name(rng),
                addr: rng.next_u64(),
                kind: if rng.chance(0.5) {
                    ObjectKind::Group
                } else {
                    ObjectKind::Dataset
                },
            })
            .collect()
    }

    /// A result with the error reduced to its message.
    fn outcome<T>(r: Result<T>) -> std::result::Result<T, String> {
        r.map_err(|e| e.to_string())
    }

    /// A table read that yields `bytes`.
    fn read(bytes: &[u8]) -> impl FnOnce(&mut Vec<u8>) -> Result<()> + '_ {
        |buf| {
            buf.clear();
            buf.extend_from_slice(bytes);
            Ok(())
        }
    }

    /// The first entry named `name`, found by scanning.
    fn scan(entries: &[Entry], name: &str) -> Option<(u64, ObjectKind)> {
        entries
            .iter()
            .find(|e| e.name == name)
            .map(|e| (e.addr, e.kind))
    }

    /// Memoized tables equal a fresh decode, and their indexed lookups
    /// a first-match scan of it, for `Ok` and `Err` alike. Rounds
    /// reread one of two tables unchanged, with flipped bytes or
    /// truncated, or insert a child into it as `insert_child` does,
    /// which moves the table's slot to a new address.
    #[test]
    fn memo_lookup_equals_fresh_decode() {
        cases("memo_lookup_equals_fresh_decode", 64, |rng| {
            let entries = table(rng);
            let rounds: Vec<_> = (0..rng.range(1, 8))
                .map(|_| {
                    let which = rng.range(0, 2) as usize;
                    let mode = rng.range(0, 5) as u8;
                    let flips: Vec<(usize, u8)> = (0..rng.range(1, 4))
                        .map(|_| (rng.next_u64() as usize, rng.range(1, 256) as u8))
                        .collect();
                    (which, mode, flips, rng.next_u64() as usize, name(rng))
                })
                .collect();
            let queries: Vec<String> = (0..rng.range(1, 4)).map(|_| name(rng)).collect();
            // Each table's current address (never 0, which means no
            // table) and entries.
            let mut tables = [(1u64, entries.clone()), (2, entries)];
            let mut next_addr = 3;
            let mut memo = TableMemo::default();
            for (which, mode, flips, cut, child) in rounds {
                let (addr, model) = &mut tables[which];
                if mode == 4 {
                    let bytes = encode_table(model);
                    let taken = memo
                        .table(*addr, read(&bytes))
                        .unwrap()
                        .find(&child)
                        .is_some();
                    assert_eq!(taken, scan(model, &child).is_some());
                    if !taken {
                        let entry = Entry {
                            name: child.clone(),
                            addr: next_addr,
                            kind: ObjectKind::Dataset,
                        };
                        let (table, bytes) = memo.extend(*addr, entry.clone());
                        model.push(entry);
                        assert_eq!(&bytes, &encode_table(model));
                        memo.install(next_addr, bytes, table);
                        *addr = next_addr;
                        next_addr += 1;
                    }
                }
                let mut bytes = encode_table(model);
                if mode & 1 == 1 {
                    for (at, mask) in flips {
                        let i = at % bytes.len();
                        bytes[i] ^= mask;
                    }
                }
                if mode & 2 == 2 {
                    bytes.truncate(cut % (bytes.len() + 1));
                }
                let fresh = decode_table(&bytes);
                let memoized = memo
                    .table(*addr, read(&bytes))
                    .map(|t| t.entries().to_vec());
                assert_eq!(outcome(memoized), outcome(decode_table(&bytes)));
                for q in queries.iter().chain([&child]) {
                    let indexed = memo.table(*addr, read(&bytes)).map(|t| t.find(q));
                    let scanned = fresh
                        .as_ref()
                        .map(|es| scan(es, q))
                        .map_err(|e| e.to_string());
                    assert_eq!(outcome(indexed), scanned);
                }
            }
        });
    }
}
