//! Process-wide string interner backing the trace key types.
//!
//! DaYu's hot path — the VFD profiler constructing a [`crate::vfd::VfdRecord`]
//! per low-level operation, the shared context publishing the current task
//! and object, the analyzer deduplicating graph nodes — is dominated by
//! string traffic over a *tiny* set of distinct names (task names, file
//! names, object paths). Interning collapses every such name to a
//! [`Symbol`]: a `u32` index into an append-only process-wide table.
//! Cloning, hashing and equality become integer operations and the record
//! hot path stops allocating entirely.
//!
//! Interned strings are leaked (`Box::leak`) so `as_str` can hand out
//! `&'static str`. The table only grows with the number of *distinct*
//! strings ever interned — bounded by workload vocabulary, not by
//! operation count — which is the standard trade-off interners like
//! `ustr` or rustc's symbol table make.
//!
//! The table is a fixed array of lazily allocated chunks, chunk *k*
//! holding 2^k write-once slots, so a slot never moves once filled.
//! Interning fills the next slot under the name map's write lock;
//! [`Symbol::as_str`] takes no lock at all, only two acquire loads (the
//! chunk, then the slot). Every ordered report resolves names through it,
//! so name comparisons cost a string compare and nothing more.
//!
//! [`SymbolMap`] and [`SymbolSet`] are the hash containers for keys made
//! of symbols (and of the key types in [`crate::ids`], which hash their
//! symbol): per-record analysis state lives in them, and name order is
//! applied once, when a report is built.

use crate::sync::{read, write};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{OnceLock, RwLock};

/// A handle to an interned string: 4 bytes, `Copy`, integer compare/hash.
///
/// Symbols are only meaningful within the current process. Persisting them
/// requires writing the string table alongside (see the `.dtb` binary trace
/// store, which embeds a per-file table and re-interns on load). The derived
/// ordering is *interning order*, not lexicographic — the key newtypes in
/// [`crate::ids`] provide lexicographic `Ord` by comparing resolved strings.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

/// Chunks in the table: chunk `k` holds 2^k slots, so 33 chunks hold
/// 2^33 - 1 slots, more than there are `u32` indices.
const CHUNKS: usize = 33;

/// One chunk of write-once name slots.
type Chunk = Box<[OnceLock<&'static str>]>;

/// The append-only name table, indexed through [`slot_of`].
static TABLE: [OnceLock<Chunk>; CHUNKS] = [const { OnceLock::new() }; CHUNKS];

/// Name → index, the only state behind a lock. Its length is the number
/// of names interned, so it also picks the next free index.
fn names() -> &'static RwLock<HashMap<&'static str, u32>> {
    static NAMES: OnceLock<RwLock<HashMap<&'static str, u32>>> = OnceLock::new();
    NAMES.get_or_init(|| RwLock::new(HashMap::new()))
}

/// The chunk and position within it of table index `index`: index `i`
/// lives in chunk `floor(log2(i + 1))`.
fn slot_of(index: u32) -> (usize, usize) {
    let n = u64::from(index) + 1;
    let chunk = n.ilog2();
    (chunk as usize, (n - (1 << chunk)) as usize)
}

impl Symbol {
    /// Interns `s`, returning the same symbol for equal strings forever
    /// after. Read-lock fast path; the write lock is only taken the first
    /// time a distinct string is seen.
    pub fn intern(s: &str) -> Symbol {
        if let Some(&id) = read(names()).get(s) {
            return Symbol(id);
        }
        let mut w = write(names());
        // Double-check: another thread may have interned between locks.
        if let Some(&id) = w.get(s) {
            return Symbol(id);
        }
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        let id = u32::try_from(w.len()).expect("interner table overflow");
        let (chunk, slot) = slot_of(id);
        let chunk =
            TABLE[chunk].get_or_init(|| (0..1usize << chunk).map(|_| OnceLock::new()).collect());
        // Filled before the name is published in the map: any thread that
        // can hold this symbol finds its slot set.
        chunk[slot]
            .set(leaked)
            .expect("each index is filled once, under the write lock");
        w.insert(leaked, id);
        Symbol(id)
    }

    /// Looks up the symbol for `s` without interning: `None` when `s` was
    /// never interned. Allocation-free probe for read-only lookups
    /// (e.g. `Graph::find`).
    pub fn lookup(s: &str) -> Option<Symbol> {
        read(names()).get(s).copied().map(Symbol)
    }

    /// The interned string, read without taking a lock.
    pub fn as_str(self) -> &'static str {
        let (chunk, slot) = slot_of(self.0);
        TABLE[chunk]
            .get()
            .and_then(|c| c[slot].get())
            .expect("a symbol's slot is filled before the symbol exists")
    }

    /// The raw table index: stable within this process only, and dense
    /// from 0, so it can index a per-process table (the `.dtb` writer
    /// keeps one for each section it writes).
    pub fn index(self) -> u32 {
        self.0
    }

    /// The symbol at `index`, which must have come from [`Symbol::index`]
    /// (the shared context publishes symbols as indices in atomics).
    pub(crate) fn from_index(index: u32) -> Symbol {
        Symbol(index)
    }

    /// Number of distinct strings interned so far (diagnostics / tests).
    pub fn interned_count() -> usize {
        read(names()).len()
    }
}

/// Hasher for keys made of interned symbols, which hash as a few
/// integers: one rotate, xor and multiply per word (rustc's `FxHasher`
/// step) costs a fraction of SipHash. Symbols are this process's
/// interner indices, not input an adversary chooses, so a keyed hash buys
/// nothing here. Integers hash per word; byte slices (anything else)
/// per byte.
#[derive(Default)]
pub struct SymbolHasher(u64);

impl SymbolHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for SymbolHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    fn write_u32(&mut self, word: u32) {
        self.add(u64::from(word));
    }

    fn write_u64(&mut self, word: u64) {
        self.add(word);
    }

    fn write_usize(&mut self, word: usize) {
        self.add(word as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A hash map over symbol-made keys ([`Symbol`], the [`crate::ids`] key
/// types, tuples of them and of integers), hashed by [`SymbolHasher`].
/// Its iteration order is arbitrary: sort by name before anything a
/// report shows.
pub type SymbolMap<K, V> = HashMap<K, V, BuildHasherDefault<SymbolHasher>>;

/// The set counterpart of [`SymbolMap`].
pub type SymbolSet<K> = HashSet<K, BuildHasherDefault<SymbolHasher>>;

impl std::fmt::Display for Symbol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_string_same_symbol() {
        let a = Symbol::intern("alpha-test-string");
        let b = Symbol::intern("alpha-test-string");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "alpha-test-string");
    }

    #[test]
    fn distinct_strings_distinct_symbols() {
        let a = Symbol::intern("distinct-a");
        let b = Symbol::intern("distinct-b");
        assert_ne!(a, b);
        assert_ne!(a.as_str(), b.as_str());
    }

    #[test]
    fn lookup_does_not_intern() {
        assert_eq!(Symbol::lookup("never-interned-i-promise-xyz"), None);
        let s = Symbol::intern("looked-up-after-intern");
        assert_eq!(Symbol::lookup("looked-up-after-intern"), Some(s));
    }

    #[test]
    fn symbols_are_stable_under_interleaved_interning() {
        let a = Symbol::intern("stability-a");
        for i in 0..100 {
            Symbol::intern(&format!("stability-filler-{i}"));
        }
        let a2 = Symbol::intern("stability-a");
        assert_eq!(a, a2, "later interning never remaps a symbol");
        assert_eq!(a2.as_str(), "stability-a");
    }

    #[test]
    fn no_collision_across_similar_strings() {
        // Strings that a weak hash could conflate must stay distinct.
        let pairs = [
            ("/group/dataset", "/group/dataset "),
            ("a.h5", "a.h5\0"),
            ("task_1", "task_10"),
            ("", " "),
        ];
        for (x, y) in pairs {
            assert_ne!(Symbol::intern(x), Symbol::intern(y), "{x:?} vs {y:?}");
        }
    }

    #[test]
    fn concurrent_interning_agrees() {
        let handles: Vec<_> = (0..8)
            .map(|t| {
                std::thread::spawn(move || {
                    (0..200)
                        .map(|i| (i, Symbol::intern(&format!("concurrent-{}", i % 50))))
                        .map(|(i, s)| {
                            assert_eq!(s.as_str(), format!("concurrent-{}", i % 50));
                            let _ = t;
                            s
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let results: Vec<Vec<Symbol>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for w in results.windows(2) {
            assert_eq!(w[0], w[1], "every thread resolved identical symbols");
        }
    }

    #[test]
    fn slots_follow_power_of_two_chunks() {
        assert_eq!(slot_of(0), (0, 0));
        assert_eq!(slot_of(1), (1, 0));
        assert_eq!(slot_of(2), (1, 1));
        assert_eq!(slot_of(3), (2, 0));
        assert_eq!(slot_of(1022), (9, 511));
        assert_eq!(slot_of(1023), (10, 0));
        assert_eq!(slot_of(u32::MAX), (32, 0));
    }

    #[test]
    fn every_symbol_resolves_across_chunk_boundaries() {
        // More than 2^10 fresh names fill chunks past the tenth, whatever
        // other tests interned first.
        let names: Vec<String> = (0..1500).map(|i| format!("chunked-{i}")).collect();
        let symbols: Vec<Symbol> = names.iter().map(|n| Symbol::intern(n)).collect();
        assert!(Symbol::interned_count() > 1 << 10);
        for (name, sym) in names.iter().zip(&symbols) {
            assert_eq!(sym.as_str(), name);
            assert_eq!(Symbol::lookup(name), Some(*sym));
        }
        let last = symbols.iter().map(|s| s.index()).max().unwrap();
        assert!(slot_of(last).0 >= 10, "the names span chunk 10");
    }

    #[test]
    fn readers_resolve_while_a_writer_interns() {
        let seeded: Vec<Symbol> = (0..64)
            .map(|i| Symbol::intern(&format!("read-under-write-{i}")))
            .collect();
        // Every thread starts together, so reads overlap the writer's
        // interning (and the chunk allocations it triggers).
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                start.wait();
                (0..3000)
                    .map(|i| Symbol::intern(&format!("written-meanwhile-{i}")))
                    .collect::<Vec<_>>()
            });
            for _ in 0..3 {
                scope.spawn(|| {
                    start.wait();
                    for i in 0..3000 {
                        // Names the writer may have just published…
                        let fresh = format!("written-meanwhile-{i}");
                        if let Some(s) = Symbol::lookup(&fresh) {
                            assert_eq!(s.as_str(), fresh);
                        }
                        // …and names interned long before.
                        let j = i % seeded.len();
                        assert_eq!(seeded[j].as_str(), format!("read-under-write-{j}"));
                    }
                });
            }
            let written = writer.join().expect("writer thread");
            for (i, s) in written.iter().enumerate() {
                assert_eq!(s.as_str(), format!("written-meanwhile-{i}"));
            }
        });
    }

    #[test]
    fn symbol_hasher_hashes_integers_per_word() {
        let hash = |f: &dyn Fn(&mut SymbolHasher)| {
            let mut h = SymbolHasher::default();
            f(&mut h);
            h.finish()
        };
        let word = hash(&|h| h.write_u64(7));
        assert_eq!(hash(&|h| h.write_usize(7)), word);
        assert_eq!(hash(&|h| h.write_u32(7)), word);
        assert_ne!(hash(&|h| h.write(&7u64.to_ne_bytes())), word);
        let mut map: SymbolMap<(Symbol, usize), u8> = SymbolMap::default();
        map.insert((Symbol::intern("hashed-key"), 3), 1);
        assert_eq!(map.get(&(Symbol::intern("hashed-key"), 3)), Some(&1));
    }

    #[test]
    fn empty_string_interns() {
        let e = Symbol::intern("");
        assert_eq!(e.as_str(), "");
        assert_eq!(Symbol::intern(""), e);
    }
}
