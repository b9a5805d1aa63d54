//! The JSON the workspace writes, held to the tracked files.
//!
//! The figure exports under `figures_out/` and the `BENCH_*.json` reports
//! were written before `dayu_trace::json` existed, by serde_json. Each
//! file is read into a plain value tree and written back with the pretty
//! writer, and must come back byte for byte; each graph export is also
//! rebuilt as a [`Graph`] and must come back from [`export::to_json`] and
//! [`export::to_html`]. The workspace reads no JSON, so the value tree
//! comes from [`Parser`], a reader of these trusted files only.

use dayu_analyzer::export;
use dayu_analyzer::graph::{Edge, EdgeStats, Graph, GraphKind, Node, NodeKind, Operation};
use dayu_trace::json::{self, ToJson, Writer};
use dayu_trace::time::Timestamp;
use std::path::{Path, PathBuf};

/// Any JSON value. Numbers keep serde_json's split: digits only are an
/// integer, anything else a float.
#[derive(Debug)]
enum Value {
    Null,
    Bool(bool),
    Int(u64),
    Float(f64),
    Str(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

/// A recursive-descent reader of well-formed JSON. It reads only the
/// tracked files, which are trusted, so malformed input may panic.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    /// Skips whitespace; the next byte, or 0 at the end.
    fn peek(&mut self) -> u8 {
        let bytes = self.text.as_bytes();
        while bytes.get(self.pos).is_some_and(u8::is_ascii_whitespace) {
            self.pos += 1;
        }
        bytes.get(self.pos).copied().unwrap_or(0)
    }

    /// Consumes `b` if it comes next after whitespace.
    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == b;
        self.pos += usize::from(hit);
        hit
    }

    /// The items of an array or object up to `close`, each read by `item`.
    fn items(&mut self, close: u8, mut item: impl FnMut(&mut Self)) {
        self.pos += 1;
        if !self.eat(close) {
            loop {
                item(self);
                if self.eat(close) {
                    break;
                }
                assert!(self.eat(b','), "`,` at byte {}", self.pos);
            }
        }
    }

    fn value(&mut self) -> Value {
        match self.peek() {
            b'{' => {
                let mut entries = Vec::new();
                self.items(b'}', |p| {
                    let key = p.string();
                    assert!(p.eat(b':'), "`:` at byte {}", p.pos);
                    entries.push((key, p.value()));
                });
                Value::Object(entries)
            }
            b'[' => {
                let mut items = Vec::new();
                self.items(b']', |p| items.push(p.value()));
                Value::Array(items)
            }
            b'"' => Value::Str(self.string()),
            _ => {
                let rest = &self.text[self.pos..];
                let len = rest
                    .find(|c: char| !(c.is_ascii_alphanumeric() || "+-.".contains(c)))
                    .unwrap_or(rest.len());
                self.pos += len;
                match &rest[..len] {
                    "null" => Value::Null,
                    "true" => Value::Bool(true),
                    "false" => Value::Bool(false),
                    n => match n.parse::<u64>() {
                        Ok(i) => Value::Int(i),
                        Err(_) => Value::Float(n.parse().expect("a JSON number")),
                    },
                }
            }
        }
    }

    /// A string. The tracked files hold no escapes, so none is read.
    fn string(&mut self) -> String {
        assert_eq!(self.peek(), b'"', "a string at byte {}", self.pos);
        let rest = &self.text[self.pos + 1..];
        let len = rest.find('"').expect("a terminated string");
        assert!(
            !rest[..len].contains('\\'),
            "an escape at byte {}",
            self.pos
        );
        self.pos += len + 2;
        rest[..len].to_owned()
    }
}

impl Value {
    fn parse(text: &str) -> Value {
        let mut p = Parser { text, pos: 0 };
        let v = p.value();
        assert_eq!(p.peek(), 0, "one value");
        v
    }

    fn get(&self, key: &str) -> &Value {
        match self {
            Value::Object(entries) => entries
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("no key {key}")),
            other => panic!("{other:?} is not an object"),
        }
    }

    fn u64(&self) -> u64 {
        match self {
            Value::Int(i) => *i,
            other => panic!("{other:?} is not an integer"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Value::Str(s) => s,
            other => panic!("{other:?} is not a string"),
        }
    }

    fn items(&self) -> &[Value] {
        match self {
            Value::Array(items) => items,
            other => panic!("{other:?} is not an array"),
        }
    }
}

impl ToJson for Value {
    fn write_json(&self, w: &mut Writer) {
        match self {
            Value::Null => w.null(),
            Value::Bool(b) => w.bool(*b),
            Value::Int(i) => w.u64(*i),
            Value::Float(f) => w.f64(*f),
            Value::Str(s) => w.string(s),
            Value::Array(items) => w.array(items),
            Value::Object(entries) => w.object(|w| {
                for (k, v) in entries {
                    w.field(k, v);
                }
            }),
        }
    }
}

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The tracked graph exports, `figures_out/*.json`.
fn graph_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(root().join("figures_out"))
        .expect("figures_out is tracked")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    files
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn tracked_json_files_round_trip_byte_for_byte() {
    let graphs = graph_files();
    assert_eq!(graphs.len(), 14, "figures 3 to 8b, FTG and SDG each");
    for path in &graphs {
        let text = read(path);
        let back = json::to_string_pretty(&Value::parse(&text));
        assert!(back == text, "{} changed on its way back", path.display());
    }
    // Bench reports end with a newline after the document.
    for suite in ["io", "pipeline", "serve"] {
        let path = root().join(format!("BENCH_{suite}.json"));
        let text = read(&path);
        let back = json::to_string_pretty(&Value::parse(&text)) + "\n";
        assert!(back == text, "{} changed on its way back", path.display());
    }
}

/// A graph export read back into a [`Graph`].
fn graph_of(v: &Value) -> Graph {
    fn variant<T: Copy>(v: &Value, options: &[(&str, T)]) -> T {
        let name = v.str();
        options
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("unknown variant {name}"))
            .1
    }
    let kind = variant(
        v.get("kind"),
        &[("Ftg", GraphKind::Ftg), ("Sdg", GraphKind::Sdg)],
    );
    let mut g = Graph::new(kind, v.get("workflow").str());
    let node_kinds = [
        ("Task", NodeKind::Task),
        ("File", NodeKind::File),
        ("Dataset", NodeKind::Dataset),
        ("AddrRegion", NodeKind::AddrRegion),
    ];
    g.nodes = v
        .get("nodes")
        .items()
        .iter()
        .map(|n| Node {
            id: n.get("id").u64() as usize,
            kind: variant(n.get("kind"), &node_kinds),
            label: n.get("label").str().to_owned(),
            start: Timestamp(n.get("start").u64()),
            end: Timestamp(n.get("end").u64()),
            volume: n.get("volume").u64(),
        })
        .collect();
    let ops = [
        ("ReadOnly", Operation::ReadOnly),
        ("WriteOnly", Operation::WriteOnly),
        ("ReadWrite", Operation::ReadWrite),
        ("Structural", Operation::Structural),
    ];
    g.edges = v
        .get("edges")
        .items()
        .iter()
        .map(|e| {
            let s = e.get("stats");
            Edge {
                from: e.get("from").u64() as usize,
                to: e.get("to").u64() as usize,
                op: variant(e.get("op"), &ops),
                stats: EdgeStats {
                    access_volume: s.get("access_volume").u64(),
                    access_count: s.get("access_count").u64(),
                    data_access_count: s.get("data_access_count").u64(),
                    data_access_volume: s.get("data_access_volume").u64(),
                    metadata_access_count: s.get("metadata_access_count").u64(),
                    metadata_access_volume: s.get("metadata_access_volume").u64(),
                    busy_ns: s.get("busy_ns").u64(),
                    first: Timestamp(s.get("first").u64()),
                    last: Timestamp(s.get("last").u64()),
                },
            }
        })
        .collect();
    g.rebuild_index();
    g
}

#[test]
fn tracked_graphs_export_byte_for_byte() {
    for path in graph_files() {
        let text = read(&path);
        let g = graph_of(&Value::parse(&text));
        assert!(
            export::to_json(&g) == text,
            "{} exports differently",
            path.display()
        );
        let html = path.with_extension("html");
        assert!(
            export::to_html(&g) == read(&html),
            "{} exports differently",
            html.display()
        );
    }
}
