//! # dayu-bench
//!
//! The benchmark harness: one regenerator per table and figure of the
//! paper's evaluation (Sections VI and VII), and the six tracked suites
//! CI gates on. One binary runs them all:
//!
//! ```text
//! cargo run --release -p dayu-bench -- <suite> [--smoke] [--check] [--out PATH]
//! cargo run --release -p dayu-bench -- figures [--smoke] [--out DIR] <id>...|all
//! ```
//!
//! | Module | Regenerates |
//! |--------|-------------|
//! | [`tables`] | Tables I, II (captured semantics) and III (machine models) |
//! | [`fig01`]  | Fig. 1 — fragmentation / VL address scatter |
//! | [`fig_graphs`] | Figs. 3–8 — FTG/SDG artifacts for the three workflows |
//! | [`fig09`]  | Fig. 9a–d — mapper time and storage overhead |
//! | [`fig10`]  | Fig. 10a/b — component breakdown |
//! | [`fig11`]  | Fig. 11 — PyFLEXTRKR stages 3–5 placement optimization |
//! | [`fig12`]  | Fig. 12 — DDMD pipeline optimization over iterations |
//! | [`fig13`]  | Fig. 13a–c — data layout optimizations |
//! | [`ablation`] | design ablations (context channel, replay vs coarse model) |
//! | [`pipeline`] | suite `pipeline`: record → save → load → analyze |
//! | [`lint`] | suite `lint`: detector and contract-pass throughput |
//! | [`recovery`] | suite `recovery`: journal overhead + crash-recovery sweep |
//! | [`replay`] | suite `replay`: bundle pack/unpack + validated-replay overhead |
//! | [`io`] | suite `io`: full chunk sweeps vs chunk-at-a-time access |
//! | [`serve`] | suite `serve`: streaming-ingest throughput + robustness |
//!
//! Every suite reports one [`Report`], written as `BENCH_<suite>.json`:
//! `{suite, mode, metrics: {name: {value, unit, floor|ceiling}}}`. A
//! metric's bound is its gate, and [`Report::failures`] is the only check.
//!
//! Absolute numbers differ from the paper (the substrate is a simulator,
//! not the authors' testbed); regenerators aim to reproduce the *shape*:
//! who wins, by roughly what factor, and where the crossovers fall.

pub mod ablation;
pub mod fig01;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig_graphs;
pub mod io;
pub mod lint;
pub mod pipeline;
pub mod recovery;
pub mod replay;
pub mod serve;
pub mod tables;

use dayu_trace::json::{ToJson, Writer};
use dayu_trace::to_json;
use std::collections::BTreeMap;
use std::fmt;
use std::time::{Duration, Instant};

/// How big to run a regenerator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-scale parameters for tests and quick looks.
    Quick,
    /// Larger parameters for the recorded EXPERIMENTS.md runs (still
    /// laptop-scale; the paper's absolute sizes are scaled down ~100x).
    Full,
}

impl Scale {
    /// The report's `mode`: `"smoke"` or `"full"`.
    pub fn mode(self) -> &'static str {
        match self {
            Scale::Quick => "smoke",
            Scale::Full => "full",
        }
    }
}

/// One suite run: the tracked `BENCH_<suite>.json` document.
#[derive(Clone, Debug)]
pub struct Report {
    /// Suite name, e.g. `"io"`.
    pub suite: &'static str,
    /// `"smoke"` or `"full"` (see [`Scale::mode`]).
    pub mode: &'static str,
    /// Every number the run measured, by name (`<workload>.<quantity>`
    /// in suites that run several workloads).
    pub metrics: BTreeMap<String, Metric>,
}

to_json!(Report {
    suite,
    mode,
    metrics
});

/// One measured number and the bound it must hold, if any.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// The measurement.
    pub value: f64,
    /// Its unit, e.g. `"ns"` or `"x"`.
    pub unit: &'static str,
    /// The gate, written as a `floor` or `ceiling` field.
    pub bound: Option<Bound>,
}

/// `{"value", "unit"}`, then `"floor"` or `"ceiling"` if bounded; a NaN
/// value or bound is `null`.
impl ToJson for Metric {
    fn write_json(&self, w: &mut Writer) {
        w.object(|w| {
            w.field("value", &self.value);
            w.field("unit", self.unit);
            match self.bound {
                Some(Bound::Floor(f)) => w.field("floor", &f),
                Some(Bound::Ceiling(c)) => w.field("ceiling", &c),
                None => {}
            }
        });
    }
}

/// A metric's gate. A value equal to its bound passes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Bound {
    /// The value must be at least this.
    Floor(f64),
    /// The value must be at most this.
    Ceiling(f64),
}

impl Metric {
    /// Whether the value holds its bound; an unbounded metric always
    /// does, and NaN holds no bound.
    pub fn ok(&self) -> bool {
        match self.bound {
            None => true,
            Some(Bound::Floor(f)) => self.value >= f,
            Some(Bound::Ceiling(c)) => self.value <= c,
        }
    }
}

/// `value unit`, then the bound and `ok`/`FAIL` if there is one.
impl fmt::Display for Metric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let value = format!("{:.3}", self.value);
        let value = value.trim_end_matches('0').trim_end_matches('.');
        write!(f, "{value} {}", self.unit)?;
        match self.bound {
            Some(Bound::Floor(b)) => write!(f, " (>= {b})")?,
            Some(Bound::Ceiling(b)) => write!(f, " (<= {b})")?,
            None => return Ok(()),
        }
        f.write_str(if self.ok() { " ok" } else { " FAIL" })
    }
}

impl Report {
    /// An empty report of `suite` at `scale`.
    pub fn new(suite: &'static str, scale: Scale) -> Self {
        Self {
            suite,
            mode: scale.mode(),
            metrics: BTreeMap::new(),
        }
    }

    /// Records an ungated metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.add(name, value, unit, None);
    }

    /// Records a metric that must be at least `floor`.
    pub fn floor(&mut self, name: impl Into<String>, value: f64, unit: &'static str, floor: f64) {
        self.add(name, value, unit, Some(Bound::Floor(floor)));
    }

    /// Records a metric that must be at most `ceiling`.
    pub fn ceiling(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        ceiling: f64,
    ) {
        self.add(name, value, unit, Some(Bound::Ceiling(ceiling)));
    }

    /// Records a metric with an optional bound.
    pub fn add(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        bound: Option<Bound>,
    ) {
        self.metrics
            .insert(name.into(), Metric { value, unit, bound });
    }

    /// The gate: `name: metric` for every metric outside its bound.
    pub fn failures(&self) -> Vec<String> {
        self.metrics
            .iter()
            .filter(|(_, m)| !m.ok())
            .map(|(name, m)| format!("{name}: {m}"))
            .collect()
    }
}

/// One regenerated figure/table: a titled data table plus commentary.
#[derive(Clone, Debug)]
pub struct FigResult {
    /// Identifier, e.g. `"fig9a"`.
    pub id: String,
    /// What the paper's artifact shows.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
    /// Shape statements: the qualitative claims the paper makes, evaluated
    /// against this run ("chunked wins by 1.8x", …).
    pub notes: Vec<String>,
}

impl FigResult {
    /// A new empty result.
    pub fn new(id: &str, title: &str, columns: &[&str]) -> Self {
        Self {
            id: id.to_owned(),
            title: title.to_owned(),
            columns: columns.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a data row.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        debug_assert_eq!(cells.len(), self.columns.len());
        self.rows.push(cells);
        self
    }

    /// Appends a shape note.
    pub fn note(&mut self, s: impl Into<String>) -> &mut Self {
        self.notes.push(s.into());
        self
    }

    /// Renders as an aligned text table.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} — {}", self.id, self.title);
        let hdr: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:<w$}", w = widths[i]))
            .collect();
        let _ = writeln!(out, "  {}", hdr.join(" | "));
        let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        let _ = writeln!(out, "  {}", rule.join("-+-"));
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{c:<w$}", w = widths[i]))
                .collect();
            let _ = writeln!(out, "  {}", cells.join(" | "));
        }
        for n in &self.notes {
            let _ = writeln!(out, "  * {n}");
        }
        out
    }
}

/// Formats nanoseconds as engineering-friendly milliseconds.
pub fn ms(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e6)
}

/// Formats a fraction as a percentage.
pub fn pct(f: f64) -> String {
    format!("{:.3}%", f * 100.0)
}

/// Formats a speedup factor.
pub fn speedup(baseline: u64, optimized: u64) -> String {
    if optimized == 0 {
        return "inf".into();
    }
    format!("{:.2}x", baseline as f64 / optimized as f64)
}

/// Speedup as a float.
pub fn speedup_f(baseline: u64, optimized: u64) -> f64 {
    baseline as f64 / optimized.max(1) as f64
}

/// `bytes` per second over `ns` nanoseconds (0 when untimed).
pub fn throughput(bytes: u64, ns: u64) -> f64 {
    if ns == 0 {
        0.0
    } else {
        bytes as f64 * 1e9 / ns as f64
    }
}

/// Runs `f` `repeats` times (at least once) and returns the fastest wall
/// time in nanoseconds with that run's result.
pub fn min_over<R>(repeats: usize, f: impl FnMut() -> R) -> (u64, R) {
    min_filling(repeats, Duration::ZERO, f)
}

/// Like [`min_over`], but runs `f` until the runs have also taken at
/// least `total` together, so a fast call is timed many times.
pub fn min_filling<R>(repeats: usize, total: Duration, mut f: impl FnMut() -> R) -> (u64, R) {
    min_filling_from(repeats, total, || (), |()| f())
}

/// Like [`min_filling`], but each run times `f` on a fresh `setup()`,
/// made outside the timed region.
pub fn min_filling_from<S, R>(
    repeats: usize,
    total: Duration,
    mut setup: impl FnMut() -> S,
    mut f: impl FnMut(S) -> R,
) -> (u64, R) {
    let start = Instant::now();
    let mut runs = 0;
    let mut best_ns = u64::MAX;
    let mut best = None;
    while runs < repeats.max(1) || start.elapsed() < total {
        let input = setup();
        let t0 = Instant::now();
        let r = f(input);
        let ns = t0.elapsed().as_nanos() as u64;
        runs += 1;
        if ns < best_ns {
            best_ns = ns;
            best = Some(r);
        }
    }
    (best_ns, best.expect("at least one repeat"))
}

/// Test helpers shared by the suites' gate tests.
#[cfg(test)]
pub(crate) mod gate {
    use super::Report;

    /// Names of the metrics [`Report::failures`] lists.
    pub fn failing(report: &Report) -> Vec<String> {
        report
            .failures()
            .iter()
            .map(|f| f.split(": ").next().unwrap_or_default().to_owned())
            .collect()
    }

    /// Asserts that `report` carries every one of `names` with a bound:
    /// a metric the report forgets is one the gate cannot see.
    pub fn assert_gated(report: &Report, names: &[impl AsRef<str>]) {
        for name in names.iter().map(AsRef::as_ref) {
            let bounded = report.metrics.get(name).and_then(|m| m.bound);
            assert!(
                bounded.is_some(),
                "{}: {name} missing or unbounded",
                report.suite
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_gate_and_equality_passes() {
        let mut r = Report::new("demo", Scale::Quick);
        r.floor("at_floor", 3.0, "x", 3.0);
        r.ceiling("at_ceiling", 0.25, "ratio", 0.25);
        r.metric("free", f64::NAN, "ns");
        assert!(r.failures().is_empty(), "{:?}", r.failures());
        r.floor("under", 2.999, "x", 3.0);
        r.ceiling("over", 1.0, "count", 0.0);
        r.floor("nan", f64::NAN, "x", 0.0);
        assert_eq!(gate::failing(&r), ["nan", "over", "under"]);
        assert_eq!(r.failures()[2], "under: 2.999 x (>= 3) FAIL");
        assert_eq!(r.mode, "smoke");
        assert_eq!(Report::new("demo", Scale::Full).mode, "full");
    }

    /// The tracked JSON schema, pinned.
    #[test]
    fn report_json_is_pinned() {
        let mut r = Report::new("io", Scale::Full);
        r.floor("mem.scalar.speedup", 6.5, "x", 3.0);
        r.ceiling("ddmd.replay_overhead", 0.125, "ratio", 0.25);
        r.metric("mem.scalar.write_ns", 123_456_789.0, "ns");
        r.metric("free", f64::NAN, "ns");
        let text = dayu_trace::json::to_string_pretty(&r);
        assert_eq!(
            text,
            r#"{
  "suite": "io",
  "mode": "full",
  "metrics": {
    "ddmd.replay_overhead": {
      "value": 0.125,
      "unit": "ratio",
      "ceiling": 0.25
    },
    "free": {
      "value": null,
      "unit": "ns"
    },
    "mem.scalar.speedup": {
      "value": 6.5,
      "unit": "x",
      "floor": 3.0
    },
    "mem.scalar.write_ns": {
      "value": 123456789.0,
      "unit": "ns"
    }
  }
}"#
        );
    }

    #[test]
    fn render_aligns_columns() {
        let mut f = FigResult::new("figX", "demo", &["a", "long_column"]);
        f.row(vec!["1".into(), "2".into()]);
        f.row(vec!["wide cell".into(), "3".into()]);
        f.note("a note");
        let r = f.render();
        assert!(r.contains("== figX — demo"));
        assert!(r.contains("a         | long_column"));
        assert!(r.contains("* a note"));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(ms(1_500_000), "1.500");
        assert_eq!(pct(0.0425), "4.250%");
        assert_eq!(speedup(300, 100), "3.00x");
        assert_eq!(speedup(300, 0), "inf");
        assert!((speedup_f(300, 100) - 3.0).abs() < 1e-12);
        assert!((throughput(1_000, 1_000_000_000) - 1_000.0).abs() < 1e-9);
        assert!(throughput(1_000, 0).abs() < 1e-12);
        let mut calls = 0;
        let (ns, last) = min_over(0, || {
            calls += 1;
            calls
        });
        assert_eq!((calls, last), (1, 1), "zero repeats still run once");
        assert!(ns < u64::MAX);
        let mut calls = 0;
        let total = Duration::from_millis(5);
        let start = Instant::now();
        min_filling(2, total, || calls += 1);
        assert!(calls >= 2 && start.elapsed() >= total);
    }
}
