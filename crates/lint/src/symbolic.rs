//! Symbolic extent algebra over declared I/O contracts.
//!
//! [`IoContract`](dayu_workflow::contract::IoContract) clauses carry
//! affine byte extents over named parameters with declared domains. This module turns them into something the
//! linter can reason about *before any VFD is opened*: a sound
//! over-approximation (the **hull**) of every clause, grouped per
//! `(task, file, dataset, access mode)` into [`SymFootprint`]s, and a
//! [`ContractCatalog`] exposing the same disjointness oracle shape as the
//! recorded-trace [`ExtentCatalog`](crate::extent::ExtentCatalog) — so
//! the transform verifier can discharge a `parallelize` from semantics
//! alone and fall back to recorded dynamics when contracts are absent.
//!
//! Soundness rules, applied uniformly:
//!
//! * a parameter without a declared domain, or arithmetic that overflows
//!   `i64`, makes the clause ⊤ (whole dataset) — never silently empty;
//! * hulls over-approximate: `provably_disjoint` only answers `true`
//!   when the hulls cannot touch, `collision` answers the widest byte
//!   range the declarations allow to conflict;
//! * a task with **no** contract is unknown — it can neither be accused
//!   nor exonerated, so `knows` gates every proof, exactly as the
//!   recorded catalog gates on unobserved tasks.
//!
//! Extents from *different datasets* of the same file never conflict:
//! contract extents are dataset-relative logical bytes, and distinct
//! datasets own distinct storage.

use crate::extent::{Extent, ExtentSet};
use dayu_workflow::contract::{AccessMode, AffineExpr, ParamDomain, SymExtent};
use dayu_workflow::WorkflowSpec;
use std::collections::BTreeMap;

/// Inclusive bounds `[lo, hi]` an affine expression can take when every
/// parameter ranges over its declared domain. `None` when a parameter
/// has no domain or the arithmetic overflows — callers must treat that
/// as unbounded.
pub fn expr_bounds(
    expr: &AffineExpr,
    params: &BTreeMap<String, ParamDomain>,
) -> Option<(i64, i64)> {
    let mut lo = expr.base;
    let mut hi = expr.base;
    for (name, coeff) in &expr.terms {
        let dom = params.get(name)?;
        let a = coeff.checked_mul(dom.lo)?;
        let b = coeff.checked_mul(dom.hi)?;
        lo = lo.checked_add(a.min(b))?;
        hi = hi.checked_add(a.max(b))?;
    }
    Some((lo, hi))
}

fn clamp_u64(v: i64) -> u64 {
    v.max(0) as u64
}

/// The concrete hull of a symbolic extent under parameter domains:
/// every byte any instantiation can touch lies inside it. `None` is ⊤ —
/// the extent is [`SymExtent::All`], a parameter is unbounded, or the
/// bounds overflowed.
pub fn extent_hull(extent: &SymExtent, params: &BTreeMap<String, ParamDomain>) -> Option<Extent> {
    match extent {
        SymExtent::All => None,
        SymExtent::Span { start, end } => {
            let (start_lo, _) = expr_bounds(start, params)?;
            let (_, end_hi) = expr_bounds(end, params)?;
            let s = clamp_u64(start_lo);
            let e = clamp_u64(end_hi);
            Some(Extent::new(s.min(e), e))
        }
    }
}

/// Concrete evaluation of a symbolic extent under an exact valuation
/// (missing parameters read 0, mirroring [`AffineExpr::eval`]). `None`
/// is ⊤. Negative or inverted spans collapse to empty.
pub fn eval_extent(extent: &SymExtent, env: &BTreeMap<String, i64>) -> Option<Extent> {
    match extent {
        SymExtent::All => None,
        SymExtent::Span { start, end } => {
            let s = clamp_u64(start.eval(env));
            let e = clamp_u64(end.eval(env));
            Some(Extent::new(s.min(e), e))
        }
    }
}

/// The declared footprint of one `(task, file, dataset, mode)`: either ⊤
/// or a union of concrete hull ranges.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SymFootprint {
    /// Some clause resolved to ⊤ (whole dataset).
    pub top: bool,
    /// Hulls of the concretely-boundable clauses.
    pub hulls: ExtentSet,
}

impl SymFootprint {
    /// Folds one clause extent in.
    pub fn add(&mut self, extent: &SymExtent, params: &BTreeMap<String, ParamDomain>) {
        match extent_hull(extent, params) {
            None => self.top = true,
            Some(h) => self.hulls.insert(h),
        }
    }

    /// Whether the footprint declares no bytes at all.
    pub fn is_empty(&self) -> bool {
        !self.top && self.hulls.is_empty()
    }

    /// Widest single byte range the footprint spans; `[0, u64::MAX)`
    /// for ⊤, `None` when empty.
    pub fn span(&self) -> Option<Extent> {
        if self.top {
            return Some(Extent::new(0, u64::MAX));
        }
        let runs = self.hulls.runs();
        let (first, last) = (runs.first()?, runs.last()?);
        Some(Extent::new(first.start, last.end))
    }

    /// Byte range where the two footprints *may* overlap, or `None` when
    /// they provably cannot. ⊤ overlaps any non-empty footprint.
    pub fn may_overlap(&self, other: &SymFootprint) -> Option<Extent> {
        if self.is_empty() || other.is_empty() {
            return None;
        }
        match (self.top, other.top) {
            (true, _) => other.span(),
            (_, true) => self.span(),
            (false, false) => self.hulls.overlap(&other.hulls),
        }
    }

    /// Bytes of `observed` the footprint does not cover (empty for ⊤).
    pub fn uncovered(&self, observed: &ExtentSet) -> Vec<Extent> {
        if self.top {
            return Vec::new();
        }
        observed.subtract(&self.hulls)
    }

    /// Whether `observed` shares at least one byte with the footprint
    /// (⊤ touches anything non-empty).
    pub fn touches(&self, observed: &ExtentSet) -> bool {
        if observed.is_empty() {
            return false;
        }
        if self.top {
            return true;
        }
        self.hulls.overlap(observed).is_some()
    }
}

/// Declared read/write footprints of one `(task, file, dataset)`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FootprintPair {
    /// Union of the task's declared read clauses.
    pub reads: SymFootprint,
    /// Union of the task's declared write clauses.
    pub writes: SymFootprint,
}

/// One may-conflict between two tasks' declared footprints.
#[derive(Clone, Debug, PartialEq)]
pub struct SymCollision {
    /// Dataset the conflicting clauses target.
    pub dataset: String,
    /// Byte range the declarations allow to overlap.
    pub extent: Extent,
    /// `true` for write-write, `false` for write-read.
    pub write_write: bool,
}

#[derive(Clone, Debug, Default)]
struct TaskContract {
    /// file → dataset → declared footprints.
    files: BTreeMap<String, BTreeMap<String, FootprintPair>>,
    /// Files the task disposes of.
    disposes: Vec<String>,
}

/// Every declared contract of a workflow spec, compiled to hull
/// footprints. Mirrors [`ExtentCatalog`](crate::extent::ExtentCatalog)'s
/// oracle surface (`knows` / `collision` / `provably_disjoint`) so the
/// two are interchangeable to the transform verifier — one proves from
/// declarations, the other from recordings.
#[derive(Clone, Debug, Default)]
pub struct ContractCatalog {
    tasks: BTreeMap<String, TaskContract>,
}

impl ContractCatalog {
    /// Compiles every task contract in `spec`. Tasks without a contract
    /// (or with an empty one) stay unknown.
    pub fn from_spec(spec: &WorkflowSpec) -> Self {
        let mut cat = Self::default();
        for stage in &spec.stages {
            for task in &stage.tasks {
                let Some(contract) = &task.contract else {
                    continue;
                };
                if contract.is_empty() {
                    continue;
                }
                let tc = cat.tasks.entry(task.name.clone()).or_default();
                tc.disposes.extend(contract.disposes.iter().cloned());
                for clause in &contract.clauses {
                    let pair = tc
                        .files
                        .entry(clause.file.clone())
                        .or_default()
                        .entry(clause.dataset.clone())
                        .or_default();
                    let fp = match clause.mode {
                        AccessMode::Read => &mut pair.reads,
                        AccessMode::Write => &mut pair.writes,
                    };
                    fp.add(&clause.extent, &contract.params);
                }
            }
        }
        cat
    }

    /// Whether `task` declared a (non-empty) contract.
    pub fn knows(&self, task: &str) -> bool {
        self.tasks.contains_key(task)
    }

    /// Number of tasks with compiled contracts.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether no task declared anything.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Names of tasks with compiled contracts, sorted.
    pub fn task_names(&self) -> impl Iterator<Item = &str> {
        self.tasks.keys().map(String::as_str)
    }

    /// Files `task` declared clauses on, sorted.
    pub fn files_of(&self, task: &str) -> Vec<&str> {
        self.tasks
            .get(task)
            .map(|tc| tc.files.keys().map(String::as_str).collect())
            .unwrap_or_default()
    }

    /// Files `task` declared it disposes of.
    pub fn disposals_of(&self, task: &str) -> &[String] {
        self.tasks
            .get(task)
            .map(|tc| tc.disposes.as_slice())
            .unwrap_or_default()
    }

    /// Declared footprints of `(task, file)`, per dataset.
    pub fn footprints(&self, task: &str, file: &str) -> Option<&BTreeMap<String, FootprintPair>> {
        self.tasks.get(task)?.files.get(file)
    }

    /// Declared footprint of one `(task, file, dataset)`.
    pub fn footprint(&self, task: &str, file: &str, dataset: &str) -> Option<&FootprintPair> {
        self.footprints(task, file)?.get(dataset)
    }

    /// Whether `task` declared any read (resp. write) bytes of `file`.
    pub fn reads_file(&self, task: &str, file: &str) -> bool {
        self.footprints(task, file)
            .is_some_and(|m| m.values().any(|p| !p.reads.is_empty()))
    }

    /// Whether `task` declared any write bytes of `file`.
    pub fn writes_file(&self, task: &str, file: &str) -> bool {
        self.footprints(task, file)
            .is_some_and(|m| m.values().any(|p| !p.writes.is_empty()))
    }

    /// Every may-conflict between `a`'s and `b`'s declared footprints on
    /// `file`: per shared dataset, write×write and write×read overlaps.
    /// Empty means the declarations prove the pair disjoint on `file`.
    pub fn collisions(&self, a: &str, b: &str, file: &str) -> Vec<SymCollision> {
        let mut out = Vec::new();
        let (Some(fa), Some(fb)) = (self.footprints(a, file), self.footprints(b, file)) else {
            return out;
        };
        for (dataset, pa) in fa {
            let Some(pb) = fb.get(dataset) else {
                continue;
            };
            if let Some(x) = pa.writes.may_overlap(&pb.writes) {
                out.push(SymCollision {
                    dataset: dataset.clone(),
                    extent: x,
                    write_write: true,
                });
            }
            let wr = pa
                .writes
                .may_overlap(&pb.reads)
                .into_iter()
                .chain(pa.reads.may_overlap(&pb.writes));
            for x in wr {
                out.push(SymCollision {
                    dataset: dataset.clone(),
                    extent: x,
                    write_write: false,
                });
            }
        }
        out
    }

    /// Widest byte range where the declarations allow `a` and `b` to
    /// conflict on `file` (either writing), or `None` when they provably
    /// cannot. Mirrors [`ExtentCatalog::collision`](crate::extent::ExtentCatalog::collision).
    pub fn collision(&self, a: &str, b: &str, file: &str) -> Option<Extent> {
        let cols = self.collisions(a, b, file);
        let start = cols.iter().map(|c| c.extent.start).min()?;
        let end = cols.iter().map(|c| c.extent.end).max()?;
        Some(Extent::new(start, end))
    }

    /// Whether the declarations *prove* `a` and `b` cannot conflict on
    /// `file`: both tasks carry contracts and no declared write of either
    /// may touch bytes the other declares. A ⊤ clause on a shared
    /// dataset defeats the proof; an absent contract defeats it too.
    pub fn provably_disjoint(&self, a: &str, b: &str, file: &str) -> bool {
        self.knows(a) && self.knows(b) && self.collisions(a, b, file).is_empty()
    }
}

/// A disjointness oracle the transform verifier can consult: either the
/// recorded-trace [`ExtentCatalog`](crate::extent::ExtentCatalog)
/// (dynamics) or the declared [`ContractCatalog`] (semantics).
pub trait FootprintOracle {
    /// Whether the oracle has evidence about `task` at all.
    fn knows(&self, task: &str) -> bool;
    /// Whether `a` and `b` provably cannot conflict on `file`.
    fn provably_disjoint(&self, a: &str, b: &str, file: &str) -> bool;
    /// Byte range where `a` and `b` may (or did) conflict on `file`.
    fn collision(&self, a: &str, b: &str, file: &str) -> Option<Extent>;
}

impl FootprintOracle for ContractCatalog {
    fn knows(&self, task: &str) -> bool {
        ContractCatalog::knows(self, task)
    }
    fn provably_disjoint(&self, a: &str, b: &str, file: &str) -> bool {
        ContractCatalog::provably_disjoint(self, a, b, file)
    }
    fn collision(&self, a: &str, b: &str, file: &str) -> Option<Extent> {
        ContractCatalog::collision(self, a, b, file)
    }
}

impl FootprintOracle for crate::extent::ExtentCatalog {
    fn knows(&self, task: &str) -> bool {
        crate::extent::ExtentCatalog::knows(self, task)
    }
    fn provably_disjoint(&self, a: &str, b: &str, file: &str) -> bool {
        crate::extent::ExtentCatalog::provably_disjoint(self, a, b, file)
    }
    fn collision(&self, a: &str, b: &str, file: &str) -> Option<Extent> {
        crate::extent::ExtentCatalog::collision(self, a, b, file)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dayu_workflow::contract::IoContract;
    use dayu_workflow::spec::TaskSpec;

    fn dom(lo: i64, hi: i64) -> ParamDomain {
        ParamDomain::range(lo, hi)
    }

    fn task(name: &str) -> TaskSpec {
        TaskSpec::new(name, |_| Ok(()))
    }

    #[test]
    fn bounds_respect_coefficient_sign() {
        let e = AffineExpr::var("i") * -3 + 10;
        let params: BTreeMap<String, ParamDomain> = [("i".to_owned(), dom(1, 4))].into();
        // -3i + 10 over i ∈ [1,4]: min at i=4 (-2), max at i=1 (7).
        assert_eq!(expr_bounds(&e, &params), Some((-2, 7)));
        // Unbound parameter → unknown.
        assert_eq!(expr_bounds(&AffineExpr::var("j"), &params), None);
    }

    #[test]
    fn hull_clamps_and_handles_top() {
        let i = AffineExpr::var("i");
        let params: BTreeMap<String, ParamDomain> = [("i".to_owned(), dom(0, 3))].into();
        let span = SymExtent::span(i.clone() * 100, (i + 1) * 100);
        assert_eq!(extent_hull(&span, &params), Some(Extent::new(0, 400)));
        assert_eq!(extent_hull(&SymExtent::All, &params), None);
        // Negative lower bound clamps to 0.
        let neg = SymExtent::span(AffineExpr::constant(-50), AffineExpr::constant(10));
        assert_eq!(
            extent_hull(&neg, &BTreeMap::new()),
            Some(Extent::new(0, 10))
        );
    }

    fn chunk_task(name: &str, i: i64, chunk: i64) -> TaskSpec {
        let iv = AffineExpr::var("i");
        task(name).with_contract(IoContract::new().bind("i", i).writes(
            "shared.h5",
            "/raw",
            SymExtent::span(iv.clone() * chunk, (iv + 1) * chunk),
        ))
    }

    #[test]
    fn catalog_proves_chunk_partition_disjoint() {
        let spec = WorkflowSpec::new("wf").stage(
            "write",
            vec![chunk_task("w0", 0, 4096), chunk_task("w1", 1, 4096)],
        );
        let cat = ContractCatalog::from_spec(&spec);
        assert!(cat.knows("w0") && cat.knows("w1"));
        assert!(cat.provably_disjoint("w0", "w1", "shared.h5"));
        assert_eq!(cat.collision("w0", "w1", "shared.h5"), None);
        // Unknown task defeats the proof.
        assert!(!cat.provably_disjoint("w0", "stranger", "shared.h5"));
    }

    #[test]
    fn overlapping_declarations_collide() {
        let i = AffineExpr::var("i");
        // Both write [i*100, i*100+150): adjacent chunks overlap by 50.
        let mk = |name: &str, idx: i64| {
            task(name).with_contract(IoContract::new().bind("i", idx).writes(
                "f.h5",
                "/d",
                SymExtent::span(i.clone() * 100, i.clone() * 100 + 150),
            ))
        };
        let spec = WorkflowSpec::new("wf").stage("s", vec![mk("a", 0), mk("b", 1)]);
        let cat = ContractCatalog::from_spec(&spec);
        assert!(!cat.provably_disjoint("a", "b", "f.h5"));
        let x = cat.collision("a", "b", "f.h5").unwrap();
        assert_eq!((x.start, x.end), (100, 150));
        let cols = cat.collisions("a", "b", "f.h5");
        assert_eq!(cols.len(), 1);
        assert!(cols[0].write_write);
    }

    #[test]
    fn top_defeats_proofs_but_different_datasets_never_conflict() {
        let all = task("all").with_contract(IoContract::new().writes_all("f.h5", "/d"));
        let one = task("one").with_contract(IoContract::new().writes(
            "f.h5",
            "/d",
            SymExtent::bytes(0, 10),
        ));
        let other = task("other").with_contract(IoContract::new().writes(
            "f.h5",
            "/elsewhere",
            SymExtent::bytes(0, 10),
        ));
        let spec = WorkflowSpec::new("wf").stage("s", vec![all, one, other]);
        let cat = ContractCatalog::from_spec(&spec);
        assert!(!cat.provably_disjoint("all", "one", "f.h5"));
        assert_eq!(
            cat.collision("all", "one", "f.h5"),
            Some(Extent::new(0, 10))
        );
        // Distinct datasets own distinct storage: provably disjoint.
        assert!(cat.provably_disjoint("one", "other", "f.h5"));
    }

    #[test]
    fn footprint_subtraction_and_touch() {
        let mut fp = SymFootprint::default();
        let params = BTreeMap::new();
        fp.add(&SymExtent::bytes(0, 100), &params);
        fp.add(&SymExtent::bytes(200, 300), &params);
        let mut obs = ExtentSet::new();
        obs.insert(Extent::new(50, 250));
        let un = fp.uncovered(&obs);
        assert_eq!(un, vec![Extent::new(100, 200)]);
        assert!(fp.touches(&obs));
        let mut outside = ExtentSet::new();
        outside.insert(Extent::new(100, 200));
        assert!(!fp.touches(&outside));
    }
}

#[cfg(test)]
mod props {
    use super::*;
    use dayu_trace::rng::{cases, ChaosRng};
    use dayu_workflow::contract::IoContract;
    use dayu_workflow::spec::{TaskSpec, WorkflowSpec};

    const PARAMS: [&str; 3] = ["i", "j", "k"];

    /// An affine expression over a subset of `PARAMS`, with coefficients
    /// and bases small enough that products over the domains below never
    /// approach i64 overflow.
    fn arb_expr(rng: &mut ChaosRng) -> AffineExpr {
        let base = small(rng, 1 << 20);
        (0..rng.range(0, 3)).fold(AffineExpr::constant(base), |acc, _| {
            let p = rng.range(0, PARAMS.len() as u64) as usize;
            acc + AffineExpr::var(PARAMS[p]) * small(rng, 4096)
        })
    }

    /// An integer in `-bound..bound`.
    fn small(rng: &mut ChaosRng, bound: i64) -> i64 {
        rng.range(0, 2 * bound as u64) as i64 - bound
    }

    /// Domains for every parameter, so no expression is ever unbound.
    fn arb_domains(rng: &mut ChaosRng) -> BTreeMap<String, ParamDomain> {
        PARAMS
            .iter()
            .map(|name| {
                let lo = small(rng, 64);
                let width = rng.range(0, 64) as i64;
                ((*name).to_owned(), ParamDomain::range(lo, lo + width))
            })
            .collect()
    }

    /// Corner + interior valuations of the domains: the extremes of an
    /// affine function over a box are at the corners, so if the hull holds
    /// there and at a midpoint it holds everywhere.
    fn valuations(domains: &BTreeMap<String, ParamDomain>) -> Vec<BTreeMap<String, i64>> {
        let mut envs = vec![BTreeMap::new()];
        for (name, dom) in domains {
            let picks = [dom.lo, dom.hi, (dom.lo + dom.hi) / 2];
            envs = envs
                .into_iter()
                .flat_map(|env| {
                    picks.map(|v| {
                        let mut e = env.clone();
                        e.insert(name.clone(), v);
                        e
                    })
                })
                .collect();
        }
        envs
    }

    /// Soundness of the hull: every concrete instantiation of a span
    /// within the declared domains lands inside `extent_hull`.
    #[test]
    fn hull_contains_every_concrete_evaluation() {
        cases("hull_contains_every_concrete_evaluation", 256, |rng| {
            let sym = SymExtent::span(arb_expr(rng), arb_expr(rng));
            let domains = arb_domains(rng);
            let hull = extent_hull(&sym, &domains);
            for env in valuations(&domains) {
                let concrete = eval_extent(&sym, &env).expect("span is not ⊤");
                if concrete.is_empty() {
                    continue;
                }
                match &hull {
                    None => {} // ⊤ covers everything
                    Some(h) => {
                        assert!(
                            h.start <= concrete.start && concrete.end <= h.end,
                            "hull {h:?} must contain {concrete:?} at {env:?}"
                        );
                    }
                }
            }
        });
    }

    /// Agreement with the concrete interval algebra: for exactly-bound
    /// parameters the catalog's disjointness verdict matches whether
    /// the evaluated extents overlap.
    #[test]
    fn exact_binding_disjointness_matches_concrete_overlap() {
        cases(
            "exact_binding_disjointness_matches_concrete_overlap",
            256,
            |rng| {
                let ext_a = SymExtent::span(arb_expr(rng), arb_expr(rng));
                let ext_b = SymExtent::span(arb_expr(rng), arb_expr(rng));
                let env: BTreeMap<String, i64> = PARAMS
                    .iter()
                    .map(|n| ((*n).to_owned(), small(rng, 64)))
                    .collect();
                let bind = |mut c: IoContract| {
                    for (n, v) in &env {
                        c = c.bind(n.clone(), *v);
                    }
                    c
                };
                let ca = bind(IoContract::new()).writes("f.h5", "/d", ext_a.clone());
                let cb = bind(IoContract::new()).writes("f.h5", "/d", ext_b.clone());
                let spec = WorkflowSpec::new("p").stage(
                    "s",
                    vec![
                        TaskSpec::new("a", |_| Ok(())).with_contract(ca),
                        TaskSpec::new("b", |_| Ok(())).with_contract(cb),
                    ],
                );
                let cat = ContractCatalog::from_spec(&spec);
                let a = eval_extent(&ext_a, &env).expect("span");
                let b = eval_extent(&ext_b, &env).expect("span");
                let concrete_overlap = a.overlaps(&b);
                assert_eq!(
                    cat.provably_disjoint("a", "b", "f.h5"),
                    !concrete_overlap,
                    "exact bindings make the hulls exact: {a:?} vs {b:?}"
                );
                assert_eq!(cat.collision("a", "b", "f.h5").is_some(), concrete_overlap);
            },
        );
    }
}
