//! The multi-tenant ingest service core (transport-free).
//!
//! [`Served`] owns one [`PartialGraph`] per workflow (tenant) and feeds it
//! encoded `.dtb` sections through a guarded pipeline:
//!
//! 1. **Admission** — unknown tenants are admitted, evicting the
//!    oldest-idle tenant when the tenant table is full.
//! 2. **Backpressure** — a per-tenant token bucket converts the
//!    section-rate budget into [`IngestStatus::Throttled`] with a retry
//!    hint instead of unbounded queueing.
//! 3. **Quarantine** — the payload digest is verified and the decode runs
//!    inside a panic barrier; anything wrong produces a structured
//!    [`QuarantineReport`] and the tenant keeps serving snapshots from
//!    its last good graph.
//! 4. **Load-shedding** — per-tenant byte and node budgets reject
//!    sections once exhausted; the service-wide byte budget evicts
//!    oldest-idle tenants.
//!
//! A [`watchdog`](Served::watchdog) pass evicts idle tenants and surfaces
//! every degraded tenant as an analyzer
//! [`Finding::DegradedIngest`], which the advisor turns into a
//! re-ingest recommendation.
//!
//! ## Concurrency
//!
//! Calls for different tenants run in parallel. Each tenant has its own
//! lock. The tenant table's lock is held only to look a tenant up, admit
//! it or evict one, never across digest, decode or absorb. Locks are
//! taken in the order table → tenant → quarantine log, and no thread
//! takes the table lock while it holds a tenant lock.
//!
//! * The token bucket is looked at first, so a throttled section costs
//!   neither digest nor decode. Under the same lock the call takes the
//!   tenant's [`HeaderMemo`]. Digest and decode then run under no lock,
//!   and the memo goes back to the tenant when the section is absorbed. A
//!   call that races another for the same tenant finds no memo and
//!   decodes without one; the memo is a pure cache, so no result depends
//!   on which call had it.
//! * Each call runs the rest of the one-at-a-time pipeline in one
//!   critical section on its tenant's lock, against exact byte and node
//!   counts. Its quarantine report joins the log inside that section.
//! * A section that could push the service past its byte budget, or
//!   whose admission must evict a tenant, runs with the table and every
//!   tenant locked (`Served::exclusive`), as do the queries that read
//!   more than one tenant.
//!
//! So every result is one a one-at-a-time service could have returned
//! (DESIGN.md, "Resilient ingest service", gives the argument).

use crate::budget::{Budgets, TokenBucket};
use crate::quarantine::{QuarantineCause, QuarantineReport};
use dayu_analyzer::{Finding, Graph, PartialGraph, SdgOptions};
use dayu_trace::sha256::{sha256, Digest};
use dayu_trace::sync::lock;
use dayu_trace::time::{Clock, RealClock, Timestamp};
use dayu_trace::{HeaderMemo, SharedSection, TraceBundle};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Most quarantine reports retained in the service-wide log.
pub(crate) const QUARANTINE_LOG_CAP: usize = 1024;

/// Outcome of one section submission.
#[derive(Clone, Debug, PartialEq)]
pub enum IngestStatus {
    /// The section was absorbed into the tenant's graph (or was an exact
    /// duplicate of one that already was, which is success for a
    /// retrying client).
    Accepted {
        /// Data records the section carried.
        records: usize,
        /// Whether this exact section (by digest) had been absorbed
        /// before.
        duplicate: bool,
    },
    /// The tenant is over its section-rate budget; retry after the hint.
    Throttled {
        /// Nanoseconds after which one submission will be admitted.
        retry_after_ns: u64,
    },
    /// The section was corrupt and has been quarantined; the tenant's
    /// graph is unchanged.
    Quarantined(Box<QuarantineReport>),
    /// The section was valid but the tenant is out of budget (bytes or
    /// graph nodes); the section was shed.
    Rejected {
        /// Which budget was exhausted.
        reason: String,
    },
}

impl IngestStatus {
    /// Whether the section grew the tenant's graph.
    fn grew(&self) -> bool {
        matches!(
            self,
            IngestStatus::Accepted {
                duplicate: false,
                ..
            }
        )
    }
}

/// Per-tenant counters, for operators and the watchdog.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Sections that arrived (including bad ones).
    pub sections: u64,
    /// Sections absorbed into the graph.
    pub accepted: u64,
    /// Exact duplicates dropped by digest.
    pub duplicates: u64,
    /// Sections quarantined as corrupt.
    pub quarantined: u64,
    /// Sections shed by throttling or budget rejection.
    pub dropped: u64,
    /// Approximate retained record bytes
    /// ([`PartialGraph::retained_bytes`]).
    pub retained_bytes: usize,
    /// FTG nodes: exactly as many as [`Served::snapshot_ftg`] returns.
    pub nodes: usize,
    /// Why the tenant is degraded, if it is.
    pub degraded: Option<String>,
}

struct Tenant {
    graph: PartialGraph,
    bucket: TokenBucket,
    last_seen: Timestamp,
    /// Counters; `retained_bytes` and `nodes` are read off the graph.
    stats: TenantStats,
    /// Set when the tenant is evicted. A call that looked the tenant up
    /// before then finds it under the tenant's lock and admits the
    /// tenant afresh.
    evicted: bool,
    /// The header of the last section absorbed for the tenant; empty
    /// while a call has it out.
    memo: HeaderMemo,
}

impl Tenant {
    fn new(budgets: &Budgets, now: Timestamp) -> Self {
        Self {
            graph: PartialGraph::new(),
            bucket: TokenBucket::new(budgets.sections_per_sec, budgets.burst, now),
            last_seen: now,
            stats: TenantStats::default(),
            evicted: false,
            memo: HeaderMemo::default(),
        }
    }

    fn degrade(&mut self, reason: &str) {
        if self.stats.degraded.is_none() {
            self.stats.degraded = Some(reason.to_owned());
        }
    }

    /// Counts an arriving section and takes its token: the section's
    /// sequence number, or the throttle status.
    fn arrive(&mut self, now: Timestamp) -> Result<u64, IngestStatus> {
        self.last_seen = now;
        self.stats.sections += 1;
        match self.bucket.try_take(now) {
            Ok(()) => Ok(self.stats.sections),
            Err(retry_after_ns) => {
                self.stats.dropped += 1;
                Err(IngestStatus::Throttled { retry_after_ns })
            }
        }
    }

    /// Sheds a section because `budget` is exhausted.
    fn reject(&mut self, budget: &str) -> IngestStatus {
        self.stats.dropped += 1;
        self.degrade(&format!("{budget} budget exhausted"));
        IngestStatus::Rejected {
            reason: format!("tenant {budget} budget exhausted"),
        }
    }

    fn stats(&self) -> TenantStats {
        TenantStats {
            retained_bytes: self.graph.retained_bytes(),
            nodes: self.graph.ftg_node_count(),
            ..self.stats.clone()
        }
    }
}

type Slot = Arc<Mutex<Tenant>>;

#[derive(Default)]
struct Table {
    tenants: HashMap<String, Slot>,
    evicted: u64,
}

/// A section after the unlocked stages.
struct Checked {
    digest: Digest,
    len: u64,
    /// The decoded section, or the byte offset and cause to quarantine.
    decoded: Result<SharedSection, (u64, QuarantineCause)>,
    /// What accepting the section adds to its tenant's retained bytes.
    bytes: usize,
    /// The memo the section was decoded through, for its tenant.
    memo: HeaderMemo,
}

impl Checked {
    /// The digest check, then the guarded decode through `memo`.
    fn new(payload: &[u8], declared: Option<Digest>, mut memo: HeaderMemo) -> Self {
        let computed = sha256(payload);
        let decoded = match declared {
            Some(declared) if declared != computed => {
                Err((0, QuarantineCause::DigestMismatch { declared, computed }))
            }
            _ => decode_guarded(payload, &mut memo),
        };
        Self {
            digest: computed,
            len: payload.len() as u64,
            bytes: decoded
                .as_ref()
                .map_or(0, |s| PartialGraph::section_bytes(&s.records)),
            decoded,
            memo,
        }
    }
}

/// The transport-free ingest service. Thread-safe: the TCP front-end
/// shares one instance across connections via [`Arc`].
///
/// Its locks recover from poisoning ([`lock`]). Only a bug panics under
/// them: the decoder, which reads untrusted bytes, runs outside them
/// behind a panic barrier, and recovering the guard keeps one such bug
/// from failing every later call.
pub struct Served {
    budgets: Budgets,
    clock: Arc<dyn Clock>,
    table: Mutex<Table>,
    /// Retained bytes of every resident tenant, plus the reservations of
    /// sections being committed. A reservation is made and settled while
    /// its call holds the table lock or its tenant's lock, so under
    /// [`Self::exclusive`] the total is exact. `Relaxed` suffices: the
    /// counter publishes no other data, and the release of those locks
    /// and their acquisition by `exclusive` order every update before
    /// its reads.
    total_bytes: AtomicUsize,
    quarantine_log: Mutex<VecDeque<QuarantineReport>>,
}

impl Served {
    /// A service on the real clock.
    pub fn new(budgets: Budgets) -> Self {
        Self::with_clock(budgets, Arc::new(RealClock::new()))
    }

    /// A service on an explicit clock (deterministic tests use
    /// [`dayu_trace::ManualClock`]).
    pub fn with_clock(budgets: Budgets, clock: Arc<dyn Clock>) -> Self {
        Self {
            budgets,
            clock,
            table: Mutex::new(Table::default()),
            total_bytes: AtomicUsize::new(0),
            quarantine_log: Mutex::new(VecDeque::new()),
        }
    }

    /// Submits one encoded `.dtb` section for `tenant`. `declared` is the
    /// client's digest of the payload (from the wire frame); `None` means
    /// the transport did not carry one and only the self-computed digest
    /// is used (for dedup).
    pub fn ingest(&self, tenant: &str, payload: &[u8], declared: Option<Digest>) -> IngestStatus {
        let now = self.clock.now();
        let resident = lock(&self.table).tenants.get(tenant).cloned();
        let mut memo = HeaderMemo::default();
        if let Some(slot) = &resident {
            let mut t = lock(slot);
            if !t.evicted {
                // `arrive` throttles exactly when the bucket has no token.
                if !t.bucket.has_token(now) {
                    if let Err(throttled) = t.arrive(now) {
                        return throttled;
                    }
                }
                memo = std::mem::take(&mut t.memo);
            }
        }
        let checked = Checked::new(payload, declared, memo);
        self.commit(tenant, resident, now, checked)
    }

    /// Applies a checked section to its tenant, admitting the tenant if
    /// it is not resident. Only the tenant's lock is held, unless the
    /// section's bytes do not fit the service-wide budget or admission
    /// must evict a tenant.
    fn commit(
        &self,
        name: &str,
        mut resident: Option<Slot>,
        now: Timestamp,
        sec: Checked,
    ) -> IngestStatus {
        loop {
            let slot = match resident.take() {
                Some(slot) => slot,
                None => {
                    let mut table = lock(&self.table);
                    if let Some(slot) = table.tenants.get(name) {
                        Arc::clone(slot)
                    } else {
                        if table.tenants.len() >= self.budgets.max_tenants.max(1)
                            || !self.reserve(sec.bytes)
                        {
                            break;
                        }
                        // The new tenant is locked before the table is
                        // released, so no call sees it before its first
                        // section.
                        let slot = Arc::new(Mutex::new(Tenant::new(&self.budgets, now)));
                        table.tenants.insert(name.to_owned(), Arc::clone(&slot));
                        let mut t = lock(&slot);
                        drop(table);
                        return self.settle(sec.bytes, self.apply(&mut t, name, now, sec));
                    }
                }
            };
            let mut t = lock(&slot);
            if t.evicted {
                continue;
            }
            if !self.reserve(sec.bytes) {
                break;
            }
            return self.settle(sec.bytes, self.apply(&mut t, name, now, sec));
        }
        self.commit_exclusive(name, now, sec)
    }

    /// [`Self::commit`] with the whole service locked: admits the tenant,
    /// evicting oldest-idle tenants while the table is full, applies the
    /// section, and then sheds oldest-idle tenants (never this one) until
    /// the byte total is back within budget.
    fn commit_exclusive(&self, name: &str, now: Timestamp, sec: Checked) -> IngestStatus {
        let bytes = sec.bytes;
        self.exclusive(|table, tenants| {
            let status = match tenants.iter().position(|(n, _)| *n == name) {
                Some(i) => self.apply(tenants[i].1, name, now, sec),
                None => {
                    while table.tenants.len() >= self.budgets.max_tenants.max(1)
                        && self.evict_lru(table, tenants, None)
                    {}
                    let mut t = Tenant::new(&self.budgets, now);
                    let status = self.apply(&mut t, name, now, sec);
                    table
                        .tenants
                        .insert(name.to_owned(), Arc::new(Mutex::new(t)));
                    status
                }
            };
            if status.grew() {
                self.total_bytes.fetch_add(bytes, Ordering::Relaxed);
                while self.total_bytes.load(Ordering::Relaxed) > self.budgets.max_bytes_total
                    && self.evict_lru(table, tenants, Some(name))
                {}
            }
            status
        })
    }

    /// The one-at-a-time pipeline after admission, on a tenant the caller
    /// holds: count the section, take its token, quarantine it if it is
    /// corrupt, enforce the tenant's budgets, absorb it. The decoded
    /// section moves into the tenant's graph, and the memo it was decoded
    /// through becomes the tenant's. A section that is not absorbed drops
    /// its memo, so a tenant keeps no header that it did not absorb.
    fn apply(&self, t: &mut Tenant, name: &str, now: Timestamp, sec: Checked) -> IngestStatus {
        let sequence = match t.arrive(now) {
            Ok(sequence) => sequence,
            Err(throttled) => return throttled,
        };
        let section = match sec.decoded {
            Ok(section) => section,
            Err((offset, cause)) => {
                let report = QuarantineReport {
                    tenant: name.to_owned(),
                    sequence,
                    offset,
                    len: sec.len,
                    digest: sec.digest,
                    cause,
                };
                t.stats.quarantined += 1;
                t.degrade("quarantined sections");
                let mut log = lock(&self.quarantine_log);
                if log.len() >= QUARANTINE_LOG_CAP {
                    log.pop_front();
                }
                log.push_back(report.clone());
                return IngestStatus::Quarantined(Box::new(report));
            }
        };
        if t.graph.retained_bytes() >= self.budgets.max_bytes_per_tenant {
            return t.reject("byte");
        }
        if t.graph.ftg_node_count() >= self.budgets.max_graph_nodes {
            return t.reject("graph node");
        }
        let records = &section.records;
        let records = records.vfd.len() + records.vol.len() + records.files.len();
        let duplicate = !t.graph.absorb_unique_shared(sec.digest, section, sec.bytes);
        t.memo = sec.memo;
        if duplicate {
            t.stats.duplicates += 1;
        } else {
            t.stats.accepted += 1;
        }
        IngestStatus::Accepted { records, duplicate }
    }

    /// Reserves `bytes` of the service-wide byte budget; false, reserving
    /// nothing, if they do not fit.
    fn reserve(&self, bytes: usize) -> bool {
        bytes == 0
            || self
                .total_bytes
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |total| {
                    total
                        .checked_add(bytes)
                        .filter(|&t| t <= self.budgets.max_bytes_total)
                })
                .is_ok()
    }

    /// Gives back the `bytes` reserved for a section that did not grow
    /// its tenant's graph.
    fn settle(&self, bytes: usize, status: IngestStatus) -> IngestStatus {
        if !status.grew() {
            self.total_bytes.fetch_sub(bytes, Ordering::Relaxed);
        }
        status
    }

    /// Runs `f` with the tenant table and every resident tenant (sorted
    /// by name) locked, so that no call is part-way through its commit.
    fn exclusive<R>(&self, f: impl FnOnce(&mut Table, &mut [(&str, &mut Tenant)]) -> R) -> R {
        let mut table = lock(&self.table);
        let mut slots: Vec<(String, Slot)> = table
            .tenants
            .iter()
            .map(|(name, slot)| (name.clone(), Arc::clone(slot)))
            .collect();
        slots.sort_by(|a, b| a.0.cmp(&b.0));
        let mut guards: Vec<MutexGuard<'_, Tenant>> = slots.iter().map(|(_, s)| lock(s)).collect();
        let mut tenants: Vec<(&str, &mut Tenant)> = slots
            .iter()
            .zip(guards.iter_mut())
            .map(|((name, _), t)| (name.as_str(), &mut **t))
            .collect();
        f(&mut table, &mut tenants)
    }

    /// Evicts the least-recently-active tenant (ties broken by name),
    /// skipping `keep`. Returns whether anything was evicted.
    fn evict_lru(
        &self,
        table: &mut Table,
        tenants: &mut [(&str, &mut Tenant)],
        keep: Option<&str>,
    ) -> bool {
        let victim = tenants
            .iter()
            .enumerate()
            .filter(|(_, (name, t))| !t.evicted && Some(*name) != keep)
            .min_by_key(|(_, (name, t))| (t.last_seen, *name))
            .map(|(i, _)| i);
        match victim {
            Some(i) => {
                self.evict(table, tenants[i].0, tenants[i].1);
                true
            }
            None => false,
        }
    }

    fn evict(&self, table: &mut Table, name: &str, t: &mut Tenant) {
        t.evicted = true;
        self.total_bytes
            .fetch_sub(t.graph.retained_bytes(), Ordering::Relaxed);
        table.tenants.remove(name);
        table.evicted += 1;
    }

    /// Runs `f` on a resident tenant under its lock; `None` if `name` is
    /// not resident.
    fn with_tenant<R>(&self, name: &str, f: impl FnOnce(&mut Tenant) -> R) -> Option<R> {
        loop {
            let slot = lock(&self.table).tenants.get(name).cloned()?;
            let mut t = lock(&slot);
            if !t.evicted {
                return Some(f(&mut t));
            }
        }
    }

    /// Evicts idle tenants and reports every degraded tenant as a
    /// [`Finding::DegradedIngest`] for the advisor. Run it periodically;
    /// the TCP front-end calls it between accepts.
    pub fn watchdog(&self) -> Vec<Finding> {
        let now = self.clock.now();
        self.exclusive(|table, tenants| {
            for (name, t) in tenants.iter_mut() {
                if now.since(t.last_seen) >= self.budgets.idle_evict_ns {
                    self.evict(table, name, t);
                }
            }
            tenants
                .iter()
                .filter(|(_, t)| !t.evicted)
                .filter_map(|(name, t)| {
                    Some(Finding::DegradedIngest {
                        workflow: (*name).to_owned(),
                        reason: t.stats.degraded.clone()?,
                        quarantined: t.stats.quarantined,
                        dropped: t.stats.dropped,
                    })
                })
                .collect()
        })
    }

    /// Snapshot of a tenant's File-Task Graph (its last good graph).
    pub fn snapshot_ftg(&self, tenant: &str) -> Option<Graph> {
        self.with_tenant(tenant, |t| t.graph.snapshot_ftg())
    }

    /// Snapshot of a tenant's Semantic Dataflow Graph.
    pub fn snapshot_sdg(&self, tenant: &str, opts: &SdgOptions) -> Option<Graph> {
        self.with_tenant(tenant, |t| t.graph.snapshot_sdg(opts))
    }

    /// The merged bundle a tenant's snapshots are built from.
    pub fn bundle(&self, tenant: &str) -> Option<TraceBundle> {
        self.with_tenant(tenant, |t| t.graph.to_bundle())
    }

    /// A tenant's counters.
    pub fn stats(&self, tenant: &str) -> Option<TenantStats> {
        self.with_tenant(tenant, |t| t.stats())
    }

    /// Resident tenant names, sorted.
    pub fn tenants(&self) -> Vec<String> {
        self.exclusive(|_, tenants| tenants.iter().map(|(name, _)| (*name).to_owned()).collect())
    }

    /// The service-wide quarantine log, oldest first (bounded; oldest
    /// entries are dropped past the cap).
    pub fn quarantine_log(&self) -> Vec<QuarantineReport> {
        self.exclusive(|_, _| lock(&self.quarantine_log).iter().cloned().collect())
    }

    /// Tenants evicted so far (idle timeout or byte-budget shedding).
    pub fn evicted(&self) -> u64 {
        lock(&self.table).evicted
    }

    /// Approximate retained record bytes across all tenants.
    pub fn total_retained_bytes(&self) -> usize {
        self.exclusive(|_, _| self.total_bytes.load(Ordering::Relaxed))
    }
}

/// Decodes a section through `memo` behind a panic barrier. The decoder
/// is hardened against corrupt input and should never panic; if it does
/// anyway, the panic becomes a quarantine cause instead of taking down the
/// service.
fn decode_guarded(
    payload: &[u8],
    memo: &mut HeaderMemo,
) -> Result<SharedSection, (u64, QuarantineCause)> {
    match catch_unwind(AssertUnwindSafe(|| memo.decode_section(payload))) {
        Ok(Ok(section)) => Ok(section),
        Ok(Err(e)) => {
            let cause = if e.is_truncation() {
                QuarantineCause::Truncated
            } else {
                QuarantineCause::Malformed(e.cause.to_string())
            };
            Err((e.offset, cause))
        }
        Err(panic) => {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_owned());
            Err((0, QuarantineCause::DecoderPanic(msg)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dayu_analyzer::build_ftg;
    use dayu_trace::ids::{FileKey, ObjectKey, TaskKey};
    use dayu_trace::time::ManualClock;
    use dayu_trace::vfd::{AccessType, IoKind, VfdRecord};

    /// Two tasks, each writing its own file.
    fn sections() -> Vec<Vec<u8>> {
        let mut b = TraceBundle::new("wf");
        for t in ["t0", "t1"] {
            b.push_task(TaskKey::new(t));
            b.vfd.push(VfdRecord {
                task: TaskKey::new(t),
                file: FileKey::new(format!("{t}.h5")),
                object: ObjectKey::new("/d"),
                kind: IoKind::Write,
                offset: 0,
                len: 4096,
                access: AccessType::RawData,
                start: Timestamp(1),
                end: Timestamp(2),
            });
        }
        b.split_per_task()
            .iter()
            .map(TraceBundle::to_binary_bytes)
            .collect()
    }

    #[test]
    fn a_memo_decoded_section_landing_after_eviction_admits_its_tenant_afresh() {
        let budgets = Budgets {
            idle_evict_ns: 0,
            ..Budgets::default()
        };
        let served = Served::with_clock(budgets, Arc::new(ManualClock::new()));
        let sections = sections();
        assert!(served.ingest("wf", &sections[0], None).grew());
        // The call for the second section takes the memo the first one
        // warmed and decodes through it; its tenant is evicted before it
        // commits.
        let resident = lock(&served.table).tenants.get("wf").cloned();
        let memo = std::mem::take(&mut lock(resident.as_ref().unwrap()).memo);
        let checked = Checked::new(&sections[1], None, memo);
        served.watchdog();
        assert_eq!(served.evicted(), 1);
        let status = served.commit("wf", resident, Timestamp(0), checked);
        assert!(status.grew(), "{status:?}");
        // The tenant holds that section alone, as after "eviction, then
        // this section".
        let alone = dayu_trace::decode_section(&sections[1]).unwrap();
        assert_eq!(served.bundle("wf").unwrap(), alone);
        assert_eq!(served.snapshot_ftg("wf").unwrap(), build_ftg(&alone));
        assert_eq!(served.stats("wf").unwrap().sections, 1);
        // Its memo came along: the next section decodes through it.
        assert_ne!(memo_of(&served, "wf"), empty_memo());
        assert!(served.ingest("wf", &sections[0], None).grew());
    }

    /// The `Debug` text of `tenant`'s memo.
    fn memo_of(served: &Served, tenant: &str) -> String {
        let slot = lock(&served.table).tenants.get(tenant).cloned().unwrap();
        let memo = format!("{:?}", lock(&slot).memo);
        memo
    }

    fn empty_memo() -> String {
        format!("{:?}", HeaderMemo::default())
    }

    #[test]
    fn a_tenant_keeps_the_memo_of_an_absorbed_section_only() {
        let sections = sections();
        let served = Served::with_clock(Budgets::default(), Arc::new(ManualClock::new()));
        assert!(served.ingest("wf", &sections[0], None).grew());
        assert_ne!(memo_of(&served, "wf"), empty_memo());
        let cut = &sections[1][..sections[1].len() - 1];
        let status = served.ingest("wf", cut, None);
        assert!(matches!(status, IngestStatus::Quarantined(_)), "{status:?}");
        assert_eq!(memo_of(&served, "wf"), empty_memo());
        assert!(served.ingest("wf", &sections[1], None).grew());
        assert_ne!(memo_of(&served, "wf"), empty_memo());
        // A resend is absorbed as a duplicate and keeps its memo.
        let status = served.ingest("wf", &sections[1], None);
        assert!(matches!(
            status,
            IngestStatus::Accepted {
                duplicate: true,
                ..
            }
        ));
        assert_ne!(memo_of(&served, "wf"), empty_memo());

        // Past its byte budget, a tenant's sections are refused and leave
        // it no memo.
        let budgets = Budgets {
            max_bytes_per_tenant: 1,
            ..Budgets::default()
        };
        let served = Served::with_clock(budgets, Arc::new(ManualClock::new()));
        assert!(served.ingest("wf", &sections[0], None).grew());
        assert!(!served.ingest("wf", &sections[1], None).grew());
        assert_eq!(memo_of(&served, "wf"), empty_memo());
    }
}
