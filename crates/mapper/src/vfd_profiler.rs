//! The VFD profiler: low-level half of the Access Tracker, plus the
//! per-operation half of the Characteristic Mapper.
//!
//! [`ProfilingVfd`] wraps any driver. Every operation is timed and folded
//! into per-file statistics (Access Tracker); when time-sensitive I/O
//! tracing is enabled, a full [`VfdRecord`] is emitted, attributed to the
//! data object currently published in the shared context (Characteristic
//! Mapper). The `skip_ops` configuration suppresses the first N records per
//! file, and disabling `trace_io` keeps only the constant-size statistics —
//! the storage/overhead trade-offs evaluated in Fig. 9c/9d.

use crate::config::MapperConfig;
use crate::state::MapperState;
use crate::task_or_main;
use crate::timers::{Component, ComponentTimers};
use dayu_trace::context::SharedContext;
use dayu_trace::ids::{FileKey, ObjectKey};
use dayu_trace::sync::lock;
use dayu_trace::time::Clock;
use dayu_trace::vfd::{AccessType, IoKind, VfdRecord};
use dayu_vfd::Vfd;
use std::sync::{Arc, Mutex};

/// Profiling wrapper driver (the DaYu VFD plugin).
pub struct ProfilingVfd<V> {
    inner: V,
    file: FileKey,
    state: Arc<Mutex<MapperState>>,
    ctx: SharedContext,
    clock: Arc<dyn Clock>,
    timers: Arc<ComponentTimers>,
    cfg: MapperConfig,
    data_ops_seen: u64,
}

impl<V: Vfd> ProfilingVfd<V> {
    pub(crate) fn new(
        inner: V,
        file: FileKey,
        state: Arc<Mutex<MapperState>>,
        ctx: SharedContext,
        clock: Arc<dyn Clock>,
        timers: Arc<ComponentTimers>,
        cfg: MapperConfig,
    ) -> Self {
        let p = Self {
            inner,
            file,
            state,
            ctx,
            clock,
            timers,
            cfg,
            data_ops_seen: 0,
        };
        p.record_lifecycle(IoKind::Open);
        p
    }

    fn record_lifecycle(&self, kind: IoKind) {
        if !self.cfg.trace_io {
            return;
        }
        let now = self.clock.now();
        let task = task_or_main(self.ctx.task());
        self.timers.sample(Component::CharacteristicMapper, || {
            lock(&self.state).vfd.push(VfdRecord {
                task,
                file: self.file.clone(),
                kind,
                offset: 0,
                len: 0,
                access: AccessType::Metadata,
                object: ObjectKey::file_metadata(),
                start: now,
                end: now,
            });
        });
    }

    /// Folds one data op into the statistics and, when traced, records it.
    /// One context snapshot attributes the op to its task and object, and
    /// one state lock covers both halves.
    fn record_data_op(
        &mut self,
        kind: IoKind,
        offset: u64,
        len: u64,
        access: AccessType,
        start: dayu_trace::time::Timestamp,
        end: dayu_trace::time::Timestamp,
    ) {
        self.data_ops_seen += 1;
        let traced = self.cfg.trace_io && self.data_ops_seen > self.cfg.skip_ops;
        // Characteristic Mapper: read what the VOL layer published.
        let snap = self
            .timers
            .sample(Component::CharacteristicMapper, || self.ctx.snapshot());
        let task = task_or_main(snap.task);
        // Access Tracker: constant-size running statistics.
        let mut state = self.timers.sample(Component::AccessTracker, || {
            let mut state = lock(&self.state);
            state
                .file_stats(&task, &self.file)
                .stats
                .record(kind, offset, len, access);
            state
        });
        if !traced {
            return;
        }
        // Characteristic Mapper: time-sensitive record attributed to the
        // current data object.
        let file = self.file.clone();
        self.timers
            .sample(Component::CharacteristicMapper, move || {
                state.vfd.push(VfdRecord {
                    task,
                    file,
                    kind,
                    offset,
                    len,
                    access,
                    object: snap.object.unwrap_or_else(ObjectKey::file_metadata),
                    start,
                    end,
                });
            });
    }
}

impl<V: Vfd> Vfd for ProfilingVfd<V> {
    fn read(&mut self, offset: u64, buf: &mut [u8], access: AccessType) -> dayu_vfd::Result<()> {
        let start = self.clock.now();
        self.inner.read(offset, buf, access)?;
        let end = self.clock.now();
        self.record_data_op(IoKind::Read, offset, buf.len() as u64, access, start, end);
        Ok(())
    }

    fn write(&mut self, offset: u64, data: &[u8], access: AccessType) -> dayu_vfd::Result<()> {
        let start = self.clock.now();
        self.inner.write(offset, data, access)?;
        let end = self.clock.now();
        self.record_data_op(IoKind::Write, offset, data.len() as u64, access, start, end);
        Ok(())
    }

    fn eof(&self) -> u64 {
        self.inner.eof()
    }

    fn truncate(&mut self, eof: u64) -> dayu_vfd::Result<()> {
        self.inner.truncate(eof)?;
        self.record_lifecycle(IoKind::Truncate);
        Ok(())
    }

    fn flush(&mut self) -> dayu_vfd::Result<()> {
        self.inner.flush()?;
        self.record_lifecycle(IoKind::Flush);
        Ok(())
    }

    fn close(&mut self) -> dayu_vfd::Result<()> {
        self.inner.close()?;
        self.record_lifecycle(IoKind::Close);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dayu_trace::ids::TaskKey;
    use dayu_trace::time::ManualClock;
    use dayu_vfd::MemVfd;

    fn setup(cfg: MapperConfig) -> (ProfilingVfd<MemVfd>, Arc<Mutex<MapperState>>, ManualClock) {
        let state = Arc::new(Mutex::new(MapperState::new("wf".into(), cfg.clone())));
        let ctx = SharedContext::new();
        ctx.set_task("t0");
        let clock = ManualClock::new();
        let p = ProfilingVfd::new(
            MemVfd::new(),
            FileKey::new("f.h5"),
            state.clone(),
            ctx,
            Arc::new(clock.clone()),
            Arc::new(ComponentTimers::default()),
            cfg,
        );
        (p, state, clock)
    }

    #[test]
    fn records_ops_with_object_attribution() {
        let (mut p, state, clock) = setup(MapperConfig::default());
        p.ctx.enter_object("/dset");
        clock.advance(10);
        p.write(0, &[1; 64], AccessType::RawData).unwrap();
        p.ctx.exit_object();
        p.write(64, &[2; 16], AccessType::Metadata).unwrap();

        let s = lock(&state);
        // Open + 2 data ops.
        assert_eq!(s.vfd.len(), 3);
        assert_eq!(s.vfd[0].kind, IoKind::Open);
        let d1 = &s.vfd[1];
        assert_eq!(d1.object, ObjectKey::new("/dset"));
        assert_eq!(d1.len, 64);
        assert_eq!(d1.access, AccessType::RawData);
        assert_eq!(d1.task, TaskKey::new("t0"));
        let d2 = &s.vfd[2];
        assert_eq!(d2.object, ObjectKey::file_metadata());
        assert_eq!(d2.access, AccessType::Metadata);
    }

    #[test]
    fn stats_always_collected_even_without_io_trace() {
        let cfg = MapperConfig {
            trace_io: false,
            ..Default::default()
        };
        let (mut p, state, _) = setup(cfg);
        p.write(0, &[0; 100], AccessType::RawData).unwrap();
        let mut buf = [0u8; 50];
        p.read(0, &mut buf, AccessType::RawData).unwrap();
        p.close().unwrap();

        let s = lock(&state);
        assert!(s.vfd.is_empty(), "no time-sensitive records");
        drop(s);
        let mut s = lock(&state);
        let rec = s.file_stats(&TaskKey::new("t0"), &FileKey::new("f.h5"));
        assert_eq!(rec.stats.write_ops, 1);
        assert_eq!(rec.stats.read_ops, 1);
        assert_eq!(rec.stats.bytes_written, 100);
    }

    #[test]
    fn skip_ops_suppresses_leading_records() {
        let cfg = MapperConfig {
            skip_ops: 2,
            ..Default::default()
        };
        let (mut p, state, _) = setup(cfg);
        for i in 0..5u64 {
            p.write(i * 8, &[0; 8], AccessType::RawData).unwrap();
        }
        let s = lock(&state);
        let data_ops = s.vfd.iter().filter(|r| r.kind.moves_data()).count();
        assert_eq!(data_ops, 3, "first 2 skipped");
    }

    #[test]
    fn failed_ops_are_not_recorded() {
        let (mut p, state, _) = setup(MapperConfig::default());
        let mut buf = [0u8; 4];
        assert!(p.read(100, &mut buf, AccessType::RawData).is_err());
        let s = lock(&state);
        assert_eq!(s.vfd.iter().filter(|r| r.kind.moves_data()).count(), 0);
    }

    #[test]
    fn timestamps_bracket_the_operation() {
        let (mut p, state, clock) = setup(MapperConfig::default());
        clock.advance(100);
        p.write(0, &[0; 8], AccessType::RawData).unwrap();
        let s = lock(&state);
        let rec = s.vfd.iter().find(|r| r.kind == IoKind::Write).unwrap();
        assert_eq!(rec.start.nanos(), 100);
        assert_eq!(rec.end.nanos(), 100, "manual clock did not advance inside");
    }

    #[test]
    fn lifecycle_ops_traced() {
        let (mut p, state, _) = setup(MapperConfig::default());
        p.flush().unwrap();
        p.truncate(10).unwrap();
        p.close().unwrap();
        let kinds: Vec<IoKind> = lock(&state).vfd.iter().map(|r| r.kind).collect();
        assert_eq!(
            kinds,
            vec![IoKind::Open, IoKind::Flush, IoKind::Truncate, IoKind::Close]
        );
    }

    #[test]
    fn passthrough_data_integrity() {
        let (mut p, _, _) = setup(MapperConfig::default());
        p.write(0, b"hello", AccessType::RawData).unwrap();
        let mut buf = [0u8; 5];
        p.read(0, &mut buf, AccessType::RawData).unwrap();
        assert_eq!(&buf, b"hello");
        assert_eq!(p.eof(), 5);
    }
}
