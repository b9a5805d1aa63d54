//! `.drb` replay bundles: self-contained, tamper-evident run artifacts.
//!
//! A bundle freezes everything needed to re-execute and cross-check a
//! recorded run on another machine: the trace (in `.dtb` binary form), the
//! filesystem images the run started from and ended with, and the complete
//! recording configuration — chaos/crash/retry/durability seeds, mapper
//! settings, resume/salvage flags — plus the per-task outcomes the run
//! produced. Sections are chained with SHA-256 digests (each section's
//! digest covers the previous section's digest), so truncation, reordering
//! and any single flipped byte are all detected by [`ReplayBundle::verify_bytes`]
//! without re-executing anything.
//!
//! ## Wire format
//!
//! ```text
//! magic: 89 'D' 'R' 'B' 0D 0A 1A <version=01>
//! section*: tag:u8  name:str  payload:bytes  digest:[u8;32]
//! footer:   tag=00  chain:[u8;32]
//! ```
//!
//! `str` and `bytes` are varint-length-prefixed ([`dayu_trace::wire`]).
//! `digest = SHA256(prev_digest ‖ tag ‖ len(name) ‖ name ‖ len(payload) ‖
//! payload)` with a zero block as the initial chain value; the footer
//! repeats the final chain value. Section order is fixed: manifest, trace,
//! initial images (sorted by name), final images (sorted by name).

use crate::retry::RetryPolicy;
use crate::runner::{RecordOptions, TaskOutcome};
use dayu_hdf::Durability;
use dayu_mapper::MapperConfig;
use dayu_trace::sha256::{hex, Digest, Sha256};
use dayu_trace::store::TraceBundle;
use dayu_trace::wire;
use dayu_vfd::{CrashSchedule, FaultSchedule, MemFs};
use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Cursor, Read, Write};
use std::path::Path;

/// Bundle file magic: non-ASCII guard byte, format name, CRLF/EOF tramplers
/// (detect text-mode mangling), then the format version.
pub const MAGIC: [u8; 8] = [0x89, b'D', b'R', b'B', 0x0D, 0x0A, 0x1A, 0x01];

const SEC_END: u8 = 0x00;
const SEC_MANIFEST: u8 = 0x01;
const SEC_TRACE: u8 = 0x02;
const SEC_INITIAL: u8 = 0x03;
const SEC_FINAL: u8 = 0x04;

/// Everything that can go wrong reading, verifying or decoding a bundle.
/// Every variant names the section or context at fault — corrupt input
/// yields a precise error, never a panic.
#[derive(Debug)]
pub enum BundleError {
    /// Underlying I/O failure (file missing, permission, …).
    Io(io::Error),
    /// The first 8 bytes are not a `.drb` header.
    BadMagic,
    /// A `.drb` of a format version this build does not understand.
    UnsupportedVersion(u8),
    /// The input ended mid-structure; `section` says where.
    Truncated { section: String },
    /// A section's recorded digest does not match its content.
    HashMismatch {
        section: String,
        expected: String,
        actual: String,
    },
    /// The footer's chain value disagrees with the recomputed chain.
    ChainMismatch { expected: String, actual: String },
    /// A section decoded to nonsense; `detail` explains.
    Malformed { section: String, detail: String },
    /// A required section is absent.
    MissingSection(&'static str),
    /// A singleton section appeared twice.
    DuplicateSection(&'static str),
    /// Re-executing the bundled workload failed outright (before any
    /// divergence comparison could run).
    ReplayFailed(String),
    /// The caller's workload spec does not match the bundled workload.
    WorkloadMismatch { bundle: String, spec: String },
}

impl fmt::Display for BundleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "bundle I/O error: {e}"),
            Self::BadMagic => write!(f, "not a .drb replay bundle (bad magic)"),
            Self::UnsupportedVersion(v) => {
                write!(f, "unsupported .drb format version {v:#04x}")
            }
            Self::Truncated { section } => {
                write!(f, "bundle truncated in section \"{section}\"")
            }
            Self::HashMismatch {
                section,
                expected,
                actual,
            } => write!(
                f,
                "hash mismatch in section \"{section}\": recorded {expected}, computed {actual}"
            ),
            Self::ChainMismatch { expected, actual } => write!(
                f,
                "footer chain mismatch: recorded {expected}, computed {actual}"
            ),
            Self::Malformed { section, detail } => {
                write!(f, "malformed section \"{section}\": {detail}")
            }
            Self::MissingSection(s) => write!(f, "bundle is missing its {s} section"),
            Self::DuplicateSection(s) => write!(f, "bundle has more than one {s} section"),
            Self::ReplayFailed(msg) => write!(f, "replay execution failed: {msg}"),
            Self::WorkloadMismatch { bundle, spec } => write!(
                f,
                "bundle records workload \"{bundle}\" but the supplied spec is \"{spec}\""
            ),
        }
    }
}

impl std::error::Error for BundleError {}

impl From<io::Error> for BundleError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// The recording configuration and results, frozen into the bundle.
#[derive(Clone, Debug, PartialEq)]
pub struct BundleManifest {
    /// Workload identifier (the [`crate::spec::WorkflowSpec`] name).
    pub workload: String,
    /// Workload parameters as the producing tool encoded them (free-form,
    /// e.g. `scale=small`).
    pub params: String,
    /// Version of the tool that produced the bundle.
    pub tool_version: String,
    /// The recording's options, seeds included: a replay re-runs under
    /// exactly these.
    pub options: RecordOptions,
    /// Per-task fates of the recorded run.
    pub outcomes: Vec<TaskOutcome>,
}

impl BundleManifest {
    /// Freezes `options` and `outcomes` into a manifest.
    pub fn new(
        workload: impl Into<String>,
        params: impl Into<String>,
        tool_version: impl Into<String>,
        options: &RecordOptions,
        outcomes: Vec<TaskOutcome>,
    ) -> Self {
        Self {
            workload: workload.into(),
            params: params.into(),
            tool_version: tool_version.into(),
            options: options.clone(),
            outcomes,
        }
    }

    /// Whether the recorded trace has full per-op fidelity (every data op
    /// recorded), the precondition for op-by-op replay validation.
    pub fn full_fidelity(&self) -> bool {
        self.options.mapper.trace_io && self.options.mapper.skip_ops == 0
    }

    fn encode(&self) -> Vec<u8> {
        let opts = &self.options;
        let mut w = Vec::new();
        let out = &mut w;
        // Layout 3. Decode also accepts layouts 1 and 2; layout 2 carries an
        // I/O engine block after `manual_clock`, which decode checks and
        // drops (every engine recorded the same ops).
        wire::write_u8(out, 3).expect("vec write"); // manifest layout version
        wire::write_str(out, &self.workload).expect("vec write");
        wire::write_str(out, &self.params).expect("vec write");
        wire::write_str(out, &self.tool_version).expect("vec write");
        wire::write_str(out, &opts.mapper.output).expect("vec write");
        wire::write_varint(out, opts.mapper.page_size).expect("vec write");
        wire::write_varint(out, opts.mapper.skip_ops).expect("vec write");
        write_bool(out, opts.mapper.trace_io);
        write_bool(out, opts.mapper.trace_vol);
        wire::write_varint(out, u64::from(opts.retry.max_attempts)).expect("vec write");
        wire::write_varint(out, opts.retry.base_backoff_ns).expect("vec write");
        wire::write_varint(out, opts.retry.max_backoff_ns).expect("vec write");
        wire::write_f64(out, opts.retry.jitter).expect("vec write");
        wire::write_opt_varint(out, opts.retry.deadline_ns).expect("vec write");
        match &opts.chaos {
            None => write_bool(out, false),
            Some(c) => {
                write_bool(out, true);
                wire::write_varint(out, c.seed).expect("vec write");
                wire::write_f64(out, c.read_fault_prob).expect("vec write");
                wire::write_f64(out, c.write_fault_prob).expect("vec write");
                write_bool(out, c.sticky_faults);
                wire::write_varint(out, c.transient_ops.len() as u64).expect("vec write");
                for op in &c.transient_ops {
                    wire::write_varint(out, *op).expect("vec write");
                }
                wire::write_opt_varint(out, c.dead_at_op).expect("vec write");
                write_bool(out, c.born_dead);
                wire::write_f64(out, c.latency_prob).expect("vec write");
                wire::write_varint(out, c.latency_ns).expect("vec write");
            }
        }
        match &opts.crash {
            None => write_bool(out, false),
            Some(c) => {
                write_bool(out, true);
                wire::write_varint(out, c.seed).expect("vec write");
                wire::write_opt_varint(out, c.crash_at_write).expect("vec write");
                write_bool(out, c.tear);
                write_bool(out, c.drop_unflushed);
            }
        }
        wire::write_u8(
            out,
            match opts.durability {
                Durability::WriteThrough => 0,
                Durability::Journal => 1,
            },
        )
        .expect("vec write");
        write_bool(out, opts.resume);
        write_bool(out, opts.salvage);
        write_bool(out, opts.manual_clock);
        wire::write_varint(out, self.outcomes.len() as u64).expect("vec write");
        for o in &self.outcomes {
            wire::write_str(out, &o.task).expect("vec write");
            wire::write_varint(out, u64::from(o.attempts)).expect("vec write");
            write_bool(out, o.degraded);
            match &o.error {
                None => write_bool(out, false),
                Some(e) => {
                    write_bool(out, true);
                    wire::write_str(out, e).expect("vec write");
                }
            }
            wire::write_varint(out, o.faults_injected).expect("vec write");
            wire::write_varint(out, o.recovered_files.len() as u64).expect("vec write");
            for f in &o.recovered_files {
                wire::write_str(out, f).expect("vec write");
            }
        }
        w
    }

    fn decode(payload: &[u8]) -> Result<Self, BundleError> {
        let r = &mut Cursor::new(payload);
        let ctx = |e: io::Error| map_section_err("manifest", e);
        let layout = wire::read_u8(r).map_err(ctx)?;
        if !(1..=3).contains(&layout) {
            return Err(malformed(
                "manifest",
                format!("unknown manifest layout version {layout}"),
            ));
        }
        let workload = wire::read_str(r, "workload").map_err(ctx)?;
        let params = wire::read_str(r, "params").map_err(ctx)?;
        let tool_version = wire::read_str(r, "tool_version").map_err(ctx)?;
        let mapper = MapperConfig {
            output: wire::read_str(r, "mapper.output").map_err(ctx)?,
            page_size: wire::read_varint(r).map_err(ctx)?,
            skip_ops: wire::read_varint(r).map_err(ctx)?,
            trace_io: read_bool(r, "mapper.trace_io")?,
            trace_vol: read_bool(r, "mapper.trace_vol")?,
        };
        let retry = RetryPolicy {
            max_attempts: read_u32(r, "retry.max_attempts")?,
            base_backoff_ns: wire::read_varint(r).map_err(ctx)?,
            max_backoff_ns: wire::read_varint(r).map_err(ctx)?,
            jitter: wire::read_f64(r).map_err(ctx)?,
            deadline_ns: wire::read_opt_varint(r, "retry.deadline_ns").map_err(ctx)?,
        };
        let chaos = if read_bool(r, "chaos presence")? {
            let seed = wire::read_varint(r).map_err(ctx)?;
            let read_fault_prob = wire::read_f64(r).map_err(ctx)?;
            let write_fault_prob = wire::read_f64(r).map_err(ctx)?;
            let sticky_faults = read_bool(r, "chaos.sticky_faults")?;
            let n = wire::read_len(r, "chaos.transient_ops", 1 << 24).map_err(ctx)?;
            let mut transient_ops = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                transient_ops.push(wire::read_varint(r).map_err(ctx)?);
            }
            Some(FaultSchedule {
                seed,
                read_fault_prob,
                write_fault_prob,
                sticky_faults,
                transient_ops,
                dead_at_op: wire::read_opt_varint(r, "chaos.dead_at_op").map_err(ctx)?,
                born_dead: read_bool(r, "chaos.born_dead")?,
                latency_prob: wire::read_f64(r).map_err(ctx)?,
                latency_ns: wire::read_varint(r).map_err(ctx)?,
            })
        } else {
            None
        };
        let crash = if read_bool(r, "crash presence")? {
            Some(CrashSchedule {
                seed: wire::read_varint(r).map_err(ctx)?,
                crash_at_write: wire::read_opt_varint(r, "crash.crash_at_write").map_err(ctx)?,
                tear: read_bool(r, "crash.tear")?,
                drop_unflushed: read_bool(r, "crash.drop_unflushed")?,
            })
        } else {
            None
        };
        let durability = match wire::read_u8(r).map_err(ctx)? {
            0 => Durability::WriteThrough,
            1 => Durability::Journal,
            other => {
                return Err(malformed(
                    "manifest",
                    format!("unknown durability mode {other}"),
                ))
            }
        };
        let resume = read_bool(r, "resume")?;
        let salvage = read_bool(r, "salvage")?;
        let manual_clock = read_bool(r, "manual_clock")?;
        if layout == 2 {
            // The engine block: mode (0 scalar, 1 batched), queue depth,
            // coalesce, coalesced-op cap, readahead.
            let mode = wire::read_u8(r).map_err(ctx)?;
            if mode > 1 {
                return Err(malformed(
                    "manifest",
                    format!("unknown io engine mode {mode}"),
                ));
            }
            wire::read_varint(r).map_err(ctx)?;
            read_bool(r, "io_engine.coalesce")?;
            wire::read_varint(r).map_err(ctx)?;
            wire::read_varint(r).map_err(ctx)?;
        }
        let n = wire::read_len(r, "outcomes", 1 << 24).map_err(ctx)?;
        let mut outcomes = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let task = wire::read_str(r, "outcome.task").map_err(ctx)?;
            let attempts = read_u32(r, "outcome.attempts")?;
            let degraded = read_bool(r, "outcome.degraded")?;
            let error = if read_bool(r, "outcome.error presence")? {
                Some(wire::read_str(r, "outcome.error").map_err(ctx)?)
            } else {
                None
            };
            let faults_injected = wire::read_varint(r).map_err(ctx)?;
            let nf = wire::read_len(r, "outcome.recovered_files", 1 << 24).map_err(ctx)?;
            let mut recovered_files = Vec::with_capacity(nf.min(1024));
            for _ in 0..nf {
                recovered_files.push(wire::read_str(r, "outcome.recovered_file").map_err(ctx)?);
            }
            outcomes.push(TaskOutcome {
                task,
                attempts,
                degraded,
                error,
                faults_injected,
                recovered_files,
            });
        }
        if r.position() != payload.len() as u64 {
            return Err(malformed(
                "manifest",
                format!(
                    "{} trailing byte(s) after manifest",
                    payload.len() as u64 - r.position()
                ),
            ));
        }
        Ok(Self {
            workload,
            params,
            tool_version,
            options: RecordOptions {
                mapper,
                retry,
                chaos,
                crash,
                durability,
                resume,
                salvage,
                manual_clock,
            },
            outcomes,
        })
    }
}

fn write_bool(w: &mut Vec<u8>, v: bool) {
    wire::write_u8(w, u8::from(v)).expect("vec write");
}

fn read_bool(r: &mut Cursor<&[u8]>, what: &str) -> Result<bool, BundleError> {
    match wire::read_u8(r).map_err(|e| map_section_err("manifest", e))? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(malformed(
            "manifest",
            format!("{what}: bad bool byte {other:#04x}"),
        )),
    }
}

fn read_u32(r: &mut Cursor<&[u8]>, what: &str) -> Result<u32, BundleError> {
    let v = wire::read_varint(r).map_err(|e| map_section_err("manifest", e))?;
    u32::try_from(v).map_err(|_| malformed("manifest", format!("{what} {v} overflows u32")))
}

fn malformed(section: &str, detail: impl Into<String>) -> BundleError {
    BundleError::Malformed {
        section: section.to_owned(),
        detail: detail.into(),
    }
}

fn map_section_err(section: &str, e: io::Error) -> BundleError {
    if e.kind() == io::ErrorKind::UnexpectedEof {
        BundleError::Truncated {
            section: section.to_owned(),
        }
    } else {
        malformed(section, e.to_string())
    }
}

/// What [`ReplayBundle::verify_bytes`] found: every section with its size
/// and verified digest, plus the footer chain value.
#[derive(Clone, Debug)]
pub struct VerifyReport {
    /// Sections in file order.
    pub sections: Vec<SectionInfo>,
    /// Hex of the final chain value the footer carries.
    pub chain: String,
}

/// One verified section.
#[derive(Clone, Debug)]
pub struct SectionInfo {
    /// Section kind: `manifest`, `trace`, `initial`, `final`.
    pub kind: String,
    /// Section name (file name for image sections, empty otherwise).
    pub name: String,
    /// Payload size in bytes.
    pub bytes: usize,
    /// Hex of the section's chained digest.
    pub digest: String,
}

fn section_label(tag: u8, name: &str) -> String {
    let kind = match tag {
        SEC_MANIFEST => "manifest",
        SEC_TRACE => "trace",
        SEC_INITIAL => "initial",
        SEC_FINAL => "final",
        _ => "unknown",
    };
    if name.is_empty() {
        kind.to_owned()
    } else {
        format!("{kind}:{name}")
    }
}

fn section_digest(prev: &Digest, tag: u8, name: &str, payload: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(prev);
    h.update(&[tag]);
    h.update(&(name.len() as u64).to_le_bytes());
    h.update(name.as_bytes());
    h.update(&(payload.len() as u64).to_le_bytes());
    h.update(payload);
    h.finalize()
}

/// A parsed-but-not-decoded section.
struct RawSection {
    tag: u8,
    name: String,
    payload: Vec<u8>,
    digest: Digest,
}

/// Walks the section stream, verifying the hash chain as it goes.
fn read_sections(bytes: &[u8]) -> Result<Vec<RawSection>, BundleError> {
    if bytes.len() < MAGIC.len() {
        return Err(BundleError::Truncated {
            section: "header".to_owned(),
        });
    }
    if bytes[..7] != MAGIC[..7] {
        return Err(BundleError::BadMagic);
    }
    if bytes[7] != MAGIC[7] {
        return Err(BundleError::UnsupportedVersion(bytes[7]));
    }
    let r = &mut Cursor::new(&bytes[MAGIC.len()..]);
    let mut chain = [0u8; 32];
    let mut sections = Vec::new();
    loop {
        let at = sections.last().map_or_else(
            || "header".to_owned(),
            |s: &RawSection| section_label(s.tag, &s.name),
        );
        let tag = wire::read_u8(r).map_err(|e| map_section_err(&format!("after {at}"), e))?;
        if tag == SEC_END {
            let mut footer = [0u8; 32];
            r.read_exact(&mut footer)
                .map_err(|e| map_section_err("footer", e))?;
            if footer != chain {
                return Err(BundleError::ChainMismatch {
                    expected: hex(&footer),
                    actual: hex(&chain),
                });
            }
            if r.position() != (bytes.len() - MAGIC.len()) as u64 {
                return Err(malformed("footer", "trailing bytes after footer"));
            }
            return Ok(sections);
        }
        let name = wire::read_str(r, "section name")
            .map_err(|e| map_section_err(&format!("after {at}"), e))?;
        let label = section_label(tag, &name);
        let payload =
            wire::read_bytes(r, "section payload").map_err(|e| map_section_err(&label, e))?;
        let mut digest = [0u8; 32];
        r.read_exact(&mut digest)
            .map_err(|e| map_section_err(&label, e))?;
        let computed = section_digest(&chain, tag, &name, &payload);
        if digest != computed {
            return Err(BundleError::HashMismatch {
                section: label,
                expected: hex(&digest),
                actual: hex(&computed),
            });
        }
        chain = computed;
        sections.push(RawSection {
            tag,
            name,
            payload,
            digest,
        });
    }
}

/// A fully decoded replay bundle.
#[derive(Clone, Debug)]
pub struct ReplayBundle {
    /// Recording configuration and outcomes.
    pub manifest: BundleManifest,
    /// The recorded trace.
    pub trace: TraceBundle,
    /// Filesystem images the run started from (usually empty).
    pub initial_images: BTreeMap<String, Vec<u8>>,
    /// Filesystem images the run left behind.
    pub final_images: BTreeMap<String, Vec<u8>>,
}

impl ReplayBundle {
    /// Assembles a bundle, snapshotting `fs` as the final images.
    pub fn pack(
        manifest: BundleManifest,
        trace: TraceBundle,
        initial_images: BTreeMap<String, Vec<u8>>,
        fs: &MemFs,
    ) -> Self {
        let final_images = fs
            .list()
            .into_iter()
            .filter_map(|name| fs.snapshot(&name).map(|bytes| (name, bytes)))
            .collect();
        Self {
            manifest,
            trace,
            initial_images,
            final_images,
        }
    }

    /// Serializes the bundle with its hash chain.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        let mut chain = [0u8; 32];
        let mut emit = |out: &mut Vec<u8>, tag: u8, name: &str, payload: &[u8]| {
            let digest = section_digest(&chain, tag, name, payload);
            wire::write_u8(out, tag).expect("vec write");
            wire::write_str(out, name).expect("vec write");
            wire::write_bytes(out, payload).expect("vec write");
            out.extend_from_slice(&digest);
            chain = digest;
        };
        emit(&mut out, SEC_MANIFEST, "", &self.manifest.encode());
        emit(&mut out, SEC_TRACE, "", &self.trace.to_binary_bytes());
        for (name, bytes) in &self.initial_images {
            emit(&mut out, SEC_INITIAL, name, bytes);
        }
        for (name, bytes) in &self.final_images {
            emit(&mut out, SEC_FINAL, name, bytes);
        }
        wire::write_u8(&mut out, SEC_END).expect("vec write");
        out.extend_from_slice(&chain);
        out
    }

    /// Writes the bundle to `path`.
    pub fn write_file(&self, path: impl AsRef<Path>) -> Result<(), BundleError> {
        let bytes = self.to_bytes();
        let mut f = std::fs::File::create(path)?;
        f.write_all(&bytes)?;
        Ok(())
    }

    /// Parses and fully decodes a bundle, verifying the hash chain.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, BundleError> {
        let sections = read_sections(bytes)?;
        let mut manifest = None;
        let mut trace = None;
        let mut initial_images = BTreeMap::new();
        let mut final_images = BTreeMap::new();
        for s in sections {
            match s.tag {
                SEC_MANIFEST => {
                    if manifest.is_some() {
                        return Err(BundleError::DuplicateSection("manifest"));
                    }
                    manifest = Some(BundleManifest::decode(&s.payload)?);
                }
                SEC_TRACE => {
                    if trace.is_some() {
                        return Err(BundleError::DuplicateSection("trace"));
                    }
                    trace = Some(
                        TraceBundle::load(Cursor::new(&s.payload[..]))
                            .map_err(|e| map_section_err("trace", e))?,
                    );
                }
                SEC_INITIAL => {
                    if initial_images.insert(s.name.clone(), s.payload).is_some() {
                        return Err(malformed(
                            &section_label(SEC_INITIAL, &s.name),
                            "duplicate initial image",
                        ));
                    }
                }
                SEC_FINAL => {
                    if final_images.insert(s.name.clone(), s.payload).is_some() {
                        return Err(malformed(
                            &section_label(SEC_FINAL, &s.name),
                            "duplicate final image",
                        ));
                    }
                }
                other => {
                    return Err(malformed(
                        &section_label(other, &s.name),
                        format!("unknown section tag {other:#04x}"),
                    ));
                }
            }
        }
        Ok(Self {
            manifest: manifest.ok_or(BundleError::MissingSection("manifest"))?,
            trace: trace.ok_or(BundleError::MissingSection("trace"))?,
            initial_images,
            final_images,
        })
    }

    /// Reads and decodes a bundle file.
    pub fn read_file(path: impl AsRef<Path>) -> Result<Self, BundleError> {
        Self::from_bytes(&std::fs::read(path)?)
    }

    /// Verifies the hash chain without decoding section contents — the
    /// cheap integrity check (`dayu-analyze bundle verify`).
    pub fn verify_bytes(bytes: &[u8]) -> Result<VerifyReport, BundleError> {
        let sections = read_sections(bytes)?;
        let chain = sections
            .last()
            .map_or_else(|| hex(&[0u8; 32]), |s| hex(&s.digest));
        Ok(VerifyReport {
            sections: sections
                .iter()
                .map(|s| SectionInfo {
                    kind: match s.tag {
                        SEC_MANIFEST => "manifest",
                        SEC_TRACE => "trace",
                        SEC_INITIAL => "initial",
                        SEC_FINAL => "final",
                        _ => "unknown",
                    }
                    .to_owned(),
                    name: s.name.clone(),
                    bytes: s.payload.len(),
                    digest: hex(&s.digest),
                })
                .collect(),
            chain,
        })
    }

    /// Verifies a bundle file's hash chain.
    pub fn verify_file(path: impl AsRef<Path>) -> Result<VerifyReport, BundleError> {
        Self::verify_bytes(&std::fs::read(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bundle() -> ReplayBundle {
        let opts = RecordOptions {
            manual_clock: true,
            ..RecordOptions::default()
                .with_chaos(FaultSchedule::new(42).with_transient_at(3))
                .with_crash(CrashSchedule::new(7).with_crash_at(5).torn())
                .with_durability(Durability::Journal)
                .with_resume(true)
                .with_retry(RetryPolicy::default().attempts(4).with_backoff(10, 100))
        };
        let manifest = BundleManifest::new(
            "wf",
            "scale=small",
            "0.1.0-test",
            &opts,
            vec![TaskOutcome {
                task: "producer".into(),
                attempts: 2,
                degraded: false,
                error: None,
                faults_injected: 1,
                recovered_files: vec!["a.h5".into()],
            }],
        );
        let mut trace = TraceBundle::new("wf");
        trace.meta.page_size = 4096;
        let mut initial = BTreeMap::new();
        initial.insert("seed.bin".to_owned(), vec![1u8, 2, 3]);
        let fs = MemFs::new();
        fs.restore("out.h5", vec![9u8; 100]);
        ReplayBundle::pack(manifest, trace, initial, &fs)
    }

    #[test]
    fn round_trips_through_bytes() {
        let b = sample_bundle();
        let bytes = b.to_bytes();
        let back = ReplayBundle::from_bytes(&bytes).unwrap();
        assert_eq!(back.manifest, b.manifest);
        assert_eq!(back.initial_images, b.initial_images);
        assert_eq!(back.final_images, b.final_images);
        assert_eq!(back.trace, b.trace);
        // Deterministic serialization: same bundle, same bytes.
        assert_eq!(back.to_bytes(), bytes);
    }

    /// `sample_bundle().to_bytes()`, pinned: the section framing and the
    /// manifest's layout 3 must not drift.
    const SAMPLE_BYTES_HEX: &str = concat!(
        "894452420d0a1a0101007b030277660b7363616c653d736d616c6c0a302e312e",
        "302d7465737410646179755f74726163652e6a736f6e6c8020000101040a6400",
        "0000000000d03f00012a00000000000000000000000000000000000103000000",
        "000000000000000001070105010001010101010870726f647563657202000001",
        "0104612e683529010775bc52349e927754cb99d3adfa95c6482a7455f0391763",
        "0b80ca47bec9020016894454420d0a1a04010277660100802000000000000082",
        "d156374e82dc1e6fd62b6c5bb4041f33dd7fa3ee3ac72fd018f4ec904161cb03",
        "08736565642e62696e03010203f36c0605f135c2a3fe7e9c9664911c31af027a",
        "0b8e50a9ebf8a42b9be998467904066f75742e68356409090909090909090909",
        "0909090909090909090909090909090909090909090909090909090909090909",
        "0909090909090909090909090909090909090909090909090909090909090909",
        "09090909090909090909090909090909090909090909090909091cacfc4399b6",
        "ded47226a6eb4f677a43455bd1c4c336bd74f355b90bf1992cd3001cacfc4399",
        "b6ded47226a6eb4f677a43455bd1c4c336bd74f355b90bf1992cd3",
    );

    /// `sample_bundle().to_bytes()` as written with manifest layout 2, which
    /// carried a (scalar) I/O engine block after `manual_clock`.
    const SAMPLE_V2_BYTES_HEX: &str = concat!(
        "894452420d0a1a0101008201020277660b7363616c653d736d616c6c0a302e31",
        "2e302d7465737410646179755f74726163652e6a736f6e6c8020000101040a64",
        "000000000000d03f00012a000000000000000000000000000000000001030000",
        "0000000000000000000107010501000101010100400180804020010870726f64",
        "75636572020000010104612e68357d9f0bd9847669b1e614046658686cd73358",
        "247798cb5707d5b385e42ed7cc39020016894454420d0a1a0401027766010080",
        "200000000000001246e28bd99404586ee2cca12f616fc95700b3e5941981d640",
        "360bb95ba05c410308736565642e62696e030102038a296141dd89771e9f0560",
        "07679fe77f3899f98ba75bfcec74c9e379b00d377604066f75742e6835640909",
        "0909090909090909090909090909090909090909090909090909090909090909",
        "0909090909090909090909090909090909090909090909090909090909090909",
        "0909090909090909090909090909090909090909090909090909090909090909",
        "09096fbeecb23e03d430fd7273aab93c774a97f38031632cfc92e71cc65e157a",
        "9c32006fbeecb23e03d430fd7273aab93c774a97f38031632cfc92e71cc65e15",
        "7a9c32",
    );

    #[test]
    fn sample_bundle_bytes_are_pinned() {
        let bytes = sample_bundle().to_bytes();
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, SAMPLE_BYTES_HEX);
    }

    #[test]
    fn layout_2_sample_still_decodes() {
        let bytes: Vec<u8> = (0..SAMPLE_V2_BYTES_HEX.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&SAMPLE_V2_BYTES_HEX[i..i + 2], 16).unwrap())
            .collect();
        let back = ReplayBundle::from_bytes(&bytes).unwrap();
        let b = sample_bundle();
        assert_eq!(back.manifest, b.manifest);
        assert_eq!(back.trace, b.trace);
        assert_eq!(back.initial_images, b.initial_images);
        assert_eq!(back.final_images, b.final_images);
    }

    /// A layout-2 manifest's engine block is checked and dropped: the
    /// scalar (0) and batched (1) modes decode to the same options, and
    /// any other mode is still malformed.
    #[test]
    fn layout_2_engine_block_is_checked_and_dropped() {
        let opts = sample_bundle().manifest.options;
        let manifest = BundleManifest::new("wf", "p", "0.1.0", &opts, Vec::new());
        let v3 = manifest.encode();
        // Layout byte first, the zero outcome count last; the engine block
        // went between `manual_clock` and the outcomes.
        assert_eq!((v3[0], v3[v3.len() - 1]), (3, 0));
        let v2 = |mode: u8| {
            let mut v2 = vec![2];
            v2.extend_from_slice(&v3[1..v3.len() - 1]);
            // mode, queue depth 64, coalesce, 1 MiB cap, readahead 32.
            v2.extend_from_slice(&[mode, 0x40, 1, 0x80, 0x80, 0x40, 0x20, 0]);
            v2
        };
        assert_eq!(BundleManifest::decode(&v2(0)).unwrap(), manifest);
        assert_eq!(BundleManifest::decode(&v2(1)).unwrap(), manifest);
        match BundleManifest::decode(&v2(2)) {
            Err(BundleError::Malformed { section, detail }) => {
                assert_eq!(section, "manifest");
                assert_eq!(detail, "unknown io engine mode 2");
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn verify_reports_every_section() {
        let bytes = sample_bundle().to_bytes();
        let report = ReplayBundle::verify_bytes(&bytes).unwrap();
        let kinds: Vec<&str> = report.sections.iter().map(|s| s.kind.as_str()).collect();
        assert_eq!(kinds, vec!["manifest", "trace", "initial", "final"]);
        assert_eq!(report.sections[2].name, "seed.bin");
        assert_eq!(report.sections[3].name, "out.h5");
        assert_eq!(report.chain.len(), 64);
    }

    #[test]
    fn truncation_yields_structured_error() {
        let bytes = sample_bundle().to_bytes();
        for cut in [0, 4, MAGIC.len(), bytes.len() / 2, bytes.len() - 1] {
            let err = ReplayBundle::verify_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, BundleError::Truncated { .. } | BundleError::BadMagic),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn bad_magic_and_version_rejected() {
        let mut bytes = sample_bundle().to_bytes();
        bytes[0] = 0x7F;
        assert!(matches!(
            ReplayBundle::verify_bytes(&bytes),
            Err(BundleError::BadMagic)
        ));
        let mut bytes = sample_bundle().to_bytes();
        bytes[7] = 0x63;
        assert!(matches!(
            ReplayBundle::verify_bytes(&bytes),
            Err(BundleError::UnsupportedVersion(0x63))
        ));
    }

    #[test]
    fn every_flipped_byte_is_detected() {
        // The tamper-detection acceptance criterion, exhaustively: flip
        // each byte of the serialized bundle and verify must fail (the
        // magic bytes fail as BadMagic/UnsupportedVersion, everything else
        // as a named hash/chain/structure error).
        let bytes = sample_bundle().to_bytes();
        for i in 0..bytes.len() {
            let mut tampered = bytes.clone();
            tampered[i] ^= 0x01;
            assert!(
                ReplayBundle::verify_bytes(&tampered).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn hash_mismatch_names_the_section() {
        let b = sample_bundle();
        let bytes = b.to_bytes();
        // Locate the final image's payload bytes (100 bytes of 0x09) and
        // corrupt one.
        let pos = bytes
            .windows(8)
            .position(|w| w == [9u8; 8])
            .expect("image payload present");
        let mut tampered = bytes.clone();
        tampered[pos] = 0x10;
        match ReplayBundle::verify_bytes(&tampered).unwrap_err() {
            BundleError::HashMismatch { section, .. } => {
                assert_eq!(section, "final:out.h5");
            }
            other => panic!("expected HashMismatch, got {other}"),
        }
    }

    #[test]
    fn minimal_manifest_round_trips() {
        let manifest =
            BundleManifest::new("plain", "", "0.0.0", &RecordOptions::default(), Vec::new());
        let b = ReplayBundle::pack(
            manifest,
            TraceBundle::new("plain"),
            BTreeMap::new(),
            &MemFs::new(),
        );
        let back = ReplayBundle::from_bytes(&b.to_bytes()).unwrap();
        assert_eq!(back.manifest.options, RecordOptions::default());
        assert!(back.initial_images.is_empty());
        assert!(back.final_images.is_empty());
    }
}
