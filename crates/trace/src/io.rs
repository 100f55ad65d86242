//! Compact binary serialization for traces and derived trace artifacts.
//!
//! Two little-endian formats share the `b"TLBP"` magic and a version
//! field:
//!
//! **Version 1** — a bare event trace:
//!
//! ```text
//! magic   : 4 bytes  = b"TLBP"
//! version : u16      = 1
//! count   : u64      number of events
//! total   : u64      total dynamic instructions
//! events  : count records
//! ```
//!
//! Each event is one tag byte followed by its payload:
//!
//! ```text
//! tag 0..=3 (branch, tag = BranchClass): pc u64, taken u8, target u64, instret u64
//! tag 255   (trap):                      pc u64, instret u64
//! ```
//!
//! **Version 2** — the artifact container behind the disk tier of the
//! simulator's trace store: the raw trace *plus* every derived form
//! (packed conditional stream, pc-interned stream, materialized
//! first-level pattern streams), so a warm cache hit restores the whole
//! derivation chain without re-running the VM or any derivation pass:
//!
//! ```text
//! magic       : 4 bytes = b"TLBP"
//! version     : u16     = 2
//! fingerprint : u64     workload-codegen fingerprint (caller-defined)
//! sections    : u32     number of sections
//! per section:
//!   kind      : u8      1 trace, 2 packed, 3 interned, 4 pattern stream
//!   len       : u64     payload byte length
//!   payload   : len bytes
//!   checksum  : u64     fx-fold of the payload (see [`checksum`])
//! ```
//!
//! Every section is independently length-prefixed and checksummed;
//! [`read_artifacts`] rejects truncation at any byte boundary, any
//! checksum mismatch, trailing bytes, and any payload whose decoded
//! parts fail the owning container's structural validation
//! ([`InternedConds::from_raw_parts`],
//! [`PatternStream::from_raw_parts`]). A reader that cannot prove a file
//! intact never yields a bundle — the disk tier falls back to
//! regeneration instead of risking wrong numbers.
//!
//! **Version 3** — the *chunked* artifact container
//! ([`write_artifacts_chunked`]): the same four section kinds, but each
//! section's items are split into fixed-budget chunks (default ~4 MiB,
//! [`CHUNK_BYTES_ENV`]) that are varint+delta encoded and independently
//! checksummed, behind a seekable per-section chunk table:
//!
//! ```text
//! magic       : 4 bytes = b"TLBP"
//! version     : u16     = 3
//! fingerprint : u64
//! sections    : u32
//! per section:
//!   kind          : u8
//!   meta_len      : u32, meta bytes   (kind-specific section metadata)
//!   chunk count   : u32
//!   chunk table   : count x (encoded_len u64, items u64, checksum u64)
//!   head checksum : u64  fx-fold of kind + meta + chunk table
//!   chunk payloads, concatenated (encoded_len bytes each)
//! ```
//!
//! Because every chunk decodes independently (delta state resets at
//! chunk boundaries) and the chunk table is read before any payload, a
//! reader can `seek` straight to chunk *k* of a section — that is what
//! [`ChunkedArtifact`] does for the simulator's streaming replay tier,
//! which holds a bounded window of decoded chunks instead of a whole
//! hydrated section. [`read_artifacts`] accepts v2 and v3 containers;
//! new files are written as v3 while existing v2 files keep reading.
//!
//! Every v3 section is self-contained, so a container is just
//! [`artifact_header`] followed by sections, each produced by
//! [`encode_section`]. [`walk_artifact`] finds each section's
//! [`SectionTag`] and byte range and verifies every checksum without
//! decoding a payload, which lets a writer that adds one section copy
//! the verified bytes of the others ([`write_artifact_atomic`]) instead
//! of decoding and re-encoding the whole file.
//!
//! A third format, the **memo artifact** (`b"TLBM"`, [`write_memo`] /
//! [`read_memo`]), stores one memoized service response — the canonical
//! plan JSON plus its pre-encoded result-frame payloads — with the same
//! per-section checksum discipline, so the sweep daemon's persistent
//! memo tier inherits the container's torn/corrupt-file guarantees.
//!
//! The module also exports the filesystem discipline those tiers share:
//! [`write_file_atomic`] (unique temp file + rename, readers never see a
//! partial file) and [`FileLock`] (advisory cross-process lock file with
//! stale-lock scavenging).
//!
//! # Example
//!
//! ```
//! use tlabp_trace::io::{read_trace, write_trace};
//! use tlabp_trace::synth::LoopNest;
//!
//! let trace = LoopNest::new(&[4, 4]).generate();
//! let bytes = write_trace(&trace);
//! let back = read_trace(&bytes)?;
//! assert_eq!(trace, back);
//! # Ok::<(), tlabp_trace::io::ReadTraceError>(())
//! ```

use std::error::Error;
use std::fmt;

use crate::intern::{InternedCond, InternedConds};
use crate::pattern_stream::PatternStream;
use crate::record::{BranchClass, BranchRecord, TrapRecord};
use crate::trace::{PackedCond, Trace, TraceEvent};

/// File magic identifying the trace format.
pub const MAGIC: &[u8; 4] = b"TLBP";
/// Version of the bare-trace format ([`write_trace`] / [`read_trace`]).
pub const VERSION: u16 = 1;
/// Version of the legacy whole-section artifact container
/// ([`write_artifacts`]).
pub const ARTIFACT_VERSION: u16 = 2;
/// Version of the chunked artifact container
/// ([`write_artifacts_chunked`] / [`ChunkedArtifact`]).
pub const ARTIFACT_VERSION_CHUNKED: u16 = 3;

/// Environment variable naming the chunk byte budget of v3 artifacts.
pub const CHUNK_BYTES_ENV: &str = "TLABP_CHUNK_BYTES";
/// Default chunk byte budget when [`CHUNK_BYTES_ENV`] is unset.
pub const DEFAULT_CHUNK_BYTES: usize = 4 << 20;
/// Smallest accepted chunk budget — below this the per-chunk table
/// overhead dominates the payload.
pub const MIN_CHUNK_BYTES: usize = 64 << 10;

/// Pattern-stream chunks hold a multiple of this many events (except
/// the final chunk), matching the replay kernels' block size so a
/// streamed walk re-chunks into exactly the block sequence the
/// in-memory walk produces.
pub const STREAM_CHUNK_ALIGN: usize = 1 << 14;

/// The chunk byte budget: [`CHUNK_BYTES_ENV`] when it holds an integer
/// of at least [`MIN_CHUNK_BYTES`], else [`DEFAULT_CHUNK_BYTES`]
/// (garbage or undersized values warn and take the default).
#[must_use]
pub fn chunk_bytes_from_env() -> usize {
    let Ok(raw) = std::env::var(CHUNK_BYTES_ENV) else { return DEFAULT_CHUNK_BYTES };
    if raw.is_empty() {
        return DEFAULT_CHUNK_BYTES;
    }
    match raw.trim().parse::<usize>() {
        Ok(bytes) if bytes >= MIN_CHUNK_BYTES => bytes,
        Ok(bytes) => {
            eprintln!(
                "warning: {CHUNK_BYTES_ENV}={bytes} is below the {MIN_CHUNK_BYTES}-byte \
                 minimum; using {MIN_CHUNK_BYTES}"
            );
            MIN_CHUNK_BYTES
        }
        Err(_) => {
            eprintln!(
                "warning: ignoring {CHUNK_BYTES_ENV}={raw:?} (expected a byte count); \
                 using {DEFAULT_CHUNK_BYTES}"
            );
            DEFAULT_CHUNK_BYTES
        }
    }
}

const TRAP_TAG: u8 = 255;

/// Section kind tags of the v2 artifact container.
mod section {
    pub const TRACE: u8 = 1;
    pub const PACKED: u8 = 2;
    pub const INTERNED: u8 = 3;
    pub const STREAM: u8 = 4;
}

/// Error produced when decoding a binary trace fails.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ReadTraceError {
    /// The buffer did not start with [`MAGIC`].
    BadMagic {
        /// The four bytes actually found (zero-padded if short).
        found: [u8; 4],
    },
    /// The header declared an unsupported version.
    UnsupportedVersion {
        /// The version found in the header.
        found: u16,
    },
    /// The buffer ended before the declared number of events was read.
    Truncated {
        /// Index of the event being decoded when input ran out.
        at_event: u64,
    },
    /// An event carried an unknown tag byte.
    UnknownTag {
        /// The offending tag.
        tag: u8,
        /// Index of the event with the bad tag.
        at_event: u64,
    },
    /// Decoded events were not monotonically ordered by `instret`.
    NonMonotonic {
        /// Index of the out-of-order event.
        at_event: u64,
    },
    /// An artifact section's stored checksum did not match its payload.
    SectionChecksum {
        /// The section's kind tag.
        kind: u8,
    },
    /// An artifact section's payload decoded but failed structural
    /// validation (e.g. an interned id outside the pc table).
    BadSection {
        /// The section's kind tag.
        kind: u8,
    },
    /// Bytes remained after the last declared artifact section.
    TrailingBytes {
        /// Number of unexpected trailing bytes.
        count: usize,
    },
    /// An I/O error while reading a seekable chunked artifact.
    Io {
        /// The failing operation's [`std::io::ErrorKind`].
        kind: std::io::ErrorKind,
    },
}

impl fmt::Display for ReadTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadTraceError::BadMagic { found } => {
                write!(f, "bad trace magic {found:?}, expected {MAGIC:?}")
            }
            ReadTraceError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported trace version {found} (bare trace is {VERSION}, \
                     artifact container is {ARTIFACT_VERSION})"
                )
            }
            ReadTraceError::Truncated { at_event } => {
                write!(f, "trace truncated while decoding event {at_event}")
            }
            ReadTraceError::UnknownTag { tag, at_event } => {
                write!(f, "unknown event tag {tag} at event {at_event}")
            }
            ReadTraceError::NonMonotonic { at_event } => {
                write!(f, "event {at_event} has instret lower than its predecessor")
            }
            ReadTraceError::SectionChecksum { kind } => {
                write!(f, "artifact section kind {kind} failed its checksum")
            }
            ReadTraceError::BadSection { kind } => {
                write!(f, "artifact section kind {kind} failed structural validation")
            }
            ReadTraceError::TrailingBytes { count } => {
                write!(f, "{count} unexpected byte(s) after the last artifact section")
            }
            ReadTraceError::Io { kind } => {
                write!(f, "i/o error while reading chunked artifact: {kind}")
            }
        }
    }
}

impl Error for ReadTraceError {}

/// Serializes a trace into the binary format.
///
/// The inverse of [`read_trace`]; the two round-trip exactly.
#[must_use]
pub fn write_trace(trace: &Trace) -> Vec<u8> {
    // Header + worst-case 26 bytes per event.
    let mut buf = Vec::with_capacity(22 + trace.len() * 26);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&(trace.len() as u64).to_le_bytes());
    buf.extend_from_slice(&trace.total_instructions().to_le_bytes());
    for event in trace.events() {
        encode_event(&mut buf, event);
    }
    buf
}

/// Appends one event in the shared v1/v2 event encoding.
fn encode_event(buf: &mut Vec<u8>, event: &TraceEvent) {
    match *event {
        TraceEvent::Branch(b) => {
            buf.push(b.class.to_tag());
            buf.extend_from_slice(&b.pc.to_le_bytes());
            buf.push(u8::from(b.taken));
            buf.extend_from_slice(&b.target.to_le_bytes());
            buf.extend_from_slice(&b.instret.to_le_bytes());
        }
        TraceEvent::Trap(t) => {
            buf.push(TRAP_TAG);
            buf.extend_from_slice(&t.pc.to_le_bytes());
            buf.extend_from_slice(&t.instret.to_le_bytes());
        }
    }
}

/// Deserializes a trace from the binary format produced by [`write_trace`].
///
/// # Errors
///
/// Returns a [`ReadTraceError`] if the magic or version do not match, the
/// buffer is truncated, an event tag is unknown, or events are not ordered
/// by instruction count.
pub fn read_trace(bytes: &[u8]) -> Result<Trace, ReadTraceError> {
    expect_magic(bytes, MAGIC)?;
    let mut cur = Cursor { bytes, pos: 4 };
    if cur.remaining() < 2 {
        return Err(ReadTraceError::Truncated { at_event: 0 });
    }
    let version = cur.get_u16_le();
    if version != VERSION {
        return Err(ReadTraceError::UnsupportedVersion { found: version });
    }
    if cur.remaining() < 16 {
        return Err(ReadTraceError::Truncated { at_event: 0 });
    }
    let count = cur.get_u64_le();
    let total = cur.get_u64_le();
    decode_events(&mut cur, count, total)
}

/// Decodes `count` events in the shared v1/v2 encoding, enforcing
/// monotonic `instret` ordering, and applies the declared total.
fn decode_events(cur: &mut Cursor<'_>, count: u64, total: u64) -> Result<Trace, ReadTraceError> {
    let capacity = usize::try_from(count).unwrap_or(usize::MAX).min(1 << 24);
    let mut trace = Trace::with_capacity(capacity);
    let mut last_instret = 0u64;
    for i in 0..count {
        if cur.remaining() < 1 {
            return Err(ReadTraceError::Truncated { at_event: i });
        }
        let tag = cur.get_u8();
        let event = if tag == TRAP_TAG {
            if cur.remaining() < 16 {
                return Err(ReadTraceError::Truncated { at_event: i });
            }
            let pc = cur.get_u64_le();
            let instret = cur.get_u64_le();
            TraceEvent::Trap(TrapRecord::new(pc, instret))
        } else {
            let class = BranchClass::from_tag(tag)
                .ok_or(ReadTraceError::UnknownTag { tag, at_event: i })?;
            if cur.remaining() < 25 {
                return Err(ReadTraceError::Truncated { at_event: i });
            }
            let pc = cur.get_u64_le();
            let taken = cur.get_u8() != 0;
            let target = cur.get_u64_le();
            let instret = cur.get_u64_le();
            TraceEvent::Branch(BranchRecord { pc, class, taken, target, instret })
        };
        if event.instret() < last_instret {
            return Err(ReadTraceError::NonMonotonic { at_event: i });
        }
        last_instret = event.instret();
        trace.push(event);
    }
    if total >= last_instret {
        trace.set_total_instructions(total);
    }
    Ok(trace)
}

/// Checks that `bytes` starts with the 4-byte file `magic`.
fn expect_magic(bytes: &[u8], magic: &[u8; 4]) -> Result<(), ReadTraceError> {
    if bytes.starts_with(magic) {
        return Ok(());
    }
    let mut found = [0u8; 4];
    let n = bytes.len().min(4);
    found[..n].copy_from_slice(&bytes[..n]);
    Err(ReadTraceError::BadMagic { found })
}

/// A checksum over `bytes`: the in-tree FxHash word fold (rotate, xor,
/// multiply by a golden-ratio constant) over 8-byte chunks, with the
/// length folded in last so zero-padding of the tail chunk cannot alias
/// a longer payload. Not cryptographic — it guards against torn writes,
/// truncation and bit rot in our own cache files, not an adversary.
#[must_use]
pub fn checksum(bytes: &[u8]) -> u64 {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    let fold = |hash: u64, word: u64| (hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    let mut hash = 0u64;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        hash = fold(hash, u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
    }
    let rest = chunks.remainder();
    if !rest.is_empty() {
        let mut word = [0u8; 8];
        word[..rest.len()].copy_from_slice(rest);
        hash = fold(hash, u64::from_le_bytes(word));
    }
    fold(hash, bytes.len() as u64)
}

/// The decoded contents of a v2 artifact container: whichever forms the
/// writer had materialized, plus the pattern streams keyed by the
/// caller's opaque stream-key encoding (the trace crate does not know
/// the simulator's first-level signatures — it stores the bytes
/// verbatim).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ArtifactBundle {
    /// The workload-codegen fingerprint the writer recorded; readers
    /// compare it against the expected value and treat a mismatch as a
    /// stale artifact.
    pub fingerprint: u64,
    /// The raw event trace, if serialized.
    pub trace: Option<Trace>,
    /// The packed conditional-branch stream, if serialized.
    pub packed: Option<Vec<PackedCond>>,
    /// The pc-interned conditional stream, if serialized.
    pub interned: Option<InternedConds>,
    /// Materialized first-level pattern streams, each tagged with its
    /// opaque key bytes, in serialization order.
    pub streams: Vec<(Vec<u8>, PatternStream)>,
}

/// Serializes an artifact container: every form the caller hands in, in
/// a fixed section order (trace, packed, interned, streams), each
/// length-prefixed and checksummed.
///
/// The inverse of [`read_artifacts`]; the two round-trip exactly.
#[must_use]
pub fn write_artifacts(
    fingerprint: u64,
    trace: Option<&Trace>,
    packed: Option<&[PackedCond]>,
    interned: Option<&InternedConds>,
    streams: &[(Vec<u8>, &PatternStream)],
) -> Vec<u8> {
    let sections = usize::from(trace.is_some())
        + usize::from(packed.is_some())
        + usize::from(interned.is_some())
        + streams.len();
    let mut buf = Vec::new();
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&ARTIFACT_VERSION.to_le_bytes());
    buf.extend_from_slice(&fingerprint.to_le_bytes());
    buf.extend_from_slice(&u32::try_from(sections).expect("section count fits u32").to_le_bytes());

    if let Some(trace) = trace {
        let mut payload = Vec::with_capacity(16 + trace.len() * 26);
        payload.extend_from_slice(&(trace.len() as u64).to_le_bytes());
        payload.extend_from_slice(&trace.total_instructions().to_le_bytes());
        for event in trace.events() {
            encode_event(&mut payload, event);
        }
        push_section(&mut buf, section::TRACE, &payload);
    }
    if let Some(packed) = packed {
        let mut payload = Vec::with_capacity(8 + packed.len() * 8);
        payload.extend_from_slice(&(packed.len() as u64).to_le_bytes());
        for cond in packed {
            payload.extend_from_slice(&cond.bits().to_le_bytes());
        }
        push_section(&mut buf, section::PACKED, &payload);
    }
    if let Some(interned) = interned {
        let mut payload = Vec::with_capacity(16 + interned.len() * 4 + interned.pcs().len() * 8);
        payload.extend_from_slice(&(interned.len() as u64).to_le_bytes());
        payload.extend_from_slice(&(interned.pcs().len() as u64).to_le_bytes());
        for event in interned.events() {
            payload.extend_from_slice(&event.bits().to_le_bytes());
        }
        for pc in interned.pcs() {
            payload.extend_from_slice(&pc.to_le_bytes());
        }
        push_section(&mut buf, section::INTERNED, &payload);
    }
    for (key, stream) in streams {
        let lanes = stream.lanes();
        let mut payload =
            Vec::with_capacity(2 + key.len() + 13 + stream.len() * 4 + lanes.len() * 4);
        payload.extend_from_slice(&u16::try_from(key.len()).expect("key fits u16").to_le_bytes());
        payload.extend_from_slice(key);
        payload.extend_from_slice(&stream.history_bits().to_le_bytes());
        payload.push(u8::from(stream.is_laned()));
        payload.extend_from_slice(&(stream.len() as u64).to_le_bytes());
        for &event in stream.events() {
            payload.extend_from_slice(&event.to_le_bytes());
        }
        for &lane in lanes {
            payload.extend_from_slice(&lane.to_le_bytes());
        }
        push_section(&mut buf, section::STREAM, &payload);
    }
    buf
}

fn push_section(buf: &mut Vec<u8>, kind: u8, payload: &[u8]) {
    buf.push(kind);
    buf.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    buf.extend_from_slice(payload);
    buf.extend_from_slice(&checksum(payload).to_le_bytes());
}

/// Deserializes an artifact container — the legacy whole-section v2
/// format ([`write_artifacts`]) or the chunked v3 format
/// ([`write_artifacts_chunked`]), dispatched on the header version.
///
/// # Errors
///
/// Returns a [`ReadTraceError`] if the magic or version do not match,
/// the buffer is truncated at any byte boundary, bytes trail the last
/// section, any section or chunk checksum mismatches, or any payload
/// fails the structural validation of its form. An `Err` means the file
/// proves nothing — callers fall back to regeneration.
pub fn read_artifacts(bytes: &[u8]) -> Result<ArtifactBundle, ReadTraceError> {
    expect_magic(bytes, MAGIC)?;
    let mut cur = Cursor { bytes, pos: 4 };
    if cur.remaining() < 2 {
        return Err(ReadTraceError::Truncated { at_event: 0 });
    }
    let version = cur.get_u16_le();
    if version == ARTIFACT_VERSION_CHUNKED {
        return read_artifacts_chunked(&mut cur);
    }
    if version != ARTIFACT_VERSION {
        return Err(ReadTraceError::UnsupportedVersion { found: version });
    }
    if cur.remaining() < 12 {
        return Err(ReadTraceError::Truncated { at_event: 0 });
    }
    let mut bundle = ArtifactBundle { fingerprint: cur.get_u64_le(), ..ArtifactBundle::default() };
    let sections = cur.get_u32_le();
    for _ in 0..sections {
        if cur.remaining() < 9 {
            return Err(ReadTraceError::Truncated { at_event: 0 });
        }
        let kind = cur.get_u8();
        let len = cur.get_u64_le();
        let Ok(len) = usize::try_from(len) else {
            return Err(ReadTraceError::Truncated { at_event: 0 });
        };
        if cur.remaining() < len + 8 {
            return Err(ReadTraceError::Truncated { at_event: 0 });
        }
        let payload = &bytes[cur.pos..cur.pos + len];
        cur.pos += len;
        let stored = cur.get_u64_le();
        if checksum(payload) != stored {
            return Err(ReadTraceError::SectionChecksum { kind });
        }
        decode_section(&mut bundle, kind, payload)?;
    }
    if cur.remaining() > 0 {
        return Err(ReadTraceError::TrailingBytes { count: cur.remaining() });
    }
    Ok(bundle)
}

/// Decodes one checksum-verified section payload into the bundle.
fn decode_section(
    bundle: &mut ArtifactBundle,
    kind: u8,
    payload: &[u8],
) -> Result<(), ReadTraceError> {
    let bad = ReadTraceError::BadSection { kind };
    let mut cur = Cursor { bytes: payload, pos: 0 };
    match kind {
        section::TRACE => {
            if cur.remaining() < 16 {
                return Err(bad);
            }
            let count = cur.get_u64_le();
            let total = cur.get_u64_le();
            let trace = decode_events(&mut cur, count, total)
                .map_err(|_| ReadTraceError::BadSection { kind })?;
            if cur.remaining() != 0 {
                return Err(bad);
            }
            bundle.trace = Some(trace);
        }
        section::PACKED => {
            if cur.remaining() < 8 {
                return Err(bad);
            }
            let count = cur.get_u64_le();
            if cur.remaining() as u64 != count.saturating_mul(8) {
                return Err(bad);
            }
            let packed =
                (0..count).map(|_| PackedCond::from_bits(cur.get_u64_le())).collect::<Vec<_>>();
            bundle.packed = Some(packed);
        }
        section::INTERNED => {
            if cur.remaining() < 16 {
                return Err(bad);
            }
            let events = cur.get_u64_le();
            let pcs = cur.get_u64_le();
            if cur.remaining() as u64 != events.saturating_mul(4) + pcs.saturating_mul(8) {
                return Err(bad);
            }
            let events: Vec<InternedCond> =
                (0..events).map(|_| InternedCond::from_bits(cur.get_u32_le())).collect();
            let pcs: Vec<u64> = (0..pcs).map(|_| cur.get_u64_le()).collect();
            bundle.interned = Some(InternedConds::from_raw_parts(events, pcs).ok_or(bad)?);
        }
        section::STREAM => {
            if cur.remaining() < 2 {
                return Err(bad);
            }
            let key_len = usize::from(cur.get_u16_le());
            if cur.remaining() < key_len {
                return Err(bad);
            }
            let key = payload[cur.pos..cur.pos + key_len].to_vec();
            cur.pos += key_len;
            if cur.remaining() < 13 {
                return Err(bad);
            }
            let history_bits = cur.get_u32_le();
            let laned = match cur.get_u8() {
                0 => false,
                1 => true,
                _ => return Err(bad),
            };
            let count = cur.get_u64_le();
            let lanes_len = if laned { count } else { 0 };
            if cur.remaining() as u64 != (count + lanes_len).saturating_mul(4) {
                return Err(bad);
            }
            let events: Vec<u32> = (0..count).map(|_| cur.get_u32_le()).collect();
            let lanes: Vec<u32> = (0..lanes_len).map(|_| cur.get_u32_le()).collect();
            let stream =
                PatternStream::from_raw_parts(history_bits, events, lanes, laned).ok_or(bad)?;
            bundle.streams.push((key, stream));
        }
        _ => return Err(bad),
    }
    Ok(())
}

/// A minimal little-endian read cursor over a byte slice (replaces the
/// external `bytes` crate so the build has no registry dependencies).
pub(crate) struct Cursor<'a> {
    pub(crate) bytes: &'a [u8],
    pub(crate) pos: usize,
}

impl Cursor<'_> {
    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    pub(crate) fn get_u8(&mut self) -> u8 {
        let v = self.bytes[self.pos];
        self.pos += 1;
        v
    }

    pub(crate) fn get_u16_le(&mut self) -> u16 {
        let v = u16::from_le_bytes(self.bytes[self.pos..self.pos + 2].try_into().unwrap());
        self.pos += 2;
        v
    }

    pub(crate) fn get_u32_le(&mut self) -> u32 {
        let v = u32::from_le_bytes(self.bytes[self.pos..self.pos + 4].try_into().unwrap());
        self.pos += 4;
        v
    }

    pub(crate) fn get_u64_le(&mut self) -> u64 {
        let v = u64::from_le_bytes(self.bytes[self.pos..self.pos + 8].try_into().unwrap());
        self.pos += 8;
        v
    }
}

// ---------------------------------------------------------------------------
// Version 3: the chunked artifact container.
// ---------------------------------------------------------------------------

/// Appends `v` as an LEB128 varint (7 payload bits per byte, high bit =
/// continuation).
pub(crate) fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Reads one LEB128 varint; `None` on truncation or an encoding longer
/// than 10 bytes (a u64 never needs more).
pub(crate) fn get_varint(cur: &mut Cursor<'_>) -> Option<u64> {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        if cur.remaining() == 0 {
            return None;
        }
        let byte = cur.get_u8();
        if shift == 63 && byte > 1 {
            return None;
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
    }
    None
}

/// Zigzag-maps a signed delta onto an unsigned varint-friendly value
/// (small magnitudes of either sign encode short).
pub(crate) fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

pub(crate) fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Items per chunk for a section kind under `chunk_bytes`, computed from
/// the *unencoded* item width so the budget bounds decoded (resident)
/// bytes, which is what the streaming tier's window cap is about.
/// Pattern-stream chunks round down to a [`STREAM_CHUNK_ALIGN`] multiple
/// so streamed replay walks the same block sequence as in-memory replay.
fn items_per_chunk(kind: u8, laned: bool, chunk_bytes: usize) -> usize {
    match kind {
        section::TRACE => (chunk_bytes / 26).max(1),
        section::PACKED => (chunk_bytes / 8).max(1),
        section::INTERNED => (chunk_bytes / 4).max(1),
        section::STREAM => {
            let per_event = if laned { 8 } else { 4 };
            ((chunk_bytes / per_event) / STREAM_CHUNK_ALIGN).max(1) * STREAM_CHUNK_ALIGN
        }
        _ => unreachable!("unknown section kind {kind}"),
    }
}

/// Appends one chunked section: kind, metadata, the chunk table
/// (encoded length, item count and checksum per chunk), a head checksum
/// over everything so far, then the chunk payloads.
fn push_chunked_section(buf: &mut Vec<u8>, kind: u8, meta: &[u8], chunks: &[(u64, Vec<u8>)]) {
    let mut head = Vec::with_capacity(1 + 4 + meta.len() + 4 + chunks.len() * 24);
    head.push(kind);
    head.extend_from_slice(&u32::try_from(meta.len()).expect("meta fits u32").to_le_bytes());
    head.extend_from_slice(meta);
    head.extend_from_slice(&u32::try_from(chunks.len()).expect("chunks fit u32").to_le_bytes());
    for (items, payload) in chunks {
        head.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        head.extend_from_slice(&items.to_le_bytes());
        head.extend_from_slice(&checksum(payload).to_le_bytes());
    }
    buf.extend_from_slice(&head);
    buf.extend_from_slice(&checksum(&head).to_le_bytes());
    for (_, payload) in chunks {
        buf.extend_from_slice(payload);
    }
}

/// Splits `len` items into chunk ranges of at most `per_chunk` items.
/// Zero items still produce one empty chunk, so every section has a
/// well-formed table.
fn chunk_ranges(len: usize, per_chunk: usize) -> Vec<std::ops::Range<usize>> {
    if len == 0 {
        return vec![std::ops::Range { start: 0, end: 0 }];
    }
    (0..len).step_by(per_chunk).map(|start| start..(start + per_chunk).min(len)).collect()
}

fn encode_trace_chunk(events: &[TraceEvent]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(events.len() * 6);
    let (mut prev_pc, mut prev_instret) = (0u64, 0u64);
    for event in events {
        match *event {
            TraceEvent::Branch(b) => {
                buf.push(b.class.to_tag() | if b.taken { 0x10 } else { 0 });
                put_varint(&mut buf, zigzag(b.pc.wrapping_sub(prev_pc) as i64));
                put_varint(&mut buf, zigzag(b.target.wrapping_sub(b.pc) as i64));
                put_varint(&mut buf, b.instret.wrapping_sub(prev_instret));
                (prev_pc, prev_instret) = (b.pc, b.instret);
            }
            TraceEvent::Trap(t) => {
                buf.push(TRAP_TAG);
                put_varint(&mut buf, zigzag(t.pc.wrapping_sub(prev_pc) as i64));
                put_varint(&mut buf, t.instret.wrapping_sub(prev_instret));
                (prev_pc, prev_instret) = (t.pc, t.instret);
            }
        }
    }
    buf
}

/// Decodes one trace chunk into `trace`, carrying the cross-chunk
/// monotonic-`instret` check in `last_instret`. Delta state resets per
/// chunk (that is what makes chunks independently decodable); `instret`
/// deltas are unsigned so order within a chunk holds by construction.
fn decode_trace_chunk(
    payload: &[u8],
    items: u64,
    trace: &mut Trace,
    last_instret: &mut u64,
) -> Option<()> {
    let mut cur = Cursor { bytes: payload, pos: 0 };
    let (mut prev_pc, mut prev_instret) = (0u64, 0u64);
    for _ in 0..items {
        if cur.remaining() == 0 {
            return None;
        }
        let tag = cur.get_u8();
        let event = if tag == TRAP_TAG {
            let pc = prev_pc.wrapping_add(unzigzag(get_varint(&mut cur)?) as u64);
            let instret = prev_instret.checked_add(get_varint(&mut cur)?)?;
            (prev_pc, prev_instret) = (pc, instret);
            TraceEvent::Trap(TrapRecord::new(pc, instret))
        } else {
            let class = BranchClass::from_tag(tag & 0x0f)?;
            if tag & !0x1f != 0 {
                return None;
            }
            let taken = tag & 0x10 != 0;
            let pc = prev_pc.wrapping_add(unzigzag(get_varint(&mut cur)?) as u64);
            let target = pc.wrapping_add(unzigzag(get_varint(&mut cur)?) as u64);
            let instret = prev_instret.checked_add(get_varint(&mut cur)?)?;
            (prev_pc, prev_instret) = (pc, instret);
            TraceEvent::Branch(BranchRecord { pc, class, taken, target, instret })
        };
        if event.instret() < *last_instret {
            return None;
        }
        *last_instret = event.instret();
        trace.push(event);
    }
    (cur.remaining() == 0).then_some(())
}

fn encode_packed_chunk(conds: &[PackedCond]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(conds.len() * 3);
    let mut prev = 0u64;
    for cond in conds {
        let bits = cond.bits();
        put_varint(&mut buf, zigzag(bits.wrapping_sub(prev) as i64));
        prev = bits;
    }
    buf
}

fn decode_packed_chunk(payload: &[u8], items: u64, out: &mut Vec<PackedCond>) -> Option<()> {
    let mut cur = Cursor { bytes: payload, pos: 0 };
    let mut prev = 0u64;
    for _ in 0..items {
        prev = prev.wrapping_add(unzigzag(get_varint(&mut cur)?) as u64);
        out.push(PackedCond::from_bits(prev));
    }
    (cur.remaining() == 0).then_some(())
}

fn encode_interned_chunk(events: &[InternedCond]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(events.len() * 2);
    let mut prev = 0u32;
    for event in events {
        let bits = event.bits();
        put_varint(&mut buf, zigzag(i64::from(bits.wrapping_sub(prev) as i32)));
        prev = bits;
    }
    buf
}

fn decode_interned_chunk(payload: &[u8], items: u64, out: &mut Vec<InternedCond>) -> Option<()> {
    let mut cur = Cursor { bytes: payload, pos: 0 };
    let mut prev = 0u32;
    for _ in 0..items {
        let delta = i32::try_from(unzigzag(get_varint(&mut cur)?)).ok()?;
        prev = prev.wrapping_add(delta as u32);
        out.push(InternedCond::from_bits(prev));
    }
    (cur.remaining() == 0).then_some(())
}

/// Encodes one pattern-stream chunk: `items` event varints, then (for
/// laned streams) the matching `items` lane varints.
fn encode_stream_chunk(events: &[u32], lanes: &[u32]) -> Vec<u8> {
    let mut buf = Vec::with_capacity((events.len() + lanes.len()) * 3);
    for &event in events {
        put_varint(&mut buf, u64::from(event));
    }
    for &lane in lanes {
        put_varint(&mut buf, u64::from(lane));
    }
    buf
}

/// Decodes one pattern-stream chunk produced by [`encode_stream_chunk`].
fn decode_stream_chunk(
    payload: &[u8],
    items: u64,
    laned: bool,
    events: &mut Vec<u32>,
    lanes: &mut Vec<u32>,
) -> Option<()> {
    let mut cur = Cursor { bytes: payload, pos: 0 };
    for _ in 0..items {
        events.push(u32::try_from(get_varint(&mut cur)?).ok()?);
    }
    if laned {
        for _ in 0..items {
            lanes.push(u32::try_from(get_varint(&mut cur)?).ok()?);
        }
    }
    (cur.remaining() == 0).then_some(())
}

/// Section metadata encodings (the per-section `meta` bytes of the v3
/// layout). Small and read whole; the chunk payloads carry the bulk.
mod meta {
    use super::{get_varint, put_varint, unzigzag, zigzag, Cursor};

    pub(super) fn trace(count: u64, total: u64) -> Vec<u8> {
        let mut buf = Vec::with_capacity(16);
        buf.extend_from_slice(&count.to_le_bytes());
        buf.extend_from_slice(&total.to_le_bytes());
        buf
    }

    pub(super) fn parse_trace(meta: &[u8]) -> Option<(u64, u64)> {
        (meta.len() == 16).then(|| {
            let mut cur = Cursor { bytes: meta, pos: 0 };
            (cur.get_u64_le(), cur.get_u64_le())
        })
    }

    pub(super) fn packed(count: u64) -> Vec<u8> {
        count.to_le_bytes().to_vec()
    }

    pub(super) fn parse_packed(meta: &[u8]) -> Option<u64> {
        (meta.len() == 8).then(|| u64::from_le_bytes(meta.try_into().expect("8 bytes")))
    }

    /// Interned metadata: event count plus the whole id→pc table
    /// (varint+delta — the table is per *static* branch, so it stays
    /// small however long the trace runs).
    pub(super) fn interned(count: u64, pcs: &[u64]) -> Vec<u8> {
        let mut buf = Vec::with_capacity(16 + pcs.len() * 3);
        buf.extend_from_slice(&count.to_le_bytes());
        buf.extend_from_slice(&(pcs.len() as u64).to_le_bytes());
        let mut prev = 0u64;
        for &pc in pcs {
            put_varint(&mut buf, zigzag(pc.wrapping_sub(prev) as i64));
            prev = pc;
        }
        buf
    }

    pub(super) fn parse_interned(meta: &[u8]) -> Option<(u64, Vec<u64>)> {
        if meta.len() < 16 {
            return None;
        }
        let mut cur = Cursor { bytes: meta, pos: 0 };
        let count = cur.get_u64_le();
        let npcs = usize::try_from(cur.get_u64_le()).ok()?;
        if npcs > cur.remaining() * 10 {
            return None;
        }
        let mut pcs = Vec::with_capacity(npcs);
        let mut prev = 0u64;
        for _ in 0..npcs {
            prev = prev.wrapping_add(unzigzag(get_varint(&mut cur)?) as u64);
            pcs.push(prev);
        }
        (cur.remaining() == 0).then_some((count, pcs))
    }

    pub(super) fn stream(key: &[u8], history_bits: u32, laned: bool, count: u64) -> Vec<u8> {
        let mut buf = Vec::with_capacity(2 + key.len() + 13);
        buf.extend_from_slice(&u16::try_from(key.len()).expect("key fits u16").to_le_bytes());
        buf.extend_from_slice(key);
        buf.extend_from_slice(&history_bits.to_le_bytes());
        buf.push(u8::from(laned));
        buf.extend_from_slice(&count.to_le_bytes());
        buf
    }

    pub(super) fn parse_stream(meta: &[u8]) -> Option<(Vec<u8>, u32, bool, u64)> {
        let mut cur = Cursor { bytes: meta, pos: 0 };
        if cur.remaining() < 2 {
            return None;
        }
        let key_len = usize::from(cur.get_u16_le());
        if cur.remaining() != key_len + 13 {
            return None;
        }
        let key = meta[cur.pos..cur.pos + key_len].to_vec();
        cur.pos += key_len;
        let history_bits = cur.get_u32_le();
        let laned = match cur.get_u8() {
            0 => false,
            1 => true,
            _ => return None,
        };
        let count = cur.get_u64_le();
        Some((key, history_bits, laned, count))
    }
}

/// One form to encode as a v3 section ([`encode_section`]): the four
/// section kinds of the artifact container, borrowed from the caller.
#[derive(Debug, Clone, Copy)]
pub enum ArtifactForm<'a> {
    /// The raw event trace.
    Trace(&'a Trace),
    /// The packed conditional-branch stream.
    Packed(&'a [PackedCond]),
    /// The pc-interned conditional stream.
    Interned(&'a InternedConds),
    /// A first-level pattern stream under its opaque key bytes.
    Stream(&'a [u8], &'a PatternStream),
}

impl ArtifactForm<'_> {
    /// The tag [`walk_artifact`] reports for this form's section.
    #[must_use]
    pub fn tag(&self) -> SectionTag {
        match self {
            ArtifactForm::Trace(_) => SectionTag::Trace,
            ArtifactForm::Packed(_) => SectionTag::Packed,
            ArtifactForm::Interned(_) => SectionTag::Interned,
            ArtifactForm::Stream(key, _) => SectionTag::Stream(key.to_vec()),
        }
    }
}

/// Identity of one v3 section. The derived order is the container's
/// section order — trace, packed, interned, then streams sorted by key
/// bytes — so a sorted set of sections assembles into exactly the bytes
/// [`write_artifacts_chunked`] writes for the same forms.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SectionTag {
    /// The raw event trace.
    Trace,
    /// The packed conditional-branch stream.
    Packed,
    /// The pc-interned conditional stream.
    Interned,
    /// A pattern stream, tagged by its opaque key bytes.
    Stream(Vec<u8>),
}

impl SectionTag {
    /// The tag of a section with this kind and metadata; `None` for an
    /// unknown kind or unparseable stream metadata.
    fn of(kind: u8, meta: &[u8]) -> Option<SectionTag> {
        match kind {
            section::TRACE => Some(SectionTag::Trace),
            section::PACKED => Some(SectionTag::Packed),
            section::INTERNED => Some(SectionTag::Interned),
            section::STREAM => meta::parse_stream(meta).map(|(key, ..)| SectionTag::Stream(key)),
            _ => None,
        }
    }
}

/// The 18-byte v3 container header: magic, version, fingerprint and
/// section count. A header followed by that many [`encode_section`]
/// outputs is a complete container.
#[must_use]
pub fn artifact_header(fingerprint: u64, sections: usize) -> [u8; 18] {
    let mut header = [0u8; 18];
    header[..4].copy_from_slice(MAGIC);
    header[4..6].copy_from_slice(&ARTIFACT_VERSION_CHUNKED.to_le_bytes());
    header[6..14].copy_from_slice(&fingerprint.to_le_bytes());
    header[14..]
        .copy_from_slice(&u32::try_from(sections).expect("section count fits u32").to_le_bytes());
    header
}

/// Encodes one self-contained v3 section (head, chunk table, head
/// checksum, chunk payloads) for `form` under a `chunk_bytes` budget.
#[must_use]
pub fn encode_section(form: ArtifactForm<'_>, chunk_bytes: usize) -> Vec<u8> {
    let mut buf = Vec::new();
    push_form_section(&mut buf, form, chunk_bytes);
    buf
}

/// Appends the v3 section for `form` — the per-kind encoder behind
/// [`encode_section`] and [`write_artifacts_chunked`].
fn push_form_section(buf: &mut Vec<u8>, form: ArtifactForm<'_>, chunk_bytes: usize) {
    let chunk_bytes = chunk_bytes.max(1);
    match form {
        ArtifactForm::Trace(trace) => {
            let per = items_per_chunk(section::TRACE, false, chunk_bytes);
            let chunks: Vec<(u64, Vec<u8>)> = chunk_ranges(trace.len(), per)
                .into_iter()
                .map(|r| (r.len() as u64, encode_trace_chunk(&trace.events()[r])))
                .collect();
            let meta = meta::trace(trace.len() as u64, trace.total_instructions());
            push_chunked_section(buf, section::TRACE, &meta, &chunks);
        }
        ArtifactForm::Packed(packed) => {
            let per = items_per_chunk(section::PACKED, false, chunk_bytes);
            let chunks: Vec<(u64, Vec<u8>)> = chunk_ranges(packed.len(), per)
                .into_iter()
                .map(|r| (r.len() as u64, encode_packed_chunk(&packed[r])))
                .collect();
            push_chunked_section(buf, section::PACKED, &meta::packed(packed.len() as u64), &chunks);
        }
        ArtifactForm::Interned(interned) => {
            let per = items_per_chunk(section::INTERNED, false, chunk_bytes);
            let chunks: Vec<(u64, Vec<u8>)> = chunk_ranges(interned.len(), per)
                .into_iter()
                .map(|r| (r.len() as u64, encode_interned_chunk(&interned.events()[r])))
                .collect();
            let meta = meta::interned(interned.len() as u64, interned.pcs());
            push_chunked_section(buf, section::INTERNED, &meta, &chunks);
        }
        ArtifactForm::Stream(key, stream) => {
            let per = items_per_chunk(section::STREAM, stream.is_laned(), chunk_bytes);
            let chunks: Vec<(u64, Vec<u8>)> = chunk_ranges(stream.len(), per)
                .into_iter()
                .map(|r| {
                    let lanes = if stream.is_laned() {
                        &stream.lanes()[r.clone()]
                    } else {
                        &[] as &[u32]
                    };
                    (r.len() as u64, encode_stream_chunk(&stream.events()[r], lanes))
                })
                .collect();
            let meta =
                meta::stream(key, stream.history_bits(), stream.is_laned(), stream.len() as u64);
            push_chunked_section(buf, section::STREAM, &meta, &chunks);
        }
    }
}

/// Serializes a v3 chunked artifact container: the same forms as
/// [`write_artifacts`], with each section split into `chunk_bytes`-budget
/// varint+delta chunks behind a seekable, checksummed chunk table.
///
/// The inverse of [`read_artifacts`] (which dispatches on the header
/// version); [`ChunkedArtifact`] reads the same bytes seekably. Equal to
/// [`artifact_header`] followed by one [`encode_section`] per form.
#[must_use]
pub fn write_artifacts_chunked(
    fingerprint: u64,
    trace: Option<&Trace>,
    packed: Option<&[PackedCond]>,
    interned: Option<&InternedConds>,
    streams: &[(Vec<u8>, &PatternStream)],
    chunk_bytes: usize,
) -> Vec<u8> {
    let forms: Vec<ArtifactForm<'_>> = trace
        .map(ArtifactForm::Trace)
        .into_iter()
        .chain(packed.map(ArtifactForm::Packed))
        .chain(interned.map(ArtifactForm::Interned))
        .chain(streams.iter().map(|(key, stream)| ArtifactForm::Stream(key, stream)))
        .collect();
    let mut buf = artifact_header(fingerprint, forms.len()).to_vec();
    for form in forms {
        push_form_section(&mut buf, form, chunk_bytes);
    }
    buf
}

/// One v3 section head: kind, metadata and chunk table
/// `(encoded_len, items, checksum)`, its head checksum verified.
struct SectionHead<'a> {
    kind: u8,
    meta: &'a [u8],
    table: Vec<(u64, u64, u64)>,
}

/// Reads and verifies one section head at the cursor, leaving it at the
/// first chunk payload.
fn read_section_head<'a>(cur: &mut Cursor<'a>) -> Result<SectionHead<'a>, ReadTraceError> {
    let truncated = ReadTraceError::Truncated { at_event: 0 };
    let head_start = cur.pos;
    if cur.remaining() < 5 {
        return Err(truncated);
    }
    let kind = cur.get_u8();
    let meta_len = usize::try_from(cur.get_u32_le()).map_err(|_| truncated.clone())?;
    if cur.remaining() < meta_len.saturating_add(4) {
        return Err(truncated);
    }
    let meta = &cur.bytes[cur.pos..cur.pos + meta_len];
    cur.pos += meta_len;
    let nchunks = usize::try_from(cur.get_u32_le()).map_err(|_| truncated.clone())?;
    let table_bytes = nchunks.checked_mul(24).ok_or_else(|| truncated.clone())?;
    if cur.remaining() < table_bytes.saturating_add(8) {
        return Err(truncated);
    }
    let table: Vec<(u64, u64, u64)> =
        (0..nchunks).map(|_| (cur.get_u64_le(), cur.get_u64_le(), cur.get_u64_le())).collect();
    let stored_head = cur.get_u64_le();
    if checksum(&cur.bytes[head_start..cur.pos - 8]) != stored_head {
        return Err(ReadTraceError::SectionChecksum { kind });
    }
    Ok(SectionHead { kind, meta, table })
}

/// Takes the next `encoded` payload bytes off the cursor and verifies
/// them against the chunk table's stored checksum.
fn take_chunk<'a>(
    cur: &mut Cursor<'a>,
    kind: u8,
    encoded: u64,
    stored: u64,
) -> Result<&'a [u8], ReadTraceError> {
    let truncated = ReadTraceError::Truncated { at_event: 0 };
    let encoded = usize::try_from(encoded).map_err(|_| truncated.clone())?;
    if cur.remaining() < encoded {
        return Err(truncated);
    }
    let payload = &cur.bytes[cur.pos..cur.pos + encoded];
    cur.pos += encoded;
    if checksum(payload) != stored {
        return Err(ReadTraceError::SectionChecksum { kind });
    }
    Ok(payload)
}

/// Decodes the body of a v3 container (cursor positioned after magic +
/// version) into a whole [`ArtifactBundle`], verifying every head and
/// chunk checksum and every structural invariant.
fn read_artifacts_chunked(cur: &mut Cursor<'_>) -> Result<ArtifactBundle, ReadTraceError> {
    if cur.remaining() < 12 {
        return Err(ReadTraceError::Truncated { at_event: 0 });
    }
    let mut bundle = ArtifactBundle { fingerprint: cur.get_u64_le(), ..ArtifactBundle::default() };
    let sections = cur.get_u32_le();
    for _ in 0..sections {
        decode_chunked_section(cur, &mut bundle)?;
    }
    if cur.remaining() > 0 {
        return Err(ReadTraceError::TrailingBytes { count: cur.remaining() });
    }
    Ok(bundle)
}

/// Decodes the one v3 section at the cursor into `bundle`.
fn decode_chunked_section(
    cur: &mut Cursor<'_>,
    bundle: &mut ArtifactBundle,
) -> Result<(), ReadTraceError> {
    let head = read_section_head(cur)?;
    let bad = ReadTraceError::BadSection { kind: head.kind };
    let mut decoder = SectionDecoder::new(head.kind, head.meta).ok_or(bad.clone())?;
    for &(encoded, items, stored) in &head.table {
        let payload = take_chunk(cur, head.kind, encoded, stored)?;
        decoder.decode_chunk(payload, items).ok_or(bad.clone())?;
    }
    decoder.finish(bundle).ok_or(bad)
}

/// Fully decodes one v3 section — exactly the bytes of one
/// [`encode_section`] output, e.g. a range [`walk_artifact`] reported —
/// and discards the result: the structural check a section gets before
/// it is carried into a new container by a writer that does not hold
/// its form in memory.
///
/// # Errors
///
/// Any checksum, truncation or structural failure [`read_artifacts`]
/// would report for the section, or [`ReadTraceError::TrailingBytes`]
/// when `bytes` runs past its end.
pub fn validate_section(bytes: &[u8]) -> Result<(), ReadTraceError> {
    let mut cur = Cursor { bytes, pos: 0 };
    decode_chunked_section(&mut cur, &mut ArtifactBundle::default())?;
    match cur.remaining() {
        0 => Ok(()),
        count => Err(ReadTraceError::TrailingBytes { count }),
    }
}

/// The verified sections of a v3 container, as found by
/// [`walk_artifact`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArtifactLayout {
    /// The workload fingerprint stamped into the header.
    pub fingerprint: u64,
    /// Every section whose head checksum and chunk checksums all
    /// verified, in file order, with its byte range in the container.
    pub sections: Vec<(SectionTag, std::ops::Range<usize>)>,
}

/// Walks a v3 container section by section, verifying each head
/// checksum and each chunk checksum, and decodes no payload.
///
/// A section whose chunks fail their checksums, or whose kind or stream
/// metadata is unknown, is left out of the layout and the walk moves on
/// (the verified head still gives its length). A failed head checksum or
/// a truncation ends the walk: what follows cannot be located, so the
/// layout holds the verified sections before it. Bytes past the last
/// declared section are ignored.
///
/// # Errors
///
/// Returns a [`ReadTraceError`] when the header itself is unreadable:
/// bad magic, a version other than [`ARTIFACT_VERSION_CHUNKED`], or a
/// truncated header.
pub fn walk_artifact(bytes: &[u8]) -> Result<ArtifactLayout, ReadTraceError> {
    expect_magic(bytes, MAGIC)?;
    let mut cur = Cursor { bytes, pos: 4 };
    if cur.remaining() < 14 {
        return Err(ReadTraceError::Truncated { at_event: 0 });
    }
    let version = cur.get_u16_le();
    if version != ARTIFACT_VERSION_CHUNKED {
        return Err(ReadTraceError::UnsupportedVersion { found: version });
    }
    let mut layout = ArtifactLayout { fingerprint: cur.get_u64_le(), sections: Vec::new() };
    let sections = cur.get_u32_le();
    for _ in 0..sections {
        let start = cur.pos;
        let Ok(head) = read_section_head(&mut cur) else { break };
        let mut intact = true;
        for &(encoded, _, stored) in &head.table {
            match take_chunk(&mut cur, head.kind, encoded, stored) {
                Ok(_) => {}
                Err(ReadTraceError::SectionChecksum { .. }) => intact = false,
                Err(_) => return Ok(layout),
            }
        }
        if let Some(tag) = SectionTag::of(head.kind, head.meta).filter(|_| intact) {
            layout.sections.push((tag, start..cur.pos));
        }
    }
    Ok(layout)
}

/// Incremental decoder for one v3 section: chunks stream through
/// [`SectionDecoder::decode_chunk`] and [`SectionDecoder::finish`]
/// applies the declared-count and structural validations.
enum SectionDecoder {
    Trace {
        declared: u64,
        total: u64,
        trace: Trace,
        last_instret: u64,
    },
    Packed {
        declared: u64,
        out: Vec<PackedCond>,
    },
    Interned {
        declared: u64,
        pcs: Vec<u64>,
        out: Vec<InternedCond>,
    },
    Stream {
        key: Vec<u8>,
        history_bits: u32,
        laned: bool,
        declared: u64,
        events: Vec<u32>,
        lanes: Vec<u32>,
    },
}

impl SectionDecoder {
    fn new(kind: u8, meta: &[u8]) -> Option<SectionDecoder> {
        match kind {
            section::TRACE => {
                let (declared, total) = meta::parse_trace(meta)?;
                let capacity = usize::try_from(declared).unwrap_or(usize::MAX).min(1 << 24);
                Some(SectionDecoder::Trace {
                    declared,
                    total,
                    trace: Trace::with_capacity(capacity),
                    last_instret: 0,
                })
            }
            section::PACKED => Some(SectionDecoder::Packed {
                declared: meta::parse_packed(meta)?,
                out: Vec::new(),
            }),
            section::INTERNED => {
                let (declared, pcs) = meta::parse_interned(meta)?;
                Some(SectionDecoder::Interned { declared, pcs, out: Vec::new() })
            }
            section::STREAM => {
                let (key, history_bits, laned, declared) = meta::parse_stream(meta)?;
                Some(SectionDecoder::Stream {
                    key,
                    history_bits,
                    laned,
                    declared,
                    events: Vec::new(),
                    lanes: Vec::new(),
                })
            }
            _ => None,
        }
    }

    fn decode_chunk(&mut self, payload: &[u8], items: u64) -> Option<()> {
        match self {
            SectionDecoder::Trace { trace, last_instret, .. } => {
                decode_trace_chunk(payload, items, trace, last_instret)
            }
            SectionDecoder::Packed { out, .. } => decode_packed_chunk(payload, items, out),
            SectionDecoder::Interned { out, .. } => decode_interned_chunk(payload, items, out),
            SectionDecoder::Stream { laned, events, lanes, .. } => {
                decode_stream_chunk(payload, items, *laned, events, lanes)
            }
        }
    }

    fn finish(self, bundle: &mut ArtifactBundle) -> Option<()> {
        match self {
            SectionDecoder::Trace { declared, total, mut trace, last_instret } => {
                if trace.len() as u64 != declared {
                    return None;
                }
                if total >= last_instret {
                    trace.set_total_instructions(total);
                }
                bundle.trace = Some(trace);
            }
            SectionDecoder::Packed { declared, out } => {
                if out.len() as u64 != declared {
                    return None;
                }
                bundle.packed = Some(out);
            }
            SectionDecoder::Interned { declared, pcs, out } => {
                if out.len() as u64 != declared {
                    return None;
                }
                bundle.interned = Some(InternedConds::from_raw_parts(out, pcs)?);
            }
            SectionDecoder::Stream { key, history_bits, laned, declared, events, lanes } => {
                if events.len() as u64 != declared {
                    return None;
                }
                let stream = PatternStream::from_raw_parts(history_bits, events, lanes, laned)?;
                bundle.streams.push((key, stream));
            }
        }
        Some(())
    }
}

fn map_io(err: &std::io::Error) -> ReadTraceError {
    match err.kind() {
        std::io::ErrorKind::UnexpectedEof => ReadTraceError::Truncated { at_event: 0 },
        kind => ReadTraceError::Io { kind },
    }
}

fn read_exact_buf(file: &mut std::fs::File, len: usize) -> Result<Vec<u8>, ReadTraceError> {
    use std::io::Read;
    let mut buf = vec![0u8; len];
    file.read_exact(&mut buf).map_err(|e| map_io(&e))?;
    Ok(buf)
}

/// Location of one chunk's payload inside a seekable v3 artifact.
#[derive(Debug, Clone, Copy)]
struct ChunkEntry {
    offset: u64,
    encoded: u64,
    items: u64,
    checksum: u64,
}

/// One section's head (kind, metadata, chunk table) inside a seekable
/// v3 artifact.
#[derive(Debug, Clone)]
struct SectionEntry {
    kind: u8,
    meta: Vec<u8>,
    chunks: Vec<ChunkEntry>,
}

/// Identity and shape of one pattern-stream section inside a
/// [`ChunkedArtifact`], as reported by
/// [`ChunkedArtifact::stream_sections`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamSectionInfo {
    /// Section index to pass to [`ChunkedArtifact::read_stream_chunk`].
    pub section: usize,
    /// The opaque stream key bytes the section was persisted under.
    pub key: Vec<u8>,
    /// First-level history width the stream was derived at.
    pub history_bits: u32,
    /// Whether the stream carries per-address lane indices.
    pub laned: bool,
    /// Total number of events across all chunks.
    pub events: u64,
    /// Declared item count of each chunk, in file order.
    pub chunk_items: Vec<u64>,
}

/// A v3 artifact opened for seekable, chunk-at-a-time reads.
///
/// [`ChunkedArtifact::open`] reads and verifies only the header and the
/// per-section heads (metadata + chunk tables); chunk payloads stay on
/// disk until fetched with [`ChunkedArtifact::read_stream_chunk`], each
/// fetch verifying that chunk's stored checksum. This is the I/O layer
/// behind the simulator's bounded-memory streaming replay tier.
#[derive(Debug)]
pub struct ChunkedArtifact {
    file: std::fs::File,
    fingerprint: u64,
    sections: Vec<SectionEntry>,
}

impl ChunkedArtifact {
    /// Opens `path` and parses + verifies its header and section heads
    /// without reading any chunk payloads.
    pub fn open(path: &std::path::Path) -> Result<ChunkedArtifact, ReadTraceError> {
        use std::io::{Seek, SeekFrom};
        let mut file = std::fs::File::open(path).map_err(|e| map_io(&e))?;
        let header = read_exact_buf(&mut file, 18)?;
        let found: [u8; 4] = header[..4].try_into().expect("4 bytes");
        if &found != MAGIC {
            return Err(ReadTraceError::BadMagic { found });
        }
        let mut cur = Cursor { bytes: &header, pos: 4 };
        let version = cur.get_u16_le();
        if version != ARTIFACT_VERSION_CHUNKED {
            return Err(ReadTraceError::UnsupportedVersion { found: version });
        }
        let fingerprint = cur.get_u64_le();
        let nsections = cur.get_u32_le() as usize;
        let truncated = ReadTraceError::Truncated { at_event: 0 };
        let mut sections = Vec::new();
        for _ in 0..nsections {
            let fixed = read_exact_buf(&mut file, 5)?;
            let kind = fixed[0];
            let meta_len = u32::from_le_bytes(fixed[1..5].try_into().expect("4 bytes")) as usize;
            let meta = read_exact_buf(&mut file, meta_len)?;
            let count_bytes = read_exact_buf(&mut file, 4)?;
            let nchunks = u32::from_le_bytes(count_bytes[..].try_into().expect("4 bytes")) as usize;
            let table_len = nchunks.checked_mul(24).ok_or_else(|| truncated.clone())?;
            let table = read_exact_buf(&mut file, table_len)?;
            let stored =
                u64::from_le_bytes(read_exact_buf(&mut file, 8)?[..].try_into().expect("8 bytes"));
            let mut head = Vec::with_capacity(9 + meta.len() + table.len());
            head.extend_from_slice(&fixed);
            head.extend_from_slice(&meta);
            head.extend_from_slice(&count_bytes);
            head.extend_from_slice(&table);
            if checksum(&head) != stored {
                return Err(ReadTraceError::SectionChecksum { kind });
            }
            let mut offset = file.stream_position().map_err(|e| map_io(&e))?;
            let mut tcur = Cursor { bytes: &table, pos: 0 };
            let mut chunks = Vec::with_capacity(nchunks);
            for _ in 0..nchunks {
                let (encoded, items, sum) =
                    (tcur.get_u64_le(), tcur.get_u64_le(), tcur.get_u64_le());
                chunks.push(ChunkEntry { offset, encoded, items, checksum: sum });
                offset = offset.checked_add(encoded).ok_or_else(|| truncated.clone())?;
            }
            file.seek(SeekFrom::Start(offset)).map_err(|e| map_io(&e))?;
            sections.push(SectionEntry { kind, meta, chunks });
        }
        let end = file.stream_position().map_err(|e| map_io(&e))?;
        let len = file.metadata().map_err(|e| map_io(&e))?.len();
        if end < len {
            return Err(ReadTraceError::TrailingBytes { count: (len - end) as usize });
        }
        if end > len {
            return Err(truncated);
        }
        Ok(ChunkedArtifact { file, fingerprint, sections })
    }

    /// Workload fingerprint stamped into the artifact header.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Every pattern-stream section in the artifact, in file order.
    #[must_use]
    pub fn stream_sections(&self) -> Vec<StreamSectionInfo> {
        self.sections
            .iter()
            .enumerate()
            .filter(|(_, s)| s.kind == section::STREAM)
            .filter_map(|(section, s)| {
                meta::parse_stream(&s.meta).map(|(key, history_bits, laned, events)| {
                    StreamSectionInfo {
                        section,
                        key,
                        history_bits,
                        laned,
                        events,
                        chunk_items: s.chunks.iter().map(|c| c.items).collect(),
                    }
                })
            })
            .collect()
    }

    /// Looks up the pattern-stream section persisted under `key`.
    #[must_use]
    pub fn find_stream(&self, key: &[u8]) -> Option<StreamSectionInfo> {
        self.stream_sections().into_iter().find(|info| info.key == key)
    }

    /// Reads, checksum-verifies and decodes one chunk of a
    /// pattern-stream section: `(events, lanes)`, with `lanes` empty
    /// for unlaned streams.
    pub fn read_stream_chunk(
        &mut self,
        section: usize,
        chunk: usize,
    ) -> Result<(Vec<u32>, Vec<u32>), ReadTraceError> {
        use std::io::{Read, Seek, SeekFrom};
        let bad = ReadTraceError::BadSection { kind: section::STREAM };
        let entry = self.sections.get(section).ok_or(bad.clone())?;
        if entry.kind != section::STREAM {
            return Err(ReadTraceError::BadSection { kind: entry.kind });
        }
        let (_, _, laned, _) = meta::parse_stream(&entry.meta).ok_or(bad.clone())?;
        let c = *entry.chunks.get(chunk).ok_or(bad.clone())?;
        self.file.seek(SeekFrom::Start(c.offset)).map_err(|e| map_io(&e))?;
        let encoded = usize::try_from(c.encoded).map_err(|_| bad.clone())?;
        let mut payload = vec![0u8; encoded];
        self.file.read_exact(&mut payload).map_err(|e| map_io(&e))?;
        if checksum(&payload) != c.checksum {
            return Err(ReadTraceError::SectionChecksum { kind: section::STREAM });
        }
        let mut events = Vec::with_capacity(usize::try_from(c.items).map_err(|_| bad.clone())?);
        let mut lanes = Vec::new();
        decode_stream_chunk(&payload, c.items, laned, &mut events, &mut lanes).ok_or(bad)?;
        Ok((events, lanes))
    }
}

/// File magic identifying a memo artifact ([`write_memo`] /
/// [`read_memo`]): one memoized sweep-service response.
pub const MEMO_MAGIC: &[u8; 4] = b"TLBM";
/// Version of the memo artifact format.
///
/// Bumped whenever memoized responses stop matching what the engine
/// computes, not only when the layout changes: version 2 retired every
/// response whose instrumented metrics (miss breakdown, fetch) were
/// measured without the job's context switches.
pub const MEMO_VERSION: u16 = 2;

/// Section kind tags of the memo artifact.
mod memo_section {
    /// The canonical plan JSON (exactly one, first).
    pub const PLAN: u8 = 1;
    /// One pre-encoded result-frame payload (zero or more, in plan
    /// order).
    pub const FRAME: u8 = 2;
}

/// The decoded contents of a memo artifact: one memoized service
/// response keyed by the plan's wire hash and the fingerprints of the
/// workloads it measures.
///
/// The frames are the service's pre-encoded `result` frame *payloads*
/// (not whole lines): replaying the stored strings is what makes a
/// response served from this tier byte-identical to the original.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoArtifact {
    /// `Plan::wire_hash` of the canonical plan JSON; part of the file
    /// name, repeated inside so a renamed file cannot impersonate
    /// another plan's response.
    pub plan_hash: u64,
    /// A fold over the codegen fingerprints of every workload the plan
    /// touches; a workload edit changes it, so stale responses are
    /// rejected by construction.
    pub fingerprint: u64,
    /// The canonical plan JSON — the daemon's memo key.
    pub plan: String,
    /// Pre-encoded result-frame payloads, in plan order.
    pub frames: Vec<String>,
}

/// Serializes a memo artifact: a fixed header, then the plan and every
/// frame as independently checksummed sections.
///
/// The inverse of [`read_memo`]; the two round-trip exactly.
///
/// ```text
/// magic     : 4 bytes = b"TLBM"
/// version   : u16     = 2
/// plan_hash : u64
/// fingerprint : u64
/// sections  : u32     = 1 + frames
/// per section:
///   kind    : u8      1 plan json, 2 frame payload
///   len     : u64     payload byte length
///   payload : len bytes (UTF-8)
///   checksum: u64     fx-fold of the payload (see [`checksum`])
/// ```
#[must_use]
pub fn write_memo(artifact: &MemoArtifact) -> Vec<u8> {
    let sections = 1 + artifact.frames.len();
    let mut buf = Vec::new();
    buf.extend_from_slice(MEMO_MAGIC);
    buf.extend_from_slice(&MEMO_VERSION.to_le_bytes());
    buf.extend_from_slice(&artifact.plan_hash.to_le_bytes());
    buf.extend_from_slice(&artifact.fingerprint.to_le_bytes());
    buf.extend_from_slice(&u32::try_from(sections).expect("section count fits u32").to_le_bytes());
    push_section(&mut buf, memo_section::PLAN, artifact.plan.as_bytes());
    for frame in &artifact.frames {
        push_section(&mut buf, memo_section::FRAME, frame.as_bytes());
    }
    buf
}

/// Deserializes a memo artifact produced by [`write_memo`].
///
/// # Errors
///
/// Returns a [`ReadTraceError`] if the magic or version do not match,
/// the buffer is truncated at any byte boundary, bytes trail the last
/// section, any section checksum mismatches, a section payload is not
/// UTF-8, or the sections are not exactly one plan followed by frames.
/// An `Err` means the file proves nothing — the daemon treats it as a
/// miss and regenerates on the next cold execution.
pub fn read_memo(bytes: &[u8]) -> Result<MemoArtifact, ReadTraceError> {
    expect_magic(bytes, MEMO_MAGIC)?;
    let mut cur = Cursor { bytes, pos: 4 };
    if cur.remaining() < 2 {
        return Err(ReadTraceError::Truncated { at_event: 0 });
    }
    let version = cur.get_u16_le();
    if version != MEMO_VERSION {
        return Err(ReadTraceError::UnsupportedVersion { found: version });
    }
    if cur.remaining() < 20 {
        return Err(ReadTraceError::Truncated { at_event: 0 });
    }
    let plan_hash = cur.get_u64_le();
    let fingerprint = cur.get_u64_le();
    let sections = cur.get_u32_le();
    let mut plan: Option<String> = None;
    let mut frames = Vec::new();
    for index in 0..sections {
        if cur.remaining() < 9 {
            return Err(ReadTraceError::Truncated { at_event: 0 });
        }
        let kind = cur.get_u8();
        let len = cur.get_u64_le();
        let Ok(len) = usize::try_from(len) else {
            return Err(ReadTraceError::Truncated { at_event: 0 });
        };
        if cur.remaining() < len + 8 {
            return Err(ReadTraceError::Truncated { at_event: 0 });
        }
        let payload = &bytes[cur.pos..cur.pos + len];
        cur.pos += len;
        let stored = cur.get_u64_le();
        if checksum(payload) != stored {
            return Err(ReadTraceError::SectionChecksum { kind });
        }
        let text = std::str::from_utf8(payload)
            .map_err(|_| ReadTraceError::BadSection { kind })?
            .to_owned();
        match kind {
            memo_section::PLAN if index == 0 && plan.is_none() => plan = Some(text),
            memo_section::FRAME if plan.is_some() => frames.push(text),
            _ => return Err(ReadTraceError::BadSection { kind }),
        }
    }
    if cur.remaining() > 0 {
        return Err(ReadTraceError::TrailingBytes { count: cur.remaining() });
    }
    let plan = plan.ok_or(ReadTraceError::BadSection { kind: memo_section::PLAN })?;
    Ok(MemoArtifact { plan_hash, fingerprint, plan, frames })
}

/// A held advisory cross-process lock: a lock file created exclusively,
/// removed on drop (and scavenged as stale by other writers if the
/// holding process dies first). See [`FileLock::acquire`].
pub struct FileLock {
    path: std::path::PathBuf,
}

impl Drop for FileLock {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

impl FileLock {
    /// Acquires the advisory lock at `lock_path` (created with
    /// `create_new`, so exactly one process wins). A lock file older
    /// than `stale` is treated as abandoned by a crashed writer and
    /// broken with a warning. Returns `None` — with a warning — when
    /// the lock cannot be acquired within `wait`: callers proceed
    /// unlocked rather than stalling real work on a cache courtesy,
    /// because every writer pairs this lock with [`write_file_atomic`],
    /// so the worst unlocked outcome is last-writer-wins, never a torn
    /// file.
    #[must_use]
    pub fn acquire(
        lock_path: &std::path::Path,
        wait: std::time::Duration,
        stale: std::time::Duration,
    ) -> Option<FileLock> {
        let deadline = std::time::Instant::now() + wait;
        loop {
            match std::fs::OpenOptions::new().write(true).create_new(true).open(lock_path) {
                Ok(_) => return Some(FileLock { path: lock_path.to_path_buf() }),
                Err(err) if err.kind() == std::io::ErrorKind::AlreadyExists => {
                    let is_stale = std::fs::metadata(lock_path)
                        .and_then(|meta| meta.modified())
                        .ok()
                        .and_then(|modified| modified.elapsed().ok())
                        .is_some_and(|age| age >= stale);
                    if is_stale {
                        eprintln!("warning: breaking stale artifact lock {}", lock_path.display());
                        let _ = std::fs::remove_file(lock_path);
                        continue;
                    }
                    if std::time::Instant::now() >= deadline {
                        eprintln!(
                            "warning: timed out waiting for artifact lock {}; writing anyway",
                            lock_path.display()
                        );
                        return None;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(10));
                }
                Err(_) => return None,
            }
        }
    }
}

/// Writes `bytes` to `path` via a unique temp file in the same
/// directory, then renames over the target, so readers only ever
/// observe complete files (the parent directory is created if missing).
///
/// # Errors
///
/// Propagates directory-creation, write, and rename failures; a failed
/// write or rename removes the temp file.
pub fn write_file_atomic(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    write_parts_atomic(path, &[bytes])
}

/// Atomically writes a v3 container assembled from its parts: the
/// [`artifact_header`] for `sections.len()` sections, then each section
/// in the order given — typically a mix of byte ranges copied from the
/// previous file ([`walk_artifact`]) and fresh [`encode_section`]
/// outputs. The parts stream straight into the temp file; the container
/// is never staged whole in memory.
///
/// # Errors
///
/// As [`write_file_atomic`].
pub fn write_artifact_atomic(
    path: &std::path::Path,
    fingerprint: u64,
    sections: &[&[u8]],
) -> std::io::Result<()> {
    let header = artifact_header(fingerprint, sections.len());
    let parts: Vec<&[u8]> = std::iter::once(&header[..]).chain(sections.iter().copied()).collect();
    write_parts_atomic(path, &parts)
}

/// The temp-file + rename discipline behind [`write_file_atomic`] and
/// [`write_artifact_atomic`], writing `parts` back to back.
fn write_parts_atomic(path: &std::path::Path, parts: &[&[u8]]) -> std::io::Result<()> {
    use std::io::Write;
    use std::sync::atomic::{AtomicU64, Ordering};
    static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = path.parent().unwrap_or_else(|| std::path::Path::new("."));
    std::fs::create_dir_all(dir)?;
    let temp = dir.join(format!(
        ".tmp-{}-{}",
        std::process::id(),
        TEMP_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let written = std::fs::File::create(&temp)
        .and_then(|mut file| parts.iter().try_for_each(|part| file.write_all(part)));
    written.and_then(|()| std::fs::rename(&temp, path)).inspect_err(|_| {
        let _ = std::fs::remove_file(&temp);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        let mut t = Trace::new();
        t.push(BranchRecord::conditional(0x1000, true, 0x0f00, 10));
        t.push(BranchRecord::unconditional(0x0f10, BranchClass::Call, 0x4000, 14));
        t.push(TrapRecord::new(0x4004, 20));
        t.push(BranchRecord::unconditional(0x4010, BranchClass::Return, 0x0f14, 25));
        t.push(BranchRecord::conditional(0x1000, false, 0x0f00, 31));
        t.set_total_instructions(40);
        t
    }

    #[test]
    fn round_trip_preserves_everything() {
        let t = sample_trace();
        let bytes = write_trace(&t);
        let back = read_trace(&bytes).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn empty_trace_round_trips() {
        let t = Trace::new();
        let back = read_trace(&write_trace(&t)).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn rejects_bad_magic() {
        let err = read_trace(b"NOPE....").unwrap_err();
        assert!(matches!(err, ReadTraceError::BadMagic { .. }));
    }

    #[test]
    fn rejects_bad_version() {
        let mut bytes = write_trace(&sample_trace());
        bytes[4] = 99;
        let err = read_trace(&bytes).unwrap_err();
        assert_eq!(err, ReadTraceError::UnsupportedVersion { found: 99 });
    }

    #[test]
    fn rejects_truncation_mid_event() {
        let bytes = write_trace(&sample_trace());
        let cut = &bytes[..bytes.len() - 5];
        let err = read_trace(cut).unwrap_err();
        assert!(matches!(err, ReadTraceError::Truncated { .. }));
    }

    #[test]
    fn rejects_unknown_tag() {
        let mut bytes = write_trace(&sample_trace());
        // First event tag lives right after the 22-byte header.
        bytes[22] = 42;
        let err = read_trace(&bytes).unwrap_err();
        assert_eq!(err, ReadTraceError::UnknownTag { tag: 42, at_event: 0 });
    }

    #[test]
    fn error_messages_are_informative() {
        let msg = ReadTraceError::Truncated { at_event: 7 }.to_string();
        assert!(msg.contains("event 7"));
    }

    type SampleBundle = (Trace, Vec<PackedCond>, InternedConds, Vec<(Vec<u8>, PatternStream)>);

    fn sample_bundle() -> SampleBundle {
        let trace = crate::synth::LoopNest::new(&[6, 9]).generate();
        let packed = trace.pack_conditionals();
        let interned = InternedConds::from_packed(&packed);
        let mut unlaned = PatternStream::new(6, false);
        let mut laned = PatternStream::new(4, true);
        for (i, cond) in packed.iter().enumerate() {
            unlaned.push(i % 64, cond.taken());
            laned.push_with_lane(i % 16, cond.taken(), (i % 5) as u32);
        }
        (trace, packed, interned, vec![(vec![0, 9, 0, 0, 0], unlaned), (b"laned".to_vec(), laned)])
    }

    fn write_sample(fingerprint: u64) -> Vec<u8> {
        let (trace, packed, interned, streams) = sample_bundle();
        let refs: Vec<(Vec<u8>, &PatternStream)> =
            streams.iter().map(|(k, s)| (k.clone(), s)).collect();
        write_artifacts(fingerprint, Some(&trace), Some(&packed), Some(&interned), &refs)
    }

    #[test]
    fn artifacts_round_trip_every_section() {
        let (trace, packed, interned, streams) = sample_bundle();
        let refs: Vec<(Vec<u8>, &PatternStream)> =
            streams.iter().map(|(k, s)| (k.clone(), s)).collect();
        let bytes = write_artifacts(0xfeed, Some(&trace), Some(&packed), Some(&interned), &refs);
        let bundle = read_artifacts(&bytes).unwrap();
        assert_eq!(bundle.fingerprint, 0xfeed);
        assert_eq!(bundle.trace.as_ref(), Some(&trace));
        assert_eq!(bundle.packed.as_deref(), Some(packed.as_slice()));
        assert_eq!(bundle.interned.as_ref(), Some(&interned));
        assert_eq!(bundle.streams, streams);
    }

    #[test]
    fn artifacts_round_trip_each_section_alone() {
        let (trace, packed, interned, streams) = sample_bundle();
        let bundle = read_artifacts(&write_artifacts(1, Some(&trace), None, None, &[])).unwrap();
        assert_eq!(bundle.trace, Some(trace));
        assert_eq!(bundle.packed, None);
        let bundle = read_artifacts(&write_artifacts(2, None, Some(&packed), None, &[])).unwrap();
        assert_eq!(bundle.packed.as_deref(), Some(packed.as_slice()));
        let bundle = read_artifacts(&write_artifacts(3, None, None, Some(&interned), &[])).unwrap();
        assert_eq!(bundle.interned, Some(interned));
        let refs: Vec<(Vec<u8>, &PatternStream)> =
            streams.iter().map(|(k, s)| (k.clone(), s)).collect();
        let bundle = read_artifacts(&write_artifacts(4, None, None, None, &refs)).unwrap();
        assert_eq!(bundle.streams, streams);
        let empty = read_artifacts(&write_artifacts(5, None, None, None, &[])).unwrap();
        assert_eq!(empty, ArtifactBundle { fingerprint: 5, ..ArtifactBundle::default() });
    }

    #[test]
    fn artifacts_reject_truncation_at_every_byte_boundary() {
        let bytes = write_sample(0xabcd);
        for cut in 0..bytes.len() {
            assert!(
                read_artifacts(&bytes[..cut]).is_err(),
                "prefix of {cut}/{} bytes must not decode",
                bytes.len()
            );
        }
        assert!(read_artifacts(&bytes).is_ok());
    }

    #[test]
    fn artifacts_detect_any_single_bit_flip_in_payloads() {
        let bytes = write_sample(0x1234);
        // Flip one bit in every byte past the fixed header; the magic,
        // version, fingerprint and section-count bytes are covered by the
        // dedicated header tests (a fingerprint flip legitimately decodes —
        // staleness is the store's comparison, not the container's).
        for pos in 18..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 1 << (pos % 8);
            assert!(
                read_artifacts(&corrupt).is_err(),
                "bit flip at byte {pos} must not decode cleanly"
            );
        }
    }

    #[test]
    fn artifacts_reject_checksum_flip_with_checksum_error() {
        let bytes = write_sample(7);
        // The first section's checksum occupies the 8 bytes before the
        // second section's kind tag; flipping the final byte of the file
        // hits the *last* section's checksum, which is easiest to address.
        let mut corrupt = bytes.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x80;
        assert!(matches!(
            read_artifacts(&corrupt).unwrap_err(),
            ReadTraceError::SectionChecksum { kind: section::STREAM }
        ));
    }

    #[test]
    fn artifacts_reject_trailing_bytes() {
        let mut bytes = write_sample(7);
        bytes.push(0);
        assert!(matches!(
            read_artifacts(&bytes).unwrap_err(),
            ReadTraceError::TrailingBytes { count: 1 }
        ));
    }

    #[test]
    fn artifacts_reject_v1_files_with_versioned_error() {
        let bytes = write_trace(&sample_trace());
        assert_eq!(
            read_artifacts(&bytes).unwrap_err(),
            ReadTraceError::UnsupportedVersion { found: VERSION }
        );
        // And the bare-trace reader symmetrically rejects v2 containers.
        let v2 = write_sample(1);
        assert_eq!(
            read_trace(&v2).unwrap_err(),
            ReadTraceError::UnsupportedVersion { found: ARTIFACT_VERSION }
        );
    }

    #[test]
    fn artifacts_reject_bad_section_structure() {
        let (_, _, interned, _) = sample_bundle();
        let bytes = write_artifacts(9, None, None, Some(&interned), &[]);
        // Rewrite the first interned event's id to point past the pc
        // table, then re-stamp the section checksum so only structural
        // validation can catch it. Payload starts at header(18) + kind(1)
        // + len(8); events follow two u64 counts.
        let payload_start = 18 + 1 + 8;
        let mut corrupt = bytes.clone();
        let huge = (u32::MAX).to_le_bytes();
        corrupt[payload_start + 16..payload_start + 20].copy_from_slice(&huge);
        let payload_len = bytes.len() - payload_start - 8;
        let sum = checksum(&corrupt[payload_start..payload_start + payload_len]);
        let checksum_at = payload_start + payload_len;
        corrupt[checksum_at..checksum_at + 8].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            read_artifacts(&corrupt).unwrap_err(),
            ReadTraceError::BadSection { kind: section::INTERNED }
        );
    }

    fn write_sample_chunked(fingerprint: u64, chunk_bytes: usize) -> Vec<u8> {
        let (trace, packed, interned, streams) = sample_bundle();
        let refs: Vec<(Vec<u8>, &PatternStream)> =
            streams.iter().map(|(k, s)| (k.clone(), s)).collect();
        write_artifacts_chunked(
            fingerprint,
            Some(&trace),
            Some(&packed),
            Some(&interned),
            &refs,
            chunk_bytes,
        )
    }

    #[test]
    fn chunked_artifacts_round_trip_every_section() {
        let (trace, packed, interned, streams) = sample_bundle();
        for chunk_bytes in [DEFAULT_CHUNK_BYTES, 64, 1] {
            let bytes = write_sample_chunked(0xfeed, chunk_bytes);
            let bundle = read_artifacts(&bytes).unwrap();
            assert_eq!(bundle.fingerprint, 0xfeed);
            assert_eq!(bundle.trace.as_ref(), Some(&trace));
            assert_eq!(bundle.packed.as_deref(), Some(packed.as_slice()));
            assert_eq!(bundle.interned.as_ref(), Some(&interned));
            assert_eq!(bundle.streams, streams);
        }
    }

    #[test]
    fn chunked_artifacts_round_trip_each_section_alone() {
        let (trace, packed, interned, streams) = sample_bundle();
        let b = 64;
        let bundle =
            read_artifacts(&write_artifacts_chunked(1, Some(&trace), None, None, &[], b)).unwrap();
        assert_eq!(bundle.trace, Some(trace));
        assert_eq!(bundle.packed, None);
        let bundle =
            read_artifacts(&write_artifacts_chunked(2, None, Some(&packed), None, &[], b)).unwrap();
        assert_eq!(bundle.packed.as_deref(), Some(packed.as_slice()));
        let bundle =
            read_artifacts(&write_artifacts_chunked(3, None, None, Some(&interned), &[], b))
                .unwrap();
        assert_eq!(bundle.interned, Some(interned));
        let refs: Vec<(Vec<u8>, &PatternStream)> =
            streams.iter().map(|(k, s)| (k.clone(), s)).collect();
        let bundle =
            read_artifacts(&write_artifacts_chunked(4, None, None, None, &refs, b)).unwrap();
        assert_eq!(bundle.streams, streams);
        let empty = read_artifacts(&write_artifacts_chunked(5, None, None, None, &[], b)).unwrap();
        assert_eq!(empty, ArtifactBundle { fingerprint: 5, ..ArtifactBundle::default() });
    }

    #[test]
    fn chunked_artifacts_smaller_than_v2() {
        let v2 = write_sample(1);
        let v3 = write_sample_chunked(1, DEFAULT_CHUNK_BYTES);
        assert!(
            v3.len() < v2.len(),
            "varint+delta v3 ({} bytes) should undercut v2 ({} bytes)",
            v3.len(),
            v2.len()
        );
    }

    #[test]
    fn chunked_artifacts_reject_truncation_at_every_byte_boundary() {
        // A 64-byte budget forces multi-chunk sections, so the cut loop
        // exercises chunk boundaries and mid-chunk cuts alike.
        let bytes = write_sample_chunked(0xabcd, 64);
        for cut in 0..bytes.len() {
            assert!(
                read_artifacts(&bytes[..cut]).is_err(),
                "prefix of {cut}/{} bytes must not decode",
                bytes.len()
            );
        }
        assert!(read_artifacts(&bytes).is_ok());
    }

    #[test]
    fn chunked_artifacts_detect_any_single_bit_flip_in_payloads() {
        let bytes = write_sample_chunked(0x1234, 64);
        // As in the v2 test: bytes below 18 are the fixed header, whose
        // flips are covered by the dedicated header tests.
        for pos in 18..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 1 << (pos % 8);
            assert!(
                read_artifacts(&corrupt).is_err(),
                "bit flip at byte {pos} must not decode cleanly"
            );
        }
    }

    #[test]
    fn chunked_artifacts_reject_trailing_bytes() {
        let mut bytes = write_sample_chunked(7, 64);
        bytes.push(0);
        assert!(matches!(
            read_artifacts(&bytes).unwrap_err(),
            ReadTraceError::TrailingBytes { count: 1 }
        ));
    }

    #[test]
    fn v2_and_v3_decode_to_the_same_bundle() {
        let v2 = read_artifacts(&write_sample(6)).unwrap();
        let v3 = read_artifacts(&write_sample_chunked(6, 64)).unwrap();
        assert_eq!(v2, v3);
    }

    #[test]
    fn chunked_artifact_seekable_reads_match_whole_buffer() {
        let dir = std::env::temp_dir().join(format!("tlabp-io-chunked-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.tlabp");

        // A stream long enough to span several aligned chunks.
        let mut long = PatternStream::new(8, true);
        for i in 0..3 * STREAM_CHUNK_ALIGN + 123 {
            long.push_with_lane(i % 256, i % 3 == 0, (i % 7) as u32);
        }
        let (trace, packed, interned, mut streams) = sample_bundle();
        streams.push((b"long".to_vec(), long));
        let refs: Vec<(Vec<u8>, &PatternStream)> =
            streams.iter().map(|(k, s)| (k.clone(), s)).collect();
        let bytes = write_artifacts_chunked(
            0xbeef,
            Some(&trace),
            Some(&packed),
            Some(&interned),
            &refs,
            STREAM_CHUNK_ALIGN * 4,
        );
        std::fs::write(&path, &bytes).unwrap();

        let mut artifact = ChunkedArtifact::open(&path).unwrap();
        assert_eq!(artifact.fingerprint(), 0xbeef);
        let infos = artifact.stream_sections();
        assert_eq!(infos.len(), streams.len());
        for (key, stream) in &streams {
            let info = artifact.find_stream(key).expect("stream section present");
            assert_eq!(info.history_bits, stream.history_bits());
            assert_eq!(info.laned, stream.is_laned());
            assert_eq!(info.events, stream.len() as u64);
            let mut events = Vec::new();
            let mut lanes = Vec::new();
            for chunk in 0..info.chunk_items.len() {
                let (e, l) = artifact.read_stream_chunk(info.section, chunk).unwrap();
                assert_eq!(e.len() as u64, info.chunk_items[chunk]);
                events.extend_from_slice(&e);
                lanes.extend_from_slice(&l);
            }
            assert_eq!(events, stream.events());
            assert_eq!(lanes, stream.lanes());
        }
        let long_info = artifact.find_stream(b"long").unwrap();
        assert!(long_info.chunk_items.len() > 1, "long stream must span multiple chunks");
        assert!(long_info.chunk_items[..long_info.chunk_items.len() - 1]
            .iter()
            .all(|&n| (n as usize).is_multiple_of(STREAM_CHUNK_ALIGN)));

        // A flipped payload byte surfaces on the chunk read, not open().
        let mut corrupt_bytes = bytes.clone();
        let last = corrupt_bytes.len() - 1;
        corrupt_bytes[last] ^= 0x40;
        let corrupt_path = dir.join("corrupt.tlabp");
        std::fs::write(&corrupt_path, &corrupt_bytes).unwrap();
        let mut corrupt = ChunkedArtifact::open(&corrupt_path).unwrap();
        let info = corrupt.find_stream(b"long").unwrap();
        let last_chunk = info.chunk_items.len() - 1;
        assert!(matches!(
            corrupt.read_stream_chunk(info.section, last_chunk).unwrap_err(),
            ReadTraceError::SectionChecksum { kind: section::STREAM }
        ));

        // Truncating the file mid-payload surfaces as Truncated on read.
        let cut_path = dir.join("cut.tlabp");
        std::fs::write(&cut_path, &bytes[..bytes.len() - 10]).unwrap();
        assert!(matches!(
            ChunkedArtifact::open(&cut_path).unwrap_err(),
            ReadTraceError::Truncated { .. }
        ));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chunked_artifact_open_rejects_v2_and_bad_heads() {
        let dir = std::env::temp_dir().join(format!("tlabp-io-chunkhdr-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let v2_path = dir.join("v2.tlabp");
        std::fs::write(&v2_path, write_sample(3)).unwrap();
        assert_eq!(
            ChunkedArtifact::open(&v2_path).unwrap_err(),
            ReadTraceError::UnsupportedVersion { found: ARTIFACT_VERSION }
        );

        // Flip a chunk-table byte: open() must fail the head checksum.
        let bytes = write_sample_chunked(3, 64);
        let mut corrupt = bytes.clone();
        corrupt[30] ^= 0x10;
        let bad_path = dir.join("bad.tlabp");
        std::fs::write(&bad_path, &corrupt).unwrap();
        assert!(matches!(
            ChunkedArtifact::open(&bad_path).unwrap_err(),
            ReadTraceError::SectionChecksum { .. }
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The sample bundle's forms in container order, with their tags.
    fn sample_forms(bundle: &SampleBundle) -> Vec<ArtifactForm<'_>> {
        let (trace, packed, interned, streams) = bundle;
        let mut forms = vec![
            ArtifactForm::Trace(trace),
            ArtifactForm::Packed(packed),
            ArtifactForm::Interned(interned),
        ];
        let mut sorted: Vec<&(Vec<u8>, PatternStream)> = streams.iter().collect();
        sorted.sort_by(|a, b| a.0.cmp(&b.0));
        forms.extend(sorted.into_iter().map(|(key, stream)| ArtifactForm::Stream(key, stream)));
        forms
    }

    #[test]
    fn sections_assemble_into_the_whole_container() {
        let bundle = sample_bundle();
        let forms = sample_forms(&bundle);
        let tags: Vec<SectionTag> = forms.iter().map(ArtifactForm::tag).collect();
        assert!(tags.windows(2).all(|w| w[0] < w[1]), "container order is tag order");
        for chunk_bytes in [DEFAULT_CHUNK_BYTES, 64] {
            let streams: Vec<(Vec<u8>, &PatternStream)> = forms[3..]
                .iter()
                .map(|form| match form {
                    ArtifactForm::Stream(key, stream) => (key.to_vec(), *stream),
                    _ => unreachable!(),
                })
                .collect();
            let whole = write_artifacts_chunked(
                9,
                Some(&bundle.0),
                Some(&bundle.1),
                Some(&bundle.2),
                &streams,
                chunk_bytes,
            );
            let sections: Vec<Vec<u8>> =
                forms.iter().map(|&form| encode_section(form, chunk_bytes)).collect();
            let mut assembled = artifact_header(9, sections.len()).to_vec();
            sections.iter().for_each(|section| assembled.extend_from_slice(section));
            assert_eq!(assembled, whole, "header + sections is the container");

            let layout = walk_artifact(&whole).unwrap();
            assert_eq!(layout.fingerprint, 9);
            let walked: Vec<SectionTag> = layout.sections.iter().map(|(t, _)| t.clone()).collect();
            assert_eq!(walked, tags);
            for ((_, range), section) in layout.sections.iter().zip(&sections) {
                assert_eq!(&whole[range.clone()], section.as_slice());
                validate_section(section).unwrap();
            }
            assert_eq!(layout.sections.last().unwrap().1.end, whole.len());
        }
    }

    #[test]
    fn walk_skips_damaged_sections_and_stops_at_a_bad_head() {
        let bytes = write_sample_chunked(4, 64);
        let layout = walk_artifact(&bytes).unwrap();
        let tags: Vec<SectionTag> = layout.sections.iter().map(|(t, _)| t.clone()).collect();
        assert_eq!(tags.len(), 5);

        // A flipped payload byte drops exactly its own section: the
        // verified head still locates the sections after it.
        let packed = layout.sections[1].1.clone();
        let mut corrupt = bytes.clone();
        corrupt[packed.end - 1] ^= 0x04;
        let damaged = walk_artifact(&corrupt).unwrap();
        let mut expected = layout.sections.clone();
        expected.remove(1);
        assert_eq!(damaged.sections, expected);

        // A flipped head byte ends the walk: only earlier sections remain.
        let mut corrupt = bytes.clone();
        corrupt[packed.start + 1] ^= 0x01;
        assert_eq!(walk_artifact(&corrupt).unwrap().sections, layout.sections[..1].to_vec());

        // Truncation keeps the whole sections before the cut.
        let cut = walk_artifact(&bytes[..layout.sections[2].1.end + 3]).unwrap();
        assert_eq!(cut.sections, layout.sections[..3].to_vec());

        assert_eq!(
            walk_artifact(&write_sample(4)).unwrap_err(),
            ReadTraceError::UnsupportedVersion { found: ARTIFACT_VERSION }
        );
        assert!(matches!(walk_artifact(b"TLB").unwrap_err(), ReadTraceError::BadMagic { .. }));
    }

    #[test]
    fn validate_section_catches_what_checksums_cannot() {
        let (_, packed, _, _) = sample_bundle();
        let section = encode_section(ArtifactForm::Packed(&packed), DEFAULT_CHUNK_BYTES);
        validate_section(&section).unwrap();

        // Declare one more item than the chunks hold, then re-stamp the
        // head checksum: every checksum verifies, the decode does not.
        let mut lying = section.clone();
        let count = u64::from_le_bytes(lying[5..13].try_into().unwrap()) + 1;
        lying[5..13].copy_from_slice(&count.to_le_bytes());
        let head_end = 5 + 8 + 4 + 24;
        let sum = checksum(&lying[..head_end]);
        lying[head_end..head_end + 8].copy_from_slice(&sum.to_le_bytes());
        let mut container = artifact_header(1, 1).to_vec();
        container.extend_from_slice(&lying);
        assert_eq!(walk_artifact(&container).unwrap().sections.len(), 1, "checksums verify");
        assert_eq!(
            validate_section(&lying).unwrap_err(),
            ReadTraceError::BadSection { kind: section::PACKED }
        );

        let mut trailing = section.clone();
        trailing.push(0);
        assert_eq!(
            validate_section(&trailing).unwrap_err(),
            ReadTraceError::TrailingBytes { count: 1 }
        );
    }

    #[test]
    fn write_artifact_atomic_streams_parts_into_the_container() {
        let dir = std::env::temp_dir().join(format!("tlabp-io-parts-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("sample.tlabp");
        let bundle = sample_bundle();
        let sections: Vec<Vec<u8>> =
            sample_forms(&bundle).into_iter().map(|form| encode_section(form, 64)).collect();
        let parts: Vec<&[u8]> = sections.iter().map(Vec::as_slice).collect();
        write_artifact_atomic(&path, 0xabc, &parts).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let back = read_artifacts(&bytes).unwrap();
        assert_eq!(back.fingerprint, 0xabc);
        assert_eq!(back.trace.as_ref(), Some(&bundle.0));
        assert_eq!(back.streams.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chunk_bytes_env_parses_clamps_and_defaults() {
        // Single test owns the env var, so set/remove stays race-free.
        std::env::remove_var(CHUNK_BYTES_ENV);
        assert_eq!(chunk_bytes_from_env(), DEFAULT_CHUNK_BYTES);
        std::env::set_var(CHUNK_BYTES_ENV, "1048576");
        assert_eq!(chunk_bytes_from_env(), 1 << 20);
        std::env::set_var(CHUNK_BYTES_ENV, "12");
        assert_eq!(chunk_bytes_from_env(), MIN_CHUNK_BYTES);
        std::env::set_var(CHUNK_BYTES_ENV, "lots");
        assert_eq!(chunk_bytes_from_env(), DEFAULT_CHUNK_BYTES);
        std::env::remove_var(CHUNK_BYTES_ENV);
    }

    #[test]
    fn varint_round_trips_edge_values() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX - 1, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert!(buf.len() <= 10);
            let mut cur = Cursor { bytes: &buf, pos: 0 };
            assert_eq!(get_varint(&mut cur), Some(v), "value {v}");
            assert_eq!(cur.remaining(), 0);
        }
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -4096] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        // Truncated and over-long encodings are rejected.
        let mut cur = Cursor { bytes: &[0x80], pos: 0 };
        assert_eq!(get_varint(&mut cur), None);
        let eleven = [0xff; 11];
        let mut cur = Cursor { bytes: &eleven, pos: 0 };
        assert_eq!(get_varint(&mut cur), None);
    }

    #[test]
    fn checksum_distinguishes_length_and_content() {
        assert_ne!(checksum(b""), checksum(&[0]));
        assert_ne!(checksum(&[0]), checksum(&[0, 0]));
        assert_ne!(checksum(b"abcdefgh"), checksum(b"abcdefgi"));
        assert_eq!(checksum(b"abcdefgh"), checksum(b"abcdefgh"));
    }

    fn sample_memo() -> MemoArtifact {
        MemoArtifact {
            plan_hash: 0x1234_5678_9abc_def0,
            fingerprint: 0x0fed_cba9_8765_4321,
            plan: r#"{"version":1,"jobs":[{"scheme":"PAg(12)"}]}"#.to_owned(),
            frames: vec![
                r#"{"index":0,"outcome":{"skipped":"with spaces"}}"#.to_owned(),
                r#"{"index":1,"outcome":{"skipped":"second"}}"#.to_owned(),
            ],
        }
    }

    #[test]
    fn memo_round_trips() {
        let memo = sample_memo();
        assert_eq!(read_memo(&write_memo(&memo)).unwrap(), memo);
        let empty = MemoArtifact { frames: Vec::new(), ..sample_memo() };
        assert_eq!(read_memo(&write_memo(&empty)).unwrap(), empty);
    }

    #[test]
    fn memo_rejects_every_truncation() {
        let bytes = write_memo(&sample_memo());
        for cut in 0..bytes.len() {
            assert!(read_memo(&bytes[..cut]).is_err(), "prefix of {cut} bytes must not decode");
        }
    }

    #[test]
    fn memo_rejects_every_bit_flip_past_the_magic() {
        let memo = sample_memo();
        let bytes = write_memo(&memo);
        for pos in 4..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 1 << (pos % 8);
            // A flip in the stored plan_hash/fingerprint header words
            // still decodes (they are caller-validated metadata); any
            // flip in a section must fail the checksum or the structure.
            if (6..22).contains(&pos) {
                let back = read_memo(&corrupt).expect("header metadata flips still decode");
                assert!(
                    back.plan_hash != memo.plan_hash || back.fingerprint != memo.fingerprint,
                    "flip at {pos} must surface in the decoded metadata"
                );
            } else {
                assert!(read_memo(&corrupt).is_err(), "bit flip at byte {pos} must not decode");
            }
        }
    }

    #[test]
    fn memo_rejects_other_versions() {
        let mut bytes = write_memo(&sample_memo());
        bytes[4..6].copy_from_slice(&1u16.to_le_bytes());
        assert_eq!(read_memo(&bytes).unwrap_err(), ReadTraceError::UnsupportedVersion { found: 1 });
    }

    #[test]
    fn memo_rejects_trailing_bytes_and_wrong_formats() {
        let mut bytes = write_memo(&sample_memo());
        bytes.push(0);
        assert_eq!(read_memo(&bytes).unwrap_err(), ReadTraceError::TrailingBytes { count: 1 });
        assert!(matches!(
            read_memo(&write_trace(&sample_trace())).unwrap_err(),
            ReadTraceError::BadMagic { .. }
        ));
    }

    #[test]
    fn file_lock_is_exclusive_and_breaks_stale_locks() {
        let dir = std::env::temp_dir().join(format!("tlabp-io-lock-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let lock_path = dir.join("x.tlabm.lock");
        let wait = std::time::Duration::from_millis(50);
        let stale = std::time::Duration::from_secs(3600);
        let held = FileLock::acquire(&lock_path, wait, stale).expect("first acquire wins");
        assert!(
            FileLock::acquire(&lock_path, wait, stale).is_none(),
            "second acquire times out while the lock is held"
        );
        drop(held);
        assert!(!lock_path.exists(), "drop removes the lock file");
        // A zero stale budget treats any existing lock as abandoned.
        let _orphan = std::fs::File::create(&lock_path).unwrap();
        let reacquired = FileLock::acquire(&lock_path, wait, std::time::Duration::ZERO);
        assert!(reacquired.is_some(), "stale lock is broken and re-acquired");
        drop(reacquired);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_file_atomic_leaves_no_temp_files() {
        let dir = std::env::temp_dir().join(format!("tlabp-io-atomic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested").join("artifact.tlabm");
        write_file_atomic(&path, b"payload").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"payload");
        write_file_atomic(&path, b"rewritten").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"rewritten");
        let leftovers: Vec<_> = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp-"))
            .collect();
        assert!(leftovers.is_empty(), "no temp files survive: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
