//! Compact on-disk trace format (`.icrt`).
//!
//! A stored trace is a sectioned header followed by one variable-length
//! record per instruction:
//!
//! ```text
//! header:  magic "ICRT" | version u16 LE | app_len u16 LE | app bytes
//!          | seed u64 LE | count u64 LE | payload digest u64 LE
//! record:  flags u8 | Δpc zigzag-varint
//!          | [dest u8] [src0 u8] [src1 u8]          (per flag bits)
//!          | [Δmem_addr zigzag-varint]              (loads/stores)
//!          | [target − pc zigzag-varint]            (branches)
//! ```
//!
//! The flags byte packs the op class in bits 0–2 (`IntAlu=0, IntMul=1,
//! FpAlu=2, FpMul=3, Load=4, Store=5, Branch=6`; 7 is invalid), presence
//! bits for dest/src0/src1 in bits 3–5, `taken` in bit 6; bit 7 is
//! reserved and must be zero. PCs and effective addresses are
//! delta-encoded against the previous record's values (both start at 0),
//! so sequential code and strided data cost one or two bytes per field
//! instead of eight. The digest is FNV-1a over the record bytes exactly
//! as stored; the reader recomputes it and refuses a trace whose payload
//! does not match its header, so corruption surfaces as a precise
//! [`DiskError`] instead of a silently-wrong simulation.
//!
//! [`TraceWriter`]/[`TraceReader`] stream; [`write_trace`] /
//! [`read_trace`] are whole-file conveniences (the writer patches
//! `count` and `digest` into the header on [`TraceWriter::finish`], and
//! `write_trace` renames a temp file into place so readers never observe
//! a half-written trace).

use crate::inst::{self, Inst, OpClass, Reg, REG_LIMIT};
use std::fs::File;
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// File magic, first four bytes of every stored trace.
pub const MAGIC: [u8; 4] = *b"ICRT";
/// Current format version.
pub const VERSION: u16 = 1;

const FLAG_OP_MASK: u8 = 0b0000_0111;
const FLAG_DEST: u8 = 0b0000_1000;
const FLAG_SRC0: u8 = 0b0001_0000;
const FLAG_SRC1: u8 = 0b0010_0000;
const FLAG_TAKEN: u8 = 0b0100_0000;
const FLAG_RESERVED: u8 = 0b1000_0000;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a-64 over `bytes`: the payload digest of a stored trace, and
/// the digest of the campaign checkpoints.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(FNV_OFFSET, bytes)
}

/// [`fnv1a64`] of some bytes followed by `bytes`, given `digest`, the
/// [`fnv1a64`] of those first bytes.
fn fnv1a64_extend(digest: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(digest, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// Why a read or write was rejected. Every corruption the mutation tests
/// inject maps to a distinct, precise variant.
#[derive(Debug)]
pub enum DiskError {
    /// The file does not start with [`MAGIC`].
    BadMagic([u8; 4]),
    /// Header names a version this reader does not speak.
    UnsupportedVersion(u16),
    /// The app-name bytes are not UTF-8.
    BadAppName,
    /// The stream ended inside the header or a record.
    Truncated,
    /// A varint ran past 10 bytes or overflowed 64 bits.
    BadVarint,
    /// A record's flags byte names op class 7, which does not exist.
    BadOpcode(u8),
    /// A record's flags byte sets the reserved bit, or `taken` on a
    /// non-branch.
    BadFlags(u8),
    /// A register index ≥ 64.
    BadReg(u8),
    /// Payload digest does not match the header.
    DigestMismatch {
        /// Digest the header promised.
        expected: u64,
        /// Digest the payload actually hashes to.
        found: u64,
    },
    /// Bytes remain after the last record.
    TrailingBytes,
    /// An instruction handed to the writer violates
    /// [`inst::validate`].
    Invalid(inst::InstError),
    /// Underlying I/O failure.
    Io(io::Error),
}

impl std::fmt::Display for DiskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiskError::BadMagic(m) => write!(f, "bad magic {m:02x?}, expected {MAGIC:02x?}"),
            DiskError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported trace format version {v} (reader speaks {VERSION})"
                )
            }
            DiskError::BadAppName => write!(f, "app name is not UTF-8"),
            DiskError::Truncated => write!(f, "trace truncated mid-header or mid-record"),
            DiskError::BadVarint => write!(f, "varint field overflows 64 bits"),
            DiskError::BadOpcode(flags) => {
                write!(
                    f,
                    "flags {flags:#04x} name op class 7, which does not exist"
                )
            }
            DiskError::BadFlags(flags) => {
                write!(f, "flags {flags:#04x} set a reserved or inapplicable bit")
            }
            DiskError::BadReg(r) => write!(f, "register index {r} is outside 0..{REG_LIMIT}"),
            DiskError::DigestMismatch { expected, found } => write!(
                f,
                "payload digest {found:#018x} does not match header {expected:#018x}"
            ),
            DiskError::TrailingBytes => write!(f, "bytes remain after the final record"),
            DiskError::Invalid(e) => write!(f, "instruction violates stream contract: {e}"),
            DiskError::Io(e) => write!(f, "i/o: {e}"),
        }
    }
}

impl std::error::Error for DiskError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DiskError::Io(e) => Some(e),
            DiskError::Invalid(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for DiskError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            DiskError::Truncated
        } else {
            DiskError::Io(e)
        }
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn push_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            break;
        }
        buf.push(byte | 0x80);
    }
}

fn op_code(op: OpClass) -> u8 {
    match op {
        OpClass::IntAlu => 0,
        OpClass::IntMul => 1,
        OpClass::FpAlu => 2,
        OpClass::FpMul => 3,
        OpClass::Load => 4,
        OpClass::Store => 5,
        OpClass::Branch => 6,
    }
}

fn op_from_code(code: u8) -> Option<OpClass> {
    Some(match code {
        0 => OpClass::IntAlu,
        1 => OpClass::IntMul,
        2 => OpClass::FpAlu,
        3 => OpClass::FpMul,
        4 => OpClass::Load,
        5 => OpClass::Store,
        6 => OpClass::Branch,
        _ => return None,
    })
}

/// Delta state threaded through encode/decode; both sides start from the
/// same zeros, so the stream is self-contained.
#[derive(Default)]
struct DeltaState {
    prev_pc: u64,
    prev_mem: u64,
}

impl DeltaState {
    fn encode(&mut self, inst: &Inst, buf: &mut Vec<u8>) -> Result<(), DiskError> {
        inst::validate(inst).map_err(DiskError::Invalid)?;
        let mut flags = op_code(inst.op);
        if inst.dest.is_some() {
            flags |= FLAG_DEST;
        }
        if inst.srcs[0].is_some() {
            flags |= FLAG_SRC0;
        }
        if inst.srcs[1].is_some() {
            flags |= FLAG_SRC1;
        }
        if inst.taken {
            flags |= FLAG_TAKEN;
        }
        buf.push(flags);
        push_varint(buf, zigzag(inst.pc.wrapping_sub(self.prev_pc) as i64));
        self.prev_pc = inst.pc;
        for reg in [inst.dest, inst.srcs[0], inst.srcs[1]]
            .into_iter()
            .flatten()
        {
            buf.push(reg.0);
        }
        if let Some(addr) = inst.mem_addr {
            push_varint(buf, zigzag(addr.wrapping_sub(self.prev_mem) as i64));
            self.prev_mem = addr;
        }
        if inst.op == OpClass::Branch {
            push_varint(buf, zigzag(inst.target.wrapping_sub(inst.pc) as i64));
        }
        Ok(())
    }
}

/// FNV-1a over a trace's encoded record bytes — the same value the
/// header stores, usable as a content digest without touching disk.
pub fn trace_digest(insts: &[Inst]) -> u64 {
    let mut state = DeltaState::default();
    let mut buf = Vec::new();
    for inst in insts {
        state
            .encode(inst, &mut buf)
            .expect("digest input must satisfy the stream contract");
    }
    fnv1a64(&buf)
}

/// Streaming writer. Records go out as they arrive; `count` and the
/// payload digest are patched into the header by [`finish`].
///
/// [`finish`]: TraceWriter::finish
pub struct TraceWriter<W: Write + Seek> {
    sink: W,
    state: DeltaState,
    buf: Vec<u8>,
    digest: u64,
    count: u64,
    /// Byte offset of the `count` field (digest follows it).
    patch_pos: u64,
}

impl<W: Write + Seek> TraceWriter<W> {
    /// Writes the header (with placeholder count/digest) and readies the
    /// record stream.
    pub fn new(mut sink: W, app: &str, seed: u64) -> Result<Self, DiskError> {
        let app_len = u16::try_from(app.len())
            .map_err(|_| DiskError::Io(io::Error::other("app name too long")))?;
        sink.write_all(&MAGIC)?;
        sink.write_all(&VERSION.to_le_bytes())?;
        sink.write_all(&app_len.to_le_bytes())?;
        sink.write_all(app.as_bytes())?;
        sink.write_all(&seed.to_le_bytes())?;
        let patch_pos = (MAGIC.len() + 2 + 2 + app.len() + 8) as u64;
        sink.write_all(&0u64.to_le_bytes())?; // count, patched on finish
        sink.write_all(&0u64.to_le_bytes())?; // digest, patched on finish
        Ok(TraceWriter {
            sink,
            state: DeltaState::default(),
            buf: Vec::with_capacity(32),
            digest: FNV_OFFSET,
            count: 0,
            patch_pos,
        })
    }

    /// Appends one record.
    pub fn write(&mut self, inst: &Inst) -> Result<(), DiskError> {
        self.buf.clear();
        self.state.encode(inst, &mut self.buf)?;
        self.digest = fnv1a64_extend(self.digest, &self.buf);
        self.sink.write_all(&self.buf)?;
        self.count += 1;
        Ok(())
    }

    /// Patches count and digest into the header and returns the sink.
    pub fn finish(mut self) -> Result<W, DiskError> {
        self.sink.seek(SeekFrom::Start(self.patch_pos))?;
        self.sink.write_all(&self.count.to_le_bytes())?;
        self.sink.write_all(&self.digest.to_le_bytes())?;
        self.sink.flush()?;
        Ok(self.sink)
    }
}

/// Streaming reader: parses the header eagerly, then yields one
/// [`Inst`] per [`Iterator::next`], verifying the payload digest and
/// end-of-stream after the final record.
pub struct TraceReader<R: Read> {
    source: R,
    app: String,
    seed: u64,
    count: u64,
    expected_digest: u64,
    state: DeltaState,
    digest: u64,
    yielded: u64,
    /// Set after the post-stream checks ran (or any error) so the
    /// iterator fuses.
    done: bool,
}

impl<R: Read> TraceReader<R> {
    /// Parses and checks the header.
    pub fn new(mut source: R) -> Result<Self, DiskError> {
        let mut magic = [0u8; 4];
        source.read_exact(&mut magic)?;
        if magic != MAGIC {
            return Err(DiskError::BadMagic(magic));
        }
        let version = u16::from_le_bytes(read_array(&mut source)?);
        if version != VERSION {
            return Err(DiskError::UnsupportedVersion(version));
        }
        let app_len = u16::from_le_bytes(read_array(&mut source)?);
        let mut app_bytes = vec![0u8; usize::from(app_len)];
        source.read_exact(&mut app_bytes)?;
        let app = String::from_utf8(app_bytes).map_err(|_| DiskError::BadAppName)?;
        let seed = u64::from_le_bytes(read_array(&mut source)?);
        let count = u64::from_le_bytes(read_array(&mut source)?);
        let expected_digest = u64::from_le_bytes(read_array(&mut source)?);
        Ok(TraceReader {
            source,
            app,
            seed,
            count,
            expected_digest,
            state: DeltaState::default(),
            digest: FNV_OFFSET,
            yielded: 0,
            done: false,
        })
    }

    /// Application name recorded in the header.
    pub fn app(&self) -> &str {
        &self.app
    }

    /// Generator/interpreter seed recorded in the header.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of records the header promises.
    pub fn record_count(&self) -> u64 {
        self.count
    }

    fn read_byte(&mut self) -> Result<u8, DiskError> {
        let mut b = [0u8; 1];
        self.source.read_exact(&mut b)?;
        self.digest ^= u64::from(b[0]);
        self.digest = self.digest.wrapping_mul(FNV_PRIME);
        Ok(b[0])
    }

    fn read_varint(&mut self) -> Result<u64, DiskError> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.read_byte()?;
            let payload = u64::from(byte & 0x7f);
            if shift == 63 && payload > 1 {
                return Err(DiskError::BadVarint);
            }
            v |= payload << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(DiskError::BadVarint)
    }

    fn read_reg(&mut self) -> Result<Reg, DiskError> {
        let r = self.read_byte()?;
        if r >= REG_LIMIT {
            return Err(DiskError::BadReg(r));
        }
        Ok(Reg(r))
    }

    fn read_record(&mut self) -> Result<Inst, DiskError> {
        let flags = self.read_byte()?;
        if flags & FLAG_RESERVED != 0 {
            return Err(DiskError::BadFlags(flags));
        }
        let op = op_from_code(flags & FLAG_OP_MASK).ok_or(DiskError::BadOpcode(flags))?;
        let taken = flags & FLAG_TAKEN != 0;
        if taken && op != OpClass::Branch {
            return Err(DiskError::BadFlags(flags));
        }
        let pc = self
            .state
            .prev_pc
            .wrapping_add(unzigzag(self.read_varint()?) as u64);
        self.state.prev_pc = pc;
        let dest = if flags & FLAG_DEST != 0 {
            Some(self.read_reg()?)
        } else {
            None
        };
        let src0 = if flags & FLAG_SRC0 != 0 {
            Some(self.read_reg()?)
        } else {
            None
        };
        let src1 = if flags & FLAG_SRC1 != 0 {
            Some(self.read_reg()?)
        } else {
            None
        };
        let mem_addr = if op.is_mem() {
            let addr = self
                .state
                .prev_mem
                .wrapping_add(unzigzag(self.read_varint()?) as u64);
            self.state.prev_mem = addr;
            Some(addr)
        } else {
            None
        };
        let target = if op == OpClass::Branch {
            pc.wrapping_add(unzigzag(self.read_varint()?) as u64)
        } else {
            0
        };
        Ok(Inst {
            pc,
            op,
            dest,
            srcs: [src0, src1],
            mem_addr,
            taken,
            target,
        })
    }

    /// Runs after the last record: digest must match the header and the
    /// stream must be exhausted.
    fn finalise(&mut self) -> Result<(), DiskError> {
        if self.digest != self.expected_digest {
            return Err(DiskError::DigestMismatch {
                expected: self.expected_digest,
                found: self.digest,
            });
        }
        let mut probe = [0u8; 1];
        match self.source.read(&mut probe) {
            Ok(0) => Ok(()),
            Ok(_) => Err(DiskError::TrailingBytes),
            Err(e) => Err(DiskError::Io(e)),
        }
    }
}

fn read_array<const N: usize>(source: &mut impl Read) -> Result<[u8; N], DiskError> {
    let mut buf = [0u8; N];
    source.read_exact(&mut buf)?;
    Ok(buf)
}

impl<R: Read> Iterator for TraceReader<R> {
    type Item = Result<Inst, DiskError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        if self.yielded == self.count {
            self.done = true;
            return match self.finalise() {
                Ok(()) => None,
                Err(e) => Some(Err(e)),
            };
        }
        match self.read_record() {
            Ok(inst) => {
                self.yielded += 1;
                Some(Ok(inst))
            }
            Err(e) => {
                self.done = true;
                Some(Err(e))
            }
        }
    }
}

/// A whole trace pulled off disk: the header identity plus the decoded
/// instructions.
#[derive(Debug)]
pub struct StoredTrace {
    /// Application name from the header.
    pub app: String,
    /// Seed from the header.
    pub seed: u64,
    /// The decoded instruction stream.
    pub insts: Vec<Inst>,
}

/// Writes `insts` to `path` atomically (temp file + rename), so a
/// concurrent reader sees either the old file or the complete new one.
pub fn write_trace(path: &Path, app: &str, seed: u64, insts: &[Inst]) -> Result<(), DiskError> {
    let tmp = path.with_extension("icrt.tmp");
    let result = (|| {
        let file = File::create(&tmp)?;
        let mut writer = TraceWriter::new(BufWriter::new(file), app, seed)?;
        for inst in insts {
            writer.write(inst)?;
        }
        writer.finish()?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Reads and fully verifies the trace at `path`.
///
/// The whole file is pulled into memory first and decoded with
/// [`decode_trace`]: replay is the hot path of the workload cache, and
/// per-byte `Read` calls (even buffered) cost more than interpreting
/// the kernel again would.
pub fn read_trace(path: &Path) -> Result<StoredTrace, DiskError> {
    decode_trace(&std::fs::read(path)?)
}

/// Borrowed-slice cursor behind [`decode_trace`]: same decode logic as
/// the streaming reader, minus the per-byte digest bookkeeping (the
/// digest is verified in one tight pass after decoding).
struct SliceReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> SliceReader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DiskError> {
        let end = self.pos.checked_add(n).ok_or(DiskError::Truncated)?;
        let s = self.data.get(self.pos..end).ok_or(DiskError::Truncated)?;
        self.pos = end;
        Ok(s)
    }

    fn byte(&mut self) -> Result<u8, DiskError> {
        let b = *self.data.get(self.pos).ok_or(DiskError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], DiskError> {
        Ok(self.take(N)?.try_into().expect("take returned N bytes"))
    }

    fn varint(&mut self) -> Result<u64, DiskError> {
        // Fast path: deltas are overwhelmingly one byte.
        let first = self.byte()?;
        if first & 0x80 == 0 {
            return Ok(u64::from(first));
        }
        let mut v = u64::from(first & 0x7f);
        let mut shift = 7u32;
        loop {
            let byte = self.byte()?;
            let payload = u64::from(byte & 0x7f);
            if shift == 63 && payload > 1 {
                return Err(DiskError::BadVarint);
            }
            v |= payload << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift >= 64 {
                return Err(DiskError::BadVarint);
            }
        }
    }

    fn reg(&mut self) -> Result<Reg, DiskError> {
        let r = self.byte()?;
        if r >= REG_LIMIT {
            return Err(DiskError::BadReg(r));
        }
        Ok(Reg(r))
    }

    fn record(&mut self, state: &mut DeltaState) -> Result<Inst, DiskError> {
        let flags = self.byte()?;
        if flags & FLAG_RESERVED != 0 {
            return Err(DiskError::BadFlags(flags));
        }
        let op = op_from_code(flags & FLAG_OP_MASK).ok_or(DiskError::BadOpcode(flags))?;
        let taken = flags & FLAG_TAKEN != 0;
        if taken && op != OpClass::Branch {
            return Err(DiskError::BadFlags(flags));
        }
        let pc = state.prev_pc.wrapping_add(unzigzag(self.varint()?) as u64);
        state.prev_pc = pc;
        let dest = if flags & FLAG_DEST != 0 {
            Some(self.reg()?)
        } else {
            None
        };
        let src0 = if flags & FLAG_SRC0 != 0 {
            Some(self.reg()?)
        } else {
            None
        };
        let src1 = if flags & FLAG_SRC1 != 0 {
            Some(self.reg()?)
        } else {
            None
        };
        let mem_addr = if op.is_mem() {
            let addr = state.prev_mem.wrapping_add(unzigzag(self.varint()?) as u64);
            state.prev_mem = addr;
            Some(addr)
        } else {
            None
        };
        let target = if op == OpClass::Branch {
            pc.wrapping_add(unzigzag(self.varint()?) as u64)
        } else {
            0
        };
        Ok(Inst {
            pc,
            op,
            dest,
            srcs: [src0, src1],
            mem_addr,
            taken,
            target,
        })
    }
}

/// Decodes and fully verifies a complete trace image already in memory
/// — the replay fast path behind [`read_trace`]. Checks and error
/// precedence match the streaming [`TraceReader`] exactly: decode
/// errors surface as encountered, then the payload digest is compared,
/// then trailing bytes are rejected.
pub fn decode_trace(data: &[u8]) -> Result<StoredTrace, DiskError> {
    let mut r = SliceReader { data, pos: 0 };
    let magic: [u8; 4] = r.array()?;
    if magic != MAGIC {
        return Err(DiskError::BadMagic(magic));
    }
    let version = u16::from_le_bytes(r.array()?);
    if version != VERSION {
        return Err(DiskError::UnsupportedVersion(version));
    }
    let app_len = u16::from_le_bytes(r.array()?);
    let app = String::from_utf8(r.take(usize::from(app_len))?.to_vec())
        .map_err(|_| DiskError::BadAppName)?;
    let seed = u64::from_le_bytes(r.array()?);
    let count = u64::from_le_bytes(r.array()?);
    let expected_digest = u64::from_le_bytes(r.array()?);

    let payload_start = r.pos;
    let mut state = DeltaState::default();
    // A record is at least 2 bytes (flags + Δpc varint), so a valid
    // `count` never exceeds half the payload; capping the preallocation
    // there keeps a corrupted count from driving a huge allocation
    // before the decode loop hits `Truncated`.
    let wanted = usize::try_from(count).unwrap_or(usize::MAX);
    let mut insts = Vec::with_capacity(wanted.min((data.len() - payload_start) / 2));
    for _ in 0..count {
        insts.push(r.record(&mut state)?);
    }
    let digest = fnv1a64(&data[payload_start..r.pos]);
    if digest != expected_digest {
        return Err(DiskError::DigestMismatch {
            expected: expected_digest,
            found: digest,
        });
    }
    if r.pos != data.len() {
        return Err(DiskError::TrailingBytes);
    }
    Ok(StoredTrace { app, seed, insts })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn sample() -> Vec<Inst> {
        vec![
            Inst::alu(
                0x40_0000,
                OpClass::IntAlu,
                Reg(5),
                [Some(Reg(1)), Some(Reg(2))],
            ),
            Inst::load(0x40_0004, 0x1000_0000, Reg(6), Some(Reg(5))),
            Inst::store(0x40_0008, 0x1000_0040, Reg(6), Some(Reg(5))),
            Inst::branch(0x40_000c, 0x40_0000, true, Some(Reg(6))),
            Inst::alu(0x40_0000, OpClass::FpMul, Reg(40), [Some(Reg(33)), None]),
        ]
    }

    fn encode(app: &str, seed: u64, insts: &[Inst]) -> Vec<u8> {
        let mut writer = TraceWriter::new(Cursor::new(Vec::new()), app, seed).unwrap();
        for i in insts {
            writer.write(i).unwrap();
        }
        writer.finish().unwrap().into_inner()
    }

    #[test]
    fn roundtrip_preserves_every_field() {
        let insts = sample();
        let bytes = encode("isa:bubble", 42, &insts);
        let reader = TraceReader::new(Cursor::new(&bytes)).unwrap();
        assert_eq!(reader.app(), "isa:bubble");
        assert_eq!(reader.seed(), 42);
        assert_eq!(reader.record_count(), insts.len() as u64);
        let back: Vec<Inst> = reader.map(|r| r.unwrap()).collect();
        assert_eq!(back, insts);
    }

    #[test]
    fn digest_matches_in_memory_helper() {
        let insts = sample();
        let bytes = encode("gzip", 7, &insts);
        // The header digest lives in the last 8 bytes of the header.
        let digest_pos = MAGIC.len() + 2 + 2 + "gzip".len() + 8 + 8;
        let stored = u64::from_le_bytes(bytes[digest_pos..digest_pos + 8].try_into().unwrap());
        assert_eq!(stored, trace_digest(&insts));
    }

    #[test]
    fn empty_trace_roundtrips() {
        let bytes = encode("gzip", 1, &[]);
        let reader = TraceReader::new(Cursor::new(&bytes)).unwrap();
        assert_eq!(reader.record_count(), 0);
        let insts: Vec<Inst> = reader.map(|r| r.unwrap()).collect();
        assert!(insts.is_empty());
    }

    #[test]
    fn delta_encoding_keeps_sequential_code_small() {
        // 1k sequential ALU ops: flags + 1-byte Δpc + 2 regs ≈ 5 bytes,
        // versus 40+ for the in-memory record.
        let insts: Vec<Inst> = (0..1000)
            .map(|i| {
                Inst::alu(
                    0x40_0000 + 4 * i,
                    OpClass::IntAlu,
                    Reg(1),
                    [Some(Reg(2)), None],
                )
            })
            .collect();
        let bytes = encode("gzip", 1, &insts);
        assert!(bytes.len() < insts.len() * 8, "got {} bytes", bytes.len());
    }

    #[test]
    fn writer_rejects_contract_violations() {
        let mut bad = Inst::alu(0, OpClass::IntAlu, Reg(70), [None, None]);
        bad.dest = Some(Reg(70));
        let mut writer = TraceWriter::new(Cursor::new(Vec::new()), "gzip", 1).unwrap();
        assert!(matches!(writer.write(&bad), Err(DiskError::Invalid(_))));
    }

    #[test]
    fn zigzag_roundtrips_extremes() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, 0x7fff_ffff, -0x8000_0000] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }
}
