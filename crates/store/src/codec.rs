//! Hand-rolled, versioned binary serialization for persisted design-store
//! entries and the server wire protocol.
//!
//! Everything here is **bit-exact**: `f64`s travel as `to_bits` words, so
//! `decode(encode(x))` reproduces `x` down to the sign of zero and NaN
//! payloads — the repo-wide invariant that Pareto fronts are bit-identical
//! across cache states and reuse paths extends to fronts that round-trip
//! through disk or a socket.
//!
//! ## Entry format (version [`VERSION`])
//!
//! ```text
//! magic "CYDS" | version u8 | key_len u32 | key bytes | payload | fnv1a u64
//! ```
//!
//! The canonical key bytes ([`key_bytes`]) are embedded verbatim and
//! compared on read: the store addresses entries by a *hash* of these bytes,
//! so a (vanishingly unlikely) filename collision degrades to a
//! [`DecodeError::KeyMismatch`] miss instead of serving a wrong front. The
//! trailing FNV-1a checksum covers every preceding byte; a flipped bit or a
//! truncated tail fails closed as a miss, never a panic or a wrong value.
//!
//! All integers are little-endian. Decoding is total: every read is
//! bounds-checked and every element count is sanity-checked against the
//! remaining payload size before allocating.

use cayman_analysis::wpst::WpstNodeId;
use cayman_hls::design::AcceleratorDesign;
use cayman_hls::interface::{InterfaceKind, InterfaceSpec};
use cayman_ir::fingerprint::fnv1a;
use cayman_ir::loops::LoopId;
use cayman_ir::{BlockId, FuncId, InstrId};
use cayman_select::cache::DesignKey;
use cayman_select::{SelectedKernel, Solution};
use std::fmt;

/// Magic bytes opening every persisted entry.
pub const MAGIC: [u8; 4] = *b"CYDS";
/// Current entry format version. Bump on any change to the layout or to
/// what a key means: readers treat other versions as misses (the writer
/// simply re-persists). Version 2 keys a candidate by its region
/// fingerprint (`CandidateKey::region_fp`) where version 1 carried the
/// whole function's content fingerprint; version 3's region fingerprint
/// sees an immediate operand's kind but not its value.
pub const VERSION: u8 = 3;

/// Why a decode failed. The store maps every variant to a clean miss; the
/// variant only picks which counter is bumped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended before the structure did.
    Truncated,
    /// Leading magic bytes are not [`MAGIC`].
    BadMagic,
    /// Entry written by a different format version.
    VersionMismatch(u8),
    /// Trailing FNV-1a checksum does not cover the bytes read.
    Checksum,
    /// Structurally invalid content (bad enum tag, absurd count, …).
    Malformed(&'static str),
    /// Entry is valid but stores a different key (filename-hash collision).
    KeyMismatch,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "entry truncated"),
            DecodeError::BadMagic => write!(f, "bad magic"),
            DecodeError::VersionMismatch(v) => write!(f, "format version {v} != {VERSION}"),
            DecodeError::Checksum => write!(f, "checksum mismatch"),
            DecodeError::Malformed(what) => write!(f, "malformed entry: {what}"),
            DecodeError::KeyMismatch => write!(f, "stored key differs (hash collision)"),
        }
    }
}

/// splitmix64 finaliser, for deriving a second independent address word
/// from an FNV state.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Little-endian byte sink.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    pub fn new() -> Self {
        Enc::default()
    }

    /// The encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Current length, for reserving/patching.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `f64` as its IEEE-754 bit pattern — the bit-exactness keystone.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Length-prefixed byte string.
    pub fn blob(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.bytes(v);
    }
}

/// Bounds-checked little-endian reader.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Reads from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Length-prefixed byte string.
    pub fn blob(&mut self) -> Result<&'a [u8], DecodeError> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    /// Reads an element count and rejects counts that could not possibly
    /// fit in the remaining bytes (each element occupies at least
    /// `min_elem_bytes`) — corrupt counts must not drive allocations.
    pub fn count(&mut self, min_elem_bytes: usize) -> Result<usize, DecodeError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(DecodeError::Malformed("element count exceeds payload"));
        }
        Ok(n)
    }
}

/// Stable `InterfaceKind` → tag mapping (append-only; reuse of a retired
/// tag requires a [`VERSION`] bump).
fn kind_tag(kind: InterfaceKind) -> u8 {
    match kind {
        InterfaceKind::Coupled => 0,
        InterfaceKind::Decoupled => 1,
        InterfaceKind::Scratchpad => 2,
        InterfaceKind::BankedScratchpad => 3,
        InterfaceKind::DoubleBuffered => 4,
        InterfaceKind::LineBuffer => 5,
    }
}

fn kind_of(tag: u8) -> Result<InterfaceKind, DecodeError> {
    Ok(match tag {
        0 => InterfaceKind::Coupled,
        1 => InterfaceKind::Decoupled,
        2 => InterfaceKind::Scratchpad,
        3 => InterfaceKind::BankedScratchpad,
        4 => InterfaceKind::DoubleBuffered,
        5 => InterfaceKind::LineBuffer,
        _ => return Err(DecodeError::Malformed("unknown interface kind tag")),
    })
}

/// Canonical byte encoding of a [`DesignKey`] — the content that is hashed
/// into the on-disk address and embedded in the entry for collision
/// detection. Field order is part of the format.
pub fn key_bytes(key: &DesignKey) -> Vec<u8> {
    let mut e = Enc::new();
    e.blob(key.model.name.as_bytes());
    e.u64(key.model.options);
    e.u32(key.candidate.func.0);
    e.u64(key.candidate.region_fp);
    e.u32(key.candidate.blocks.len() as u32);
    for b in &key.candidate.blocks {
        e.u32(b.0);
    }
    e.u64(key.candidate.entries);
    e.u64(key.candidate.cpu_cycles);
    e.u8(u8::from(key.candidate.is_bb));
    e.finish()
}

fn encode_design(e: &mut Enc, d: &AcceleratorDesign) {
    e.u32(d.func.0);
    e.u32(d.blocks.len() as u32);
    for b in &d.blocks {
        e.u32(b.0);
    }
    e.u32(d.unroll);
    e.u32(d.pipelined.len() as u32);
    for l in &d.pipelined {
        e.u32(l.0);
    }
    e.u32(d.pipelined_detail.len() as u32);
    for (l, blocks, unroll) in &d.pipelined_detail {
        e.u32(l.0);
        e.u32(blocks.len() as u32);
        for b in blocks {
            e.u32(b.0);
        }
        e.u32(*unroll);
    }
    e.u32(d.interfaces.len() as u32);
    for (instr, spec) in &d.interfaces {
        e.u32(instr.0);
        e.u8(kind_tag(spec.kind));
        e.u16(spec.banks);
        e.u16(spec.depth);
        e.u16(spec.ports);
    }
    e.u64(d.seq_blocks as u64);
    e.f64(d.accel_cycles_total);
    e.f64(d.area);
    e.u64(d.cpu_cycles);
    e.u64(d.entries);
}

fn decode_design(d: &mut Dec) -> Result<AcceleratorDesign, DecodeError> {
    let func = FuncId(d.u32()?);
    let blocks = (0..d.count(4)?)
        .map(|_| d.u32().map(BlockId))
        .collect::<Result<Vec<_>, _>>()?;
    let unroll = d.u32()?;
    let pipelined = (0..d.count(4)?)
        .map(|_| d.u32().map(LoopId))
        .collect::<Result<Vec<_>, _>>()?;
    let mut pipelined_detail = Vec::new();
    for _ in 0..d.count(12)? {
        let l = LoopId(d.u32()?);
        let blocks = (0..d.count(4)?)
            .map(|_| d.u32().map(BlockId))
            .collect::<Result<Vec<_>, _>>()?;
        pipelined_detail.push((l, blocks, d.u32()?));
    }
    let mut interfaces = Vec::new();
    for _ in 0..d.count(11)? {
        let instr = InstrId(d.u32()?);
        let kind = kind_of(d.u8()?)?;
        interfaces.push((
            instr,
            InterfaceSpec {
                kind,
                banks: d.u16()?,
                depth: d.u16()?,
                ports: d.u16()?,
            },
        ));
    }
    Ok(AcceleratorDesign {
        func,
        blocks,
        unroll,
        pipelined,
        pipelined_detail,
        interfaces,
        seq_blocks: d.u64()? as usize,
        accel_cycles_total: d.f64()?,
        area: d.f64()?,
        cpu_cycles: d.u64()?,
        entries: d.u64()?,
    })
}

/// Encodes a design vector (the memoised `accel(v, R)` result) into the
/// body of an encoder — shared by the entry format and the wire protocol.
pub fn encode_designs(e: &mut Enc, designs: &[AcceleratorDesign]) {
    e.u32(designs.len() as u32);
    for d in designs {
        encode_design(e, d);
    }
}

/// Decodes a design vector written by [`encode_designs`].
pub fn decode_designs(d: &mut Dec) -> Result<Vec<AcceleratorDesign>, DecodeError> {
    // A design is ≥ 60 bytes; 60 is a safe per-element floor for the count
    // sanity check.
    (0..d.count(60)?).map(|_| decode_design(d)).collect()
}

/// Serializes one complete store entry for `key` (see the module docs for
/// the layout).
pub fn encode_entry(key: &DesignKey, designs: &[AcceleratorDesign]) -> Vec<u8> {
    let mut e = Enc::new();
    e.bytes(&MAGIC);
    e.u8(VERSION);
    e.blob(&key_bytes(key));
    encode_designs(&mut e, designs);
    let checksum = fnv1a(&e.buf);
    e.u64(checksum);
    e.finish()
}

/// Decodes a store entry, verifying magic, version, checksum, and that the
/// embedded key equals `expect_key` (the canonical bytes of the key being
/// looked up).
pub fn decode_entry(
    bytes: &[u8],
    expect_key: &[u8],
) -> Result<Vec<AcceleratorDesign>, DecodeError> {
    if bytes.len() < MAGIC.len() + 1 + 8 {
        return Err(DecodeError::Truncated);
    }
    if bytes[..MAGIC.len()] != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let version = bytes[MAGIC.len()];
    if version != VERSION {
        return Err(DecodeError::VersionMismatch(version));
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(tail.try_into().unwrap());
    if fnv1a(body) != stored {
        return Err(DecodeError::Checksum);
    }
    let mut d = Dec::new(&body[MAGIC.len() + 1..]);
    if d.blob()? != expect_key {
        return Err(DecodeError::KeyMismatch);
    }
    let designs = decode_designs(&mut d)?;
    if d.remaining() != 0 {
        return Err(DecodeError::Malformed("trailing bytes after designs"));
    }
    Ok(designs)
}

/// Encodes a selection front (wire protocol body; no magic/checksum — the
/// frame layer owns integrity there).
pub fn encode_front(e: &mut Enc, front: &[Solution]) {
    e.u32(front.len() as u32);
    for s in front {
        e.f64(s.area);
        e.f64(s.saved_seconds);
        e.u32(s.kernels.len() as u32);
        for k in &s.kernels {
            e.u32(k.node.0);
            encode_design(e, &k.design);
        }
    }
}

/// Decodes a selection front written by [`encode_front`].
pub fn decode_front(d: &mut Dec) -> Result<Vec<Solution>, DecodeError> {
    let mut front = Vec::new();
    for _ in 0..d.count(20)? {
        let area = d.f64()?;
        let saved_seconds = d.f64()?;
        let mut kernels = Vec::new();
        for _ in 0..d.count(64)? {
            let node = WpstNodeId(d.u32()?);
            kernels.push(SelectedKernel {
                node,
                design: decode_design(d)?,
            });
        }
        front.push(Solution {
            kernels,
            area,
            saved_seconds,
        });
    }
    Ok(front)
}

fn design_bits_equal(a: &AcceleratorDesign, b: &AcceleratorDesign) -> bool {
    a.func == b.func
        && a.blocks == b.blocks
        && a.unroll == b.unroll
        && a.pipelined == b.pipelined
        && a.pipelined_detail == b.pipelined_detail
        && a.interfaces == b.interfaces
        && a.seq_blocks == b.seq_blocks
        && a.accel_cycles_total.to_bits() == b.accel_cycles_total.to_bits()
        && a.area.to_bits() == b.area.to_bits()
        && a.cpu_cycles == b.cpu_cycles
        && a.entries == b.entries
}

/// Field-by-field, bit-exact (`to_bits` on floats) design-vector equality.
pub fn designs_bits_equal(a: &[AcceleratorDesign], b: &[AcceleratorDesign]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| design_bits_equal(x, y))
}

/// Bit-exact Pareto-front equality: every solution's area/saving bits, node
/// ids and full design contents must match.
pub fn fronts_bits_equal(a: &[Solution], b: &[Solution]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.area.to_bits() == y.area.to_bits()
                && x.saved_seconds.to_bits() == y.saved_seconds.to_bits()
                && x.kernels.len() == y.kernels.len()
                && x.kernels
                    .iter()
                    .zip(&y.kernels)
                    .all(|(k, l)| k.node == l.node && design_bits_equal(&k.design, &l.design))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cayman_hls::inputs::CandidateKey;
    use cayman_select::cache::ModelId;

    fn sample_key() -> DesignKey {
        DesignKey {
            model: ModelId {
                name: "cayman",
                options: 0xDEAD_BEEF,
            },
            candidate: CandidateKey {
                func: FuncId(3),
                region_fp: 0x1234_5678_9ABC_DEF0,
                blocks: vec![BlockId(1), BlockId(2), BlockId(7)],
                entries: 42,
                cpu_cycles: 1_000_000,
                is_bb: false,
            },
        }
    }

    fn sample_design() -> AcceleratorDesign {
        AcceleratorDesign {
            func: FuncId(3),
            blocks: vec![BlockId(1), BlockId(2)],
            unroll: 4,
            pipelined: vec![LoopId(0)],
            pipelined_detail: vec![(LoopId(0), vec![BlockId(2)], 4)],
            interfaces: vec![
                (InstrId(9), InterfaceSpec::coupled()),
                (InstrId(11), InterfaceSpec::line_buffer(3)),
            ],
            seq_blocks: 1,
            accel_cycles_total: 1234.5,
            area: -0.0, // sign of zero must survive
            cpu_cycles: 999,
            entries: 42,
        }
    }

    #[test]
    fn entry_roundtrip_is_bit_exact() {
        let key = sample_key();
        let designs = vec![sample_design(), sample_design()];
        let bytes = encode_entry(&key, &designs);
        let decoded = decode_entry(&bytes, &key_bytes(&key)).expect("decodes");
        assert!(designs_bits_equal(&decoded, &designs));
        assert_eq!(decoded[0].area.to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn entry_rejects_every_corruption_class() {
        let key = sample_key();
        let bytes = encode_entry(&key, &[sample_design()]);
        let expect = key_bytes(&key);

        let err = |r: Result<Vec<AcceleratorDesign>, DecodeError>| r.unwrap_err();
        assert_eq!(err(decode_entry(&[], &expect)), DecodeError::Truncated);
        assert_eq!(
            err(decode_entry(&bytes[..bytes.len() / 2], &expect)),
            DecodeError::Checksum,
            "mid-entry truncation fails the checksum"
        );
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(err(decode_entry(&bad, &expect)), DecodeError::BadMagic);
        let mut bad = bytes.clone();
        bad[4] = VERSION + 1;
        assert_eq!(
            err(decode_entry(&bad, &expect)),
            DecodeError::VersionMismatch(VERSION + 1)
        );
        let mut bad = bytes.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x40;
        assert_eq!(err(decode_entry(&bad, &expect)), DecodeError::Checksum);

        // a different key's bytes → collision miss, not a wrong front
        let mut other = sample_key();
        other.candidate.entries = 43;
        assert_eq!(
            err(decode_entry(&bytes, &key_bytes(&other))),
            DecodeError::KeyMismatch
        );
    }

    #[test]
    fn front_roundtrip_is_bit_exact() {
        let front = vec![
            Solution::default(),
            Solution {
                kernels: vec![SelectedKernel {
                    node: WpstNodeId(5),
                    design: sample_design(),
                }],
                area: 17.25,
                saved_seconds: f64::from_bits(0x7FF8_0000_0000_0001), // NaN payload
            },
        ];
        let mut e = Enc::new();
        encode_front(&mut e, &front);
        let bytes = e.finish();
        let decoded = decode_front(&mut Dec::new(&bytes)).expect("decodes");
        assert!(fronts_bits_equal(&decoded, &front));
    }

    #[test]
    fn key_bytes_are_injective_on_field_tweaks() {
        let base = key_bytes(&sample_key());
        let mut k = sample_key();
        k.candidate.is_bb = true;
        assert_ne!(base, key_bytes(&k));
        let mut k = sample_key();
        k.model.options += 1;
        assert_ne!(base, key_bytes(&k));
        let mut k = sample_key();
        k.candidate.blocks.push(BlockId(8));
        assert_ne!(base, key_bytes(&k));
    }

    #[test]
    fn absurd_counts_are_malformed_not_allocated() {
        // hand-build an entry whose design count claims u32::MAX
        let key = sample_key();
        let mut e = Enc::new();
        e.bytes(&MAGIC);
        e.u8(VERSION);
        e.blob(&key_bytes(&key));
        e.u32(u32::MAX);
        let checksum = fnv1a(&e.buf);
        e.u64(checksum);
        assert_eq!(
            decode_entry(&e.finish(), &key_bytes(&key)).unwrap_err(),
            DecodeError::Malformed("element count exceeds payload")
        );
    }
}
