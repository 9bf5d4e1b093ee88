//! The engine snapshot byte format: a versioned, hand-rolled binary
//! encoding used by `ClusterSimulation::checkpoint` / `resume`.
//!
//! The build environment's `serde` is a marker-trait stub, so snapshots
//! are serialized by hand through [`ByteWriter`] / [`ByteReader`]. The
//! format contract:
//!
//! * Every snapshot starts with [`SNAPSHOT_MAGIC`] and a `u32`
//!   [`SNAPSHOT_VERSION`]. Readers reject other magics and versions —
//!   there is no cross-version migration; a version bump invalidates old
//!   snapshots (and the golden byte digest pinned in
//!   `tests/checkpoint_restore.rs` must be updated with it).
//! * All integers are little-endian fixed width; `usize` travels as
//!   `u64`; `f64` travels as its IEEE-754 bit pattern (`to_bits`), so
//!   values round-trip bit-exactly, including `-0.0` and infinities.
//! * Collections are length-prefixed (`u64` count). Hash maps are
//!   serialized sorted by key so snapshot bytes never depend on hash
//!   iteration order, and heaps are written in their pop order so bytes
//!   never depend on the heap's internal layout.
//! * No wall-clock or host-dependent value may be written: two
//!   snapshots of the same run at the same event boundary must be
//!   byte-identical across machines and across time.

use crate::resources::{ResourceKind, ResourceVector};
use crate::vm::{Priority, VmClass, VmSpec};
use std::error::Error;
use std::fmt;

/// First bytes of every snapshot: "DFL" + format generation.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"DFLS";

/// Current snapshot format version. Bump on ANY byte-format change —
/// the golden digest test will force the bump by failing otherwise.
pub const SNAPSHOT_VERSION: u32 = 3;

/// Why a snapshot could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The buffer does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The snapshot was written by a different format version.
    VersionMismatch {
        /// Version found in the snapshot header.
        found: u32,
        /// Version this build reads ([`SNAPSHOT_VERSION`]).
        expected: u32,
    },
    /// The buffer ended before the decoder was done.
    Truncated,
    /// The bytes decoded but described an impossible state (bad
    /// discriminant, count overflow, state inconsistent with the
    /// restoring simulation's configuration).
    Corrupt(String),
    /// Decoding finished with bytes left over.
    TrailingBytes(usize),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "snapshot does not start with the DFLS magic"),
            CheckpointError::VersionMismatch { found, expected } => write!(
                f,
                "snapshot format version {found} is not the supported version {expected}"
            ),
            CheckpointError::Truncated => write!(f, "snapshot ends mid-field"),
            CheckpointError::Corrupt(what) => write!(f, "snapshot is corrupt: {what}"),
            CheckpointError::TrailingBytes(n) => {
                write!(f, "snapshot has {n} unconsumed trailing bytes")
            }
        }
    }
}

impl Error for CheckpointError {}

/// Convenience alias for decode results.
pub type CheckpointResult<T> = std::result::Result<T, CheckpointError>;

/// Append-only encoder for the snapshot byte format.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer (no header).
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// A writer primed with the snapshot header (magic + version).
    pub fn with_header() -> Self {
        let mut w = ByteWriter::new();
        w.buf.extend_from_slice(&SNAPSHOT_MAGIC);
        w.put_u32(SNAPSHOT_VERSION);
        w
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the writer, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Write one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Write a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `usize` as a `u64` (collection counts, indices).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Write an `f64` as its exact bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_usize(v.len());
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// Write a length-prefixed slice of `f64`s.
    pub fn put_f64_slice(&mut self, vs: &[f64]) {
        self.put_usize(vs.len());
        for &v in vs {
            self.put_f64(v);
        }
    }

    /// Write raw bytes without a length prefix (sub-encoders that carry
    /// their own structure).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Write a [`ResourceVector`] as its four components in
    /// [`ResourceKind::ALL`] order.
    pub fn put_resources(&mut self, v: &ResourceVector) {
        for kind in ResourceKind::ALL {
            self.put_f64(v[kind]);
        }
    }

    /// Write a full [`VmSpec`].
    pub fn put_vm_spec(&mut self, spec: &VmSpec) {
        self.put_u64(spec.id.0);
        self.put_u8(match spec.class {
            VmClass::Interactive => 0,
            VmClass::DelayInsensitive => 1,
            VmClass::Unknown => 2,
        });
        self.put_resources(&spec.max_allocation);
        self.put_resources(&spec.min_allocation);
        self.put_f64(spec.priority.value());
        self.put_bool(spec.deflatable);
    }
}

/// Cursor-based decoder for the snapshot byte format.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over raw bytes (no header check).
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// A reader that has validated the snapshot header (magic +
    /// version) and is positioned after it.
    pub fn with_header(buf: &'a [u8]) -> CheckpointResult<Self> {
        let mut r = ByteReader::new(buf);
        let magic = r.take(SNAPSHOT_MAGIC.len())?;
        if magic != SNAPSHOT_MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = r.get_u32()?;
        if version != SNAPSHOT_VERSION {
            return Err(CheckpointError::VersionMismatch {
                found: version,
                expected: SNAPSHOT_VERSION,
            });
        }
        Ok(r)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Take `n` raw bytes.
    pub fn take(&mut self, n: usize) -> CheckpointResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(CheckpointError::Truncated);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> CheckpointResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a bool; any byte other than 0/1 is corrupt.
    pub fn get_bool(&mut self) -> CheckpointResult<bool> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CheckpointError::Corrupt(format!(
                "bool byte {other} is neither 0 nor 1"
            ))),
        }
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self) -> CheckpointResult<u32> {
        let bytes = self.take(4)?;
        Ok(u32::from_le_bytes(bytes.try_into().expect("4 bytes")))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self) -> CheckpointResult<u64> {
        let bytes = self.take(8)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    /// Read a `usize` written by [`ByteWriter::put_usize`].
    pub fn get_usize(&mut self) -> CheckpointResult<usize> {
        let v = self.get_u64()?;
        usize::try_from(v)
            .map_err(|_| CheckpointError::Corrupt(format!("count {v} overflows usize")))
    }

    /// Read the length prefix of a sequence whose entries take at least
    /// `min_entry_bytes` each. A length whose entries cannot fit in the
    /// bytes left is [`CheckpointError::Corrupt`], so the returned count is
    /// safe to preallocate for.
    pub fn get_len(&mut self, min_entry_bytes: usize) -> CheckpointResult<usize> {
        let len = self.get_usize()?;
        match len.checked_mul(min_entry_bytes) {
            Some(bytes) if bytes <= self.remaining() => Ok(len),
            _ => Err(CheckpointError::Corrupt(format!(
                "length {len} needs at least {min_entry_bytes} bytes per entry, {} left",
                self.remaining()
            ))),
        }
    }

    /// Read an `f64` from its bit pattern.
    pub fn get_f64(&mut self) -> CheckpointResult<f64> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> CheckpointResult<String> {
        let len = self.get_usize()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| CheckpointError::Corrupt("string is not UTF-8".into()))
    }

    /// Read a length-prefixed `f64` vector.
    pub fn get_f64_vec(&mut self) -> CheckpointResult<Vec<f64>> {
        let len = self.get_len(8)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.get_f64()?);
        }
        Ok(out)
    }

    /// Read a [`ResourceVector`] written by [`ByteWriter::put_resources`].
    pub fn get_resources(&mut self) -> CheckpointResult<ResourceVector> {
        Ok(ResourceVector::new(
            self.get_f64()?,
            self.get_f64()?,
            self.get_f64()?,
            self.get_f64()?,
        ))
    }

    /// Read a [`VmSpec`] written by [`ByteWriter::put_vm_spec`].
    ///
    /// `Priority::new` clamps, but any priority that was *stored* in a
    /// spec is already inside the clamp range, so the round-trip is
    /// bit-exact.
    pub fn get_vm_spec(&mut self) -> CheckpointResult<VmSpec> {
        let id = crate::vm::VmId(self.get_u64()?);
        let class = match self.get_u8()? {
            0 => VmClass::Interactive,
            1 => VmClass::DelayInsensitive,
            2 => VmClass::Unknown,
            other => {
                return Err(CheckpointError::Corrupt(format!(
                    "unknown VmClass discriminant {other}"
                )))
            }
        };
        let max_allocation = self.get_resources()?;
        let min_allocation = self.get_resources()?;
        // Later code clamps into `[min, max]`-derived ranges, and
        // `f64::clamp` panics on a NaN or inverted bound.
        let valid = |v: &ResourceVector| v.iter().all(|(_, c)| c.is_finite() && c >= 0.0);
        let ordered = min_allocation
            .iter()
            .zip(max_allocation.iter())
            .all(|((_, lo), (_, hi))| lo <= hi);
        if !valid(&max_allocation) || !valid(&min_allocation) || !ordered {
            return Err(CheckpointError::Corrupt(format!(
                "VM {} spec has allocations min {min_allocation} / max {max_allocation}",
                id.0
            )));
        }
        let priority = Priority::new(self.get_f64()?);
        let deflatable = self.get_bool()?;
        Ok(VmSpec {
            id,
            class,
            max_allocation,
            min_allocation,
            priority,
            deflatable,
        })
    }

    /// Assert every byte was consumed.
    pub fn finish(self) -> CheckpointResult<()> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CheckpointError::TrailingBytes(self.remaining()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_bool(false);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_usize(12345);
        w.put_f64(-0.0);
        w.put_f64(f64::INFINITY);
        w.put_f64(1.0 / 3.0);
        w.put_str("héllo");
        w.put_f64_slice(&[1.5, f64::NEG_INFINITY]);
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert!(r.get_bool().unwrap());
        assert!(!r.get_bool().unwrap());
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_usize().unwrap(), 12345);
        let neg_zero = r.get_f64().unwrap();
        assert_eq!(neg_zero.to_bits(), (-0.0f64).to_bits(), "-0.0 exact");
        assert_eq!(r.get_f64().unwrap(), f64::INFINITY);
        assert_eq!(r.get_f64().unwrap().to_bits(), (1.0f64 / 3.0).to_bits());
        assert_eq!(r.get_str().unwrap(), "héllo");
        let vs = r.get_f64_vec().unwrap();
        assert_eq!(vs.len(), 2);
        assert_eq!(vs[0], 1.5);
        assert_eq!(vs[1], f64::NEG_INFINITY);
        r.finish().unwrap();
    }

    #[test]
    fn header_round_trip_and_rejections() {
        let bytes = ByteWriter::with_header().into_bytes();
        let r = ByteReader::with_header(&bytes).unwrap();
        r.finish().unwrap();

        // Wrong magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert_eq!(
            ByteReader::with_header(&bad).unwrap_err(),
            CheckpointError::BadMagic
        );

        // Wrong version.
        let mut w = ByteWriter::new();
        w.put_bytes(&SNAPSHOT_MAGIC);
        w.put_u32(SNAPSHOT_VERSION + 1);
        let newer = w.into_bytes();
        assert_eq!(
            ByteReader::with_header(&newer).unwrap_err(),
            CheckpointError::VersionMismatch {
                found: SNAPSHOT_VERSION + 1,
                expected: SNAPSHOT_VERSION,
            }
        );

        // Truncated header.
        assert_eq!(
            ByteReader::with_header(&bytes[..3]).unwrap_err(),
            CheckpointError::Truncated
        );
    }

    #[test]
    fn truncation_and_trailing_detected() {
        let mut w = ByteWriter::new();
        w.put_u64(42);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes[..5]);
        assert_eq!(r.get_u64().unwrap_err(), CheckpointError::Truncated);

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u32().unwrap(), 42);
        assert_eq!(r.finish().unwrap_err(), CheckpointError::TrailingBytes(4));
    }

    #[test]
    fn vm_spec_round_trips_bit_exactly() {
        use crate::vm::{VmClass, VmId, VmSpec};
        let spec = VmSpec::deflatable(
            VmId(99),
            VmClass::DelayInsensitive,
            ResourceVector::new(4000.0, 8192.0, 100.0, 1000.0),
        )
        .with_priority(Priority::new(0.4))
        .with_priority_derived_min();
        let mut w = ByteWriter::new();
        w.put_vm_spec(&spec);
        w.put_resources(&ResourceVector::new(-0.0, f64::INFINITY, 1.0 / 3.0, 0.1));
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_vm_spec().unwrap(), spec);
        let v = r.get_resources().unwrap();
        assert_eq!(v[ResourceKind::Cpu].to_bits(), (-0.0f64).to_bits());
        assert_eq!(v[ResourceKind::Memory], f64::INFINITY);
        r.finish().unwrap();
    }

    #[test]
    fn bad_bool_byte_is_corrupt() {
        let mut w = ByteWriter::new();
        w.put_u8(2);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(
            r.get_bool().unwrap_err(),
            CheckpointError::Corrupt(_)
        ));
    }
}
