//! Compact, versioned binary codec for model checkpoints and datasets.
//!
//! We deliberately do not pull in a serialization framework: checkpoints are
//! flat tensors plus a handful of scalars, so a little-endian tag-free codec
//! over the `bytes` crate is smaller, faster, and keeps the workspace's
//! dependency surface tiny. Every top-level artifact starts with a magic and
//! a format version so stale files fail loudly instead of deserializing into
//! garbage weights.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;

/// Error type for decoding failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Buffer ended before the value was complete.
    Truncated { needed: usize, remaining: usize },
    /// Magic bytes did not match.
    BadMagic { expected: [u8; 4], found: [u8; 4] },
    /// Unsupported format version.
    BadVersion { expected: u32, found: u32 },
    /// A length prefix was implausibly large (corrupt stream guard).
    LengthOverflow(u64),
    /// A UTF-8 string field held invalid bytes.
    BadUtf8,
    /// A sealed container's payload checksum did not match (bit rot or
    /// a truncated/edited artifact).
    BadChecksum { expected: u64, found: u64 },
    /// Decoded fields disagree with each other (a tensor whose stored
    /// shape does not match the dimensions declared for it).
    BadShape(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { needed, remaining } => {
                write!(
                    f,
                    "truncated stream: needed {needed} bytes, {remaining} remaining"
                )
            }
            CodecError::BadMagic { expected, found } => {
                write!(f, "bad magic: expected {expected:?}, found {found:?}")
            }
            CodecError::BadVersion { expected, found } => {
                write!(f, "unsupported version {found} (expected {expected})")
            }
            CodecError::LengthOverflow(n) => write!(f, "length prefix too large: {n}"),
            CodecError::BadUtf8 => write!(f, "invalid UTF-8 in string field"),
            CodecError::BadChecksum { expected, found } => write!(
                f,
                "payload checksum mismatch: sealed {expected:#018x}, computed {found:#018x} \
                 (artifact corrupt or truncated)"
            ),
            CodecError::BadShape(what) => write!(f, "inconsistent shapes: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Hard cap on any single length prefix; prevents a corrupt file from
/// triggering a multi-gigabyte allocation.
const MAX_LEN: u64 = 1 << 32;

/// Streaming encoder.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: BytesMut,
}

impl Encoder {
    /// Fresh encoder.
    pub fn new() -> Self {
        Self {
            buf: BytesMut::new(),
        }
    }

    /// Encoder that starts with a magic + version header.
    pub fn with_header(magic: [u8; 4], version: u32) -> Self {
        let mut e = Self::new();
        e.buf.put_slice(&magic);
        e.buf.put_u32_le(version);
        e
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.put_u8(v);
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.put_u32_le(v);
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.put_u64_le(v);
    }

    pub fn put_f32(&mut self, v: f32) {
        self.buf.put_f32_le(v);
    }

    pub fn put_f64(&mut self, v: f64) {
        self.buf.put_f64_le(v);
    }

    pub fn put_bool(&mut self, v: bool) {
        self.buf.put_u8(v as u8);
    }

    /// Length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u64(s.len() as u64);
        self.buf.put_slice(s.as_bytes());
    }

    /// Length-prefixed f32 slice (the tensor workhorse).
    pub fn put_f32_slice(&mut self, xs: &[f32]) {
        self.put_u64(xs.len() as u64);
        for &x in xs {
            self.buf.put_f32_le(x);
        }
    }

    /// Length-prefixed u32 slice.
    pub fn put_u32_slice(&mut self, xs: &[u32]) {
        self.put_u64(xs.len() as u64);
        for &x in xs {
            self.buf.put_u32_le(x);
        }
    }

    /// Finish and return the encoded bytes.
    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }
}

/// Streaming decoder over a byte slice.
#[derive(Debug)]
pub struct Decoder {
    buf: Bytes,
}

impl Decoder {
    pub fn new(bytes: Bytes) -> Self {
        Self { buf: bytes }
    }

    /// Verify a magic + version header written by [`Encoder::with_header`].
    pub fn expect_header(&mut self, magic: [u8; 4], version: u32) -> Result<(), CodecError> {
        let mut found = [0u8; 4];
        self.take(4)?.copy_to_slice(&mut found);
        if found != magic {
            return Err(CodecError::BadMagic {
                expected: magic,
                found,
            });
        }
        let v = self.u32()?;
        if v != version {
            return Err(CodecError::BadVersion {
                expected: version,
                found: v,
            });
        }
        Ok(())
    }

    fn take(&mut self, n: usize) -> Result<Bytes, CodecError> {
        if self.buf.remaining() < n {
            return Err(CodecError::Truncated {
                needed: n,
                remaining: self.buf.remaining(),
            });
        }
        Ok(self.buf.split_to(n))
    }

    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?.get_u8())
    }

    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(self.take(4)?.get_u32_le())
    }

    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(self.take(8)?.get_u64_le())
    }

    pub fn f32(&mut self) -> Result<f32, CodecError> {
        Ok(self.take(4)?.get_f32_le())
    }

    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(self.take(8)?.get_f64_le())
    }

    pub fn bool(&mut self) -> Result<bool, CodecError> {
        Ok(self.u8()? != 0)
    }

    fn len_prefix(&mut self) -> Result<usize, CodecError> {
        let n = self.u64()?;
        if n > MAX_LEN {
            return Err(CodecError::LengthOverflow(n));
        }
        Ok(n as usize)
    }

    pub fn string(&mut self) -> Result<String, CodecError> {
        let n = self.len_prefix()?;
        let raw = self.take(n)?;
        String::from_utf8(raw.to_vec()).map_err(|_| CodecError::BadUtf8)
    }

    pub fn f32_vec(&mut self) -> Result<Vec<f32>, CodecError> {
        let n = self.len_prefix()?;
        let mut raw = self.take(
            n.checked_mul(4)
                .ok_or(CodecError::LengthOverflow(n as u64))?,
        )?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(raw.get_f32_le());
        }
        Ok(out)
    }

    pub fn u32_vec(&mut self) -> Result<Vec<u32>, CodecError> {
        let n = self.len_prefix()?;
        let mut raw = self.take(
            n.checked_mul(4)
                .ok_or(CodecError::LengthOverflow(n as u64))?,
        )?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(raw.get_u32_le());
        }
        Ok(out)
    }

    /// A length-prefixed block of raw bytes (a nested encoding).
    pub fn bytes(&mut self) -> Result<Bytes, CodecError> {
        let n = self.len_prefix()?;
        self.take(n)
    }

    /// A u64 count of items that each take at least `min_item` bytes,
    /// rejected when that many could not fit in the bytes left: a corrupt
    /// count fails here instead of sizing an allocation.
    pub fn count(&mut self, min_item: usize) -> Result<usize, CodecError> {
        let n = self.u64()?;
        if n > (self.remaining() / min_item.max(1)) as u64 {
            return Err(CodecError::LengthOverflow(n));
        }
        Ok(n as usize)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.remaining()
    }
}

// ---------------------------------------------------------------------------
// Sealed containers
// ---------------------------------------------------------------------------

/// FNV-1a 64-bit hash — the sealed-container payload checksum. Not
/// cryptographic; it detects bit rot, truncation, and casual edits, which
/// is all an incident artifact needs.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Wrap `payload` in a sealed container: magic, version, payload length,
/// FNV-1a checksum of the payload, then the payload itself. [`unseal`]
/// refuses to yield a byte of payload unless every envelope field checks
/// out, so a sealed artifact either opens intact or fails loudly.
pub fn seal(magic: [u8; 4], version: u32, payload: &[u8]) -> Vec<u8> {
    let mut e = Encoder::with_header(magic, version);
    e.put_u64(payload.len() as u64);
    e.put_u64(checksum64(payload));
    e.buf.put_slice(payload);
    e.finish().to_vec()
}

/// Open a container written by [`seal`], verifying magic, version, length,
/// and checksum before returning the payload.
pub fn unseal(magic: [u8; 4], version: u32, bytes: &[u8]) -> Result<Bytes, CodecError> {
    let mut d = Decoder::new(Bytes::from(bytes));
    d.expect_header(magic, version)?;
    let len = d.u64()?;
    if len > MAX_LEN {
        return Err(CodecError::LengthOverflow(len));
    }
    let expected = d.u64()?;
    let payload = d.take(len as usize)?;
    if d.remaining() != 0 {
        return Err(CodecError::LengthOverflow(
            len + d.remaining() as u64, // trailing garbage after the sealed payload
        ));
    }
    let found = checksum64(&payload);
    if found != expected {
        return Err(CodecError::BadChecksum { expected, found });
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trip() {
        let mut e = Encoder::new();
        e.put_u8(7);
        e.put_u32(0xDEAD_BEEF);
        e.put_u64(u64::MAX);
        e.put_f32(1.5);
        e.put_f64(-2.25);
        e.put_bool(true);
        e.put_str("lustre error");
        let mut d = Decoder::new(e.finish());
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX);
        assert_eq!(d.f32().unwrap(), 1.5);
        assert_eq!(d.f64().unwrap(), -2.25);
        assert!(d.bool().unwrap());
        assert_eq!(d.string().unwrap(), "lustre error");
        assert_eq!(d.remaining(), 0);
    }

    #[test]
    fn slice_round_trip() {
        let mut e = Encoder::new();
        e.put_f32_slice(&[0.0, -1.0, f32::MAX, f32::MIN_POSITIVE]);
        e.put_u32_slice(&[1, 2, 3]);
        let mut d = Decoder::new(e.finish());
        assert_eq!(
            d.f32_vec().unwrap(),
            vec![0.0, -1.0, f32::MAX, f32::MIN_POSITIVE]
        );
        assert_eq!(d.u32_vec().unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn header_round_trip_and_mismatch() {
        let e = Encoder::with_header(*b"DESH", 3);
        let bytes = e.finish();
        let mut ok = Decoder::new(bytes.clone());
        ok.expect_header(*b"DESH", 3).unwrap();

        let mut bad_magic = Decoder::new(bytes.clone());
        assert!(matches!(
            bad_magic.expect_header(*b"XXXX", 3),
            Err(CodecError::BadMagic { .. })
        ));

        let mut bad_version = Decoder::new(bytes);
        assert!(matches!(
            bad_version.expect_header(*b"DESH", 4),
            Err(CodecError::BadVersion {
                expected: 4,
                found: 3
            })
        ));
    }

    #[test]
    fn truncation_is_detected() {
        let mut e = Encoder::new();
        e.put_u64(42);
        let bytes = e.finish();
        let mut d = Decoder::new(bytes.slice(0..4));
        assert!(matches!(d.u64(), Err(CodecError::Truncated { .. })));
    }

    #[test]
    fn corrupt_length_prefix_rejected() {
        let mut e = Encoder::new();
        e.put_u64(u64::MAX); // absurd length prefix
        let mut d = Decoder::new(e.finish());
        assert!(matches!(d.f32_vec(), Err(CodecError::LengthOverflow(_))));
    }

    #[test]
    fn sealed_container_round_trips() {
        let payload = b"incident capsule payload";
        let sealed = seal(*b"DCAP", 1, payload);
        let opened = unseal(*b"DCAP", 1, &sealed).unwrap();
        assert_eq!(&opened[..], payload);
    }

    #[test]
    fn sealed_container_rejects_tampering() {
        let sealed = seal(*b"DCAP", 1, b"evidence");

        // Wrong magic / version fail before any payload is read.
        assert!(matches!(
            unseal(*b"XXXX", 1, &sealed),
            Err(CodecError::BadMagic { .. })
        ));
        assert!(matches!(
            unseal(*b"DCAP", 2, &sealed),
            Err(CodecError::BadVersion { .. })
        ));

        // Any truncation point fails loudly (never panics, never yields
        // a partial payload).
        for cut in 0..sealed.len() {
            assert!(unseal(*b"DCAP", 1, &sealed[..cut]).is_err());
        }

        // A single flipped payload bit trips the checksum.
        let mut flipped = sealed.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        assert!(matches!(
            unseal(*b"DCAP", 1, &flipped),
            Err(CodecError::BadChecksum { .. })
        ));

        // Trailing garbage after the sealed payload is rejected too.
        let mut padded = sealed;
        padded.push(0);
        assert!(unseal(*b"DCAP", 1, &padded).is_err());
    }

    #[test]
    fn bad_utf8_rejected() {
        let mut e = Encoder::new();
        e.put_u64(2);
        let mut raw = BytesMut::from(&e.finish()[..]);
        raw.put_slice(&[0xFF, 0xFE]);
        let mut d = Decoder::new(raw.freeze());
        assert_eq!(d.string(), Err(CodecError::BadUtf8));
    }
}
