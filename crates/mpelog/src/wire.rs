//! Minimal binary codec used by the CLOG2 and SLOG2 containers.
//!
//! Little-endian, length-prefixed strings, no self-description. The
//! format crates (`mpelog::clog2`, `slog2`) build their file layouts on
//! these primitives; property tests exercise roundtrips.

/// Write cursor over a growable byte vector.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Fresh empty writer.
    pub fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    /// Writer with preallocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Finish and take the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Current length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Is the buffer empty?
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append raw bytes.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Append a `u8`.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u32` (LE).
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64` (LE).
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `i64` (LE).
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` (LE bit pattern).
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a string as `u32` length + UTF-8 bytes.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Patch a previously written u32 at `offset` (for back-filled
    /// lengths / directory offsets).
    pub fn patch_u32(&mut self, offset: usize, v: u32) {
        self.buf[offset..offset + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Patch a previously written u64 at `offset`.
    pub fn patch_u64(&mut self, offset: usize, v: u64) {
        self.buf[offset..offset + 8].copy_from_slice(&v.to_le_bytes());
    }
}

/// Decode error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Not enough bytes left for the requested item.
    Truncated { wanted: usize, have: usize },
    /// A string was not valid UTF-8.
    BadUtf8,
    /// A magic/version check failed.
    BadMagic(String),
    /// Structural violation (counts, offsets out of range, …).
    Corrupt(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { wanted, have } => {
                write!(f, "truncated input: wanted {wanted} bytes, have {have}")
            }
            WireError::BadUtf8 => write!(f, "invalid UTF-8 in string"),
            WireError::BadMagic(m) => write!(f, "bad magic/version: {m}"),
            WireError::Corrupt(m) => write!(f, "corrupt container: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Read cursor over a byte slice.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wrap a slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Current position.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Jump to an absolute position.
    pub fn seek(&mut self, pos: usize) -> Result<(), WireError> {
        if pos > self.buf.len() {
            return Err(WireError::Truncated {
                wanted: pos,
                have: self.buf.len(),
            });
        }
        self.pos = pos;
        Ok(())
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                wanted: n,
                have: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read raw bytes.
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        self.take(n)
    }

    /// Read a `u8`.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Read a `u32`.
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a `u64`.
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(b);
        Ok(u64::from_le_bytes(arr))
    }

    /// Read an `i64`.
    pub fn get_i64(&mut self) -> Result<i64, WireError> {
        Ok(self.get_u64()? as i64)
    }

    /// Read an `f64`.
    pub fn get_f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a length-prefixed string.
    pub fn get_str(&mut self) -> Result<String, WireError> {
        self.get_str_slice().map(str::to_owned)
    }

    /// Read a length-prefixed string without copying: the returned
    /// slice borrows the underlying buffer. This is the zero-copy
    /// decode path used when scanning records straight out of an
    /// `mmap`ed file.
    pub fn get_str_slice(&mut self) -> Result<&'a str, WireError> {
        let len = self.get_u32()? as usize;
        // `take` bounds a corrupt length by the bytes left.
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| WireError::BadUtf8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_i64(-42);
        w.put_f64(3.25);
        w.put_str("héllo");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_i64().unwrap(), -42);
        assert_eq!(r.get_f64().unwrap(), 3.25);
        assert_eq!(r.get_str().unwrap(), "héllo");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncation_is_detected() {
        let mut w = Writer::new();
        w.put_u32(1);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..2]);
        assert!(matches!(r.get_u32(), Err(WireError::Truncated { .. })));
    }

    #[test]
    fn corrupt_string_length_is_safe() {
        let mut w = Writer::new();
        w.put_u32(u32::MAX); // absurd length
        w.put_bytes(b"abc");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.get_str(), Err(WireError::Truncated { .. })));
    }

    #[test]
    fn invalid_utf8_is_error() {
        let mut w = Writer::new();
        w.put_u32(2);
        w.put_bytes(&[0xFF, 0xFE]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_str(), Err(WireError::BadUtf8));
    }

    #[test]
    fn patch_u32_overwrites_in_place() {
        let mut w = Writer::new();
        w.put_u32(0);
        w.put_u32(5);
        w.patch_u32(0, 99);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u32().unwrap(), 99);
        assert_eq!(r.get_u32().unwrap(), 5);
    }

    #[test]
    fn seek_bounds_checked() {
        let bytes = [0u8; 4];
        let mut r = Reader::new(&bytes);
        assert!(r.seek(4).is_ok());
        assert!(r.seek(5).is_err());
    }

    #[test]
    fn f64_bit_exact_for_specials() {
        let mut w = Writer::new();
        for v in [
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
        ] {
            w.put_f64(v);
        }
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_f64().unwrap(), f64::INFINITY);
        assert_eq!(r.get_f64().unwrap(), f64::NEG_INFINITY);
        assert_eq!(r.get_f64().unwrap().to_bits(), 0.0f64.to_bits());
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.get_f64().unwrap(), f64::MIN_POSITIVE);
    }
}
