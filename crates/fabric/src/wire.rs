//! The one byte codec behind both of the workspace's binary formats: the
//! configuration bitstream ([`crate::bitstream`]) and the tenant
//! checkpoint (`mcfpga-migrate`).
//!
//! Big-endian, length-prefixed. Writing appends to a plain `Vec<u8>`;
//! reading is a zero-copy cursor over the caller's slice — no duplication
//! of the buffer before the first field is parsed. Every read is
//! bounds-checked up front, so a truncated or hostile buffer (including
//! absurd length prefixes) surfaces as a typed [`WireError`] instead of a
//! panic or an over-allocation: a claimed length is validated against the
//! bytes actually present *before* anything is copied, which is also why
//! encode and decode accept exactly the same domain — any string that fits
//! in a buffer decodes from it.

/// Why a [`Reader`] refused its input. Each format maps this onto its
/// own error vocabulary (`FabricError::BadBitstream`,
/// `WireError::{Truncated, Corrupt}`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the field being read.
    Truncated {
        /// Bytes the next field needs.
        needed: usize,
        /// Bytes left in the buffer.
        remaining: usize,
    },
    /// The bytes are present but do not decode (bad UTF-8, trailing
    /// bytes, …).
    Corrupt(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { needed, remaining } => write!(
                f,
                "truncated: next field needs {needed} bytes, {remaining} remain"
            ),
            WireError::Corrupt(what) => f.write_str(what),
        }
    }
}

impl std::error::Error for WireError {}

/// A bounds-checked, zero-copy read cursor over an encoded buffer.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Wraps a byte buffer (borrowed; nothing is copied).
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { buf: bytes }
    }

    /// Bytes left unread.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    fn need(&self, n: usize) -> Result<(), WireError> {
        if self.buf.len() < n {
            return Err(WireError::Truncated {
                needed: n,
                remaining: self.buf.len(),
            });
        }
        Ok(())
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        self.need(n)?;
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a big-endian u16.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a big-endian u32.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a big-endian u64.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a `u32` length prefix destined to count `unit`-byte records,
    /// verifying the buffer can actually hold that many.
    pub fn count(&mut self, unit: usize) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        self.need(n.saturating_mul(unit))?;
        Ok(n)
    }

    /// Reads `n` raw bytes (borrowed from the input).
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        self.take(n)
    }

    /// Reads `len` bytes as a UTF-8 string.
    pub fn utf8(&mut self, len: usize) -> Result<String, WireError> {
        let raw = self.bytes(len)?;
        String::from_utf8(raw.to_vec())
            .map_err(|_| WireError::Corrupt("string is not UTF-8".into()))
    }

    /// Reads a `u32`-length-prefixed UTF-8 string. The length prefix is
    /// checked against the bytes actually remaining before anything is
    /// touched, so a hostile prefix costs nothing.
    pub fn string(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        self.utf8(len)
    }

    /// The decode is only valid when it consumed the whole buffer.
    pub fn finish(self) -> Result<(), WireError> {
        if !self.buf.is_empty() {
            return Err(WireError::Corrupt(format!(
                "{} trailing bytes after the last field",
                self.buf.len()
            )));
        }
        Ok(())
    }
}

/// A write cursor building an encoded buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    #[must_use]
    pub fn new() -> Self {
        Writer::default()
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a big-endian u16.
    pub fn u16(&mut self, v: u16) {
        self.bytes(&v.to_be_bytes());
    }

    /// Appends a big-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_be_bytes());
    }

    /// Appends a big-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_be_bytes());
    }

    /// Appends raw bytes.
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends a `u32`-length-prefixed UTF-8 string.
    pub fn string(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.bytes(s.as_bytes());
    }

    /// The finished buffer.
    #[must_use]
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip_and_bounds_check() {
        let mut w = Writer::new();
        w.u8(7);
        w.u16(0x0102);
        w.u32(0xDEAD_BEEF);
        w.u64(42);
        w.string("héllo");
        let buf = w.into_vec();
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0x0102);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), 42);
        assert_eq!(r.string().unwrap(), "héllo");
        r.finish().unwrap();

        // truncation is a typed error, not a panic
        let mut short = Reader::new(&buf[..2]);
        short.u8().unwrap();
        assert_eq!(
            short.u16(),
            Err(WireError::Truncated {
                needed: 2,
                remaining: 1
            })
        );
    }

    #[test]
    fn hostile_lengths_are_rejected() {
        // a string claiming 4 GiB: refused by the bounds check before any
        // allocation (there is no artificial length cap — anything the
        // writer can produce, the reader accepts)
        let mut w = Writer::new();
        w.u32(u32::MAX);
        let buf = w.into_vec();
        assert!(matches!(
            Reader::new(&buf).string(),
            Err(WireError::Truncated { .. })
        ));
        // a record count the buffer cannot possibly hold
        let mut w = Writer::new();
        w.u32(1_000_000);
        let buf = w.into_vec();
        assert!(matches!(
            Reader::new(&buf).count(8),
            Err(WireError::Truncated { .. })
        ));
        // trailing garbage fails the finish check
        let mut w = Writer::new();
        w.u8(1);
        w.u8(2);
        let buf = w.into_vec();
        let mut r = Reader::new(&buf);
        r.u8().unwrap();
        assert!(matches!(r.finish(), Err(WireError::Corrupt(_))));
    }

    #[test]
    fn encode_decode_domains_match_even_for_huge_strings() {
        // the reader accepts exactly what the writer emits: a tenant named
        // with 100k characters round-trips instead of encoding to bytes
        // that can never decode
        let big = "n".repeat(100_000);
        let mut w = Writer::new();
        w.string(&big);
        let buf = w.into_vec();
        assert_eq!(Reader::new(&buf).string().unwrap(), big);
    }

    #[test]
    fn invalid_utf8_is_corrupt() {
        let mut w = Writer::new();
        w.u32(2);
        w.bytes(&[0xFF, 0xFE]);
        let buf = w.into_vec();
        assert!(matches!(
            Reader::new(&buf).string(),
            Err(WireError::Corrupt(_))
        ));
    }
}
