//! Deterministic binary encoding helpers.
//!
//! Attestation reports, certificate chains, and protocol messages across the
//! workspace need byte-exact, deterministic serialization — the same struct
//! must always produce the same bytes, because those bytes are hashed and
//! signed. This module provides a minimal length-prefixed little-endian
//! writer/reader pair that every crate shares.

use std::error::Error;
use std::fmt;

/// Errors produced while decoding wire data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// The input ended before the requested field.
    UnexpectedEnd,
    /// A length prefix exceeded the remaining input.
    LengthOutOfRange(usize),
    /// A string field held invalid UTF-8.
    InvalidUtf8,
    /// Trailing bytes remained after a complete decode.
    TrailingBytes(usize),
    /// A tag or discriminant byte had an unknown value.
    UnknownTag(u8),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEnd => write!(f, "unexpected end of input"),
            WireError::LengthOutOfRange(n) => write!(f, "length prefix {n} exceeds input"),
            WireError::InvalidUtf8 => write!(f, "invalid utf-8 in string field"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after decode"),
            WireError::UnknownTag(t) => write!(f, "unknown tag byte {t}"),
        }
    }
}

impl Error for WireError {}

/// Append-only encoder producing a deterministic byte string.
///
/// ```
/// use revelio_crypto::wire::ByteWriter;
/// let mut w = ByteWriter::new();
/// w.put_u32(7).put_var_bytes(b"abc");
/// assert_eq!(w.into_bytes(), vec![7, 0, 0, 0, 3, 0, 0, 0, b'a', b'b', b'c']);
/// ```
#[derive(Debug, Default, Clone)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> Self {
        ByteWriter { buf: Vec::new() }
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Appends a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends raw bytes with no length prefix (fixed-size fields).
    pub fn put_bytes(&mut self, v: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(v);
        self
    }

    /// Appends a `u32` length prefix followed by the bytes. Every field
    /// this workspace encodes is far below 4 GiB; a longer one would be
    /// framed with the saturated prefix `u32::MAX` rather than abort.
    pub fn put_var_bytes(&mut self, v: &[u8]) -> &mut Self {
        self.put_u32(u32::try_from(v.len()).unwrap_or(u32::MAX));
        self.put_bytes(v)
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) -> &mut Self {
        self.put_var_bytes(v.as_bytes())
    }

    /// Finishes and returns the encoded bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Sequential decoder over a byte slice.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Creates a reader over `data`.
    #[must_use]
    pub fn new(data: &'a [u8]) -> Self {
        ByteReader { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub(crate) fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let (array, _) = self.data[self.pos..]
            .split_first_chunk::<N>()
            .ok_or(WireError::UnexpectedEnd)?;
        self.pos += N;
        Ok(*array)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::UnexpectedEnd);
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    ///
    /// # Errors
    /// Returns [`WireError::UnexpectedEnd`] if the input is exhausted.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    ///
    /// # Errors
    /// Returns [`WireError::UnexpectedEnd`] if the input is exhausted.
    pub fn get_u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take_array()?))
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    /// Returns [`WireError::UnexpectedEnd`] if the input is exhausted.
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    /// Returns [`WireError::UnexpectedEnd`] if the input is exhausted.
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }

    /// Reads exactly `N` bytes into an array.
    ///
    /// # Errors
    /// Returns [`WireError::UnexpectedEnd`] if the input is exhausted.
    pub fn get_array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        self.take_array()
    }

    /// Reads a `u32` item count and validates it against the remaining
    /// input: each item needs at least `min_bytes_per_item` bytes, so a
    /// count larger than `remaining / min` is a malformed (or hostile)
    /// length bomb — callers can then `Vec::with_capacity(count)` safely.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::LengthOutOfRange`] for counts the input cannot
    /// possibly satisfy.
    pub fn get_count(&mut self, min_bytes_per_item: usize) -> Result<usize, WireError> {
        let n = self.get_u32()? as usize;
        let min = min_bytes_per_item.max(1);
        if n.saturating_mul(min) > self.remaining() {
            return Err(WireError::LengthOutOfRange(n));
        }
        Ok(n)
    }

    /// Reads a `u32`-length-prefixed byte string.
    ///
    /// # Errors
    /// Returns [`WireError::UnexpectedEnd`] or
    /// [`WireError::LengthOutOfRange`] on malformed input.
    pub fn get_var_bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.get_u32()? as usize;
        if len > self.remaining() {
            return Err(WireError::LengthOutOfRange(len));
        }
        self.take(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    /// Returns [`WireError::InvalidUtf8`] for non-UTF-8 contents, plus the
    /// length errors of [`ByteReader::get_var_bytes`].
    pub fn get_str(&mut self) -> Result<String, WireError> {
        let bytes = self.get_var_bytes()?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::InvalidUtf8)
    }

    /// Asserts that the whole input was consumed.
    ///
    /// # Errors
    /// Returns [`WireError::TrailingBytes`] when data remains.
    pub fn finish(self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes(self.remaining()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_all_field_kinds() {
        let mut w = ByteWriter::new();
        w.put_u8(1)
            .put_u16(2)
            .put_u32(3)
            .put_u64(4)
            .put_bytes(&[9, 9])
            .put_var_bytes(b"var")
            .put_str("hello");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 1);
        assert_eq!(r.get_u16().unwrap(), 2);
        assert_eq!(r.get_u32().unwrap(), 3);
        assert_eq!(r.get_u64().unwrap(), 4);
        assert_eq!(r.get_array::<2>().unwrap(), [9, 9]);
        assert_eq!(r.get_var_bytes().unwrap(), b"var");
        assert_eq!(r.get_str().unwrap(), "hello");
        r.finish().unwrap();
    }

    #[test]
    fn truncated_input_errors() {
        let mut r = ByteReader::new(&[1, 2]);
        assert_eq!(r.get_u32(), Err(WireError::UnexpectedEnd));
    }

    #[test]
    fn oversized_length_prefix_errors() {
        let mut w = ByteWriter::new();
        w.put_u32(1000);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_var_bytes(), Err(WireError::LengthOutOfRange(1000)));
    }

    #[test]
    fn invalid_utf8_errors() {
        let mut w = ByteWriter::new();
        w.put_var_bytes(&[0xff, 0xfe]);
        let bytes = w.into_bytes();
        assert_eq!(
            ByteReader::new(&bytes).get_str(),
            Err(WireError::InvalidUtf8)
        );
    }

    #[test]
    fn trailing_bytes_detected() {
        let r = ByteReader::new(&[1, 2, 3]);
        assert_eq!(r.finish(), Err(WireError::TrailingBytes(3)));
    }

    proptest! {
        #[test]
        fn var_bytes_roundtrip(data: Vec<u8>) {
            let mut w = ByteWriter::new();
            w.put_var_bytes(&data);
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            prop_assert_eq!(r.get_var_bytes().unwrap(), &data[..]);
            r.finish().unwrap();
        }

        #[test]
        fn str_roundtrip(s: String) {
            let mut w = ByteWriter::new();
            w.put_str(&s);
            let bytes = w.into_bytes();
            prop_assert_eq!(ByteReader::new(&bytes).get_str().unwrap(), s);
        }
    }
}
