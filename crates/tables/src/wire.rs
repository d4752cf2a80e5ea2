//! The hand-rolled binary wire format: little-endian fixed-width
//! integers, length-prefixed byte strings, and a strictly bounds-checked
//! reader whose every failure is a classified [`WireError`] — a truncated
//! or corrupted artifact must surface as an error value, never a panic.

use std::fmt;

/// A decoding failure. The artifact loader maps these to its own
/// classified error; no wire failure is ever allowed to panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the value being read was complete.
    Truncated {
        /// Byte offset where the read started.
        at: usize,
    },
    /// A tag or length field held a value outside its domain.
    Invalid {
        /// What was being decoded.
        what: &'static str,
        /// Byte offset of the offending field.
        at: usize,
    },
    /// Bytes remained after the top-level value was fully decoded.
    Trailing {
        /// Number of unconsumed bytes.
        extra: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { at } => write!(f, "input truncated at byte {at}"),
            WireError::Invalid { what, at } => write!(f, "invalid {what} at byte {at}"),
            WireError::Trailing { extra } => write!(f, "{extra} trailing bytes after payload"),
        }
    }
}

impl std::error::Error for WireError {}

/// Decoding result.
pub type WireResult<T> = Result<T, WireError>;

/// Append-only encoder.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    pub fn new() -> Enc {
        Enc::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u16`, little-endian.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `i64`, little-endian two's-complement.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f64` as its IEEE-754 bit pattern (bit-exact round-trip,
    /// NaN payloads included).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a `usize` as `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes a `bool` as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Writes a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
}

/// Bounds-checked sequential reader over a byte slice.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    /// Current byte offset (for error reports).
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails with [`WireError::Trailing`] unless the input is exhausted.
    pub fn finish(self) -> WireResult<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Trailing {
                extra: self.buf.len() - self.pos,
            })
        }
    }

    fn take(&mut self, n: usize) -> WireResult<&'a [u8]> {
        let at = self.pos;
        let end = at.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                self.pos = end;
                Ok(&self.buf[at..end])
            }
            None => Err(WireError::Truncated { at }),
        }
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> WireResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> WireResult<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> WireResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> WireResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> WireResult<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an `f64` from its bit pattern.
    pub fn f64(&mut self) -> WireResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `u64` and narrows it to `usize`, rejecting values that a
    /// hostile length field could use to force a huge allocation: the
    /// decoded length is additionally capped by the bytes that remain.
    pub fn usize(&mut self) -> WireResult<usize> {
        let at = self.pos;
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| WireError::Invalid {
            what: "usize field",
            at,
        })
    }

    /// Reads a collection length and sanity-checks it against a
    /// per-element lower bound of one byte, so a corrupted length cannot
    /// request more elements than the remaining input could possibly hold.
    pub fn seq_len(&mut self) -> WireResult<usize> {
        let at = self.pos;
        let n = self.usize()?;
        if n > self.remaining() {
            return Err(WireError::Invalid {
                what: "collection length",
                at,
            });
        }
        Ok(n)
    }

    /// Reads a `bool`, rejecting bytes other than 0 and 1.
    pub fn bool(&mut self) -> WireResult<bool> {
        let at = self.pos;
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Invalid { what: "bool", at }),
        }
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> WireResult<&'a [u8]> {
        let at = self.pos;
        let n = self.usize()?;
        if n > self.remaining() {
            return Err(WireError::Invalid {
                what: "byte-string length",
                at,
            });
        }
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> WireResult<String> {
        let at = self.pos;
        let raw = self.bytes()?;
        std::str::from_utf8(raw)
            .map(str::to_owned)
            .map_err(|_| WireError::Invalid {
                what: "utf-8 string",
                at,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars_and_strings() {
        let mut e = Enc::new();
        e.u8(7);
        e.u16(300);
        e.u32(70_000);
        e.u64(u64::MAX);
        e.i64(-42);
        e.f64(-0.0);
        e.f64(f64::NAN);
        e.bool(true);
        e.str("héllo");
        e.bytes(&[1, 2, 3]);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u16().unwrap(), 300);
        assert_eq!(d.u32().unwrap(), 70_000);
        assert_eq!(d.u64().unwrap(), u64::MAX);
        assert_eq!(d.i64().unwrap(), -42);
        assert_eq!(d.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(d.f64().unwrap().is_nan());
        assert!(d.bool().unwrap());
        assert_eq!(d.str().unwrap(), "héllo");
        assert_eq!(d.bytes().unwrap(), &[1, 2, 3]);
        d.finish().unwrap();
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut e = Enc::new();
        e.u64(5);
        let bytes = e.into_bytes();
        for cut in 0..bytes.len() {
            let mut d = Dec::new(&bytes[..cut]);
            assert!(matches!(d.u64(), Err(WireError::Truncated { .. })));
        }
    }

    #[test]
    fn hostile_length_is_rejected() {
        let mut e = Enc::new();
        e.u64(u64::MAX);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert!(matches!(d.bytes(), Err(WireError::Invalid { .. })));
        let mut d2 = Dec::new(&bytes);
        assert!(matches!(d2.seq_len(), Err(WireError::Invalid { .. })));
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut e = Enc::new();
        e.u8(1);
        e.u8(2);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        d.u8().unwrap();
        assert_eq!(d.finish(), Err(WireError::Trailing { extra: 1 }));
    }
}
