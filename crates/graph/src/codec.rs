//! Little-endian byte codec shared by every binary on-disk format in
//! the workspace: the `cspm-store` session snapshot and WAL both build
//! on these primitives, so torn writes and bit-flips are detected the
//! same way everywhere.
//!
//! Two layers live here:
//!
//! * **Primitives** — [`Reader`] plus the `put_*` writers: bounds-checked
//!   little-endian integers and length-prefixed UTF-8 strings. Every
//!   read failure is a typed [`DecodeError`], never a panic.
//! * **Checksummed frames** — [`write_frame`] / [`read_frame`]: a
//!   `tag, length, payload, CRC-32` unit. A frame whose checksum does
//!   not match its bytes (bit-flip) or whose declared length overruns
//!   the buffer (torn write, truncation) is reported as a typed
//!   [`FrameError`], letting callers degrade gracefully — truncate a
//!   log tail, or fall back from a damaged snapshot to a cold start.

use std::fmt;

/// A byte buffer failed to decode: truncated, out-of-range id, invalid
/// UTF-8, trailing garbage. The message says which.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// What was malformed.
    pub message: &'static str,
}

impl DecodeError {
    pub(crate) fn new(message: &'static str) -> Self {
        Self { message }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed binary data: {}", self.message)
    }
}

impl std::error::Error for DecodeError {}

// ---------------------------------------------------------------- writers

/// Appends `v` as two little-endian bytes.
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends `v` as four little-endian bytes.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends `v` as eight little-endian bytes.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u32` byte length followed by the UTF-8 bytes of `s`.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

// ---------------------------------------------------------------- reader

/// Bounds-checked little-endian reader over a byte slice.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Starts reading at the beginning of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Takes the next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::new("unexpected end of data"));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a `u32` count that must fit (at `width` bytes per element)
    /// in the remaining buffer — the cheap sanity bound that stops a
    /// corrupt count from provoking a huge allocation.
    pub fn bounded_count(&mut self, width: usize) -> Result<usize, DecodeError> {
        let n = self.u32()? as usize;
        if n.checked_mul(width).is_none_or(|b| b > self.remaining()) {
            return Err(DecodeError::new("count exceeds remaining data"));
        }
        Ok(n)
    }

    /// Reads a [`put_str`] string.
    pub fn str(&mut self) -> Result<String, DecodeError> {
        let len = self.bounded_count(1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::new("invalid UTF-8 string"))
    }

    /// Reads `n` little-endian `u32`s in bulk.
    pub fn u32s(&mut self, n: usize) -> Result<Vec<u32>, DecodeError> {
        let bytes = self.take(n.checked_mul(4).ok_or(DecodeError::new("count overflow"))?)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// Asserts the whole buffer was consumed.
    pub fn finish(&self) -> Result<(), DecodeError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(DecodeError::new("trailing bytes after value"))
        }
    }
}

// ---------------------------------------------------------------- CRC-32

/// Reflected CRC-32 (IEEE 802.3 polynomial), table generated at compile
/// time — the workspace is offline, so the checksum is hand-rolled.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 over the concatenation of `parts`.
pub fn crc32(parts: &[&[u8]]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for part in parts {
        for &b in *part {
            c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
    }
    !c
}

// ---------------------------------------------------------------- frames

/// Fixed bytes of a frame besides its payload: `u8` tag + `u64` length
/// prefix + `u32` CRC-32 footer.
pub const FRAME_OVERHEAD: usize = 13;

/// Why a frame could not be read back. Both variants mean "stop
/// trusting the buffer from `offset` on" — the distinction is only
/// diagnostic (a torn tail vs a bit-flip).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The buffer ends before the frame's declared extent — a torn
    /// write or truncated file.
    Truncated {
        /// Byte offset where the broken frame starts.
        offset: usize,
    },
    /// The frame is complete but its CRC-32 footer does not match its
    /// bytes — a bit-flip or overwrite.
    Checksum {
        /// Byte offset where the corrupt frame starts.
        offset: usize,
    },
}

impl FrameError {
    /// Byte offset of the first unusable frame.
    pub fn offset(&self) -> usize {
        match *self {
            FrameError::Truncated { offset } | FrameError::Checksum { offset } => offset,
        }
    }
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated { offset } => {
                write!(f, "frame at byte {offset} is truncated (torn write)")
            }
            FrameError::Checksum { offset } => {
                write!(f, "frame at byte {offset} fails its checksum (bit-flip)")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Appends the frame `[tag][len][payload][crc]` to `out`.
pub fn write_frame(out: &mut Vec<u8>, tag: u8, payload: &[u8]) {
    out.push(tag);
    put_u64(out, payload.len() as u64);
    out.extend_from_slice(payload);
    let crc = crc32(&[&[tag], &(payload.len() as u64).to_le_bytes(), payload]);
    put_u32(out, crc);
}

/// A decoded frame: `(tag, payload, next_pos)`.
pub type Frame<'a> = (u8, &'a [u8], usize);

/// Reads the frame starting at `pos`. Returns `Ok(None)` when `pos` is
/// exactly the end of the buffer (a clean end), the decoded
/// `(tag, payload, next_pos)` otherwise.
pub fn read_frame(bytes: &[u8], pos: usize) -> Result<Option<Frame<'_>>, FrameError> {
    if pos == bytes.len() {
        return Ok(None);
    }
    let header_end = pos.checked_add(9).filter(|&e| e <= bytes.len());
    let Some(header_end) = header_end else {
        return Err(FrameError::Truncated { offset: pos });
    };
    let tag = bytes[pos];
    let len = u64::from_le_bytes(bytes[pos + 1..header_end].try_into().unwrap());
    // A torn length prefix can claim absurd extents; the subtraction
    // below is checked so it reads as truncation, not a panic.
    let payload_end = (header_end as u64)
        .checked_add(len)
        .filter(|&e| e + 4 <= bytes.len() as u64);
    let Some(payload_end) = payload_end.map(|e| e as usize) else {
        return Err(FrameError::Truncated { offset: pos });
    };
    let payload = &bytes[header_end..payload_end];
    let stored = u32::from_le_bytes(bytes[payload_end..payload_end + 4].try_into().unwrap());
    if stored != crc32(&[&bytes[pos..payload_end]]) {
        return Err(FrameError::Checksum { offset: pos });
    }
    Ok(Some((tag, payload, payload_end + 4)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        let mut out = Vec::new();
        put_u16(&mut out, 0xBEEF);
        put_u32(&mut out, 0xDEAD_BEEF);
        put_u64(&mut out, u64::MAX - 1);
        put_str(&mut out, "héllo");
        let mut r = Reader::new(&out);
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.str().unwrap(), "héllo");
        r.finish().unwrap();
    }

    #[test]
    fn reader_rejects_truncation_and_trailing() {
        let mut r = Reader::new(&[1, 2]);
        assert!(r.u32().is_err());
        let mut out = Vec::new();
        put_str(&mut out, "abc");
        out[0] = 200; // length prefix far beyond the buffer
        assert!(Reader::new(&out).str().is_err());
        let r = Reader::new(&[0]);
        assert!(r.finish().is_err());
    }

    #[test]
    fn reader_rejects_invalid_utf8() {
        let mut out = Vec::new();
        put_u32(&mut out, 2);
        out.extend_from_slice(&[0xFF, 0xFE]);
        assert!(Reader::new(&out).str().is_err());
    }

    #[test]
    fn crc32_matches_reference_vector() {
        // The classic IEEE check value.
        assert_eq!(crc32(&[b"123456789"]), 0xCBF4_3926);
        assert_eq!(crc32(&[b"1234", b"56789"]), 0xCBF4_3926);
        assert_eq!(crc32(&[]), 0);
    }

    #[test]
    fn frame_roundtrip_and_clean_end() {
        let mut out = Vec::new();
        write_frame(&mut out, 7, b"payload");
        write_frame(&mut out, 9, b"");
        let (tag, payload, next) = read_frame(&out, 0).unwrap().unwrap();
        assert_eq!((tag, payload), (7, &b"payload"[..]));
        let (tag, payload, next) = read_frame(&out, next).unwrap().unwrap();
        assert_eq!((tag, payload), (9, &b""[..]));
        assert_eq!(read_frame(&out, next).unwrap(), None);
    }

    #[test]
    fn frame_detects_truncation_at_every_cut() {
        let mut out = Vec::new();
        write_frame(&mut out, 1, b"some payload bytes");
        for cut in 0..out.len() {
            let err = read_frame(&out[..cut], 0);
            if cut == 0 {
                assert_eq!(err.unwrap(), None);
            } else {
                assert_eq!(err.unwrap_err(), FrameError::Truncated { offset: 0 });
            }
        }
    }

    #[test]
    fn frame_detects_any_single_bit_flip() {
        let mut out = Vec::new();
        write_frame(&mut out, 1, b"guarded");
        for byte in 0..out.len() {
            for bit in 0..8 {
                let mut copy = out.clone();
                copy[byte] ^= 1 << bit;
                let got = read_frame(&copy, 0);
                assert!(
                    got.is_err() || got == Ok(None),
                    "flip at {byte}.{bit} went undetected: {got:?}"
                );
            }
        }
    }

    #[test]
    fn huge_length_prefix_reads_as_truncation() {
        let mut out = Vec::new();
        write_frame(&mut out, 1, b"x");
        out[1..9].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(
            read_frame(&out, 0).unwrap_err(),
            FrameError::Truncated { offset: 0 }
        );
    }
}
