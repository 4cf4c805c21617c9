//! Byte-level primitives shared by every format in the workspace: LEB128
//! varints, length-prefixed frames, and the FNV-1a checksum.
//!
//! The 2DPR recorded-trace format, the sweep engine's result cache and the
//! `twodprof-serve` wire protocol are all built from these.

use std::io::{self, Read, Write};

/// Writes `v` as a LEB128 varint.
///
/// # Errors
///
/// Propagates any I/O error from `w`.
pub fn write_varint<W: Write>(w: &mut W, mut v: u64) -> io::Result<()> {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            return w.write_all(&[byte]);
        }
        w.write_all(&[byte | 0x80])?;
    }
}

/// Reads a LEB128 varint written by [`write_varint`].
///
/// # Errors
///
/// Returns an `InvalidData` error on an over-long encoding, and propagates
/// I/O errors (including `UnexpectedEof` on truncation).
pub fn read_varint<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let mut buf = [0u8; 1];
        r.read_exact(&mut buf)?;
        v |= ((buf[0] & 0x7F) as u64) << shift;
        if buf[0] & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift >= 64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "varint too long",
            ));
        }
    }
}

/// Default ceiling on the payload length of a single wire frame (4 MiB).
///
/// Shared by every framed protocol in the workspace (notably the
/// `twodprof-serve` ingestion daemon) so both sides agree on the bound a
/// reader enforces before allocating.
pub const MAX_FRAME_LEN: usize = 1 << 22;

/// Writes one length-prefixed frame: `varint(payload.len())` followed by the
/// raw payload bytes.
///
/// # Errors
///
/// Propagates any I/O error from `w`.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    write_varint(w, payload.len() as u64)?;
    w.write_all(payload)
}

/// Reads one frame written by [`write_frame`], rejecting any frame whose
/// declared length exceeds `max_len` *before* allocating for it.
///
/// # Errors
///
/// Returns `InvalidData` on an oversized length declaration and propagates
/// I/O errors (including `UnexpectedEof` when the stream ends mid-frame).
pub fn read_frame<R: Read>(r: &mut R, max_len: usize) -> io::Result<Vec<u8>> {
    let len = read_varint(r)?;
    if len > max_len as u64 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds limit {max_len}"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

/// Streaming 64-bit FNV-1a: the non-cryptographic checksum of 2DPR traces,
/// the engine's cache entries and fabric payloads, and the engine's spec
/// content hash. It guards against torn writes and stray bit flips, not
/// adversaries, and unlike the standard library's `DefaultHasher` its
/// output is stable across releases, so it can name files on disk.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// The hash of `bytes` in one call.
    pub fn hash(bytes: &[u8]) -> u64 {
        let mut h = Self::default();
        h.update(bytes);
        h.finish()
    }

    /// Folds `bytes` into the hash.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash of everything folded in so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip_back_to_back() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"first").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, &[0xAB; 300]).unwrap();
        let mut r = buf.as_slice();
        assert_eq!(read_frame(&mut r, MAX_FRAME_LEN).unwrap(), b"first");
        assert_eq!(read_frame(&mut r, MAX_FRAME_LEN).unwrap(), b"");
        assert_eq!(read_frame(&mut r, MAX_FRAME_LEN).unwrap(), vec![0xAB; 300]);
        assert!(r.is_empty());
    }

    #[test]
    fn oversized_frame_length_rejected_before_allocation() {
        let mut buf = Vec::new();
        // declare a frame far larger than the limit, with no payload behind it
        write_varint(&mut buf, (MAX_FRAME_LEN as u64) + 1).unwrap();
        let err = read_frame(&mut buf.as_slice(), MAX_FRAME_LEN).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_frame_detected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[7u8; 64]).unwrap();
        buf.truncate(buf.len() - 1);
        let err = read_frame(&mut buf.as_slice(), MAX_FRAME_LEN).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn fnv1a_matches_the_standard_vectors() {
        assert_eq!(Fnv1a::hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv1a::hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv1a::hash(b"foobar"), 0x8594_4171_f739_67e8);
        // streaming in pieces hashes the concatenation
        let mut h = Fnv1a::default();
        h.update(b"foo");
        h.update(b"");
        h.update(b"bar");
        assert_eq!(h.finish(), Fnv1a::hash(b"foobar"));
    }
}
