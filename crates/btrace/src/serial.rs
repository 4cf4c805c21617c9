//! The encoding rules every binary format in the workspace shares: LEB128
//! varints, length-prefixed frames, the FNV-1a checksum, and the field
//! rules built on them — length-capped UTF-8 strings, optional `f64`s,
//! little-endian fixed-width fields, declared counts, and exact
//! consumption.
//!
//! The 2DPR recorded trace, profile reports and accuracy profiles, job
//! specs and cache entries, the `twodprofd` wire frames, metric snapshots,
//! span blocks, flight dumps and the streaming drift events and verdict
//! snapshots are all written and read through these. A decoder reports
//! malformed input as `InvalidData` ([`invalid`]) and truncation as
//! `UnexpectedEof`, and a count or length it reads from the input reserves
//! at most [`MAX_RESERVE`] bytes before the items it declares arrive.

use std::io::{self, Read, Write};

/// Most bytes a decoder reserves for a declared count or length before
/// the items arrive. The declared value is untrusted until the input
/// actually holds that much, so past this bound memory grows only as
/// items are read: a short hostile header cannot make a decoder reserve
/// more than this.
pub const MAX_RESERVE: usize = 1 << 16;

/// The `InvalidData` error every decoder returns for malformed input.
pub fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

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
            return Err(invalid("varint too long"));
        }
    }
}

/// Reads a varint count or length, rejecting a value above `max` (naming
/// it `what`) before anything is allocated for it.
///
/// # Errors
///
/// `InvalidData` past `max`, plus [`read_varint`]'s errors.
pub fn read_len<R: Read>(r: &mut R, max: usize, what: &str) -> io::Result<usize> {
    let n = read_varint(r)?;
    if n > max as u64 {
        return Err(invalid(format!("{what} {n} exceeds {max}")));
    }
    Ok(n as usize)
}

/// An empty vector for `declared` items of an untrusted count, with room
/// reserved for as many of them as fit in [`MAX_RESERVE`] bytes.
pub fn with_declared_capacity<T>(declared: usize) -> Vec<T> {
    Vec::with_capacity(declared.min(MAX_RESERVE / std::mem::size_of::<T>().max(1)))
}

/// Reads exactly `len` bytes, reserving within [`MAX_RESERVE`] up front.
///
/// # Errors
///
/// `UnexpectedEof` when the input ends first; propagates I/O errors.
pub fn read_bytes<R: Read>(r: &mut R, len: usize) -> io::Result<Vec<u8>> {
    let mut bytes = with_declared_capacity(len);
    r.take(len as u64).read_to_end(&mut bytes)?;
    if bytes.len() < len {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    Ok(bytes)
}

/// Writes `s` as `varint(len)` followed by its UTF-8 bytes.
///
/// # Errors
///
/// Propagates any I/O error from `w`.
pub fn write_string<W: Write>(w: &mut W, s: &str) -> io::Result<()> {
    write_varint(w, s.len() as u64)?;
    w.write_all(s.as_bytes())
}

/// Reads a string written by [`write_string`], rejecting a declared length
/// above `max_len` before allocating.
///
/// # Errors
///
/// `InvalidData` on an over-long length or non-UTF-8 bytes;
/// `UnexpectedEof` on truncation.
pub fn read_string<R: Read>(r: &mut R, max_len: usize) -> io::Result<String> {
    let len = read_len(r, max_len, "string length")?;
    String::from_utf8(read_bytes(r, len)?).map_err(|_| invalid("string is not UTF-8"))
}

/// Reads a fixed-width field of `N` bytes.
///
/// # Errors
///
/// `UnexpectedEof` on truncation; propagates I/O errors.
pub fn read_array<const N: usize, R: Read>(r: &mut R) -> io::Result<[u8; N]> {
    let mut bytes = [0u8; N];
    r.read_exact(&mut bytes)?;
    Ok(bytes)
}

/// Reads one byte (a tag, version or kind code).
///
/// # Errors
///
/// As [`read_array`].
pub fn read_u8<R: Read>(r: &mut R) -> io::Result<u8> {
    Ok(read_array::<1, R>(r)?[0])
}

/// Reads a little-endian `u128` (a 16-byte trace id).
///
/// # Errors
///
/// As [`read_array`].
pub fn read_u128<R: Read>(r: &mut R) -> io::Result<u128> {
    read_array(r).map(u128::from_le_bytes)
}

/// Writes `v` as its IEEE-754 bits, little-endian.
///
/// # Errors
///
/// Propagates any I/O error from `w`.
pub fn write_f64<W: Write>(w: &mut W, v: f64) -> io::Result<()> {
    w.write_all(&v.to_bits().to_le_bytes())
}

/// Reads an `f64` written by [`write_f64`].
///
/// # Errors
///
/// As [`read_array`].
pub fn read_f64<R: Read>(r: &mut R) -> io::Result<f64> {
    read_array(r).map(|b| f64::from_bits(u64::from_le_bytes(b)))
}

/// Writes an optional `f64`: tag byte 0 for `None`, or 1 followed by the
/// value as [`write_f64`].
///
/// # Errors
///
/// Propagates any I/O error from `w`.
pub fn write_opt_f64<W: Write>(w: &mut W, v: Option<f64>) -> io::Result<()> {
    match v {
        None => w.write_all(&[0]),
        Some(v) => {
            w.write_all(&[1])?;
            write_f64(w, v)
        }
    }
}

/// Reads an optional `f64` written by [`write_opt_f64`].
///
/// # Errors
///
/// `InvalidData` on a tag other than 0 or 1; `UnexpectedEof` on
/// truncation.
pub fn read_opt_f64<R: Read>(r: &mut R) -> io::Result<Option<f64>> {
    match read_u8(r)? {
        0 => Ok(None),
        1 => read_f64(r).map(Some),
        _ => Err(invalid("bad optional-float tag")),
    }
}

/// Splits `bytes` into its body and an 8-byte little-endian FNV-1a
/// trailer, verifying the trailer against the body: how a checksummed
/// block is checked before anything in it is decoded.
///
/// # Errors
///
/// `InvalidData` when the block is shorter than its trailer or the
/// checksum does not match.
pub fn strip_checksum(bytes: &[u8]) -> io::Result<&[u8]> {
    let split = bytes
        .len()
        .checked_sub(8)
        .ok_or_else(|| invalid("block too short for its checksum"))?;
    let (body, trailer) = bytes.split_at(split);
    if Fnv1a::hash(body).to_le_bytes() != trailer {
        return Err(invalid("checksum mismatch"));
    }
    Ok(body)
}

/// Rejects input a decoder left unread.
///
/// # Errors
///
/// `InvalidData` when `rest` is not empty.
pub fn ensure_consumed(rest: &[u8]) -> io::Result<()> {
    if rest.is_empty() {
        Ok(())
    } else {
        Err(invalid(format!("{} trailing bytes", rest.len())))
    }
}

/// Decodes all of `bytes` with `read`, rejecting any bytes it leaves.
///
/// # Errors
///
/// `read`'s errors, plus [`ensure_consumed`]'s.
pub fn read_whole<T>(
    bytes: &[u8],
    read: impl FnOnce(&mut &[u8]) -> io::Result<T>,
) -> io::Result<T> {
    let mut r = bytes;
    let value = read(&mut r)?;
    ensure_consumed(r)?;
    Ok(value)
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
    let len = read_len(r, max_len, "frame length")?;
    read_bytes(r, len)
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
