//! Length-prefixed binary frames.
//!
//! One frame = `u32` little-endian length (of everything after the prefix),
//! then a 1-byte tag, then the payload. The length covers `tag + payload`,
//! so it is always ≥ 1; a zero length or one beyond [`MAX_FRAME`] means the
//! stream is corrupt and is rejected rather than allocated.

use std::io::{self, Read, Write};

/// Upper bound on a single frame's `tag + payload` size (1 GiB).
///
/// At N = 100k the largest real frames are per-epoch cross-shard batches
/// and the final per-worker result summary (tens of MB); anything near a
/// gigabyte is a corrupt length prefix, not data.
pub const MAX_FRAME: usize = 1 << 30;

/// The most [`read_frame_into`] reserves before any payload byte arrives.
const RESERVE_CAP: usize = 64 << 10;

/// Writes one frame. Does not flush — callers batch frames and flush at
/// epoch boundaries.
pub fn write_frame<W: Write>(w: &mut W, tag: u8, payload: &[u8]) -> io::Result<()> {
    let len = payload
        .len()
        .checked_add(1)
        .filter(|&l| l <= MAX_FRAME)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    w.write_all(&(len as u32).to_le_bytes())?;
    w.write_all(&[tag])?;
    w.write_all(payload)
}

/// Reads one frame, returning `(tag, payload)`.
///
/// A clean EOF before the length prefix — the peer exited — surfaces as
/// [`io::ErrorKind::UnexpectedEof`]; callers treat that as a dead worker.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<(u8, Vec<u8>)> {
    let mut payload = Vec::new();
    let tag = read_frame_into(r, &mut payload)?;
    Ok((tag, payload))
}

/// Reads one frame's payload into `buf` (replacing its contents) and
/// returns the tag; errors as [`read_frame`].
///
/// `buf` keeps its capacity, so a caller that reuses it reads in steady
/// state without allocating. It grows only as payload bytes arrive: a
/// length prefix that promises more than the stream holds costs what was
/// actually sent, not the promised length.
pub fn read_frame_into<R: Read>(r: &mut R, buf: &mut Vec<u8>) -> io::Result<u8> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if len == 0 || len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} out of range"),
        ));
    }
    let mut tag = [0u8; 1];
    r.read_exact(&mut tag)?;
    buf.clear();
    let want = len - 1;
    // Room for a typical frame in one allocation; a longer one grows as
    // its bytes arrive.
    buf.reserve(want.min(RESERVE_CAP));
    let got = r.take(want as u64).read_to_end(buf)?;
    if got != want {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("frame truncated: {got} of {want} payload bytes"),
        ));
    }
    Ok(tag[0])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 7, b"hello").unwrap();
        write_frame(&mut buf, 9, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), (7, b"hello".to_vec()));
        assert_eq!(read_frame(&mut r).unwrap(), (9, Vec::new()));
        assert!(r.is_empty());
    }

    #[test]
    fn eof_at_frame_boundary_is_unexpected_eof() {
        let mut r: &[u8] = &[];
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn truncated_frames_are_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 1, b"payload").unwrap();
        for cut in 1..buf.len() {
            let mut r = &buf[..cut];
            assert!(read_frame(&mut r).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn corrupt_lengths_are_rejected() {
        // Zero length (cannot even hold the tag byte).
        let mut r: &[u8] = &[0, 0, 0, 0];
        assert_eq!(
            read_frame(&mut r).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        // Length beyond MAX_FRAME must be rejected before allocation.
        let mut r: &[u8] = &[0xFF, 0xFF, 0xFF, 0xFF];
        assert_eq!(
            read_frame(&mut r).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn frames_read_into_one_reused_buffer() {
        let mut wire = Vec::new();
        write_frame(&mut wire, 7, &[0xAB; 300]).unwrap();
        write_frame(&mut wire, 9, b"hi").unwrap();
        let mut r = &wire[..];
        let mut buf = Vec::new();
        assert_eq!(read_frame_into(&mut r, &mut buf).unwrap(), 7);
        assert_eq!(buf, [0xAB; 300]);
        let cap = buf.capacity();
        assert_eq!(read_frame_into(&mut r, &mut buf).unwrap(), 9);
        assert_eq!(buf, b"hi", "the previous payload is replaced");
        assert_eq!(buf.capacity(), cap, "the capacity is kept");
    }

    #[test]
    fn a_false_length_costs_only_the_bytes_sent() {
        // The prefix claims ~1 GiB; six payload bytes follow.
        let mut wire = ((MAX_FRAME - 1) as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&[1, b'a', b'b', b'c', b'd', b'e', b'f']);
        let mut buf = Vec::new();
        let err = read_frame_into(&mut &wire[..], &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
        assert!(
            buf.capacity() < 1 << 20,
            "capacity {} for 6 bytes read",
            buf.capacity()
        );
    }
}
