//! Transports for the epoch protocol.
//!
//! The orchestrator and its workers speak [`frame`](crate::frame)s over a
//! [`FrameLink`]. Two implementations:
//!
//! * [`PipeLink`] — buffered reader/writer over any byte stream; the real
//!   deployment wraps a child process's stdin/stdout.
//! * [`ChannelLink`] — in-memory `mpsc` pair for thread-based workers, used
//!   by the shard-count invariance tests so `cargo test` exercises the full
//!   epoch protocol without spawning processes.

use std::io::{self, BufReader, BufWriter, Read, Write};
use std::sync::mpsc;

use crate::frame::{read_frame, read_frame_into, write_frame};

/// A bidirectional, ordered frame transport.
pub trait FrameLink {
    /// Queues one frame for the peer.
    fn send(&mut self, tag: u8, payload: &[u8]) -> io::Result<()>;
    /// Makes all queued frames visible to the peer.
    fn flush(&mut self) -> io::Result<()>;
    /// Blocks for the next frame. A dead peer yields
    /// [`io::ErrorKind::UnexpectedEof`].
    fn recv(&mut self) -> io::Result<(u8, Vec<u8>)>;
    /// Blocks for the next frame, puts its payload in `buf` (replacing
    /// its contents) and returns its tag. Errors as [`FrameLink::recv`].
    ///
    /// The default takes `recv`'s `Vec` as the new `buf`, which is free
    /// when the transport already hands over an owned buffer. A byte
    /// stream overrides it to read into `buf`'s kept capacity.
    fn recv_into(&mut self, buf: &mut Vec<u8>) -> io::Result<u8> {
        let (tag, payload) = self.recv()?;
        *buf = payload;
        Ok(tag)
    }
}

impl<T: FrameLink + ?Sized> FrameLink for &mut T {
    fn send(&mut self, tag: u8, payload: &[u8]) -> io::Result<()> {
        (**self).send(tag, payload)
    }
    fn flush(&mut self) -> io::Result<()> {
        (**self).flush()
    }
    fn recv(&mut self) -> io::Result<(u8, Vec<u8>)> {
        (**self).recv()
    }
    fn recv_into(&mut self, buf: &mut Vec<u8>) -> io::Result<u8> {
        (**self).recv_into(buf)
    }
}

/// Pipe capacity on Linux is 64 KiB; a 1 MiB userspace buffer keeps epoch
/// batches to a handful of `write` syscalls.
const BUF_CAP: usize = 1 << 20;

/// [`FrameLink`] over a byte-stream pair (process pipes, sockets, files).
pub struct PipeLink<R: Read, W: Write> {
    r: BufReader<R>,
    w: BufWriter<W>,
}

impl<R: Read, W: Write> PipeLink<R, W> {
    /// Wraps a reader/writer pair in epoch-sized buffers.
    pub fn new(r: R, w: W) -> Self {
        PipeLink {
            r: BufReader::with_capacity(BUF_CAP, r),
            w: BufWriter::with_capacity(BUF_CAP, w),
        }
    }
}

impl<R: Read, W: Write> FrameLink for PipeLink<R, W> {
    fn send(&mut self, tag: u8, payload: &[u8]) -> io::Result<()> {
        write_frame(&mut self.w, tag, payload)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.w.flush()
    }
    fn recv(&mut self) -> io::Result<(u8, Vec<u8>)> {
        read_frame(&mut self.r)
    }
    fn recv_into(&mut self, buf: &mut Vec<u8>) -> io::Result<u8> {
        read_frame_into(&mut self.r, buf)
    }
}

/// In-memory [`FrameLink`] half; see [`channel_pair`].
pub struct ChannelLink {
    tx: mpsc::Sender<(u8, Vec<u8>)>,
    rx: mpsc::Receiver<(u8, Vec<u8>)>,
}

/// Two connected in-memory link halves (A↔B), for thread-based workers.
pub fn channel_pair() -> (ChannelLink, ChannelLink) {
    let (a_tx, b_rx) = mpsc::channel();
    let (b_tx, a_rx) = mpsc::channel();
    (
        ChannelLink { tx: a_tx, rx: a_rx },
        ChannelLink { tx: b_tx, rx: b_rx },
    )
}

impl FrameLink for ChannelLink {
    fn send(&mut self, tag: u8, payload: &[u8]) -> io::Result<()> {
        self.tx
            .send((tag, payload.to_vec()))
            .map_err(|_| io::Error::new(io::ErrorKind::UnexpectedEof, "peer hung up"))
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
    fn recv(&mut self) -> io::Result<(u8, Vec<u8>)> {
        self.rx
            .recv()
            .map_err(|_| io::Error::new(io::ErrorKind::UnexpectedEof, "peer hung up"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipe_link_round_trips_through_a_buffer() {
        let mut wire = Vec::new();
        {
            let mut l = PipeLink::new(io::empty(), &mut wire);
            l.send(3, b"abc").unwrap();
            l.send(4, b"").unwrap();
            l.flush().unwrap();
        }
        let mut l = PipeLink::new(&wire[..], io::sink());
        assert_eq!(l.recv().unwrap(), (3, b"abc".to_vec()));
        let mut buf = b"stale".to_vec();
        assert_eq!(l.recv_into(&mut buf).unwrap(), 4);
        assert!(buf.is_empty());
        assert_eq!(
            l.recv().unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof,
            "stream end reads as a dead peer"
        );
    }

    #[test]
    fn channel_pair_is_bidirectional_and_detects_hangup() {
        let (mut a, mut b) = channel_pair();
        a.send(1, b"ping").unwrap();
        assert_eq!(b.recv().unwrap(), (1, b"ping".to_vec()));
        b.send(2, b"pong").unwrap();
        let mut buf = Vec::new();
        assert_eq!(a.recv_into(&mut buf).unwrap(), 2);
        assert_eq!(buf, b"pong");
        drop(b);
        assert_eq!(a.recv().unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
    }
}
