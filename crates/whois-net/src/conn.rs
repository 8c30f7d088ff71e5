//! Per-connection state for the event driver.
//!
//! An [`EventConn`] is the nonblocking shell around one accepted
//! socket: a pooled read-accumulation buffer, a queue of reply chunks
//! flushed with vectored writes, an explicit phase in the serving state
//! machine, and the one deadline the driver's sweep looks at. Protocol
//! logic stays with the [`Handler`](crate::serving::Handler) — the shell
//! only moves bytes, and the driver in [`crate::serving`] moves it
//! between phases on the handler's [`Step`](crate::serving::Step):
//!
//! ```text
//!    ┌──────── fill() drains socket → buf ────────┐
//!    ▼                                            │
//! Reading ──Continue──► (handler decodes, queues) ┤
//!    ▲                                            ├─Park…──► Queued (a deadline or a
//!    │                                            │             │   completion resumes it)
//!    └────────────────── Continue ────────────────┼─────────────┘
//!                                                 │ Finish, or Continue after the
//!                                                 ▼ peer closed its sending side
//!                                             Draining ──flushed──► deregister + close
//! ```
//!
//! Reply chunks are reference-counted where the caller already has an
//! `Arc` (the parse daemon's cached reply lines) so queueing a reply to
//! a thousand connections shares one allocation.

use crate::event::Interest;
use bytes::{Bytes, BytesMut};
use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Instant;

/// Where a connection is in its serving lifecycle.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ConnPhase {
    /// Accumulating request bytes; no request outstanding. Replies to
    /// earlier requests may still be flushing.
    Reading,
    /// Parked: the handler is waiting for a deadline (a fault stall) or
    /// for a completion (a request on the worker queue). No reads.
    Queued,
    /// Final flush before close. No reads.
    Draining,
}

/// One queued reply chunk.
#[derive(Clone, Debug)]
pub enum Chunk {
    /// A shared reply line (cached daemon replies): queueing is one
    /// refcount bump, not a copy.
    Shared(Arc<String>),
    /// Owned bytes (whois bodies, fault-injected garbage).
    Owned(Bytes),
    /// A static fragment (line terminators, canned error lines).
    Static(&'static [u8]),
}

impl Chunk {
    pub(crate) fn as_bytes(&self) -> &[u8] {
        match self {
            Chunk::Shared(s) => s.as_bytes(),
            Chunk::Owned(b) => b,
            Chunk::Static(s) => s,
        }
    }
}

/// What [`EventConn::fill`] observed on the socket.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ReadStatus {
    /// Bytes appended to the accumulation buffer.
    pub bytes: usize,
    /// The peer half-closed (EOF after any buffered bytes).
    pub eof: bool,
}

/// Most slices handed to one vectored write. Past this the syscall
/// payoff flattens and the stack array stops being free.
const MAX_IOVEC: usize = 16;

/// The nonblocking shell around one accepted connection.
#[derive(Debug)]
pub struct EventConn {
    /// The accepted socket (nonblocking).
    pub stream: TcpStream,
    /// Peer address at accept time.
    pub peer: SocketAddr,
    /// The poller token this connection is registered under.
    pub token: u64,
    /// Serving phase.
    pub phase: ConnPhase,
    /// Read accumulation buffer (leased from the server's pool).
    pub buf: BytesMut,
    /// When the current read deadline expires (slowloris guard) or a
    /// scheduled action (fault stalls) fires. `None` = no deadline.
    pub deadline: Option<Instant>,
    /// Close once the write queue drains.
    pub close_after_flush: bool,
    /// [`fill`](Self::fill) read EOF: the peer will send nothing more,
    /// so the read side is never polled again.
    pub read_closed: bool,
    out: VecDeque<Chunk>,
    /// Bytes of `out[0]` already written.
    head_written: usize,
    out_bytes: usize,
}

impl EventConn {
    /// Wrap an accepted stream. Sets nonblocking + nodelay (reply lines
    /// are latency-sensitive and tiny).
    pub fn new(stream: TcpStream, peer: SocketAddr, token: u64, buf: BytesMut) -> io::Result<Self> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Ok(EventConn {
            stream,
            peer,
            token,
            phase: ConnPhase::Reading,
            buf,
            deadline: None,
            close_after_flush: false,
            read_closed: false,
            out: VecDeque::new(),
            head_written: 0,
            out_bytes: 0,
        })
    }

    /// Drain the socket into the accumulation buffer until `WouldBlock`
    /// or EOF. `scratch` is the server's shared read chunk.
    pub fn fill(&mut self, scratch: &mut [u8]) -> io::Result<ReadStatus> {
        let mut status = ReadStatus::default();
        loop {
            match self.stream.read(scratch) {
                Ok(0) => {
                    status.eof = true;
                    self.read_closed = true;
                    return Ok(status);
                }
                Ok(n) => {
                    self.buf.extend_from_slice(&scratch[..n]);
                    status.bytes += n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(status),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Queue a reply chunk for writing.
    pub fn queue(&mut self, chunk: Chunk) {
        self.out_bytes += chunk.as_bytes().len();
        self.out.push_back(chunk);
    }

    /// Unflushed reply bytes.
    pub fn pending_out(&self) -> usize {
        self.out_bytes - self.head_written
    }

    /// Vectored flush of the queued chunks. Returns `true` once the
    /// queue is empty (flushed), `false` if the socket backpressured.
    pub fn flush(&mut self) -> io::Result<bool> {
        while !self.out.is_empty() {
            let mut slices: [IoSlice<'_>; MAX_IOVEC] = [IoSlice::new(&[]); MAX_IOVEC];
            let mut count = 0;
            for (i, chunk) in self.out.iter().take(MAX_IOVEC).enumerate() {
                let bytes = chunk.as_bytes();
                slices[i] = IoSlice::new(if i == 0 {
                    &bytes[self.head_written..]
                } else {
                    bytes
                });
                count = i + 1;
            }
            let written = match self.stream.write_vectored(&slices[..count]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            self.consume(written);
        }
        Ok(true)
    }

    /// Advance the queue past `written` flushed bytes.
    fn consume(&mut self, mut written: usize) {
        self.out_bytes -= written;
        while written > 0 {
            let head_len = self.out[0].as_bytes().len() - self.head_written;
            if written >= head_len {
                written -= head_len;
                self.head_written = 0;
                self.out.pop_front();
            } else {
                self.head_written += written;
                written = 0;
            }
        }
    }

    /// The poller interest this connection currently needs: writable
    /// while replies are queued, readable while the server would act on
    /// more request bytes and the peer may still send some.
    pub fn interest(&self) -> Interest {
        Interest {
            readable: self.phase == ConnPhase::Reading && !self.read_closed,
            writable: !self.out.is_empty(),
            edge: false,
        }
    }

    /// Hand the accumulation buffer back (for the pool) on close.
    pub fn take_buf(&mut self) -> BytesMut {
        std::mem::take(&mut self.buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::time::Duration;

    fn accepted_pair() -> (TcpStream, EventConn) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, peer) = listener.accept().unwrap();
        let conn = EventConn::new(server, peer, 1, BytesMut::with_capacity(256)).unwrap();
        (client, conn)
    }

    #[test]
    fn fill_accumulates_across_fragments() {
        let (mut client, mut conn) = accepted_pair();
        let mut scratch = [0u8; 64];
        client.write_all(b"exam").unwrap();
        std::thread::sleep(Duration::from_millis(10));
        let s = conn.fill(&mut scratch).unwrap();
        assert_eq!(s.bytes, 4);
        assert!(!s.eof);
        client.write_all(b"ple.com\r\n").unwrap();
        std::thread::sleep(Duration::from_millis(10));
        conn.fill(&mut scratch).unwrap();
        assert_eq!(&conn.buf[..], b"example.com\r\n");
    }

    #[test]
    fn fill_reports_eof() {
        let (mut client, mut conn) = accepted_pair();
        client.write_all(b"bye").unwrap();
        drop(client);
        std::thread::sleep(Duration::from_millis(10));
        let mut scratch = [0u8; 64];
        let s = conn.fill(&mut scratch).unwrap();
        assert_eq!(s.bytes, 3);
        assert!(s.eof, "EOF is reported after the final bytes");
        assert!(!conn.interest().readable, "no reads after EOF");
    }

    #[test]
    fn flush_writes_chunks_in_order_vectored() {
        let (mut client, mut conn) = accepted_pair();
        conn.queue(Chunk::Shared(Arc::new("{\"ok\":true}".to_string())));
        conn.queue(Chunk::Static(b"\n"));
        conn.queue(Chunk::Owned(Bytes::from(&b"tail"[..])));
        assert_eq!(conn.pending_out(), 16);
        assert!(conn.flush().unwrap());
        assert_eq!(conn.pending_out(), 0);
        drop(conn);
        let mut got = String::new();
        client.read_to_string(&mut got).unwrap();
        assert_eq!(got, "{\"ok\":true}\ntail");
    }

    #[test]
    fn flush_survives_backpressure_and_resumes() {
        let (client, mut conn) = accepted_pair();
        // A payload far beyond the socket buffers forces WouldBlock.
        let big = vec![b'x'; 4 << 20];
        conn.queue(Chunk::Owned(Bytes::from(big.clone())));
        conn.queue(Chunk::Static(b"END"));
        let mut done = conn.flush().unwrap();
        assert!(!done, "a 4MiB burst cannot fit the socket buffers");

        let reader = std::thread::spawn(move || {
            let mut client = client;
            let mut all = Vec::new();
            client.read_to_end(&mut all).unwrap();
            all
        });
        // Keep flushing as the reader drains.
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
            done = conn.flush().unwrap();
        }
        assert!(done, "flush completes once the peer drains");
        drop(conn);
        let all = reader.join().unwrap();
        assert_eq!(all.len(), big.len() + 3);
        assert_eq!(&all[all.len() - 3..], b"END");
        assert!(all[..all.len() - 3].iter().all(|&b| b == b'x'));
    }

    #[test]
    fn interest_tracks_phase_and_queue() {
        let (_client, mut conn) = accepted_pair();
        assert_eq!(conn.interest(), Interest::READ);
        conn.queue(Chunk::Static(b"x"));
        assert!(conn.interest().writable && conn.interest().readable);
        conn.phase = ConnPhase::Queued;
        assert!(!conn.interest().readable, "no reads while a job is queued");
        conn.flush().unwrap();
        assert!(!conn.interest().writable);
    }
}
