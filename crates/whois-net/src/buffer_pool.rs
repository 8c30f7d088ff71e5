//! Reusable read buffers for the event driver.
//!
//! Every live connection owns one `BytesMut` accumulation buffer while
//! it is being served. Connections churn (a WHOIS exchange is one line
//! in, one body out), so allocating a fresh buffer per accept would put
//! an allocation and a free on the accept path at every churn. The pool
//! recycles them instead: [`BufferPool::get`] hands out a cleared
//! buffer with warm capacity, [`BufferPool::put`] takes it back when
//! the connection closes.
//!
//! Two guards keep the pool from becoming a leak in disguise:
//!
//! * at most `max_pooled` buffers are retained — a connection burst
//!   returns its buffers to the allocator instead of parking them;
//! * a buffer that grew far beyond the standard capacity (a client that
//!   sent a huge request line) is dropped rather than pooled, so one
//!   pathological connection cannot permanently inflate the pool's
//!   footprint.

use bytes::BytesMut;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// A buffer kept past this multiple of the standard capacity is
/// returned to the allocator instead of the pool.
const OVERSIZE_FACTOR: usize = 4;

/// Counters for pool effectiveness (relaxed; stats only).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BufferPoolStats {
    /// Buffers handed out that were freshly allocated.
    pub created: u64,
    /// Buffers handed out from the pool.
    pub reused: u64,
    /// Buffers accepted back into the pool.
    pub recycled: u64,
    /// Buffers dropped on return (pool full or oversized).
    pub discarded: u64,
}

/// A bounded pool of read buffers.
#[derive(Debug)]
pub struct BufferPool {
    free: Mutex<Vec<BytesMut>>,
    buf_capacity: usize,
    max_pooled: usize,
    created: AtomicU64,
    reused: AtomicU64,
    recycled: AtomicU64,
    discarded: AtomicU64,
}

impl BufferPool {
    /// Pool handing out buffers with `buf_capacity` bytes reserved,
    /// retaining at most `max_pooled` idle buffers.
    pub fn new(buf_capacity: usize, max_pooled: usize) -> BufferPool {
        BufferPool {
            free: Mutex::new(Vec::with_capacity(max_pooled.min(64))),
            buf_capacity: buf_capacity.max(1),
            max_pooled,
            created: AtomicU64::new(0),
            reused: AtomicU64::new(0),
            recycled: AtomicU64::new(0),
            discarded: AtomicU64::new(0),
        }
    }

    /// An empty buffer with at least the pool's standard capacity.
    pub fn get(&self) -> BytesMut {
        if let Some(buf) = self.free.lock().pop() {
            self.reused.fetch_add(1, Ordering::Relaxed);
            return buf;
        }
        self.created.fetch_add(1, Ordering::Relaxed);
        BytesMut::with_capacity(self.buf_capacity)
    }

    /// Return a buffer. Cleared here; dropped instead of pooled when the
    /// pool is full or the buffer grew oversized.
    pub fn put(&self, mut buf: BytesMut) {
        buf.clear();
        if buf.capacity() > self.buf_capacity * OVERSIZE_FACTOR {
            self.discarded.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mut free = self.free.lock();
        if free.len() >= self.max_pooled {
            self.discarded.fetch_add(1, Ordering::Relaxed);
            return;
        }
        free.push(buf);
        self.recycled.fetch_add(1, Ordering::Relaxed);
    }

    /// Idle buffers currently pooled.
    pub fn idle(&self) -> usize {
        self.free.lock().len()
    }

    /// Effectiveness counters.
    pub fn stats(&self) -> BufferPoolStats {
        BufferPoolStats {
            created: self.created.load(Ordering::Relaxed),
            reused: self.reused.load(Ordering::Relaxed),
            recycled: self.recycled.load(Ordering::Relaxed),
            discarded: self.discarded.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_reuses_storage() {
        let pool = BufferPool::new(256, 8);
        let mut a = pool.get();
        a.extend_from_slice(b"hello");
        pool.put(a);
        assert_eq!(pool.idle(), 1);
        let b = pool.get();
        assert!(b.is_empty(), "recycled buffers come back cleared");
        assert!(b.capacity() >= 256);
        let s = pool.stats();
        assert_eq!((s.created, s.reused, s.recycled), (1, 1, 1));
    }

    #[test]
    fn pool_is_bounded() {
        let pool = BufferPool::new(64, 2);
        let bufs: Vec<_> = (0..4).map(|_| pool.get()).collect();
        for b in bufs {
            pool.put(b);
        }
        assert_eq!(pool.idle(), 2);
        assert_eq!(pool.stats().discarded, 2);
    }

    #[test]
    fn oversized_buffers_are_not_pooled() {
        let pool = BufferPool::new(16, 8);
        let mut b = pool.get();
        b.extend_from_slice(&[0u8; 1024]); // grows far past 16 * 4
        pool.put(b);
        assert_eq!(pool.idle(), 0, "oversized buffer went to the allocator");
        assert_eq!(pool.stats().discarded, 1);
    }

    #[test]
    fn empty_pool_allocates_fresh() {
        let pool = BufferPool::new(32, 4);
        let a = pool.get();
        let b = pool.get();
        assert!(a.capacity() >= 32 && b.capacity() >= 32);
        assert_eq!(pool.stats().created, 2);
        assert_eq!(pool.stats().reused, 0);
    }
}
