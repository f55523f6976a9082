//! Payload buffers: owned bytes while a sender fills them, one shared
//! handle once they ride messages.
//!
//! Simulated time never reads a payload — only byte counts feed the network
//! model — so the carrier exists for readers of delivered bytes (value
//! checks in tests and verifiers), and is the simplest shape that carries
//! bytes without copying them at every hop. A sender fills a zeroed
//! [`PooledBuf`] and [`PooledBuf::share`]s it into a [`Payload`], moving
//! the vector into an `Arc`. Messages carry the handle, fan-out is an `Arc`
//! clone, and the last handle frees the buffer. Every buffer is one heap
//! allocation, counted in `simcore.payload_allocs`.
//!
//! `Arc<Vec<u8>>` rather than `Arc<[u8]>`: turning a `Vec` into an
//! `Arc<[u8]>` copies the bytes, and the slice handle is two words where
//! message records and wire bodies carry an `Option<Payload>` of one.

use std::sync::Arc;

/// A writable payload buffer, exclusively owned until
/// [`PooledBuf::share`] freezes it into a [`Payload`].
#[derive(Debug)]
pub struct PooledBuf(Vec<u8>);

impl PooledBuf {
    /// A zeroed `len`-byte buffer, heap-allocated now and freed when its
    /// last handle drops. Counted as a payload allocation.
    pub fn unpooled(len: usize) -> PooledBuf {
        simcore::stats::record_payload_alloc();
        PooledBuf(vec![0u8; len])
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if the length is zero.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The payload bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.0
    }

    /// The payload bytes, writable (only before [`PooledBuf::share`]).
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        &mut self.0
    }

    /// Freeze into an immutable, cloneable handle for in-flight messages.
    pub fn share(self) -> Payload {
        Payload(Arc::new(self.0))
    }
}

/// An immutable, shareable payload handle; cloning shares the bytes.
#[derive(Debug, Clone)]
pub struct Payload(Arc<Vec<u8>>);

// Message records and wire bodies carry an `Option<Payload>`: keep it one
// word (`Arc`'s non-null pointer is the `None` niche).
const _: () = assert!(std::mem::size_of::<Option<Payload>>() == std::mem::size_of::<usize>());

impl Payload {
    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if the length is zero.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The payload bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_aliasing_across_in_flight_buffers() {
        let mut a = PooledBuf::unpooled(1024);
        let mut b = PooledBuf::unpooled(1024);
        a.as_mut_slice().fill(0xAA);
        b.as_mut_slice().fill(0xBB);
        assert!(b.as_slice().iter().all(|&x| x == 0xBB));
        // Sharing moves the bytes, and a clone is the same buffer.
        let ptr_a = a.as_slice().as_ptr();
        let pa = a.share();
        let pa2 = pa.clone();
        assert_eq!(pa.as_slice().as_ptr(), ptr_a, "share must not copy");
        assert_eq!(pa2.as_slice().as_ptr(), ptr_a, "a clone must not copy");
        drop(pa);
        assert!(pa2.as_slice().iter().all(|&x| x == 0xAA));
    }

    #[test]
    fn miss_records_global_alloc() {
        let before = simcore::stats::payload_allocs();
        let _a = PooledBuf::unpooled(128);
        assert!(simcore::stats::payload_allocs() > before);
    }

    #[test]
    fn shared_handle_keeps_contents_and_length() {
        let mut a = PooledBuf::unpooled(100);
        assert!(a.as_slice().iter().all(|&x| x == 0), "not zeroed");
        a.as_mut_slice().fill(3);
        let p = a.share();
        assert_eq!(p.len(), 100);
        assert!(p.as_slice().iter().all(|&x| x == 3));
    }

    #[test]
    fn zero_length_payload_supported() {
        let b = PooledBuf::unpooled(0);
        assert!(b.is_empty() && b.share().is_empty());
    }
}
