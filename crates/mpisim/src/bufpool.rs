//! Payload buffer pool: reusable message buffers behind intrusive,
//! reference-counted slabs.
//!
//! The obvious way to carry payload bytes (a fresh `Vec<u8>` per message,
//! copied at every hop) would put an O(msglen) allocate+copy on the hot path
//! of every simulated send, dwarfing the event-processing cost for the
//! paper's megabyte-scale sweeps. Instead, payloads are carried as
//! [`Payload`] handles:
//!
//! * a sender *acquires* a buffer from its world's [`BufPool`], fills it,
//!   and *shares* it into an immutable handle;
//! * the handle rides on the in-flight message — eager delivery, rendezvous
//!   payload injection and executor round staging all move the handle
//!   (a pointer), never the bytes;
//! * fan-out is free: one staged buffer can back many concurrent messages
//!   ([`Payload::clone`]): the sends of one `nbc` executor round share
//!   one slab per message size;
//! * when the last handle drops, the slab returns to its home pool's
//!   size-class shelf and is reused by a later acquire — steady-state
//!   simulations allocate O(pool depth) buffers total, not O(messages).
//!
//! A slab is one heap box holding the reference count, the logical length,
//! the bytes and a weak pointer to its home pool. The *box itself* is what
//! the shelf stores, so an acquire/share/drop cycle allocates nothing: the
//! count, the home pointer (set once, when the slab is first allocated) and
//! the bytes all travel with the box.
//!
//! Buffers are grouped in power-of-two size classes (minimum
//! [`MIN_CLASS_BYTES`]); an acquire pops a free slab of the right class or,
//! on a miss, heap-allocates one and records it via
//! [`simcore::stats::record_payload_alloc`] (`simcore.payload_allocs`).
//! Reused slabs are *not* zeroed: the content of a
//! freshly acquired buffer is unspecified, the acquirer must write what it
//! needs. The pool is internally synchronized (shelves and counters behind
//! one mutex), so handles may drop on any thread of a parallel sweep.
//!
//! # Soundness
//!
//! [`Payload`] is the only `unsafe` code. It is `Arc` written out by hand so
//! that the allocation can be shelved instead of freed:
//!
//! * the pointer always comes from `Box::leak` in [`Payload::from_box`] and
//!   stays valid until the handle that observes the count fall to zero
//!   turns it back into a `Box` — every other handle has dropped by then,
//!   so nothing can still dereference it;
//! * clones only ever read the slab (`len`, `bytes`, `home`) and touch the
//!   count atomically; the count uses `Arc`'s orderings (`Relaxed`
//!   increment, `Release` decrement, `Acquire` fence before the last owner
//!   reuses the memory), so every read made through another handle
//!   happens-before the slab is handed to the next writer;
//! * exactly one handle sees the decrement return 1, so a slab is shelved
//!   at most once per share, and the shelf hands each box to at most one
//!   acquirer — two live buffers can never alias
//!   (`no_aliasing_across_in_flight_buffers` and
//!   `racing_last_drops_recycle_exactly_once` below lock that in);
//! * a [`PooledBuf`] wraps a handle that has never been cloned (its field
//!   is private and it is not `Clone`), which is what makes
//!   [`PooledBuf::as_mut_slice`] exclusive.

use std::ptr::NonNull;
use std::sync::atomic::{fence, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Weak};

/// Smallest buffer class, in bytes. Acquires below this size are rounded up.
pub const MIN_CLASS_BYTES: usize = 64;

/// Number of power-of-two size classes; the largest class holds slabs of
/// `MIN_CLASS_BYTES << (NCLASSES - 1)` bytes (128 GiB — effectively
/// unbounded for simulation payloads). Larger requests fall back to
/// unpooled one-shot allocations.
const NCLASSES: usize = 32;

/// Size class for a requested length: smallest power-of-two capacity (at
/// least [`MIN_CLASS_BYTES`]) that fits `len`.
fn class_of(len: usize) -> usize {
    let cap = len.max(MIN_CLASS_BYTES).next_power_of_two();
    (cap / MIN_CLASS_BYTES).trailing_zeros() as usize
}

fn class_capacity(class: usize) -> usize {
    MIN_CLASS_BYTES << class
}

/// One payload buffer with its bookkeeping, boxed once and then recycled
/// as-is.
struct Slab {
    /// Live [`Payload`] handles. Only meaningful between
    /// [`Payload::from_box`] and the drop that brings it back to zero.
    refs: AtomicUsize,
    /// Logical payload length (≤ `bytes.len()`).
    len: usize,
    /// The bytes; for a pooled slab the length is exactly its class
    /// capacity, so the class can be recovered from it.
    bytes: Box<[u8]>,
    /// Home pool, set when the slab is allocated and never changed;
    /// dangling (`Weak::new`) for unpooled buffers, which are freed rather
    /// than shelved.
    home: Weak<PoolInner>,
}

impl Slab {
    fn boxed(len: usize, capacity: usize, home: Weak<PoolInner>) -> Box<Slab> {
        Box::new(Slab {
            refs: AtomicUsize::new(0),
            len,
            bytes: vec![0u8; capacity].into_boxed_slice(),
            home,
        })
    }
}

/// Free slabs and counters of one pool, under one lock: an acquire or a
/// recycle is a single lock round trip with no other shared-memory traffic.
struct Shelves {
    /// Free slabs per size class. Every slab on shelf `c` has capacity
    /// exactly `class_capacity(c)`. Boxed on purpose: handles point at the
    /// slab, so it is the box that is shelved and handed out again.
    #[allow(clippy::vec_box)]
    free: Vec<Vec<Box<Slab>>>,
    stats: BufPoolStats,
}

struct PoolInner {
    shelves: Mutex<Shelves>,
}

/// Counter snapshot of one pool (see [`BufPool::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufPoolStats {
    /// Total `acquire` calls.
    pub acquires: u64,
    /// Acquires satisfied from a shelf (no heap allocation).
    pub reuses: u64,
    /// Acquires that had to heap-allocate (pool misses).
    pub allocs: u64,
    /// Slabs returned to a shelf by a last-handle drop.
    pub recycles: u64,
}

/// A pool of reusable payload slabs. Cheap to clone (shared handle).
#[derive(Clone)]
pub struct BufPool {
    inner: Arc<PoolInner>,
}

impl Default for BufPool {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for BufPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("BufPool")
            .field("free", &self.free_slabs())
            .field("stats", &s)
            .finish()
    }
}

impl BufPool {
    /// An empty pool.
    pub fn new() -> BufPool {
        BufPool {
            inner: Arc::new(PoolInner {
                shelves: Mutex::new(Shelves {
                    free: (0..NCLASSES).map(|_| Vec::new()).collect(),
                    stats: BufPoolStats::default(),
                }),
            }),
        }
    }

    fn shelves(&self) -> std::sync::MutexGuard<'_, Shelves> {
        self.inner
            .shelves
            .lock()
            .expect("payload pool lock poisoned by a panicking holder")
    }

    /// Acquire a writable buffer of logical length `len`. Pops a free slab
    /// of `len`'s size class if one exists; otherwise heap-allocates one
    /// (recorded as a payload allocation). The buffer's content is
    /// **unspecified** — the caller fills what it cares about.
    pub fn acquire(&self, len: usize) -> PooledBuf {
        let class = class_of(len);
        let reused = {
            let mut sh = self.shelves();
            sh.stats.acquires += 1;
            let reused = sh.free.get_mut(class).and_then(Vec::pop);
            match reused {
                Some(_) => sh.stats.reuses += 1,
                None => sh.stats.allocs += 1,
            }
            reused
        };
        let slab = match reused {
            Some(mut slab) => {
                debug_assert_eq!(slab.bytes.len(), class_capacity(class));
                slab.len = len;
                slab
            }
            // Absurdly large request: one-shot allocation, no recycling.
            None if class >= NCLASSES => return PooledBuf::unpooled(len),
            None => {
                simcore::stats::record_payload_alloc();
                Slab::boxed(len, class_capacity(class), Arc::downgrade(&self.inner))
            }
        };
        PooledBuf(Payload::from_box(slab))
    }

    /// Shelve slabs until at least `count` free slabs of `len`'s size class
    /// exist — the untimed warm-up path: a sweep driver calls this before
    /// its measured region so the first simulated sends find warm slabs
    /// instead of paying a heap allocation (and an `allocs_per_event` tick)
    /// inside the timing window. Deliberately not counted as acquires or
    /// pool misses: these slabs were never requested by a simulation.
    pub fn prewarm(&self, len: usize, count: usize) {
        let class = class_of(len);
        if class >= NCLASSES {
            return;
        }
        let mut sh = self.shelves();
        while sh.free[class].len() < count {
            let slab = Slab::boxed(0, class_capacity(class), Arc::downgrade(&self.inner));
            sh.free[class].push(slab);
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> BufPoolStats {
        self.shelves().stats
    }

    /// Number of free slabs currently shelved (all classes).
    pub fn free_slabs(&self) -> usize {
        self.shelves().free.iter().map(Vec::len).sum()
    }
}

/// A payload buffer leased from a [`BufPool`] (or standalone, see
/// [`PooledBuf::unpooled`]). Mutable while exclusively owned; call
/// [`PooledBuf::share`] to freeze it into an immutable [`Payload`] handle
/// for attaching to messages. Dropping the last handle recycles the slab
/// into its home pool.
pub struct PooledBuf(Payload);

impl PooledBuf {
    /// A standalone buffer that is heap-allocated now and freed (not
    /// recycled) on drop — per-message allocation as it would be without a
    /// pool. Also counted as a payload allocation.
    pub fn unpooled(len: usize) -> PooledBuf {
        simcore::stats::record_payload_alloc();
        PooledBuf(Payload::from_box(Slab::boxed(len, len.max(1), Weak::new())))
    }

    /// Logical payload length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if the logical length is zero.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// True if this buffer recycles into a pool when the last handle drops.
    pub fn is_pooled(&self) -> bool {
        self.0.is_pooled()
    }

    /// The payload bytes.
    pub fn as_slice(&self) -> &[u8] {
        self.0.as_slice()
    }

    /// The payload bytes, writable (only before [`PooledBuf::share`]).
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        // SAFETY: the pointer is valid while `self.0` lives (see
        // `Payload`). The handle inside a `PooledBuf` has never been
        // cloned — the field is private, `PooledBuf` is not `Clone`, and
        // `share` consumes it — so it is the slab's only handle and
        // `&mut self` is exclusive access to the slab.
        let slab = unsafe { self.0.ptr.as_mut() };
        &mut slab.bytes[..slab.len]
    }

    /// Freeze into an immutable, cloneable handle for in-flight messages.
    pub fn share(self) -> Payload {
        self.0
    }
}

impl std::fmt::Debug for PooledBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PooledBuf")
            .field("len", &self.len())
            .field("capacity", &self.0.slab().bytes.len())
            .field("pooled", &self.is_pooled())
            .finish()
    }
}

/// An immutable, shareable payload handle. Cloning bumps the slab's
/// reference count; the slab recycles into its pool when the last clone
/// drops.
pub struct Payload {
    ptr: NonNull<Slab>,
}

// SAFETY: a `Payload` is a shared owner of a heap `Slab`, like `Arc<Slab>`.
// Through it other threads only read `len` and `bytes` (plain data, never
// written while shared), update `refs` atomically, and — the last owner
// alone — move the box to a shelf behind a mutex. `Slab`'s fields
// (`AtomicUsize`, `usize`, `Box<[u8]>`, `Weak<PoolInner>` over a `Mutex`)
// are all `Send + Sync`, so sending or sharing a handle is sound.
unsafe impl Send for Payload {}
unsafe impl Sync for Payload {}

impl Payload {
    /// Take sole ownership of `slab` as its first handle.
    fn from_box(mut slab: Box<Slab>) -> Payload {
        *slab.refs.get_mut() = 1;
        Payload {
            ptr: NonNull::from(Box::leak(slab)),
        }
    }

    fn slab(&self) -> &Slab {
        // SAFETY: `ptr` came from `Box::leak` and is only turned back into
        // a `Box` by the drop of the last handle; `self` is a live handle,
        // so the slab has not been reclaimed.
        unsafe { self.ptr.as_ref() }
    }

    /// Logical payload length in bytes.
    pub fn len(&self) -> usize {
        self.slab().len
    }

    /// True if the logical length is zero.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True if the slab recycles into a pool when the last handle drops.
    pub fn is_pooled(&self) -> bool {
        self.slab().home.strong_count() > 0
    }

    /// The payload bytes.
    pub fn as_slice(&self) -> &[u8] {
        let slab = self.slab();
        &slab.bytes[..slab.len]
    }
}

impl Clone for Payload {
    fn clone(&self) -> Payload {
        // Relaxed suffices: the new handle is derived from a live one, so
        // the slab cannot be reclaimed concurrently (same argument as
        // `Arc::clone`, including the overflow guard).
        let old = self.slab().refs.fetch_add(1, Ordering::Relaxed);
        if old > isize::MAX as usize {
            std::process::abort();
        }
        Payload { ptr: self.ptr }
    }
}

impl Drop for Payload {
    fn drop(&mut self) {
        // Release publishes this handle's reads to whoever reuses the slab.
        if self.slab().refs.fetch_sub(1, Ordering::Release) != 1 {
            return;
        }
        // Pairs with the Release decrements of every other handle: all
        // their accesses happen-before the slab is recycled or freed.
        fence(Ordering::Acquire);
        // SAFETY: the count just reached zero, so this was the last handle
        // and no other reference to the slab exists; `ptr` came from
        // `Box::leak`, so rebuilding the box is the matching reclaim.
        let slab = unsafe { Box::from_raw(self.ptr.as_ptr()) };
        // The pool may already be gone (world dropped before a stray
        // handle), or its lock poisoned; then the slab is simply freed —
        // a drop must not panic.
        let Some(pool) = slab.home.upgrade() else {
            return;
        };
        if let Ok(mut sh) = pool.shelves.lock() {
            let class = class_of(slab.bytes.len());
            debug_assert_eq!(class_capacity(class), slab.bytes.len());
            sh.free[class].push(slab);
            sh.stats.recycles += 1;
        };
    }
}

impl std::fmt::Debug for Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Payload")
            .field("len", &self.len())
            .field("pooled", &self.is_pooled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_classes_round_up() {
        assert_eq!(class_of(0), 0);
        assert_eq!(class_of(1), 0);
        assert_eq!(class_of(64), 0);
        assert_eq!(class_of(65), 1);
        assert_eq!(class_of(128), 1);
        assert_eq!(class_of(256 * 1024), class_of(200 * 1024));
        assert!(class_capacity(class_of(300)) >= 300);
    }

    #[test]
    fn no_aliasing_across_in_flight_buffers() {
        // Two concurrently live buffers must have distinct backing memory,
        // even though they share a size class.
        let pool = BufPool::new();
        let mut a = pool.acquire(1024);
        let mut b = pool.acquire(1024);
        a.as_mut_slice().fill(0xAA);
        b.as_mut_slice().fill(0xBB);
        assert!(a.as_slice().iter().all(|&x| x == 0xAA));
        assert!(b.as_slice().iter().all(|&x| x == 0xBB));
        // Shared handles keep the exclusivity: cloning the handle must not
        // return the slab while any clone is alive.
        let pa = a.share();
        let pa2 = pa.clone();
        assert_eq!(
            pa.as_slice().as_ptr(),
            pa2.as_slice().as_ptr(),
            "a clone is the same slab, not a copy"
        );
        drop(pa);
        assert_eq!(pool.free_slabs(), 0, "clone still alive");
        drop(pa2);
        assert_eq!(pool.free_slabs(), 1, "last clone recycles");
    }

    #[test]
    fn recycle_and_reuse_same_slab() {
        let pool = BufPool::new();
        let mut a = pool.acquire(4096);
        a.as_mut_slice().fill(7);
        let ptr_a = a.as_slice().as_ptr() as usize;
        drop(a);
        assert_eq!(pool.free_slabs(), 1);
        let b = pool.acquire(3000); // same class (4096)
        assert_eq!(
            b.as_slice().as_ptr() as usize,
            ptr_a,
            "reuse must hand back the shelved slab"
        );
        let s = pool.stats();
        assert_eq!(s.acquires, 2);
        assert_eq!(s.allocs, 1);
        assert_eq!(s.reuses, 1);
        assert_eq!(s.recycles, 1);
    }

    #[test]
    fn reuse_content_is_whatever_was_left() {
        // Contract check: reused slabs are not zeroed.
        let pool = BufPool::new();
        let mut a = pool.acquire(64);
        a.as_mut_slice().fill(0x5A);
        drop(a);
        let b = pool.acquire(64);
        assert!(b.as_slice().iter().all(|&x| x == 0x5A));
    }

    #[test]
    fn miss_records_global_alloc() {
        let before = simcore::stats::payload_allocs();
        let pool = BufPool::new();
        let _a = pool.acquire(128);
        assert!(simcore::stats::payload_allocs() > before);
    }

    #[test]
    fn unpooled_buffers_do_not_recycle() {
        let b = PooledBuf::unpooled(512);
        assert!(!b.is_pooled());
        assert_eq!(b.len(), 512);
        drop(b); // must not panic; nothing to shelve
    }

    #[test]
    fn pool_drop_before_handle_is_safe() {
        let pool = BufPool::new();
        let buf = pool.acquire(256).share();
        drop(pool);
        drop(buf); // weak home upgrade fails; slab is freed
    }

    #[test]
    fn shared_handle_keeps_contents_and_length() {
        let pool = BufPool::new();
        let mut a = pool.acquire(100);
        a.as_mut_slice().fill(3);
        let p = a.share();
        assert_eq!(p.len(), 100);
        assert!(p.is_pooled());
        assert!(p.as_slice().iter().all(|&x| x == 3));
        // The next lease of the class gets the logical length it asked
        // for, not the previous tenant's.
        drop(p);
        assert_eq!(pool.acquire(70).len(), 70);
    }

    #[test]
    fn racing_last_drops_recycle_exactly_once() {
        // Two threads each drop one of the two handles of a slab, released
        // together by a barrier, 10^5 times over. Whichever decrement comes
        // second must be the only one that shelves the slab: a double
        // shelve would hand one box to two owners (caught as a free-slab
        // count of 2 or a recycle count above the acquire count), a missed
        // one would leak it (a second allocation).
        use std::sync::mpsc::channel;
        use std::sync::Barrier;
        const ROUNDS: u64 = if cfg!(miri) { 200 } else { 100_000 };
        let pool = BufPool::new();
        let barrier = Barrier::new(2);
        std::thread::scope(|s| {
            let (tx, rx) = channel::<Payload>();
            let (ack_tx, ack_rx) = channel::<()>();
            let barrier = &barrier;
            s.spawn(move || {
                for p in rx {
                    barrier.wait();
                    drop(p);
                    ack_tx.send(()).expect("main thread hung up");
                }
            });
            for i in 0..ROUNDS {
                let mut buf = pool.acquire(256);
                buf.as_mut_slice()[0] = i as u8;
                let mine = buf.share();
                tx.send(mine.clone()).expect("dropper thread died");
                barrier.wait();
                drop(mine);
                // The slab is only back on the shelf once both are gone.
                ack_rx.recv().expect("dropper thread died");
            }
        });
        let s = pool.stats();
        assert_eq!(s.acquires, ROUNDS);
        assert_eq!(s.recycles, ROUNDS, "every share must recycle once");
        assert_eq!(s.allocs, 1, "one slab must have served every round");
        assert_eq!(pool.free_slabs(), 1, "double shelve or leak");
    }

    #[test]
    fn zero_length_payload_supported() {
        let pool = BufPool::new();
        let b = pool.acquire(0);
        assert!(b.is_empty());
        assert_eq!(b.as_slice().len(), 0);
    }
}
