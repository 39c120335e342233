//! Offline stand-in for the `bytes` crate.
//!
//! The build container has no crates.io access, so the workspace vendors
//! the subset it uses: `Bytes` (cheaply cloneable, sliceable, immutable),
//! `BytesMut` (growable builder that freezes into `Bytes`), and the
//! `Buf`/`BufMut` traits' big-endian put/advance methods. `Bytes` is an
//! `Arc<Vec<u8>>` plus an offset window, so `clone()` and `slice()` are
//! O(1) and never copy payload — the property the zero-copy paths in
//! `simnet` and `core` rely on. Storage is `Arc<Vec<u8>>` rather than
//! `Arc<[u8]>` so `From<Vec<u8>>` (and therefore `BytesMut::freeze`) is
//! allocation-free, and so a buffer pool can hold a clone of the storage
//! and reclaim the allocation once every view has been dropped
//! ([`Bytes::from_shared`] / [`Bytes::shared_storage`]). As upstream,
//! an empty `Bytes` allocates nothing: every one shares a single
//! process-wide empty storage.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::sync::{Arc, OnceLock};

/// The storage every empty [`Bytes`] shares.
fn empty_storage() -> &'static Arc<Vec<u8>> {
    static EMPTY: OnceLock<Arc<Vec<u8>>> = OnceLock::new();
    EMPTY.get_or_init(|| Arc::new(Vec::new()))
}

/// A cheaply cloneable, immutable window onto shared byte storage.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    off: usize,
    len: usize,
}

impl Bytes {
    /// Creates an empty `Bytes` (no allocation: the storage is shared).
    #[must_use]
    pub fn new() -> Self {
        Self {
            data: Arc::clone(empty_storage()),
            off: 0,
            len: 0,
        }
    }

    /// Creates a view over already-shared storage without copying.
    ///
    /// This is how the buffer pool hands out pooled allocations: it keeps
    /// its own clone of the `Arc` and reclaims the `Vec` once the strong
    /// count drops back to one.
    #[must_use]
    pub fn from_shared(data: Arc<Vec<u8>>) -> Self {
        let len = data.len();
        Self { data, off: 0, len }
    }

    /// The shared storage backing this view (the whole allocation, not
    /// just the visible window). Used by pool recycling to observe the
    /// reference count.
    #[must_use]
    pub fn shared_storage(&self) -> &Arc<Vec<u8>> {
        &self.data
    }

    /// Creates `Bytes` viewing a static slice (copied once into shared
    /// storage — unlike upstream this is not zero-alloc, which no caller
    /// here depends on).
    #[must_use]
    pub fn from_static(s: &'static [u8]) -> Self {
        Self::copy_from_slice(s)
    }

    /// Copies `s` into new shared storage.
    #[must_use]
    pub fn copy_from_slice(s: &[u8]) -> Self {
        Self {
            data: Arc::new(s.to_vec()),
            off: 0,
            len: s.len(),
        }
    }

    /// Returns a zero-copy sub-window of this buffer.
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    #[must_use]
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let start = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len,
        };
        assert!(
            start <= end && end <= self.len,
            "slice {start}..{end} out of bounds of {}",
            self.len
        );
        Self {
            data: Arc::clone(&self.data),
            off: self.off + start,
            len: end - start,
        }
    }

    /// Number of bytes in the view.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Self::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.off..self.off + self.len]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        // An unallocated Vec has nothing to share or reclaim.
        if v.capacity() == 0 {
            return Self::new();
        }
        // Zero-copy: the Vec becomes the shared storage as-is. Spare
        // capacity is retained (and reusable if the allocation is later
        // reclaimed by a pool via `shared_storage`).
        let len = v.len();
        Self {
            data: Arc::new(v),
            off: 0,
            len,
        }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Self {
        Self::copy_from_slice(s)
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Self::from(s.into_bytes())
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Self {
        Self::copy_from_slice(s.as_bytes())
    }
}

impl<const N: usize> From<[u8; N]> for Bytes {
    fn from(a: [u8; N]) -> Self {
        Self::copy_from_slice(&a)
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self[..] == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self[..] == other[..]
    }
}

impl PartialEq<Bytes> for Vec<u8> {
    fn eq(&self, other: &Bytes) -> bool {
        self[..] == other[..]
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self[..] == **other
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self[..].hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter().take(64) {
            if b.is_ascii_graphic() || b == b' ' {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "\\x{b:02x}")?;
            }
        }
        if self.len() > 64 {
            write!(f, "…(+{})", self.len() - 64)?;
        }
        write!(f, "\"")
    }
}

/// A growable byte buffer that can be frozen into [`Bytes`].
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    buf: Vec<u8>,
    head: usize,
}

impl BytesMut {
    /// Creates an empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty buffer with `cap` bytes preallocated.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buf: Vec::with_capacity(cap),
            head: 0,
        }
    }

    /// Number of readable bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len() - self.head
    }

    /// Whether there are no readable bytes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resizes the readable region to `new_len`, filling with `value`.
    pub fn resize(&mut self, new_len: usize, value: u8) {
        self.buf.resize(self.head + new_len, value);
    }

    /// Appends `s` to the buffer.
    pub fn extend_from_slice(&mut self, s: &[u8]) {
        self.buf.extend_from_slice(s);
    }

    /// Ensures room for `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Freezes into an immutable [`Bytes`], consuming the builder.
    #[must_use]
    pub fn freeze(mut self) -> Bytes {
        if self.head > 0 {
            self.buf.drain(..self.head);
        }
        Bytes::from(self.buf)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf[self.head..]
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf[self.head..]
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BytesMut(len={})", self.len())
    }
}

/// Read-side buffer operations (subset of upstream `bytes::Buf`).
pub trait Buf {
    /// Number of bytes left to consume.
    fn remaining(&self) -> usize;
    /// Discards `cnt` bytes from the front.
    fn advance(&mut self, cnt: usize);
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len
    }

    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len, "advance {cnt} past end {}", self.len);
        self.off += cnt;
        self.len -= cnt;
    }
}

impl Buf for BytesMut {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance {cnt} past end {}", self.len());
        self.head += cnt;
        // Reclaim the dead prefix once it dominates the buffer, so a
        // long-lived stream reassembly buffer doesn't grow without bound.
        if self.head > 4096 && self.head * 2 > self.buf.len() {
            self.buf.drain(..self.head);
            self.head = 0;
        }
    }
}

/// Write-side buffer operations (subset of upstream `bytes::BufMut`), all
/// big-endian like the wire formats that call them.
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, s: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends a big-endian `u16`.
    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u32`.
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u64`.
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Appends `cnt` copies of `val`.
    fn put_bytes(&mut self, val: u8, cnt: usize);
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, s: &[u8]) {
        self.extend_from_slice(s);
    }

    fn put_bytes(&mut self, val: u8, cnt: usize) {
        self.buf.resize(self.buf.len() + cnt, val);
    }
}

impl Extend<u8> for BytesMut {
    fn extend<I: IntoIterator<Item = u8>>(&mut self, iter: I) {
        self.buf.extend(iter);
    }
}

impl<'a> Extend<&'a u8> for BytesMut {
    fn extend<I: IntoIterator<Item = &'a u8>>(&mut self, iter: I) {
        self.buf.extend(iter.into_iter().copied());
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, s: &[u8]) {
        self.extend_from_slice(s);
    }

    fn put_bytes(&mut self, val: u8, cnt: usize) {
        self.resize(self.len() + cnt, val);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_is_zero_copy_window() {
        let b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[2, 3, 4]);
        let s2 = s.slice(..2);
        assert_eq!(&s2[..], &[2, 3]);
        assert_eq!(b.len(), 5);
    }

    #[test]
    fn builder_roundtrip() {
        let mut m = BytesMut::with_capacity(16);
        m.put_u8(0xAB);
        m.put_u16(0x0102);
        m.put_u32(0x03040506);
        m.put_u64(0x0708090A0B0C0D0E);
        m.extend_from_slice(b"xy");
        assert_eq!(m.len(), 17);
        let b = m.freeze();
        assert_eq!(
            &b[..],
            &[0xAB, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0xA, 0xB, 0xC, 0xD, 0xE, b'x', b'y']
        );
    }

    #[test]
    fn advance_moves_window() {
        let mut m = BytesMut::new();
        m.extend_from_slice(&[1, 2, 3, 4]);
        m.advance(2);
        assert_eq!(&m[..], &[3, 4]);
        m.extend_from_slice(&[5]);
        assert_eq!(&m[..], &[3, 4, 5]);
        assert_eq!(&m.freeze()[..], &[3, 4, 5]);

        let mut b = Bytes::from(vec![9, 8, 7]);
        b.advance(1);
        assert_eq!(&b[..], &[8, 7]);
        assert_eq!(b.remaining(), 2);
    }

    #[test]
    fn freeze_and_from_vec_share_storage() {
        // `From<Vec<u8>>` must not reallocate: the pool recycling trick
        // depends on views keeping the original allocation alive.
        let v = vec![1u8, 2, 3, 4];
        let ptr = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.shared_storage().as_ptr(), ptr);

        let shared = Arc::new(vec![5u8, 6, 7]);
        let view = Bytes::from_shared(Arc::clone(&shared));
        assert_eq!(&view[..], &[5, 6, 7]);
        assert_eq!(Arc::strong_count(&shared), 2);
        let sub = view.slice(1..);
        assert_eq!(Arc::strong_count(&shared), 3);
        drop(view);
        drop(sub);
        assert_eq!(Arc::strong_count(&shared), 1);
    }

    #[test]
    fn empty_bytes_share_one_storage() {
        let a = Bytes::new();
        let b = Bytes::default();
        let c = Bytes::from(Vec::new());
        let d = BytesMut::new().freeze();
        for e in [&b, &c, &d] {
            assert!(Arc::ptr_eq(a.shared_storage(), e.shared_storage()));
            assert!(e.is_empty());
        }
        // A non-empty buffer still gets storage of its own.
        let f = Bytes::copy_from_slice(b"x");
        assert!(!Arc::ptr_eq(a.shared_storage(), f.shared_storage()));
        // Windows of it stay usable and empty.
        assert!(a.slice(..).is_empty());
    }

    #[test]
    fn equality_and_resize() {
        let a = Bytes::from_static(b"abc");
        let b = Bytes::copy_from_slice(b"abc");
        assert_eq!(a, b);
        assert_eq!(a, b"abc".to_vec());
        let mut m = BytesMut::new();
        m.resize(3, 0x61);
        assert_eq!(&m[..], b"aaa");
        m.put_bytes(0x62, 2);
        assert_eq!(&m[..], b"aaabb");
    }
}
