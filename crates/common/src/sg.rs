//! Scatter-gather byte lists for the zero-copy datapath.
//!
//! A DDP segment on the wire is `[header][payload][crc]`, and a datagram
//! fragment is an arbitrary MTU-sized window of that. Materialising every
//! such thing as one contiguous buffer would pay a copy at each layer.
//! [`SgBytes`] instead describes the same logical byte string
//! as an ordered list of [`Bytes`] views, so layering is O(parts): the
//! header is a pooled buffer, the payload is the caller's own slice, and
//! fragmentation is [`SgBytes::slice`] — all without touching the payload.
//!
//! The logical byte string (what [`SgBytes::to_bytes`] /
//! [`SgBytes::copy_to_slice`] produce) is the wire format; the part
//! structure is transport-internal, the software analogue of a NIC's
//! gather list, and is never observable in the bytes themselves.

use bytes::Bytes;

/// An ordered list of [`Bytes`] views treated as one logical byte string.
///
/// Cloning is O(parts) `Arc` bumps. Empty parts are never stored, so a
/// part index always maps to at least one logical byte.
#[derive(Clone, Default)]
pub struct SgBytes {
    parts: Vec<Bytes>,
    len: usize,
}

impl SgBytes {
    /// Creates an empty list.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a list with capacity for `n` parts.
    #[must_use]
    pub fn with_capacity(n: usize) -> Self {
        Self {
            parts: Vec::with_capacity(n),
            len: 0,
        }
    }

    /// Appends a part (zero-copy; empty parts are dropped).
    pub fn push(&mut self, part: Bytes) {
        if !part.is_empty() {
            self.len += part.len();
            self.parts.push(part);
        }
    }

    /// Total logical length in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the logical byte string is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The underlying parts, in order. No part is empty.
    #[must_use]
    pub fn parts(&self) -> &[Bytes] {
        &self.parts
    }

    /// Whether the logical bytes live in at most one contiguous buffer
    /// (i.e. [`SgBytes::to_bytes`] will not copy).
    #[must_use]
    pub fn is_contiguous(&self) -> bool {
        self.parts().len() <= 1
    }

    /// Zero-copy sub-window `start..end` of the logical byte string.
    ///
    /// # Panics
    /// Panics if `start > end` or `end > self.len()`.
    #[must_use]
    pub fn slice(&self, start: usize, end: usize) -> Self {
        assert!(
            start <= end && end <= self.len,
            "slice {start}..{end} out of bounds of {}",
            self.len
        );
        let mut out = Self::with_capacity(self.parts().len());
        let mut pos = 0usize;
        for p in self.parts() {
            let p_end = pos + p.len();
            if p_end > start && pos < end {
                let from = start.saturating_sub(pos);
                let to = p.len().min(end - pos);
                out.push(p.slice(from..to));
            }
            pos = p_end;
            if pos >= end {
                break;
            }
        }
        debug_assert_eq!(out.len(), end - start);
        out
    }

    /// Flattens into a single contiguous [`Bytes`].
    ///
    /// Zero-copy when the list is empty or single-part; otherwise copies
    /// `self.len()` bytes (callers on the datapath count this against
    /// `pool.bytes_copied`).
    #[must_use]
    pub fn to_bytes(&self) -> Bytes {
        match self.parts().len() {
            0 => Bytes::new(),
            1 => self.parts()[0].clone(),
            _ => {
                let mut v = Vec::with_capacity(self.len);
                for p in self.parts() {
                    v.extend_from_slice(p);
                }
                Bytes::from(v)
            }
        }
    }

    /// Copies the logical bytes into `dst`.
    ///
    /// # Panics
    /// Panics if `dst.len() != self.len()`.
    pub fn copy_to_slice(&self, dst: &mut [u8]) {
        assert_eq!(dst.len(), self.len, "destination length mismatch");
        let mut pos = 0usize;
        for p in self.parts() {
            dst[pos..pos + p.len()].copy_from_slice(p);
            pos += p.len();
        }
    }

    /// Copies a range of the logical bytes into a small stack/heap buffer.
    ///
    /// Intended for fixed-size protocol headers (tens of bytes) where a
    /// bounded copy is cheaper than restructuring; not for payloads.
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    #[must_use]
    pub fn copy_range(&self, start: usize, end: usize) -> Vec<u8> {
        let mut v = vec![0u8; end - start];
        self.read_at(start, &mut v);
        v
    }

    /// Copies `dst.len()` logical bytes starting at `start` into `dst`
    /// without allocating — the header-peek primitive of the burst RX
    /// path (a stack buffer instead of `copy_range`'s `Vec`).
    ///
    /// # Panics
    /// Panics if `start + dst.len() > self.len()`.
    pub fn read_at(&self, start: usize, dst: &mut [u8]) {
        let end = start + dst.len();
        assert!(
            end <= self.len,
            "read_at {start}..{end} out of bounds of {}",
            self.len
        );
        let mut pos = 0usize;
        let mut written = 0usize;
        for p in self.parts() {
            let p_end = pos + p.len();
            if p_end > start && pos < end {
                let from = start.saturating_sub(pos);
                let to = p.len().min(end - pos);
                dst[written..written + (to - from)].copy_from_slice(&p[from..to]);
                written += to - from;
            }
            pos = p_end;
            if pos >= end {
                break;
            }
        }
    }

    /// `self.slice(start, end).to_bytes()` without the intermediate list:
    /// zero-copy when the window lies within one part, a single bounded
    /// copy otherwise.
    ///
    /// # Panics
    /// Panics if `start > end` or `end > self.len()`.
    #[must_use]
    pub fn slice_to_bytes(&self, start: usize, end: usize) -> Bytes {
        assert!(
            start <= end && end <= self.len,
            "slice {start}..{end} out of bounds of {}",
            self.len
        );
        if start == end {
            return Bytes::new();
        }
        let mut pos = 0usize;
        for p in self.parts() {
            let p_end = pos + p.len();
            if pos <= start && end <= p_end {
                return p.slice(start - pos..end - pos);
            }
            if p_end > start {
                break;
            }
            pos = p_end;
        }
        let mut v = vec![0u8; end - start];
        self.read_at(start, &mut v);
        Bytes::from(v)
    }
}

impl From<Bytes> for SgBytes {
    fn from(b: Bytes) -> Self {
        let mut sg = Self::with_capacity(1);
        sg.push(b);
        sg
    }
}

impl PartialEq for SgBytes {
    fn eq(&self, other: &Self) -> bool {
        // Logical-byte equality; part structure is transport-internal.
        if self.len != other.len {
            return false;
        }
        self.to_bytes() == other.to_bytes()
    }
}

impl Eq for SgBytes {}

impl std::fmt::Debug for SgBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SgBytes(len={}, parts={})", self.len, self.parts().len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SgBytes {
        let mut sg = SgBytes::new();
        sg.push(Bytes::from(vec![0, 1, 2]));
        sg.push(Bytes::new()); // dropped
        sg.push(Bytes::from(vec![3, 4]));
        sg.push(Bytes::from(vec![5, 6, 7, 8]));
        sg
    }

    #[test]
    fn push_len_and_flatten() {
        let sg = sample();
        assert_eq!(sg.len(), 9);
        assert_eq!(sg.parts().len(), 3);
        assert_eq!(&sg.to_bytes()[..], &[0, 1, 2, 3, 4, 5, 6, 7, 8]);
        assert!(!sg.is_contiguous());
        let single = SgBytes::from(Bytes::from(vec![9, 9]));
        assert!(single.is_contiguous());
    }

    #[test]
    fn slice_windows_across_parts() {
        let sg = sample();
        for start in 0..=sg.len() {
            for end in start..=sg.len() {
                let w = sg.slice(start, end);
                assert_eq!(&w.to_bytes()[..], &sg.to_bytes()[start..end]);
            }
        }
        // A window inside one part stays single-part (zero-copy flatten).
        assert!(sg.slice(0, 2).is_contiguous());
        assert!(sg.slice(5, 9).is_contiguous());
    }

    #[test]
    fn copy_helpers_match_flatten() {
        let sg = sample();
        let mut dst = vec![0u8; sg.len()];
        sg.copy_to_slice(&mut dst);
        assert_eq!(dst, &sg.to_bytes()[..]);
        assert_eq!(sg.copy_range(2, 6), &sg.to_bytes()[2..6]);
    }

    #[test]
    fn read_at_matches_copy_range() {
        let sg = sample();
        let flat = sg.to_bytes();
        for start in 0..=sg.len() {
            for end in start..=sg.len() {
                let mut buf = vec![0u8; end - start];
                sg.read_at(start, &mut buf);
                assert_eq!(&buf[..], &flat[start..end], "window {start}..{end}");
            }
        }
    }

    #[test]
    fn slice_to_bytes_matches_slice_flatten() {
        let sg = sample();
        let flat = sg.to_bytes();
        for start in 0..=sg.len() {
            for end in start..=sg.len() {
                let b = sg.slice_to_bytes(start, end);
                assert_eq!(&b[..], &flat[start..end], "window {start}..{end}");
            }
        }
    }
}
