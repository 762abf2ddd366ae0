//! Length-checked big-endian cursor for wire decode paths.
//!
//! Truncated, padded or random bytes must come back from a decoder as
//! `None` (or its own error), never as a panic. Every decoder of untrusted
//! bytes in the workspace reads through [`Reader`], so the bound check
//! exists once: a short read is `None` and leaves the cursor in place.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

/// A forward-only cursor over a byte slice.
#[derive(Clone, Copy, Debug)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `raw`.
    pub fn new(raw: &'a [u8]) -> Self {
        Reader { rest: raw }
    }

    /// The next `n` bytes, if present.
    pub fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let (head, tail) = self.rest.split_at_checked(n)?;
        self.rest = tail;
        Some(head)
    }

    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.bytes(N)?.try_into().ok()
    }

    /// The next byte, if present.
    pub fn u8(&mut self) -> Option<u8> {
        Some(u8::from_be_bytes(self.array()?))
    }

    /// The next big-endian `u16`, if present.
    pub fn u16(&mut self) -> Option<u16> {
        Some(u16::from_be_bytes(self.array()?))
    }

    /// The next big-endian `i16`, if present.
    pub fn i16(&mut self) -> Option<i16> {
        Some(i16::from_be_bytes(self.array()?))
    }

    /// The next big-endian `u32`, if present.
    pub fn u32(&mut self) -> Option<u32> {
        Some(u32::from_be_bytes(self.array()?))
    }

    /// The next big-endian `u64`, if present.
    pub fn u64(&mut self) -> Option<u64> {
        Some(u64::from_be_bytes(self.array()?))
    }

    /// The bytes not read yet; the cursor does not move.
    pub fn rest(&self) -> &'a [u8] {
        self.rest
    }

    /// `Some` only when every byte has been read: a decoder ends with
    /// this so a padded or spliced PDU is refused, not half-read.
    pub fn finish(self) -> Option<()> {
        self.rest.is_empty().then_some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_bounds_reads_decode_big_endian() {
        let raw = [
            0x01, 0x02, 0x03, 0x04, 0x05, 0xFF, 0xFE, 0, 0, 0, 0, 0, 0, 0x01, 0x00, 0xAA,
        ];
        let mut r = Reader::new(&raw);
        assert_eq!(r.u8(), Some(0x01));
        assert_eq!(r.u16(), Some(0x0203));
        assert_eq!(r.u16(), Some(0x0405));
        assert_eq!(r.i16(), Some(-2));
        assert_eq!(r.u64(), Some(0x100));
        assert_eq!(r.bytes(1), Some(&[0xAA][..]));
        assert!(r.rest().is_empty());
        assert_eq!(r.finish(), Some(()));
        assert_eq!(Reader::new(&raw[1..]).u32(), Some(0x0203_0405));
    }

    #[test]
    fn truncated_reads_are_none_not_panics() {
        let raw = [0xAA, 0xBB, 0xCC];
        let mut r = Reader::new(&raw);
        assert_eq!(r.u32(), None);
        assert_eq!(r.u64(), None);
        assert_eq!(r.bytes(4), None);
        assert_eq!(r.bytes(usize::MAX), None);
        assert_eq!(r.rest(), &raw);
        assert_eq!(r.u16(), Some(0xAABB));
        assert_eq!(r.u16(), None);
        assert_eq!(r.i16(), None);
        assert_eq!(r.u8(), Some(0xCC));
        assert_eq!(r.u8(), None);
        assert_eq!(r.bytes(0), Some(&[][..]));
        assert_eq!(Reader::new(&[]).u8(), None);
        assert_eq!(Reader::new(&raw).finish(), None);
    }
}
