//! Word and cache-line addresses.

use std::fmt;

use acr_isa::WORD_BYTES;

/// Cache line size in bytes (64 B, standard and implied by Table I).
pub const LINE_BYTES: u64 = 64;

/// Words per cache line.
pub const WORDS_PER_LINE: u64 = LINE_BYTES / WORD_BYTES;

/// A word-aligned byte address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WordAddr(u64);

impl WordAddr {
    /// Wraps a byte address.
    ///
    /// # Panics
    ///
    /// Panics if `byte_addr` is not word-aligned; the simulator rejects
    /// misaligned accesses before constructing a `WordAddr`.
    #[inline]
    pub fn new(byte_addr: u64) -> Self {
        assert_eq!(byte_addr % WORD_BYTES, 0, "word address must be aligned");
        WordAddr(byte_addr)
    }

    /// The byte address.
    #[inline]
    pub fn byte(self) -> u64 {
        self.0
    }

    /// Index into a word-array memory image.
    #[inline]
    pub fn word_index(self) -> usize {
        (self.0 / WORD_BYTES) as usize
    }

    /// The cache line containing this word.
    #[inline]
    pub fn line(self) -> LineAddr {
        LineAddr(self.0 / LINE_BYTES)
    }
}

impl fmt::Display for WordAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// A cache-line index (byte address divided by [`LINE_BYTES`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LineAddr(pub u64);

impl LineAddr {
    /// First byte address of the line.
    #[inline]
    pub fn byte(self) -> u64 {
        self.0 * LINE_BYTES
    }

    /// Index of the line in a flat line array.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Iterates the word addresses contained in the line.
    pub fn words(self) -> impl Iterator<Item = WordAddr> {
        (0..WORDS_PER_LINE).map(move |i| WordAddr(self.byte() + i * WORD_BYTES))
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line:{:#x}", self.byte())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_line_mapping() {
        let w = WordAddr::new(64 + 24);
        assert_eq!(w.line(), LineAddr(1));
        assert_eq!(w.word_index() as u64 % WORDS_PER_LINE, 3);
        assert_eq!(w.word_index(), 11);
    }

    #[test]
    #[should_panic(expected = "aligned")]
    fn rejects_misaligned() {
        let _ = WordAddr::new(3);
    }

    #[test]
    fn line_words_roundtrip() {
        let l = LineAddr(5);
        let words: Vec<_> = l.words().collect();
        assert_eq!(words.len(), WORDS_PER_LINE as usize);
        for w in words {
            assert_eq!(w.line(), l);
        }
    }
}
