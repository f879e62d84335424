//! Message classification and sizing.
//!
//! The paper's evaluation distinguishes two traffic classes:
//!
//! * **Data** — the 300 kb video chunks themselves. Data transfers contend
//!   for the sender's upload pipe and the receiver's download pipe and are
//!   *not* counted as "extra overhead".
//! * **Control** — everything else: buffer-map exchanges, chunk requests,
//!   DHT `Lookup`/`Insert` messages and their per-hop forwards, provider
//!   responses. Each control transmission is one *unit of extra overhead*
//!   (§IV, metric 3). Control messages are small, so by default they incur
//!   only propagation latency and do not occupy pipe bandwidth.

use core::fmt;

/// Traffic class of a message.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MsgClass {
    /// Video payload; contends for bandwidth, not counted as overhead.
    Data,
    /// Signalling; counted as one unit of extra overhead per transmission.
    Control,
}

impl MsgClass {
    /// True for [`MsgClass::Data`].
    #[inline]
    pub fn is_data(self) -> bool {
        matches!(self, MsgClass::Data)
    }
}

/// A message size in **bits** (the paper works in kilobits: a chunk is
/// 300 kb = 300,000 bits).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SizeBits(pub u64);

impl SizeBits {
    /// Zero-length message (pure signalling).
    pub const ZERO: SizeBits = SizeBits(0);

    /// Builds a size from kilobits (1 kb = 1000 bits, as in "300 kb chunk").
    #[inline]
    pub const fn from_kilobits(kb: u64) -> Self {
        SizeBits(kb * 1_000)
    }

    /// Raw bit count.
    #[inline]
    pub const fn bits(self) -> u64 {
        self.0
    }

    /// True if the message carries no payload bits.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Debug for SizeBits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}b", self.0)
    }
}

impl fmt::Display for SizeBits {
    // `u32::is_multiple_of` needs Rust 1.87; the workspace MSRV is 1.75.
    #[allow(clippy::manual_is_multiple_of)]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000 && self.0 % 1_000 == 0 {
            write!(f, "{}kb", self.0 / 1_000)
        } else {
            write!(f, "{}b", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_predicates() {
        assert!(!MsgClass::Control.is_data());
        assert!(MsgClass::Data.is_data());
    }

    #[test]
    fn size_conversions() {
        assert_eq!(SizeBits::from_kilobits(300).bits(), 300_000);
        assert!(SizeBits::ZERO.is_zero());
        assert!(!SizeBits(1).is_zero());
    }

    #[test]
    fn size_display() {
        assert_eq!(format!("{}", SizeBits::from_kilobits(300)), "300kb");
        assert_eq!(format!("{}", SizeBits(42)), "42b");
        assert_eq!(format!("{:?}", SizeBits(42)), "42b");
    }
}
