//! Node identity and addressing.

use std::fmt;

/// Index of a node inside one [`crate::Simulator`]. Stable for the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// A simulated network address.
///
/// One address per node; the experiments count "unique recursive IP
/// addresses" (paper Fig. 12) by counting distinct `Addr`s. Displayed in a
/// dotted-quad style for readable logs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Addr(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.0.to_be_bytes();
        write!(f, "{a}.{b}.{c}.{d}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_displays_as_dotted_quad() {
        assert_eq!(Addr(0xC0000201).to_string(), "192.0.2.1");
    }

    #[test]
    fn node_id_display() {
        assert_eq!(NodeId(17).to_string(), "n17");
    }
}
