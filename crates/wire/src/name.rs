//! Domain names.
//!
//! A [`Name`] stores its labels as one flat *wire run* — the RFC 1035
//! length-prefixed label bytes, canonical lowercase, without the
//! terminating zero octet. Short names (the overwhelming majority: every
//! name in the paper's workloads fits) live inline in the struct, so
//! cloning a name is a 32-byte copy and building one from the decoder is
//! allocation-free. DNS names compare case-insensitively (RFC 1035
//! §2.3.3); normalizing at construction keeps comparison, hashing and
//! cache lookups cheap, and the run form is exactly what the encoder
//! writes, so serialization is a memcpy.

use std::fmt;
use std::str::FromStr;

/// Maximum length of a single label, per RFC 1035 §2.3.4.
pub(crate) const MAX_LABEL_LEN: usize = 63;
/// Maximum length of a whole name on the wire (including length octets and
/// the root's zero octet), per RFC 1035 §2.3.4.
pub(crate) const MAX_NAME_LEN: usize = 255;

/// Longest wire run (no terminator) a name can carry.
const MAX_RUN_LEN: usize = MAX_NAME_LEN - 1;

/// Wire runs at most this long are stored inline; the enum stays at
/// 32 bytes and covers every name the simulated workloads generate
/// (`{pid}.cachetest.nl` runs 15–17 octets).
const INLINE_CAP: usize = 30;

/// Errors produced when constructing a [`Name`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NameError {
    /// A label was empty (e.g. `a..b`) somewhere other than the root.
    EmptyLabel,
    /// A label exceeded 63 octets (RFC 1035 §2.3.4).
    LabelTooLong(usize),
    /// The whole name exceeded 255 octets in wire form (RFC 1035 §2.3.4).
    NameTooLong(usize),
    /// A label contained a byte we refuse to carry (control characters).
    InvalidByte(u8),
}

impl fmt::Display for NameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NameError::EmptyLabel => write!(f, "empty label"),
            NameError::LabelTooLong(n) => write!(f, "label of {n} octets exceeds 63"),
            NameError::NameTooLong(n) => write!(f, "name of {n} octets exceeds 255"),
            NameError::InvalidByte(b) => write!(f, "invalid byte {b:#04x} in label"),
        }
    }
}

impl std::error::Error for NameError {}

/// Validates one label's bytes without copying them.
fn check_label(bytes: &[u8]) -> Result<(), NameError> {
    if bytes.is_empty() {
        return Err(NameError::EmptyLabel);
    }
    if bytes.len() > MAX_LABEL_LEN {
        return Err(NameError::LabelTooLong(bytes.len()));
    }
    if let Some(&b) = bytes.iter().find(|&&b| b < 0x21 || b == 0x7f) {
        return Err(NameError::InvalidByte(b));
    }
    Ok(())
}

/// The flat label-run storage: inline for short names, heap for the tail.
#[derive(Clone)]
enum Run {
    /// `buf[..len]` is the wire run.
    Inline { len: u8, buf: [u8; INLINE_CAP] },
    /// Runs longer than [`INLINE_CAP`] octets.
    Heap(Box<[u8]>),
}

impl Run {
    fn from_slice(bytes: &[u8]) -> Run {
        debug_assert!(bytes.len() <= MAX_RUN_LEN);
        if bytes.len() <= INLINE_CAP {
            let mut buf = [0u8; INLINE_CAP];
            buf[..bytes.len()].copy_from_slice(bytes);
            Run::Inline {
                len: bytes.len() as u8,
                buf,
            }
        } else {
            Run::Heap(bytes.into())
        }
    }

    fn as_slice(&self) -> &[u8] {
        match self {
            Run::Inline { len, buf } => &buf[..*len as usize],
            Run::Heap(b) => b,
        }
    }
}

/// Incrementally assembles a validated name label by label — the
/// decoder's and parser's shared construction path. Labels are
/// lowercased and appended to a stack buffer; no allocation happens
/// until [`NameBuilder::finish`], and none at all for names that fit
/// the inline representation.
pub(crate) struct NameBuilder {
    buf: [u8; MAX_RUN_LEN],
    len: usize,
}

impl Default for NameBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl NameBuilder {
    /// An empty builder; finishing immediately yields the root.
    pub(crate) fn new() -> Self {
        NameBuilder {
            buf: [0u8; MAX_RUN_LEN],
            len: 0,
        }
    }

    /// Validates and appends one label (lowercasing ASCII letters).
    pub(crate) fn push_label(&mut self, bytes: &[u8]) -> Result<(), NameError> {
        check_label(bytes)?;
        // +1 length octet here, +1 terminating zero octet on the wire.
        let wire = self.len + 1 + bytes.len() + 1;
        if wire > MAX_NAME_LEN {
            return Err(NameError::NameTooLong(wire));
        }
        self.buf[self.len] = bytes.len() as u8;
        self.len += 1;
        let dst = &mut self.buf[self.len..self.len + bytes.len()];
        dst.copy_from_slice(bytes);
        dst.make_ascii_lowercase();
        self.len += bytes.len();
        Ok(())
    }

    /// The assembled name.
    pub(crate) fn finish(&self) -> Name {
        Name {
            run: Run::from_slice(&self.buf[..self.len]),
        }
    }
}

/// A fully-qualified domain name.
///
/// The root is the empty sequence of labels. `Name` is ordered in canonical
/// DNS order (reversed label sequence), so `a.example.nl < b.example.nl`
/// and both sort under `example.nl`.
#[derive(Clone)]
pub struct Name {
    run: Run,
}

/// Iterator over a name's labels as raw byte slices, leftmost first.
#[derive(Debug, Clone)]
pub struct Labels<'a> {
    rest: &'a [u8],
}

impl<'a> Iterator for Labels<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let (&len, tail) = self.rest.split_first()?;
        let (label, rest) = tail.split_at(len as usize);
        self.rest = rest;
        Some(label)
    }
}

impl Name {
    /// The root name (`.`).
    pub fn root() -> Self {
        Name {
            run: Run::from_slice(&[]),
        }
    }

    /// Parses a name from presentation format. A trailing dot is allowed
    /// and ignored; `.` and the empty string denote the root.
    pub fn parse(s: &str) -> Result<Self, NameError> {
        if s.is_empty() || s == "." {
            return Ok(Name::root());
        }
        let s = s.strip_suffix('.').unwrap_or(s);
        let mut b = NameBuilder::new();
        for part in s.split('.') {
            b.push_label(part.as_bytes())?;
        }
        Ok(b.finish())
    }

    /// Builds a name directly from an already-canonical wire run
    /// (length-prefixed lowercase labels, no terminator).
    fn from_run(run: &[u8]) -> Self {
        Name {
            run: Run::from_slice(run),
        }
    }

    /// The name's wire run: length-prefixed lowercase labels, without the
    /// terminating zero octet. This is exactly the byte sequence the
    /// encoder writes (before compression), so hot paths copy it
    /// wholesale instead of re-walking labels.
    pub(crate) fn as_wire_run(&self) -> &[u8] {
        self.run.as_slice()
    }

    /// The labels as raw byte slices, leftmost (most specific) first.
    pub fn labels(&self) -> Labels<'_> {
        Labels {
            rest: self.run.as_slice(),
        }
    }

    /// Writes each label's start offset within the run into `out`,
    /// returning the label count. `out` is sized for the worst case
    /// (127 one-octet labels in a 254-octet run).
    fn label_offsets(&self, out: &mut [u8; 128]) -> usize {
        let run = self.run.as_slice();
        let mut n = 0;
        let mut p = 0;
        while p < run.len() {
            out[n] = p as u8;
            n += 1;
            p += 1 + run[p] as usize;
        }
        n
    }

    /// Number of labels. The root has zero.
    pub fn label_count(&self) -> usize {
        self.labels().count()
    }

    /// True for the root name.
    pub fn is_root(&self) -> bool {
        self.run.as_slice().is_empty()
    }

    /// The name's length in wire format: one length octet per label plus
    /// its bytes, plus the terminating zero octet.
    pub fn wire_len(&self) -> usize {
        self.run.as_slice().len() + 1
    }

    /// Prepends a label: `child("www")` on `example.nl` gives
    /// `www.example.nl`.
    pub fn child(&self, label: &str) -> Result<Self, NameError> {
        let mut b = NameBuilder::new();
        b.push_label(label.as_bytes())?;
        let run = self.run.as_slice();
        let wire = b.len + run.len() + 1;
        if wire > MAX_NAME_LEN {
            return Err(NameError::NameTooLong(wire));
        }
        b.buf[b.len..b.len + run.len()].copy_from_slice(run);
        b.len += run.len();
        Ok(b.finish())
    }

    /// The parent zone cut: `www.example.nl` → `example.nl`; the root has
    /// no parent.
    pub fn parent(&self) -> Option<Self> {
        let run = self.run.as_slice();
        let (&len, _) = run.split_first()?;
        Some(Name::from_run(&run[1 + len as usize..]))
    }

    /// True if `self` equals `ancestor` or sits below it in the tree.
    /// Every name is below the root.
    pub fn is_subdomain_of(&self, ancestor: &Name) -> bool {
        let run = self.run.as_slice();
        let anc = ancestor.run.as_slice();
        if run.len() < anc.len() || !run.ends_with(anc) {
            return false;
        }
        // The suffix must start on a label boundary: "x.aab.nl" ends with
        // the run of "ab.nl" byte-wise but is not below it.
        let cut = run.len() - anc.len();
        let mut p = 0;
        while p < cut {
            p += 1 + run[p] as usize;
        }
        p == cut
    }

    /// Iterator over `self` and each successive parent, ending at the root.
    /// `www.example.nl` yields `www.example.nl`, `example.nl`, `nl`, `.`.
    pub fn self_and_ancestors(&self) -> impl Iterator<Item = Name> + '_ {
        let mut offs = [0u8; 128];
        let n = self.label_offsets(&mut offs);
        (0..=n).map(move |skip| {
            if skip == n {
                Name::root()
            } else {
                Name::from_run(&self.run.as_slice()[offs[skip] as usize..])
            }
        })
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        self.run.as_slice() == other.run.as_slice()
    }
}

impl Eq for Name {}

impl std::hash::Hash for Name {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.run.as_slice().hash(state);
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Name({self})")
    }
}

impl fmt::Display for Name {
    /// The root prints as `.`, everything else as dotted labels without a
    /// trailing dot.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_root() {
            return write!(f, ".");
        }
        for (i, label) in self.labels().enumerate() {
            if i > 0 {
                write!(f, ".")?;
            }
            for &b in label {
                match b {
                    b'.' | b'\\' => write!(f, "\\{}", b as char)?,
                    0x21..=0x7e => write!(f, "{}", b as char)?,
                    _ => write!(f, "\\{b:03}")?,
                }
            }
        }
        Ok(())
    }
}

impl FromStr for Name {
    type Err = NameError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Name::parse(s)
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    /// Canonical DNS ordering (RFC 4034 §6.1): compare label sequences
    /// right-to-left.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        let (mut ao, mut bo) = ([0u8; 128], [0u8; 128]);
        let an = self.label_offsets(&mut ao);
        let bn = other.label_offsets(&mut bo);
        let (ar, br) = (self.run.as_slice(), other.run.as_slice());
        for i in 1..=an.min(bn) {
            let (a, b) = (ao[an - i] as usize, bo[bn - i] as usize);
            let (al, bl) = (ar[a] as usize, br[b] as usize);
            let c = ar[a + 1..a + 1 + al].cmp(&br[b + 1..b + 1 + bl]);
            if c != std::cmp::Ordering::Equal {
                return c;
            }
        }
        an.cmp(&bn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_round_trip() {
        for s in ["cachetest.nl", "ns1.dns.nl", "a.b.c.d.e", "nl"] {
            let n = Name::parse(s).unwrap();
            assert_eq!(n.to_string(), s);
        }
    }

    #[test]
    fn root_parses_from_dot_and_empty() {
        assert!(Name::parse(".").unwrap().is_root());
        assert!(Name::parse("").unwrap().is_root());
        assert_eq!(Name::root().to_string(), ".");
    }

    #[test]
    fn trailing_dot_is_ignored() {
        assert_eq!(
            Name::parse("example.nl.").unwrap(),
            Name::parse("example.nl").unwrap()
        );
    }

    #[test]
    fn names_compare_case_insensitively() {
        let a = Name::parse("WWW.Example.NL").unwrap();
        let b = Name::parse("www.example.nl").unwrap();
        assert_eq!(a, b);
        assert_eq!(a.to_string(), "www.example.nl");
    }

    #[test]
    fn empty_label_rejected() {
        assert_eq!(Name::parse("a..b"), Err(NameError::EmptyLabel));
    }

    #[test]
    fn long_label_rejected() {
        let label = "x".repeat(64);
        assert_eq!(
            Name::parse(&label),
            Err(NameError::LabelTooLong(64)),
            "64-octet label must be rejected"
        );
        assert!(Name::parse(&"x".repeat(63)).is_ok());
    }

    #[test]
    fn long_name_rejected() {
        // Four 63-octet labels: wire length 4*(63+1)+1 = 257 > 255.
        let name = [
            "a".repeat(63),
            "b".repeat(63),
            "c".repeat(63),
            "d".repeat(63),
        ]
        .join(".");
        assert!(matches!(Name::parse(&name), Err(NameError::NameTooLong(_))));
    }

    #[test]
    fn heap_spill_preserves_semantics() {
        // Just past INLINE_CAP: the run must spill to the heap with no
        // observable difference from an inline name.
        let long = "a".repeat(INLINE_CAP); // run = 1 + INLINE_CAP > INLINE_CAP
        let n = Name::parse(&long).unwrap();
        assert!(matches!(n.run, Run::Heap(_)));
        assert_eq!(n.to_string(), long);
        assert_eq!(n.label_count(), 1);
        assert_eq!(n.wire_len(), INLINE_CAP + 2);
        assert_eq!(n, Name::parse(&long.to_uppercase()).unwrap());
        let short = Name::parse("a.b").unwrap();
        assert!(matches!(short.run, Run::Inline { .. }));
    }

    #[test]
    fn builder_matches_parse() {
        let mut b = NameBuilder::new();
        b.push_label(b"WWW").unwrap();
        b.push_label(b"Example").unwrap();
        b.push_label(b"nl").unwrap();
        assert_eq!(b.finish(), Name::parse("www.example.nl").unwrap());
        assert_eq!(NameBuilder::new().finish(), Name::root());
        assert_eq!(
            NameBuilder::new().push_label(b""),
            Err(NameError::EmptyLabel)
        );
    }

    #[test]
    fn wire_run_is_canonical_wire_form() {
        let n = Name::parse("Ab.nl").unwrap();
        assert_eq!(n.as_wire_run(), &[2, b'a', b'b', 2, b'n', b'l']);
        assert_eq!(Name::root().as_wire_run(), &[] as &[u8]);
    }

    #[test]
    fn subdomain_relations() {
        let zone = Name::parse("cachetest.nl").unwrap();
        let host = Name::parse("1414.cachetest.nl").unwrap();
        let other = Name::parse("cachetest.net").unwrap();
        assert!(host.is_subdomain_of(&zone));
        assert!(zone.is_subdomain_of(&zone));
        assert!(!zone.is_subdomain_of(&host));
        assert!(!other.is_subdomain_of(&zone));
        assert!(host.is_subdomain_of(&Name::root()));
    }

    #[test]
    fn subdomain_requires_label_boundary() {
        // A 33-octet label's length octet is 0x21 = '!', itself a legal
        // label byte — so the run of `("a"*33).nl` can appear byte-wise
        // inside a longer label ("b!aaa…a") without a label boundary at
        // the match. `ends_with` alone must not make that a subdomain.
        let anc = Name::parse(&format!("{}.nl", "a".repeat(33))).unwrap();
        let n = Name::parse(&format!("b!{}.nl", "a".repeat(33))).unwrap();
        assert!(n.as_wire_run().ends_with(anc.as_wire_run()));
        assert!(!n.is_subdomain_of(&anc));
    }

    #[test]
    fn parent_and_child() {
        let zone = Name::parse("example.nl").unwrap();
        assert_eq!(zone.child("www").unwrap().to_string(), "www.example.nl");
        assert_eq!(zone.parent().unwrap().to_string(), "nl");
        assert_eq!(Name::root().parent(), None);
    }

    #[test]
    fn ancestors_walk_to_root() {
        let n = Name::parse("a.b.nl").unwrap();
        let chain: Vec<String> = n.self_and_ancestors().map(|x| x.to_string()).collect();
        assert_eq!(chain, vec!["a.b.nl", "b.nl", "nl", "."]);
    }

    #[test]
    fn canonical_ordering_groups_by_suffix() {
        let mut names = [
            Name::parse("b.nl").unwrap(),
            Name::parse("a.net").unwrap(),
            Name::parse("a.nl").unwrap(),
            Name::parse("nl").unwrap(),
        ];
        names.sort();
        let strs: Vec<String> = names.iter().map(|n| n.to_string()).collect();
        assert_eq!(strs, vec!["a.net", "nl", "a.nl", "b.nl"]);
    }

    #[test]
    fn wire_len_matches_definition() {
        assert_eq!(Name::root().wire_len(), 1);
        assert_eq!(Name::parse("nl").unwrap().wire_len(), 4); // 1+2+1
        assert_eq!(Name::parse("cachetest.nl").unwrap().wire_len(), 14);
    }
}
