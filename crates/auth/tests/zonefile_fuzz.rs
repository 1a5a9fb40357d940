//! Fuzz-style robustness: the zone-file parser must never panic, on any
//! input — arbitrary bytes, near-valid mutations, or pathological
//! structures.

use dike_auth::zonefile;
use dike_telemetry::check;

const CASES: u64 = 512;

#[test]
fn parser_never_panics_on_arbitrary_text() {
    check::cases("parser_never_panics_on_arbitrary_text", CASES, |g| {
        let _ = zonefile::parse(&g.text(0..401), None);
    });
}

#[test]
fn parser_never_panics_on_mutated_valid_zone() {
    check::cases("parser_never_panics_on_mutated_valid_zone", CASES, |g| {
        let valid = "$ORIGIN z.test.\n$TTL 300\n@ IN SOA ns1 h 1 2 3 4 5\n\
                     www IN A 192.0.2.1\nmx IN MX 10 mail\n\
                     srv IN SRV 1 2 53 ns1\ntxt IN TXT \"hi\"\n";
        let mut text = valid.to_string();
        // Splice at a char boundary (the valid zone is ASCII: all are).
        let idx = g.range(0..=text.len());
        text.insert_str(idx, &g.text(0..11));
        let _ = zonefile::parse(&text, None);
    });
}

/// Records that once panicked, kept as fixed cases: each is an error.
#[test]
fn parser_rejects_pinned_inputs_without_panicking() {
    const PINNED: [&str; 1] = [
        // `parse_hex` sliced the digest at byte offsets: "end byte index 2
        // is not a char boundary".
        "x IN DS 1 2 3 a\u{e9}b",
    ];
    for line in PINNED {
        let text = format!("$ORIGIN z.test.\n$TTL 60\n@ IN SOA ns h 1 2 3 4 5\n{line}\n");
        assert!(zonefile::parse(&text, None).is_err(), "{line}");
    }
}

#[test]
fn parser_never_panics_on_arbitrary_rdata() {
    const TYPES: [&str; 10] = [
        "A", "AAAA", "NS", "CNAME", "PTR", "MX", "SRV", "TXT", "DS", "SOA",
    ];
    check::cases("parser_never_panics_on_arbitrary_rdata", CASES, |g| {
        let rtype = *g.pick(&TYPES);
        // Each field is arbitrary text or a number, mostly one that fits a
        // u8, so a type's leading numeric fields parse often enough for
        // the text after them to be reached.
        let fields = g.vec(0..9, |g| match g.range(0..4u32) {
            0 => g.text(1..7),
            1 => g.range(0..70_000u32).to_string(),
            _ => g.range(0..256u32).to_string(),
        });
        let text = format!(
            "$ORIGIN z.test.\n$TTL 60\n@ IN SOA ns h 1 2 3 4 5\nx IN {rtype} {}\n",
            fields.join(" ")
        );
        let _ = zonefile::parse(&text, None);
    });
}

#[test]
fn parser_never_panics_on_line_permutations() {
    const LINES: [&str; 9] = [
        "$ORIGIN a.test.",
        "$TTL 60",
        "@ IN SOA ns h 1 2 3 4 5",
        "x IN A 1.2.3.4",
        "y IN NS z",
        "  IN A 9.9.9.9",
        "$ORIGIN",
        "@ IN SOA",
        "junk",
    ];
    check::cases("parser_never_panics_on_line_permutations", CASES, |g| {
        let text = g.vec(0..12, |g| *g.pick(&LINES)).join("\n");
        let _ = zonefile::parse(&text, None);
    });
}
