//! `dike_telemetry::json`: what is written reads back as the same tree,
//! and `parse` answers hostile input with `Err`, never a panic.
//!
//! A fixed corpus first, then generated trees on `dike_telemetry::check`.

use dike_telemetry::check::{self, Gen};
use dike_telemetry::json::{parse, Value, Writer, MAX_DEPTH};

/// Drives the streaming writer over a tree, the way exporters drive it
/// over their own structs.
fn write_value(v: &Value, w: &mut Writer) {
    match v {
        Value::Null => w.null(),
        Value::Bool(b) => w.bool(*b),
        Value::U64(n) => w.u64(*n),
        Value::I64(n) => w.i64(*n),
        Value::F64(x) => w.f64(*x),
        Value::Str(s) => w.str(s),
        Value::Array(items) => {
            w.begin_array();
            for item in items {
                write_value(item, w);
            }
            w.end_array()
        }
        Value::Object(members) => {
            w.begin_object();
            for (key, value) in members {
                write_value(value, w.key(key));
            }
            w.end_object()
        }
    };
}

fn written(v: &Value) -> String {
    let mut w = Writer::new();
    write_value(v, &mut w);
    w.finish()
}

/// `parse(write(v)) == v`, and writing the parse gives the same bytes
/// (which also pins float bits: `-0.0` and `0.0` compare equal).
fn assert_round_trips(v: &Value) {
    let text = written(v);
    let back = parse(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
    assert_eq!(&back, v, "{text}");
    assert_eq!(written(&back), text);
}

fn s(text: &str) -> Value {
    Value::Str(text.to_string())
}

#[test]
fn corpus_round_trips_with_exact_numbers() {
    let exact = [
        (Value::U64(u64::MAX), "18446744073709551615"),
        (Value::U64(0), "0"),
        (Value::I64(i64::MIN), "-9223372036854775808"),
        (Value::I64(-1), "-1"),
        (Value::F64(-0.0), "-0.0"),
        (Value::F64(25.0), "25.0"),
        (Value::F64(0.1), "0.1"),
        (Value::F64(1e-7), "1e-7"),
        (Value::F64(1e300), "1e300"),
        (Value::F64(1e16), "1e16"),
        (Value::F64(5e-324), "5e-324"),
        (Value::F64(f64::MAX), "1.7976931348623157e308"),
        (Value::Null, "null"),
        (Value::Bool(true), "true"),
        (Value::Bool(false), "false"),
        (Value::Array(vec![]), "[]"),
        (Value::Object(vec![]), "{}"),
        (s(""), r#""""#),
        (s("a\"b\\c/d"), r#""a\"b\\c/d""#),
        (
            s("\n\r\t\u{8}\u{c}\u{0}\u{1f}"),
            r#""\n\r\t\u0008\u000c\u0000\u001f""#,
        ),
        (
            s("r\u{e9}sum\u{e9} \u{1f600} \u{7f}"),
            "\"r\u{e9}sum\u{e9} \u{1f600} \u{7f}\"",
        ),
    ];
    for (value, text) in &exact {
        assert_eq!(written(value), *text);
        assert_round_trips(value);
    }
    // The sign of zero survives.
    let Value::F64(zero) = parse("-0.0").unwrap() else {
        panic!("-0.0 is a float");
    };
    assert!(zero.is_sign_negative());
    // Non-finite floats have no JSON form.
    for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert_eq!(written(&Value::F64(x)), "null");
    }
    let nested = Value::Object(vec![
        (
            "k".into(),
            Value::Array(vec![Value::U64(1), Value::Array(vec![]), s("x")]),
        ),
        ("".into(), Value::Object(vec![("k".into(), Value::Null)])),
        ("k".into(), Value::F64(2.5)), // duplicates are kept, in order
    ]);
    assert_eq!(
        written(&nested),
        r#"{"k":[1,[],"x"],"":{"k":null},"k":2.5}"#
    );
    assert_round_trips(&nested);
}

#[test]
fn parse_reads_every_escape_and_number_form() {
    assert_eq!(
        parse(r#""\"\\\/\b\f\n\r\t\u00e9\u00E9\ud83d\ude00""#).unwrap(),
        s("\"\\/\u{8}\u{c}\n\r\t\u{e9}\u{e9}\u{1f600}")
    );
    assert_eq!(
        parse(" \t\r\n[ 1 , 2 ]\n").unwrap(),
        parse("[1,2]").unwrap()
    );
    assert_eq!(parse("-0").unwrap(), Value::F64(-0.0));
    assert_eq!(parse("1E+2").unwrap(), Value::F64(100.0));
    assert_eq!(parse("1.5e-3").unwrap(), Value::F64(0.0015));
    assert_eq!(parse("25").unwrap(), Value::U64(25));
    assert_eq!(parse("-25").unwrap(), Value::I64(-25));
    // One past either 64-bit range falls to the nearest float.
    assert_eq!(
        parse("18446744073709551616").unwrap(),
        Value::F64(18446744073709551616.0)
    );
    assert_eq!(
        parse("-9223372036854775809").unwrap(),
        Value::F64(-9223372036854775809.0)
    );
}

#[test]
fn parse_rejects_what_rfc_8259_rejects() {
    let bad = [
        "",
        " ",
        "NaN",
        "nan",
        "Infinity",
        "-Infinity",
        "inf",
        "-inf",
        "+1",
        "01",
        "-01",
        "00",
        "1.",
        ".5",
        "-",
        "1e",
        "1e+",
        "0x10",
        "1e999",
        "-1e999",
        "tru",
        "True",
        "nul",
        "'a'",
        "[1,]",
        "[,1]",
        "[1 2]",
        "{\"a\":1,}",
        "{\"a\" 1}",
        "{a:1}",
        "{1:1}",
        "{\"a\":}",
        "[1}",
        "{\"a\":1]",
        "\"abc",
        "\"a\nb\"",
        "\"a\u{1}b\"",
        "\"\\x\"",
        "\"\\u12\"",
        "\"\\u12g4\"",
        "\"\\u+123\"",
        "\"\\ud800\"",
        "\"\\ud800x\"",
        "\"\\ud800\\n\"",
        "\"\\ud800\\u0041\"",
        "\"\\ud800\\ud800\"",
        "\"\\udc00\"",
        "\"\\udc00\\ud800\"",
        "1 2",
        "{} x",
        "[]]",
        "{\"a\":1}}",
        "null\u{a0}",
        "\u{feff}null",
    ];
    for text in bad {
        assert!(parse(text).is_err(), "{text:?} should not parse");
    }
}

#[test]
fn truncated_documents_are_errors() {
    let doc = written(&Value::Object(vec![
        ("name".into(), s("a\"\\\u{1f600}\u{1}")),
        (
            "nums".into(),
            Value::Array(vec![Value::I64(-12), Value::F64(1.5e-7)]),
        ),
        ("ok".into(), Value::Bool(true)),
        ("none".into(), Value::Null),
    ]));
    parse(&doc).unwrap();
    for cut in (0..doc.len()).filter(|&i| doc.is_char_boundary(i)) {
        assert!(
            parse(&doc[..cut]).is_err(),
            "{:?} should not parse",
            &doc[..cut]
        );
    }
}

#[test]
fn the_nesting_cap_stops_deep_input_before_the_stack_does() {
    let nest = |n: usize| "[".repeat(n) + &"]".repeat(n);
    parse(&nest(MAX_DEPTH)).unwrap();
    assert!(parse(&nest(MAX_DEPTH + 1))
        .unwrap_err()
        .contains("MAX_DEPTH"));
    assert!(parse(&"[".repeat(100_000))
        .unwrap_err()
        .contains("MAX_DEPTH"));
    assert!(parse(&"{\"a\":".repeat(100_000))
        .unwrap_err()
        .contains("MAX_DEPTH"));
}

#[test]
fn field_errors_name_the_key() {
    let doc =
        parse(r#"{"n":300,"neg":-1,"f":1.5,"s":"x","b":true,"a":[1,"x"],"d":1,"d":2,"o":{}}"#)
            .unwrap();
    let root = doc.named("doc");
    assert_eq!(root.get("n").unwrap().uint::<u64>(), Ok(300));
    assert_eq!(root.get("n").unwrap().uint::<u32>(), Ok(300));
    assert_eq!(root.get("n").unwrap().f64(), Ok(300.0));
    assert_eq!(root.get("neg").unwrap().f64(), Ok(-1.0));
    assert_eq!(root.get("s").unwrap().str(), Ok("x"));
    assert_eq!(root.get("b").unwrap().bool(), Ok(true));
    assert!(root.opt("absent").unwrap().is_none());
    assert!(root.get("o").unwrap().opt("absent").unwrap().is_none());
    let errors = [
        root.get("n").unwrap().uint::<u8>().unwrap_err(),
        root.get("neg").unwrap().uint::<u64>().unwrap_err(),
        root.get("f").unwrap().uint::<u64>().unwrap_err(),
        root.get("s").unwrap().f64().unwrap_err(),
        root.get("n").unwrap().bool().unwrap_err(),
        root.get("n").unwrap().str().unwrap_err(),
        root.get("n").unwrap().array().map(|_| ()).unwrap_err(),
        root.get("n").unwrap().get("x").map(|_| ()).unwrap_err(),
    ];
    for (error, key) in errors
        .iter()
        .zip(["n", "neg", "f", "s", "n", "n", "n", "n"])
    {
        assert!(error.contains(&format!("\"{key}\"")), "{error}");
    }
    assert!(root
        .get("absent")
        .unwrap_err()
        .contains("missing field \"absent\""));
    assert!(root.get("d").unwrap_err().contains("duplicate field \"d\""));
    assert!(root.opt("d").unwrap_err().contains("duplicate field \"d\""));
    let second = root.get("a").unwrap().array().unwrap().nth(1).unwrap();
    assert!(second.uint::<u64>().unwrap_err().contains("\"a\""));
}

/// Strings with quotes, backslashes, control characters and astral
/// code points all over.
fn arb_string(g: &mut Gen) -> String {
    const AWKWARD: [char; 11] = [
        '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{8}', '\u{c}', '\u{1f}', '\u{7f}',
    ];
    (0..g.range(0..12))
        .map(|_| {
            if g.bool() {
                *g.pick(&AWKWARD)
            } else {
                g.char()
            }
        })
        .collect()
}

/// Trees of canonical values, at most `depth` containers deep: what
/// `parse` itself can produce.
fn arb_value(g: &mut Gen, depth: u32) -> Value {
    match g.range(if depth == 0 { 2..8u32 } else { 0..8u32 }) {
        0 => Value::Array(g.vec(0..6, |g| arb_value(g, depth - 1))),
        1 => Value::Object(g.vec(0..6, |g| (arb_string(g), arb_value(g, depth - 1)))),
        2 => Value::Null,
        3 => Value::Bool(g.bool()),
        4 => Value::U64(g.range(0..=u64::MAX)),
        5 => Value::I64(g.range(i64::MIN..0)),
        6 => loop {
            // JSON has no non-finite numbers.
            let x = f64::from_bits(g.range(0..=u64::MAX));
            if x.is_finite() {
                break Value::F64(x);
            }
        },
        _ => Value::Str(arb_string(g)),
    }
}

const CASES: u64 = 512;
const DEPTH: u32 = 5;

#[test]
fn generated_trees_round_trip() {
    check::cases("generated_trees_round_trip", CASES, |g| {
        let v = arb_value(g, DEPTH);
        let text = written(&v);
        let back = parse(&text);
        assert_eq!(back.as_ref(), Ok(&v), "{text}");
        assert_eq!(written(&back.unwrap()), text);
    });
}

#[test]
fn parse_never_panics_on_noise() {
    check::cases("parse_never_panics_on_noise", CASES, |g| {
        let _ = parse(&arb_string(g));
    });
}

#[test]
fn parse_never_panics_on_a_damaged_document() {
    check::cases("parse_never_panics_on_a_damaged_document", CASES, |g| {
        let mut text = written(&arb_value(g, DEPTH));
        let at = g.range(0..=text.len());
        let at = (0..=at)
            .rev()
            .find(|&i| text.is_char_boundary(i))
            .unwrap_or(0);
        let _ = parse(&text[..at]);
        text.insert_str(at, &arb_string(g));
        let _ = parse(&text);
    });
}
