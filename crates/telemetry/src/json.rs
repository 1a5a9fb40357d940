//! The workspace's one JSON codec.
//!
//! Every JSON byte `dike` writes or reads — metric registries, sweep
//! grids, trace JSONL rows, fault and defense plans, `repro`'s result
//! documents — goes through this module: one string escaper, one number
//! formatter ([`Writer`]) and one parser ([`parse`]). It lives in the
//! crate at the bottom of the dependency graph and uses `std` only.
//!
//! * **Writing** is streaming and compact: [`Writer`] appends to one
//!   `String` and places the commas itself. Integers print exactly over
//!   the whole `u64`/`i64` range; finite floats print in Rust's shortest
//!   round-trip form (`{:?}`: `25.0`, `0.1`, `1e-7`, `1e300`), so a float
//!   always reads back as the same bits; non-finite floats, which JSON
//!   cannot carry, print as `null`.
//! * **Reading** is strict RFC 8259 — no `NaN`/`Infinity`, no leading
//!   zeros, no trailing bytes, no lone surrogates — into an
//!   order-preserving [`Value`] tree at most [`MAX_DEPTH`] containers
//!   deep. Plans arrive from operator files (`dike-serve --plan`), so
//!   [`parse`] returns `Err` on anything else and never panics.
//! * **Decoding** goes through [`Field`]: a value plus the key it was
//!   found under, with checked accessors. A missing, duplicate,
//!   wrong-typed or out-of-range field is an `Err` that names the key;
//!   nothing is truncated with `as`.

use std::fmt::Write as _;

/// Deepest container nesting [`parse`] accepts. The parser recurses once
/// per level, so this cap — not the thread's stack — is what stops
/// `[[[[…`.
pub const MAX_DEPTH: usize = 128;

// ---------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------

/// A streaming, compact JSON writer.
///
/// ```
/// use dike_telemetry::json::Writer;
///
/// let mut w = Writer::new();
/// w.begin_object();
/// w.key("name").str("a\"b");
/// w.key("bins").begin_array().u64(1).f64(2.0).f64(f64::NAN).end_array();
/// w.end_object();
/// assert_eq!(w.finish(), r#"{"name":"a\"b","bins":[1,2.0,null]}"#);
/// ```
///
/// Balancing `begin_*`/`end_*` and writing a [`Writer::key`] before each
/// object member is the caller's job; separators are the writer's.
#[derive(Debug, Default)]
pub struct Writer {
    out: String,
}

impl Writer {
    /// An empty document.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// Writes the `,` a new element needs: after anything but an opening
    /// bracket or a key's colon.
    fn sep(&mut self) {
        if !matches!(self.out.as_bytes().last(), None | Some(b'{' | b'[' | b':')) {
            self.out.push(',');
        }
    }

    /// The one string escaper: quotes, backslashes, `\n` `\r` `\t`, and
    /// `\u00XX` for the remaining control characters.
    fn quoted(&mut self, s: &str) {
        self.out.push('"');
        let mut start = 0;
        for (i, b) in s.bytes().enumerate() {
            if !matches!(b, b'"' | b'\\' | 0x00..=0x1f) {
                continue;
            }
            self.out.push_str(&s[start..i]);
            match b {
                b'"' => self.out.push_str("\\\""),
                b'\\' => self.out.push_str("\\\\"),
                b'\n' => self.out.push_str("\\n"),
                b'\r' => self.out.push_str("\\r"),
                b'\t' => self.out.push_str("\\t"),
                _ => {
                    let _ = write!(self.out, "\\u{b:04x}");
                }
            }
            start = i + 1;
        }
        self.out.push_str(&s[start..]);
        self.out.push('"');
    }

    /// Opens an object.
    pub fn begin_object(&mut self) -> &mut Self {
        self.sep();
        self.out.push('{');
        self
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) -> &mut Self {
        self.out.push('}');
        self
    }

    /// Opens an array.
    pub fn begin_array(&mut self) -> &mut Self {
        self.sep();
        self.out.push('[');
        self
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) -> &mut Self {
        self.out.push(']');
        self
    }

    /// Writes an object member's name; its value must follow.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.sep();
        self.quoted(key);
        self.out.push(':');
        self
    }

    /// Writes a string value.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.sep();
        self.quoted(s);
        self
    }

    /// Writes an unsigned integer, exactly.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.sep();
        let _ = write!(self.out, "{v}");
        self
    }

    /// Writes a signed integer, exactly.
    pub fn i64(&mut self, v: i64) -> &mut Self {
        self.sep();
        let _ = write!(self.out, "{v}");
        self
    }

    /// Writes a float in shortest round-trip form; `null` if non-finite.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        if !v.is_finite() {
            return self.null();
        }
        self.sep();
        let _ = write!(self.out, "{v:?}");
        self
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.raw(if v { "true" } else { "false" })
    }

    /// Writes `null`.
    pub fn null(&mut self) -> &mut Self {
        self.raw("null")
    }

    /// Splices in `json`, which must be one complete JSON value (a
    /// document another `Writer` finished).
    pub fn raw(&mut self, json: &str) -> &mut Self {
        self.sep();
        self.out.push_str(json);
        self
    }

    /// The document written so far, leaving the writer empty.
    pub fn finish(&mut self) -> String {
        std::mem::take(&mut self.out)
    }
}

// ---------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------

/// A parsed JSON value. Objects keep their members in document order,
/// duplicates included ([`Field::get`] rejects those on lookup).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer literal in `0..=u64::MAX`.
    U64(u64),
    /// An integer literal in `i64::MIN..0`.
    I64(i64),
    /// Any other number: a fraction, an exponent, `-0`, or an integer
    /// beyond 64 bits (to the nearest float). Always finite.
    F64(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in document order.
    Object(Vec<(String, Value)>),
}

/// Parses exactly one RFC 8259 document (surrounding whitespace
/// allowed). The error says what was wrong and at which byte.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { text, pos: 0 };
    let value = p.value(0)?;
    p.skip_whitespace();
    match p.peek() {
        None => Ok(value),
        Some(_) => Err(p.error("trailing bytes after the document")),
    }
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consumes `byte` if it is next.
    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        self.pos += hit as usize;
        hit
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        self.skip_whitespace();
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.error("expected a value")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error("expected a value"))
        }
    }

    /// Steps into a container, enforcing [`MAX_DEPTH`].
    fn descend(&mut self, depth: usize) -> Result<usize, String> {
        if depth >= MAX_DEPTH {
            return Err(self.error("nesting deeper than MAX_DEPTH"));
        }
        self.pos += 1;
        self.skip_whitespace();
        Ok(depth + 1)
    }

    fn array(&mut self, depth: usize) -> Result<Value, String> {
        let depth = self.descend(depth)?;
        let mut items = Vec::new();
        if self.eat(b']') {
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value(depth)?);
            self.skip_whitespace();
            if self.eat(b']') {
                return Ok(Value::Array(items));
            }
            if !self.eat(b',') {
                return Err(self.error("expected ',' or ']'"));
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, String> {
        let depth = self.descend(depth)?;
        let mut members = Vec::new();
        if self.eat(b'}') {
            return Ok(Value::Object(members));
        }
        loop {
            self.skip_whitespace();
            if self.peek() != Some(b'"') {
                return Err(self.error("expected a member name"));
            }
            let key = self.string()?;
            self.skip_whitespace();
            if !self.eat(b':') {
                return Err(self.error("expected ':'"));
            }
            members.push((key, self.value(depth)?));
            self.skip_whitespace();
            if self.eat(b'}') {
                return Ok(Value::Object(members));
            }
            if !self.eat(b',') {
                return Err(self.error("expected ',' or '}'"));
            }
        }
    }

    /// Four hex digits of a `\u` escape.
    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .text
            .as_bytes()
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.error("truncated \\u escape"))?;
        let mut unit = 0;
        for &d in digits {
            let nibble = (d as char)
                .to_digit(16)
                .ok_or_else(|| self.error("bad \\u escape"))?;
            unit = unit << 4 | nibble;
        }
        self.pos += 4;
        Ok(unit)
    }

    fn string(&mut self) -> Result<String, String> {
        self.pos += 1; // the opening quote
        let mut out = String::new();
        loop {
            // Every stop byte is ASCII, so the run before it is whole
            // characters.
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => self.pos += 1,
                Some(_) => return Err(self.error("raw control character in string")),
            }
            let escape = self
                .peek()
                .ok_or_else(|| self.error("unterminated string"))?;
            self.pos += 1;
            out.push(match escape {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'u' => {
                    let mut code = self.hex4()?;
                    if (0xd800..0xdc00).contains(&code) {
                        if !(self.eat(b'\\') && self.eat(b'u')) {
                            return Err(self.error("lone surrogate"));
                        }
                        let low = self.hex4()?;
                        if !(0xdc00..0xe000).contains(&low) {
                            return Err(self.error("lone surrogate"));
                        }
                        code = 0x1_0000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                    }
                    // What is left to fail here is a low surrogate
                    // with no high one before it.
                    char::from_u32(code).ok_or_else(|| self.error("lone surrogate"))?
                }
                _ => return Err(self.error("unknown escape")),
            });
        }
    }

    /// At least one digit.
    fn digits(&mut self) -> Result<(), String> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.error("expected a digit"));
        }
        Ok(())
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        let negative = self.eat(b'-');
        if self.eat(b'0') {
            if matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("leading zero"));
            }
        } else {
            self.digits()?;
        }
        let mut integral = true;
        if self.eat(b'.') {
            integral = false;
            self.digits()?;
        }
        if self.eat(b'e') || self.eat(b'E') {
            integral = false;
            if !self.eat(b'+') {
                self.eat(b'-');
            }
            self.digits()?;
        }
        let token = &self.text[start..self.pos];
        if integral {
            if !negative {
                if let Ok(n) = token.parse() {
                    return Ok(Value::U64(n));
                }
            } else if let Ok(n @ i64::MIN..=-1) = token.parse() {
                return Ok(Value::I64(n));
            }
        }
        // The grammar above is a subset of what `f64::from_str` takes
        // (and excludes its `inf`/`NaN` spellings).
        match token.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Value::F64(x)),
            _ => Err(self.error("number out of range")),
        }
    }
}

// ---------------------------------------------------------------------
// Checked decoding
// ---------------------------------------------------------------------

/// A [`Value`] and the key it was found under, so that every failure
/// can name the field.
#[derive(Debug, Clone, Copy)]
pub struct Field<'a> {
    key: &'a str,
    value: &'a Value,
}

impl Value {
    /// This value as a [`Field`] called `key` — how decoding starts at a
    /// document's root.
    pub fn named<'a>(&'a self, key: &'a str) -> Field<'a> {
        Field { key, value: self }
    }
}

impl<'a> Field<'a> {
    fn wrong(self, expected: &str) -> String {
        format!("field \"{}\" is not {expected}", self.key)
    }

    /// Member `key` of this object, if present. `Err` if this is not an
    /// object or holds `key` twice.
    pub fn opt(self, key: &'a str) -> Result<Option<Field<'a>>, String> {
        let Value::Object(members) = self.value else {
            return Err(self.wrong("an object"));
        };
        let mut hits = members.iter().filter(|(k, _)| k == key);
        let first = hits.next();
        if hits.next().is_some() {
            return Err(format!("duplicate field \"{key}\""));
        }
        Ok(first.map(|(_, value)| Field { key, value }))
    }

    /// Member `key` of this object; `Err` if absent (or as [`Field::opt`]).
    pub fn get(self, key: &'a str) -> Result<Field<'a>, String> {
        self.opt(key)?
            .ok_or_else(|| format!("missing field \"{key}\""))
    }

    /// An unsigned integer that fits `T` (`u8`, `u32`, `u64`, `usize`).
    pub fn uint<T: TryFrom<u64>>(self) -> Result<T, String> {
        let Value::U64(n) = *self.value else {
            return Err(self.wrong("an unsigned integer"));
        };
        T::try_from(n).map_err(|_| format!("field \"{}\" is out of range: {n}", self.key))
    }

    /// Any number, as a float.
    pub fn f64(self) -> Result<f64, String> {
        match *self.value {
            Value::U64(n) => Ok(n as f64),
            Value::I64(n) => Ok(n as f64),
            Value::F64(x) => Ok(x),
            _ => Err(self.wrong("a number")),
        }
    }

    /// `true` or `false`.
    pub fn bool(self) -> Result<bool, String> {
        match *self.value {
            Value::Bool(b) => Ok(b),
            _ => Err(self.wrong("true or false")),
        }
    }

    /// A string.
    pub fn str(self) -> Result<&'a str, String> {
        match self.value {
            Value::Str(s) => Ok(s),
            _ => Err(self.wrong("a string")),
        }
    }

    /// An array's elements, each still named after this field.
    pub fn array(self) -> Result<impl Iterator<Item = Field<'a>>, String> {
        let key = self.key;
        match self.value {
            Value::Array(items) => Ok(items.iter().map(move |value| Field { key, value })),
            _ => Err(self.wrong("an array")),
        }
    }
}
