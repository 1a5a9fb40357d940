//! Trace persistence: capture simulated traffic to JSON-lines files and
//! read it back — the simulator's stand-in for the paper's ENTRADA
//! warehouse (ref.\[55\]), which stored the `.nl` authoritative traffic the §4
//! analysis mined.
//!
//! One line per datagram event, self-describing, stream-appendable. The
//! message travels as its own wire encoding (hex), so a stored trace is
//! exactly what was on the simulated wire and the JSON layer stays a flat
//! scalar record:
//!
//! ```json
//! {"at_ns":1000000,"src":167772167,"dst":167772161,"disposition":"delivered","wire_len":40,"msg_hex":"abcd0100..."}
//! ```
//!
//! This module owns the row's six fields and the hex payload; the JSON
//! itself — escaping, number syntax, strict parsing, range-checked field
//! access — is `dike_telemetry::json`, the workspace's one codec.

use std::io::{BufRead, Write};

use dike_telemetry::json::{self, Writer};
use dike_wire::codec;
use dike_wire::Message;

use crate::addr::Addr;
use crate::time::SimTime;
use crate::trace::{Disposition, TraceSink};

/// A trace row: one observed datagram, with its payload decoded.
#[derive(Debug, Clone)]
pub struct TraceRow {
    /// Arrival time, nanoseconds since run start.
    pub at_ns: u64,
    /// Source address (numeric form).
    pub src: u32,
    /// Destination address (numeric form).
    pub dst: u32,
    /// `delivered`, `dropped`, `no_route` or `malformed`.
    pub disposition: String,
    /// Payload size, octets.
    pub wire_len: usize,
    /// The decoded message.
    pub msg: Message,
}

/// The inverse of [`disposition_str`].
fn disposition_named(name: &str) -> Option<Disposition> {
    Some(match name {
        "delivered" => Disposition::Delivered,
        "dropped" => Disposition::Dropped,
        "no_route" => Disposition::NoRoute,
        "malformed" => Disposition::Malformed,
        _ => return None,
    })
}

impl TraceRow {
    /// The disposition as the enum (`NoRoute` for a hand-built row whose
    /// string is none of the four names; parsed rows always carry one).
    pub fn disposition(&self) -> Disposition {
        disposition_named(&self.disposition).unwrap_or(Disposition::NoRoute)
    }

    /// Renders the row as one JSON line (no trailing newline). Returns
    /// `None` if the message fails to encode.
    pub(crate) fn to_json_line(&self) -> Option<String> {
        let wire = codec::encode(&self.msg).ok()?;
        let mut hex = String::with_capacity(wire.len() * 2);
        for b in &wire {
            use std::fmt::Write as _;
            let _ = write!(hex, "{b:02x}");
        }
        let mut w = Writer::new();
        w.begin_object();
        w.key("at_ns").u64(self.at_ns);
        w.key("src").u64(self.src.into());
        w.key("dst").u64(self.dst.into());
        w.key("disposition").str(&self.disposition);
        w.key("wire_len").u64(self.wire_len as u64);
        w.key("msg_hex").str(&hex);
        w.end_object();
        Some(w.finish())
    }

    /// Parses one JSON line produced by [`TraceRow::to_json_line`].
    /// Field order is not significant; unknown fields are ignored.
    /// Returns `None` for anything that is not a well-formed row (bad
    /// JSON, missing or out-of-range fields, an unknown `disposition`,
    /// undecodable `msg_hex`).
    pub(crate) fn from_json_line(line: &str) -> Option<TraceRow> {
        let doc = json::parse(line).ok()?;
        let row = doc.named("row");
        let disposition = row.get("disposition").ok()?.str().ok()?;
        disposition_named(disposition)?;
        let wire = hex_bytes(row.get("msg_hex").ok()?.str().ok()?)?;
        Some(TraceRow {
            at_ns: row.get("at_ns").ok()?.uint().ok()?,
            src: row.get("src").ok()?.uint().ok()?,
            dst: row.get("dst").ok()?.uint().ok()?,
            disposition: disposition.to_string(),
            wire_len: row.get("wire_len").ok()?.uint().ok()?,
            msg: codec::decode(&wire).ok()?,
        })
    }
}

/// Decodes a lowercase/uppercase hex string.
fn hex_bytes(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    s.as_bytes()
        .chunks_exact(2)
        .map(|pair| {
            let hi = (pair[0] as char).to_digit(16)?;
            let lo = (pair[1] as char).to_digit(16)?;
            Some(((hi << 4) | lo) as u8)
        })
        .collect()
}

fn disposition_str(d: Disposition) -> &'static str {
    match d {
        Disposition::Delivered => "delivered",
        Disposition::Dropped => "dropped",
        Disposition::NoRoute => "no_route",
        Disposition::Malformed => "malformed",
    }
}

/// A sink that appends every observed datagram to a JSONL writer.
pub struct JsonlTraceWriter<W: Write + Send> {
    out: W,
    /// I/O or serialization errors encountered (writing stops reporting
    /// after the first; the count is queryable).
    pub errors: u64,
    /// Malformed-payload events skipped (a `TraceRow` stores the decoded
    /// message, which a malformed payload does not have).
    pub(crate) skipped_malformed: u64,
}

impl<W: Write + Send> JsonlTraceWriter<W> {
    /// Wraps a writer (use a `BufWriter` for files).
    pub fn new(out: W) -> Self {
        JsonlTraceWriter {
            out,
            errors: 0,
            skipped_malformed: 0,
        }
    }

    /// Flushes and returns the inner writer.
    pub fn into_inner(mut self) -> W {
        let _ = self.out.flush();
        self.out
    }
}

impl<W: Write + Send> TraceSink for JsonlTraceWriter<W> {
    fn observe(
        &mut self,
        now: SimTime,
        src: Addr,
        dst: Addr,
        msg: Option<&Message>,
        wire_len: usize,
        disposition: Disposition,
    ) {
        let Some(msg) = msg else {
            self.skipped_malformed += 1;
            return;
        };
        let row = TraceRow {
            at_ns: now.as_nanos(),
            src: src.0,
            dst: dst.0,
            disposition: disposition_str(disposition).to_string(),
            wire_len,
            msg: msg.clone(),
        };
        let ok = row
            .to_json_line()
            .and_then(|line| writeln!(self.out, "{line}").ok())
            .is_some();
        if !ok {
            self.errors += 1;
        }
    }
}

/// Reads a JSONL trace back; malformed lines are skipped and counted in
/// the second return value.
pub fn read_jsonl<R: BufRead>(reader: R) -> (Vec<TraceRow>, usize) {
    let mut rows = Vec::new();
    let mut bad = 0usize;
    for line in reader.lines() {
        let Ok(line) = line else {
            bad += 1;
            continue;
        };
        if line.trim().is_empty() {
            continue;
        }
        match TraceRow::from_json_line(&line) {
            Some(row) => rows.push(row),
            None => bad += 1,
        }
    }
    (rows, bad)
}

/// Replays a recorded trace into any [`TraceSink`] — run the offline
/// analyses (e.g. [`dike-stats`'s passive analyzer]) over stored traffic.
pub fn replay(rows: &[TraceRow], sink: &mut dyn TraceSink) {
    for r in rows {
        sink.observe(
            SimTime::from_nanos(r.at_ns),
            Addr(r.src),
            Addr(r.dst),
            Some(&r.msg),
            r.wire_len,
            r.disposition(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dike_wire::{Name, RecordType};

    fn msg(id: u16) -> Message {
        Message::query(id, Name::parse("7.cachetest.nl").unwrap(), RecordType::AAAA)
    }

    fn row(at_ns: u64, disposition: &str, id: u16) -> TraceRow {
        TraceRow {
            at_ns,
            src: 2,
            dst: 3,
            disposition: disposition.into(),
            wire_len: 10,
            msg: msg(id),
        }
    }

    #[test]
    fn write_read_round_trip() {
        let mut w = JsonlTraceWriter::new(Vec::new());
        for i in 0..5u16 {
            w.observe(
                SimTime::from_nanos(i as u64 * 1_000),
                Addr(100 + i as u32),
                Addr(1),
                Some(&msg(i)),
                40,
                if i % 2 == 0 {
                    Disposition::Delivered
                } else {
                    Disposition::Dropped
                },
            );
        }
        assert_eq!(w.errors, 0);
        let bytes = w.into_inner();
        let (rows, bad) = read_jsonl(std::io::Cursor::new(bytes));
        assert_eq!(bad, 0);
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0].msg, msg(0));
        assert_eq!(rows[1].disposition(), Disposition::Dropped);
        assert_eq!(rows[4].at_ns, 4_000);
    }

    #[test]
    fn malformed_lines_are_skipped() {
        let text = format!(
            "{}\nnot json\n{}\n",
            row(1, "delivered", 1).to_json_line().unwrap(),
            row(2, "no_route", 2).to_json_line().unwrap(),
        );
        let (rows, bad) = read_jsonl(std::io::Cursor::new(text));
        assert_eq!(rows.len(), 2);
        assert_eq!(bad, 1);
        assert_eq!(rows[1].disposition(), Disposition::NoRoute);
    }

    #[test]
    fn replay_feeds_a_sink() {
        let mut w = JsonlTraceWriter::new(Vec::new());
        for i in 0..3u16 {
            w.observe(
                SimTime::from_nanos(i as u64),
                Addr(9),
                Addr(1),
                Some(&msg(i)),
                40,
                Disposition::Delivered,
            );
        }
        let (rows, _) = read_jsonl(std::io::Cursor::new(w.into_inner()));
        let mut counter = crate::trace::CountingTrace::default();
        replay(&rows, &mut counter);
        assert_eq!(counter.delivered, 3);
        assert_eq!(counter.octets, 120);
    }

    #[test]
    fn parse_rejects_truncated_and_corrupt_rows() {
        let good = row(1, "delivered", 7).to_json_line().unwrap();
        assert!(TraceRow::from_json_line(&good).is_some());
        // Truncated hex, non-hex payload, missing field, no braces.
        assert!(TraceRow::from_json_line(&good[..good.len() - 4]).is_none());
        assert!(TraceRow::from_json_line(
            "{\"at_ns\":1,\"src\":2,\"dst\":3,\"disposition\":\"delivered\",\"wire_len\":10,\"msg_hex\":\"zz\"}"
        )
        .is_none());
        assert!(TraceRow::from_json_line(
            "{\"at_ns\":1,\"src\":2,\"dst\":3,\"disposition\":\"delivered\",\"wire_len\":10}"
        )
        .is_none());
        assert!(TraceRow::from_json_line("at_ns: 1").is_none());
    }

    /// Byte for byte what the writer emitted before it moved onto
    /// `dike_telemetry::json`, at both ends of every integer field.
    #[test]
    fn jsonl_matches_the_golden_bytes() {
        let mut w = JsonlTraceWriter::new(Vec::new());
        w.observe(
            SimTime::from_nanos(u64::MAX),
            Addr(u32::MAX),
            Addr(0),
            Some(&msg(0xbeef)),
            40,
            Disposition::NoRoute,
        );
        w.observe(
            SimTime::from_nanos(1_000_000),
            Addr(167772167),
            Addr(167772161),
            Some(&msg(7)),
            40,
            Disposition::Delivered,
        );
        assert_eq!(
            String::from_utf8(w.into_inner()).unwrap(),
            concat!(
                r#"{"at_ns":18446744073709551615,"src":4294967295,"dst":0,"disposition":"no_route","wire_len":40,"#,
                r#""msg_hex":"beef01000001000000000000013709636163686574657374026e6c00001c0001"}"#,
                "\n",
                r#"{"at_ns":1000000,"src":167772167,"dst":167772161,"disposition":"delivered","wire_len":40,"#,
                r#""msg_hex":"000701000001000000000000013709636163686574657374026e6c00001c0001"}"#,
                "\n",
            )
        );
    }

    #[test]
    fn unknown_disposition_is_a_bad_row() {
        let good = row(1, "delivered", 7).to_json_line().unwrap();
        let forged = good.replace("delivered", "teleported");
        assert!(TraceRow::from_json_line(&forged).is_none());
        let (rows, bad) = read_jsonl(std::io::Cursor::new(format!("{good}\n{forged}\n")));
        assert_eq!((rows.len(), bad), (1, 1));
        // So are integers that do not fit their field, and duplicates.
        assert!(
            TraceRow::from_json_line(&good.replace("\"src\":2", "\"src\":4294967296")).is_none()
        );
        assert!(
            TraceRow::from_json_line(&good.replace("\"src\":2", "\"src\":2,\"src\":2")).is_none()
        );
    }

    #[test]
    fn fields_parse_in_any_order() {
        let reference = row(99, "dropped", 7).to_json_line().unwrap();
        let body = reference
            .strip_prefix('{')
            .unwrap()
            .strip_suffix('}')
            .unwrap();
        let mut fields: Vec<&str> = body.split(',').collect();
        fields.reverse();
        let reordered = format!("{{{}}}", fields.join(","));
        let parsed = TraceRow::from_json_line(&reordered).unwrap();
        assert_eq!(parsed.at_ns, 99);
        assert_eq!(parsed.disposition(), Disposition::Dropped);
        assert_eq!(parsed.msg, msg(7));
    }
}
