//! `zoneq --check FILE | head` ends quietly: a reader that closes the
//! pipe after one line leaves `zoneq` with status 0 and no panic on
//! stderr, however much of the zone was still to be printed.

use std::fmt::Write as _;
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

/// A zone whose text, and whose canonical form, are several times a
/// pipe buffer.
fn big_zone() -> String {
    let mut text = String::from(
        "$ORIGIN pipe.test.\n$TTL 3600\n\
         @ IN SOA ns1 hostmaster 1 14400 3600 1209600 60\n\
         @ IN NS ns1\nns1 IN A 192.0.2.1\n",
    );
    for i in 0..10_000u32 {
        let [_, _, hi, lo] = i.to_be_bytes();
        writeln!(text, "host{i:05} 300 IN A 10.0.{hi}.{lo}").unwrap();
    }
    text
}

#[test]
fn check_into_a_closed_pipe_ends_quietly() {
    let text = big_zone();
    assert!(text.len() >= 200_000, "{} bytes of zone text", text.len());
    let path = std::env::temp_dir().join(format!("zoneq-pipe-{}.zone", std::process::id()));
    std::fs::write(&path, text).unwrap();

    let mut child = Command::new(env!("CARGO_BIN_EXE_zoneq"))
        .arg("--check")
        .arg(&path)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    // The reader, and with it the pipe's read end, is dropped here.
    let out = child.wait_with_output().unwrap();
    std::fs::remove_file(&path).unwrap();

    assert!(first.starts_with("; zone pipe.test ok"), "{first:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
}
