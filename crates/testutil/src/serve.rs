//! Helpers for suites that exercise `opprox serve` and the v1 wire
//! protocol: artifact files for hot-reload tests and a minimal
//! line-oriented TCP client.

use crate::fixtures::{trained_pso, trained_streamagg};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;

/// Writes the shared lazily-trained PSO artifact to `path`, exactly as
/// `opprox train --out` would, so server suites can load and hot-reload
/// a real artifact without re-training.
///
/// # Panics
///
/// Panics when serialization or the write fails — test-fixture errors
/// should fail loudly.
pub fn write_pso_artifact(path: impl AsRef<Path>) {
    let json = trained_pso().0.to_json().expect("serialize PSO artifact");
    std::fs::write(path.as_ref(), json).expect("write PSO artifact");
}

/// Writes the shared lazily-trained StreamAgg artifact to `path`, for
/// suites that serve more than one application at once.
///
/// # Panics
///
/// Panics when serialization or the write fails — test-fixture errors
/// should fail loudly.
pub fn write_streamagg_artifact(path: impl AsRef<Path>) {
    let json = trained_streamagg()
        .to_json()
        .expect("serialize StreamAgg artifact");
    std::fs::write(path.as_ref(), json).expect("write StreamAgg artifact");
}

/// Sends each request line to a running server over one connection and
/// returns the reply line for each, in order.
///
/// # Panics
///
/// Panics on connection or I/O failures, or when the server closes the
/// connection before answering every line.
pub fn send_lines(addr: &str, lines: &[&str]) -> Vec<String> {
    let stream = TcpStream::connect(addr).expect("connect to serve");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    let mut writer = stream.try_clone().expect("clone socket");
    let mut reader = BufReader::new(stream);
    let mut replies = Vec::with_capacity(lines.len());
    for line in lines {
        // The frame and its newline go out as one write.
        writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send frame");
        writer.flush().expect("flush frame");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read reply");
        assert!(
            !reply.is_empty(),
            "server closed the connection before replying to {line:?}"
        );
        replies.push(reply.trim_end().to_string());
    }
    replies
}
