//! Helpers shared by the socket-level test binaries: a server config
//! on an ephemeral port, a blocking HTTP/1.1 client, and a reader for
//! single-line Prometheus series.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use agequant_serve::{ServeConfig, ServerHandle};

pub fn test_config(chips: u32) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        fleet_chips: chips,
        fleet_seed: 7,
        ..ServeConfig::default()
    }
}

pub fn addr_of(handle: &ServerHandle) -> String {
    handle.addr().to_string()
}

/// Reads one keep-alive response off `reader`, returning
/// `(status, headers, body)`.
pub fn read_response(reader: &mut BufReader<TcpStream>) -> (u16, HashMap<String, String>, String) {
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let mut headers = HashMap::new();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header line");
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        let (name, value) = line.split_once(':').expect("header colon");
        headers.insert(name.trim().to_lowercase(), value.trim().to_string());
    }
    let length: usize = headers
        .get("content-length")
        .expect("content-length")
        .parse()
        .expect("numeric length");
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body).expect("body");
    (status, headers, String::from_utf8(body).expect("utf-8"))
}

/// One-shot `connection: close` request, for control-plane calls.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> (u16, HashMap<String, String>, String) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut writer = stream.try_clone().expect("clone");
    let body = body.unwrap_or("");
    write!(
        writer,
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("write request");
    let mut reader = BufReader::new(stream);
    read_response(&mut reader)
}

/// The value of a single-line Prometheus series, from `/metrics` text.
pub fn metric_value(metrics: &str, series: &str) -> Option<f64> {
    metrics.lines().find_map(|line| {
        let rest = line.strip_prefix(series)?;
        let rest = rest.strip_prefix(' ')?;
        rest.parse().ok()
    })
}
