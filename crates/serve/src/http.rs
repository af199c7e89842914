//! A minimal HTTP/1.1 wire layer for non-blocking sockets.
//!
//! Covers exactly what the decision server needs: *incremental*
//! request parsing over a caller-owned byte buffer (the event loop
//! appends whatever `read` returned and asks "complete yet?"),
//! bounded header/body sizes, `Expect: 100-continue` detection, and
//! response rendering to a byte vector. Nothing here blocks, sleeps,
//! or owns a socket — connection lifecycle (idle sweeping, deadlines,
//! shutdown) lives in the event loop, where it can be enforced
//! centrally for every connection at once.

use agequant_check::sync::Arc;

/// Hard cap on the request line plus all headers.
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Hard cap on a request body.
pub const MAX_BODY_BYTES: usize = 256 * 1024;

/// Why the wire layer gave up on a request.
#[derive(Debug)]
pub enum HttpError {
    /// Socket-level failure (reset, broken pipe, ...).
    Io(String),
    /// The bytes were not valid HTTP/1.1.
    Malformed(String),
    /// Head or body exceeded the configured cap.
    TooLarge(usize),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Io(msg) => write!(f, "i/o: {msg}"),
            HttpError::Malformed(msg) => write!(f, "malformed request: {msg}"),
            HttpError::TooLarge(n) => write!(f, "request exceeds {n} bytes"),
        }
    }
}

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Upper-cased method, e.g. `POST`.
    pub method: String,
    /// The origin-form target, e.g. `/v1/plan`.
    pub target: String,
    /// Headers in arrival order, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The request body.
    pub body: Vec<u8>,
}

impl Request {
    /// First header with this (lower-case) name.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// True when the client asked to close after this response.
    #[must_use]
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Outcome of one incremental parse attempt over a receive buffer.
#[derive(Debug)]
pub enum Parsed {
    /// A complete request starts the buffer; `consumed` bytes belong
    /// to it (drain them before parsing the next pipelined request).
    Complete {
        /// The parsed request.
        request: Request,
        /// Head plus body length, in bytes.
        consumed: usize,
    },
    /// The buffer holds only part of a request; read more.
    Partial {
        /// The head is complete and carried `Expect: 100-continue`,
        /// but the body has not fully arrived: the client is waiting
        /// for the interim `100 Continue` before it sends the rest.
        needs_continue: bool,
    },
}

/// The byte offset one past this line's `\n`, if the line is complete.
fn line_end(buf: &[u8], start: usize) -> Option<usize> {
    buf[start..]
        .iter()
        .position(|&b| b == b'\n')
        .map(|i| start + i + 1)
}

/// One head line as text, `\r\n` stripped.
fn line_text(buf: &[u8], start: usize, end: usize) -> Result<&str, HttpError> {
    std::str::from_utf8(&buf[start..end])
        .map(|s| s.trim_end_matches(['\r', '\n']))
        .map_err(|_| HttpError::Malformed("header is not UTF-8".into()))
}

/// Attempts to parse one complete request from the front of `buf`.
///
/// Returns [`Parsed::Partial`] when more bytes are needed — append
/// the next read and call again. The head cap is enforced even on
/// partial input, so a client streaming an unbounded header section
/// is rejected long before it exhausts memory.
///
/// # Errors
///
/// [`HttpError::Malformed`] / [`HttpError::TooLarge`] mean the caller
/// should answer 400/413 and close the connection.
pub fn try_parse(buf: &[u8]) -> Result<Parsed, HttpError> {
    // Request line.
    let Some(request_line_end) = line_end(buf, 0) else {
        if buf.len() > MAX_HEAD_BYTES {
            return Err(HttpError::TooLarge(MAX_HEAD_BYTES));
        }
        return Ok(Parsed::Partial {
            needs_continue: false,
        });
    };
    let request_line = std::str::from_utf8(&buf[..request_line_end])
        .map_err(|_| HttpError::Malformed("request line is not UTF-8".into()))?;
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpError::Malformed(format!(
            "bad request line {:?}",
            request_line.trim_end()
        )));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!("unsupported {version}")));
    }

    // Headers, up to the empty line.
    let mut headers = Vec::new();
    let mut cursor = request_line_end;
    let head_end = loop {
        let Some(end) = line_end(buf, cursor) else {
            if buf.len() > MAX_HEAD_BYTES {
                return Err(HttpError::TooLarge(MAX_HEAD_BYTES));
            }
            return Ok(Parsed::Partial {
                needs_continue: false,
            });
        };
        if end > MAX_HEAD_BYTES {
            return Err(HttpError::TooLarge(MAX_HEAD_BYTES));
        }
        let text = line_text(buf, cursor, end)?;
        cursor = end;
        if text.is_empty() {
            break cursor;
        }
        let Some((name, value)) = text.split_once(':') else {
            return Err(HttpError::Malformed(format!("bad header {text:?}")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    };

    let content_length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| HttpError::Malformed(format!("bad content-length {v:?}")))
        })
        .transpose()?
        .unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::TooLarge(MAX_BODY_BYTES));
    }

    let total = head_end + content_length;
    if buf.len() < total {
        // RFC 7231 §5.1.1: the client may be waiting for permission
        // before sending the body; the event loop grants it once.
        let needs_continue = headers
            .iter()
            .any(|(k, v)| k == "expect" && v.eq_ignore_ascii_case("100-continue"));
        return Ok(Parsed::Partial { needs_continue });
    }

    Ok(Parsed::Complete {
        request: Request {
            method: method.to_ascii_uppercase(),
            target: target.to_string(),
            headers,
            body: buf[head_end..total].to_vec(),
        },
        consumed: total,
    })
}

/// What an EOF with these unconsumed bytes means: `None` for a clean
/// close (empty buffer, or the peer gave up before finishing its
/// request line), or the malformation to answer 400 for before
/// closing — the same distinction the blocking wire layer drew.
#[must_use]
pub fn eof_error(buf: &[u8]) -> Option<HttpError> {
    if buf.is_empty() || line_end(buf, 0).is_none() {
        return None;
    }
    match try_parse(buf) {
        Ok(Parsed::Complete { .. }) => None,
        Ok(Parsed::Partial { .. }) => {
            // Past the request line: did the head complete?
            let mut cursor = line_end(buf, 0).expect("checked above");
            let mut head_done = false;
            while let Some(end) = line_end(buf, cursor) {
                if buf[cursor..end].iter().all(|&b| b == b'\r' || b == b'\n') {
                    head_done = true;
                    break;
                }
                cursor = end;
            }
            Some(HttpError::Malformed(if head_done {
                "body truncated by EOF".into()
            } else {
                "headers truncated".into()
            }))
        }
        Err(err) => Some(err),
    }
}

/// The interim response granting `Expect: 100-continue`.
pub const CONTINUE_BYTES: &[u8] = b"HTTP/1.1 100 Continue\r\n\r\n";

/// A response ready to render.
///
/// The body is shared: a prerendered decision-table answer is a
/// `Response` holding the table's own `Arc<str>`, so answering from the
/// table copies no body bytes until they reach the send buffer.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Body text.
    pub body: Arc<str>,
    /// Extra headers (e.g. `Retry-After`).
    pub extra_headers: Vec<(&'static str, String)>,
}

impl Response {
    /// A JSON response.
    #[must_use]
    pub fn json(status: u16, body: impl Into<Arc<str>>) -> Self {
        Response {
            status,
            content_type: "application/json",
            body: body.into(),
            extra_headers: Vec::new(),
        }
    }

    /// A plain-text response.
    #[must_use]
    pub fn text(status: u16, body: impl Into<Arc<str>>) -> Self {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into(),
            extra_headers: Vec::new(),
        }
    }

    /// Adds a header.
    #[must_use]
    pub fn with_header(mut self, name: &'static str, value: String) -> Self {
        self.extra_headers.push((name, value));
        self
    }

    /// Appends the full wire form (head + body) to `out`, with the
    /// right `Connection` header.
    pub fn render_to(&self, out: &mut Vec<u8>, keep_alive: bool) {
        use std::io::Write;
        let _ = write!(
            out,
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        );
        for (name, value) in &self.extra_headers {
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(b": ");
            out.extend_from_slice(value.as_bytes());
            out.extend_from_slice(b"\r\n");
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(self.body.as_bytes());
    }
}

/// The reason phrase of a status code this server emits.
#[must_use]
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn complete(raw: &[u8]) -> (Request, usize) {
        match try_parse(raw).expect("parses") {
            Parsed::Complete { request, consumed } => (request, consumed),
            Parsed::Partial { .. } => panic!("expected a complete request"),
        }
    }

    #[test]
    fn parses_a_post_with_body() {
        let raw = b"POST /v1/plan HTTP/1.1\r\ncontent-length: 4\r\nHost: x\r\n\r\nbody";
        let (req, consumed) = complete(raw);
        assert_eq!(req.method, "POST");
        assert_eq!(req.target, "/v1/plan");
        assert_eq!(req.body, b"body");
        assert_eq!(req.header("host"), Some("x"));
        assert!(!req.wants_close());
        assert_eq!(consumed, raw.len());
    }

    #[test]
    fn partial_input_asks_for_more_at_every_boundary() {
        let raw = b"POST /v1/plan HTTP/1.1\r\ncontent-length: 4\r\n\r\nbody";
        for cut in 0..raw.len() {
            assert!(
                matches!(try_parse(&raw[..cut]), Ok(Parsed::Partial { .. })),
                "cut at {cut} should be partial"
            );
        }
        let (req, _) = complete(raw);
        assert_eq!(req.body, b"body");
    }

    #[test]
    fn pipelined_requests_are_consumed_one_at_a_time() {
        let raw = b"GET /healthz HTTP/1.1\r\n\r\nGET /metrics HTTP/1.1\r\n\r\n";
        let (first, consumed) = complete(raw);
        assert_eq!(first.target, "/healthz");
        let (second, rest) = complete(&raw[consumed..]);
        assert_eq!(second.target, "/metrics");
        assert_eq!(consumed + rest, raw.len());
    }

    #[test]
    fn expect_continue_is_flagged_only_while_the_body_is_pending() {
        let head = b"POST /v1/plan HTTP/1.1\r\nexpect: 100-continue\r\ncontent-length: 4\r\n\r\n";
        match try_parse(head).expect("parses") {
            Parsed::Partial { needs_continue } => assert!(needs_continue),
            Parsed::Complete { .. } => panic!("body missing"),
        }
        let mut full = head.to_vec();
        full.extend_from_slice(b"body");
        let (req, _) = complete(&full);
        assert_eq!(req.body, b"body");
    }

    #[test]
    fn malformed_request_line_is_an_error() {
        assert!(matches!(
            try_parse(b"NONSENSE\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            try_parse(b"GET / SPDY/3\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn oversized_head_and_body_are_rejected() {
        let raw = format!(
            "POST / HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(
            try_parse(raw.as_bytes()),
            Err(HttpError::TooLarge(MAX_BODY_BYTES))
        ));
        // An unbounded header section is cut off at the head cap even
        // though no empty line ever arrives.
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        raw.extend(std::iter::repeat_n(b'x', MAX_HEAD_BYTES + 1));
        assert!(matches!(
            try_parse(&raw),
            Err(HttpError::TooLarge(MAX_HEAD_BYTES))
        ));
    }

    #[test]
    fn eof_classification_matches_parse_progress() {
        assert!(eof_error(b"").is_none(), "clean close");
        assert!(
            eof_error(b"GET / HT").is_none(),
            "gave up mid-request-line: silent close"
        );
        assert!(
            matches!(
                eof_error(b"GET / HTTP/1.1\r\nhost: x\r\n"),
                Some(HttpError::Malformed(m)) if m == "headers truncated"
            ),
            "EOF mid-headers is malformed"
        );
        assert!(
            matches!(
                eof_error(b"POST / HTTP/1.1\r\ncontent-length: 4\r\n\r\nbo"),
                Some(HttpError::Malformed(m)) if m == "body truncated by EOF"
            ),
            "EOF mid-body is malformed"
        );
        assert!(
            eof_error(b"GET /healthz HTTP/1.1\r\n\r\n").is_none(),
            "a complete unconsumed request is not an EOF error"
        );
    }

    #[test]
    fn rendered_bytes_pin_the_wire_format() {
        let response =
            Response::json(200, "{\"ok\":true}".to_string()).with_header("retry-after", "1".into());
        let mut bytes = Vec::new();
        response.render_to(&mut bytes, true);
        assert_eq!(
            String::from_utf8(bytes).expect("utf-8"),
            "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: 11\r\nconnection: keep-alive\r\nretry-after: 1\r\n\r\n{\"ok\":true}"
        );
        let mut close = Vec::new();
        Response::text(404, "gone".to_string()).render_to(&mut close, false);
        assert_eq!(
            String::from_utf8(close).expect("utf-8"),
            "HTTP/1.1 404 Not Found\r\ncontent-type: text/plain; charset=utf-8\r\ncontent-length: 4\r\nconnection: close\r\n\r\ngone"
        );
    }

    #[test]
    fn reason_phrases_cover_emitted_codes() {
        for code in [200, 400, 404, 405, 413, 500, 503, 504] {
            assert_ne!(reason(code), "Unknown");
        }
    }
}
