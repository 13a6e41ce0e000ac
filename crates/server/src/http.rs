//! Hand-rolled HTTP/1.1 request parsing and response writing.
//!
//! The parser is *incremental*: it is handed whatever bytes have arrived
//! so far and answers "complete request", "need more", or "malformed" —
//! so the connection loop works identically for requests that arrive in
//! one segment or byte by byte. Limits guard every dimension an untrusted
//! peer controls: request-line length, header-section size, header count.

use std::io::{self, Write};
use std::time::Duration;

/// Longest accepted request line (method + target + version).
pub const MAX_REQUEST_LINE_BYTES: usize = 8 * 1024;
/// Longest accepted header section (request line + all headers).
pub const MAX_HEADER_SECTION_BYTES: usize = 16 * 1024;
/// Most headers accepted on one request.
pub const MAX_HEADER_COUNT: usize = 64;
/// Bodies larger than this are sent with chunked transfer-encoding.
pub const DEFAULT_CHUNK_THRESHOLD: usize = 16 * 1024;
/// Chunk size used when writing chunked bodies.
const CHUNK_SIZE: usize = 8 * 1024;

/// HTTP versions this server speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HttpVersion {
    /// HTTP/1.0: close-by-default connections.
    H10,
    /// HTTP/1.1: keep-alive-by-default connections.
    H11,
}

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Method token, as sent (`GET`, `POST`, …).
    pub method: String,
    /// Request target: path plus optional query string, percent-encoded.
    pub target: String,
    /// Protocol version.
    pub version: HttpVersion,
    /// Header `(name, value)` pairs in arrival order.
    pub headers: Vec<(String, String)>,
}

impl Request {
    /// First header named `name` (case-insensitive), if any.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Whether the connection should stay open after this exchange:
    /// HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close, and an explicit
    /// `Connection` header overrides either way.
    pub fn wants_keep_alive(&self) -> bool {
        match self.header("connection") {
            Some(v) if v.eq_ignore_ascii_case("close") => false,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => true,
            _ => self.version == HttpVersion::H11,
        }
    }
}

/// Why a request failed to parse; maps onto a response status.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestError {
    /// The request line is not `METHOD SP TARGET SP VERSION`.
    BadRequestLine(String),
    /// The target is not an absolute path of visible ASCII.
    BadTarget(String),
    /// The version token is not HTTP/1.0 or HTTP/1.1.
    UnsupportedVersion(String),
    /// A header line has no colon or a malformed name.
    BadHeader(String),
    /// Request line or header section exceeds its size limit.
    TooLarge,
    /// More than [`MAX_HEADER_COUNT`] headers.
    TooManyHeaders,
}

impl RequestError {
    /// The status line this error answers with.
    pub fn status(&self) -> (u16, &'static str) {
        match self {
            RequestError::UnsupportedVersion(_) => (505, "HTTP Version Not Supported"),
            RequestError::TooLarge | RequestError::TooManyHeaders => {
                (431, "Request Header Fields Too Large")
            }
            _ => (400, "Bad Request"),
        }
    }
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::BadRequestLine(line) => write!(f, "malformed request line `{line}`"),
            RequestError::BadTarget(t) => write!(f, "malformed request target `{t}`"),
            RequestError::UnsupportedVersion(v) => write!(f, "unsupported version `{v}`"),
            RequestError::BadHeader(h) => write!(f, "malformed header line `{h}`"),
            RequestError::TooLarge => write!(f, "request headers exceed the size limit"),
            RequestError::TooManyHeaders => write!(f, "too many header fields"),
        }
    }
}

// The header-section terminator scan is shared with the HTTP client in
// hdsampler-webform: both sides must agree byte for byte on where a
// header section ends.
use hdsampler_webform::httpc::find_header_end;

/// Try to parse one complete request from the front of `buf`.
///
/// `Ok(Some((request, bytes_consumed)))` when a full header section is
/// present, `Ok(None)` when more bytes are needed, `Err` when the bytes
/// can never become a valid request (the connection should answer the
/// error and close).
pub fn parse_request(buf: &[u8]) -> Result<Option<(Request, usize)>, RequestError> {
    let Some(header_end) = find_header_end(buf) else {
        // No terminator yet: enforce limits on what has arrived, so a
        // peer streaming an endless request line is cut off early.
        if !buf.contains(&b'\n') && buf.len() > MAX_REQUEST_LINE_BYTES {
            return Err(RequestError::TooLarge);
        }
        if buf.len() > MAX_HEADER_SECTION_BYTES {
            return Err(RequestError::TooLarge);
        }
        return Ok(None);
    };
    if header_end > MAX_HEADER_SECTION_BYTES {
        return Err(RequestError::TooLarge);
    }
    let head = std::str::from_utf8(&buf[..header_end])
        .map_err(|_| RequestError::BadRequestLine("<non-UTF-8 bytes>".into()))?;
    let mut lines = head.split('\n').map(|l| l.trim_end_matches('\r'));
    let request_line = lines.next().unwrap_or("");
    if request_line.len() > MAX_REQUEST_LINE_BYTES {
        return Err(RequestError::TooLarge);
    }

    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Err(RequestError::BadRequestLine(request_line.into())),
    };
    if !method.bytes().all(|b| b.is_ascii_alphabetic()) {
        return Err(RequestError::BadRequestLine(request_line.into()));
    }
    if !target.starts_with('/') || !target.bytes().all(|b| (0x21..=0x7E).contains(&b)) {
        return Err(RequestError::BadTarget(target.into()));
    }
    let version = match version {
        "HTTP/1.0" => HttpVersion::H10,
        "HTTP/1.1" => HttpVersion::H11,
        other => return Err(RequestError::UnsupportedVersion(other.into())),
    };

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        if headers.len() >= MAX_HEADER_COUNT {
            return Err(RequestError::TooManyHeaders);
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| RequestError::BadHeader(line.into()))?;
        // Header names are tokens: no whitespace, at least one character.
        if name.is_empty()
            || !name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"-_!#$%&'*+.^`|~".contains(&b))
        {
            return Err(RequestError::BadHeader(line.into()));
        }
        headers.push((name.to_string(), value.trim().to_string()));
    }

    Ok(Some((
        Request {
            method: method.to_string(),
            target: target.to_string(),
            version,
            headers,
        },
        header_end,
    )))
}

/// A response ready to be written.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Reason phrase.
    pub reason: &'static str,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Extra headers (e.g. the budget-exhaustion markers).
    pub extra_headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
    /// When set, the server writes *nothing* and severs the connection —
    /// the peer sees an abrupt close mid-exchange (fault injection; see
    /// the `Adversary` site decorator). Status/body are ignored.
    pub drop_connection: bool,
    /// Hold the response (or the sever) this long before it reaches the
    /// wire. The server parks the connection on its timer heap meanwhile,
    /// so a delayed answer never blocks a serve loop.
    pub delay: Duration,
}

impl Response {
    /// An HTML page response.
    pub fn html(status: u16, reason: &'static str, body: String) -> Self {
        Response {
            status,
            reason,
            content_type: "text/html; charset=utf-8",
            extra_headers: Vec::new(),
            body: body.into_bytes(),
            drop_connection: false,
            delay: Duration::ZERO,
        }
    }

    /// A plain-text response (error bodies).
    pub fn text(status: u16, reason: &'static str, body: String) -> Self {
        Response {
            status,
            reason,
            content_type: "text/plain; charset=utf-8",
            extra_headers: Vec::new(),
            body: body.into_bytes(),
            drop_connection: false,
            delay: Duration::ZERO,
        }
    }

    /// A response that kills the connection instead of answering.
    pub fn sever() -> Self {
        let mut resp = Response::text(503, "Service Unavailable", String::new());
        resp.drop_connection = true;
        resp
    }
}

/// Serialize `resp` to `w`. Bodies above `chunk_threshold` use chunked
/// transfer-encoding, smaller ones `Content-Length`. Returns the bytes
/// written.
pub fn write_response(
    w: &mut impl Write,
    resp: &Response,
    keep_alive: bool,
    chunk_threshold: usize,
) -> io::Result<usize> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nConnection: {}\r\n",
        resp.status,
        resp.reason,
        resp.content_type,
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in &resp.extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    let chunked = resp.body.len() > chunk_threshold;
    let mut written = 0;
    if chunked {
        head.push_str("Transfer-Encoding: chunked\r\n\r\n");
        w.write_all(head.as_bytes())?;
        written += head.len();
        for chunk in resp.body.chunks(CHUNK_SIZE) {
            let size_line = format!("{:X}\r\n", chunk.len());
            w.write_all(size_line.as_bytes())?;
            w.write_all(chunk)?;
            w.write_all(b"\r\n")?;
            written += size_line.len() + chunk.len() + 2;
        }
        w.write_all(b"0\r\n\r\n")?;
        written += 5;
    } else {
        head.push_str(&format!("Content-Length: {}\r\n\r\n", resp.body.len()));
        w.write_all(head.as_bytes())?;
        w.write_all(&resp.body)?;
        written += head.len() + resp.body.len();
    }
    w.flush()?;
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(raw: &[u8]) -> (Request, usize) {
        parse_request(raw).expect("well-formed").expect("complete")
    }

    #[test]
    fn simple_get_parses() {
        let raw = b"GET /search?make=Honda HTTP/1.1\r\nHost: x\r\n\r\n";
        let (req, used) = parse_ok(raw);
        assert_eq!(req.method, "GET");
        assert_eq!(req.target, "/search?make=Honda");
        assert_eq!(req.version, HttpVersion::H11);
        assert_eq!(req.header("host"), Some("x"));
        assert!(req.wants_keep_alive());
        assert_eq!(used, raw.len());
    }

    #[test]
    fn pipelined_requests_consume_exactly_one() {
        let raw = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        let (req, used) = parse_ok(raw);
        assert_eq!(req.target, "/a");
        let (req2, used2) = parse_ok(&raw[used..]);
        assert_eq!(req2.target, "/b");
        assert_eq!(used + used2, raw.len());
    }

    #[test]
    fn incomplete_requests_need_more() {
        for raw in [
            &b"GET"[..],
            b"GET /search HTTP/1.1\r\n",
            b"GET /search HTTP/1.1\r\nHost: x\r\n",
        ] {
            assert!(parse_request(raw).unwrap().is_none(), "{raw:?}");
        }
    }

    #[test]
    fn malformed_request_lines_are_rejected() {
        for raw in [
            &b"GET/search HTTP/1.1\r\n\r\n"[..],
            b"GET /a /b HTTP/1.1\r\n\r\n",
            b"G3T /a HTTP/1.1\r\n\r\n",
            b" /a HTTP/1.1\r\n\r\n",
            b"GET nopath HTTP/1.1\r\n\r\n",
            b"GET /a\tb HTTP/1.1\r\n\r\n",
        ] {
            let err = parse_request(raw).unwrap_err();
            assert_eq!(err.status().0, 400, "{raw:?} → {err:?}");
        }
        assert_eq!(
            parse_request(b"GET /a HTTP/2.0\r\n\r\n")
                .unwrap_err()
                .status()
                .0,
            505
        );
    }

    #[test]
    fn header_limits_enforced() {
        let long_line = format!(
            "GET /{} HTTP/1.1\r\n\r\n",
            "a".repeat(MAX_REQUEST_LINE_BYTES)
        );
        assert_eq!(
            parse_request(long_line.as_bytes()).unwrap_err(),
            RequestError::TooLarge
        );
        // An endless request line is rejected before its terminator shows.
        let endless = vec![b'a'; MAX_REQUEST_LINE_BYTES + 2];
        assert_eq!(parse_request(&endless).unwrap_err(), RequestError::TooLarge);

        let mut many = String::from("GET / HTTP/1.1\r\n");
        for i in 0..(MAX_HEADER_COUNT + 1) {
            many.push_str(&format!("h{i}: v\r\n"));
        }
        many.push_str("\r\n");
        assert_eq!(
            parse_request(many.as_bytes()).unwrap_err(),
            RequestError::TooManyHeaders
        );

        let huge = format!(
            "GET / HTTP/1.1\r\nbig: {}\r\n\r\n",
            "x".repeat(MAX_HEADER_SECTION_BYTES)
        );
        assert_eq!(
            parse_request(huge.as_bytes()).unwrap_err(),
            RequestError::TooLarge
        );
    }

    #[test]
    fn bad_headers_are_rejected() {
        for raw in [
            &b"GET / HTTP/1.1\r\nno colon\r\n\r\n"[..],
            b"GET / HTTP/1.1\r\nbad name: v\r\n\r\n",
            b"GET / HTTP/1.1\r\n: empty\r\n\r\n",
        ] {
            assert!(matches!(
                parse_request(raw).unwrap_err(),
                RequestError::BadHeader(_)
            ));
        }
    }

    #[test]
    fn keep_alive_defaults_by_version() {
        let (h11, _) = parse_ok(b"GET / HTTP/1.1\r\n\r\n");
        assert!(h11.wants_keep_alive());
        let (h11_close, _) = parse_ok(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(!h11_close.wants_keep_alive());
        let (h10, _) = parse_ok(b"GET / HTTP/1.0\r\n\r\n");
        assert!(!h10.wants_keep_alive());
        let (h10_ka, _) = parse_ok(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
        assert!(h10_ka.wants_keep_alive());
    }

    #[test]
    fn content_length_and_chunked_writing() {
        let resp = Response::html(200, "OK", "hello".into());
        let mut out = Vec::new();
        write_response(&mut out, &resp, true, DEFAULT_CHUNK_THRESHOLD).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 5\r\n"));
        assert!(text.ends_with("\r\n\r\nhello"));

        // A threshold of zero forces the chunked path.
        let mut out = Vec::new();
        write_response(&mut out, &resp, false, 0).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Transfer-Encoding: chunked\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.contains("5\r\nhello\r\n"));
        assert!(text.ends_with("0\r\n\r\n"));
    }
}
