//! A deliberately tiny HTTP/1.1 implementation — just enough protocol for
//! `autosuggestd` and its loopback clients, std-only.
//!
//! Supported: request line + headers + `Content-Length` bodies, persistent
//! connections (the daemon serves requests in a loop until EOF or
//! `Connection: close`). Not supported, by design: chunked transfer
//! encoding, HTTP/2, TLS, multipart — clients that need those belong
//! behind a real proxy. A request whose framing is ambiguous (any
//! `Transfer-Encoding`, or two different `Content-Length`s) is malformed.
//!
//! Memory is bounded at every step: header lines, header count, and body
//! size all have hard caps, so a malicious or confused peer cannot make
//! the daemon buffer unbounded input.

use std::fmt::{self, Write as _};
use std::io::{self, BufRead, Write};

/// Longest accepted request line or header line, in bytes.
const MAX_LINE_BYTES: usize = 16 * 1024;
/// Most headers accepted per request.
const MAX_HEADERS: usize = 100;

/// A parsed request: method, path, and the raw body bytes.
#[derive(Debug)]
pub struct Request {
    pub method: String,
    pub path: String,
    pub body: Vec<u8>,
    /// Whether the peer asked to close the connection after this exchange.
    pub close: bool,
}

/// Protocol-level failure while reading a request. `BodyTooLarge` and
/// `LengthRequired` are separated so callers can answer 413 / 411 instead
/// of dropping the connection.
#[derive(Debug)]
pub enum HttpError {
    Io(io::Error),
    Malformed(String),
    BodyTooLarge { limit: usize },
    /// A body-bearing method (POST/PUT/PATCH) arrived without a
    /// `Content-Length` header. Guessing a length of zero would leave any
    /// actual body bytes on the wire to be misparsed as the next request,
    /// so the request is refused outright (RFC 9112 §6.2 → 411).
    LengthRequired,
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "http: {e}"),
            HttpError::Malformed(m) => write!(f, "http: malformed request: {m}"),
            HttpError::BodyTooLarge { limit } => {
                write!(f, "http: body exceeds {limit} byte limit")
            }
            HttpError::LengthRequired => {
                write!(f, "http: body-bearing request without content-length")
            }
        }
    }
}

impl std::error::Error for HttpError {}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> HttpError {
        HttpError::Io(e)
    }
}

/// Read one CRLF- (or LF-) terminated line, capped at [`MAX_LINE_BYTES`].
/// Returns `None` on clean EOF before any byte.
fn read_line(reader: &mut impl BufRead) -> Result<Option<String>, HttpError> {
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match reader.read(&mut byte) {
            Ok(0) => {
                if line.is_empty() {
                    return Ok(None);
                }
                return Err(HttpError::Malformed("EOF mid-line".into()));
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    return String::from_utf8(line)
                        .map(Some)
                        .map_err(|_| HttpError::Malformed("non-UTF-8 header line".into()));
                }
                if line.len() >= MAX_LINE_BYTES {
                    return Err(HttpError::Malformed("header line too long".into()));
                }
                line.push(byte[0]);
            }
            Err(e) => return Err(HttpError::Io(e)),
        }
    }
}

/// Read and parse one request. `Ok(None)` means the peer closed the
/// connection cleanly between requests (normal keep-alive termination).
pub fn read_request(
    reader: &mut impl BufRead,
    max_body_bytes: usize,
) -> Result<Option<Request>, HttpError> {
    let request_line = match read_line(reader)? {
        None => return Ok(None),
        Some(l) => l,
    };
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("empty request line".into()))?
        .to_string();
    let path = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("request line missing path".into()))?
        .to_string();

    let mut content_length: Option<usize> = None;
    let mut close = false;
    for _ in 0..MAX_HEADERS {
        let line = read_line(reader)?
            .ok_or_else(|| HttpError::Malformed("EOF inside headers".into()))?;
        if line.is_empty() {
            let content_length = match content_length {
                Some(n) => n,
                // Body-less methods may omit the header; for body-bearing
                // ones, assuming 0 would desync the keep-alive stream.
                None if body_expected(&method) => return Err(HttpError::LengthRequired),
                None => 0,
            };
            let body = read_body(reader, content_length, max_body_bytes)?;
            return Ok(Some(Request { method, path, body, close }));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("header without colon: {line:?}")))?;
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            let n = parse_content_length(value)?;
            // Two different lengths leave the body's end ambiguous, and
            // guessing either desyncs the keep-alive stream (RFC 9112 §6.3).
            if content_length.is_some_and(|seen| seen != n) {
                return Err(HttpError::Malformed("conflicting content-length headers".into()));
            }
            content_length = Some(n);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            // Only Content-Length framing is supported; reading a chunked
            // body by a Content-Length would leave its chunk framing on the
            // wire as the next request (RFC 9112 §6.1).
            return Err(HttpError::Malformed(format!("unsupported transfer-encoding {value:?}")));
        } else if name.eq_ignore_ascii_case("connection")
            && value.eq_ignore_ascii_case("close")
        {
            close = true;
        }
    }
    Err(HttpError::Malformed("too many headers".into()))
}

/// A `Content-Length` value: `1*DIGIT` (RFC 9112 §6.3). `str::parse`
/// alone would also take a leading `+`, and a peer that frames a body
/// differently from this parser desyncs the keep-alive stream.
fn parse_content_length(value: &str) -> Result<usize, HttpError> {
    match value.parse() {
        Ok(n) if value.bytes().all(|b| b.is_ascii_digit()) => Ok(n),
        _ => Err(HttpError::Malformed(format!("bad content-length {value:?}"))),
    }
}

/// Methods whose semantics carry a request body and therefore must declare
/// its framing explicitly.
fn body_expected(method: &str) -> bool {
    method.eq_ignore_ascii_case("POST")
        || method.eq_ignore_ascii_case("PUT")
        || method.eq_ignore_ascii_case("PATCH")
}

fn read_body(
    reader: &mut impl BufRead,
    content_length: usize,
    max_body_bytes: usize,
) -> Result<Vec<u8>, HttpError> {
    if content_length > max_body_bytes {
        return Err(HttpError::BodyTooLarge { limit: max_body_bytes });
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(body)
}

/// Standard reason phrase for the handful of status codes the daemon uses.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        411 => "Length Required",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Room for a message's status or request line and headers.
const HEAD_BYTES: usize = 160;

/// Send one whole message — `head`, each of `headers`, a blank line, then
/// `body` — with a single `write_all`. On a socket with `TCP_NODELAY`
/// each write is its own send and, for a small message, its own segment,
/// so writing the message piece by piece would cost a segment per piece.
fn send(
    writer: &mut impl Write,
    head: fmt::Arguments<'_>,
    headers: &[(&str, &str)],
    body: &str,
) -> io::Result<()> {
    let mut message = String::with_capacity(HEAD_BYTES + body.len());
    // Formatting into a `String` cannot fail.
    let _ = message.write_fmt(head);
    for &(name, value) in headers {
        for part in [name, ": ", value, "\r\n"] {
            message.push_str(part);
        }
    }
    message.push_str("\r\n");
    message.push_str(body);
    writer.write_all(message.as_bytes())?;
    writer.flush()
}

/// Write a complete response with a JSON body and optional extra headers.
pub fn write_response(
    writer: &mut impl Write,
    status: u16,
    extra_headers: &[(&str, &str)],
    body: &str,
) -> io::Result<()> {
    send(
        writer,
        format_args!(
            "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n",
            reason(status),
            body.len()
        ),
        extra_headers,
        body,
    )
}

// ---------------------------------------------------------------------------
// Client side — used by the load generator and the integration tests.
// ---------------------------------------------------------------------------

/// Write a request with a body (pass `""` for body-less GETs).
pub fn write_request(
    writer: &mut impl Write,
    method: &str,
    path: &str,
    body: &str,
) -> io::Result<()> {
    send(
        writer,
        format_args!(
            "{method} {path} HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: {}\r\n",
            body.len()
        ),
        &[],
        body,
    )
}

/// Read a response: `(status, body)`. Companion to [`write_request`];
/// expects `Content-Length` framing (which [`write_response`] always
/// produces).
pub fn read_response(
    reader: &mut impl BufRead,
    max_body_bytes: usize,
) -> Result<(u16, String), HttpError> {
    let status_line = read_line(reader)?
        .ok_or_else(|| HttpError::Malformed("EOF before status line".into()))?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| HttpError::Malformed(format!("bad status line {status_line:?}")))?;
    let mut content_length = 0usize;
    for _ in 0..MAX_HEADERS {
        let line = read_line(reader)?
            .ok_or_else(|| HttpError::Malformed("EOF inside headers".into()))?;
        if line.is_empty() {
            let body = read_body(reader, content_length, max_body_bytes)?;
            let body = String::from_utf8(body)
                .map_err(|_| HttpError::Malformed("non-UTF-8 response body".into()))?;
            return Ok((status, body));
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = parse_content_length(value.trim())?;
            }
        }
    }
    Err(HttpError::Malformed("too many headers".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Option<Request>, HttpError> {
        read_request(&mut BufReader::new(raw.as_bytes()), 1024)
    }

    #[test]
    fn parses_post_with_body() {
        let req = parse("POST /suggest HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/suggest");
        assert_eq!(req.body, b"abcd");
        assert!(!req.close);
    }

    #[test]
    fn parses_get_without_body_and_connection_close() {
        let req = parse("GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "GET");
        assert!(req.body.is_empty());
        assert!(req.close);
    }

    #[test]
    fn clean_eof_is_none_not_error() {
        assert!(parse("").unwrap().is_none());
    }

    #[test]
    fn oversized_body_is_rejected_with_limit() {
        let err = parse("POST /suggest HTTP/1.1\r\nContent-Length: 4096\r\n\r\n").unwrap_err();
        assert!(matches!(err, HttpError::BodyTooLarge { limit: 1024 }));
    }

    #[test]
    fn malformed_lines_are_errors() {
        assert!(parse("NONSENSE\r\n\r\n").is_err());
        assert!(parse("GET /x HTTP/1.1\r\nbadheader\r\n\r\n").is_err());
        assert!(parse("GET /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n").is_err());
        for framing in [
            "Content-Length: 2\r\nContent-Length: 3",
            "Transfer-Encoding: chunked",
            "Transfer-Encoding: chunked\r\nContent-Length: 2",
            "Content-Length: 2\r\ntransfer-encoding: identity",
        ] {
            let err = parse(&format!("POST /suggest HTTP/1.1\r\n{framing}\r\n\r\nok")).unwrap_err();
            assert!(matches!(err, HttpError::Malformed(_)), "{framing:?}: got {err:?}");
        }
        // A repeated but equal length is unambiguous.
        let req = parse("POST /x HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nok");
        assert_eq!(req.unwrap().unwrap().body, b"ok");
    }

    #[test]
    fn post_without_content_length_is_length_required_not_a_stall() {
        // The body bytes must never be misread as a follow-up request.
        let err = parse("POST /suggest HTTP/1.1\r\n\r\n{\"k\":1}").unwrap_err();
        assert!(matches!(err, HttpError::LengthRequired), "got {err:?}");
        assert_eq!(reason(411), "Length Required");
    }

    #[test]
    fn non_numeric_content_length_is_malformed() {
        for value in ["12abc", "+12", "", "1 2"] {
            let raw = format!("POST /suggest HTTP/1.1\r\nContent-Length: {value}\r\n\r\n");
            let err = parse(&raw).unwrap_err();
            assert!(matches!(err, HttpError::Malformed(_)), "{value:?}: got {err:?}");
        }
        let response = "HTTP/1.1 200 OK\r\nContent-Length: +12\r\n\r\n{\"ok\":true}";
        let err = read_response(&mut BufReader::new(response.as_bytes()), 1024).unwrap_err();
        assert!(matches!(err, HttpError::Malformed(_)), "response: got {err:?}");
    }

    /// A request's comparable fields.
    fn fields(req: &Request) -> (&str, &str, &[u8], bool) {
        (&req.method, &req.path, &req.body, req.close)
    }

    /// Every request `reader` yields until a clean end (`Ok(None)`) or the
    /// first error.
    fn drain(mut reader: impl BufRead) -> (Vec<Request>, Result<(), HttpError>) {
        let mut got = Vec::new();
        loop {
            match read_request(&mut reader, 1024) {
                Ok(Some(req)) => got.push(req),
                Ok(None) => return (got, Ok(())),
                Err(e) => return (got, Err(e)),
            }
        }
    }

    /// Yields one byte per `read`, like a peer that trickles its bytes.
    struct OneByte<'a>(&'a [u8]);

    impl io::Read for OneByte<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match (self.0.split_first(), buf.first_mut()) {
                (Some((&b, rest)), Some(slot)) => {
                    *slot = b;
                    self.0 = rest;
                    Ok(1)
                }
                _ => Ok(0),
            }
        }
    }

    #[test]
    fn truncated_and_split_pipelines_parse_to_whole_requests_or_errors() {
        let body = "{\"k\": 1}";
        let post = format!(
            "POST /suggest HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let get = "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n";
        let wire = format!("{post}{get}");
        let (whole, end) = drain(BufReader::new(wire.as_bytes()));
        assert!(end.is_ok());
        assert_eq!(whole.len(), 2);
        assert_eq!(fields(&whole[0]), ("POST", "/suggest", body.as_bytes(), false));
        assert_eq!(fields(&whole[1]), ("GET", "/healthz", &b""[..], true));

        // Each prefix of the pipeline ends cleanly only at a request
        // boundary, having yielded exactly the requests before it;
        // anywhere else it yields those and then an error.
        let boundaries = [0, post.len(), wire.len()];
        for cut in 0..=wire.len() {
            let (got, end) = drain(BufReader::new(&wire.as_bytes()[..cut]));
            let complete = boundaries.iter().filter(|&&b| b > 0 && b <= cut).count();
            assert_eq!(got.len(), complete, "cut at {cut}");
            for (g, w) in got.iter().zip(&whole) {
                assert_eq!(fields(g), fields(w), "cut at {cut}");
            }
            assert_eq!(end.is_ok(), boundaries.contains(&cut), "cut at {cut}: {end:?}");
        }

        // A peer that delivers one byte per read frames the same requests.
        let (split, end) = drain(BufReader::new(OneByte(wire.as_bytes())));
        assert!(end.is_ok());
        let split: Vec<_> = split.iter().map(fields).collect();
        assert_eq!(split, whole.iter().map(fields).collect::<Vec<_>>());
    }

    #[test]
    fn header_names_are_case_insensitive() {
        let req = parse("POST /suggest HTTP/1.1\r\ncontent-length: 2\r\nCONNECTION: close\r\n\r\nok")
            .unwrap()
            .unwrap();
        assert_eq!(req.body, b"ok");
        assert!(req.close);
    }

    #[test]
    fn get_without_content_length_still_parses() {
        let req = parse("GET /stats HTTP/1.1\r\n\r\n").unwrap().unwrap();
        assert!(req.body.is_empty());
    }

    /// Counts `write` calls, taking every byte of each.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_message_is_one_write_of_unchanged_bytes() {
        let long = format!("[{}]", "1,".repeat(4096) + "1");
        for body in ["{\"ok\":true}", "", long.as_str()] {
            let mut out = CountingWriter::default();
            let headers = [("X-Trace-Id", "7"), ("X-Extra", "a b")];
            write_response(&mut out, 200, &headers, body).unwrap();
            assert_eq!(out.writes, 1, "response with a {}-byte body", body.len());
            let expected = format!(
                "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\
                 X-Trace-Id: 7\r\nX-Extra: a b\r\n\r\n{body}",
                body.len()
            );
            assert_eq!(String::from_utf8(out.bytes).unwrap(), expected);

            let mut out = CountingWriter::default();
            write_request(&mut out, "POST", "/suggest", body).unwrap();
            assert_eq!(out.writes, 1, "request with a {}-byte body", body.len());
            let expected = format!(
                "POST /suggest HTTP/1.1\r\nContent-Type: application/json\r\n\
                 Content-Length: {}\r\n\r\n{body}",
                body.len()
            );
            assert_eq!(String::from_utf8(out.bytes).unwrap(), expected);
        }
    }

    #[test]
    fn responses_roundtrip_through_the_parser_shape() {
        let mut out = Vec::new();
        write_response(&mut out, 429, &[("X-Trace-Id", "7")], "{\"error\":\"queue full\"}")
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("X-Trace-Id: 7\r\n"));
        assert!(text.ends_with("{\"error\":\"queue full\"}"));
    }
}
