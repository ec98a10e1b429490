//! Property tests for the hand-rolled HTTP parser: *no byte stream panics*.
//!
//! The server feeds `read_request` raw socket bytes, so the parser is the
//! first line of defence — every input must resolve to `Ok` or a typed
//! [`ParseError`], and every error that owes a response must map to a 4xx.
//! Covers arbitrary garbage, truncations of valid requests, oversized
//! components, and pipelined sequences — plus the reverse direction: every
//! encoded response reads back through the client's response reader.

use fg_serve::http::{read_request, Limits, ParseError, Request, Response};
use fg_serve::loadgen::read_response;
use proptest::prelude::*;
use std::io::Cursor;

fn parse(bytes: &[u8], limits: &Limits) -> Result<Request, ParseError> {
    read_request(&mut Cursor::new(bytes), limits)
}

/// A syntactically valid request with the given body, as wire bytes.
fn valid_request(target: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "POST {target} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// Names the encode/read-back property draws its extra headers from.
const EXTRA_HEADERS: [&str; 3] = ["traceparent", "x-request-id", "retry-after"];

fn assert_contract(result: &Result<Request, ParseError>) {
    if let Err(e) = result {
        match e.status() {
            Some((status, _)) => assert!(
                (400..500).contains(&status),
                "parse errors must map to 4xx, got {status} for {e:?}"
            ),
            None => assert!(
                matches!(
                    e,
                    ParseError::IdleEof | ParseError::IdleTimeout | ParseError::Io(_)
                ),
                "only idle/transport errors may omit a response, got {e:?}"
            ),
        }
    }
}

proptest! {
    /// Arbitrary garbage: never panics, and every owed response is a 4xx.
    #[test]
    fn arbitrary_bytes_never_panic(raw in proptest::collection::vec(0u16..256, 0..2048)) {
        let bytes: Vec<u8> = raw.into_iter().map(|b| b as u8).collect();
        let result = parse(&bytes, &Limits::default());
        assert_contract(&result);
    }

    /// Garbage that at least starts like HTTP exercises the deeper states.
    #[test]
    fn http_shaped_garbage_never_panics(
        tail in proptest::collection::vec(0u16..256, 0..1024),
    ) {
        let mut bytes = b"POST /v1/decide HTTP/1.1\r\n".to_vec();
        bytes.extend(tail.into_iter().map(|b| b as u8));
        let result = parse(&bytes, &Limits::default());
        assert_contract(&result);
    }

    /// Truncating a valid request at any byte yields Ok (cut at/after the
    /// framed end), a 4xx, or a silent idle error — never a panic.
    #[test]
    fn truncations_never_panic(
        raw_body in proptest::collection::vec(0u16..256, 0..256),
        cut_permille in 0u32..1001,
    ) {
        let body: Vec<u8> = raw_body.into_iter().map(|b| b as u8).collect();
        let full = valid_request("/v1/decide", &body);
        let cut = (full.len() as u64 * u64::from(cut_permille) / 1000) as usize;
        let result = parse(&full[..cut], &Limits::default());
        match &result {
            Ok(parsed) => assert_eq!(parsed.body, body, "Ok implies the full body arrived"),
            Err(_) => assert_contract(&result),
        }
    }

    /// Pipelined requests on one stream all parse, in order, with their
    /// own bodies — the parser must consume exactly one framed request.
    #[test]
    fn pipelined_requests_parse_in_order(
        raw_bodies in proptest::collection::vec(
            proptest::collection::vec(0u16..256, 0..128),
            1..5,
        ),
    ) {
        let bodies: Vec<Vec<u8>> = raw_bodies
            .into_iter()
            .map(|b| b.into_iter().map(|x| x as u8).collect())
            .collect();
        let mut stream = Vec::new();
        for body in &bodies {
            stream.extend_from_slice(&valid_request("/v1/decide", body));
        }
        let mut cursor = Cursor::new(stream.as_slice());
        let limits = Limits::default();
        for (i, body) in bodies.iter().enumerate() {
            let parsed = read_request(&mut cursor, &limits)
                .unwrap_or_else(|e| panic!("pipelined request {i} failed: {e:?}"));
            assert_eq!(parsed.target, "/v1/decide");
            assert_eq!(&parsed.body, body);
        }
        assert!(matches!(
            read_request(&mut cursor, &limits),
            Err(ParseError::IdleEof)
        ));
    }

    /// Any status, extra-header list and body the encoder is given parses
    /// back through `loadgen::read_response` to the same status and body.
    #[test]
    fn encoded_responses_read_back(
        status in 100u16..600,
        headers in proptest::collection::vec(
            (0usize..EXTRA_HEADERS.len(), proptest::collection::vec(0x20u8..0x7f, 0..64)),
            0..4,
        ),
        raw_body in proptest::collection::vec(0u16..256, 0..512),
        close in any::<bool>(),
    ) {
        let body: Vec<u8> = raw_body.into_iter().map(|b| b as u8).collect();
        let mut response = Response::json(status, body.clone());
        for (name, value) in headers {
            // Printable ASCII only, so the value is valid UTF-8.
            let value = String::from_utf8(value).expect("printable ASCII");
            response = response.with_header(EXTRA_HEADERS[name], value);
        }
        if close {
            response = response.closing();
        }
        let mut encoded = Vec::new();
        response.encode_into(&mut encoded);
        let mut reader = encoded.as_slice();
        let (got_status, got_body) = read_response(&mut reader)
            .unwrap_or_else(|e| panic!("encoded response did not read back: {e}"));
        prop_assert_eq!(got_status, status);
        prop_assert_eq!(got_body, body);
        prop_assert!(reader.is_empty(), "reader left {} bytes", reader.len());
    }

    /// Declared Content-Length beyond the cap is refused *before* the
    /// parser buffers anything, regardless of what follows.
    #[test]
    fn oversized_declared_body_is_413(extra in 1u64..1_000_000) {
        let limits = Limits::default();
        let declared = limits.max_body as u64 + extra;
        let head = format!(
            "POST /v1/decide HTTP/1.1\r\nContent-Length: {declared}\r\n\r\n"
        );
        let result = parse(head.as_bytes(), &limits);
        assert!(
            matches!(result, Err(ParseError::BodyTooLarge)),
            "expected BodyTooLarge, got {result:?}"
        );
    }
}

#[test]
fn oversized_request_line_is_431() {
    let limits = Limits::default();
    let long_target = format!("/{}", "a".repeat(limits.max_request_line));
    let bytes = valid_request(&long_target, b"");
    match parse(&bytes, &limits) {
        Err(ParseError::RequestLineTooLong) => {}
        other => panic!("expected RequestLineTooLong, got {other:?}"),
    }
}

#[test]
fn too_many_headers_is_431() {
    let limits = Limits::default();
    let mut head = String::from("GET / HTTP/1.1\r\n");
    for i in 0..=limits.max_headers {
        head.push_str(&format!("x-h{i}: v\r\n"));
    }
    head.push_str("\r\n");
    match parse(head.as_bytes(), &limits) {
        Err(ParseError::HeadersTooLarge) => {}
        other => panic!("expected HeadersTooLarge, got {other:?}"),
    }
}

#[test]
fn transfer_encoding_is_rejected() {
    let bytes = b"POST /v1/decide HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
    match parse(bytes, &Limits::default()) {
        Err(ParseError::Malformed(_)) => {}
        other => panic!("expected Malformed, got {other:?}"),
    }
}
