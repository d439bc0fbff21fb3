//! Seeded fuzz loop over the HTTP/1.1 codec (`nl2vis_llm::http::wire`).
//!
//! Inputs are well-formed requests and responses rendered by the codec
//! itself, then damaged — bytes flipped, truncated, spliced with another
//! message, hostile header lines inserted — plus plain random bytes. Each
//! input is parsed whole, in random-size chunks the way the event core sees
//! partial reads, and through the blocking `read_message`, as a request and
//! as a response. The loop asserts that parsing never panics, that the
//! chunked and blocking readers agree with the one-shot parse, that no
//! parse claims more bytes than it was given, and that allocation stays
//! bounded: the incremental parser allocates in proportion to the bytes it
//! holds, never to a declared `Content-Length`, and no reader ever makes an
//! allocation past the codec's byte limits.

use nl2vis_data::rng::Rng;
use nl2vis_llm::http::wire::{self, Cause, Kind, Malformed, Message};
use nl2vis_llm::http::wire::{MAX_BODY_BYTES, MAX_HEADER_BYTES};
use nl2vis_obs::TraceContext;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{BufReader, Read};
use std::net::SocketAddr;
use std::time::Duration;

const SEED: u64 = 0x5EED_C0DE;
const CASES: usize = 3000;

/// Tracks the largest single allocation made on the current thread.
struct PeakAlloc;

thread_local! {
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = PEAK.try_with(|peak| peak.set(peak.get().max(size)));
}

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: PeakAlloc = PeakAlloc;

/// Runs `f`; returns its result and the largest allocation it made.
fn peak_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    PEAK.with(|peak| peak.set(0));
    let out = f();
    (out, PEAK.with(Cell::get))
}

/// Header lines a hostile or broken peer might send.
fn hostile_header(rng: &mut Rng) -> String {
    let huge = format!("{}", u64::MAX);
    let over = format!("{}", MAX_BODY_BYTES + 1 + rng.below_usize(1 << 20));
    let at = format!("{MAX_BODY_BYTES}");
    let value = rng.below(100_000).to_string();
    let line = match rng.below(9) {
        0 => format!("Content-Length: {huge}"),
        1 => format!("content-LENGTH: {over}"),
        2 => format!("Content-Length: {at}"),
        3 => "Content-Length: banana".to_string(),
        4 => format!("Content-Length: {value}"),
        5 => format!(
            "Retry-After: {}",
            rng.pick(&["1e300", "-1", "NaN", "0.5", "inf"])
        ),
        6 => format!("X-Nl2vis-Trace-Id: {value}\r\nX-Nl2vis-Parent-Span: {huge}"),
        7 => format!(
            "Connection: {}",
            rng.pick(&["keep-alive, close", "Keep-Alive", ""])
        ),
        _ => "no colon at all".to_string(),
    };
    line + "\r\n"
}

fn random_text(rng: &mut Rng, max: usize) -> String {
    let len = rng.below_usize(max + 1);
    (0..len)
        .map(|_| *rng.pick(&['a', 'Z', '"', '{', ' ', '\n', '\r', ':', 'é']))
        .collect()
}

/// A well-formed message rendered by the codec, as the kind it is.
fn valid_message(rng: &mut Rng) -> (Kind, Vec<u8>) {
    let max_body = if rng.chance(0.1) { 4000 } else { 64 };
    let body = random_text(rng, max_body);
    let keep_alive = rng.chance(0.5);
    if rng.chance(0.5) {
        let addr: SocketAddr = "127.0.0.1:8080".parse().expect("static address");
        let trace = rng.chance(0.3).then(|| TraceContext {
            trace_id: rng.next_u64() >> 12,
            parent_span_id: rng.chance(0.5).then(|| rng.below(1000)),
        });
        let method = *rng.pick(&["GET", "POST"]);
        let path = *rng.pick(&["/v1/completions", "/healthz", "/trace/42", "/"]);
        let raw = wire::render_request(method, path, addr, &body, keep_alive, trace);
        (Kind::Request, raw.into_bytes())
    } else {
        let status = *rng.pick(&[200, 400, 404, 413, 429, 500]);
        let retry_after = rng
            .chance(0.3)
            .then(|| Duration::from_millis(rng.below(5000)));
        let raw = wire::render_response(status, &body, "application/json", keep_alive, retry_after);
        (Kind::Response, raw.into_bytes())
    }
}

/// One fuzz input: a damaged valid message, or random bytes.
fn fuzz_input(rng: &mut Rng) -> Vec<u8> {
    if rng.chance(0.1) {
        let len = rng.below_usize(512);
        return (0..len).map(|_| rng.next_u64() as u8).collect();
    }
    let (_, mut input) = valid_message(rng);
    if rng.chance(0.1) {
        // A second message right behind the first: pipelining.
        input.extend(valid_message(rng).1);
    }
    for _ in 0..rng.below(4) {
        let len = input.len();
        match rng.below(6) {
            0 if len > 0 => input[rng.below_usize(len)] ^= 1 << rng.below(8),
            1 if len > 0 => {
                input[rng.below_usize(len)] = *rng.pick(&[b'\r', b'\n', b':', b' ', b'9', 0xff])
            }
            2 => input.truncate(rng.below_usize(len + 1)),
            3 => {
                let (_, other) = valid_message(rng);
                let cut = rng.below_usize(len + 1);
                let from = rng.below_usize(other.len() + 1);
                input.truncate(cut);
                input.extend_from_slice(&other[from..]);
            }
            4 => {
                // Insert after the start line, where headers live.
                let at = input
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(len, |i| i + 1);
                let line = hostile_header(rng);
                input.splice(at..at, line.into_bytes());
            }
            _ if rng.chance(0.05) => {
                // A head that can only end past the header limit.
                let at = input.iter().position(|&b| b == b'\n').map_or(0, |i| i + 1);
                let pad = format!("X-Pad: {}\r\n", "p".repeat(MAX_HEADER_BYTES));
                input.splice(at..at, pad.into_bytes());
            }
            _ => {}
        }
    }
    input
}

/// Where a stream of bytes ended up.
#[derive(Debug, PartialEq)]
struct Parsed {
    messages: Vec<Message>,
    /// The verdict that stopped parsing, if any.
    error: Option<Malformed>,
    /// Bytes claimed by the complete messages.
    consumed: usize,
}

/// Feeds `chunks` to `wire::parse` the way the event core does: append,
/// then parse (and drain) as many messages as the buffer holds.
fn parse_stream<'a>(chunks: impl Iterator<Item = &'a [u8]>, kind: Kind) -> Parsed {
    let mut parsed = Parsed {
        messages: Vec::new(),
        error: None,
        consumed: 0,
    };
    let mut buf = Vec::new();
    for chunk in chunks {
        buf.extend_from_slice(chunk);
        loop {
            match wire::parse(&buf, kind) {
                Ok(Some((message, used))) => {
                    assert!(used <= buf.len(), "claimed {used} of {} bytes", buf.len());
                    assert_eq!(message.body.len(), message.head.content_length);
                    buf.drain(..used);
                    parsed.consumed += used;
                    parsed.messages.push(message);
                }
                Ok(None) => break,
                Err(bad) => {
                    parsed.error = Some(bad);
                    return parsed;
                }
            }
        }
    }
    parsed
}

/// Random-size chunks covering `input`.
fn chunks<'a>(rng: &mut Rng, input: &'a [u8]) -> Vec<&'a [u8]> {
    let max = (input.len() / 8).max(16);
    let mut out = Vec::new();
    let mut at = 0;
    while at < input.len() {
        let n = (1 + rng.below_usize(max)).min(input.len() - at);
        out.push(&input[at..at + n]);
        at += n;
    }
    out
}

/// A reader that hands out at most a random few bytes per `read`.
struct Trickle<'a> {
    rest: &'a [u8],
    rng: Rng,
}

impl Read for Trickle<'_> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let n = (1 + self.rng.below_usize(4096))
            .min(out.len())
            .min(self.rest.len());
        out[..n].copy_from_slice(&self.rest[..n]);
        self.rest = &self.rest[n..];
        Ok(n)
    }
}

fn check(rng: &mut Rng, input: &[u8], kind: Kind) {
    let (whole, peak) = peak_of(|| parse_stream(std::iter::once(input), kind));
    assert!(whole.consumed <= input.len());
    assert!(
        peak <= 8 * input.len() + 1024,
        "parse allocated {peak} bytes for a {}-byte input",
        input.len()
    );

    let pieces = chunks(rng, input);
    let chunked = parse_stream(pieces.into_iter(), kind);
    assert_eq!(chunked, whole, "chunked parse disagrees with one-shot");

    let trickle = Trickle {
        rest: input,
        rng: rng.fork(1),
    };
    let mut reader = BufReader::with_capacity(1 + rng.below_usize(8192), trickle);
    let ((messages, last), peak) = peak_of(|| {
        let mut messages = Vec::new();
        loop {
            match wire::read_message(&mut reader, kind) {
                Ok(message) => messages.push(message),
                Err(e) => return (messages, e),
            }
        }
    });
    assert!(
        peak <= MAX_HEADER_BYTES + MAX_BODY_BYTES,
        "read_message allocated {peak}"
    );
    assert_eq!(
        messages, whole.messages,
        "read_message disagrees with parse"
    );
    match (&last.cause, &whole.error) {
        (Cause::Malformed(got), Some(want)) => assert_eq!(got, want),
        (Cause::Closed, None) => {
            assert_eq!(last.started, whole.consumed < input.len(), "{last:?}");
        }
        (cause, want) => panic!("read_message ended with {cause:?}, parse with {want:?}"),
    }
}

#[test]
fn codec_survives_damaged_and_random_input() {
    let mut rng = Rng::new(SEED);
    for case in 0..CASES {
        let mut case_rng = rng.fork(case as u64);
        let input = fuzz_input(&mut case_rng);
        for kind in [Kind::Request, Kind::Response] {
            check(&mut case_rng, &input, kind);
        }
    }
    // Undamaged messages parse back to what was rendered.
    for _ in 0..200 {
        let (kind, input) = valid_message(&mut rng);
        let parsed = parse_stream(std::iter::once(input.as_slice()), kind);
        assert_eq!((parsed.messages.len(), parsed.consumed), (1, input.len()));
    }
}
