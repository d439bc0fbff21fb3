//! The load generator's wire client: one persistent keep-alive connection
//! per worker, with per-phase timing.
//!
//! [`HttpLlmClient`](nl2vis_llm::http::HttpLlmClient) hides connection
//! management — which is right for the serving path and wrong for a load
//! harness, where *connect time is a measured phase* and the shed path
//! (`429` on a fresh connection) must be counted, not retried away. This
//! client keeps the socket visible: it reuses its one connection while the
//! server keeps it alive, reconnects (timed) when it does not, and retries
//! exactly once when a parked socket turns out to be stale.

use nl2vis_data::Json;
use nl2vis_llm::http::wire;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Per-request socket deadlines. Generous enough for a server under
/// deliberate overload, small enough that a dead server fails the run
/// instead of hanging it.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// What the server said to one request.
#[derive(Debug)]
pub enum Outcome {
    /// 200 with a completion body.
    Ok,
    /// 429 — admission control shed the request.
    Shed,
    /// Transport or protocol failure, or an unexpected status.
    Error(String),
}

/// One request's result with its phase breakdown (microseconds).
#[derive(Debug)]
pub struct WireResult {
    /// How the request ended.
    pub outcome: Outcome,
    /// TCP connect time; 0 when the request rode the kept-alive socket.
    pub connect_us: u64,
    /// Write-to-last-byte service time as seen from the client.
    pub serve_us: u64,
}

/// A worker's connection to the completion server.
pub struct LoadConn {
    addr: SocketAddr,
    model: String,
    stream: Option<TcpStream>,
}

impl LoadConn {
    /// A client for `addr` requesting completions from `model`.
    pub fn new(addr: SocketAddr, model: impl Into<String>) -> LoadConn {
        LoadConn {
            addr,
            model: model.into(),
            stream: None,
        }
    }

    /// Issues one completion request, reusing the kept-alive connection
    /// when one is parked. A stale parked socket costs one transparent
    /// reconnect; every other failure is the request's outcome.
    pub fn request(&mut self, prompt: &str) -> WireResult {
        let body = Json::object(vec![
            ("model", Json::from(self.model.as_str())),
            ("prompt", Json::from(prompt)),
        ])
        .to_compact();

        let mut connect_us = 0u64;
        let reused = self.stream.is_some();
        if self.stream.is_none() {
            let started = Instant::now();
            match TcpStream::connect_timeout(&self.addr, IO_TIMEOUT) {
                Ok(stream) => {
                    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
                    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
                    // Request/response latency is the measurement; Nagle
                    // batching + delayed ACK would add spurious 40ms
                    // stalls to it.
                    let _ = stream.set_nodelay(true);
                    connect_us = started.elapsed().as_micros() as u64;
                    self.stream = Some(stream);
                }
                Err(e) => {
                    return WireResult {
                        outcome: Outcome::Error(format!("connect: {e}")),
                        connect_us: started.elapsed().as_micros() as u64,
                        serve_us: 0,
                    }
                }
            }
        }

        let started = Instant::now();
        let outcome = match self.roundtrip(&body) {
            Err(e) if e.is_stale() && reused => {
                // The parked socket died while idle; the request never
                // reached the server, so a single fresh-connection retry is
                // safe. `self.stream` is already cleared.
                return self.request(prompt);
            }
            // Once the status line arrived the server *did* process the
            // request: a 429 is a shed even if the rest of the response
            // was cut off (admission control spoke; the body was only
            // advisory).
            Err(e) if e.status == Some(429) => Outcome::Shed,
            Err(e) => Outcome::Error(e.to_string()),
            Ok(response) => match response.head.status {
                200 => Outcome::Ok,
                429 => Outcome::Shed,
                other => Outcome::Error(format!("http {other}: {}", response.text())),
            },
        };
        WireResult {
            outcome,
            connect_us,
            serve_us: started.elapsed().as_micros() as u64,
        }
    }

    /// One exchange on the live socket. On any error the socket is
    /// dropped; on success it is kept only for a 200 the server said
    /// keep-alive to.
    fn roundtrip(&mut self, body: &str) -> Result<wire::Message, wire::Error> {
        let mut stream = self.stream.take().expect("live socket");
        // One write syscall for the whole request: header-then-body writes
        // on a non-NODELAY path would hand Nagle a stall opportunity, and
        // even with NODELAY two segments cost more than one. A write
        // failing on a reused socket is the stale signature too (RST from
        // a closed peer surfaces on write).
        let request = wire::render_request("POST", "/v1/completions", self.addr, body, true, None);
        stream
            .write_all(request.as_bytes())
            .and_then(|_| stream.flush())
            .map_err(wire::Error::io)?;
        let clone = stream.try_clone().map_err(wire::Error::io)?;
        let response = wire::read_message(&mut BufReader::new(clone), wire::Kind::Response)?;
        if response.head.keep_alive && response.head.status == 200 {
            self.stream = Some(stream);
        }
        Ok(response)
    }
}

/// Fetches a debug endpoint (`/stats`, `/metrics`) from the server and
/// returns the response body. Best-effort: any failure yields `None`.
pub fn fetch(addr: SocketAddr, path: &str) -> Option<String> {
    let response = wire::get(addr, path, Duration::from_secs(2)).ok()?;
    Some(response.text())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nl2vis_llm::{ModelProfile, SimLlm};
    use nl2vis_obs::MetricsRegistry;
    use std::sync::Arc;

    #[test]
    fn request_reuses_the_connection_and_times_phases() {
        let registry = Arc::new(MetricsRegistry::new());
        let server = nl2vis_llm::http::CompletionServer::start_with_registry(
            SimLlm::new(ModelProfile::davinci_003(), 1),
            Arc::clone(&registry),
        )
        .unwrap();
        let mut conn = LoadConn::new(server.address(), "text-davinci-003");
        let prompt = "-- Test:\n-- Database:\nDatabase: d\nt = [ a , b ]\nQ: hello\nVQL:";

        let first = conn.request(prompt);
        assert!(matches!(first.outcome, Outcome::Ok), "{:?}", first.outcome);
        assert!(first.connect_us > 0, "fresh request pays a connect");
        assert!(first.serve_us > 0);

        let second = conn.request(prompt);
        assert!(matches!(second.outcome, Outcome::Ok));
        assert_eq!(second.connect_us, 0, "second request rides keep-alive");
        assert_eq!(registry.counter("server.connections_total").get(), 1);

        let stats = fetch(server.address(), "/stats").expect("stats body");
        let json = Json::parse(&stats).unwrap();
        assert_eq!(
            json.get("window_requests").and_then(Json::as_f64),
            Some(2.0)
        );
    }

    /// Reads one HTTP request off a raw socket; false when none arrives.
    fn read_request(reader: &mut BufReader<TcpStream>) -> bool {
        wire::read_message(reader, wire::Kind::Request).is_ok()
    }

    /// The satellite regression: a 429 delivered on a *reused* connection —
    /// even one whose body is truncated by the peer closing right after —
    /// must be counted as a shed, not misclassified down the stale-socket
    /// path and silently re-sent.
    #[test]
    fn truncated_429_on_reused_conn_is_a_shed_not_a_stale_retry() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let requests_seen = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let seen = Arc::clone(&requests_seen);
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut stream = stream;
            // First request: a normal keep-alive 200 so the client parks
            // the socket as reused.
            assert!(read_request(&mut reader));
            seen.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            stream
                .write_all(
                    b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: keep-alive\r\n\r\nok",
                )
                .unwrap();
            // Second request: a shed whose advertised body never fully
            // arrives — the server dies right after the headers.
            assert!(read_request(&mut reader));
            seen.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            stream
                .write_all(b"HTTP/1.1 429 Too Many Requests\r\nContent-Length: 40\r\n\r\nshort")
                .unwrap();
            drop(stream);
            // A buggy client would reconnect and replay the request here;
            // give it a beat, then poll the backlog without hanging.
            std::thread::sleep(Duration::from_millis(200));
            listener.set_nonblocking(true).unwrap();
            if let Ok((stream, _)) = listener.accept() {
                let mut reader = BufReader::new(stream);
                if read_request(&mut reader) {
                    seen.fetch_add(100, std::sync::atomic::Ordering::SeqCst);
                }
            }
        });

        let mut conn = LoadConn::new(addr, "m");
        let first = conn.request("p");
        assert!(matches!(first.outcome, Outcome::Ok), "{:?}", first.outcome);
        let second = conn.request("p");
        assert!(
            matches!(second.outcome, Outcome::Shed),
            "a readable 429 with a truncated body must classify as Shed, got {:?}",
            second.outcome
        );
        server.join().unwrap();
        assert_eq!(
            requests_seen.load(std::sync::atomic::Ordering::SeqCst),
            2,
            "the shed request must not be silently replayed on a fresh connection"
        );
    }

    /// A 200 declaring (and sending) a body past the limit is an error, not
    /// a body cut down to the limit: the cut would leave the rest of it to
    /// be read as the next response on the kept-alive connection.
    #[test]
    fn over_limit_body_is_an_error_not_a_truncation() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut stream = stream;
            assert!(read_request(&mut reader));
            let len = wire::MAX_BODY_BYTES + 1;
            let head = format!(
                "HTTP/1.1 200 OK\r\nContent-Length: {len}\r\nConnection: keep-alive\r\n\r\n"
            );
            // The client may hang up as soon as it sees the header.
            let _ = stream
                .write_all(head.as_bytes())
                .and_then(|()| stream.write_all(&vec![b'x'; len]));
        });
        let mut conn = LoadConn::new(addr, "m");
        let result = conn.request("p");
        match &result.outcome {
            Outcome::Error(message) => assert!(message.contains("limit"), "{message}"),
            other => panic!("an over-limit body must be an error, got {other:?}"),
        }
        server.join().unwrap();
    }
}
