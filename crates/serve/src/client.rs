//! A minimal blocking HTTP/1.1 client for the serve protocol: one
//! persistent keep-alive connection, `Content-Length` bodies only —
//! the exact subset the server speaks. Shared by the integration
//! tests, the CI smoke client (`serveclient`), and examples.
//!
//! [`Client::connect`] keeps the historical single-attempt semantics.
//! [`Client::connect_with`] installs a [`RetryPolicy`]: a per-request
//! timeout, bounded reconnect-and-retry on IO failures, and retry on
//! `429`/`503` honoring `Retry-After` — with jittered exponential
//! backoff between attempts. Retries only fire for requests the caller
//! marks idempotent; [`Client::append_idempotent`] makes appends safe
//! to mark by attaching an `Idempotency-Key` the server deduplicates.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::metrics;

/// Retry/timeout knobs for [`Client::connect_with`].
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts per request, including the first (1 = no retry).
    pub attempts: u32,
    /// Backoff before the first retry; doubles per attempt.
    pub base_backoff: Duration,
    /// Backoff ceiling (also caps an honored `Retry-After`).
    pub max_backoff: Duration,
    /// Connect and per-read timeout for every attempt.
    pub timeout: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 4,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
            timeout: Duration::from_secs(5),
        }
    }
}

impl RetryPolicy {
    /// Single-attempt policy: the pre-retry client behavior.
    pub fn none() -> Self {
        RetryPolicy {
            attempts: 1,
            ..RetryPolicy::default()
        }
    }
}

/// A persistent connection to a serve endpoint.
pub struct Client {
    reader: BufReader<TcpStream>,
    addr: SocketAddr,
    policy: RetryPolicy,
    /// A request that died mid-flight leaves the connection in an
    /// unknown framing state; the next attempt must reconnect.
    dirty: bool,
    /// Backoff-jitter state (xorshift64, seeded from the process's
    /// hash randomness — no clock or RNG dependency).
    jitter: u64,
}

impl Client {
    /// Connect (with a 5s connect/read timeout). No retries: exactly
    /// one attempt per request, IO errors surface to the caller.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        Self::connect_with(addr, RetryPolicy::none())
    }

    /// Connect under a [`RetryPolicy`]. The connect itself gets the
    /// policy's attempt budget and backoff, like every later request.
    pub fn connect_with(addr: impl ToSocketAddrs, policy: RetryPolicy) -> io::Result<Client> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address"))?;
        let mut jitter = RandomState::new().build_hasher().finish() | 1;
        let mut attempt = 0u32;
        let reader = loop {
            attempt += 1;
            match Self::dial(&addr, policy.timeout) {
                Ok(r) => break r,
                Err(e) => {
                    if attempt >= policy.attempts.max(1) {
                        return Err(e);
                    }
                    metrics::serve().client_retries.inc();
                    std::thread::sleep(backoff_for(&policy, attempt, None, &mut jitter));
                }
            }
        };
        Ok(Client {
            reader,
            addr,
            policy,
            dirty: false,
            jitter,
        })
    }

    fn dial(addr: &SocketAddr, timeout: Duration) -> io::Result<BufReader<TcpStream>> {
        let stream = TcpStream::connect_timeout(addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        Ok(BufReader::new(stream))
    }

    /// Issue `GET target`; returns `(status, body)`. GETs are
    /// idempotent, so the retry policy applies.
    pub fn get(&mut self, target: &str) -> io::Result<(u16, String)> {
        self.request_opts("GET", target, None, None, true)
    }

    /// Issue `GET target` for a binary body (`/repl/snapshot` streams
    /// raw bytes, not UTF-8). One attempt, no retries — the caller (the
    /// replicator's bootstrap loop) owns the retry decision.
    pub fn get_bytes(&mut self, target: &str) -> io::Result<(u16, Vec<u8>)> {
        if self.dirty {
            self.reader = Self::dial(&self.addr, self.policy.timeout)?;
        }
        self.dirty = true;
        {
            let stream = self.reader.get_mut();
            write!(stream, "GET {target} HTTP/1.1\r\n\r\n")?;
            stream.flush()?;
        }
        let (status, body, _) = self.read_response_bytes()?;
        self.dirty = false;
        Ok((status, body))
    }

    /// Issue `POST target` with a JSON string body. Never retried — a
    /// bare POST is not idempotent; see [`Client::append_idempotent`]
    /// for the retry-safe write path.
    pub fn post(&mut self, target: &str, body: &str) -> io::Result<(u16, String)> {
        self.request_opts("POST", target, Some(body), None, false)
    }

    /// `POST` a [`Json`] body, parse the JSON response.
    pub fn post_json(&mut self, target: &str, body: &Json) -> io::Result<(u16, Json)> {
        let (status, text) = self.post(target, &body.render())?;
        let parsed = Json::parse(&text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e}: {text}")))?;
        Ok((status, parsed))
    }

    /// `POST /v1/append` carrying an `Idempotency-Key`: the server
    /// applies the batch exactly once per key, which is what makes
    /// retrying a write safe — a retry whose original attempt actually
    /// landed is acked with the original assignment, `deduplicated:
    /// true`, instead of appending twice.
    pub fn append_idempotent(&mut self, body: &Json, key: &str) -> io::Result<(u16, Json)> {
        let rendered = body.render();
        let (status, text) =
            self.request_opts("POST", "/v1/append", Some(&rendered), Some(key), true)?;
        let parsed = Json::parse(&text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e}: {text}")))?;
        Ok((status, parsed))
    }

    /// One request/response cycle on the persistent connection, no
    /// retries (the historical behavior, kept for callers that do
    /// their own error handling).
    pub fn request(
        &mut self,
        method: &str,
        target: &str,
        body: Option<&str>,
    ) -> io::Result<(u16, String)> {
        self.request_opts(method, target, body, None, false)
    }

    /// The full request path: attempt, classify, back off, retry.
    ///
    /// Retries fire only when `idempotent` — on IO errors (connection
    /// reset, timeout; the next attempt reconnects) and on `429`/`503`
    /// (honoring `Retry-After` up to the backoff ceiling). Everything
    /// else, including 4xx and 5xx like `corrupt_index`, returns
    /// immediately: those answers won't improve by asking again.
    fn request_opts(
        &mut self,
        method: &str,
        target: &str,
        body: Option<&str>,
        idempotency_key: Option<&str>,
        idempotent: bool,
    ) -> io::Result<(u16, String)> {
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let outcome = self.try_request(method, target, body, idempotency_key);
            let (retryable, retry_after) = match &outcome {
                Err(_) => (true, None),
                Ok((429 | 503, _, retry_after)) => (true, *retry_after),
                Ok(_) => (false, None),
            };
            if !retryable || !idempotent || attempt >= self.policy.attempts.max(1) {
                return outcome.map(|(status, text, _)| (status, text));
            }
            metrics::serve().client_retries.inc();
            std::thread::sleep(backoff_for(
                &self.policy,
                attempt,
                retry_after,
                &mut self.jitter,
            ));
        }
    }

    fn try_request(
        &mut self,
        method: &str,
        target: &str,
        body: Option<&str>,
        idempotency_key: Option<&str>,
    ) -> io::Result<(u16, String, Option<u64>)> {
        if self.dirty {
            self.reader = Self::dial(&self.addr, self.policy.timeout)?;
        }
        // Dirty until a complete response comes back: a failure
        // anywhere in between leaves unknown bytes in flight, so the
        // next attempt starts from a fresh connection.
        self.dirty = true;
        {
            let stream = self.reader.get_mut();
            let key_header = match idempotency_key {
                Some(k) => format!("Idempotency-Key: {k}\r\n"),
                None => String::new(),
            };
            match body {
                Some(b) => write!(
                    stream,
                    "{method} {target} HTTP/1.1\r\nContent-Type: application/json\r\n\
                     {key_header}Content-Length: {}\r\n\r\n{b}",
                    b.len()
                )?,
                None => write!(stream, "{method} {target} HTTP/1.1\r\n{key_header}\r\n")?,
            }
            stream.flush()?;
        }
        let resp = self.read_response_full()?;
        self.dirty = false;
        Ok(resp)
    }

    /// Send raw bytes down the connection (tests exercising truncated
    /// or malformed requests).
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        let stream = self.reader.get_mut();
        stream.write_all(bytes)?;
        stream.flush()
    }

    /// Read one response off the connection.
    pub fn read_response(&mut self) -> io::Result<(u16, String)> {
        self.read_response_full()
            .map(|(status, text, _)| (status, text))
    }

    /// [`Client::read_response`] plus the parsed `Retry-After` header
    /// (seconds), which the retry loop honors on 429/503.
    fn read_response_full(&mut self) -> io::Result<(u16, String, Option<u64>)> {
        let (status, body, retry_after) = self.read_response_bytes()?;
        String::from_utf8(body)
            .map(|text| (status, text, retry_after))
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 body"))
    }

    /// Read one response off the connection as raw bytes.
    fn read_response_bytes(&mut self) -> io::Result<(u16, Vec<u8>, Option<u64>)> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before status line",
            ));
        }
        let status: u16 = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad status line {line:?}"),
                )
            })?;
        let mut content_length = 0usize;
        let mut retry_after = None;
        loop {
            let mut header = String::new();
            if self.reader.read_line(&mut header)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-headers",
                ));
            }
            let header = header.trim_end_matches(['\r', '\n']);
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().map_err(|_| {
                        io::Error::new(io::ErrorKind::InvalidData, "bad content-length")
                    })?;
                } else if name.eq_ignore_ascii_case("retry-after") {
                    retry_after = value.trim().parse::<u64>().ok();
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        Ok((status, body, retry_after))
    }
}

/// Consecutive failures that open an endpoint's circuit breaker.
const CIRCUIT_THRESHOLD: u32 = 3;

/// How long an open breaker keeps an endpoint out of rotation before
/// one trial request is let through again (half-open).
const CIRCUIT_COOLDOWN: Duration = Duration::from_secs(1);

/// One endpoint of a [`FailoverClient`]: a lazily-dialed connection
/// plus its circuit-breaker state.
struct Endpoint {
    addr: String,
    client: Option<Client>,
    /// Consecutive failures; the breaker opens at [`CIRCUIT_THRESHOLD`].
    failures: u32,
    /// While in the future, the breaker is open and rotation skips
    /// this endpoint.
    open_until: Option<Instant>,
}

impl Endpoint {
    fn new(addr: &str) -> Endpoint {
        Endpoint {
            addr: addr.to_string(),
            client: None,
            failures: 0,
            open_until: None,
        }
    }

    fn available(&self) -> bool {
        match self.open_until {
            Some(until) => Instant::now() >= until,
            None => true,
        }
    }
}

/// A client over a **replicated deployment**: one primary plus any
/// number of followers.
///
/// * **Reads** round-robin across every endpoint — followers serve
///   queries — skipping endpoints whose circuit breaker is open. A
///   failed endpoint takes [`CIRCUIT_THRESHOLD`] consecutive errors,
///   then sits out [`CIRCUIT_COOLDOWN`] before one half-open trial.
/// * **Writes** go to the current primary hint. A `421 Misdirected
///   Request` answer carries the real primary's location; the client
///   re-routes and retries **at most once** per call — two 421s in a
///   row (no primary anywhere) surface to the caller. A dead primary
///   rotates the hint to the next endpoint, which after a promotion is
///   exactly where writes should land.
///
/// Each underlying connection runs single-attempt ([`RetryPolicy`]
/// `attempts: 1`): failover to the *next endpoint* is this client's
/// retry, so per-connection retry loops would only multiply latency.
pub struct FailoverClient {
    endpoints: Vec<Endpoint>,
    policy: RetryPolicy,
    /// Round-robin cursor for reads.
    cursor: usize,
    /// Index of the endpoint writes currently target.
    primary: usize,
}

impl FailoverClient {
    /// Assemble a client over `endpoints` (`host:port` each; the first
    /// is the initial primary hint). No connection is made until the
    /// first request. Errors on an empty list.
    pub fn new(endpoints: &[&str], policy: RetryPolicy) -> io::Result<FailoverClient> {
        if endpoints.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "FailoverClient needs at least one endpoint",
            ));
        }
        Ok(FailoverClient {
            endpoints: endpoints.iter().map(|a| Endpoint::new(a)).collect(),
            policy,
            cursor: 0,
            primary: 0,
        })
    }

    /// The endpoint index writes currently target.
    pub fn primary_index(&self) -> usize {
        self.primary
    }

    fn dial(&mut self, i: usize) -> io::Result<&mut Client> {
        let single = RetryPolicy {
            attempts: 1,
            ..self.policy.clone()
        };
        let ep = &mut self.endpoints[i];
        if ep.client.is_none() {
            ep.client = Some(Client::connect_with(&*ep.addr, single)?);
        }
        Ok(ep.client.as_mut().expect("just connected"))
    }

    fn mark_ok(&mut self, i: usize) {
        let ep = &mut self.endpoints[i];
        ep.failures = 0;
        ep.open_until = None;
    }

    fn mark_failed(&mut self, i: usize) {
        let ep = &mut self.endpoints[i];
        ep.client = None;
        ep.failures += 1;
        if ep.failures >= CIRCUIT_THRESHOLD {
            ep.open_until = Some(Instant::now() + CIRCUIT_COOLDOWN);
        }
    }

    /// Index of `addr` in the endpoint list, adding it if a 421
    /// redirect names a primary this client wasn't configured with.
    fn endpoint_index(&mut self, addr: &str) -> usize {
        match self.endpoints.iter().position(|e| e.addr == addr) {
            Some(i) => i,
            None => {
                self.endpoints.push(Endpoint::new(addr));
                self.endpoints.len() - 1
            }
        }
    }

    /// `GET target`, load-balanced across live endpoints. Tries each
    /// closed-breaker endpoint once; if every breaker is open, tries
    /// them all anyway (half-open on demand) rather than failing a
    /// read the deployment could still serve.
    pub fn get(&mut self, target: &str) -> io::Result<(u16, String)> {
        let n = self.endpoints.len();
        let any_available = self.endpoints.iter().any(Endpoint::available);
        let mut last_err: Option<io::Error> = None;
        for k in 0..n {
            let i = (self.cursor + k) % n;
            if any_available && !self.endpoints[i].available() {
                continue;
            }
            match self.dial(i).and_then(|c| c.get(target)) {
                Ok(resp) => {
                    self.mark_ok(i);
                    self.cursor = (i + 1) % n;
                    return Ok(resp);
                }
                Err(e) => {
                    self.mark_failed(i);
                    metrics::serve().client_retries.inc();
                    last_err = Some(e);
                }
            }
        }
        Err(last_err.unwrap_or_else(|| io::Error::other("no endpoint answered")))
    }

    /// `POST /v1/append` with an `Idempotency-Key`, routed to the
    /// primary. Follows one 421 redirect; rotates the hint past dead
    /// endpoints (trying each at most once) so a promoted follower is
    /// found without operator help.
    pub fn append_idempotent(&mut self, body: &Json, key: &str) -> io::Result<(u16, Json)> {
        let n = self.endpoints.len();
        let mut redirects = 0u32;
        let mut attempts = 0usize;
        let mut last_err: Option<io::Error> = None;
        while attempts <= n {
            let i = self.primary;
            match self.dial(i).and_then(|c| c.append_idempotent(body, key)) {
                Ok((421, resp)) => {
                    // The endpoint is alive — just not the primary.
                    self.mark_ok(i);
                    let named = resp.get("primary").and_then(Json::as_str).map(String::from);
                    match named {
                        Some(addr) if redirects == 0 => {
                            redirects = 1;
                            self.primary = self.endpoint_index(&addr);
                            attempts += 1;
                        }
                        // Second 421, or a 421 that names no primary:
                        // the caller decides, this client won't loop.
                        _ => return Ok((421, resp)),
                    }
                }
                Ok(resp) => {
                    self.mark_ok(i);
                    return Ok(resp);
                }
                Err(e) => {
                    self.mark_failed(i);
                    metrics::serve().client_retries.inc();
                    self.primary = (i + 1) % self.endpoints.len();
                    last_err = Some(e);
                    attempts += 1;
                }
            }
        }
        Err(last_err.unwrap_or_else(|| io::Error::other("no endpoint accepted the write")))
    }
}

/// Backoff before retry `attempt` (1-based): exponential from the
/// policy base, capped at the ceiling, stretched to an honored
/// `Retry-After`, then jittered into `[wait/2, wait]` so a thundering
/// herd of clients doesn't re-arrive in lockstep.
fn backoff_for(
    policy: &RetryPolicy,
    attempt: u32,
    retry_after_secs: Option<u64>,
    jitter: &mut u64,
) -> Duration {
    let exp = policy
        .base_backoff
        .saturating_mul(1u32 << (attempt - 1).min(16));
    let mut wait = exp.min(policy.max_backoff);
    if let Some(secs) = retry_after_secs {
        wait = wait.max(Duration::from_secs(secs).min(policy.max_backoff));
    }
    *jitter ^= *jitter << 13;
    *jitter ^= *jitter >> 7;
    *jitter ^= *jitter << 17;
    let nanos = u64::try_from(wait.as_nanos()).unwrap_or(u64::MAX);
    Duration::from_nanos(nanos / 2 + *jitter % (nanos / 2 + 1))
}
