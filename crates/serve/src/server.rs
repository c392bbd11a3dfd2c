//! The TCP front end: bounded accept queue, thread-per-core workers,
//! keep-alive connection loops, load shedding, deadlines, graceful
//! drain.
//!
//! # Threading model
//!
//! One accept thread (the caller of [`Server::run`]) pushes accepted
//! connections into a **bounded** [`mpsc::sync_channel`]; `workers`
//! scoped threads pull from it and own one connection at a time through
//! its keep-alive lifetime. When the queue is full the accept thread
//! does not block — the connection is **shed** with a `429` +
//! `Retry-After` so overload degrades into fast, explicit refusals
//! instead of unbounded queueing.
//!
//! Thread budget: the worker count, resolved **once at bind time**
//! ([`ServeConfig::resolve`]), is all of it. A query runs start to
//! finish on the worker that read it — the sharded corpus creates no
//! thread on a query path — so the server's parallelism is across
//! requests and `workers` is the only thread knob.
//!
//! # Drain
//!
//! [`ServerHandle::shutdown`] (or `POST /admin/shutdown`) flips the
//! drain flag and nudges the accept loop awake with a loopback connect.
//! The accept thread closes the listener immediately — new connects are
//! refused — while workers finish every request already read or
//! buffered, answer with `Connection: close`, and exit. [`Server::run`]
//! returns only after the last worker has.
//!
//! # Deadlines
//!
//! Per-request deadlines are checked before query execution and between
//! batch items (a `503 deadline_exceeded` with `Retry-After`), and a
//! peer that stalls mid-request for a full idle tick is dropped with
//! `408`. A deadline cannot interrupt a single backward search already
//! in progress — searches are microseconds, orders of magnitude below
//! any sane deadline, so cooperative checks are the whole mechanism.

use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use std::{io, thread};

use cinct::{QueryError, ShardedCinct, Wal, WalRead, WalRecord};

use crate::cache::{CacheOp, CachedValue};
use crate::http::{self, Limits, NextRequest, Request, Response};
use crate::json::{self, obj, obj_move, Json};
use crate::metrics;
use crate::service::CorpusService;

/// How long an idle keep-alive connection blocks in a read before the
/// worker re-checks the drain flag; also the stall budget for a peer
/// that paused mid-request. Bounds drain latency for idle connections.
const IDLE_TICK: Duration = Duration::from_millis(500);

/// Deadline re-check stride inside batched requests.
const BATCH_DEADLINE_STRIDE: usize = 32;

/// Ceiling on how long `/repl/wal` blocks waiting for the tip to move
/// before answering empty (the follower just polls again). Bounded so
/// a drain is never held hostage by an idle long-poll.
const REPL_POLL_MAX: Duration = Duration::from_secs(10);

/// Records per `/repl/wal` response. Bounds response memory on a badly
/// lagged follower; the next pull continues from `next`.
const REPL_BATCH_MAX: usize = 1024;

/// Server knobs. `0` means "auto" on every thread-shaped knob, the
/// workspace-wide convention.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads (0 = one per host hardware thread).
    pub workers: usize,
    /// Accepted connections that may wait for a worker before new ones
    /// are shed with 429.
    pub queue_depth: usize,
    /// Per-request execution deadline.
    pub deadline: Duration,
    /// Hot-pattern cache entries (0 disables the cache).
    pub cache_capacity: usize,
    /// Cache lock shards.
    pub cache_shards: usize,
    /// Request body cap in bytes (413 beyond).
    pub max_body_bytes: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 0,
            queue_depth: 128,
            deadline: Duration::from_secs(2),
            cache_capacity: 4096,
            cache_shards: 8,
            max_body_bytes: 1 << 20,
        }
    }
}

/// The knobs after resolution — fixed for the server's lifetime.
#[derive(Debug, Clone)]
pub struct ResolvedConfig {
    /// Worker threads in the pool (≥ 1).
    pub workers: usize,
    /// Host hardware threads observed at resolution.
    pub host_parallelism: usize,
    /// Accept-queue depth.
    pub queue_depth: usize,
    /// Per-request deadline.
    pub deadline: Duration,
    /// Cache entries.
    pub cache_capacity: usize,
    /// Cache lock shards.
    pub cache_shards: usize,
    /// HTTP parser limits.
    pub limits: Limits,
}

impl ServeConfig {
    /// Resolve the knobs **once**: `workers` 0 becomes the host's
    /// hardware threads, an explicit count is taken literally (more
    /// workers than hardware threads is a legitimate choice for
    /// latency-hiding), and the floors (`queue_depth`, `cache_shards`
    /// ≥ 1) are applied.
    pub fn resolve(&self) -> ResolvedConfig {
        ResolvedConfig {
            workers: rayon::resolve_threads(self.workers),
            host_parallelism: rayon::current_num_threads(),
            queue_depth: self.queue_depth.max(1),
            deadline: self.deadline,
            cache_capacity: self.cache_capacity,
            cache_shards: self.cache_shards.max(1),
            limits: Limits {
                max_body_bytes: self.max_body_bytes,
                ..Limits::default()
            },
        }
    }
}

struct ServerState {
    service: CorpusService,
    cfg: ResolvedConfig,
    addr: SocketAddr,
    draining: AtomicBool,
    /// The replication role: `Some(addr)` while this node is a
    /// read-only follower of the primary at `addr` (appends answer 421
    /// with `addr` verbatim, so clients can re-route themselves),
    /// `None` while it is a primary that accepts writes.
    primary: Mutex<Option<String>>,
}

impl ServerState {
    fn draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    fn primary(&self) -> MutexGuard<'_, Option<String>> {
        self.primary.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Follower → primary. Idempotent; returns whether a flip happened.
    fn promote(&self) -> bool {
        if self.primary().take().is_none() {
            return false;
        }
        let m = metrics::serve();
        m.repl_role.set(0);
        m.repl_promotions.inc();
        true
    }

    /// Flip the drain flag and wake the accept loop (idempotent).
    fn begin_drain(&self) {
        if !self.draining.swap(true, Ordering::AcqRel) {
            metrics::serve().draining.set(1);
            // Nudge the accept thread out of its blocking accept; the
            // dummy connection is closed immediately on either end.
            let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        }
    }
}

/// A bound-but-not-yet-running server. [`Server::run`] consumes it and
/// blocks until drained; clone a [`ServerHandle`] first for shutdown
/// and introspection from other threads.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

/// A cheap cloneable handle onto a running (or bound) server.
#[derive(Clone)]
pub struct ServerHandle {
    state: Arc<ServerState>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// Begin graceful drain: refuse new connections, finish in-flight
    /// requests, make [`Server::run`] return. Idempotent, non-blocking.
    pub fn shutdown(&self) {
        self.state.begin_drain();
    }

    /// Whether drain has begun.
    pub fn is_draining(&self) -> bool {
        self.state.draining()
    }

    /// The resolved (post-`resolve`) configuration.
    pub fn config(&self) -> &ResolvedConfig {
        &self.state.cfg
    }

    /// The underlying service — the seam identity tests and the CLI's
    /// save-on-drain use to reach the live corpus.
    pub fn service(&self) -> &CorpusService {
        &self.state.service
    }

    /// Mark this server a read-only **follower** of `primary` (a
    /// `host:port`): from the next request on, `/v1/append` answers
    /// `421 Misdirected Request` with the primary's location in the
    /// body. Called by `cinct serve --replica-of` before traffic, and
    /// reversible with [`ServerHandle::promote`].
    pub fn set_replica_of(&self, primary: &str) {
        *self.state.primary() = Some(primary.to_string());
        metrics::serve().repl_role.set(1);
    }

    /// Promote a follower to primary: writes are accepted from the
    /// next request on (also reachable as `POST /admin/promote`).
    /// Idempotent; returns whether a flip actually happened.
    pub fn promote(&self) -> bool {
        self.state.promote()
    }

    /// Whether this server is currently a read-only follower.
    pub fn is_follower(&self) -> bool {
        self.state.primary().is_some()
    }
}

impl Server {
    /// Bind a listener and assemble the serving state. The corpus is
    /// served as given: binding does not alter its configuration.
    pub fn bind(
        addr: impl ToSocketAddrs,
        corpus: ShardedCinct,
        cfg: ServeConfig,
    ) -> io::Result<Server> {
        Self::bind_inner(addr, corpus, cfg, None)
    }

    /// [`Server::bind`] with a write-ahead log: `replay` (recovered by
    /// [`Wal::open`]) is re-applied to the corpus before the listener
    /// accepts anything, and every `/v1/append` is then journaled +
    /// fsynced before it is acked. A replay failure aborts the bind —
    /// serving a corpus that silently dropped acked writes is worse
    /// than not starting.
    pub fn bind_durable(
        addr: impl ToSocketAddrs,
        corpus: ShardedCinct,
        cfg: ServeConfig,
        wal: Wal,
        replay: Vec<WalRecord>,
    ) -> io::Result<Server> {
        Self::bind_inner(addr, corpus, cfg, Some((wal, replay)))
    }

    fn bind_inner(
        addr: impl ToSocketAddrs,
        corpus: ShardedCinct,
        cfg: ServeConfig,
        durable: Option<(Wal, Vec<WalRecord>)>,
    ) -> io::Result<Server> {
        let resolved = cfg.resolve();
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        metrics::register_all();
        let m = metrics::serve();
        m.workers.set(resolved.workers as u64);
        m.draining.set(0);
        let service = match durable {
            Some((wal, replay)) => CorpusService::new_durable(
                corpus,
                resolved.cache_capacity,
                resolved.cache_shards,
                wal,
                replay,
            )
            .map_err(|e| io::Error::other(format!("WAL replay failed: {e}")))?,
            None => CorpusService::new(corpus, resolved.cache_capacity, resolved.cache_shards),
        };
        Ok(Server {
            listener,
            state: Arc::new(ServerState {
                service,
                cfg: resolved,
                addr,
                draining: AtomicBool::new(false),
                primary: Mutex::new(None),
            }),
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// A handle for shutdown/introspection from other threads.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            state: Arc::clone(&self.state),
        }
    }

    /// Serve until drained: accept, queue, shed, dispatch. Blocks the
    /// calling thread (it becomes the accept loop). Returns after
    /// [`ServerHandle::shutdown`] once every worker has finished its
    /// in-flight work.
    pub fn run(self) -> io::Result<()> {
        let Server { listener, state } = self;
        let (tx, rx) = mpsc::sync_channel::<TcpStream>(state.cfg.queue_depth);
        let rx = Mutex::new(rx);
        thread::scope(|s| {
            let state_ref = &*state;
            let rx_ref = &rx;
            for _ in 0..state.cfg.workers {
                s.spawn(move || worker_loop(state_ref, rx_ref));
            }
            for conn in listener.incoming() {
                if state.draining() {
                    break;
                }
                match conn {
                    Ok(c) => match tx.try_send(c) {
                        Ok(()) => {}
                        Err(TrySendError::Full(c)) => shed(c),
                        Err(TrySendError::Disconnected(_)) => break,
                    },
                    // Transient accept failure (e.g. fd pressure):
                    // back off instead of spinning.
                    Err(_) => thread::sleep(Duration::from_millis(10)),
                }
            }
            // Refuse new connections *now*; workers drain what was
            // already accepted, then see the channel close and exit.
            drop(listener);
            drop(tx);
        });
        Ok(())
    }
}

/// Refuse an over-queue connection with an explicit 429.
fn shed(conn: TcpStream) {
    metrics::serve().shed.inc();
    let mut resp = Response::error(429, "overloaded", "accept queue full; retry after backoff");
    resp.keep_alive = false;
    resp.retry_after_secs = Some(1);
    let mut conn = conn;
    let _ = resp.write_to(&mut conn);
}

fn worker_loop(state: &ServerState, rx: &Mutex<Receiver<TcpStream>>) {
    loop {
        // Hold the receiver lock only for the dequeue itself.
        let conn = {
            let rx = rx.lock().unwrap_or_else(|e| e.into_inner());
            rx.recv()
        };
        let Ok(conn) = conn else { return }; // channel closed: drain done
        metrics::serve().connections.inc();
        let _ = handle_connection(state, conn);
    }
}

fn handle_connection(state: &ServerState, conn: TcpStream) -> io::Result<()> {
    conn.set_nodelay(true).ok();
    conn.set_read_timeout(Some(IDLE_TICK)).ok();
    let mut reader = BufReader::new(conn.try_clone()?);
    let mut writer = BufWriter::new(conn);
    loop {
        match http::read_request(&mut reader, &state.cfg.limits) {
            Ok(NextRequest::Closed) => return Ok(()),
            Ok(NextRequest::Idle) => {
                if state.draining() {
                    return Ok(()); // idle connection; nothing in flight
                }
            }
            Ok(NextRequest::Request(req)) => {
                let m = metrics::serve();
                m.requests.inc();
                m.inflight.inc();
                let started = Instant::now();
                let mut resp = dispatch(state, &req, started);
                m.request_ns
                    .record(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
                m.inflight.dec();
                if resp.status >= 400 {
                    m.errors.inc();
                }
                // Drain overrides keep-alive: the response completes
                // (in-flight work finishes) but the connection closes.
                resp.keep_alive = resp.keep_alive && req.keep_alive && !state.draining();
                let keep = resp.keep_alive;
                resp.write_to(&mut writer)?;
                if !keep {
                    return Ok(());
                }
            }
            Err(http::HttpError::Io(e)) => return Err(e),
            Err(e) => {
                metrics::serve().errors.inc();
                let _ = e.into_response().write_to(&mut writer);
                return Ok(());
            }
        }
    }
}

// ---------------------------------------------------------------------
// Request dispatch
// ---------------------------------------------------------------------

fn dispatch(state: &ServerState, req: &Request, started: Instant) -> Response {
    const API: [&str; 5] = [
        "/v1/count",
        "/v1/locate",
        "/v1/occurrences",
        "/v1/extract",
        "/v1/append",
    ];
    // The target may carry a query string (`/repl/wal?from=3`): route
    // on the path, hand the query to the handler.
    let (path, query) = match req.target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (req.target.as_str(), ""),
    };
    match (req.method.as_str(), path) {
        ("GET", "/healthz") => healthz_response(state),
        ("GET", "/metrics") => {
            metrics::register_all();
            Response::text(200, &cinct_obs::global().render_prometheus())
        }
        ("GET", "/v1/stats") => stats_response(state),
        ("GET", "/repl/snapshot") => repl_snapshot(state),
        ("GET", "/repl/wal") => repl_wal(state, query),
        ("POST", "/admin/shutdown") => {
            state.begin_drain();
            Response::json(200, &obj(&[("draining", true.into())]))
        }
        ("POST", "/admin/promote") => {
            let promoted = state.promote();
            Response::json(
                200,
                &obj(&[("role", "primary".into()), ("promoted", promoted.into())]),
            )
        }
        ("POST", p) if API.contains(&p) => handle_api(state, p, req, started),
        (_, p)
            if API.contains(&p)
                || matches!(
                    p,
                    "/healthz"
                        | "/metrics"
                        | "/v1/stats"
                        | "/admin/shutdown"
                        | "/admin/promote"
                        | "/repl/snapshot"
                        | "/repl/wal"
                ) =>
        {
            Response::error(
                405,
                "method_not_allowed",
                &format!("{} does not accept {}", p, req.method),
            )
        }
        (_, p) => Response::error(404, "not_found", &format!("no route for {p}")),
    }
}

/// Health is JSON, but `status` keeps the one-word most-degraded-wins
/// taxonomy: a draining server is about to disappear (stop routing to
/// it), a degraded one serves with shards quarantined, `ok` means the
/// whole corpus is live. Always 200 — every state still answers
/// queries, and probes distinguish by body, not status. The rest of
/// the body is what an operator routes on: role, WAL position,
/// follower count, replication lag.
fn healthz_response(state: &ServerState) -> Response {
    let status = if state.draining() {
        "draining"
    } else if state.service.degraded() {
        "degraded"
    } else {
        "ok"
    };
    let primary = state.primary().clone();
    let role = role_name(primary.is_some());
    let s = state.service.stats();
    let m = metrics::serve();
    let mut repl = vec![
        ("followers", s.followers.into()),
        ("lag_records", m.repl_lag_records.get().into()),
    ];
    if let Some(p) = primary {
        repl.push(("primary", p.into()));
    }
    Response::json(
        200,
        &obj_move(vec![
            ("status", status.into()),
            ("role", role.into()),
            (
                "wal",
                obj(&[
                    ("enabled", s.wal_enabled.into()),
                    ("pending", s.wal_pending.into()),
                    ("last_seq", s.wal_next_seq.saturating_sub(1).into()),
                    ("next_seq", s.wal_next_seq.into()),
                ]),
            ),
            ("replication", obj_move(repl)),
        ]),
    )
}

/// Value of `name` in an `a=1&b=2` query string. No percent-decoding —
/// the replication protocol uses plain tokens only.
fn query_param<'q>(query: &'q str, name: &str) -> Option<&'q str> {
    query.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=')?;
        (k == name).then_some(v)
    })
}

/// `GET /repl/snapshot`: a consistent corpus snapshot plus the WAL
/// position it absorbs, for a bootstrapping follower.
fn repl_snapshot(state: &ServerState) -> Response {
    match state.service.snapshot_stream() {
        Ok(bytes) => Response {
            status: 200,
            content_type: "application/octet-stream",
            body: bytes,
            keep_alive: true,
            retry_after_secs: None,
        },
        Err(e) => query_error_response(&e),
    }
}

/// `GET /repl/wal?from=N[&follower=id][&wait_ms=T]`: the shipping half
/// of replication. Registers the follower's position (the reclaim
/// floor), long-polls until the tip passes `from` (bounded by
/// [`REPL_POLL_MAX`]), then answers with the retained records from
/// `from` — or `wal_compacted` when that history was reclaimed and the
/// follower must bootstrap from a snapshot instead.
fn repl_wal(state: &ServerState, query: &str) -> Response {
    let Some(from) = query_param(query, "from").and_then(|v| v.parse::<u64>().ok()) else {
        return Response::error(
            400,
            "invalid_input",
            "repl/wal needs a numeric \"from\" query parameter",
        );
    };
    let svc = &state.service;
    if svc.wal_next_seq().is_none() {
        return Response::error(
            422,
            "replication_unsupported",
            "this server has no WAL to replicate (serve a saved directory)",
        );
    }
    if let Some(id) = query_param(query, "follower") {
        svc.register_follower(id, from);
    }
    let wait_ms = query_param(query, "wait_ms")
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(0);
    // A draining server answers immediately so the follower notices
    // and can fail over instead of blocking on a corpse.
    if wait_ms > 0 && !state.draining() {
        let wait = Duration::from_millis(wait_ms).min(REPL_POLL_MAX);
        svc.wait_for_tip(from, wait);
    }
    match svc.wal_read_from(from) {
        Ok(WalRead::Compacted { oldest }) => Response::json(
            200,
            &obj(&[("wal_compacted", true.into()), ("oldest", oldest.into())]),
        ),
        Ok(WalRead::Records(mut records)) => {
            records.truncate(REPL_BATCH_MAX);
            let next = records.last().map_or(from, |r| r.seq + 1);
            if !records.is_empty() {
                metrics::serve()
                    .repl_records_shipped
                    .add(records.len() as u64);
            }
            Response::json(
                200,
                &obj_move(vec![
                    (
                        "records",
                        Json::Arr(records.into_iter().map(wal_record_json).collect()),
                    ),
                    ("next", next.into()),
                    ("primary_seq", svc.wal_next_seq().unwrap_or(0).into()),
                ]),
            )
        }
        Err(e) => query_error_response(&e),
    }
}

fn wal_record_json(r: WalRecord) -> Json {
    obj_move(vec![
        ("seq", r.seq.into()),
        ("key", r.key.into()),
        (
            "batch",
            Json::Arr(r.batch.into_iter().map(Json::from).collect()),
        ),
    ])
}

/// The `role` a node reports.
fn role_name(follower: bool) -> &'static str {
    if follower {
        "follower"
    } else {
        "primary"
    }
}

/// The follower's answer to a write: `421 Misdirected Request` with
/// the primary's location in the body, so a client can re-route.
fn misdirected(primary: String) -> Response {
    Response::json(
        421,
        &obj(&[
            (
                "error",
                obj(&[
                    ("kind", "not_primary".into()),
                    (
                        "message",
                        "this node is a read-only follower; send writes to the primary".into(),
                    ),
                    ("status", 421usize.into()),
                ]),
            ),
            ("primary", primary.into()),
        ]),
    )
}

/// The quarantine report, serialized once per degraded response.
fn quarantine_json(svc: &CorpusService) -> Json {
    Json::Arr(
        svc.quarantined()
            .iter()
            .map(|q| {
                obj(&[
                    ("slot", q.slot.into()),
                    ("file", q.file.as_str().into()),
                    ("trajectories", q.trajectories.into()),
                    ("reason", q.reason.as_str().into()),
                ])
            })
            .collect(),
    )
}

/// Append `degraded: true` + the quarantine report to a response body
/// when (and only when) the corpus is degraded — healthy responses stay
/// byte-identical to what they were before resilient opening existed.
fn push_degraded_fields(svc: &CorpusService, fields: &mut Vec<(&'static str, Json)>) {
    if svc.degraded() {
        fields.push(("degraded", true.into()));
        fields.push(("quarantined", quarantine_json(svc)));
    }
}

fn stats_response(state: &ServerState) -> Response {
    let s = state.service.stats();
    let cfg = &state.cfg;
    let mut fields = vec![
        ("kind", "sharded".into()),
        ("shards", s.shards.into()),
        ("trajectories", s.trajectories.into()),
        ("indexed_symbols", s.indexed_symbols.into()),
        ("network_edges", s.network_edges.into()),
        ("locate_supported", s.locate_supported.into()),
        ("index_bytes", s.index_bytes.into()),
        ("epoch", s.epoch.into()),
        (
            "cache",
            obj(&[
                ("entries", s.cache_entries.into()),
                ("capacity", s.cache_capacity.into()),
            ]),
        ),
        (
            "wal",
            obj(&[
                ("enabled", s.wal_enabled.into()),
                ("pending", s.wal_pending.into()),
                ("next_seq", s.wal_next_seq.into()),
            ]),
        ),
        ("role", role_name(state.primary().is_some()).into()),
        ("followers", s.followers.into()),
        ("workers", cfg.workers.into()),
        ("host_parallelism", cfg.host_parallelism.into()),
        ("draining", state.draining().into()),
    ];
    push_degraded_fields(&state.service, &mut fields);
    Response::json(200, &obj_move(fields))
}

fn handle_api(state: &ServerState, target: &str, req: &Request, started: Instant) -> Response {
    let text = match std::str::from_utf8(&req.body) {
        Ok(t) => t,
        Err(_) => return Response::error(400, "malformed_json", "request body is not valid UTF-8"),
    };
    // Query endpoints go through a strict single-scan parser for the
    // dominant body shape; anything it can't prove identical falls back
    // to the generic `Json` tree, which owns the error taxonomy.
    let result = match target {
        "/v1/count" | "/v1/locate" | "/v1/occurrences" => match parse_query(text) {
            Err(resp) => Ok(resp),
            Ok(query) => match deadline_check(state, started) {
                Some(resp) => Ok(resp),
                None => {
                    let op = if target == "/v1/count" {
                        CacheOp::Count
                    } else {
                        CacheOp::Occurrences
                    };
                    handle_query(state, op, query, started)
                }
            },
        },
        "/v1/extract" | "/v1/append" => {
            let body = match Json::parse(text) {
                Ok(b) => b,
                Err(e) => return Response::error(400, "malformed_json", &e),
            };
            if let Some(resp) = deadline_check(state, started) {
                return resp;
            }
            if target == "/v1/extract" {
                handle_extract(state, &body)
            } else {
                handle_append(state, req, &body)
            }
        }
        _ => unreachable!("routed above"),
    };
    match result {
        Ok(resp) => resp,
        Err(e) => query_error_response(&e),
    }
}

/// Parse a count/locate/occurrences body into `(paths, cache, limit)`,
/// taking the zero-tree fast path when the body matches the dominant
/// shape exactly and the generic parser otherwise.
fn parse_query(text: &str) -> Result<(PathSpec, bool, Option<usize>), Response> {
    if let Some(fq) = json::parse_fast_query(text) {
        let spec = if let Some(p) = fq.path {
            PathSpec::One(p)
        } else if let Some(ps) = fq.paths {
            PathSpec::Many(ps)
        } else {
            return Err(Response::error(
                400,
                "invalid_input",
                "body needs a \"path\" or \"paths\" member",
            ));
        };
        return Ok((spec, fq.cache.unwrap_or(true), fq.limit));
    }
    let body = Json::parse(text).map_err(|e| Response::error(400, "malformed_json", &e))?;
    let spec = parse_path_spec(&body)?;
    Ok((
        spec,
        use_cache(&body),
        body.get("limit").and_then(Json::as_usize),
    ))
}

/// `503 deadline_exceeded` once the request's execution budget is gone.
fn deadline_check(state: &ServerState, started: Instant) -> Option<Response> {
    if started.elapsed() < state.cfg.deadline {
        return None;
    }
    metrics::serve().deadline_exceeded.inc();
    let mut resp = Response::error(
        503,
        "deadline_exceeded",
        "request exceeded the server's execution deadline",
    );
    resp.retry_after_secs = Some(1);
    Some(resp)
}

/// Map the core error taxonomy onto HTTP statuses. Client faults are
/// 4xx, index/transport faults 5xx; an *absent path* is never an error
/// at any layer — it shows up here as a zero count or an empty list.
fn query_error_response(e: &QueryError) -> Response {
    let (status, kind) = match e {
        QueryError::EmptyPattern => (400, "empty_pattern"),
        QueryError::UnknownEdge { .. } => (400, "unknown_edge"),
        QueryError::InvalidInput(_) => (400, "invalid_input"),
        QueryError::LocateUnsupported => (422, "locate_unsupported"),
        QueryError::CorruptIndex(_) => (500, "corrupt_index"),
        QueryError::Io(_) => (500, "io"),
        _ => (500, "internal"),
    };
    Response::error(status, kind, &e.to_string())
}

fn parse_path(v: &Json) -> Result<Vec<u32>, Response> {
    let items = v.as_arr().ok_or_else(|| {
        Response::error(400, "invalid_input", "path must be an array of edge IDs")
    })?;
    items
        .iter()
        .map(|e| {
            e.as_usize()
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| {
                    Response::error(
                        400,
                        "invalid_input",
                        "path elements must be integers in [0, 2^32)",
                    )
                })
        })
        .collect()
}

/// Accept either `{"path": [...]}` or `{"paths": [[...], ...]}`.
enum PathSpec {
    One(Vec<u32>),
    Many(Vec<Vec<u32>>),
}

fn parse_path_spec(body: &Json) -> Result<PathSpec, Response> {
    if let Some(p) = body.get("path") {
        return Ok(PathSpec::One(parse_path(p)?));
    }
    if let Some(ps) = body.get("paths") {
        let arr = ps.as_arr().ok_or_else(|| {
            Response::error(400, "invalid_input", "paths must be an array of paths")
        })?;
        return Ok(PathSpec::Many(
            arr.iter().map(parse_path).collect::<Result<_, _>>()?,
        ));
    }
    Err(Response::error(
        400,
        "invalid_input",
        "body needs a \"path\" or \"paths\" member",
    ))
}

fn use_cache(body: &Json) -> bool {
    body.get("cache").and_then(Json::as_bool).unwrap_or(true)
}

fn elapsed_ns(started: Instant) -> Json {
    u64::try_from(started.elapsed().as_nanos())
        .unwrap_or(u64::MAX)
        .into()
}

fn occ_fields(occ: &[(usize, usize)], limit: Option<usize>) -> Vec<(&'static str, Json)> {
    let shown = limit.unwrap_or(occ.len()).min(occ.len());
    let listing = occ[..shown]
        .iter()
        .map(|&(t, o)| Json::Arr(vec![t.into(), o.into()]))
        .collect();
    vec![
        ("total", occ.len().into()),
        ("occurrences", Json::Arr(listing)),
    ]
}

/// `/v1/count` and `/v1/locate` for both body shapes: one chunked loop
/// over the service, then the shape's renderer. Chunked so a batch
/// amortizes the lock but deadlines still get their cooperative
/// re-check between chunks. Each chunk is answered at one epoch; a
/// batch names the last chunk's (an append landing between chunks
/// leaves earlier ones at the epoch before).
fn handle_query(
    state: &ServerState,
    op: CacheOp,
    (spec, cache, limit): (PathSpec, bool, Option<usize>),
    started: Instant,
) -> Result<Response, QueryError> {
    let svc = &state.service;
    let (paths, single) = match spec {
        PathSpec::One(path) => (vec![path], true),
        PathSpec::Many(paths) => (paths, false),
    };
    let mut values = Vec::with_capacity(paths.len());
    let mut hits = 0usize;
    let mut epoch = svc.epoch();
    for (i, chunk) in paths.chunks(BATCH_DEADLINE_STRIDE).enumerate() {
        if i > 0 {
            if let Some(resp) = deadline_check(state, started) {
                return Ok(resp);
            }
        }
        let (mut vs, h, e) = svc.serve(op, chunk, cache)?;
        values.append(&mut vs);
        hits += h;
        epoch = e;
    }
    let mut fields = if single {
        let mut fields = match &values[0] {
            CachedValue::Count(n) => vec![("count", (*n).into())],
            CachedValue::Occurrences(occ) => occ_fields(occ, limit),
        };
        fields.push(("cached", (hits == 1).into()));
        fields
    } else {
        let answers = values
            .iter()
            .map(|v| match v {
                CachedValue::Count(n) => (*n).into(),
                CachedValue::Occurrences(occ) => obj_move(occ_fields(occ, limit)),
            })
            .collect();
        let key = match op {
            CacheOp::Count => "counts",
            CacheOp::Occurrences => "results",
        };
        vec![(key, Json::Arr(answers)), ("cache_hits", hits.into())]
    };
    fields.push(("epoch", epoch.into()));
    fields.push(("elapsed_ns", elapsed_ns(started)));
    push_degraded_fields(svc, &mut fields);
    Ok(Response::json(200, &obj_move(fields)))
}

fn handle_extract(state: &ServerState, body: &Json) -> Result<Response, QueryError> {
    let svc = &state.service;
    let (symbols, epoch) = if let Some(id) = body.get("trajectory") {
        let Some(id) = id.as_usize() else {
            return Ok(Response::error(
                400,
                "invalid_input",
                "trajectory must be a non-negative integer",
            ));
        };
        svc.trajectory_at(id)?
    } else {
        let (Some(row), Some(len)) = (
            body.get("row").and_then(Json::as_usize),
            body.get("len").and_then(Json::as_usize),
        ) else {
            return Ok(Response::error(
                400,
                "invalid_input",
                "body needs \"trajectory\" or \"row\" + \"len\"",
            ));
        };
        svc.extract(row, len)?
    };
    Ok(Response::json(
        200,
        &obj(&[("symbols", symbols.into()), ("epoch", epoch.into())]),
    ))
}

fn handle_append(state: &ServerState, req: &Request, body: &Json) -> Result<Response, QueryError> {
    // A follower is read-only: its corpus is a replica of the
    // primary's WAL, and a locally-applied write would fork it.
    if let Some(primary) = state.primary().clone() {
        return Ok(misdirected(primary));
    }
    let Some(batch) = body.get("batch").and_then(Json::as_arr) else {
        return Ok(Response::error(
            400,
            "invalid_input",
            "body needs a \"batch\" array of trajectories",
        ));
    };
    let mut trajectories = Vec::with_capacity(batch.len());
    for t in batch {
        match parse_path(t) {
            Ok(path) => trajectories.push(path),
            Err(resp) => return Ok(resp),
        }
    }
    // Idempotency key: `Idempotency-Key` header, or `"key"` in the
    // body (the header wins if both are present). A retried append
    // carrying the same key is acked with the original assignment
    // instead of being applied twice.
    let header_key = req.header("idempotency-key");
    let body_key = body.get("key").and_then(Json::as_str);
    let key = match header_key.or(body_key) {
        Some("") => {
            return Ok(Response::error(
                400,
                "invalid_input",
                "idempotency key must be non-empty",
            ))
        }
        other => other,
    };
    let out = state.service.append_keyed(&trajectories, key)?;
    let mut fields = vec![
        (
            "assigned",
            obj(&[
                ("start", out.assigned.start.into()),
                ("end", out.assigned.end.into()),
            ]),
        ),
        ("shards", out.shards.into()),
        ("epoch", out.epoch.into()),
        ("deduplicated", out.deduplicated.into()),
    ];
    push_degraded_fields(&state.service, &mut fields);
    Ok(Response::json(200, &obj_move(fields)))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `workers` follows the workspace thread-knob convention: 0 is the
    /// host's hardware threads, anything else is literal, never 0.
    #[test]
    fn resolved_workers_follow_the_knob_convention() {
        let host = rayon::current_num_threads();
        for workers in [0usize, 1, 2, 3, host, host + 3, 64] {
            let r = ServeConfig {
                workers,
                ..ServeConfig::default()
            }
            .resolve();
            assert_eq!(r.workers, if workers == 0 { host } else { workers });
            assert!(r.workers >= 1);
            assert_eq!(r.host_parallelism, host);
        }
    }

    #[test]
    fn query_errors_map_to_the_documented_statuses() {
        let cases = [
            (QueryError::EmptyPattern, 400, "empty_pattern"),
            (
                QueryError::UnknownEdge {
                    edge: 9,
                    n_edges: 5,
                },
                400,
                "unknown_edge",
            ),
            (QueryError::InvalidInput("x".into()), 400, "invalid_input"),
            (QueryError::LocateUnsupported, 422, "locate_unsupported"),
            (QueryError::CorruptIndex("x".into()), 500, "corrupt_index"),
            (QueryError::Io("x".into()), 500, "io"),
        ];
        for (err, status, kind) in cases {
            let resp = query_error_response(&err);
            assert_eq!(resp.status, status, "{err:?}");
            let body = Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
            assert_eq!(
                body.get("error").unwrap().get("kind").unwrap().as_str(),
                Some(kind)
            );
        }
    }
}
