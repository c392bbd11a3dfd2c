//! The load generator: closed-loop and fixed-schedule clients over the
//! library's own blocking keep-alive [`Client`], one connection per
//! thread, answers checked as they arrive.

use crate::stats::Sample;
use cinct_serve::Client;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// One request a plan wants sent.
pub struct Req<'a> {
    pub target: &'static str,
    pub body: &'a str,
    /// Paths the request asks about (what throughput counts).
    pub paths: u32,
}

/// A connection's request stream and the check of each answer. `next`
/// and `check` alternate strictly; both run outside the timed region.
pub trait Plan: Send {
    fn next(&mut self) -> Req<'_>;
    /// Whether `body` is the right answer to the request `next` last
    /// returned. Anything but an exact match is a failed operation.
    fn check(&mut self, status: u16, body: &str) -> bool;
}

/// When a load phase starts recording and when it stops.
#[derive(Clone, Copy, Debug)]
pub struct Phase {
    /// Requests completing before this instant are warm-up: sent and
    /// checked, not recorded.
    pub measure_from: Instant,
    pub end: Instant,
}

impl Phase {
    pub fn starting_in(warm_up: Duration, measure: Duration) -> Phase {
        let measure_from = Instant::now() + warm_up;
        Phase {
            measure_from,
            end: measure_from + measure,
        }
    }
}

/// What one connection did.
#[derive(Debug, Default)]
pub struct ConnReport {
    pub samples: Vec<Sample>,
    pub attempted: u64,
    pub failed: u64,
    /// Worst start delay behind schedule (fixed-schedule loops only).
    pub late_max_ns: u64,
}

impl ConnReport {
    pub fn absorb(&mut self, other: ConnReport) {
        self.samples.extend(other.samples);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.late_max_ns = self.late_max_ns.max(other.late_max_ns);
    }
}

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Send one request, time it, check it, record it.
fn one(
    client: &mut Client,
    plan: &mut dyn Plan,
    phase: &Phase,
    timed_from: Option<Instant>,
    report: &mut ConnReport,
) {
    let req = plan.next();
    let paths = req.paths;
    let sent = Instant::now();
    let answer = client.post(req.target, req.body);
    let done = Instant::now();
    report.attempted += 1;
    let ok = match answer {
        Ok((status, body)) => plan.check(status, &body),
        Err(_) => false,
    };
    if !ok {
        report.failed += 1;
    } else if done >= phase.measure_from {
        report.samples.push(Sample {
            end_ns: ns(done - phase.measure_from),
            latency_ns: ns(done - timed_from.unwrap_or(sent)),
            paths,
        });
    }
}

/// Closed loop: the next request leaves when the previous answer has
/// arrived and been checked.
pub fn closed_loop(addr: SocketAddr, plan: &mut dyn Plan, phase: Phase) -> ConnReport {
    let mut client = Client::connect(addr).expect("load connection");
    let mut report = ConnReport::default();
    while Instant::now() < phase.end {
        one(&mut client, plan, &phase, None, &mut report);
    }
    report
}

/// Fixed schedule: request `i` of `count` is due at `measure_from +
/// i * interval` whatever happened to request `i - 1`, and its latency
/// runs from the due time, so a stall is charged to every request it
/// delays.
pub fn fixed_schedule(
    addr: SocketAddr,
    plan: &mut dyn Plan,
    phase: Phase,
    interval: Duration,
    count: usize,
) -> ConnReport {
    let mut client = Client::connect(addr).expect("load connection");
    let mut report = ConnReport::default();
    for i in 0..count {
        let due = phase.measure_from + interval * i as u32;
        pace_until(due);
        report.late_max_ns = report.late_max_ns.max(ns(Instant::now() - due));
        one(&mut client, plan, &phase, Some(due), &mut report);
    }
    report
}

/// `ingest_mixed`'s writer connection: closed-loop reads, with write `i`
/// of `count` cut in as soon as it is due at `measure_from + i *
/// interval`. The reads keep the connection — and the core behind it —
/// as busy as a service's would be; a connection that only wrote five
/// times a second would leave that core idle, and every reader wake-up
/// on this kind of host would then cost more than the request. A write's
/// latency runs from its due time; it starts at most one read late.
/// Returns `(reads, writes)`.
pub fn reads_with_scheduled_writes(
    addr: SocketAddr,
    reads: &mut dyn Plan,
    writes: &mut dyn Plan,
    phase: Phase,
    interval: Duration,
    count: usize,
) -> (ConnReport, ConnReport) {
    let mut client = Client::connect(addr).expect("load connection");
    let (mut read, mut written) = (ConnReport::default(), ConnReport::default());
    let mut sent = 0usize;
    loop {
        let now = Instant::now();
        let due = phase.measure_from + interval * sent as u32;
        if sent < count && now >= due {
            written.late_max_ns = written.late_max_ns.max(ns(now - due));
            one(&mut client, writes, &phase, Some(due), &mut written);
            sent += 1;
        } else if now < phase.end || sent < count {
            one(&mut client, reads, &phase, None, &mut read);
        } else {
            return (read, written);
        }
    }
}

/// How long before a deadline the pacer stops sleeping and spins.
const SPIN_MARGIN: Duration = Duration::from_micros(300);

/// Return at `deadline`, not noticeably after it: sleep to just short of
/// it, then spin. Sleeping all the way overshoots by the timer slack and
/// a wake-up, 60–100 µs on this kind of host — more than a request takes.
pub fn pace_until(deadline: Instant) {
    let now = Instant::now();
    if deadline > now + SPIN_MARGIN {
        std::thread::sleep(deadline - now - SPIN_MARGIN);
    }
    while Instant::now() < deadline {
        std::hint::spin_loop();
    }
}

// --- reading answers ---------------------------------------------------

fn digits(bytes: &[u8], mut i: usize) -> Option<(u64, usize)> {
    let start = i;
    let mut v = 0u64;
    while let Some(d) = bytes.get(i).filter(|b| b.is_ascii_digit()) {
        v = v.checked_mul(10)?.checked_add(u64::from(d - b'0'))?;
        i += 1;
    }
    (i > start).then_some((v, i))
}

/// The unsigned integer right after the first `key` (e.g. `"count":`).
pub fn uint_after(text: &str, key: &str) -> Option<u64> {
    let at = text.find(key)? + key.len();
    digits(text.as_bytes(), at).map(|(v, _)| v)
}

/// Whether the (possibly nested) integer array right after the first
/// `key` flattens to exactly `expected`.
pub fn array_after_equals(text: &str, key: &str, expected: impl IntoIterator<Item = u64>) -> bool {
    let Some(at) = text.find(key) else {
        return false;
    };
    let bytes = text.as_bytes();
    let mut i = at + key.len();
    if bytes.get(i) != Some(&b'[') {
        return false;
    }
    let mut depth = 0usize;
    let mut expected = expected.into_iter();
    loop {
        match bytes.get(i) {
            Some(b'[') => {
                depth += 1;
                i += 1;
            }
            Some(b']') => {
                depth -= 1;
                i += 1;
                if depth == 0 {
                    return expected.next().is_none();
                }
            }
            Some(b',') => i += 1,
            Some(b) if b.is_ascii_digit() => {
                let Some((v, next)) = digits(bytes, i) else {
                    return false;
                };
                if expected.next() != Some(v) {
                    return false;
                }
                i = next;
            }
            _ => return false,
        }
    }
}

/// Whether the integers after each successive `key` are exactly
/// `expected` (the `"total":` of every result of a batched listing).
pub fn each_uint_after_equals(
    text: &str,
    key: &str,
    expected: impl IntoIterator<Item = u64>,
) -> bool {
    let mut rest = text;
    for want in expected {
        let Some(at) = rest.find(key) else {
            return false;
        };
        let from = at + key.len();
        match digits(rest.as_bytes(), from) {
            Some((v, next)) if v == want => rest = &rest[next..],
            _ => return false,
        }
    }
    !rest.contains(key)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Harness trap: sleep-only pacing overshoots by tens of
    /// microseconds. Sleep-then-spin must never return early, and its
    /// best overshoot over a few tries must be a few microseconds (the
    /// best, because the host may stall any single try).
    #[test]
    fn pacing_returns_at_the_deadline() {
        let mut best = Duration::MAX;
        for _ in 0..20 {
            let deadline = Instant::now() + Duration::from_millis(2);
            pace_until(deadline);
            let now = Instant::now();
            assert!(now >= deadline);
            best = best.min(now - deadline);
        }
        assert!(best < Duration::from_micros(20), "best overshoot {best:?}");
    }

    #[test]
    fn scanners_read_the_servers_shapes() {
        let count = r#"{"count":42,"cached":false,"epoch":3,"elapsed_ns":1234}"#;
        assert_eq!(uint_after(count, "\"count\":"), Some(42));
        assert_eq!(uint_after(count, "\"epoch\":"), Some(3));
        assert_eq!(uint_after(count, "\"missing\":"), None);

        let counts = r#"{"counts":[1,0,33],"cache_hits":2}"#;
        assert!(array_after_equals(counts, "\"counts\":", [1, 0, 33]));
        assert!(!array_after_equals(counts, "\"counts\":", [1, 0]));
        assert!(!array_after_equals(counts, "\"counts\":", [1, 0, 33, 4]));
        assert!(!array_after_equals(counts, "\"counts\":", [1, 0, 34]));

        let locate = r#"{"total":2,"occurrences":[[7,0],[9,12]],"cached":false}"#;
        assert!(array_after_equals(
            locate,
            "\"occurrences\":",
            [7, 0, 9, 12]
        ));
        assert!(array_after_equals(
            r#"{"symbols":[],"epoch":0}"#,
            "\"symbols\":",
            []
        ));

        let batch = r#"{"results":[{"total":3,"occurrences":[]},{"total":0,"occurrences":[]}],"cache_hits":0}"#;
        assert!(each_uint_after_equals(batch, "\"total\":", [3, 0]));
        assert!(!each_uint_after_equals(batch, "\"total\":", [3]));
        assert!(!each_uint_after_equals(batch, "\"total\":", [3, 0, 0]));
    }
}
