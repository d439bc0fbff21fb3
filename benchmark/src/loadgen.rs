//! Open- and closed-loop load generation over a blocking operation.
//!
//! Open loop: request `i` is due at `i / rate` after the phase starts,
//! whatever happened before. Worker threads claim requests in order, wait
//! until each is due, and time it from when it was due, so a stall is
//! charged to every request it delays. A request counts as failed when the
//! operation fails, or when it has not completed by the end of the drain
//! window that follows the phase (it was still outstanding at run end).
//! A phase may be told to give up once the generator runs later than a
//! given lag: its backlog is growing, and the requests it then never sends
//! are reported as skipped, not sent.
//!
//! Closed loop: each thread issues its next request when the previous one
//! returns, until the phase ends; requests in flight at the end are waited
//! for.

use crate::stats;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What one phase did.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Requests due in the phase (open loop) or issued (closed loop).
    pub due: u64,
    /// Requests handed to the operation.
    pub sent: u64,
    /// Requests that succeeded in time.
    pub ok: u64,
    /// Requests that failed, finished late or were never sent in time.
    pub failed: u64,
    /// Requests not sent because the phase gave up (`due - ok - failed`).
    pub skipped: u64,
    /// Latency of each successful request, ms, in completion order.
    pub latencies_ms: Vec<f64>,
    /// When each successful request completed, s after the phase started,
    /// ascending, in the order of `latencies_ms`.
    pub ends_s: Vec<f64>,
    /// How late each sent request left the generator, ms (open loop).
    pub lags_ms: Vec<f64>,
    /// Wall time of the phase, s (open loop: the schedule's length).
    pub wall_s: f64,
}

impl Phase {
    /// Nearest-rank latency quantile over every due request, with failed
    /// and skipped ones ranked beyond any latency; `None` when the rank
    /// falls on one.
    pub fn latency_ms(&self, q: f64) -> Option<f64> {
        if self.due == 0 {
            return None;
        }
        let rank = (q * self.due as f64).ceil().max(1.0) as usize;
        let sorted = stats::sorted(self.latencies_ms.clone());
        sorted.get(rank - 1).copied()
    }
}

/// Requests one closed-loop thread may make in a phase without its
/// sample buffer growing.
const CLOSED_LOOP_ROOM: usize = 1 << 21;

struct Sample {
    latency_ms: f64,
    lag_ms: f64,
    /// Completion time, s after the phase started.
    end_s: f64,
    ok: bool,
}

/// Requests an open loop at `rate` per second over `duration` makes.
pub fn due(rate: f64, duration: Duration) -> usize {
    (rate * duration.as_secs_f64()).ceil() as usize
}

/// Drives `op(i)` for each request due at `rate` per second over
/// `duration`, from `threads` threads. The drain window after the schedule
/// is as long as the schedule itself, at least one second. With
/// `give_up_lag`, the phase stops sending once a request leaves later than
/// that.
pub fn open_loop(
    rate: f64,
    duration: Duration,
    threads: usize,
    give_up_lag: Option<Duration>,
    op: impl Fn(usize) -> bool + Sync,
) -> Phase {
    let due = due(rate, duration);
    let drain = duration.max(Duration::from_secs(1));
    let next = AtomicUsize::new(0);
    let gave_up = AtomicBool::new(false);
    let samples = Mutex::new(Vec::with_capacity(due));
    let start = Instant::now() + Duration::from_millis(1);
    let deadline = start + duration + drain;
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= due || gave_up.load(Ordering::Relaxed) {
                    break;
                }
                let due_at = start + Duration::from_secs_f64(i as f64 / rate);
                let now = Instant::now();
                if now < due_at {
                    std::thread::sleep(due_at - now);
                }
                let sent = Instant::now();
                if sent >= deadline {
                    break;
                }
                if give_up_lag.is_some_and(|lag| sent - due_at > lag) {
                    gave_up.store(true, Ordering::Relaxed);
                    break;
                }
                let ok = op(i);
                let done = Instant::now();
                samples.lock().expect("sample store").push(Sample {
                    latency_ms: (done - due_at).as_secs_f64() * 1e3,
                    lag_ms: (sent - due_at).as_secs_f64() * 1e3,
                    end_s: done.saturating_duration_since(start).as_secs_f64(),
                    ok: ok && done <= deadline,
                });
            });
        }
    });
    let samples = samples.into_inner().expect("sample store");
    let mut phase = summarize(due as u64, samples.len(), samples, duration.as_secs_f64());
    if gave_up.into_inner() {
        phase.skipped = phase.due - phase.sent;
        phase.failed -= phase.skipped;
    }
    phase
}

/// Drives `op(thread)` back to back on each of `threads` threads for
/// `duration`.
pub fn closed_loop(duration: Duration, threads: usize, op: impl Fn(usize) -> bool + Sync) -> Phase {
    let samples = Mutex::new(Vec::new());
    let start = Instant::now();
    let end = start + duration;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let (op, samples) = (&op, &samples);
            scope.spawn(move || {
                // Room for far more requests than a run makes, so the
                // buffer never grows by copying (untouched room costs no
                // resident memory, which `peak_rss_mb` reports).
                let mut mine = Vec::with_capacity(CLOSED_LOOP_ROOM);
                while Instant::now() < end {
                    let sent = Instant::now();
                    let ok = op(t);
                    let done = Instant::now();
                    mine.push(Sample {
                        latency_ms: (done - sent).as_secs_f64() * 1e3,
                        lag_ms: 0.0,
                        end_s: (done - start).as_secs_f64(),
                        ok,
                    });
                }
                samples.lock().expect("sample store").push(mine);
            });
        }
    });
    let wall_s = start.elapsed().as_secs_f64();
    let samples = samples.into_inner().expect("sample store");
    let sent = samples.iter().map(Vec::len).sum::<usize>();
    summarize(sent as u64, sent, samples.into_iter().flatten(), wall_s)
}

fn summarize(
    due: u64,
    sent: usize,
    samples: impl IntoIterator<Item = Sample>,
    wall_s: f64,
) -> Phase {
    let mut phase = Phase {
        due,
        sent: sent as u64,
        wall_s,
        latencies_ms: Vec::with_capacity(sent),
        ends_s: Vec::with_capacity(sent),
        lags_ms: Vec::with_capacity(sent),
        ..Phase::default()
    };
    let mut samples: Vec<Sample> = samples.into_iter().collect();
    samples.sort_by(|a, b| a.end_s.total_cmp(&b.end_s));
    for s in samples {
        phase.lags_ms.push(s.lag_ms);
        if s.ok {
            phase.ok += 1;
            phase.latencies_ms.push(s.latency_ms);
            phase.ends_s.push(s.end_s);
        }
    }
    phase.failed = due - phase.ok;
    phase
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_charges_a_stall_to_the_requests_it_delays() {
        // One thread, 100 requests/s; request 0 stalls 300 ms, so requests
        // due at 10..290 ms wait for it and are timed from their due time.
        // With one thread, latencies are in request order.
        let phase = open_loop(100.0, Duration::from_millis(500), 1, None, |i| {
            if i == 0 {
                std::thread::sleep(Duration::from_millis(300));
            }
            true
        });
        assert_eq!((phase.due, phase.ok, phase.failed), (50, 50, 0));
        let latency = |r: usize| phase.latencies_ms[r];
        assert!(latency(0) >= 300.0);
        assert!(latency(10) >= 190.0, "due at 100 ms, sent after 300 ms");
        assert!(latency(20) >= 90.0, "due at 200 ms, sent after 300 ms");
        assert!(phase.latency_ms(0.9).unwrap() >= 100.0);
    }

    #[test]
    fn failures_miss_every_latency_limit() {
        let phase = open_loop(200.0, Duration::from_millis(100), 2, None, |i| i % 10 != 0);
        assert_eq!((phase.due, phase.failed), (20, 2));
        assert!(phase.latency_ms(0.9).is_some());
        assert_eq!(
            phase.latency_ms(0.95),
            None,
            "ranks past the successes are failures"
        );
    }

    #[test]
    fn requests_left_at_the_deadline_are_failed() {
        // 1 s of schedule, 1 s drain; the first request blocks for 2.5 s.
        let phase = open_loop(20.0, Duration::from_secs(1), 1, None, |i| {
            if i == 0 {
                std::thread::sleep(Duration::from_millis(2500));
            }
            true
        });
        assert_eq!(phase.due, 20);
        assert_eq!(phase.ok, 0, "request 0 ended after the deadline");
        assert_eq!(phase.failed, 20);
    }

    #[test]
    fn a_growing_backlog_ends_the_phase() {
        // 1000 requests/s for 1 s, each taking 5 ms on one thread: the
        // generator falls behind at once and gives up at 20 ms of lag.
        let phase = open_loop(
            1000.0,
            Duration::from_secs(1),
            1,
            Some(Duration::from_millis(20)),
            |_| {
                std::thread::sleep(Duration::from_millis(5));
                true
            },
        );
        assert_eq!(phase.due, 1000);
        assert!(phase.sent < 20, "sent {}", phase.sent);
        assert_eq!(phase.failed, 0);
        assert_eq!(phase.skipped, phase.due - phase.sent);
        assert_eq!(
            phase.latency_ms(0.5),
            None,
            "skipped requests miss the limit"
        );
    }

    #[test]
    fn closed_loop_counts_every_request() {
        let phase = closed_loop(Duration::from_millis(50), 2, |t| t == 0);
        assert!(phase.due > 2);
        assert_eq!(phase.due, phase.sent);
        assert!(phase.failed > 0 && phase.ok > 0);
    }

    #[test]
    fn successes_are_kept_in_completion_order_across_threads() {
        let phase = closed_loop(Duration::from_millis(50), 2, |t| {
            std::thread::sleep(Duration::from_millis(1 + t as u64));
            true
        });
        assert_eq!(phase.ends_s.len(), phase.latencies_ms.len());
        assert!(phase.ends_s.windows(2).all(|w| w[0] <= w[1]));
        assert!(phase.ends_s.iter().all(|&e| e > 0.0 && e <= phase.wall_s));
    }
}
