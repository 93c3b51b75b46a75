//! Open-loop request pacing and failure accounting for the serve load.
//!
//! Each connection sends request `i` when it falls due (`start + i *
//! interval`), or as soon as the previous response is back if the
//! connection is running late. Latency is taken from the due time, not
//! the send time, so a stall also charges the requests queued behind it;
//! how late each send was is recorded as generator lag.

use std::io;
use std::time::{Duration, Instant};

use embedstab_serve::wire::{ErrorCode, Response};

/// Time source for [`open_loop`]: the wall clock, or a simulated one.
pub trait Clock {
    fn now_ns(&self) -> u64;
    fn sleep_until(&self, t_ns: u64);
}

/// The monotonic wall clock, counted from `epoch`.
pub struct WallClock {
    pub epoch: Instant,
}

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn sleep_until(&self, t_ns: u64) {
        let now = self.now_ns();
        if t_ns > now {
            std::thread::sleep(Duration::from_nanos(t_ns - now));
        }
    }
}

/// A fixed-rate arrival schedule.
#[derive(Clone, Copy, Debug)]
pub struct Pacer {
    pub start_ns: u64,
    pub interval_ns: u64,
}

impl Pacer {
    pub fn due_ns(&self, i: usize) -> u64 {
        self.start_ns + i as u64 * self.interval_ns
    }
}

/// One request's timeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sample {
    pub due_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
    pub ok: bool,
}

impl Sample {
    /// Due time to response, in microseconds; a failure misses every
    /// latency limit and reads as infinite.
    pub fn latency_us(&self) -> f64 {
        if self.ok {
            (self.done_ns - self.due_ns) as f64 / 1e3
        } else {
            f64::INFINITY
        }
    }

    /// How late the request was sent, in microseconds.
    pub fn lag_us(&self) -> f64 {
        self.sent_ns.saturating_sub(self.due_ns) as f64 / 1e3
    }
}

/// Issues requests on `pacer`'s schedule until the next one would fall
/// due at or after `until_ns`. `call(i)` performs request `i` and returns
/// whether it succeeded.
pub fn open_loop(
    clock: &impl Clock,
    pacer: &Pacer,
    until_ns: u64,
    mut call: impl FnMut(usize) -> bool,
) -> Vec<Sample> {
    let mut samples = Vec::new();
    for i in 0.. {
        let due_ns = pacer.due_ns(i);
        if due_ns >= until_ns {
            break;
        }
        clock.sleep_until(due_ns);
        let sent_ns = clock.now_ns();
        let ok = call(i);
        samples.push(Sample {
            due_ns,
            sent_ns,
            done_ns: clock.now_ns(),
            ok,
        });
    }
    samples
}

/// Samples grouped into `n` consecutive windows of `window_ns` from
/// `start_ns`, by the timestamp `at` picks; samples outside are dropped.
pub fn windows(
    samples: &[Sample],
    start_ns: u64,
    window_ns: u64,
    n: usize,
    at: impl Fn(&Sample) -> u64,
) -> Vec<Vec<Sample>> {
    let mut out = vec![Vec::new(); n];
    for s in samples {
        let Some(offset) = at(s).checked_sub(start_ns) else {
            continue;
        };
        if let Some(w) = usize::try_from(offset / window_ns)
            .ok()
            .and_then(|k| out.get_mut(k))
        {
            w.push(*s);
        }
    }
    out
}

/// Outcome counts of one load phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub ok: u64,
    pub failed: u64,
    /// Failures that were `Overloaded` refusals (also counted in `failed`).
    pub overloaded: u64,
}

impl Tally {
    /// Counts one exchange and returns whether it succeeded. A transport
    /// error, an error response and an `Overloaded` refusal all fail.
    pub fn record(&mut self, outcome: &io::Result<Response>) -> bool {
        match outcome {
            Ok(resp) if !resp.is_error() => {
                self.ok += 1;
                true
            }
            Ok(Response::Error {
                code: ErrorCode::Overloaded,
                ..
            }) => {
                self.failed += 1;
                self.overloaded += 1;
                false
            }
            _ => {
                self.failed += 1;
                false
            }
        }
    }

    pub fn add(&mut self, other: &Tally) {
        self.ok += other.ok;
        self.failed += other.failed;
        self.overloaded += other.overloaded;
    }

    pub fn attempted(&self) -> u64 {
        self.ok + self.failed
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use embedstab_linalg::Mat;

    use super::*;

    /// A clock that only moves when told to.
    struct SimClock {
        now: Cell<u64>,
    }

    impl Clock for SimClock {
        fn now_ns(&self) -> u64 {
            self.now.get()
        }

        fn sleep_until(&self, t_ns: u64) {
            self.now.set(self.now.get().max(t_ns));
        }
    }

    #[test]
    fn a_stall_is_charged_to_the_requests_queued_behind_it() {
        let clock = SimClock { now: Cell::new(0) };
        let pacer = Pacer {
            start_ns: 0,
            interval_ns: 1_000,
        };
        // 100 ns per request, except request 2, which stalls for 5 us.
        let samples = open_loop(&clock, &pacer, 8_000, |i| {
            let service = if i == 2 { 5_000 } else { 100 };
            clock.now.set(clock.now.get() + service);
            true
        });
        assert_eq!(samples.len(), 8);
        let lat: Vec<u64> = samples.iter().map(|s| s.done_ns - s.due_ns).collect();
        // Requests 3..6 were due during the stall: their latency counts
        // the wait, though each took 100 ns once sent.
        assert_eq!(lat, vec![100, 100, 5_000, 4_100, 3_200, 2_300, 1_400, 500]);
        assert_eq!(samples[3].lag_us(), 4.0);
        assert_eq!(samples[0].lag_us(), 0.0);
        assert_eq!(samples[2].latency_us(), 5.0);
    }

    #[test]
    fn windows_split_by_timestamp_and_drop_the_ragged_end() {
        let at = |t: u64| Sample {
            due_ns: t,
            sent_ns: t,
            done_ns: t + 5,
            ok: true,
        };
        let samples: Vec<Sample> = [5, 10, 99, 100, 150, 250, 320].map(at).to_vec();
        let w = windows(&samples, 10, 100, 2, |s| s.due_ns);
        let due = |w: &[Sample]| w.iter().map(|s| s.due_ns).collect::<Vec<_>>();
        assert_eq!(due(&w[0]), vec![10, 99, 100]);
        assert_eq!(due(&w[1]), vec![150]);
        let by_done = windows(&samples, 10, 100, 3, |s| s.done_ns);
        assert_eq!(due(&by_done[2]), vec![250]);
    }

    #[test]
    fn refusals_and_errors_count_as_failures() {
        let mut tally = Tally::default();
        assert!(tally.record(&Ok(Response::Rows(Mat::zeros(1, 2)))));
        let overloaded = Response::Error {
            code: ErrorCode::Overloaded,
            message: "busy".into(),
        };
        assert!(!tally.record(&Ok(overloaded)));
        let bad = Response::Error {
            code: ErrorCode::IdOutOfRange,
            message: "id".into(),
        };
        assert!(!tally.record(&Ok(bad)));
        assert!(!tally.record(&Err(io::Error::other("reset"))));
        assert_eq!(
            tally,
            Tally {
                ok: 1,
                failed: 3,
                overloaded: 1
            }
        );
        assert_eq!(tally.attempted(), 4);
        let failed = Sample {
            due_ns: 0,
            sent_ns: 0,
            done_ns: 10,
            ok: false,
        };
        assert!(failed.latency_us().is_infinite());
    }
}
