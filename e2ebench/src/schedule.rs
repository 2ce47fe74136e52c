//! Open-loop schedule arithmetic: when each event is due, and how late
//! the generator ran against it. Latencies are measured from the due
//! time, so a stall also charges the requests queued behind it.

use std::time::Duration;

/// Events at a fixed rate, starting at offset zero.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Schedule {
    /// Events per second.
    pub rate: f64,
    /// Number of events.
    pub count: usize,
}

impl Schedule {
    /// `rate` events per second for `seconds` seconds (at least one).
    pub fn for_duration(rate: f64, seconds: f64) -> Schedule {
        Schedule {
            rate,
            count: ((rate * seconds).round() as usize).max(1),
        }
    }

    /// Offset of event `i` from the schedule's start.
    pub fn due(&self, i: usize) -> Duration {
        Duration::from_secs_f64(i as f64 / self.rate)
    }

    /// Offset just past the last event.
    pub fn span(&self) -> Duration {
        self.due(self.count)
    }
}

/// How late an event ran: `actual - due`, or zero when it ran early.
pub fn lateness(due: Duration, actual: Duration) -> Duration {
    actual.saturating_sub(due)
}

/// Latency measured from the due time (not the actual send time).
pub fn latency_from_due(due: Duration, answered: Duration) -> Duration {
    answered.saturating_sub(due)
}

/// Merges two schedules into one send order: `(due, is_second)` pairs
/// sorted by due time, first-schedule events first on ties.
pub fn interleave(a: &Schedule, b: &Schedule) -> Vec<(Duration, bool)> {
    let mut out: Vec<(Duration, bool)> = (0..a.count)
        .map(|i| (a.due(i), false))
        .chain((0..b.count).map(|i| (b.due(i), true)))
        .collect();
    out.sort_by_key(|&(due, second)| (due, second));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_are_evenly_spaced() {
        let s = Schedule::for_duration(1000.0, 2.0);
        assert_eq!(s.count, 2000);
        assert_eq!(s.due(0), Duration::ZERO);
        assert_eq!(s.due(1), Duration::from_millis(1));
        assert_eq!(s.due(1500), Duration::from_millis(1500));
        assert_eq!(s.span(), Duration::from_secs(2));
    }

    #[test]
    fn lateness_and_latency_count_from_the_due_time() {
        let due = Duration::from_millis(10);
        assert_eq!(
            lateness(due, Duration::from_millis(13)),
            Duration::from_millis(3)
        );
        assert_eq!(lateness(due, Duration::from_millis(9)), Duration::ZERO);
        // Sent 3 ms late and answered 1 ms after sending: 4 ms latency.
        assert_eq!(
            latency_from_due(due, Duration::from_millis(14)),
            Duration::from_millis(4)
        );
    }

    #[test]
    fn a_stall_charges_every_request_queued_behind_it() {
        let s = Schedule::for_duration(100.0, 0.05);
        // The generator stalls until 30 ms, then sends the backlog at once.
        let resumed = Duration::from_millis(30);
        let late: Vec<Duration> = (0..s.count)
            .map(|i| lateness(s.due(i), resumed.max(s.due(i))))
            .collect();
        assert_eq!(
            late,
            [30, 20, 10, 0, 0]
                .iter()
                .map(|&ms| Duration::from_millis(ms))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn interleave_orders_by_due_time() {
        let reads = Schedule {
            rate: 4.0,
            count: 4,
        };
        let writes = Schedule {
            rate: 2.0,
            count: 2,
        };
        let order: Vec<bool> = interleave(&reads, &writes).iter().map(|e| e.1).collect();
        assert_eq!(order, [false, true, false, false, true, false]);
    }
}
