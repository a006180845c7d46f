//! Deadline heap for event-loop timers.
//!
//! Lease expiries (and any other future deadline) are entries in a
//! min-heap the reactor drains from its own poll loop, with no sleeping
//! side thread. Scheduling and firing are O(log n), and the loop sleeps
//! exactly until the nearest deadline.
//!
//! Entries fire in (deadline, insertion) order, which keeps anything built
//! on the heap deterministic for a deterministic schedule order. Every
//! call takes `now` instead of reading a clock, so a virtual clock drives
//! it as well as [`Instant::now`] does.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

/// One-shot timers keyed by `u64`, fired in (deadline, insertion) order.
#[derive(Debug, Default)]
pub struct Timers {
    /// `(deadline, insertion seq, key)`, nearest deadline on top.
    heap: BinaryHeap<Reverse<(Instant, u64, u64)>>,
    seq: u64,
}

impl Timers {
    /// Schedules `key` to fire `after` from `now`, on the first
    /// [`Timers::advance`] at or past that deadline.
    pub fn schedule(&mut self, now: Instant, after: Duration, key: u64) {
        self.heap.push(Reverse((now + after, self.seq, key)));
        self.seq += 1;
    }

    /// Fires every timer due at or before `now`, appending keys to
    /// `fired` in (deadline, insertion) order. A timer scheduled after
    /// this returns — from a handler of one it fired — waits for the next
    /// call, even with a zero delay.
    pub fn advance(&mut self, now: Instant, fired: &mut Vec<u64>) {
        while let Some(&Reverse((at, _, key))) = self.heap.peek() {
            if at > now {
                break;
            }
            self.heap.pop();
            fired.push(key);
        }
    }

    /// How long a poll may sleep before the nearest deadline (zero when
    /// one is already due), or `None` when nothing is scheduled.
    pub fn next_wakeup(&self, now: Instant) -> Option<Duration> {
        let Reverse((at, _, _)) = self.heap.peek()?;
        Some(at.saturating_duration_since(now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn timers_fire_in_deadline_then_insertion_order() {
        let t0 = Instant::now();
        let mut timers = Timers::default();
        timers.schedule(t0, 35 * MS, 3);
        timers.schedule(t0, 5 * MS, 1);
        timers.schedule(t0, 5 * MS, 2);
        timers.schedule(t0, 4 * MS, 0);
        let mut fired = Vec::new();
        timers.advance(t0 + 12 * MS, &mut fired);
        assert_eq!(fired, vec![0, 1, 2], "deadline first, then insertion");
        timers.advance(t0 + 20 * MS, &mut fired);
        assert_eq!(fired, vec![0, 1, 2], "not-yet-due timer stays");
        timers.advance(t0 + 35 * MS, &mut fired);
        assert_eq!(fired, vec![0, 1, 2, 3], "a deadline fires at exactly now");
        assert_eq!(timers.next_wakeup(t0), None, "nothing left pending");
    }

    #[test]
    fn wrap_around_does_not_fire_early() {
        let t0 = Instant::now();
        let mut timers = Timers::default();
        timers.schedule(t0, 75 * MS, 75);
        timers.schedule(t0, 15 * MS, 15);
        let mut fired = Vec::new();
        timers.advance(t0 + 74 * MS, &mut fired);
        assert_eq!(fired, vec![15], "a timer never fires before its deadline");
        timers.advance(t0 + 75 * MS, &mut fired);
        assert_eq!(fired, vec![15, 75]);
    }

    #[test]
    fn lagging_advance_fires_everything_once() {
        let t0 = Instant::now();
        let mut timers = Timers::default();
        // Scheduled in scrambled deadline order.
        for i in 0..16u32 {
            let k = i * 7 % 16;
            timers.schedule(t0, k * MS, u64::from(k));
        }
        let mut fired = Vec::new();
        // One advance far past every deadline.
        timers.advance(t0 + Duration::from_secs(1), &mut fired);
        assert_eq!(fired, (0..16).collect::<Vec<_>>(), "in deadline order");
        assert_eq!(timers.next_wakeup(t0), None, "nothing left pending");
        timers.advance(t0 + Duration::from_secs(2), &mut fired);
        assert_eq!(fired.len(), 16, "nothing fires twice");
    }

    #[test]
    fn next_wakeup_tracks_pending_state() {
        let t0 = Instant::now();
        let mut timers = Timers::default();
        assert!(timers.next_wakeup(t0).is_none(), "no timer, no wakeup");
        timers.schedule(t0, 30 * MS, 1);
        timers.schedule(t0, 20 * MS, 2);
        assert_eq!(
            timers.next_wakeup(t0),
            Some(20 * MS),
            "the nearest deadline"
        );
        assert_eq!(timers.next_wakeup(t0 + 25 * MS), Some(Duration::ZERO));
        let mut fired = Vec::new();
        timers.advance(t0 + 25 * MS, &mut fired);
        assert_eq!(timers.next_wakeup(t0 + 25 * MS), Some(5 * MS));
        timers.advance(t0 + 40 * MS, &mut fired);
        assert_eq!(fired, vec![2, 1]);
        assert!(timers.next_wakeup(t0).is_none());
        // Far from the first schedule (2^32 ms is 49.7 days), the wakeup
        // is still the exact distance to the nearest deadline.
        let late = t0 + Duration::from_secs(200 * 86_400);
        timers.schedule(late, 3 * MS, 3);
        assert_eq!(timers.next_wakeup(late), Some(3 * MS));
        assert_eq!(timers.next_wakeup(late + MS), Some(2 * MS));
    }

    #[test]
    fn reschedule_from_fired_timer_keeps_cadence() {
        let t0 = Instant::now();
        let mut timers = Timers::default();
        timers.schedule(t0, Duration::ZERO, 0);
        let mut fired = Vec::new();
        timers.advance(t0, &mut fired);
        assert_eq!(fired, vec![0], "a zero delay is due at once");
        // Re-armed from its own firing with zero delay: it waits for the
        // next pass, which fires it even at the same instant.
        for key in std::mem::take(&mut fired) {
            timers.schedule(t0, Duration::ZERO, key);
        }
        assert!(fired.is_empty());
        timers.advance(t0, &mut fired);
        assert_eq!(fired, vec![0], "re-armed timer fires on the next pass");
        // A periodic timer fires once per period.
        let mut total = 0;
        timers.schedule(t0, 10 * MS, 1);
        for step in 1..=5u32 {
            let now = t0 + 10 * step * MS;
            fired.clear();
            timers.advance(now, &mut fired);
            total += fired.len();
            for key in fired.drain(..) {
                timers.schedule(now, 10 * MS, key);
            }
        }
        assert_eq!(total, 5, "one firing per 10 ms period");
    }
}
