//! The open-loop schedule of `ingress_churn`: seeded session lifetimes
//! from `nt_bench::Trace` (`TraceShape::HeavyTail`, so most sessions are
//! short and a few span the window) and one Poisson arrival process of a
//! fixed aggregate rate, each arrival going to a session drawn uniformly
//! from those alive at its time — which makes every session's own
//! arrivals Poisson too.

use nt_bench::{Trace, TraceConfig, TraceShape};
use nt_tensor::Rng;
use std::time::Duration;

/// One scheduled client action, on session index `.0` of the variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    Join(usize),
    /// A decision falls due; the sender submits it whatever is still
    /// outstanding.
    Arrive(usize),
    /// The session departs once its outstanding decisions resolved.
    Leave(usize),
}

/// A time-ordered schedule, offsets from the start of the window.
#[derive(Clone, Debug)]
pub struct Schedule {
    pub sessions: usize,
    pub events: Vec<(Duration, Event)>,
    pub wall: Duration,
}

impl Schedule {
    /// `sessions` lifetimes over `wall`, cut into trace ticks of `slot`,
    /// and Poisson arrivals at `rate` per second in aggregate.
    pub fn churn(seed: u64, wall: Duration, slot: Duration, sessions: usize, rate: f64) -> Self {
        let ticks = (wall.as_nanos() / slot.as_nanos()).max(4) as u64;
        let trace =
            Trace::generate(&TraceConfig { shape: TraceShape::HeavyTail, ticks, sessions, seed });
        let at = |tick: u64| slot * (tick - 1) as u32;
        let mut events: Vec<(Duration, Event)> = Vec::new();
        for (s, p) in trace.sessions.iter().enumerate() {
            events.push((at(p.join_tick), Event::Join(s)));
            if p.leave_tick <= ticks {
                events.push((at(p.leave_tick), Event::Leave(s)));
            }
        }
        let live: Vec<Vec<usize>> = (1..=ticks).map(|t| trace.live_at(t)).collect();
        let mut rng = Rng::seeded(seed ^ 0xA881_7A15);
        let mut t = 0.0f64;
        loop {
            // Exponential gap: -ln(1 - u) / rate.
            t += -(1.0 - rng.unit() as f64).max(1e-12).ln() / rate;
            if t >= wall.as_secs_f64() {
                break;
            }
            let tick = ((t / slot.as_secs_f64()) as usize).min(live.len() - 1);
            let alive = &live[tick];
            if alive.is_empty() {
                continue;
            }
            events.push((Duration::from_secs_f64(t), Event::Arrive(alive[rng.below(alive.len())])));
        }
        // Stable: a join precedes same-instant arrivals, a leave follows
        // them.
        let rank = |e: &Event| match e {
            Event::Join(_) => 0,
            Event::Arrive(_) => 1,
            Event::Leave(_) => 2,
        };
        events.sort_by(|a, b| a.0.cmp(&b.0).then(rank(&a.1).cmp(&rank(&b.1))));
        Schedule { sessions, events, wall }
    }

    /// Arrivals in the schedule.
    pub fn arrivals(&self) -> usize {
        self.events.iter().filter(|(_, e)| matches!(e, Event::Arrive(_))).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched(seed: u64) -> Schedule {
        Schedule::churn(seed, Duration::from_secs(4), Duration::from_millis(50), 120, 2000.0)
    }

    #[test]
    fn schedule_is_seeded_and_keeps_arrivals_inside_lifetimes() {
        let a = sched(3);
        assert_eq!(a.events, sched(3).events, "same seed, same schedule");
        assert_ne!(a.events, sched(4).events, "another seed, another schedule");
        let n = a.arrivals() as f64;
        assert!((n - 8000.0).abs() < 400.0, "aggregate rate off: {n} arrivals in 4 s");
        let mut state = vec![0u8; a.sessions]; // 0 unborn, 1 live, 2 gone
        for w in a.events.windows(2) {
            assert!(w[0].0 <= w[1].0, "events out of order");
        }
        for &(_, e) in &a.events {
            match e {
                Event::Join(s) => {
                    assert_eq!(state[s], 0);
                    state[s] = 1;
                }
                Event::Arrive(s) => assert_eq!(state[s], 1, "arrival outside session {s}'s life"),
                Event::Leave(s) => {
                    assert_eq!(state[s], 1);
                    state[s] = 2;
                }
            }
        }
        assert!(state.contains(&2), "no churn: nobody left");
    }
}
