//! The in-process legs of a traced run: the same workload, on the same
//! per-session schedule, driven straight into a [`ShardedServer`] over
//! the timing wrapper — no socket, no ingress thread. Every
//! `ShardedServer::tick` is timed, and the wrapper's calls are kept per
//! tick for the layer replays. The closed loop replays each tick's
//! backbone batches right after the tick, outside its timing, so the
//! tick and its replay see the same machine; the open loop cannot pause
//! its schedule, so its caller replays after the leg.

use crate::client::obs_at;
use crate::layers::{self, Replayer};
use crate::schedule::{Event, Schedule};
use crate::wrap::{Call, TimedFleet};
use netllm::{ShardedServer, Ticket, TicketStatus};
use nt_bench::{kind_of, ObsStreams};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// What an in-process leg recorded.
#[derive(Default)]
pub struct Leg {
    /// Completions inside the window.
    pub completed_in_window: u64,
    pub wall: Duration,
    /// Latency (ms) of every served decision: from submit (closed loop)
    /// or due time (open loop) to the poll that saw it served.
    pub latencies_ms: Vec<f64>,
    /// Every tick: when it started, its wall time (ns) and the
    /// decisions it served.
    pub ticks: Vec<(Instant, u64, usize)>,
    /// The wrapper's calls, one entry per tick.
    pub calls: Vec<Vec<Call>>,
    /// Memory-guard deferrals and evictions over the window.
    pub deferred: u64,
    pub evicted: u64,
    /// Kernel-pool dispatches over the window.
    pub pool_dispatches: u64,
    pub failed: u64,
}

impl Leg {
    fn tick<'m>(&mut self, server: &mut ShardedServer<TimedFleet<'m>>, fleet: &TimedFleet<'m>) {
        let t0 = Instant::now();
        let report = server.tick(fleet);
        let ns = t0.elapsed().as_nanos() as u64;
        self.ticks.push((t0, ns, report.served));
        self.deferred += report.memory.deferred as u64;
        self.evicted += report.memory.evicted.len() as u64;
        self.calls.push(fleet.take_calls());
    }
}

/// Closed loop: `sessions` sessions, one decision outstanding each;
/// `warm_rounds` untimed rounds, then `wall` of measured ticks.
pub fn closed<'m>(
    fleet: &TimedFleet<'m>,
    mut server: ShardedServer<TimedFleet<'m>>,
    sessions: usize,
    streams: &ObsStreams,
    warm_rounds: usize,
    wall: Duration,
    replayer: &mut Replayer,
) -> Leg {
    let ids: Vec<u64> = (0..sessions).map(|s| server.join_group(fleet, kind_of(s))).collect();
    let mut next = vec![0usize; sessions];
    let mut open: Vec<Option<(Ticket, Instant)>> = vec![None; sessions];
    let mut run = |leg: &mut Leg,
                   end: Option<Instant>,
                   goal: Option<usize>,
                   mut replay: Option<&mut Replayer>| loop {
        let now = Instant::now();
        let more = |s: usize, next: &[usize]| match (end, goal) {
            (Some(e), _) => now < e,
            (_, Some(g)) => next[s] < g,
            _ => false,
        };
        for s in 0..sessions {
            if open[s].is_none() && more(s, &next) {
                let t = server.submit(ids[s], obs_at(streams, s, next[s])).expect("under the cap");
                open[s] = Some((t, Instant::now()));
            }
        }
        if open.iter().all(Option::is_none) {
            return;
        }
        leg.tick(&mut server, fleet);
        let now = Instant::now();
        for s in 0..sessions {
            let Some((t, at)) = open[s] else { continue };
            match server.poll_status(t) {
                TicketStatus::Served(_) => {
                    leg.latencies_ms.push((now - at).as_secs_f64() * 1e3);
                    if end.is_some_and(|e| now <= e) {
                        leg.completed_in_window += 1;
                    }
                }
                TicketStatus::Failed => leg.failed += 1,
                _ => continue,
            }
            next[s] += 1;
            open[s] = None;
        }
        if let (Some(r), Some(calls)) = (replay.as_deref_mut(), leg.calls.last()) {
            r.run(fleet, &layers::batches(calls));
        }
    };
    run(&mut Leg::default(), None, Some(warm_rounds), None);
    let mut leg = Leg::default();
    let _ = fleet.take_calls();
    let d0 = nt_tensor::pool::stats().dispatches;
    let t0 = Instant::now();
    run(&mut leg, Some(t0 + wall), None, Some(replayer));
    leg.wall = wall;
    leg.pool_dispatches = nt_tensor::pool::stats().dispatches - d0;
    for id in ids {
        let _ = server.leave(id);
    }
    leg
}

/// Open loop: `sched` replayed in real time, each arrival submitted when
/// due; a tick runs whenever arrivals are pending.
pub fn open<'m>(
    fleet: &TimedFleet<'m>,
    mut server: ShardedServer<TimedFleet<'m>>,
    sched: &Schedule,
    streams: &ObsStreams,
) -> Leg {
    let n = sched.sessions;
    let mut ids: Vec<Option<u64>> = vec![None; n];
    let mut next = vec![0usize; n];
    let mut queued: Vec<VecDeque<(Ticket, Instant)>> = vec![VecDeque::new(); n];
    let mut leaving = vec![false; n];
    let mut leg = Leg::default();
    let d0 = nt_tensor::pool::stats().dispatches;
    let start = Instant::now();
    let end = start + sched.wall;
    let mut cursor = 0usize;
    loop {
        let now = Instant::now();
        while let Some(&(offset, ev)) = sched.events.get(cursor) {
            let due = start + offset;
            if due > now {
                break;
            }
            cursor += 1;
            match ev {
                Event::Join(s) => ids[s] = Some(server.join_group(fleet, kind_of(s))),
                Event::Arrive(s) => {
                    let id = ids[s].expect("arrivals fall inside the session's life");
                    let t = server.submit(id, obs_at(streams, s, next[s])).expect("under the cap");
                    next[s] += 1;
                    queued[s].push_back((t, due));
                }
                Event::Leave(s) => leaving[s] = true,
            }
        }
        if cursor == sched.events.len() {
            leaving.iter_mut().zip(&ids).for_each(|(l, id)| *l |= id.is_some());
        }
        for s in 0..n {
            if leaving[s] && queued[s].is_empty() {
                if let Some(id) = ids[s].take() {
                    assert!(server.leave(id).is_clean(), "a drained session left work behind");
                }
            }
        }
        if server.pending() > 0 {
            leg.tick(&mut server, fleet);
            let now = Instant::now();
            for q in queued.iter_mut() {
                while let Some(&(t, due)) = q.front() {
                    match server.poll_status(t) {
                        TicketStatus::Served(_) => {
                            leg.latencies_ms.push((now - due).as_secs_f64() * 1e3);
                            if now <= end {
                                leg.completed_in_window += 1;
                            }
                        }
                        TicketStatus::Failed => leg.failed += 1,
                        _ => break,
                    }
                    q.pop_front();
                }
            }
        } else if cursor == sched.events.len() {
            if ids.iter().all(Option::is_none) {
                break;
            }
        } else {
            let due = start + sched.events[cursor].0;
            std::thread::sleep(due.saturating_duration_since(now).min(Duration::from_millis(1)));
        }
    }
    leg.wall = sched.wall;
    leg.pool_dispatches = nt_tensor::pool::stats().dispatches - d0;
    leg
}
