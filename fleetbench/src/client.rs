//! Wire clients for the socket legs. Both loops frame their own bytes
//! with `netllm::wire::{encode_frame, decode_frame}`, so the traced run
//! can time the codec on exactly the frames that crossed the socket;
//! untraced runs take the same path without the clock reads.
//!
//! - [`ClosedLoop`]: one thread, one connection, exactly one outstanding
//!   decision per session — a player that waits for its bitrate before
//!   fetching the next chunk.
//! - [`open_loop`]: two threads on one connection. A sender walks a
//!   precomputed schedule of joins, arrivals and leaves and submits each
//!   arrival when it is due, whatever is still outstanding; the receiver
//!   times every decision from its due time.

use crate::schedule::{Event, Schedule};
use netllm::wire::{decode_frame, encode_frame};
use netllm::{
    read_frame, write_frame, FleetObs, Frame, MetricsSnapshot, WireClient, MIN_WIRE_VERSION,
    WIRE_VERSION,
};
use nt_bench::{kind_of, ObsStreams};
use std::collections::{HashMap, VecDeque};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Busy refusals one decision may meet before it counts as never granted.
const MAX_RETRIES: u32 = 200;
/// Longest a loop waits on the server before it declares it hung.
const HANG: Duration = Duration::from_secs(60);

/// Codec timing and byte counts of one connection.
#[derive(Clone, Copy, Debug, Default)]
pub struct Codec {
    pub submit_encode_ns: u64,
    pub submits: u64,
    pub completion_decode_ns: u64,
    pub completions: u64,
    pub bytes_out: u64,
    pub bytes_in: u64,
}

impl Codec {
    /// Both halves of a connection together.
    fn join(tx: &Codec, rx: &Codec) -> Codec {
        Codec {
            submit_encode_ns: tx.submit_encode_ns,
            submits: tx.submits,
            completion_decode_ns: rx.completion_decode_ns,
            completions: rx.completions,
            bytes_out: tx.bytes_out,
            bytes_in: rx.bytes_in,
        }
    }

    /// What accumulated since `earlier`.
    fn since(&self, earlier: &Codec) -> Codec {
        Codec {
            submit_encode_ns: self.submit_encode_ns - earlier.submit_encode_ns,
            submits: self.submits - earlier.submits,
            completion_decode_ns: self.completion_decode_ns - earlier.completion_decode_ns,
            completions: self.completions - earlier.completions,
            bytes_out: self.bytes_out - earlier.bytes_out,
            bytes_in: self.bytes_in - earlier.bytes_in,
        }
    }
}

/// Write half: frames are encoded here and buffered until [`Tx::flush`].
pub struct Tx {
    w: BufWriter<TcpStream>,
    timed: bool,
    codec: Codec,
}

impl Tx {
    pub fn send(&mut self, frame: &Frame) -> io::Result<()> {
        let submit = matches!(frame, Frame::Submit { .. });
        let bytes = if self.timed && submit {
            let t0 = Instant::now();
            let b = encode_frame(frame);
            self.codec.submit_encode_ns += t0.elapsed().as_nanos() as u64;
            self.codec.submits += 1;
            b
        } else {
            encode_frame(frame)
        };
        self.codec.bytes_out += bytes.len() as u64;
        self.w.write_all(&bytes)
    }

    pub fn flush(&mut self) -> io::Result<()> {
        self.w.flush()
    }
}

/// Read half.
pub struct Rx {
    r: BufReader<TcpStream>,
    timed: bool,
    codec: Codec,
    body: Vec<u8>,
}

impl Rx {
    /// Block for the next frame this build knows (extension frames it
    /// does not know are skipped, as the protocol requires).
    pub fn recv(&mut self) -> Result<Frame, String> {
        loop {
            let mut len = [0u8; 4];
            self.r.read_exact(&mut len).map_err(|e| format!("read: {e}"))?;
            let len = u32::from_le_bytes(len) as usize;
            if len == 0 || len > netllm::MAX_FRAME_LEN as usize {
                return Err(format!("bad frame length {len}"));
            }
            self.body.resize(len, 0);
            self.r.read_exact(&mut self.body).map_err(|e| format!("read: {e}"))?;
            self.codec.bytes_in += 4 + len as u64;
            let t0 = self.timed.then(Instant::now);
            let frame = decode_frame(&self.body).map_err(|e| format!("decode: {e:?}"))?;
            if let (Some(t0), Some(Frame::Completion { .. })) = (t0, &frame) {
                self.codec.completion_decode_ns += t0.elapsed().as_nanos() as u64;
                self.codec.completions += 1;
            }
            if let Some(frame) = frame {
                return Ok(frame);
            }
        }
    }

    /// Whether a frame's bytes are already buffered (reading would not
    /// block on the socket).
    pub fn buffered(&self) -> bool {
        !self.r.buffer().is_empty()
    }
}

/// Session `s`'s `i`-th observation; streams that run dry wrap around.
pub fn obs_at(streams: &ObsStreams, s: usize, i: usize) -> FleetObs {
    streams.obs(s, i % streams.len_for(s, usize::MAX).max(1))
}

/// Dial `addr` and run the version handshake.
pub fn connect(addr: SocketAddr, timed: bool) -> Result<(Tx, Rx), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
    stream.set_read_timeout(Some(HANG)).map_err(|e| format!("timeout: {e}"))?;
    let mut hs = &stream;
    write_frame(&mut hs, &Frame::Hello { version: WIRE_VERSION, min_version: MIN_WIRE_VERSION })
        .map_err(|e| format!("hello: {e:?}"))?;
    match read_frame(&mut hs).map_err(|e| format!("hello reply: {e:?}"))? {
        Frame::HelloAck { .. } => {}
        other => return Err(format!("handshake refused: {other:?}")),
    }
    let w = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
    Ok((
        Tx { w: BufWriter::new(w), timed, codec: Codec::default() },
        Rx { r: BufReader::new(stream), timed, codec: Codec::default(), body: Vec::new() },
    ))
}

/// What a measured window produced.
#[derive(Debug, Default)]
pub struct Window {
    /// Decisions submitted in the window (every one must resolve).
    pub attempted: u64,
    /// Decisions that resolved `Failed` or were never granted.
    pub failed: u64,
    /// Completions received inside the window.
    pub completed_in_window: u64,
    /// Window wall time.
    pub wall: Duration,
    /// Client-observed latency (ms) of every completed decision.
    pub latencies_ms: Vec<f64>,
    /// Busy refusals weathered.
    pub busy: u64,
    /// How late the generator sent each arrival (open loop, ms).
    pub late_ms: Vec<f64>,
    /// Codec timing and bytes of the load connection over the window.
    pub codec: Codec,
    /// Scrapes taken during the window (traced runs), oldest first.
    pub scrapes: Vec<MetricsSnapshot>,
}

/// Served answers kept for the correctness check: per sampled session,
/// `(obs index, logits)` in serve order.
pub type Answers = HashMap<usize, Vec<(usize, Vec<f32>)>>;

/// Periodic scrapes on a dedicated connection (traced runs only).
pub struct Scraper {
    client: WireClient,
    every: Duration,
    last: Instant,
}

impl Scraper {
    pub fn new(addr: SocketAddr, every: Duration) -> Result<Self, String> {
        let client = WireClient::connect(addr).map_err(|e| format!("scrape connect: {e:?}"))?;
        Ok(Scraper { client, every, last: Instant::now() })
    }

    pub fn scrape(&mut self) -> Result<MetricsSnapshot, String> {
        self.last = Instant::now();
        self.client.scrape_metrics().map_err(|e| format!("scrape: {e:?}"))
    }

    fn due(&self) -> bool {
        self.last.elapsed() >= self.every
    }
}

/// A closed-loop fleet: `ids.len()` sessions on one connection, each with
/// at most one decision outstanding.
pub struct ClosedLoop<'a> {
    tx: Tx,
    rx: Rx,
    streams: &'a ObsStreams,
    ids: Vec<u64>,
    by_id: HashMap<u64, usize>,
    /// Next observation index per session.
    next: Vec<usize>,
    /// Sessions whose answers the correctness check replays.
    sampled: Vec<bool>,
    pub answers: Answers,
}

/// One submitted, unresolved decision.
#[derive(Clone, Copy)]
struct Pending {
    s: usize,
    i: usize,
    at: Instant,
    retries: u32,
}

impl<'a> ClosedLoop<'a> {
    /// Connect and join `sessions` sessions (mixed via `kind_of`).
    pub fn join(
        addr: SocketAddr,
        sessions: usize,
        streams: &'a ObsStreams,
        sampled: &[usize],
        timed: bool,
    ) -> Result<Self, String> {
        let (mut tx, mut rx) = connect(addr, timed)?;
        for s in 0..sessions {
            tx.send(&Frame::Join { group: kind_of(s) as u32 }).map_err(|e| e.to_string())?;
        }
        tx.flush().map_err(|e| e.to_string())?;
        let mut ids = Vec::with_capacity(sessions);
        while ids.len() < sessions {
            match rx.recv()? {
                Frame::Joined { session, .. } => ids.push(session),
                other => return Err(format!("expected Joined, got {other:?}")),
            }
        }
        let by_id = ids.iter().enumerate().map(|(s, &id)| (id, s)).collect();
        let mut flags = vec![false; sessions];
        for &s in sampled {
            flags[s] = true;
        }
        Ok(ClosedLoop {
            tx,
            rx,
            streams,
            ids,
            by_id,
            next: vec![0; sessions],
            sampled: flags,
            answers: sampled.iter().map(|&s| (s, Vec::new())).collect(),
        })
    }

    fn codec(&self) -> Codec {
        Codec::join(&self.tx.codec, &self.rx.codec)
    }

    /// Turn codec timing on or off for what follows.
    pub fn set_timed(&mut self, timed: bool) {
        self.tx.timed = timed;
        self.rx.timed = timed;
    }

    /// Every session completes `rounds` more decisions (warm-up).
    pub fn rounds(&mut self, rounds: usize) -> Result<Window, String> {
        let goal: Vec<usize> = self.next.iter().map(|n| n + rounds).collect();
        self.drive(|s, next, _| next[s] < goal[s], None, None)
    }

    /// Keep every session busy for `wall`, then let the outstanding
    /// decisions resolve.
    pub fn window(
        &mut self,
        wall: Duration,
        scraper: Option<&mut Scraper>,
    ) -> Result<Window, String> {
        let t0 = Instant::now();
        let end = t0 + wall;
        self.drive(move |_, _, now| now < end, Some(end), scraper)
    }

    fn submit(&mut self, s: usize, retries: u32, q: &mut VecDeque<Pending>) -> Result<(), String> {
        let i = self.next[s];
        let frame = Frame::Submit { session: self.ids[s], obs: obs_at(self.streams, s, i) };
        self.tx.send(&frame).map_err(|e| format!("submit: {e}"))?;
        q.push_back(Pending { s, i, at: Instant::now(), retries });
        Ok(())
    }

    /// The loop: `more(s, next, now)` says whether session `s` submits
    /// again. With `end`, only completions before it count as in-window.
    fn drive(
        &mut self,
        more: impl Fn(usize, &[usize], Instant) -> bool,
        end: Option<Instant>,
        mut scraper: Option<&mut Scraper>,
    ) -> Result<Window, String> {
        let codec0 = self.codec();
        let mut out = Window::default();
        if let Some(sc) = scraper.as_deref_mut() {
            out.scrapes.push(sc.scrape()?);
        }
        let t0 = Instant::now();
        let mut grants: VecDeque<Pending> = VecDeque::new();
        let mut open: HashMap<u64, Pending> = HashMap::new();
        for s in 0..self.ids.len() {
            if more(s, &self.next, t0) {
                self.submit(s, 0, &mut grants)?;
                out.attempted += 1;
            }
        }
        self.tx.flush().map_err(|e| e.to_string())?;
        while !grants.is_empty() || !open.is_empty() {
            let frame = self.rx.recv()?;
            let now = Instant::now();
            match frame {
                Frame::TicketGrant { ticket, .. } => {
                    let p = grants.pop_front().ok_or("grant without a submit")?;
                    open.insert(ticket, p);
                }
                Frame::Busy { retry_after_ms, .. } => {
                    // Not expected under these workloads' caps; pace and
                    // resubmit so the loop stays closed.
                    let p = grants.pop_front().ok_or("Busy without a submit")?;
                    out.busy += 1;
                    if p.retries >= MAX_RETRIES {
                        out.failed += 1;
                        self.next[p.s] += 1;
                    } else {
                        std::thread::sleep(Duration::from_millis(retry_after_ms.into()));
                        self.submit(p.s, p.retries + 1, &mut grants)?;
                    }
                }
                Frame::Completion { ticket, session, logits, .. } => {
                    let p = open.remove(&ticket).ok_or("completion for an unknown ticket")?;
                    if self.by_id.get(&session) != Some(&p.s) {
                        return Err(format!("ticket {ticket} completed for the wrong session"));
                    }
                    out.latencies_ms.push((now - p.at).as_secs_f64() * 1e3);
                    if end.is_none_or(|e| now <= e) {
                        out.completed_in_window += 1;
                    }
                    if self.sampled[p.s] {
                        self.answers.get_mut(&p.s).expect("sampled").push((p.i, logits));
                    }
                    self.next[p.s] += 1;
                    if more(p.s, &self.next, now) {
                        self.submit(p.s, 0, &mut grants)?;
                        out.attempted += 1;
                    }
                }
                Frame::Failed { ticket, .. } => {
                    let p = open.remove(&ticket).ok_or("failure for an unknown ticket")?;
                    out.failed += 1;
                    self.next[p.s] += 1;
                    if more(p.s, &self.next, now) {
                        self.submit(p.s, 0, &mut grants)?;
                        out.attempted += 1;
                    }
                }
                other => return Err(format!("unexpected frame in a closed loop: {other:?}")),
            }
            if !self.rx.buffered() {
                self.tx.flush().map_err(|e| e.to_string())?;
                if let Some(sc) = scraper.as_deref_mut() {
                    if sc.due() && end.is_some_and(|e| Instant::now() < e) {
                        out.scrapes.push(sc.scrape()?);
                    }
                }
            }
        }
        out.wall = match end {
            Some(e) => e.min(Instant::now()) - t0,
            None => t0.elapsed(),
        };
        if let Some(sc) = scraper {
            out.scrapes.push(sc.scrape()?);
        }
        out.codec = self.codec().since(&codec0);
        Ok(out)
    }

    /// Leave every session, wait for the acks, and say goodbye.
    pub fn close(mut self) -> Result<(), String> {
        for &id in &self.ids {
            self.tx.send(&Frame::Leave { session: id }).map_err(|e| e.to_string())?;
        }
        self.tx.flush().map_err(|e| e.to_string())?;
        let mut acks = 0;
        while acks < self.ids.len() {
            match self.rx.recv()? {
                Frame::LeaveAck { dropped: 0, .. } => acks += 1,
                other => return Err(format!("expected a clean LeaveAck, got {other:?}")),
            }
        }
        self.tx.send(&Frame::Bye).map_err(|e| e.to_string())?;
        self.tx.flush().map_err(|e| e.to_string())
    }
}

/// Where an open-loop session is in its life, sender side.
#[derive(Clone, Copy, Debug)]
enum Sess {
    Unborn,
    /// `Join` sent, `Joined` not yet adopted.
    Joining,
    Live(u64),
    Gone,
}

/// Sender ↔ receiver state of an open loop.
#[derive(Default)]
struct OpenShared {
    /// Submitted, not yet granted: `(session, obs index, due, retries)`.
    grants: VecDeque<(usize, usize, Instant, u32)>,
    /// Granted-or-pending decisions per session.
    outstanding: Vec<u32>,
    /// Joins sent, awaiting `Joined`, in send order.
    joins: VecDeque<usize>,
    /// Busy-refused decisions to resend at `.4`.
    retries: Vec<(usize, usize, Instant, u32, Instant)>,
    /// Decisions that exhausted their retries.
    never_granted: u64,
    /// Set before the sender's `Bye`: the socket closing is then expected.
    done: bool,
}

/// Run `sched` against the ingress at `addr`: a sender thread submits
/// each arrival when it falls due, this thread receives. Latency runs
/// from the due time. Answers of the `sampled` sessions are kept.
pub fn open_loop(
    addr: SocketAddr,
    sched: &Schedule,
    streams: &ObsStreams,
    sampled: &[usize],
    timed: bool,
    mut scraper: Option<&mut Scraper>,
) -> Result<(Window, Answers), String> {
    let (mut tx, mut rx) = connect(addr, timed)?;
    let n = sched.sessions;
    let shared =
        Arc::new(Mutex::new(OpenShared { outstanding: vec![0; n], ..OpenShared::default() }));
    let (id_tx, id_rx) = mpsc::channel::<(usize, u64)>();
    let mut out = Window { attempted: sched.arrivals() as u64, ..Window::default() };
    if let Some(sc) = scraper.as_deref_mut() {
        out.scrapes.push(sc.scrape()?);
    }
    let start = Instant::now();
    let end = start + sched.wall;
    let mut answers: Answers = sampled.iter().map(|&s| (s, Vec::new())).collect();

    let lock = || shared.lock().expect("open-loop state poisoned");
    let (sent, received) = std::thread::scope(|scope| {
        let sender = scope.spawn(|| -> Result<(Codec, Vec<f64>, Vec<MetricsSnapshot>), String> {
            let id_rx = id_rx; // moved in: a receiver is not Sync
            let io = |e: io::Error| format!("send: {e}");
            let mut sess = vec![Sess::Unborn; n];
            // Arrivals of sessions whose join is still in flight.
            let mut waiting: Vec<Vec<(usize, Instant)>> = vec![Vec::new(); n];
            let mut next = vec![0usize; n];
            let mut leaving = vec![false; n];
            let mut late_ms = Vec::with_capacity(sched.arrivals());
            let mut scrapes = Vec::new();
            let submit = |tx: &mut Tx, id: u64, s: usize, i: usize| {
                tx.send(&Frame::Submit { session: id, obs: obs_at(streams, s, i) }).map_err(io)
            };
            // Everything not tied to the next event: adopt answered joins
            // (and send what waited on them), resend due retries, send
            // the leaves whose sessions drained, and flush.
            let chores = |tx: &mut Tx,
                          sess: &mut [Sess],
                          waiting: &mut [Vec<(usize, Instant)>],
                          leaving: &[bool],
                          late_ms: &mut Vec<f64>|
             -> Result<(), String> {
                while let Ok((s, id)) = id_rx.try_recv() {
                    sess[s] = Sess::Live(id);
                    for (i, due) in waiting[s].drain(..) {
                        lock().grants.push_back((s, i, due, 0));
                        submit(tx, id, s, i)?;
                        late_ms.push(due.elapsed().as_secs_f64() * 1e3);
                    }
                }
                let now = Instant::now();
                let mut st = lock();
                let (due, wait): (Vec<_>, Vec<_>) = st.retries.drain(..).partition(|r| r.4 <= now);
                st.retries = wait;
                for (s, i, at, tries, _) in due {
                    st.grants.push_back((s, i, at, tries));
                    let Sess::Live(id) = sess[s] else {
                        unreachable!("granted work has a session")
                    };
                    submit(tx, id, s, i)?;
                }
                for s in 0..n {
                    if let (true, 0, Sess::Live(id)) = (leaving[s], st.outstanding[s], sess[s]) {
                        sess[s] = Sess::Gone;
                        tx.send(&Frame::Leave { session: id }).map_err(io)?;
                    }
                }
                drop(st);
                tx.flush().map_err(io)
            };
            for &(offset, ev) in &sched.events {
                let due = start + offset;
                loop {
                    chores(&mut tx, &mut sess, &mut waiting, &leaving, &mut late_ms)?;
                    let now = Instant::now();
                    if now >= due {
                        break;
                    }
                    if let Some(sc) = scraper.as_deref_mut() {
                        if sc.due() {
                            scrapes.push(sc.scrape()?);
                            continue;
                        }
                    }
                    std::thread::sleep((due - now).min(Duration::from_millis(1)));
                }
                match ev {
                    Event::Join(s) => {
                        // Not waited for: the answer is adopted by a later
                        // round of chores, and this session's arrivals wait
                        // for it (their latency still runs from due time).
                        sess[s] = Sess::Joining;
                        lock().joins.push_back(s);
                        tx.send(&Frame::Join { group: kind_of(s) as u32 }).map_err(io)?;
                    }
                    Event::Arrive(s) => {
                        let i = next[s];
                        next[s] += 1;
                        lock().outstanding[s] += 1;
                        match sess[s] {
                            Sess::Live(id) => {
                                lock().grants.push_back((s, i, due, 0));
                                submit(&mut tx, id, s, i)?;
                                late_ms.push(due.elapsed().as_secs_f64() * 1e3);
                            }
                            Sess::Joining => waiting[s].push((i, due)),
                            _ => unreachable!("arrivals fall inside the session's life"),
                        }
                    }
                    Event::Leave(s) => leaving[s] = true,
                }
            }
            // The window is over: every session still here leaves once it
            // drained, then the connection closes.
            leaving.fill(true);
            let deadline = Instant::now() + HANG;
            loop {
                chores(&mut tx, &mut sess, &mut waiting, &leaving, &mut late_ms)?;
                if sess.iter().all(|x| matches!(x, Sess::Unborn | Sess::Gone)) {
                    break;
                }
                if Instant::now() > deadline {
                    return Err("open loop did not drain".into());
                }
                std::thread::sleep(Duration::from_micros(200));
            }
            lock().done = true;
            tx.send(&Frame::Bye).map_err(io)?;
            tx.flush().map_err(io)?;
            Ok((tx.codec, late_ms, scrapes))
        });

        // Receiver: this thread.
        let mut open: HashMap<u64, (usize, usize, Instant)> = HashMap::new();
        let mut stats = (0u64, 0u64, 0u64, Vec::new()); // in-window, failed, busy, latencies
        let res = loop {
            let frame = match rx.recv() {
                Ok(f) => f,
                Err(e) if lock().done => break Ok(e),
                Err(e) => break Err(format!("open loop: {e}")),
            };
            let now = Instant::now();
            match frame {
                Frame::Joined { session, .. } => {
                    let Some(s) = lock().joins.pop_front() else {
                        break Err("Joined without a join".into());
                    };
                    let _ = id_tx.send((s, session));
                }
                Frame::TicketGrant { ticket, .. } => {
                    let Some((s, i, due, _)) = lock().grants.pop_front() else {
                        break Err("grant without a submit".into());
                    };
                    open.insert(ticket, (s, i, due));
                }
                Frame::Busy { retry_after_ms, .. } => {
                    stats.2 += 1;
                    let mut st = lock();
                    let Some((s, i, due, tries)) = st.grants.pop_front() else {
                        break Err("Busy without a submit".into());
                    };
                    if tries >= MAX_RETRIES {
                        st.never_granted += 1;
                        st.outstanding[s] -= 1;
                    } else {
                        let at = now + Duration::from_millis(retry_after_ms.into());
                        st.retries.push((s, i, due, tries + 1, at));
                    }
                }
                Frame::Completion { ticket, logits, .. } => {
                    let Some((s, i, due)) = open.remove(&ticket) else {
                        break Err("completion for an unknown ticket".into());
                    };
                    lock().outstanding[s] -= 1;
                    stats.3.push((now - due).as_secs_f64() * 1e3);
                    if now <= end {
                        stats.0 += 1;
                    }
                    if let Some(a) = answers.get_mut(&s) {
                        a.push((i, logits));
                    }
                }
                Frame::Failed { ticket, .. } => {
                    let Some((s, _, _)) = open.remove(&ticket) else {
                        break Err("failure for an unknown ticket".into());
                    };
                    lock().outstanding[s] -= 1;
                    stats.1 += 1;
                }
                Frame::LeaveAck { dropped: 0, .. } => {}
                other => break Err(format!("unexpected frame in the open loop: {other:?}")),
            }
        };
        let sent = sender.join().map_err(|_| "sender panicked".to_string()).and_then(|r| r);
        (sent, res.map(|_| (open.len(), stats)))
    });
    let (tx_codec, late_ms, scrapes) = sent?;
    let (unresolved, (in_window, failed, busy, latencies)) = received?;
    if unresolved > 0 {
        return Err(format!("{unresolved} granted tickets never resolved"));
    }
    out.wall = sched.wall;
    out.completed_in_window = in_window;
    out.failed = failed + lock().never_granted;
    out.busy = busy;
    out.latencies_ms = latencies;
    out.late_ms = late_ms;
    out.codec = Codec::join(&tx_codec, &rx.codec);
    out.scrapes.extend(scrapes);
    if let Some(sc) = scraper {
        out.scrapes.push(sc.scrape()?);
    }
    Ok((out, answers))
}
