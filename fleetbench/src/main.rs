//! fleetbench: socket-to-decision benchmark of the NetLLM serving fleet.
//!
//! ```text
//! fleetbench --workload <fleet_dense|kv_tight|ingress_churn> --seed <n> \
//!            --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root (it reads `crates/` for the environment
//! block). An untraced run (`--trace 0`) serves the workload through the
//! real `netllm::serve` ingress over loopback and prints the end-to-end
//! metrics; a traced run (`--trace 1`) prints the per-layer metrics.
//! Either way the served decisions are checked, and the last line of
//! standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! The exit code is 0 only when every check passed.

#![forbid(unsafe_code)]

mod client;
mod env;
mod estimate;
mod inproc;
mod layers;
mod oracle;
mod schedule;
mod spans;
mod workload;
mod wrap;

use client::{Answers, ClosedLoop, Scraper, Window};
use estimate::median;
use netllm::{serve, IngressHandle, MetricsSnapshot, NetLlmFleet, TickPhase};
use nt_bench::stats::mean;
use nt_bench::stats::percentile;
use nt_bench::ObsStreams;
use nt_llm::{PageConfig, PagePool};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Load, Workload};
use wrap::{Call, TimedFleet};

/// Kernel worker threads the whole run uses. One: on a two-thread host
/// the client, the ingress threads and the scheduler already fill both
/// hardware threads (a probe of the socket leg saw 6.0k-7.6k decisions/s
/// with two workers and 4.1k-4.6k with one), and with one worker the
/// tick phases add up to the tick.
const NT_THREADS: &str = "1";
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Observations generated per closed-loop session (streams wrap around).
const STREAM_LEN: usize = 256;
/// Observations generated per open-loop session.
const OPEN_STREAM_LEN: usize = 32;
/// Sessions per kind whose answers the correctness check replays: a
/// closed-loop session serves hundreds of decisions, an open-loop one a
/// handful.
const SAMPLED_PER_KIND: [usize; 2] = [2, 8];
/// Scrape period of the traced socket leg.
const SCRAPE_EVERY: Duration = Duration::from_millis(100);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::by_name(&value).ok_or(format!("no workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Metrics in print order: `(name, value, unit)`.
type Metrics = Vec<(String, f64, &'static str)>;

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
    notes: Vec<String>,
}

fn main() -> ExitCode {
    // Fixed before anything touches the kernel pool (read once per
    // process).
    std::env::set_var("NT_THREADS", NT_THREADS);
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fleetbench: {e}");
            return ExitCode::from(2);
        }
    };
    let root = std::env::current_dir().expect("a working directory");
    let w = args.workload;
    println!(
        "fleetbench workload={} seed={} seconds={} trace={}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("env {}", env::block(&root));
    let wall = Duration::from_secs(args.seconds);
    let result = if args.trace {
        traced(&root, w, args.seed, wall)
    } else {
        untraced(&root, w, args.seed, wall)
    };
    let out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("fleetbench: {} failed: {e}", w.name);
            return ExitCode::from(1);
        }
    };
    for note in &out.notes {
        println!("note {note}");
    }
    for (name, value, unit) in &out.metrics {
        println!("metric {name:<34} {value:>14.6} {unit}");
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(n, v, u)| {
            format!("{}:{{\"value\":{},\"unit\":{}}}", env::json_str(n), num(*v), env::json_str(u))
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(",")
    );
    if out.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("fleetbench: {} served incorrect decisions", w.name);
        ExitCode::from(1)
    }
}

/// A JSON number (non-finite values, which no metric should produce,
/// print as 0 so the line stays parseable).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Where models would be cached (the random-init zoo never writes).
fn zoo_dir(root: &Path) -> PathBuf {
    root.join(".bench_build").join("zoo")
}

/// Peak resident set of this process (VmHWM), MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host-wide `(steal, total)` CPU jiffies from `/proc/stat`: time the
/// hypervisor gave this VM's vCPUs to someone else, the main source of
/// run-to-run noise on small cloud VMs.
fn cpu_steal() -> Option<(f64, f64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().find(|l| l.starts_with("cpu "))?;
    let v: Vec<f64> = cpu.split_whitespace().skip(1).filter_map(|x| x.parse().ok()).collect();
    Some((*v.get(7)?, v.iter().sum()))
}

/// `x / y`, or 0 when `y` is not positive.
fn ratio(x: f64, y: f64) -> f64 {
    if y > 0.0 {
        x / y
    } else {
        0.0
    }
}

/// Sessions whose answers the correctness check replays: a seeded pick
/// of `per_kind` per kind among `candidates` (ascending).
fn sampled(seed: u64, candidates: &[usize], per_kind: usize) -> Vec<usize> {
    let mut rng = nt_tensor::Rng::seeded(seed ^ 0x004A_C1E5);
    let mut out = Vec::new();
    for kind in [netllm::FLEET_ABR, netllm::FLEET_CJS, netllm::FLEET_VP] {
        let mut of_kind: Vec<usize> =
            candidates.iter().copied().filter(|&s| nt_bench::kind_of(s) == kind).collect();
        for _ in 0..per_kind.min(of_kind.len()) {
            out.push(of_kind.swap_remove(rng.below(of_kind.len())));
        }
    }
    out.sort_unstable();
    out
}

/// The inputs a seed determines.
struct Inputs {
    streams: ObsStreams,
    sampled: Vec<usize>,
    /// Open loops only: the schedule and the warm-up fleet's streams.
    schedule: Option<schedule::Schedule>,
    warm_streams: Option<ObsStreams>,
}

fn inputs(w: Workload, seed: u64, wall: Duration) -> Inputs {
    match w.load {
        Load::Closed { sessions } => Inputs {
            streams: ObsStreams::generate(sessions, STREAM_LEN, seed),
            sampled: sampled(seed, &(0..sessions).collect::<Vec<_>>(), SAMPLED_PER_KIND[0]),
            schedule: None,
            warm_streams: None,
        },
        Load::Open { sessions, .. } => {
            let sched = w.schedule(seed, wall).expect("an open loop has a schedule");
            // Sample among sessions with a few arrivals to check.
            let mut arrivals = vec![0usize; sessions];
            for (_, e) in &sched.events {
                if let schedule::Event::Arrive(s) = e {
                    arrivals[*s] += 1;
                }
            }
            let busy: Vec<usize> = (0..sessions).filter(|&s| arrivals[s] >= 4).collect();
            Inputs {
                streams: ObsStreams::generate(sessions, OPEN_STREAM_LEN, seed),
                sampled: sampled(seed, &busy, SAMPLED_PER_KIND[1]),
                schedule: Some(sched),
                warm_streams: Some(ObsStreams::generate(
                    workload::OPEN_WARM_SESSIONS,
                    OPEN_STREAM_LEN,
                    seed ^ 0x3A3A,
                )),
            }
        }
    }
}

/// A served fleet after set-up: the ingress, and for closed loops the
/// connected, warmed client.
struct Served<'a> {
    handle: IngressHandle,
    client: Option<ClosedLoop<'a>>,
}

/// Model build, `serve`, connect, joins and warm-up: everything up to the
/// first timed submit.
fn set_up<'a>(root: &Path, w: Workload, inp: &'a Inputs) -> Result<Served<'a>, String> {
    let models = w.models(&zoo_dir(root));
    let cfg = w.ingress(&models.abr.lm);
    let handle = serve(models, cfg).map_err(|e| format!("serve: {e}"))?;
    let addr = handle.addr();
    let client = match w.load {
        Load::Closed { sessions } => {
            let mut c = ClosedLoop::join(addr, sessions, &inp.streams, &inp.sampled, false)?;
            c.rounds(w.warm_rounds)?;
            Some(c)
        }
        Load::Open { .. } => {
            let warm = inp.warm_streams.as_ref().expect("open loops warm up");
            let mut c = ClosedLoop::join(addr, workload::OPEN_WARM_SESSIONS, warm, &[], false)?;
            c.rounds(w.warm_rounds)?;
            c.close()?;
            None
        }
    };
    Ok(Served { handle, client })
}

/// Close the client, check the ingress saw no protocol error, and stop it.
fn tear_down(served: Served) -> Result<u64, String> {
    if let Some(c) = served.client {
        c.close()?;
    }
    let errors = served.handle.stats().protocol_errors;
    served.handle.shutdown();
    Ok(errors)
}

/// Decisions per second of a window.
fn dps(win: &Window) -> f64 {
    win.completed_in_window as f64 / win.wall.as_secs_f64()
}

/// One socket window on a set-up fleet; open loops also return their
/// answers (closed loops keep theirs on the client).
fn socket_window(
    served: &mut Served,
    inp: &Inputs,
    sched: Option<&schedule::Schedule>,
    wall: Duration,
    timed: bool,
    scraper: Option<&mut Scraper>,
) -> Result<(Window, Answers), String> {
    match served.client.as_mut() {
        Some(c) => {
            c.set_timed(timed);
            Ok((c.window(wall, scraper)?, Answers::new()))
        }
        None => client::open_loop(
            served.handle.addr(),
            sched.expect("an open loop has a schedule"),
            &inp.streams,
            &inp.sampled,
            timed,
            scraper,
        ),
    }
}

/// Replay the sampled sessions' answers in-process.
fn check_answers(
    root: &Path,
    w: Workload,
    inp: &Inputs,
    answers: &[&Answers],
) -> Result<oracle::Checked, String> {
    let models = w.models(&zoo_dir(root));
    let fleet = NetLlmFleet { abr: &models.abr, cjs: &models.cjs, vp: &models.vp };
    let mut total = oracle::Checked::default();
    for a in answers {
        let c = oracle::check(&fleet, &inp.streams, a, w.pool_pages.is_some())?;
        total.sessions += c.sessions;
        total.decisions += c.decisions;
        total.cleared_steps += c.cleared_steps;
        total.evicted_sessions += c.evicted_sessions;
    }
    if total.decisions == 0 {
        return Err("the correctness sample served no decisions".into());
    }
    Ok(total)
}

fn untraced(root: &Path, w: Workload, seed: u64, wall: Duration) -> Result<Outcome, String> {
    let inp = inputs(w, seed, wall);
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut served = None;
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let s = set_up(root, w, &inp)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if rep + 1 < SETUP_REPS {
            if tear_down(s)? > 0 {
                return Err("protocol errors during set-up".into());
            }
        } else {
            served = Some(s);
        }
    }
    let mut served = served.expect("at least one set-up");
    let steal0 = cpu_steal();
    let (win, open_answers) =
        socket_window(&mut served, &inp, inp.schedule.as_ref(), wall, false, None)?;
    let steal = steal0.zip(cpu_steal()).map(|(a, b)| ratio(b.0 - a.0, b.1 - a.1));
    let rss = peak_rss_mb();
    let answers = served.client.as_mut().map_or(open_answers, |c| std::mem::take(&mut c.answers));
    let protocol_errors = tear_down(served)?;
    let checked = check_answers(root, w, &inp, &[&answers])?;

    let lat = &win.latencies_ms;
    let (q1, q2, q3) = estimate::quartiles(lat).ok_or("fewer than two decisions completed")?;
    let (tail_p, tail) = estimate::supported_tail(lat).ok_or("no latency tail is supported")?;
    let within = lat.iter().filter(|&&l| l <= w.limit_ms).count() as f64;
    let mut notes = vec![
        format!("nt_threads={NT_THREADS} setup_reps={SETUP_REPS} limit_ms={}", w.limit_ms),
        format!(
            "latency samples={} q1/q2/q3={q1:.3}/{q2:.3}/{q3:.3} p90={:.3} p99={:.3} \
             max={:.3} ms; highest percentile with {}+ samples beyond: p{:.1}={tail:.3} ms; \
             busy={}",
            lat.len(),
            percentile(lat, 0.9),
            percentile(lat, 0.99),
            percentile(lat, 1.0),
            estimate::TAIL_MIN_BEYOND,
            tail_p * 100.0,
            win.busy
        ),
        format!("setup_s reps={setup_s:?}"),
        format!(
            "cpu steal during the window: {}",
            steal.map_or("unknown".into(), |f| format!("{:.1}%", 100.0 * f))
        ),
        format!(
            "checked {} decisions of {} sessions at {}; {} steps of {} sessions matched from a \
             cleared cache (evictions)",
            checked.decisions,
            checked.sessions,
            oracle::TOLERANCE,
            checked.cleared_steps,
            checked.evicted_sessions
        ),
    ];
    if let Load::Open { rate, sessions, .. } = w.load {
        notes.push(format!(
            "open loop: offered {rate}/s over {sessions} heavy-tail sessions; generator late \
             p50/p99/max={:.3}/{:.3}/{:.3} ms",
            percentile(&win.late_ms, 0.5),
            percentile(&win.late_ms, 0.99),
            percentile(&win.late_ms, 1.0)
        ));
    }
    if protocol_errors > 0 {
        notes.push(format!("ingress counted {protocol_errors} protocol errors"));
    }
    Ok(Outcome {
        correct: protocol_errors == 0,
        attempted: win.attempted,
        failed: win.failed,
        metrics: vec![
            ("decisions_per_s".into(), dps(&win), "1/s"),
            ("latency_p50_ms".into(), percentile(lat, 0.5), "ms"),
            ("within_limit_frac".into(), within / win.attempted.max(1) as f64, "1"),
            ("setup_s".into(), median(&setup_s), "s"),
            ("peak_rss_mb".into(), rss, "MB"),
        ],
        notes,
    })
}

/// Counter deltas between the first and last scrape of a window.
struct Scraped<'a> {
    first: &'a MetricsSnapshot,
    last: &'a MetricsSnapshot,
    all: &'a [MetricsSnapshot],
}

impl Scraped<'_> {
    fn phase_ns(&self, phase: TickPhase, shard: Option<usize>) -> f64 {
        let total = |m: &MetricsSnapshot| -> u64 {
            let rows = m.shard_phases.iter().enumerate();
            rows.filter(|(s, _)| shard.is_none_or(|x| x == *s))
                .map(|(_, p)| p[phase as usize].total_ns)
                .sum()
        };
        (total(self.last) - total(self.first)) as f64
    }
}

fn traced(root: &Path, w: Workload, seed: u64, wall: Duration) -> Result<Outcome, String> {
    let half = wall / 2;
    let inp = inputs(w, seed, half);
    let sched = inp.schedule.as_ref();
    let mut served = set_up(root, w, &inp)?;

    // Leg A, untraced: the baseline of trace.overhead_frac and of the
    // socket side of ingress.overhead_ms.p50.
    let (a, answers_a) = socket_window(&mut served, &inp, sched, half, false, None)?;
    // Leg B, traced: codec timing and scrapes at the window edges and
    // every SCRAPE_EVERY.
    let mut scraper = Scraper::new(served.handle.addr(), SCRAPE_EVERY)?;
    let (b, answers_b) = socket_window(&mut served, &inp, sched, half, true, Some(&mut scraper))?;
    drop(scraper);
    let closed_answers = served.client.as_mut().map(|c| std::mem::take(&mut c.answers));
    let protocol_errors_seen = tear_down(served)?;
    let to_check = match &closed_answers {
        Some(a) => vec![a],
        None => vec![&answers_a, &answers_b],
    };
    let checked = check_answers(root, w, &inp, &to_check)?;

    // Leg C, in-process over the timing wrapper, same schedule.
    let models = w.models(&zoo_dir(root));
    let timed = TimedFleet::new(NetLlmFleet { abr: &models.abr, cjs: &models.cjs, vp: &models.vp });
    let server = w.server(&models.abr.lm);
    let replay_pool = w.pool_pages.map(|_| {
        let cfg = PageConfig { page_tokens: workload::PAGE_TOKENS, budget_bytes: 256 << 20 };
        PagePool::for_model(&models.abr.lm, cfg)
    });
    let mut replayer = layers::Replayer::new(replay_pool.as_ref());
    let c = match (w.load, sched) {
        (Load::Closed { sessions }, _) => inproc::closed(
            &timed,
            server,
            sessions,
            &inp.streams,
            w.warm_rounds,
            half,
            &mut replayer,
        ),
        (Load::Open { .. }, Some(s)) => {
            let leg = inproc::open(&timed, server, s, &inp.streams);
            for calls in &leg.calls {
                replayer.run(&timed, &layers::batches(calls));
            }
            leg
        }
        (Load::Open { .. }, None) => unreachable!("an open loop has a schedule"),
    };
    let replay = replayer.done;
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or(root.join(".bench_build"), PathBuf::from);
    let span_file = target.join("fleetbench").join(format!("spans-{}-{seed}.jsonl", w.name));
    let span_count = spans::write(&span_file, &c).map_err(|e| format!("writing spans: {e}"))?;
    let batches: Vec<layers::Batch> = c.calls.iter().flat_map(|t| layers::batches(t)).collect();
    let band_rows: Vec<f64> =
        batches.iter().map(|b| b.slots.iter().map(|s| s.1).sum::<usize>() as f64).collect();
    let m = median(&band_rows).max(1.0) as usize;
    let budget = Duration::from_millis(150);
    let gemm: Vec<f64> =
        [48, 144, 192].iter().map(|&n| layers::matmul_gflops(m, 48, n, budget)).collect();
    let dispatch_us = layers::pool_dispatch_us(budget);

    Ok(Outcome {
        correct: protocol_errors_seen == 0,
        attempted: a.attempted + b.attempted,
        failed: a.failed + b.failed,
        metrics: per_layer(w, &a, &b, &c, &replay, &gemm, dispatch_us),
        notes: vec![
            format!(
                "traced legs of {:.1}s each: socket untraced, socket traced, in-process \
                 (nt_threads={NT_THREADS}); backbone replay of {} batches, {} rows, GEMM m={m}",
                half.as_secs_f64(),
                batches.len(),
                replay.rows
            ),
            format!("{span_count} spans of the in-process leg written to {}", span_file.display()),
            format!(
                "open-loop generator late p50/p99/max={:.3}/{:.3}/{:.3} ms (socket legs; 0 on \
                 closed loops)",
                percentile(&a.late_ms, 0.5),
                percentile(&a.late_ms, 0.99),
                percentile(&a.late_ms, 1.0)
            ),
            format!(
                "checked {} decisions of {} sessions at {}; {} cleared-cache steps",
                checked.decisions,
                checked.sessions,
                oracle::TOLERANCE,
                checked.cleared_steps
            ),
        ],
    })
}

/// Every per-layer metric of a traced run.
fn per_layer(
    w: Workload,
    a: &Window,
    b: &Window,
    c: &inproc::Leg,
    replay: &layers::Replay,
    gemm: &[f64],
    dispatch_us: f64,
) -> Metrics {
    let mut m: Metrics = Vec::new();
    let mut put = |name: &str, v: f64, unit: &'static str| m.push((name.to_string(), v, unit));

    // wire
    let k = &b.codec;
    put("wire.encode_us.submit", ratio(k.submit_encode_ns as f64 / 1e3, k.submits as f64), "us");
    put(
        "wire.decode_us.completion",
        ratio(k.completion_decode_ns as f64 / 1e3, k.completions as f64),
        "us",
    );
    put(
        "wire.bytes_per_decision",
        ratio((k.bytes_in + k.bytes_out) as f64, k.completions as f64),
        "bytes",
    );

    // ingress
    let s = Scraped {
        first: b.scrapes.first().expect("edge scrape"),
        last: b.scrapes.last().expect("edge scrape"),
        all: &b.scrapes,
    };
    let (i0, i1) = (&s.first.ingress, &s.last.ingress);
    let ticks = (i1.ticks - i0.ticks) as f64;
    let completions = (i1.completions - i0.completions) as f64;
    let submits = (i1.submits - i0.submits) as f64;
    let busy = (i1.busy - i0.busy) as f64;
    put("ingress.decisions_per_tick", ratio(completions, ticks), "count");
    put("ingress.busy_frac", ratio(busy, submits + busy), "1");
    put("ingress.protocol_errors", (i1.protocol_errors - i0.protocol_errors) as f64, "count");
    put(
        "ingress.overhead_ms.p50",
        percentile(&a.latencies_ms, 0.5) - percentile(&c.latencies_ms, 0.5),
        "ms",
    );

    // shard: scraped phase totals per scheduler tick; fleet-wide phases
    // land on every shard's row, so they are read from shard 0 only.
    let per_tick_ms = |ns: f64| ratio(ns / 1e6, ticks);
    let drain = s.phase_ns(TickPhase::Drain, None);
    let plan_step = s.phase_ns(TickPhase::PlanStep, None);
    let settle = s.phase_ns(TickPhase::Settle, None);
    let guard = s.phase_ns(TickPhase::MemoryGuard, Some(0));
    let steer = s.phase_ns(TickPhase::Steer, Some(0));
    let tick_ns: Vec<f64> = c.ticks.iter().map(|t| t.1 as f64).collect();
    let tick_total: f64 = tick_ns.iter().sum();
    put("shard.tick_ms", mean(&tick_ns) / 1e6, "ms");
    put("shard.drain_ms", per_tick_ms(drain), "ms");
    put("shard.plan_step_ms", per_tick_ms(plan_step), "ms");
    put("shard.settle_ms", per_tick_ms(settle), "ms");
    put("shard.memory_guard_ms", per_tick_ms(guard), "ms");
    put("shard.steer_ms", per_tick_ms(steer), "ms");
    put(
        "shard.busy_frac",
        ratio(drain + plan_step + settle + guard + steer, b.wall.as_nanos() as f64),
        "1",
    );
    let calls = c.calls.iter().flatten();
    let (mut plan_ns, mut settle_ns) = (0u64, 0u64);
    for call in calls.clone() {
        match call {
            Call::Plan { ns, .. } => plan_ns += ns,
            Call::Settle { ns, .. } => settle_ns += ns,
        }
    }
    put(
        "shard.unattributed_frac",
        1.0 - ratio((plan_ns + settle_ns + replay.ns) as f64, tick_total),
        "1",
    );

    // sched: scraped counters per 1k decisions; deferrals are not
    // scraped, so they come from the in-process leg's tick reports.
    let delta = |f: fn(&MetricsSnapshot) -> u64| (f(s.last) - f(s.first)) as f64;
    let per_1k = |x: f64| ratio(1000.0 * x, completions);
    let served_c = c.latencies_ms.len() as f64;
    put("sched.evictions", per_1k(delta(MetricsSnapshot::evicted)), "count/1k");
    put("sched.deferrals", ratio(1000.0 * c.deferred as f64, served_c), "count/1k");
    put("sched.rebuild_rows", per_1k(delta(MetricsSnapshot::evicted_rebuild_rows)), "count/1k");
    put("sched.steers", per_1k(delta(MetricsSnapshot::steered)), "count/1k");
    put("sched.useful_frac", ratio(served_c, served_c + c.deferred as f64), "1");

    // paged: gauges over every scrape of the traced window.
    let held: Vec<f64> = s.all.iter().map(|x| x.held_pages() as f64).collect();
    let free: Vec<f64> = s.all.iter().map(|x| x.pool_free_pages as f64).collect();
    let pooled = w.pool_pages.is_some();
    put("paged.held_pages_peak", held.iter().copied().fold(0.0, f64::max), "count");
    put(
        "paged.free_pages_min",
        if pooled { free.iter().copied().fold(f64::INFINITY, f64::min) } else { 0.0 },
        "count",
    );
    let util: Vec<f64> =
        held.iter().zip(&free).map(|(h, f)| if pooled { ratio(*h, h + f) } else { 0.0 }).collect();
    put("paged.pool_util_frac", mean(&util), "1");

    // serving: the in-process leg's ticks.
    let batch: Vec<f64> = c.ticks.iter().map(|t| t.2 as f64).collect();
    put("serving.batch_size", mean(&batch), "count");
    put("serving.tick_us", median(&tick_ns) / 1e3, "us");

    // multimodal and heads, per kind.
    let mut reanchor_rows = 0usize;
    for (g, kind) in ["abr", "cjs", "vp"].iter().enumerate() {
        let (mut plans, mut p_ns, mut rows, mut reanchors) = (0usize, 0u64, 0usize, 0usize);
        let (mut settles, mut s_ns, mut rollbacks) = (0usize, 0u64, 0usize);
        for call in calls.clone() {
            match *call {
                Call::Plan { group, ns, rows: r, reanchor, .. } if group == g => {
                    plans += 1;
                    p_ns += ns;
                    rows += r;
                    if reanchor {
                        reanchors += 1;
                        reanchor_rows += r;
                    }
                }
                Call::Settle { group, ns, rollback, .. } if group == g => {
                    settles += 1;
                    s_ns += ns;
                    rollbacks += usize::from(rollback.is_some());
                }
                _ => {}
            }
        }
        put(&format!("multimodal.plan_us.{kind}"), ratio(p_ns as f64 / 1e3, plans as f64), "us");
        put(&format!("multimodal.rows.{kind}"), ratio(rows as f64, plans as f64), "count");
        put(
            &format!("multimodal.reanchor_frac.{kind}"),
            ratio(reanchors as f64, plans as f64),
            "1",
        );
        put(&format!("heads.settle_us.{kind}"), ratio(s_ns as f64 / 1e3, settles as f64), "us");
        if *kind == "cjs" {
            put("heads.rollback_frac.cjs", ratio(rollbacks as f64, settles as f64), "1");
        }
    }

    // backbone
    put("backbone.us_per_row", ratio(replay.ns as f64 / 1e3, replay.rows as f64), "us");
    put("backbone.gflop_per_s", ratio(replay.flops, replay.ns as f64), "GFLOP/s");
    put("backbone.replay_rows_per_decision", ratio(reanchor_rows as f64, served_c), "count");

    // tensor
    for (n, g) in [48, 144, 192].iter().zip(gemm) {
        put(&format!("tensor.matmul_gflop_per_s.n{n}"), *g, "GFLOP/s");
    }
    put("tensor.pool_dispatch_us", dispatch_us, "us");
    put(
        "tensor.pool_dispatches_per_tick",
        ratio(c.pool_dispatches as f64, c.ticks.len() as f64),
        "count",
    );

    // the trace itself
    put("trace.overhead_frac", 1.0 - ratio(dps(b), dps(a)), "1");
    m
}
