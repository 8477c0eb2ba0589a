//! Spans of a traced run's in-process leg, kept in memory while it runs
//! and written out as JSON lines when the run ends: one `tick` span per
//! `ShardedServer::tick`, and one `plan.<kind>` or `settle.<kind>` span
//! per wrapped hook call, whose parent is the tick it ran in. Times are
//! µs from the first tick's start.

use crate::inproc::Leg;
use crate::wrap::Call;
use std::io::{self, BufWriter, Write};
use std::path::Path;

const KINDS: [&str; 3] = ["abr", "cjs", "vp"];

/// Write `leg`'s spans to `path`; returns how many.
pub fn write(path: &Path, leg: &Leg) -> io::Result<usize> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    let Some(&(epoch, _, _)) = leg.ticks.first() else { return Ok(0) };
    let us = |t: std::time::Instant| t.saturating_duration_since(epoch).as_secs_f64() * 1e6;
    let mut id = leg.ticks.len();
    for (k, (&(start, ns, served), calls)) in leg.ticks.iter().zip(&leg.calls).enumerate() {
        let s = us(start);
        writeln!(
            out,
            "{{\"id\":{},\"parent\":null,\"name\":\"tick\",\"start_us\":{s:.1},\"end_us\":{:.1},\
             \"served\":{served}}}",
            k + 1,
            s + ns as f64 / 1e3
        )?;
        for call in calls {
            let (name, group, at, ns) = match *call {
                Call::Plan { group, at, ns, .. } => ("plan", group, at, ns),
                Call::Settle { group, at, ns, .. } => ("settle", group, at, ns),
            };
            id += 1;
            let s = us(at);
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{},\"name\":\"{name}.{}\",\"start_us\":{s:.1},\
                 \"end_us\":{:.1}}}",
                k + 1,
                KINDS[group],
                s + ns as f64 / 1e3
            )?;
        }
    }
    out.flush()?;
    Ok(id)
}
