//! Chunked passes: the timed part of a run and how it is summarised.
//!
//! A pass is a sequence of fixed-count *chunks*.  The yardsticks are
//! sampled before and after every chunk while the clients are idle, the
//! kernel counters are read in a window that holds the chunk and nothing
//! else, and each chunk yields one value per metric, already divided by
//! the mean of its two adjacent yardstick samples.  A pass reports the
//! **median over chunks**.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::driver::{ClientPool, Job, KeyLedger, Part};
use crate::procfs;
use crate::stats::{median, spread, windowed_p99};
use crate::trace::{Span, SpanSink};
use crate::workload::{RequestStream, Spec};
use crate::yardstick::{Sample, Yardstick, Yardsticks};

/// One chunk, measured.
#[derive(Debug)]
pub struct Chunk {
    /// Allocations attempted (over all clients).
    pub allocs: u64,
    /// First submit to last release, seconds.
    pub elapsed_s: f64,
    /// Every submit→outcome latency, seconds.
    pub latencies: Vec<f64>,
    /// Seconds inside `submit` / `wait` / `release`, summed over clients.
    pub submit_s: f64,
    /// See `submit_s`.
    pub wait_s: f64,
    /// See `submit_s`.
    pub release_s: f64,
    /// Σ machines examined by the scheduling process.
    pub examined: u64,
    /// Kernel-counter deltas over the chunk.
    pub counts: procfs::Snapshot,
    /// Yardsticks just before and just after.
    pub before: Sample,
    /// See `before`.
    pub after: Sample,
    /// Whether spans were recorded.
    pub traced: bool,
}

impl Chunk {
    /// The chunk's yardstick: mean of the two adjacent samples.
    pub fn yardstick(&self, kind: Yardstick) -> f64 {
        kind.between(&self.before, &self.after)
    }

    /// Median latency ÷ yardstick.
    pub fn p50_x(&self, kind: Yardstick) -> f64 {
        median(&self.latencies) / self.yardstick(kind)
    }

    /// Elapsed ÷ allocations ÷ yardstick.
    pub fn wall_x(&self, kind: Yardstick) -> f64 {
        self.elapsed_s / self.allocs as f64 / self.yardstick(kind)
    }

    fn per_alloc(&self, count: u64) -> f64 {
        count as f64 / self.allocs as f64
    }
}

/// Everything a pass needs besides the clients.
pub struct PassContext<'a> {
    /// The workload.
    pub spec: &'static Spec,
    /// One request stream per client; advanced by every chunk.
    pub streams: &'a mut [RequestStream],
    /// The yardstick pair.
    pub yardsticks: &'a mut Yardsticks,
    /// Span ids and epoch.
    pub sink: &'a Arc<SpanSink>,
    /// Access keys seen so far in the run.
    pub ledger: &'a mut KeyLedger,
}

/// What a pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// The chunks, in order.
    pub chunks: Vec<Chunk>,
    /// Requests attempted.
    pub attempted: u64,
    /// Requests granted, verified and released.
    pub ok: u64,
    /// Violated expectations, one line each.
    pub violations: Vec<String>,
    /// Spans of the traced chunks.
    pub spans: Vec<Span>,
    /// `VmHWM`, MiB, when the last chunk that does not depend on the
    /// host's speed had run (a timed pass only): the process has then done
    /// the same work in every run, however many chunks fit into the time
    /// that is left.
    pub rss_peak_mb: f64,
}

impl Pass {
    /// Runs one chunk of `allocs` allocations and appends it.  `before`
    /// is the yardstick sample taken after the previous chunk (one sample
    /// serves two neighbours); the new "after" sample is returned.
    pub fn run_chunk(
        &mut self,
        ctx: &mut PassContext<'_>,
        clients: &ClientPool,
        allocs: usize,
        traced: bool,
        before: Sample,
    ) -> Result<Sample, String> {
        let share = allocs / clients.len();
        let mut chunk_spans = Vec::new();
        let parent = traced.then(|| ctx.sink.open(&mut chunk_spans, "chunk", None, None));
        let jobs: Vec<Job> = ctx
            .streams
            .iter_mut()
            .take(clients.len())
            .map(|stream| Job {
                requests: stream.take(share),
                depth: ctx.spec.depth,
                trace_parent: parent,
            })
            .collect();

        let window = procfs::open_window().map_err(|e| format!("procfs: {e}"))?;
        let parts = clients.run(jobs)?;
        let counts = procfs::close_window(&window).map_err(|e| format!("procfs: {e}"))?;
        if let Some(id) = parent {
            ctx.sink.close(&mut chunk_spans, id);
        }
        let after = ctx.yardsticks.sample()?;

        let chunk = self.absorb(parts, counts, before, after, traced, ctx.ledger);
        self.spans.append(&mut chunk_spans);
        self.chunks.push(chunk);
        Ok(after)
    }

    fn absorb(
        &mut self,
        parts: Vec<Part>,
        counts: procfs::Snapshot,
        before: Sample,
        after: Sample,
        traced: bool,
        ledger: &mut KeyLedger,
    ) -> Chunk {
        let started = parts.iter().filter_map(|p| p.started).min();
        let finished = parts.iter().filter_map(|p| p.finished).max();
        let elapsed_s = match (started, finished) {
            (Some(a), Some(b)) => (b - a).as_secs_f64(),
            _ => 0.0,
        };
        let mut chunk = Chunk {
            allocs: 0,
            elapsed_s,
            latencies: Vec::new(),
            submit_s: 0.0,
            wait_s: 0.0,
            release_s: 0.0,
            examined: 0,
            counts,
            before,
            after,
            traced,
        };
        for mut part in parts {
            let reissued = ledger.absorb(&part.keys);
            if reissued > 0 {
                part.ok = part.ok.saturating_sub(reissued);
                part.violations
                    .push(format!("{reissued} access key(s) issued twice"));
            }
            chunk.allocs += part.attempted;
            chunk.latencies.append(&mut part.latencies);
            chunk.submit_s += part.submit_s;
            chunk.wait_s += part.wait_s;
            chunk.release_s += part.release_s;
            chunk.examined += part.examined;
            self.attempted += part.attempted;
            self.ok += part.ok;
            self.violations.append(&mut part.violations);
            self.spans.append(&mut part.spans);
        }
        chunk
    }

    /// Runs chunks until `budget` has elapsed — or, on a workload with a
    /// fixed chunk rate, the chunks that budget plans — and at least
    /// `min_chunks` have run and `trace_chunks` of them were traced.
    /// `between` runs after every chunk with the yardstick sample that
    /// followed it and returns the sample that precedes the next chunk
    /// (the ladder takes its rounds there; the end-to-end pass passes the
    /// sample straight through).
    pub fn run_timed(
        ctx: &mut PassContext<'_>,
        clients: &ClientPool,
        budget: Duration,
        min_chunks: usize,
        trace_chunks: usize,
        between: &mut dyn FnMut(&mut Yardsticks, Sample) -> Result<Sample, String>,
    ) -> Result<Pass, String> {
        let mut pass = Pass::default();
        let mut sample = ctx.yardsticks.sample()?;
        let started = Instant::now();
        let planned = (ctx.spec.chunks_per_second as f64 * budget.as_secs_f64()).round() as usize;
        let fixed = planned.max(min_chunks);
        let mut traced_so_far = 0;
        // Traced chunks alternate with untraced ones, so both kinds see the
        // same host phase.
        while (planned == 0 && started.elapsed() < budget)
            || pass.chunks.len() < fixed
            || traced_so_far < trace_chunks
        {
            let traced = traced_so_far < trace_chunks && pass.chunks.len() % 2 == 1;
            traced_so_far += usize::from(traced);
            sample = pass.run_chunk(ctx, clients, ctx.spec.chunk_allocs, traced, sample)?;
            if pass.chunks.len() == fixed {
                pass.rss_peak_mb = procfs::rss_peak_mb().map_err(|e| format!("procfs: {e}"))?;
            }
            sample = between(ctx.yardsticks, sample)?;
        }
        Ok(pass)
    }

    /// Runs `allocs` allocations as one discarded chunk: warm-up.
    /// Violations still count — a failed warm-up is a failed run.
    pub fn warm_up(
        ctx: &mut PassContext<'_>,
        clients: &ClientPool,
        allocs: usize,
    ) -> Result<Pass, String> {
        let mut pass = Pass::default();
        let sample = ctx.yardsticks.sample()?;
        pass.run_chunk(ctx, clients, allocs, false, sample)?;
        Ok(pass)
    }

    fn untraced(&self) -> impl Iterator<Item = &Chunk> {
        self.chunks.iter().filter(|c| !c.traced)
    }

    fn over_untraced(&self, value: impl Fn(&Chunk) -> f64) -> f64 {
        median(&self.untraced().map(value).collect::<Vec<_>>())
    }

    /// Summarises the untraced chunks in the workload's yardstick.
    pub fn summary(&self, kind: Yardstick) -> Summary {
        // The tail needs 1000 samples a window; a traced pass on a
        // 200-allocation workload has too few untraced chunks to fill one,
        // so the (ungated) p99 pools traced and untraced chunks alike.
        let p99_s = windowed_p99(self.chunks.iter().map(|c| &c.latencies));
        let yard = self.over_untraced(|c| c.yardstick(kind));
        let all_samples: Vec<f64> = self
            .chunks
            .iter()
            .map(|c| kind.of(&c.before))
            .chain(self.chunks.last().map(|c| kind.of(&c.after)))
            .collect();
        // Each traced chunk against the untraced chunks beside it: they
        // share the host's phase, so raw seconds compare.
        let per_alloc = |c: &Chunk| c.elapsed_s / c.allocs as f64;
        let overheads: Vec<f64> = (0..self.chunks.len())
            .filter(|i| self.chunks[*i].traced)
            .filter_map(|i| {
                let beside: Vec<f64> = [i.checked_sub(1), Some(i + 1)]
                    .into_iter()
                    .filter_map(|j| self.chunks.get(j?))
                    .filter(|c| !c.traced)
                    .map(per_alloc)
                    .collect();
                (!beside.is_empty()).then(|| {
                    per_alloc(&self.chunks[i]) * beside.len() as f64 / beside.iter().sum::<f64>()
                })
            })
            .collect();
        let wall_x = self.over_untraced(|c| c.wall_x(kind));
        Summary {
            chunks: self.untraced().count(),
            pass_allocs: self.chunks.iter().map(|c| c.allocs).sum(),
            p50_x: self.over_untraced(|c| c.p50_x(kind)),
            wall_x,
            ctxsw_per_alloc: self.over_untraced(|c| c.per_alloc(c.counts.tasks.ctxsw)),
            syscalls_per_alloc: self.over_untraced(|c| c.per_alloc(c.counts.io.syscalls)),
            cpu_us_per_alloc: self.over_untraced(|c| c.per_alloc(c.counts.tasks.run_ns) / 1e3),
            runq_wait_ratio: self.over_untraced(|c| {
                c.counts.tasks.wait_ns as f64 / (c.counts.tasks.run_ns.max(1)) as f64
            }),
            alloc_per_s: self.over_untraced(|c| c.allocs as f64 / c.elapsed_s),
            p50_ms: self.over_untraced(|c| median(&c.latencies) * 1e3),
            p99_ms: p99_s.map_or(0.0, |s| s * 1e3),
            p99_x: p99_s.map_or(0.0, |s| s / yard),
            max_ms: self
                .untraced()
                .flat_map(|c| c.latencies.iter().copied())
                .fold(0.0, f64::max)
                * 1e3,
            submit_x: self.over_untraced(|c| c.submit_s / c.allocs as f64 / c.yardstick(kind)),
            wait_x: self.over_untraced(|c| c.wait_s / c.allocs as f64 / c.yardstick(kind)),
            release_x: self.over_untraced(|c| c.release_s / c.allocs as f64 / c.yardstick(kind)),
            examined_per_alloc: self.over_untraced(|c| c.per_alloc(c.examined)),
            echo_us: median(&self.samples(|s| s.echo_s)) * 1e6,
            spin_ms: median(&self.samples(|s| s.spin_s)) * 1e3,
            yardstick_spread: spread(&all_samples),
            trace_overhead_ratio: median(&overheads),
        }
    }

    fn samples(&self, of: impl Fn(&Sample) -> f64) -> Vec<f64> {
        self.chunks.iter().map(|c| of(&c.before)).collect()
    }
}

/// The figures of one pass.  Every time-like `*_x` field is in yardstick
/// units; every field is a median over the pass's untraced chunks unless
/// its comment says otherwise.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Untraced chunks summarised.
    pub chunks: usize,
    /// Allocations of the whole pass, traced chunks included: what the
    /// daemon's own counters advanced over.
    pub pass_allocs: u64,
    /// Chunk p50 latency ÷ yardstick.
    pub p50_x: f64,
    /// Chunk elapsed ÷ allocations ÷ yardstick.
    pub wall_x: f64,
    /// Voluntary + non-voluntary switches, all threads, per allocation.
    pub ctxsw_per_alloc: f64,
    /// `syscr` + `syscw` per allocation.
    pub syscalls_per_alloc: f64,
    /// On-CPU µs, all threads, per allocation.
    pub cpu_us_per_alloc: f64,
    /// Runnable-but-waiting time ÷ on-CPU time.
    pub runq_wait_ratio: f64,
    /// Raw throughput, allocations per second.
    pub alloc_per_s: f64,
    /// Raw chunk p50, ms.
    pub p50_ms: f64,
    /// Median over ≥1000-sample windows of the window p99, ms, traced
    /// chunks included (0 when no window filled).
    pub p99_ms: f64,
    /// `p99_ms` in yardstick units.
    pub p99_x: f64,
    /// Largest latency of the pass, ms (a maximum, not a median).
    pub max_ms: f64,
    /// Mean time inside `submit` per allocation ÷ yardstick.
    pub submit_x: f64,
    /// Mean time inside `wait` per allocation ÷ yardstick.
    pub wait_x: f64,
    /// Mean time inside `release` per allocation ÷ yardstick.
    pub release_x: f64,
    /// Machines the scheduling process examined per allocation.
    pub examined_per_alloc: f64,
    /// Median echo round trip, µs.
    pub echo_us: f64,
    /// Median 3 M-step spin, ms.
    pub spin_ms: f64,
    /// Quartile spread of the declared yardstick's samples.
    pub yardstick_spread: f64,
    /// Per-allocation wall time of a traced chunk ÷ that of the untraced
    /// chunks beside it, median over traced chunks (0 when nothing was
    /// traced).
    pub trace_overhead_ratio: f64,
}
