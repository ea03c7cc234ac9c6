//! The `serve-mixed` workload: an in-process `flatd` driven over
//! `nproc` loopback connections.
//!
//! About 3 requests in 4 execute one of four small kernels the daemon
//! has already compiled (compile-cache hits); the rest ship a
//! never-seen variant of the 160-definition module of
//! `flat_serve::bench::default_source`, so the daemon parses,
//! elaborates, flattens and lowers it (a miss, which also writes the
//! cache). Compile passes dominate the daemon's busy time; the VM and
//! the pool do little.
//!
//! The untraced run sends batches of requests closed loop, each request
//! as soon as a connection is free, and times each batch. The traced
//! run drives the daemon open loop: requests are due on a fixed
//! schedule whatever the replies do, and each is timed from its due
//! time, so a stall shows in every request queued behind it. A request
//! goes out on whichever connection is free first.

use crate::stats::{median, quantile, ratio};
use crate::{check, pipeline, Ctx, Metric, Outcome, Tally};
use flat_exec::ExecConfig;
use flat_ir::value::Value;
use flat_obs::json::Value as Json;
use flat_serve::client::{exec_request, ClientError, ExecSpec};
use flat_serve::proto::{self, ResultAssembly};
use flat_serve::{Client, ServerConfig, ServerHandle};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The two offered loads of the traced run, in requests per second,
/// fixed after measuring the daemon's capacity on a 2-core host (see
/// README.md).
pub const RATE_LO: f64 = 400.0;
pub const RATE_HI: f64 = 1000.0;
/// Share of requests that are compile-cache misses.
const MISS_SHARE: f64 = 0.25;
/// Requests in one closed-loop batch of the untraced run, the batches
/// run before timing starts, and the batches timed per second of
/// `--seconds`. The count is fixed, not the time, so that every run
/// serves the same requests: the daemon keeps a sample of each request
/// it serves, so its memory grows with the requests served. At about
/// 50 ms a batch on a 2-core host, a run measures about `--seconds`.
const BATCH: usize = 100;
const WARMUP_BATCHES: usize = 2;
const BATCHES_PER_S: f64 = 18.0;
/// Latency limit of the `max_rate_rps` ladder, and its steps.
const LIMIT_MS: f64 = 10.0;
const LADDER_STEP: f64 = 1.25;
const LADDER_MAX_STEPS: usize = 12;
const LADDER_STEP_S: f64 = 1.0;
/// Set-ups before the timed phase, and after each of its chunks, so
/// that `setup_s` samples the whole run.
const SETUP_REPS: usize = 20;
const CHUNKS: usize = 8;
const SETUPS_PER_CHUNK: usize = 5;
const LAYER_REPS: usize = 21;
const LOCAL_REPS: usize = 20;
/// Read timeout of the zero-extent probe.
const PROBE_TIMEOUT: Duration = Duration::from_secs(2);

/// A program and the argument specs each request runs it on.
struct Program {
    source: String,
    entry: &'static str,
    args: Vec<String>,
}

fn program(source: &str, entry: &'static str, args: &[&str]) -> Program {
    Program {
        source: source.to_string(),
        entry,
        args: args.iter().map(|s| s.to_string()).collect(),
    }
}

/// The compile-cache hit mix: small kernels, compiled during set-up.
fn hit_programs() -> Vec<Program> {
    vec![
        program(
            flat_serve::bench::DEFAULT_SOURCE,
            "main",
            &["256", "[256]i64"],
        ),
        program(
            "def main [n][m] (xss: [n][m]f32): [n]f32 = map (\\xs -> reduce (+) 0f32 xs) xss",
            "main",
            &["16", "64", "[16][64]f32"],
        ),
        program(
            benchmarks::matmul::SOURCE,
            "matmul",
            &["16", "16", "16", "[16][16]f32", "[16][16]f32"],
        ),
        program(
            "def main [n] (xs: [n]f32): [n]f32 = scan (+) 0f32 xs",
            "main",
            &["512", "[512]f32"],
        ),
    ]
}

const MISS_ARGS: [&str; 2] = ["256", "[256]i64"];

/// One scheduled request.
#[derive(Clone)]
struct Req {
    /// Index into the hit mix, or `None` for a miss with this variant.
    hit: Option<usize>,
    variant: usize,
    data_seed: u64,
}

/// Xorshift64, for the request mixes.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> XorShift {
        XorShift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        let x = &mut self.0;
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }
}

/// The request mix of one phase: `n` requests drawn from `seed`; miss
/// variants are numbered from `first_variant` so none repeats.
fn schedule(seed: u64, n: usize, first_variant: usize) -> Vec<Req> {
    let mut rng = XorShift::new(seed);
    let mut variant = first_variant;
    (0..n)
        .map(|_| {
            let r = rng.next();
            let miss = (r >> 11) as f64 / (1u64 << 53) as f64 <= MISS_SHARE;
            let hit = (!miss).then_some((r % 4) as usize);
            if miss {
                variant += 1;
            }
            // JSON numbers carry 53 bits; keep seeds well inside that.
            Req {
                hit,
                variant,
                data_seed: rng.next() >> 32,
            }
        })
        .collect()
}

/// One closed-loop batch: [`BATCH`] requests, exactly [`MISS_SHARE`] of
/// them misses, in an order drawn from `seed`; miss variants are
/// numbered from `first_variant`.
fn batch(seed: u64, first_variant: usize) -> Vec<Req> {
    let mut rng = XorShift::new(seed);
    let misses = (BATCH as f64 * MISS_SHARE).round() as usize;
    let mut kinds: Vec<Option<usize>> = (0..BATCH)
        .map(|i| (i >= misses).then(|| (rng.next() % 4) as usize))
        .collect();
    for i in (1..BATCH).rev() {
        kinds.swap(i, (rng.next() % (i as u64 + 1)) as usize);
    }
    let mut variant = first_variant;
    kinds
        .into_iter()
        .map(|hit| {
            if hit.is_none() {
                variant += 1;
            }
            Req {
                hit,
                variant,
                data_seed: rng.next() >> 32,
            }
        })
        .collect()
}

struct Mix {
    hits: Vec<Program>,
    module: String,
}

impl Mix {
    fn spec(&self, r: &Req) -> ExecSpec {
        let (source, entry, args) = match r.hit {
            Some(h) => {
                let p = &self.hits[h];
                (p.source.clone(), p.entry, p.args.clone())
            }
            None => (
                flat_serve::bench::variant(&self.module, r.variant),
                "main",
                MISS_ARGS.iter().map(|s| s.to_string()).collect(),
            ),
        };
        ExecSpec {
            source: Some(source),
            entry: entry.to_string(),
            args,
            data_seed: Some(r.data_seed),
            ..ExecSpec::default()
        }
    }
}

/// One completed (or failed) request.
struct Sample {
    req: Req,
    lag_ms: f64,
    lat_ms: f64,
    reply: Result<Vec<Value>, ClientError>,
}

/// Run `reqs` over `clients`, one request in flight per connection:
/// open loop at `rate` requests per second, or closed loop (each
/// request sent as soon as a connection is free) when `rate` is `None`.
/// Returns the samples in schedule order.
fn drive(mix: &Mix, clients: &mut [Client], reqs: &[Req], rate: Option<f64>) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<(usize, Sample)>> = Mutex::new(Vec::with_capacity(reqs.len()));
    let start = Instant::now() + Duration::from_millis(2);
    std::thread::scope(|s| {
        for c in clients.iter_mut() {
            let (next, out) = (&next, &out);
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(r) = reqs.get(i) else { break };
                let due = match rate {
                    Some(rate) => start + Duration::from_secs_f64(i as f64 / rate),
                    None => Instant::now(),
                };
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let sent = Instant::now();
                let reply = c.exec(&exec_request(mix.spec(r))).map(|rep| rep.values);
                let done = Instant::now();
                let sample = Sample {
                    req: r.clone(),
                    lag_ms: sent.saturating_duration_since(due).as_secs_f64() * 1e3,
                    lat_ms: done.saturating_duration_since(due).as_secs_f64() * 1e3,
                    reply,
                };
                out.lock().expect("sample lock").push((i, sample));
            });
        }
    });
    let mut v = out.into_inner().expect("sample lock");
    v.sort_by_key(|(i, _)| *i);
    v.into_iter().map(|(_, s)| s).collect()
}

/// Compile-cache hits and misses and admission rejections, from the
/// daemon's `status` frame.
fn status_counts(d: &flat_serve::Daemon) -> (u64, u64, u64) {
    let st = d.status_frame();
    let get = |path: &[&str]| {
        path.iter()
            .try_fold(&st, |v, k| v.get(k))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    (
        get(&["cache", "compile", "hits"]),
        get(&["cache", "compile", "misses"]),
        get(&["queue", "rejected"]),
    )
}

/// The daemon and the generator's connections.
struct Rig {
    server: ServerHandle,
    clients: Vec<Client>,
}

impl Rig {
    fn stop(self) {
        drop(self.clients);
        self.server.stop();
    }
}

fn start_rig(ctx: &Ctx, mix: &Mix) -> Result<Rig, String> {
    let server = flat_serve::start(ServerConfig {
        threads: Some(ctx.threads),
        workers: ctx.threads,
        quiet: true,
        ..ServerConfig::default()
    })
    .map_err(|e| format!("start flatd: {e}"))?;
    let addr = server.addr();
    let mut clients = (0..ctx.threads)
        .map(|_| Client::connect_timeout(&addr, Duration::from_secs(5)))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    // Warm the cache with the hit mix.
    for h in 0..mix.hits.len() {
        let r = Req {
            hit: Some(h),
            variant: 0,
            data_seed: 0,
        };
        clients[0]
            .exec(&exec_request(mix.spec(&r)))
            .map_err(|e| format!("warm-up: {e}"))?;
    }
    Ok(Rig { server, clients })
}

/// Local reference runs: compile each distinct source and run each
/// request with the daemon's settings. Compiled programs are kept by
/// content hash, at most [`LOCAL_CACHE`] of them, since misses never
/// repeat.
struct Local {
    threads: usize,
    compiled: HashMap<String, flat_vm::CompiledProgram>,
}

const LOCAL_CACHE: usize = 16;

impl Local {
    fn new(threads: usize) -> Local {
        Local {
            threads,
            compiled: HashMap::new(),
        }
    }

    fn cfg(&self) -> ExecConfig {
        ExecConfig {
            threads: Some(self.threads),
            ..ExecConfig::default()
        }
    }

    /// The request's compiled program and materialized arguments.
    fn prepare(
        &mut self,
        spec: &ExecSpec,
    ) -> Result<(&flat_vm::CompiledProgram, Vec<Value>), String> {
        let source = spec.source.as_deref().unwrap_or_default();
        let hash = flat_serve::program_hash(source, &spec.entry);
        if !self.compiled.contains_key(&hash) {
            if self.compiled.len() >= LOCAL_CACHE {
                self.compiled.clear();
            }
            let c = flat_serve::cache::compile_program(source, &spec.entry)
                .map_err(|e| e.to_string())?;
            self.compiled.insert(hash.clone(), c.compiled);
        }
        let abs = spec
            .args
            .iter()
            .map(|s| proto::parse_abs_value(s))
            .collect::<Result<Vec<_>, _>>()?;
        let vals = flat_exec::materialize(&abs, spec.data_seed.unwrap_or(42)).map_err(|e| e.0)?;
        Ok((&self.compiled[&hash], vals))
    }

    fn run(&mut self, spec: &ExecSpec) -> Result<Vec<Value>, String> {
        let cfg = self.cfg();
        let (code, vals) = self.prepare(spec)?;
        Ok(flat_vm::run_compiled(code, &vals, &cfg)
            .map_err(|e| e.0)?
            .values)
    }
}

/// Count each sample as attempted, and failed unless it returned the
/// bits of a local run of the same request. The local runs are split
/// over `threads` threads, each compiling for itself.
fn check_samples(samples: &[Sample], mix: &Mix, threads: usize, tally: &mut Tally) {
    let part = samples.len().div_ceil(threads).max(1);
    let failures: Vec<(bool, String)> = std::thread::scope(|s| {
        let checkers: Vec<_> = samples
            .chunks(part)
            .map(|part| {
                s.spawn(move || {
                    let mut local = Local::new(threads);
                    part.iter()
                        .filter_map(|s| match &s.reply {
                            Err(e) => Some((false, format!("request: {e}"))),
                            Ok(got) => match local.run(&mix.spec(&s.req)) {
                                Ok(want) if check::bitwise(got, &want) => None,
                                Ok(_) => Some((
                                    true,
                                    "reply differs from a local run of the same request".into(),
                                )),
                                Err(e) => Some((false, format!("local run: {e}"))),
                            },
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        checkers
            .into_iter()
            .flat_map(|c| c.join().expect("check thread"))
            .collect()
    });
    tally.attempted += samples.len() as u64;
    for (wrong, what) in failures {
        if wrong {
            tally.wrong(&what);
        } else {
            tally.error(&what);
        }
    }
}

fn lat(samples: &[Sample], q: f64, keep: impl Fn(&Sample) -> bool) -> f64 {
    quantile(
        &samples
            .iter()
            .filter(|s| keep(s))
            .map(|s| s.lat_ms)
            .collect::<Vec<_>>(),
        q,
    )
}

/// Run `f` while sampling the daemon's admission-queue depth; returns
/// its result and the deepest queue seen.
fn sampled<T>(d: &flat_serve::Daemon, f: impl FnOnce() -> T) -> (T, usize) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut max = 0;
            while !stop.load(Ordering::Relaxed) {
                max = max.max(d.admit.depth());
                std::thread::sleep(Duration::from_millis(2));
            }
            max
        });
        let out = f();
        stop.store(true, Ordering::Relaxed);
        (out, sampler.join().expect("depth sampler"))
    })
}

/// The traced phases' samples and the daemon counters around them.
struct Traced {
    lo: Vec<Sample>,
    hi: Vec<Sample>,
    depth_max: usize,
    lo_hits: u64,
    lo_misses: u64,
    rejected: u64,
}

/// The zero-extent probe: requests whose arguments or results have a
/// zero extent, on a connection of their own with a read timeout.
/// Returns (attempted, failed).
fn zero_extent_probe(addr: SocketAddr, local: &mut Local, notes: &mut Vec<String>) -> (u64, u64) {
    let cases: [(&str, &[&str]); 3] = [
        (
            "def main [n] (xs: [n]i64): i64 = reduce (+) 0 xs",
            &["0", "[0]i64"],
        ),
        (
            "def main [n] (xs: [n]f32): [n]f32 = map (\\x -> x * 2f32) xs",
            &["0", "[0]f32"],
        ),
        (
            "def main [n][m] (xss: [n][m]f32): [n]f32 = map (\\xs -> reduce (+) 0f32 xs) xss",
            &["4", "0", "[4][0]f32"],
        ),
    ];
    let mut failed = 0;
    for (source, args) in cases {
        let spec = ExecSpec {
            source: Some(source.to_string()),
            entry: "main".to_string(),
            args: args.iter().map(|s| s.to_string()).collect(),
            data_seed: Some(1),
            ..ExecSpec::default()
        };
        let outcome = probe_exec(addr, &spec).and_then(|got| {
            let want = local.run(&spec)?;
            if check::bitwise(&got, &want) {
                Ok(())
            } else {
                Err("reply differs from a local run".to_string())
            }
        });
        if let Err(e) = outcome {
            failed += 1;
            notes.push(format!("zero-extent probe {:?}: {e}", args));
        }
    }
    (3, failed)
}

/// One exec over a fresh connection with a read timeout, read frame by
/// frame so a reply that never completes is reported, not waited on.
fn probe_exec(addr: SocketAddr, spec: &ExecSpec) -> Result<Vec<Value>, String> {
    let stream = TcpStream::connect_timeout(&addr, PROBE_TIMEOUT).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(PROBE_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let mut reader = std::io::BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut writer = stream;
    proto::write_frame(&mut writer, &exec_request(spec.clone())).map_err(|e| e.to_string())?;
    let mut values = Vec::new();
    let mut pending: Option<ResultAssembly> = None;
    loop {
        let frame =
            proto::read_frame(&mut reader, proto::MAX_FRAME).map_err(|e| format!("{e:?}"))?;
        match frame.get("type").and_then(Json::as_str) {
            Some("result") => {
                let asm = ResultAssembly::from_header(&frame)?;
                if asm.needs_chunks() {
                    pending = Some(asm);
                } else {
                    values.push(asm.finish()?);
                }
            }
            Some("result-chunk") => {
                let asm = pending.as_mut().ok_or("chunk without header")?;
                asm.push_chunk(&frame)?;
                if !asm.needs_chunks() {
                    values.push(pending.take().expect("pending assembly").finish()?);
                }
            }
            Some("done") if pending.is_none() => return Ok(values),
            Some("done") => return Err("done with result chunks outstanding".into()),
            other => {
                return Err(format!(
                    "unexpected frame {other:?}: {}",
                    frame_text(&frame)
                ))
            }
        }
    }
}

fn frame_text(v: &Json) -> String {
    flat_obs::json::to_string(v).unwrap_or_default()
}

/// Milliseconds to encode `v` as reply frames, and to decode them back.
fn codec_ms(v: &Value) -> Result<(f64, f64), String> {
    let t = Instant::now();
    let mut bytes = Vec::new();
    proto::write_result(&mut bytes, 0, v).map_err(|e| e.to_string())?;
    let encode = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let mut r = bytes.as_slice();
    let header = proto::read_frame(&mut r, proto::MAX_FRAME).map_err(|e| format!("{e:?}"))?;
    let mut asm = ResultAssembly::from_header(&header)?;
    while asm.needs_chunks() {
        asm.push_chunk(
            &proto::read_frame(&mut r, proto::MAX_FRAME).map_err(|e| format!("{e:?}"))?,
        )?;
    }
    let back = asm.finish()?;
    let decode = t.elapsed().as_secs_f64() * 1e3;
    if !check::bitwise(std::slice::from_ref(v), &[back]) {
        return Err("encode/decode round trip changed the value".into());
    }
    Ok((encode, decode))
}

/// The highest rate of the ladder whose p99 stays within [`LIMIT_MS`]
/// with every request answered and no growing backlog (the last tenth
/// of the step sent within the limit of its due times). A single step
/// can miss on a transient stall, so the ladder climbs on until two
/// steps in a row miss. Each step's figures go to `notes`; every
/// sample is returned for checking.
fn max_rate(
    mix: &Mix,
    rig: &mut Rig,
    seed: u64,
    first_variant: &mut usize,
    notes: &mut Vec<String>,
) -> (f64, Vec<Sample>) {
    let mut best = 0.0;
    let mut rate = RATE_LO;
    let mut all = Vec::new();
    let mut misses = 0;
    for step in 0..LADDER_MAX_STEPS {
        let n = (rate * LADDER_STEP_S).ceil() as usize;
        let reqs = schedule(seed ^ ((step as u64 + 1) << 32), n, *first_variant);
        *first_variant += n;
        let samples = drive(mix, &mut rig.clients, &reqs, Some(rate));
        let tail_lag = median(
            &samples[n * 9 / 10..]
                .iter()
                .map(|s| s.lag_ms)
                .collect::<Vec<_>>(),
        );
        let all_ok = samples.iter().all(|s| s.reply.is_ok());
        let p99 = lat(&samples, 0.99, |_| true);
        notes.push(format!(
            "ladder {rate:.1} req/s: p99 {p99:.3} ms, tail lag {tail_lag:.3} ms, all answered {all_ok}"
        ));
        all.extend(samples);
        if all_ok && tail_lag <= LIMIT_MS && p99 <= LIMIT_MS {
            best = rate;
            misses = 0;
        } else {
            misses += 1;
            if misses == 2 {
                break;
            }
        }
        rate *= LADDER_STEP;
    }
    (best, all)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mix = Mix {
        hits: hit_programs(),
        module: flat_serve::bench::default_source(),
    };
    // Untraced: closed-loop batches for the whole run. Traced: open loop,
    // as long again at `lo`, alternating untraced and traced quarters,
    // then a quarter at `hi`.
    let n_lo = (RATE_LO * ctx.seconds / 2.0).ceil() as usize;
    let n_hi = (RATE_HI * ctx.seconds / 4.0).ceil() as usize;

    // Set-up: start the daemon, connect, warm the cache. The first rig
    // is the one used; the others are timed and stopped.
    let timed_rig = || -> Result<f64, String> {
        let t = Instant::now();
        let rig = start_rig(ctx, &mix)?;
        let secs = t.elapsed().as_secs_f64();
        rig.stop();
        Ok(secs)
    };
    let t = Instant::now();
    let mut rig = start_rig(ctx, &mix)?;
    let mut setups = vec![t.elapsed().as_secs_f64()];
    if !ctx.trace {
        for _ in 1..SETUP_REPS {
            setups.push(timed_rig()?);
        }
    }
    let addr = rig.server.addr();
    let mut next_variant = 0usize;
    let mut sent: Vec<Req> = Vec::new();

    // Timed phases. Tracing here is the daemon's `status` read around
    // the phases and a sampler of its admission-queue depth.
    let mut traced = None;
    let (mut batch_ms, mut chunk_p90) = (Vec::new(), Vec::new());
    let samples = if !ctx.trace {
        // Batches back to back, in chunks; between chunks, while the
        // daemon is idle, the chunk's replies are checked (so they need
        // not all be held) and set-ups are timed. The warm-up batches are
        // checked, not timed.
        let mut samples = Vec::new();
        let mut next_batch = |sent: &mut Vec<Req>| {
            let reqs = batch(
                ctx.seed ^ (((sent.len() / BATCH + 1) as u64) << 32),
                next_variant,
            );
            next_variant += BATCH;
            sent.extend(reqs.iter().cloned());
            reqs
        };
        for _ in 0..WARMUP_BATCHES {
            let reqs = next_batch(&mut sent);
            samples.extend(drive(&mix, &mut rig.clients, &reqs, None));
        }
        let per_chunk = (ctx.seconds * BATCHES_PER_S / CHUNKS as f64).ceil() as usize;
        for _ in 0..CHUNKS {
            let mut chunk_ms = Vec::with_capacity(per_chunk);
            for _ in 0..per_chunk {
                let reqs = next_batch(&mut sent);
                let t = Instant::now();
                samples.extend(drive(&mix, &mut rig.clients, &reqs, None));
                chunk_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
            chunk_p90.push(quantile(&chunk_ms, 0.9));
            batch_ms.extend(chunk_ms);
            check_samples(&samples, &mix, ctx.threads, &mut tally);
            samples.clear();
            for _ in 0..SETUPS_PER_CHUNK {
                setups.push(timed_rig()?);
            }
        }
        samples
    } else {
        // Untraced and traced halves of the low rate alternate, so both
        // see the same machine state; then the high rate, traced.
        let mut phase = |seed: u64, n: usize| {
            let reqs = schedule(seed, n, next_variant);
            next_variant += n;
            sent.extend(reqs.iter().cloned());
            reqs
        };
        let lo = phase(ctx.seed, n_lo);
        let lo_traced = phase(ctx.seed ^ 0x5eed_0001, n_lo);
        let hi = phase(ctx.seed ^ 0x5eed_0002, n_hi);
        let d = rig.server.daemon();
        let before = status_counts(d);
        let half = n_lo / 2;
        let mut untraced = drive(&mix, &mut rig.clients, &lo[..half], Some(RATE_LO));
        let (mut lo_t, d1) = sampled(d, || {
            drive(&mix, &mut rig.clients, &lo_traced[..half], Some(RATE_LO))
        });
        untraced.extend(drive(&mix, &mut rig.clients, &lo[half..], Some(RATE_LO)));
        let (rest, d2) = sampled(d, || {
            drive(&mix, &mut rig.clients, &lo_traced[half..], Some(RATE_LO))
        });
        lo_t.extend(rest);
        let lo_counts = status_counts(d);
        let (hi_t, d3) = sampled(d, || drive(&mix, &mut rig.clients, &hi, Some(RATE_HI)));
        let after = status_counts(d);
        traced = Some(Traced {
            lo: lo_t,
            hi: hi_t,
            depth_max: d1.max(d2).max(d3),
            lo_hits: lo_counts.0 - before.0,
            lo_misses: lo_counts.1 - before.1,
            rejected: after.2 - before.2,
        });
        untraced
    };
    let peak_rss_mb = crate::peak_rss_mb();
    let inputs_hash = flat_perf::fnv1a(
        format!(
            "{:?}",
            sent.iter()
                .map(|r| (r.hit, r.variant, r.data_seed))
                .collect::<Vec<_>>()
        )
        .as_bytes(),
    );
    let mut notes = vec![if ctx.trace {
        format!(
            "untraced: {} requests at {RATE_LO} req/s over {} connections",
            samples.len(),
            ctx.threads
        )
    } else {
        format!(
            "{} closed-loop batches of {BATCH} requests over {} connections ({} warm-up), {} misses",
            batch_ms.len(),
            ctx.threads,
            WARMUP_BATCHES,
            sent.iter().filter(|r| r.hit.is_none()).count()
        )
    }];

    // Checks: every reply against a local run of the same request, then
    // the zero-extent probe.
    let mut local = Local::new(ctx.threads);
    check_samples(&samples, &mix, ctx.threads, &mut tally);
    if let Some(t) = &traced {
        check_samples(&t.lo, &mix, ctx.threads, &mut tally);
        check_samples(&t.hi, &mix, ctx.threads, &mut tally);
    }
    let (probe_attempted, probe_failed) = zero_extent_probe(addr, &mut local, &mut notes);
    notes.push(format!(
        "zero-extent probe: {probe_failed} of {probe_attempted} requests failed"
    ));

    let mut metrics = Vec::new();
    if !ctx.trace {
        metrics.push(Metric::new("setup_s", median(&setups)));
        metrics.push(Metric::new("run_ms_p50", median(&batch_ms)));
        // The p90 of each chunk, and their median: a spell of host
        // contention over a tenth of the run moves a run-wide p90, but
        // only the chunks it falls in.
        metrics.push(Metric::new("run_ms_p90", median(&chunk_p90)));
        metrics.push(Metric::new("peak_rss_mb", peak_rss_mb));
        rig.stop();
    } else {
        let t = traced.expect("traced phases ran");
        // The ladder gets a daemon of its own, so the compile cache the
        // timed phases filled is freed first.
        rig.stop();
        let mut ladder_rig = start_rig(ctx, &mix)?;
        let (max_rate_rps, ladder) = max_rate(
            &mix,
            &mut ladder_rig,
            ctx.seed ^ 0x1add,
            &mut next_variant,
            &mut notes,
        );
        ladder_rig.stop();
        check_samples(&ladder, &mix, ctx.threads, &mut tally);

        let module = flat_serve::bench::variant(&mix.module, usize::MAX);
        let medians = pipeline::layer_medians(&[(&module, "main")], LAYER_REPS)?;
        let compiled = pipeline::compile(&module, "main")?;
        metrics.extend(crate::compile_metrics(
            &medians,
            compiled.flattened.thresholds.len(),
            pipeline::instr_count(&compiled.code),
        ));

        // Local cost of the hit mix: execution alone, and the codec.
        let (mut exec_ms, mut enc_ms, mut dec_ms) = (Vec::new(), Vec::new(), Vec::new());
        for h in 0..mix.hits.len() {
            let spec = mix.spec(&Req {
                hit: Some(h),
                variant: 0,
                data_seed: ctx.seed,
            });
            let cfg = local.cfg();
            let (code, vals) = local.prepare(&spec)?;
            let mut times = Vec::with_capacity(LOCAL_REPS);
            let mut out = Vec::new();
            for _ in 0..LOCAL_REPS {
                let t = Instant::now();
                out = flat_vm::run_compiled(code, &vals, &cfg)
                    .map_err(|e| e.0)?
                    .values;
                times.push(t.elapsed().as_secs_f64() * 1e3);
            }
            exec_ms.push(median(&times));
            let (mut e, mut d) = (Vec::new(), Vec::new());
            for _ in 0..LOCAL_REPS {
                let (mut es, mut ds) = (0.0, 0.0);
                for v in &out {
                    let (a, b) = codec_ms(v)?;
                    es += a;
                    ds += b;
                }
                e.push(es);
                d.push(ds);
            }
            enc_ms.push(median(&e));
            dec_ms.push(median(&d));
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let exec_local = mean(&exec_ms);
        let (hits, misses) = (t.lo_hits as f64, t.lo_misses as f64);
        let lags: Vec<f64> = t.lo.iter().map(|s| s.lag_ms).collect();
        let untraced_p50 = lat(&samples, 0.5, |_| true);
        metrics.extend([
            Metric::new("flatd.hit_frac", ratio(hits, hits + misses)),
            Metric::new("flatd.exec_local_ms", exec_local),
            Metric::new(
                "flatd.overhead_ms_p50",
                lat(&t.lo, 0.5, |s| s.req.hit.is_some()) - exec_local,
            ),
            Metric::new("flatd.encode_ms", mean(&enc_ms)),
            Metric::new("flatd.decode_ms", mean(&dec_ms)),
            Metric::new("flatd.queue_depth_max", t.depth_max as f64),
            Metric::new("flatd.rejected", t.rejected as f64),
            Metric::new("gen.lag_ms_p99", quantile(&lags, 0.99)),
            Metric::new("lat_ms_p50.lo", lat(&t.lo, 0.5, |_| true)),
            Metric::new("lat_ms_p99.lo", lat(&t.lo, 0.99, |_| true)),
            Metric::new("lat_ms_p50.hi", lat(&t.hi, 0.5, |_| true)),
            Metric::new("lat_ms_p99.hi", lat(&t.hi, 0.99, |_| true)),
            Metric::new("miss_lat_ms_p50", lat(&t.lo, 0.5, |s| s.req.hit.is_none())),
            Metric::new("max_rate_rps", max_rate_rps),
            Metric::new(
                "trace.overhead_frac",
                ratio(lat(&t.lo, 0.5, |_| true), untraced_p50) - 1.0,
            ),
        ]);
        metrics.push(Metric::new("probe.zero_extent_failed", probe_failed as f64));
        notes.push(format!(
            "traced: {} requests at {RATE_LO} req/s, {} at {RATE_HI} req/s",
            t.lo.len(),
            t.hi.len()
        ));
    }

    let mut args: Vec<String> = mix
        .hits
        .iter()
        .flat_map(|h| h.args.iter().cloned())
        .collect();
    args.extend(MISS_ARGS.iter().map(|s| s.to_string()));
    Ok(Outcome {
        tally,
        metrics,
        inputs_hash,
        args,
        sources: mix
            .hits
            .iter()
            .map(|h| h.source.clone())
            .chain([mix.module.clone()])
            .collect(),
        notes,
        probe_attempted,
        probe_failed,
    })
}
