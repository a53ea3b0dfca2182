//! End-to-end runs (tracing off): what a user of `adya-check --stream`
//! and `adya-serve` sees.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use adya_workloads::{RetryPolicy, ServeClient};

use crate::inputs::{self, SessionGen, StreamRef, Workload};
use crate::server::{Conn, Pair};
use crate::util::{
    fnv1a, median, metric, tail_percentile, vm_hwm_kib, Gates, Metric, Outcome, FNV_SEED,
};

/// Where a run finds its binaries and keeps its files.
pub struct Ctx {
    pub bin_dir: PathBuf,
    pub work: PathBuf,
    pub cache: PathBuf,
    pub seed: u64,
    pub seconds: f64,
}

impl Ctx {
    pub fn check_bin(&self) -> PathBuf {
        self.bin_dir.join("adya-check")
    }

    pub fn serve_bin(&self) -> PathBuf {
        self.bin_dir.join("adya-serve")
    }
}

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Repeated measurements behind `repl_ack_ms` and `recover_ms`.
const ACK_PROBES: usize = 15;
const RECOVER_CYCLES: usize = 15;
/// Stream workloads' latency phase: this many sessions, each sending
/// the first history's first `LATENCY_COMMITS` commits in a closed loop
/// (a commit's tokens in one frame, then wait for its verdict), so
/// together they give at least 1000 samples for the p99.
const LATENCY_SESSIONS: usize = 8;
const LATENCY_COMMITS: usize = 140;
/// Tokens per frame of the bulk feed that builds a session's state
/// before the ack probes and recovery cycles.
const FEED_FRAME_TOKENS: usize = 1024;
/// Events of a stream workload fed through the leader/follower pair
/// before its ack probes and recovery cycles: a multiple of the
/// server's default snapshot cadence (1024), so every recovery loads a
/// snapshot of the same prefix and replays only the probes' events.
const SERVED_PREFIX_EVENTS: usize = 10 * 1024;
/// Minimum client commits in a serve-repl load phase, so the p99 has
/// at least ten samples beyond it.
const MIN_LOAD_COMMITS: u64 = 1_100;
/// Per-session token budget generated (and referenced) in set-up.
const SESSION_CAP_COMMITS: usize = 20_000;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Untimed pause between a restarted leader's `listening` line and the
/// resume. A resume sent at once races the new process's first accept
/// poll: it either lands before it (~5 ms recovery) or waits out the
/// poll's 25 ms `WouldBlock` sleep (~30 ms), and which one wins flipped
/// from run to run. After the pause every cycle meets the poll the way
/// a client reconnecting a moment later does.
const SETTLE: Duration = Duration::from_millis(2);

/// SIGKILLs and restarts the leader, then waits [`SETTLE`]; returns the
/// kill → `listening` time, which `recover_ms` adds to the resume's.
fn restart_settled(pair: &mut Pair) -> std::io::Result<f64> {
    let up = pair.restart_leader()?;
    std::thread::sleep(SETTLE);
    Ok(ms(up))
}

/// One history of a stream run: its cached token file, the tokens and
/// the in-process reference of what `adya-check --stream` prints.
pub struct Part {
    pub path: PathBuf,
    pub tokens: String,
    pub reference: StreamRef,
}

/// Stream input of a run, prepared in set-up.
pub struct StreamInput {
    pub parts: Vec<Part>,
    pub generated: bool,
}

/// One set-up of a stream workload: load or generate each history's
/// tokens, load or compute its in-process reference, and cross-check
/// the online checker against the batch checker on a completed prefix
/// of the first.
pub fn stream_setup(ctx: &Ctx, w: Workload, gates: &mut Gates) -> std::io::Result<StreamInput> {
    // One thread per history: on a cache miss each generates its
    // tokens and computes its reference, which costs about as much as
    // checking the history.
    let loaded: Vec<std::io::Result<(Part, bool)>> = std::thread::scope(|sc| {
        let handles: Vec<_> = w
            .history_seeds(ctx.seed)
            .into_iter()
            .map(|hs| {
                sc.spawn(move || {
                    let (tokens, fresh) = inputs::load_or_generate(&ctx.cache, w, hs)?;
                    let reference = StreamRef::load_or_compute(&ctx.cache, w, hs, &tokens)?;
                    let path = ctx.cache.join(format!("{}-{hs}.tokens", w.name()));
                    Ok((
                        Part {
                            path,
                            tokens,
                            reference,
                        },
                        fresh,
                    ))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("set-up thread"))
            .collect()
    });
    let mut parts = Vec::new();
    let mut generated = false;
    for r in loaded {
        let (part, fresh) = r?;
        generated |= fresh;
        parts.push(part);
    }
    let prefix = inputs::completed_prefix(&parts[0].tokens, inputs::BATCH_PREFIX_EVENTS);
    let batch = inputs::batch_classify(&prefix);
    let online = inputs::online_classify(&prefix);
    gates.attempt(1);
    gates.check(batch == online, || {
        format!(
            "online {online:?} != batch {batch:?} on the completed {}-event prefix",
            prefix.len()
        )
    });
    Ok(StreamInput { parts, generated })
}

fn timed_setups<T>(mut once: impl FnMut() -> std::io::Result<T>) -> std::io::Result<(T, f64)> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        // The previous set-up (servers included) ends before the next.
        drop(last.take());
        let t = Instant::now();
        last = Some(once()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), median(&times)))
}

/// One `adya-check --stream FILE` run: wall seconds, peak RSS (KiB),
/// exit code, stdout digest and line count.
struct CliRun {
    wall_s: f64,
    hwm_kib: u64,
    code: Option<i32>,
    digest: u64,
    lines: u64,
}

fn run_cli(ctx: &Ctx, input: &Path) -> std::io::Result<CliRun> {
    let out_path = ctx.work.join("cli.out");
    let out = std::fs::File::create(&out_path)?;
    let t = Instant::now();
    let mut child = Command::new(ctx.check_bin())
        .arg("--stream")
        .arg(input)
        .stdin(Stdio::null())
        .stdout(out)
        .stderr(Stdio::null())
        .spawn()?;
    let pid = child.id();
    let hwm = Arc::new(AtomicU64::new(0));
    let watcher = {
        let hwm = Arc::clone(&hwm);
        std::thread::spawn(move || {
            // VmHWM disappears once the process exits; the last read
            // is at most one poll interval before exit.
            while let Some(kib) = vm_hwm_kib(pid) {
                hwm.fetch_max(kib, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(5));
            }
        })
    };
    let status = child.wait()?;
    let wall_s = t.elapsed().as_secs_f64();
    let _ = watcher.join();
    let mut digest = FNV_SEED;
    let mut lines = 0;
    for line in BufReader::new(std::fs::File::open(&out_path)?).lines() {
        let line = line?;
        digest = fnv1a(line.as_bytes(), digest);
        digest = fnv1a(b"\n", digest);
        lines += 1;
    }
    Ok(CliRun {
        wall_s,
        hwm_kib: hwm.load(Ordering::Relaxed),
        code: status.code(),
        digest,
        lines,
    })
}

/// Feeds `tokens` in frames of [`FEED_FRAME_TOKENS`], reading each
/// frame's verdicts before the next; returns the verdict lines.
fn feed(conn: &mut Conn, tokens: &[String]) -> std::io::Result<Vec<String>> {
    let mut got = Vec::new();
    for frame in tokens.chunks(FEED_FRAME_TOKENS) {
        conn.send(&frame.join(" "))?;
        for _ in frame.iter().filter(|t| t.starts_with('c')) {
            got.push(conn.line()?);
        }
    }
    Ok(got)
}

/// What [`commit_loop`] saw: every commit's latency (ms), each
/// session's verdict lines, and the tokens each session sent.
pub struct CommitLoop {
    pub lat: Vec<f64>,
    pub ledgers: Vec<Vec<String>>,
    pub sent: Vec<String>,
}

/// Closed-loop commits on `sessions` new sessions in parallel, each
/// sending the same first `commits` commits of `tokens`: the tokens up
/// to a commit in one frame, then that commit's verdict awaited.
pub fn commit_loop(
    addr: &str,
    tokens: &[String],
    sessions: usize,
    commits: usize,
) -> std::io::Result<CommitLoop> {
    let mut frames = Vec::with_capacity(commits);
    let mut sent = Vec::new();
    let mut frame = Vec::new();
    for tok in tokens {
        if frames.len() == commits {
            break;
        }
        frame.push(tok.as_str());
        sent.push(tok.clone());
        if tok.starts_with('c') {
            frames.push(frame.join(" "));
            frame.clear();
        }
    }
    sent.truncate(sent.len() - frame.len());
    let per: Vec<std::io::Result<(Vec<f64>, Vec<String>)>> = std::thread::scope(|sc| {
        let handles: Vec<_> = (0..sessions)
            .map(|i| {
                let frames = &frames;
                sc.spawn(move || {
                    let mut conn = Conn::hello(addr, &format!("c{i}"))?;
                    let mut lat = Vec::with_capacity(frames.len());
                    let mut got = Vec::with_capacity(frames.len());
                    for f in frames {
                        let t = Instant::now();
                        conn.send(f)?;
                        got.push(conn.line()?);
                        lat.push(ms(t.elapsed()));
                    }
                    Ok((lat, got))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("session thread"))
            .collect()
    });
    let mut lat = Vec::new();
    let mut ledgers = Vec::new();
    for r in per {
        let (l, g) = r?;
        lat.extend(l);
        ledgers.push(g);
    }
    Ok(CommitLoop { lat, ledgers, sent })
}

/// Median repl-ack time over `ACK_PROBES` single-commit probes on the
/// raw session connection: commit sent → leader reports zero lag.
fn raw_ack_probes(
    pair: &Pair,
    conn: &mut Conn,
    sent: &mut Vec<String>,
    got: &mut Vec<String>,
    gates: &mut Gates,
) -> std::io::Result<Vec<f64>> {
    let mut acks = Vec::new();
    for i in 0..ACK_PROBES {
        let t = probe_txn(sent.len(), i);
        conn.send(&format!("b{t} w{t}(oa,{i})"))?;
        sent.extend([format!("b{t}"), format!("w{t}(oa,{i})")]);
        let start = Instant::now();
        conn.send(&format!("c{t}"))?;
        sent.push(format!("c{t}"));
        got.push(conn.line()?);
        gates.attempt(1);
        let ok = pair.wait_zero_lag(Duration::from_secs(20));
        gates.check(ok, || {
            "follower never reached zero lag after a probe".into()
        });
        acks.push(ms(start.elapsed()));
    }
    Ok(acks)
}

/// A transaction id above every generated one, unique per probe.
fn probe_txn(salt: usize, i: usize) -> u64 {
    1_000_000_000 + (salt as u64 % 1_000_000) * 64 + i as u64
}

/// `stream-wide` / `stream-hot`.
pub fn stream(ctx: &Ctx, w: Workload) -> std::io::Result<Outcome> {
    let mut gates = Gates::new();
    std::fs::create_dir_all(&ctx.work)?;
    let (input, setup_s) = timed_setups(|| stream_setup(ctx, w, &mut gates))?;
    let events: u64 = input.parts.iter().map(|p| p.reference.events).sum();
    eprintln!(
        "perfbench: {} seed {}: {} histories, {events} events{}",
        w.name(),
        ctx.seed,
        input.parts.len(),
        if input.generated { " (generated)" } else { "" }
    );
    let budget = Instant::now();

    // The history served through leader → follower: closed-loop
    // commits for latency, then a bulk-fed prefix whose session takes
    // the ack probes and kill -9 recovery cycles.
    let pair_dir = ctx.work.join("pair");
    let mut pair = Pair::start(&ctx.serve_bin(), &pair_dir)?;
    let prefix: Vec<String> = input.parts[0]
        .tokens
        .split_whitespace()
        .take(SERVED_PREFIX_EVENTS)
        .map(str::to_string)
        .collect();
    let CommitLoop { lat, ledgers, sent } = commit_loop(
        &pair.leader.addr,
        &prefix,
        LATENCY_SESSIONS,
        LATENCY_COMMITS,
    )?;
    let (want, _) = inputs::session_reference(&sent);
    for (i, got) in ledgers.iter().enumerate() {
        gates.attempt(want.len() as u64);
        let bad =
            want.iter().zip(got).filter(|(a, b)| a != b).count() + want.len().abs_diff(got.len());
        if bad > 0 {
            gates.failed += bad as u64 - 1;
            gates.fail(format!(
                "latency session c{i}: {bad} of {} verdicts differ or are missing",
                want.len()
            ));
        }
    }
    let mut conn = Conn::hello(&pair.leader.addr, "bench")?;
    let mut got = feed(&mut conn, &prefix)?;
    gates.attempt(got.len() as u64);
    let mut sent = prefix;
    let acks = raw_ack_probes(&pair, &mut conn, &mut sent, &mut got, &mut gates)?;
    drop(conn);

    let mut recovers = Vec::new();
    for i in 0..RECOVER_CYCLES {
        let up = restart_settled(&mut pair)?;
        let start = Instant::now();
        let (mut c, events, replay) = Conn::resume(&pair.leader.addr, "bench", got.len() as u64)?;
        recovers.push(up + ms(start.elapsed()));
        gates.attempt(1);
        gates.check(events == sent.len() as u64 && replay.is_empty(), || {
            format!(
                "resume: server holds {events} events (sent {}), replayed {}",
                sent.len(),
                replay.len()
            )
        });
        let t = probe_txn(sent.len(), ACK_PROBES + i);
        c.send(&format!("b{t} w{t}(oa,{i}) c{t}"))?;
        sent.extend([format!("b{t}"), format!("w{t}(oa,{i})"), format!("c{t}")]);
        got.push(c.line()?);
        gates.attempt(1);
    }
    let (want, _) = inputs::session_reference(&sent);
    let mismatched =
        want.iter().zip(&got).filter(|(a, b)| a != b).count() + want.len().abs_diff(got.len());
    if mismatched > 0 {
        gates.failed += mismatched as u64 - 1;
        gates.fail(format!(
            "served verdicts: {mismatched} of {} differ from the in-process reference",
            want.len()
        ));
    }
    gates.attempt(1);
    gates.check(pair.wait_zero_lag(Duration::from_secs(20)), || {
        "follower lag never reached zero".into()
    });
    drop(pair);

    // Throughput: passes over every history, each history a whole-file
    // run, until the budget is spent and at least 4 runs are made.
    let mut rates = Vec::new();
    let mut hwms = Vec::new();
    while hwms.len() < 4 || budget.elapsed().as_secs_f64() < ctx.seconds {
        let mut wall = 0.0;
        for part in &input.parts {
            let r = &part.reference;
            let run = run_cli(ctx, &part.path)?;
            gates.attempt(r.commits);
            let ok =
                matches!(run.code, Some(0 | 1)) && run.digest == r.digest && run.lines == r.lines;
            if !ok {
                gates.failed += r.commits - 1;
                gates.fail(format!(
                    "adya-check exit {:?}, {} lines (want {}), digest match {}",
                    run.code,
                    run.lines,
                    r.lines,
                    run.digest == r.digest
                ));
            }
            wall += run.wall_s;
            hwms.push(run.hwm_kib as f64 / 1024.0);
        }
        rates.push(events as f64 / wall);
    }
    let (lo, hi) = rates
        .iter()
        .fold((f64::MAX, 0f64), |(l, h), &r| (l.min(r), h.max(r)));

    let metrics = vec![
        metric(
            "setup_s",
            setup_s,
            "s",
            format!("median of {SETUP_REPS} set-ups"),
        ),
        metric(
            "events_per_s",
            median(&rates),
            "1/s",
            format!(
                "median of {} passes over {events} events ({lo:.0}..{hi:.0})",
                rates.len()
            ),
        ),
        metric(
            "peak_rss_mb",
            median(&hwms),
            "MB",
            format!("adya-check VmHWM, median of {} runs", hwms.len()),
        ),
        metric(
            "verdict_p50_ms",
            median(&lat),
            "ms",
            format!(
                "{} samples, {LATENCY_SESSIONS} closed-loop sessions",
                lat.len()
            ),
        ),
        p99(&lat, &mut gates),
        metric(
            "repl_ack_ms",
            median(&acks),
            "ms",
            format!("median of {} probes", acks.len()),
        ),
        metric(
            "recover_ms",
            median(&recovers),
            "ms",
            format!("median of {} cycles", recovers.len()),
        ),
    ];
    Ok(finish(gates, metrics))
}

fn p99(lat: &[f64], gates: &mut Gates) -> Metric {
    let v = tail_percentile(lat, 0.99);
    gates.check(v.is_some(), || {
        format!("only {} latency samples: too few for a p99", lat.len())
    });
    metric(
        "verdict_p99_ms",
        v.unwrap_or(f64::NAN),
        "ms",
        format!("{} samples", lat.len()),
    )
}

fn finish(gates: Gates, metrics: Vec<Metric>) -> Outcome {
    Outcome {
        correct: gates.failed == 0,
        attempted: gates.attempted.max(1),
        failed: gates.failed,
        metrics,
    }
}

/// Set-up of serve-repl: a fresh leader/follower pair, both sessions'
/// token streams and their in-process reference verdicts.
pub struct ServeInput {
    pub pair: Pair,
    pub tokens: Vec<Vec<String>>,
    pub verdicts: Vec<Vec<String>>,
}

pub const SESSIONS: usize = 2;

pub fn serve_setup(ctx: &Ctx, work: &Path) -> std::io::Result<ServeInput> {
    let pair = Pair::start(&ctx.serve_bin(), work)?;
    let mut tokens = Vec::new();
    let mut verdicts = Vec::new();
    for s in 0..SESSIONS {
        let mut g = SessionGen::new(ctx.seed, s as u64);
        let toks: Vec<String> = (0..SESSION_CAP_COMMITS)
            .flat_map(|_| g.next_txn())
            .collect();
        verdicts.push(inputs::session_reference(&toks).0);
        tokens.push(toks);
    }
    Ok(ServeInput {
        pair,
        tokens,
        verdicts,
    })
}

/// Sends one whole transaction; returns the commit's round trip (ms).
fn client_txn(c: &mut ServeClient, toks: &[String]) -> Result<f64, adya_workloads::ClientError> {
    let (commit, body) = toks.split_last().expect("non-empty txn");
    for t in body {
        c.send_token(t)?;
    }
    let t = Instant::now();
    c.send_token(commit)?;
    Ok(ms(t.elapsed()))
}

/// Closed-loop load: one thread per session, each waiting for every
/// verdict before its next transaction, until `secs` have passed and
/// the sessions together have `min_commits`. Returns per-commit RTTs
/// (ms), events sent and the load's wall time.
pub fn closed_loop(
    clients: &mut [ServeClient],
    tokens: &[Vec<String>],
    secs: f64,
    min_commits: u64,
    gates: &mut Gates,
) -> (Vec<f64>, u64, f64) {
    let total = AtomicU64::new(0);
    let barrier = Barrier::new(clients.len());
    let start = Instant::now();
    let per: Vec<(Vec<f64>, u64, Option<String>)> = std::thread::scope(|sc| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(tokens)
            .map(|(c, toks)| {
                let (total, barrier) = (&total, &barrier);
                sc.spawn(move || {
                    barrier.wait();
                    let mut lat = Vec::new();
                    let mut events = 0u64;
                    let limit = toks.len() - 4 * 200; // room for probes and cycles
                    while (start.elapsed().as_secs_f64() < secs
                        || total.load(Ordering::Relaxed) < min_commits)
                        && c.tokens_sent() + 4 <= limit
                    {
                        let at = c.tokens_sent();
                        match client_txn(c, &toks[at..at + 4]) {
                            Ok(rtt) => lat.push(rtt),
                            Err(e) => return (lat, events, Some(e.to_string())),
                        }
                        events += 4;
                        total.fetch_add(1, Ordering::Relaxed);
                    }
                    (lat, events, None)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let mut lat = Vec::new();
    let mut events = 0;
    for (l, e, err) in per {
        gates.attempt(l.len() as u64);
        if let Some(err) = err {
            gates.attempt(1);
            gates.fail(format!("client: {err}"));
        }
        lat.extend(l);
        events += e;
    }
    (lat, events, wall)
}

/// Closes every session, comparing its ledger and final verdict with
/// the in-process reference.
pub fn check_ledgers(clients: Vec<ServeClient>, input: &ServeInput, gates: &mut Gates) {
    for (i, c) in clients.into_iter().enumerate() {
        let sent = c.tokens_sent();
        let got = c.verdicts().to_vec();
        let want = &input.verdicts[i][..got.len().min(input.verdicts[i].len())];
        let commits = input.tokens[i][..sent]
            .iter()
            .filter(|t| t.starts_with('c'))
            .count();
        let bad =
            want.iter().zip(&got).filter(|(a, b)| a != b).count() + commits.abs_diff(got.len());
        if bad > 0 {
            gates.failed += bad as u64 - 1;
            gates.fail(format!(
                "session s{i}: {bad} of {commits} verdicts differ or are missing"
            ));
        }
        gates.attempt(1);
        match c.close() {
            Ok(fin) => {
                let (_, want_fin) = inputs::session_reference(&input.tokens[i][..sent]);
                gates.check(fin == want_fin, || {
                    format!("session s{i}: final verdict {fin} != {want_fin}")
                });
            }
            Err(e) => gates.fail(format!("session s{i}: close: {e}")),
        }
    }
}

/// `serve-repl`.
pub fn serve(ctx: &Ctx) -> std::io::Result<Outcome> {
    let mut gates = Gates::new();
    std::fs::create_dir_all(&ctx.work)?;
    let pair_dir = ctx.work.join("pair");
    // A previous run's data directories are removed outside the timing.
    let _ = std::fs::remove_dir_all(&pair_dir);
    let (mut input, setup_s) = timed_setups(|| serve_setup(ctx, &pair_dir))?;
    let leader = input.pair.leader.addr.clone();
    let mut clients = Vec::new();
    for s in 0..SESSIONS {
        clients.push(ServeClient::hello(&leader, &format!("s{s}")).map_err(std::io::Error::other)?);
    }
    let (lat, events, wall) = closed_loop(
        &mut clients,
        &input.tokens,
        0.8 * ctx.seconds,
        MIN_LOAD_COMMITS,
        &mut gates,
    );
    let hwm = vm_hwm_kib(input.pair.leader.pid()).unwrap_or(0) as f64 / 1024.0;

    let mut acks = Vec::new();
    for i in 0..ACK_PROBES {
        let s = i % SESSIONS;
        let at = clients[s].tokens_sent();
        let toks = &input.tokens[s][at..at + 4];
        gates.attempt(1);
        for t in &toks[..3] {
            clients[s].send_token(t).map_err(std::io::Error::other)?;
        }
        let start = Instant::now();
        clients[s]
            .send_token(&toks[3])
            .map_err(std::io::Error::other)?;
        let ok = input.pair.wait_zero_lag(Duration::from_secs(20));
        acks.push(ms(start.elapsed()));
        gates.check(ok, || {
            "follower never reached zero lag after a probe".into()
        });
    }

    let mut recovers = Vec::new();
    let policy = RetryPolicy::default();
    for cycle in 0..RECOVER_CYCLES {
        let up = restart_settled(&mut input.pair)?;
        let start = Instant::now();
        let errs: Vec<Option<String>> = std::thread::scope(|sc| {
            let hs: Vec<_> = clients
                .iter_mut()
                .enumerate()
                .map(|(i, c)| {
                    let policy = &policy;
                    let seed = ctx.seed + (cycle * SESSIONS + i) as u64;
                    sc.spawn(move || c.resume(policy, seed).err().map(|e| e.to_string()))
                })
                .collect();
            hs.into_iter()
                .map(|h| h.join().expect("resume thread"))
                .collect()
        });
        recovers.push(up + ms(start.elapsed()));
        for e in errs.into_iter().flatten() {
            gates.fail(format!("resume: {e}"));
        }
        gates.attempt(SESSIONS as u64);
        for (s, c) in clients.iter_mut().enumerate() {
            let at = c.tokens_sent();
            gates.attempt(1);
            if let Err(e) = client_txn(c, &input.tokens[s][at..at + 4]) {
                gates.fail(format!("after recovery: {e}"));
            }
        }
    }
    gates.attempt(1);
    gates.check(input.pair.wait_zero_lag(Duration::from_secs(20)), || {
        "follower lag never reached zero".into()
    });
    check_ledgers(clients, &input, &mut gates);
    drop(input.pair);

    let metrics = vec![
        metric(
            "setup_s",
            setup_s,
            "s",
            format!("median of {SETUP_REPS} set-ups"),
        ),
        metric(
            "events_per_s",
            events as f64 / wall,
            "1/s",
            format!("{events} events in {wall:.2} s, {SESSIONS} closed-loop clients"),
        ),
        metric("peak_rss_mb", hwm, "MB", "leader VmHWM after the load"),
        metric(
            "verdict_p50_ms",
            median(&lat),
            "ms",
            format!("{} samples", lat.len()),
        ),
        p99(&lat, &mut gates),
        metric(
            "repl_ack_ms",
            median(&acks),
            "ms",
            format!("median of {} probes", acks.len()),
        ),
        metric(
            "recover_ms",
            median(&recovers),
            "ms",
            format!("median of {} cycles, {SESSIONS} sessions", recovers.len()),
        ),
    ];
    Ok(finish(gates, metrics))
}
