//! The traced run: each layer's public functions called on the run's
//! own generated inputs, with spans from this file around every call.
//! Spans stay in memory and are written once, at the end, as Chrome
//! trace-event JSON under the work directory.
//!
//! The graph layer (`IncrementalDag`, inside the checker) cannot be
//! reached from outside, so checker, GC and graph time share
//! `online.checker.ingest_ns`; `nogc_ingest_ns` (the same pass with GC
//! off) is the outside proxy for what GC costs.

use std::path::Path;
use std::time::{Duration, Instant};

use adya_faults::{TapCrashConfig, TapCrashPlane};
use adya_history::Event;
use adya_online::{encode_log, wire, GcConfig, OnlineChecker, StreamParser, LOG_MAGIC};
use adya_serve::{FsyncPolicy, LogConfig, ReplicaSink, Session, SessionConfig, SessionLog};
use adya_workloads::ServeClient;

use crate::e2e::{self, Ctx, SESSIONS};
use crate::inputs::{SessionGen, Workload};
use crate::server::{http_get, prom_p50, Conn, Pair};
use crate::util::{
    fnv1a, median, metric, tail_percentile, Gates, Metric, Outcome, Tracer, FNV_SEED,
};

/// Batch size of the ingest pass (`PipelineConfig::default().max_batch`).
const BATCH: usize = 128;
/// Events fed to the per-record layers (wire, log, session, replica).
const RECORD_EVENTS: usize = 50_000;
/// `--fsync always` syncs every append; fewer appends keep it bounded.
const ALWAYS_EVENTS: usize = 500;
/// Records the replica sink applies (it syncs at every flush).
const SINK_EVENTS: usize = 20_000;
/// Fresh connections timed for `hello_ms`.
const HELLOS: usize = 20;
/// Client commits of the traced serve-repl closed loop.
const TRACED_COMMITS: u64 = 120;
/// Events of a stream workload served in the traced run.
const TRACED_EVENTS: usize = 2048;
/// Events of serve-repl's session-0 stream used by the in-process layers.
const SERVE_LAYER_TXNS: usize = 20_000;
/// Repetitions behind snapshot, restore and log recovery timings.
const REPS: usize = 5;

/// Result of one ingest pass over parsed events.
struct Pass {
    total_ns: u64,
    digest: u64,
    live_peak: usize,
    fired_verdicts: u64,
    render_bytes: u64,
    verdicts: u64,
    checker: OnlineChecker,
    events: Vec<Event>,
}

/// Parse → ingest_batch → render, `BATCH` events at a time, with one
/// span per layer per batch under a root span.
fn ingest_pass(
    tokens: &[&str],
    gc: GcConfig,
    provenance: bool,
    tr: &mut Tracer,
    tag: &'static str,
) -> Pass {
    let mut parser = StreamParser::new();
    let mut checker = OnlineChecker::with_gc(gc);
    checker.set_provenance(provenance);
    let mut p = Pass {
        total_ns: 0,
        digest: FNV_SEED,
        live_peak: 0,
        fired_verdicts: 0,
        render_bytes: 0,
        verdicts: 0,
        checker: OnlineChecker::new(),
        events: Vec::with_capacity(tokens.len()),
    };
    let (parse_name, ingest_name, render_name) = match tag {
        "gc" => (
            "online.feed.parse_token",
            "online.checker.ingest_batch",
            "online.verdict.to_json",
        ),
        _ => (
            "online.feed.parse_token.nogc",
            "online.checker.ingest_batch.nogc",
            "online.verdict.to_json.nogc",
        ),
    };
    let start = Instant::now();
    let root = tr.enter(if tag == "gc" { "pass.gc" } else { "pass.nogc" }, None);
    let mut batch = Vec::with_capacity(BATCH);
    for chunk in tokens.chunks(BATCH) {
        let s = tr.enter(parse_name, Some(root));
        batch.clear();
        for tok in chunk {
            batch.push(parser.parse_token(tok).expect("workload tokens parse"));
        }
        tr.exit(s, chunk.len() as u64);
        let s = tr.enter(ingest_name, Some(root));
        let verdicts = checker.ingest_batch(&batch);
        tr.exit(s, batch.len() as u64);
        p.live_peak = p.live_peak.max(checker.live_txns());
        let s = tr.enter(render_name, Some(root));
        for v in &verdicts {
            let line = v.to_json();
            p.render_bytes += line.len() as u64;
            p.digest = fnv1a(line.as_bytes(), p.digest);
            p.digest = fnv1a(b"\n", p.digest);
            if !v.new_fired.is_empty() {
                p.fired_verdicts += 1;
            }
        }
        tr.exit(s, verdicts.len() as u64);
        p.verdicts += verdicts.len() as u64;
        p.events.append(&mut batch);
    }
    tr.exit(root, tokens.len() as u64);
    p.total_ns = start.elapsed().as_nanos() as u64;
    p.checker = checker;
    p
}

/// ns/event of the last quarter of ingest batches ÷ the first quarter.
fn growth(spans: &[(u64, u64)]) -> f64 {
    let q = (spans.len() / 4).max(1);
    let rate = |s: &[(u64, u64)]| {
        let (ns, ops) = s.iter().fold((0, 0), |(a, b), (n, o)| (a + n, b + o));
        ns as f64 / ops.max(1) as f64
    };
    rate(&spans[spans.len() - q..]) / rate(&spans[..q])
}

fn timed_us<T>(tr: &mut Tracer, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let s = tr.enter(name, None);
    let t = Instant::now();
    let out = f();
    let us = t.elapsed().as_secs_f64() * 1e6;
    tr.exit(s, 1);
    (out, us)
}

/// ns per call of `f` over `items`, one span around the loop.
fn per_item_ns<T>(tr: &mut Tracer, name: &'static str, items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let s = tr.enter(name, None);
    let t = Instant::now();
    for it in items {
        f(it);
    }
    let ns = t.elapsed().as_nanos() as f64 / items.len().max(1) as f64;
    tr.exit(s, items.len() as u64);
    ns
}

fn log_append_ns(
    tr: &mut Tracer,
    dir: &Path,
    policy: FsyncPolicy,
    events: &[Event],
    name: &'static str,
) -> std::io::Result<f64> {
    let _ = std::fs::remove_dir_all(dir);
    let cfg = LogConfig {
        fsync: policy,
        ..LogConfig::default()
    };
    let mut log = SessionLog::create(dir, cfg, None)?;
    let mut err = None;
    let ns = per_item_ns(tr, name, events, |ev| {
        if let Err(e) = log.append(ev) {
            err.get_or_insert(e);
        }
    });
    err.map_or(Ok(ns), Err)
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to)?;
    for e in std::fs::read_dir(from)? {
        let e = e?;
        if e.file_type()?.is_file() {
            std::fs::copy(e.path(), to.join(e.file_name()))?;
        }
    }
    Ok(())
}

/// In-process `Session::apply_line`, one token per line as clients
/// send them; returns per-commit-line apply times (µs) and the
/// session's directory (left as a kill -9 would: no final snapshot).
fn session_apply(
    tr: &mut Tracer,
    dir: &Path,
    tokens: &[&str],
    gates: &mut Gates,
) -> std::io::Result<Vec<f64>> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir)?;
    let tap = TapCrashPlane::new(TapCrashConfig::default());
    let mut session = Session::create(dir, "bench", SessionConfig::default(), None)?;
    let mut commit_us = Vec::new();
    let root = tr.enter("serve.session.apply_line", None);
    for tok in tokens {
        let t = Instant::now();
        let out = session.apply_line(tok, &tap);
        let us = t.elapsed().as_secs_f64() * 1e6;
        match out {
            Ok(v) if tok.starts_with('c') => {
                gates.attempt(1);
                gates.check(v.len() == 1, || {
                    format!("apply_line({tok}) gave {} verdicts", v.len())
                });
                commit_us.push(us);
            }
            Ok(_) => {}
            Err(e) => gates.fail(format!("apply_line({tok}): {e:?}")),
        }
    }
    tr.exit(root, tokens.len() as u64);
    Ok(commit_us)
}

/// Follower-side `ReplicaSink`: the records of `events` appended at
/// their exact offsets, with a durability barrier every `BATCH`.
fn replica_sink(tr: &mut Tracer, dir: &Path, events: &[Event]) -> std::io::Result<(f64, f64)> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir)?;
    let mut sink = ReplicaSink::new(dir.to_path_buf(), FsyncPolicy::Interval);
    let mut off = 0u64;
    let head = LOG_MAGIC.to_vec();
    sink.append("bench", "seg-0.log", 0, wire::crc32(&head), &head)
        .map_err(|e| std::io::Error::other(format!("{e:?}")))?;
    off += head.len() as u64;
    let records: Vec<Vec<u8>> = events
        .iter()
        .map(|e| encode_log(std::slice::from_ref(e))[LOG_MAGIC.len()..].to_vec())
        .collect();
    let (mut append_ns, mut appends, mut flush_us) = (0u128, 0u64, Vec::new());
    for chunk in records.chunks(BATCH) {
        let s = tr.enter("serve.replica.append", None);
        let t = Instant::now();
        for r in chunk {
            sink.append("bench", "seg-0.log", off, wire::crc32(r), r)
                .map_err(|e| std::io::Error::other(format!("{e:?}")))?;
            off += r.len() as u64;
        }
        append_ns += t.elapsed().as_nanos();
        appends += chunk.len() as u64;
        tr.exit(s, chunk.len() as u64);
        let (res, us) = timed_us(tr, "serve.replica.flush", || sink.flush());
        res?;
        flush_us.push(us);
    }
    Ok((append_ns as f64 / appends.max(1) as f64, median(&flush_us)))
}

/// The traced service phase: hello latency, a short closed loop (for
/// the client-observed verdict p50 that `net_share` compares against),
/// the leader's replication-ack histogram, and error frames seen.
struct ServiceTrace {
    hello_ms: f64,
    verdict_p50_ms: f64,
    ack_rtt_us_p50: f64,
    error_frames: u64,
}

fn service_phase(
    ctx: &Ctx,
    w: Workload,
    stream_tokens: &[&str],
    tr: &mut Tracer,
    gates: &mut Gates,
) -> std::io::Result<ServiceTrace> {
    let pair = Pair::start(&ctx.serve_bin(), &ctx.work.join("pair"))?;
    let addr = pair.leader.addr.clone();
    let mut error_frames = 0;
    let mut hellos = Vec::new();
    for i in 0..HELLOS {
        let (c, ms) = timed_us(tr, "serve.server.hello", || {
            Conn::hello(&addr, &format!("h{i}"))
        });
        let c = c?;
        error_frames += c.error_frames;
        hellos.push(ms / 1e3);
    }
    let rtts = if w == Workload::ServeRepl {
        let mut tokens = Vec::new();
        let mut clients = Vec::new();
        for s in 0..SESSIONS {
            let mut g = SessionGen::new(ctx.seed, s as u64);
            tokens.push(
                (0..TRACED_COMMITS as usize + 400)
                    .flat_map(|_| g.next_txn())
                    .collect::<Vec<_>>(),
            );
            clients
                .push(ServeClient::hello(&addr, &format!("s{s}")).map_err(std::io::Error::other)?);
        }
        let s = tr.enter("serve.client.closed_loop", None);
        let (lat, events, _) = e2e::closed_loop(&mut clients, &tokens, 0.0, TRACED_COMMITS, gates);
        tr.exit(s, events);
        for (i, c) in clients.iter().enumerate() {
            let (want, _) = crate::inputs::session_reference(&tokens[i][..c.tokens_sent()]);
            gates.attempt(1);
            gates.check(c.verdicts() == want.as_slice(), || {
                format!("traced session s{i}: ledger differs from the reference")
            });
        }
        lat
    } else {
        // The workload's own stream, one session, committed in a
        // closed loop as in the plain run.
        let toks: Vec<String> = stream_tokens
            .iter()
            .take(TRACED_EVENTS)
            .map(|t| t.to_string())
            .collect();
        let s = tr.enter("serve.client.commit_loop", None);
        let e2e::CommitLoop { lat, ledgers, sent } =
            e2e::commit_loop(&addr, &toks, 1, TRACED_COMMITS as usize)?;
        tr.exit(s, sent.len() as u64);
        error_frames += ledgers[0]
            .iter()
            .filter(|l| l.starts_with("{\"error\""))
            .count() as u64;
        let (want, _) = crate::inputs::session_reference(&sent);
        gates.attempt(1);
        gates.check(ledgers[0] == want, || {
            "traced stream session: verdicts differ from the reference".into()
        });
        lat
    };
    gates.attempt(1);
    gates.check(pair.wait_zero_lag(Duration::from_secs(20)), || {
        "follower lag never reached zero".into()
    });
    let (_, metrics) = http_get(&addr, "/metrics")?;
    let ack = prom_p50(&metrics, "sli_repl_ack_rtt_us");
    gates.check(ack.is_some(), || {
        "leader /metrics has no sli_repl_ack_rtt_us summary".into()
    });
    Ok(ServiceTrace {
        hello_ms: median(&hellos),
        verdict_p50_ms: median(&rtts),
        ack_rtt_us_p50: ack.unwrap_or(f64::NAN),
        error_frames,
    })
}

/// The traced run of workload `w`.
pub fn traced(ctx: &Ctx, w: Workload) -> std::io::Result<Outcome> {
    let mut gates = Gates::new();
    std::fs::create_dir_all(&ctx.work)?;
    let mut tr = Tracer::new(true);
    let stream_input;
    let serve_text;
    let (tokens, reference): (Vec<&str>, Option<(u64, u64)>) = if w == Workload::ServeRepl {
        let mut g = SessionGen::new(ctx.seed, 0);
        serve_text = (0..SERVE_LAYER_TXNS)
            .flat_map(|_| g.next_txn())
            .collect::<Vec<_>>()
            .join("\n");
        (serve_text.split('\n').collect(), None)
    } else {
        let s = tr.enter("setup", None);
        stream_input = e2e::stream_setup(ctx, w, &mut gates)?;
        tr.exit(s, 1);
        // The first history of the run, as the served phase uses.
        let part = &stream_input.parts[0];
        let r = &part.reference;
        (
            part.tokens.split_whitespace().collect(),
            Some((r.digest, r.lines)),
        )
    };

    // Tracing overhead: the same pass untraced, then traced.
    // Stream workloads mirror `adya-check --stream` (provenance on);
    // serve-repl mirrors an `adya-serve` session (provenance off).
    let prov = w != Workload::ServeRepl;
    // The first pass only warms the allocator and caches; the traced
    // pass is compared with the untraced one after it.
    let untraced = || {
        ingest_pass(
            &tokens,
            GcConfig::default(),
            prov,
            &mut Tracer::new(false),
            "gc",
        )
        .total_ns
    };
    untraced();
    let mut pass = ingest_pass(&tokens, GcConfig::default(), prov, &mut tr, "gc");
    let untraced_ns = untraced();
    let overhead = pass.total_ns as f64 / untraced_ns as f64 - 1.0;
    let fin = pass.checker.finish();
    let fin_line = fin.to_json();
    let digest = fnv1a(b"\n", fnv1a(fin_line.as_bytes(), pass.digest));
    if let Some((want_digest, want_lines)) = reference {
        gates.attempt(pass.verdicts);
        if digest != want_digest || pass.verdicts + 1 != want_lines {
            gates.failed += pass.verdicts.max(1) - 1;
            gates.fail("batched ingest pass differs from the sequential reference");
        }
    }
    // GC prunes aborted transactions too, so the base is every
    // finished transaction.
    let finished = fin.committed + tokens.iter().filter(|t| t.starts_with('a')).count() as u64;
    let ingest_spans = tr.durations("online.checker.ingest_batch");

    let nogc = ingest_pass(
        &tokens,
        GcConfig {
            enabled: false,
            ..GcConfig::default()
        },
        prov,
        &mut tr,
        "nogc",
    );
    let nogc_ns = tr.ns_per_op("online.checker.ingest_batch.nogc");
    drop(nogc);

    let mut snaps = Vec::new();
    let mut restores = Vec::new();
    let mut state = Vec::new();
    for _ in 0..REPS {
        let (bytes, us) = timed_us(&mut tr, "online.checker.snapshot", || {
            pass.checker.snapshot()
        });
        snaps.push(us);
        let (restored, us) = timed_us(&mut tr, "online.checker.restore", || {
            OnlineChecker::restore(&bytes)
        });
        restores.push(us);
        gates.attempt(1);
        gates.check(restored.is_ok(), || "snapshot did not restore".into());
        state = bytes;
    }

    let events: Vec<Event> = pass.events.iter().take(RECORD_EVENTS).cloned().collect();
    let encoded: Vec<Vec<u8>> = events.iter().map(wire::encode_event).collect();
    let enc_ns = per_item_ns(&mut tr, "online.wire.encode_event", &events, |e| {
        std::hint::black_box(wire::encode_event(e));
    });
    let mut bad_decodes = 0;
    let dec_ns = per_item_ns(&mut tr, "online.wire.decode_event", &encoded, |b| {
        if wire::decode_event(b).is_err() {
            bad_decodes += 1;
        }
    });
    gates.attempt(encoded.len() as u64);
    if bad_decodes > 0 {
        gates.failed += bad_decodes - 1;
        gates.fail(format!("{bad_decodes} encoded events failed to decode"));
    }

    let lw = ctx.work.join("layers");
    let app_interval = log_append_ns(
        &mut tr,
        &lw.join("log-interval"),
        FsyncPolicy::Interval,
        &events,
        "serve.log.append.interval",
    )?;
    let app_never = log_append_ns(
        &mut tr,
        &lw.join("log-never"),
        FsyncPolicy::Never,
        &events,
        "serve.log.append.never",
    )?;
    let app_always = log_append_ns(
        &mut tr,
        &lw.join("log-always"),
        FsyncPolicy::Always,
        &events[..ALWAYS_EVENTS.min(events.len())],
        "serve.log.append.always",
    )?;

    let sess_dir = lw.join("session");
    let apply_tokens = &tokens[..RECORD_EVENTS.min(tokens.len())];
    let apply_us = session_apply(&mut tr, &sess_dir, apply_tokens, &mut gates)?;
    let apply_p50 = median(&apply_us);
    let apply_p99 = tail_percentile(&apply_us, 0.99);
    gates.check(apply_p99.is_some(), || {
        format!("only {} apply samples: too few for a p99", apply_us.len())
    });
    let mut recover_ms = Vec::new();
    for _ in 0..REPS {
        let copy = lw.join("session-copy");
        copy_dir(&sess_dir.join("bench"), &copy)?;
        let (r, us) = timed_us(&mut tr, "serve.log.recover", || {
            SessionLog::recover(
                &copy,
                LogConfig::default(),
                GcConfig::default(),
                false,
                None,
            )
        });
        gates.attempt(1);
        match r {
            Ok(r) => gates.check(r.log.records() == apply_tokens.len() as u64, || {
                format!(
                    "recovered {} records of {}",
                    r.log.records(),
                    apply_tokens.len()
                )
            }),
            Err(e) => gates.fail(format!("recover: {e:?}")),
        }
        recover_ms.push(us / 1e3);
    }

    let (sink_ns, flush_us) = replica_sink(
        &mut tr,
        &lw.join("replica"),
        &events[..SINK_EVENTS.min(events.len())],
    )?;

    let svc = service_phase(ctx, w, &tokens, &mut tr, &mut gates)?;

    let spans_path = ctx
        .work
        .join(format!("spans-{}-{}.json", w.name(), ctx.seed));
    tr.write_chrome(&spans_path)?;
    eprintln!(
        "perfbench: {} spans written to {}",
        tr.spans.len(),
        spans_path.display()
    );

    let n = tokens.len();
    let metrics: Vec<Metric> = vec![
        metric(
            "online.feed.parse_ns",
            tr.ns_per_op("online.feed.parse_token"),
            "ns",
            format!("per token, {n} tokens"),
        ),
        metric(
            "online.checker.ingest_ns",
            tr.ns_per_op("online.checker.ingest_batch"),
            "ns",
            format!("per event, batches of {BATCH}, GC on"),
        ),
        metric(
            "online.checker.ingest_growth",
            growth(&ingest_spans),
            "ratio",
            "ns/event, last quarter / first quarter",
        ),
        metric(
            "online.checker.nogc_ingest_ns",
            nogc_ns,
            "ns",
            "per event, GC off",
        ),
        metric(
            "online.checker.live_txns_peak",
            pass.live_peak as f64,
            "count",
            "after any batch",
        ),
        metric(
            "online.checker.pruned_frac",
            fin.pruned_txns as f64 / finished.max(1) as f64,
            "ratio",
            format!("{} pruned / {finished} finished txns", fin.pruned_txns),
        ),
        metric(
            "online.checker.state_bytes",
            state.len() as f64,
            "bytes",
            "snapshot at end of stream",
        ),
        metric(
            "online.checker.snapshot_us",
            median(&snaps),
            "us",
            format!("median of {REPS}"),
        ),
        metric(
            "online.checker.restore_us",
            median(&restores),
            "us",
            format!("median of {REPS}"),
        ),
        metric(
            "online.checker.fired_verdicts",
            pass.fired_verdicts as f64,
            "count",
            format!("of {} verdicts", pass.verdicts),
        ),
        metric(
            "online.verdict.render_ns",
            tr.ns_per_op("online.verdict.to_json"),
            "ns",
            "per verdict",
        ),
        metric(
            "online.verdict.bytes",
            pass.render_bytes as f64 / pass.verdicts.max(1) as f64,
            "bytes",
            "per verdict line",
        ),
        metric(
            "online.wire.encode_ns",
            enc_ns,
            "ns",
            format!("per event, {} events", events.len()),
        ),
        metric("online.wire.decode_ns", dec_ns, "ns", "per event"),
        metric(
            "serve.log.append_ns.interval",
            app_interval,
            "ns",
            "per append",
        ),
        metric(
            "serve.log.append_ns.always",
            app_always,
            "ns",
            format!("per append, {ALWAYS_EVENTS} appends"),
        ),
        metric("serve.log.append_ns.never", app_never, "ns", "per append"),
        metric(
            "serve.log.recover_ms",
            median(&recover_ms),
            "ms",
            format!("median of {REPS}, {} records", apply_tokens.len()),
        ),
        metric(
            "serve.session.apply_us_p50",
            apply_p50,
            "us",
            format!("{} commit lines", apply_us.len()),
        ),
        metric(
            "serve.session.apply_us_p99",
            apply_p99.unwrap_or(f64::NAN),
            "us",
            format!("{} commit lines", apply_us.len()),
        ),
        metric(
            "serve.session.net_share",
            1.0 - apply_p50 / 1e3 / svc.verdict_p50_ms,
            "ratio",
            format!(
                "1 - apply p50 / client verdict p50 ({:.3} ms)",
                svc.verdict_p50_ms
            ),
        ),
        metric(
            "serve.server.hello_ms",
            svc.hello_ms,
            "ms",
            format!("median of {HELLOS} fresh connections"),
        ),
        metric(
            "serve.server.error_frames",
            svc.error_frames as f64,
            "count",
            "error frames received",
        ),
        metric("serve.replica.sink_append_ns", sink_ns, "ns", "per record"),
        metric(
            "serve.replica.flush_us",
            flush_us,
            "us",
            format!("median, one per {BATCH} records"),
        ),
        metric(
            "serve.replica.ack_rtt_us_p50",
            svc.ack_rtt_us_p50,
            "us",
            "leader sli.repl_ack_rtt_us",
        ),
        metric(
            "trace.overhead_frac",
            overhead,
            "ratio",
            format!("traced / untraced ingest pass - 1 ({untraced_ns} ns untraced)"),
        ),
        metric(
            "trace.spans",
            tr.spans.len() as f64,
            "count",
            "spans recorded in memory",
        ),
    ];
    Ok(Outcome {
        correct: gates.failed == 0,
        attempted: gates.attempted.max(1),
        failed: gates.failed,
        metrics,
    })
}
