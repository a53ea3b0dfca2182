//! Seeded workload inputs and their correctness references.
//!
//! Stream workloads render a `histgen::random_history` as event tokens,
//! one per line, and cache the text per (workload, seed). The explicit
//! version-order block `History::to_notation` appends is dropped:
//! `adya-check --stream` rejects it, and with `shuffle_order_prob = 0`
//! install order is commit order, so the block carries nothing.

use std::io;
use std::path::Path;

use adya_core::{g0, g1a, g1b, g1c, g2, g2_item, Dsg, IsolationLevel, PhenomenonKind};
use adya_online::{GcConfig, OnlineChecker, StreamParser};
use adya_workloads::histgen::{random_history, HistGenConfig};

use crate::util::{fnv1a, Rng, FNV_SEED};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    StreamWide,
    StreamHot,
    ServeRepl,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload::StreamWide,
    Workload::StreamHot,
    Workload::ServeRepl,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::StreamWide => "stream-wide",
            Workload::StreamHot => "stream-hot",
            Workload::ServeRepl => "serve-repl",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == s)
    }

    /// Histories one run of a stream workload checks, as histgen seeds.
    /// `stream-wide` takes four: how fast it runs and how much memory
    /// it takes depend on the history, and four of them per run keep
    /// the seed's share of a run's figures within the bounds.
    pub fn history_seeds(self, seed: u64) -> Vec<u64> {
        let n = if self == Workload::StreamWide { 4 } else { 1 };
        (0..n)
            .map(|i| seed.wrapping_mul(n).wrapping_add(i))
            .collect()
    }

    /// The history shape of a stream workload.
    pub fn histgen(self) -> HistGenConfig {
        let (objects, txns) = match self {
            // Wide key space: the watermark GC stops pruning and the
            // live set grows with the history.
            Workload::StreamWide => (4096, 20_000),
            // Eight hot keys (the E14/E19 shape): flat live set, every
            // phenomenon fires, parse and render carry real weight.
            Workload::StreamHot => (8, 300_000),
            Workload::ServeRepl => unreachable!("serve-repl inputs are session token streams"),
        };
        HistGenConfig {
            txns,
            objects,
            ops_per_txn: 4,
            write_prob: 0.5,
            dirty_read_prob: 0.1,
            abort_prob: 0.1,
            shuffle_order_prob: 0.0,
            max_concurrent: 8,
        }
    }
}

/// A write skew (G2-item) on two keys outside the generated key space,
/// between transactions outside its id range. `stream-wide` opens with
/// it so G2 latches at commit 2 on every seed: once G2 and G2-item
/// have fired the checker frees its full cycle graph, and left to the
/// seed that happens anywhere from commit ~4.6k to ~10k, which moves
/// events/s and peak RSS by tens of percent from seed to seed.
const WRITE_SKEW: &str = "b1000000 b1000001 r1000000(pxinit) r1000001(pyinit) \
                          w1000000(py,1) w1000001(px,1) c1000000 c1000001";

/// Renders a stream workload's history as event tokens, one per line.
pub fn stream_tokens(w: Workload, seed: u64) -> String {
    let h = random_history(&w.histgen(), seed);
    let notation = h.to_notation().expect("histgen histories are expressible");
    let events = match notation.find(" [") {
        Some(at) => &notation[..at],
        None => notation.as_str(),
    };
    let head = if w == Workload::StreamWide {
        WRITE_SKEW
    } else {
        ""
    };
    let mut out = String::with_capacity(head.len() + events.len() + 1);
    for tok in head.split_whitespace().chain(events.split(' ')) {
        out.push_str(tok);
        out.push('\n');
    }
    out
}

/// Loads the cached tokens of (workload, seed), generating and caching
/// them on a miss. Returns the text and whether it was generated.
pub fn load_or_generate(cache: &Path, w: Workload, seed: u64) -> io::Result<(String, bool)> {
    let path = cache.join(format!("{}-{seed}.tokens", w.name()));
    if let Ok(text) = std::fs::read_to_string(&path) {
        return Ok((text, false));
    }
    let text = stream_tokens(w, seed);
    std::fs::create_dir_all(cache)?;
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, &text)?;
    std::fs::rename(&tmp, &path)?;
    Ok((text, true))
}

/// The checker `adya-check --stream` runs: default GC, provenance on.
pub fn cli_checker() -> OnlineChecker {
    let mut checker = OnlineChecker::new();
    checker.set_provenance(true);
    checker
}

/// What `adya-check --stream` must print for a token stream: computed
/// by the same library calls in-process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamRef {
    pub events: u64,
    pub commits: u64,
    /// FNV-1a over every stdout line (verdicts, then the final line),
    /// each with its newline.
    pub digest: u64,
    pub lines: u64,
    pub final_line: String,
}

impl StreamRef {
    pub fn compute(tokens: &str) -> StreamRef {
        let mut parser = StreamParser::new();
        let mut checker = cli_checker();
        let mut r = StreamRef {
            events: 0,
            commits: 0,
            digest: FNV_SEED,
            lines: 0,
            final_line: String::new(),
        };
        for tok in tokens.split_whitespace() {
            let ev = parser.parse_token(tok).expect("generated tokens parse");
            r.events += 1;
            if let Some(v) = checker.ingest(&ev) {
                r.commits += 1;
                r.push_line(&v.to_json());
            }
        }
        r.final_line = checker.finish().to_json();
        let fin = r.final_line.clone();
        r.push_line(&fin);
        r
    }

    fn push_line(&mut self, line: &str) {
        self.digest = fnv1a(line.as_bytes(), self.digest);
        self.digest = fnv1a(b"\n", self.digest);
        self.lines += 1;
    }

    fn encode(&self) -> String {
        format!(
            "{} {} {} {}\n{}\n",
            self.events, self.commits, self.digest, self.lines, self.final_line
        )
    }

    fn decode(s: &str) -> Option<StreamRef> {
        let (head, fin) = s.split_once('\n')?;
        let mut it = head.split(' ').map(|x| x.parse::<u64>());
        Some(StreamRef {
            events: it.next()?.ok()?,
            commits: it.next()?.ok()?,
            digest: it.next()?.ok()?,
            lines: it.next()?.ok()?,
            final_line: fin.trim_end().to_string(),
        })
    }

    /// The in-process reference of (workload, seed), cached beside the
    /// tokens it was computed from.
    pub fn load_or_compute(
        cache: &Path,
        w: Workload,
        seed: u64,
        tokens: &str,
    ) -> io::Result<StreamRef> {
        let path = cache.join(format!("{}-{seed}.ref", w.name()));
        if let Some(r) = std::fs::read_to_string(&path)
            .ok()
            .and_then(|s| StreamRef::decode(&s))
        {
            return Ok(r);
        }
        let r = StreamRef::compute(tokens);
        let tmp = path.with_extension("reftmp");
        std::fs::write(&tmp, r.encode())?;
        std::fs::rename(&tmp, &path)?;
        Ok(r)
    }
}

/// Strongest ANSI-chain level whose proscriptions avoid `fired`.
pub fn strongest(fired: &[PhenomenonKind]) -> Option<IsolationLevel> {
    [
        IsolationLevel::PL3,
        IsolationLevel::PL299,
        IsolationLevel::PL2,
        IsolationLevel::PL1,
    ]
    .into_iter()
    .find(|l| l.proscribes().iter().all(|p| !fired.contains(p)))
}

/// A classification as `(strongest ANSI level, sorted fired kinds)`.
pub type Classification = (Option<IsolationLevel>, Vec<String>);

fn classification(fired: &[PhenomenonKind]) -> Classification {
    let mut names: Vec<String> = fired.iter().map(|k| k.to_string()).collect();
    names.sort();
    names.dedup();
    (strongest(fired), names)
}

/// Events of the stream prefix that the batch checker classifies. The
/// batch checker's DSG construction grows faster than linearly (about
/// 32 s for 20k transactions), so the cross-check covers a prefix.
pub const BATCH_PREFIX_EVENTS: usize = 10_000;

/// The first `n` tokens, completed with an abort for every transaction
/// still open at the cut (the paper's completion rule), so both
/// checkers see the same finished history.
pub fn completed_prefix(tokens: &str, n: usize) -> Vec<String> {
    let mut out: Vec<String> = Vec::with_capacity(n + 8);
    let mut open: Vec<String> = Vec::new();
    for tok in tokens.split_whitespace().take(n) {
        let txn: String = tok
            .trim_start_matches(|c: char| c.is_ascii_alphabetic())
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        if tok.starts_with('c') || tok.starts_with('a') {
            open.retain(|t| *t != txn);
        } else if !open.contains(&txn) {
            open.push(txn);
        }
        out.push(tok.to_string());
    }
    out.extend(open.into_iter().map(|t| format!("a{t}")));
    out
}

/// Batch (`adya_core`) classification of a finished token history.
pub fn batch_classify(tokens: &[String]) -> Classification {
    let h = adya_history::parse_history(&tokens.join(" ")).expect("completed prefix parses");
    let dsg = Dsg::build(&h);
    let fired: Vec<PhenomenonKind> = [
        g0(&dsg),
        g1a(&h),
        g1b(&h),
        g1c(&dsg),
        g2_item(&dsg),
        g2(&dsg),
    ]
    .into_iter()
    .flatten()
    .map(|p| p.kind())
    .collect();
    classification(&fired)
}

/// Online classification of the same finished token history.
pub fn online_classify(tokens: &[String]) -> Classification {
    let mut parser = StreamParser::new();
    let mut checker = OnlineChecker::with_gc(GcConfig::default());
    for tok in tokens {
        checker.ingest(&parser.parse_token(tok).expect("completed prefix parses"));
    }
    let fin = checker.finish();
    classification(&fin.fired)
}

/// Objects a serve-repl session's transactions touch.
const SERVE_KEYS: u64 = 8;

/// The token stream of one serve-repl session: short read-modify-write
/// transactions over eight keys, so the checker is cheap and sockets,
/// the session log and replication carry the cost.
pub struct SessionGen {
    rng: Rng,
    txn: u64,
    last_writer: [Option<u64>; SERVE_KEYS as usize],
}

impl SessionGen {
    pub fn new(seed: u64, session: u64) -> SessionGen {
        SessionGen {
            rng: Rng::new(seed.wrapping_mul(31).wrapping_add(session)),
            txn: 0,
            last_writer: [None; SERVE_KEYS as usize],
        }
    }

    /// The next transaction's tokens, commit last.
    pub fn next_txn(&mut self) -> [String; 4] {
        self.txn += 1;
        let t = self.txn;
        let key = |i: u64| (b'a' + i as u8) as char;
        let r = self.rng.below(SERVE_KEYS);
        let w = self.rng.below(SERVE_KEYS);
        let read = match self.last_writer[r as usize] {
            Some(by) => format!("r{t}(k{}{by})", key(r)),
            None => format!("r{t}(k{}init)", key(r)),
        };
        self.last_writer[w as usize] = Some(t);
        [
            format!("b{t}"),
            read,
            format!("w{t}(k{},{})", key(w), self.rng.below(1000)),
            format!("c{t}"),
        ]
    }
}

/// Verdict lines and final line for a token sequence, in-process.
pub fn session_reference(tokens: &[String]) -> (Vec<String>, String) {
    let mut parser = StreamParser::new();
    let mut checker = OnlineChecker::with_gc(GcConfig::default());
    let mut verdicts = Vec::new();
    for tok in tokens {
        let ev = parser.parse_token(tok).expect("session tokens parse");
        if let Some(v) = checker.ingest(&ev) {
            verdicts.push(v.to_json());
        }
    }
    (verdicts, checker.finish().to_json())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes() {
        let a = stream_tokens(Workload::StreamWide, 3);
        assert_eq!(a, stream_tokens(Workload::StreamWide, 3));
        assert_ne!(a, stream_tokens(Workload::StreamWide, 4));
        let mut g1 = SessionGen::new(5, 0);
        let mut g2 = SessionGen::new(5, 0);
        for _ in 0..100 {
            assert_eq!(g1.next_txn(), g2.next_txn());
        }
    }

    #[test]
    fn tokens_carry_no_version_order_block() {
        let t = stream_tokens(Workload::StreamHot, 1);
        assert!(!t.contains('[') && !t.contains("<<"));
        assert!(t.lines().all(|l| !l.is_empty() && !l.contains(' ')));
    }

    #[test]
    fn completion_closes_every_open_transaction() {
        let toks = "b1\nw1(x,1)\nb2\nr2(x1)\nc1\n";
        let done = completed_prefix(toks, 4);
        assert_eq!(done, ["b1", "w1(x,1)", "b2", "r2(x1)", "a1", "a2"]);
    }

    #[test]
    fn online_agrees_with_batch_on_prefixes() {
        for w in [Workload::StreamWide, Workload::StreamHot] {
            let toks = stream_tokens(w, 9);
            let prefix = completed_prefix(&toks, 3_000);
            assert_eq!(
                online_classify(&prefix),
                batch_classify(&prefix),
                "{}",
                w.name()
            );
        }
    }
}
