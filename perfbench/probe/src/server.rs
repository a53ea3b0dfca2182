//! `adya-serve` processes and the clients the benchmark drives them
//! with: spawn-to-`listening`, `/health` and `/metrics` scrapes, and a
//! raw NDJSON connection for bulk feeds, probes and resumes.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::util::u64_field;

/// A spawned `adya-serve`; killed and reaped on drop.
pub struct Proc {
    pub child: Child,
    pub addr: String,
    /// Drains the server's stderr until the process exits.
    drain: Option<std::thread::JoinHandle<()>>,
}

impl Proc {
    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// Spawns `adya-serve --data <data> --listen <listen> <extra>` and
/// waits for its `listening on ADDR` line.
pub fn spawn(bin: &Path, data: &Path, listen: &str, extra: &[&str]) -> io::Result<Proc> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut child = Command::new(bin)
            .arg("--data")
            .arg(data)
            .args(["--listen", listen])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        let mut reader = BufReader::new(child.stderr.take().expect("piped stderr"));
        let mut line = String::new();
        reader.read_line(&mut line)?;
        if let Some((_, addr)) = line.rsplit_once("listening on ") {
            let drain = std::thread::spawn(move || {
                let _ = io::copy(&mut reader, &mut io::sink());
            });
            return Ok(Proc {
                child,
                addr: addr.trim().to_string(),
                drain: Some(drain),
            });
        }
        let _ = child.kill();
        let _ = child.wait();
        // A restart on a fixed port can race the dying process's
        // socket; anything else is fatal.
        if Instant::now() > deadline {
            return Err(io::Error::other(format!(
                "adya-serve did not listen: {line:?}"
            )));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A leader replicating to one follower, both child processes.
pub struct Pair {
    pub bin: PathBuf,
    pub leader_dir: PathBuf,
    pub follower: Proc,
    pub leader: Proc,
}

impl Pair {
    /// Fresh data directories under `work`, follower first.
    pub fn start(bin: &Path, work: &Path) -> io::Result<Pair> {
        let _ = std::fs::remove_dir_all(work);
        let leader_dir = work.join("leader");
        let follower_dir = work.join("follower");
        std::fs::create_dir_all(&leader_dir)?;
        std::fs::create_dir_all(&follower_dir)?;
        let follower = spawn(
            bin,
            &follower_dir,
            "127.0.0.1:0",
            &["--follower", "--node", "follower"],
        )?;
        let leader = spawn(
            bin,
            &leader_dir,
            "127.0.0.1:0",
            &["--replicate-to", &follower.addr, "--node", "leader"],
        )?;
        Ok(Pair {
            bin: bin.to_path_buf(),
            leader_dir,
            follower,
            leader,
        })
    }

    /// SIGKILLs the leader and restarts it on the same directory and
    /// address; returns the time from the kill to `listening`.
    pub fn restart_leader(&mut self) -> io::Result<Duration> {
        let start = Instant::now();
        let addr = self.leader.addr.clone();
        let _ = self.leader.child.kill();
        let _ = self.leader.child.wait();
        let fresh = spawn(
            &self.bin,
            &self.leader_dir,
            &addr,
            &["--replicate-to", &self.follower.addr, "--node", "leader"],
        )?;
        let up = start.elapsed();
        // The old handle is already reaped; replacing it drops it.
        self.leader = fresh;
        Ok(up)
    }

    /// Polls the leader's `/health` until the follower has acknowledged
    /// everything (`max_lag_records: 0`) or `timeout` passes.
    pub fn wait_zero_lag(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if let Ok((_, body)) = http_get(&self.leader.addr, "/health") {
                if u64_field(&body, "max_lag_records") == Some(0)
                    && body.contains("\"connected\": 1")
                {
                    return true;
                }
            }
        }
        false
    }
}

/// One HTTP GET on the service port: `(status, body)`.
pub fn http_get(addr: &str, path: &str) -> io::Result<(u16, String)> {
    let mut s = TcpStream::connect(addr)?;
    s.set_read_timeout(Some(Duration::from_secs(10)))?;
    write!(
        s,
        "GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n"
    )?;
    let mut response = String::new();
    s.read_to_string(&mut response)?;
    let status = response
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .unwrap_or(0);
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

/// The `quantile="0.5"` sample of a Prometheus summary, if present.
pub fn prom_p50(metrics: &str, family: &str) -> Option<f64> {
    metrics
        .lines()
        .filter(|l| l.starts_with(family) && l[family.len()..].starts_with('{'))
        .find(|l| l.contains("quantile=\"0.5\""))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
}

/// A raw NDJSON connection to one session.
pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    /// Error frames received on this connection.
    pub error_frames: u64,
}

impl Conn {
    fn open(addr: &str, frame: &str) -> io::Result<(Conn, String)> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let reader = BufReader::new(stream.try_clone()?);
        let mut c = Conn {
            stream,
            reader,
            error_frames: 0,
        };
        c.send(frame)?;
        let reply = c.line()?;
        if reply.starts_with("{\"error\"") {
            c.error_frames += 1;
            return Err(io::Error::other(format!("refused: {reply}")));
        }
        Ok((c, reply))
    }

    /// `hello` for a new session.
    pub fn hello(addr: &str, session: &str) -> io::Result<Conn> {
        Conn::open(
            addr,
            &format!("{{\"op\": \"hello\", \"session\": \"{session}\"}}"),
        )
        .map(|(c, _)| c)
    }

    /// `resume` with `have` verdicts already read; returns the
    /// connection, the server's durable event count and the replayed
    /// verdict lines.
    pub fn resume(addr: &str, session: &str, have: u64) -> io::Result<(Conn, u64, Vec<String>)> {
        let (mut c, reply) = Conn::open(
            addr,
            &format!("{{\"op\": \"resume\", \"session\": \"{session}\", \"verdicts\": {have}}}"),
        )?;
        let events = u64_field(&reply, "events").ok_or_else(|| io::Error::other(reply.clone()))?;
        let replay = u64_field(&reply, "replay").ok_or_else(|| io::Error::other(reply.clone()))?;
        let mut lines = Vec::with_capacity(replay as usize);
        for _ in 0..replay {
            lines.push(c.line()?);
        }
        Ok((c, events, lines))
    }

    pub fn send(&mut self, line: &str) -> io::Result<()> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.stream.write_all(&buf)
    }

    /// Reads one line (without its newline), counting error frames.
    pub fn line(&mut self) -> io::Result<String> {
        let mut s = String::new();
        if self.reader.read_line(&mut s)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server hung up",
            ));
        }
        if s.starts_with("{\"error\"") {
            self.error_frames += 1;
        }
        s.truncate(s.trim_end().len());
        Ok(s)
    }
}
