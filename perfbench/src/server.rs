//! Spawning and talking to the release `nuspi serve` binary, over TCP
//! (`--listen`) or the stdin/stdout pipe, and reading its CPU time and
//! peak RSS from `/proc`.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a single response may take before the request counts as
/// timed out.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(60);
/// `/proc/<pid>/stat` times are in USER_HZ ticks, 100 per second on
/// every mainstream Linux architecture.
const TICKS_PER_SEC: f64 = 100.0;

/// One closed-loop client connection: write a line, wait for its reply.
pub trait Conn: Send {
    fn round_trip(&mut self, line: &str) -> io::Result<String>;
}

pub struct TcpConn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl TcpConn {
    pub fn connect(addr: &str) -> io::Result<TcpConn> {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(TcpConn {
            reader: BufReader::new(s.try_clone()?),
            writer: s,
        })
    }
}

fn read_reply(r: &mut impl BufRead) -> io::Result<String> {
    let mut reply = String::new();
    if r.read_line(&mut reply)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server closed",
        ));
    }
    while reply.ends_with('\n') || reply.ends_with('\r') {
        reply.pop();
    }
    Ok(reply)
}

impl Conn for TcpConn {
    fn round_trip(&mut self, line: &str) -> io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        read_reply(&mut self.reader)
    }
}

pub struct PipeConn {
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl Conn for PipeConn {
    fn round_trip(&mut self, line: &str) -> io::Result<String> {
        self.stdin.write_all(line.as_bytes())?;
        self.stdin.write_all(b"\n")?;
        self.stdin.flush()?;
        read_reply(&mut self.stdout)
    }
}

/// A running server. Its stdin is the lifetime handle: closing it ends
/// a pipe session, and makes a TCP server drain and exit.
pub struct Server {
    child: Child,
    pub addr: Option<String>,
    /// The pipe transport's only connection, until taken.
    pub pipe: Option<PipeConn>,
    stdin: Option<ChildStdin>,
    stderr_drain: Option<JoinHandle<()>>,
}

pub struct ServerOpts<'a> {
    pub binary: &'a Path,
    pub pipe: bool,
    pub cache_dir: Option<PathBuf>,
}

impl Server {
    /// Spawns the server and returns it with the wall-clock time until
    /// its first `stats` reply (its set-up time).
    pub fn start(opts: &ServerOpts<'_>) -> io::Result<(Server, Duration)> {
        let t0 = Instant::now();
        let mut cmd = Command::new(opts.binary);
        cmd.args(["serve", "--jobs", "2"]);
        if !opts.pipe {
            cmd.args(["--listen", "127.0.0.1:0"]);
        }
        if let Some(dir) = &opts.cache_dir {
            cmd.arg("--cache-dir").arg(dir);
            cmd.args(["--store-min-ms", "0"]);
        }
        cmd.stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        let mut child = cmd.spawn()?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("piped");
        let stderr = child.stderr.take().expect("piped");
        // Stderr carries the bound address; it is drained to the end so
        // the server never blocks (or fails) writing to it.
        let (tx, rx) = mpsc::channel::<String>();
        let stderr_drain = std::thread::spawn(move || {
            let mut r = BufReader::new(stderr);
            let mut line = String::new();
            while r.read_line(&mut line).is_ok_and(|n| n > 0) {
                let _ = tx.send(line.trim().to_owned());
                line.clear();
            }
            let _ = r.read_to_end(&mut Vec::new());
        });
        let mut server = Server {
            child,
            addr: None,
            pipe: None,
            stdin: None,
            stderr_drain: Some(stderr_drain),
        };
        let stats = if opts.pipe {
            let mut conn = PipeConn {
                stdin: stdin.expect("piped"),
                stdout: BufReader::new(stdout),
            };
            let reply = conn.round_trip("{\"op\":\"stats\"}");
            server.pipe = Some(conn);
            reply
        } else {
            server.stdin = stdin;
            drop(stdout);
            let addr = loop {
                match rx.recv_timeout(REPLY_TIMEOUT) {
                    Ok(l) => {
                        if let Some(a) = l.strip_prefix("listening on ") {
                            break a.to_owned();
                        }
                    }
                    Err(_) => {
                        server.stop();
                        return Err(io::Error::other("server did not report its address"));
                    }
                }
            };
            server.addr = Some(addr.clone());
            TcpConn::connect(&addr).and_then(|mut c| c.round_trip("{\"op\":\"stats\"}"))
        };
        let elapsed = t0.elapsed();
        match stats {
            Ok(line) if crate::util::is_ok(&line) => Ok((server, elapsed)),
            Ok(line) => {
                server.stop();
                Err(io::Error::other(format!("bad stats reply: {line}")))
            }
            Err(e) => {
                server.stop();
                Err(e)
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// A new client connection (TCP only).
    pub fn connect(&self) -> io::Result<TcpConn> {
        TcpConn::connect(self.addr.as_deref().expect("TCP server"))
    }

    /// Server CPU time (user + system) so far.
    pub fn cpu(&self) -> Duration {
        let stat =
            std::fs::read_to_string(format!("/proc/{}/stat", self.pid())).unwrap_or_default();
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line.
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let f: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
        Duration::from_secs_f64((ticks(11) + ticks(12)) as f64 / TICKS_PER_SEC)
    }

    /// Peak resident set size (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        let status =
            std::fs::read_to_string(format!("/proc/{}/status", self.pid())).unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    }

    /// Closes the lifetime handle and waits for the server to exit
    /// (killing it if it has not drained within the reply timeout).
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.pipe = None;
        self.stdin = None;
        let t0 = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if t0.elapsed() < REPLY_TIMEOUT => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break;
                }
            }
        }
        if let Some(h) = self.stderr_drain.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.stderr_drain.is_some() {
            self.shutdown();
        }
    }
}
