//! The daemon under test and the client side of its protocol.
//!
//! The daemon runs as a child process — this executable re-entered with
//! `--serve-daemon`, which calls the same `Server::run_until_signalled`
//! entry point as `cspm serve` — so its metrics scrape covers the
//! daemon alone, and the benchmark's own replicas never leak into it.

use std::io::{BufRead as _, BufReader, Write as _};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use cspm_serve::json::{parse, Value};

/// A persistent line-JSON connection to the daemon.
pub struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Conn {
    pub fn connect(socket: &Path) -> Result<Conn, String> {
        let stream = UnixStream::connect(socket)
            .map_err(|e| format!("connect {}: {e}", socket.display()))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one request line and reads the one response line. `Err` is
    /// a transport failure; a refusal is an `Ok` value with `"ok":false`.
    pub fn call(&mut self, request: &str) -> Result<Value, String> {
        self.writer
            .write_all(request.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .map_err(|e| format!("send: {e}"))?;
        let mut line = String::new();
        self.reader
            .read_line(&mut line)
            .map_err(|e| format!("receive: {e}"))?;
        if line.is_empty() {
            return Err("daemon closed the connection".into());
        }
        parse(line.trim_end()).map_err(|e| format!("daemon sent invalid JSON: {e}"))
    }
}

/// One request on a fresh connection: the `cspm client` pattern.
pub fn call_once(socket: &Path, request: &str) -> Result<Value, String> {
    Conn::connect(socket)?.call(request)
}

pub fn is_ok(v: &Value) -> bool {
    v.get("ok").and_then(Value::as_bool) == Some(true)
}

/// Whether a call went through and the daemon accepted it; failures are
/// reported on stderr so a failed op is never silent.
pub fn accepted(op: &str, result: &Result<Value, String>) -> bool {
    match result {
        Ok(v) if is_ok(v) => true,
        Ok(v) => {
            eprintln!("perfbench: daemon refused {op}: {}", v.to_json());
            false
        }
        Err(e) => {
            eprintln!("perfbench: {op} failed: {e}");
            false
        }
    }
}

/// A `metrics` round trip: the Prometheus exposition text.
pub fn scrape(conn: &mut Conn) -> Result<String, String> {
    let v = conn.call(r#"{"op":"metrics"}"#)?;
    v.get("text")
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("metrics refused: {}", v.to_json()))
}

/// Peak resident set (VmHWM) of a process, in MiB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A daemon child process; killed and reaped on drop if still running.
pub struct Daemon {
    child: Child,
    pub socket: PathBuf,
}

impl Daemon {
    /// Starts `cspm serve --socket <socket> --store-dir <store> --threads
    /// <threads>` (in-binary) and waits until it answers a ping.
    pub fn start(socket: &Path, store: &Path, threads: usize) -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let child = Command::new(exe)
            .arg("--serve-daemon")
            .arg(socket)
            .arg(store)
            .arg(threads.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn daemon: {e}"))?;
        let mut daemon = Daemon {
            child,
            socket: socket.to_path_buf(),
        };
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            if let Ok(v) = call_once(socket, r#"{"op":"ping"}"#) {
                if is_ok(&v) {
                    return Ok(daemon);
                }
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("daemon exited during start-up: {status}"));
            }
            if Instant::now() > deadline {
                return Err("daemon did not answer within 60s".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    pub fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(&self.child.id().to_string())
    }

    /// In-band shutdown (the daemon drains and checkpoints), then reap.
    pub fn stop(mut self) -> Result<(), String> {
        let _ = call_once(&self.socket, r#"{"op":"shutdown"}"#);
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("daemon did not drain within 60s".into()),
                Err(e) => return Err(e.to_string()),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// The `--serve-daemon <socket> <store-dir> <threads>` entry point.
pub fn serve_daemon(args: &[String]) -> Result<(), String> {
    let [socket, store, threads] = args else {
        return Err("--serve-daemon needs <socket> <store-dir> <threads>".into());
    };
    let mut config = cspm_serve::ServerConfig::new(socket);
    config.store_dir = Some(store.into());
    config.threads = threads
        .parse()
        .map_err(|_| format!("bad thread count {threads:?}"))?;
    cspm_serve::Server::run_until_signalled(config).map_err(|e| format!("serve: {e}"))
}
