//! The daemon: Unix-socket listener, connection loop, and the
//! multi-tenant dispatch behind `cspm serve`.
//!
//! One thread per connection reads request lines (bounded by
//! [`MAX_FRAME`] even mid-line, so a hostile client cannot balloon the
//! process) and answers one response line each. `mine` and `subscribe`
//! run on that same thread once it holds one of `--threads` mine slots
//! — connections are cheap, CPU is the bounded resource — differing
//! only in whether progress lines stream ahead of the terminal line,
//! with per-request deadlines enforced through
//! the engine's own [`ProgressObserver`] cancellation: an expired
//! deadline answers `deadline_exceeded` and leaves the tenant's warm
//! state untouched (mining always works on a clone of the pristine
//! database).
//!
//! Tenants live in a [`SessionRegistry`] behind one mutex; each tenant
//! is its own `Arc<Mutex<Tenant>>`, so the registry lock is held only
//! for lookups while a mine holds just its tenant. With `--store-dir`
//! every tenant is a [`DurableSession`] checkpointed at
//! `<store-dir>/<name>.csps`; the memory budget then degrades gracefully
//! — under pressure the registry evicts idle tenants LRU-first,
//! checkpointing durable ones so the next `open` is a warm restore
//! instead of a cold rebuild.
//!
//! Nothing runs on a timer: the accept loop blocks in `poll(2)` on the
//! listener and a socket pair, and connection threads block in `read`.
//! Shutdown (SIGTERM/SIGINT via [`Server::run_until_signalled`], an
//! in-band `shutdown` op, or [`Server::stop`]) writes one byte to the
//! pair. The loop then stops accepting, ends idle reads with
//! `shutdown(Read)` while in-flight requests answer, joins the
//! connection threads, checkpoints every durable tenant, and removes
//! the socket file.

use std::ffi::{c_int, c_short, c_void};
use std::io::{self, BufRead, BufReader, ErrorKind, Write};
use std::net::Shutdown;
use std::ops::ControlFlow;
use std::os::fd::{AsRawFd, IntoRawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicI32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cspm_core::registry::{ResidentFootprint, SessionRegistry};
use cspm_core::{CspmResult, IterationStat, Miner, MiningSession, ProgressObserver, SessionError};
use cspm_graph::dynamic::GraphDelta;
use cspm_graph::{read_graph, AttributedGraph};
use cspm_store::{Durable, DurableError, DurableSession};

use crate::json::Value;
use crate::metrics::serve_metrics;
use crate::proto::{parse_request, ErrorCode, ProtoError, Request, MAX_FRAME};

/// How long the accept loop backs off after `accept` or `poll` fails
/// (for example with `EMFILE`), so a persistent error cannot spin.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(100);

/// Configuration for one daemon instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Unix-socket path to listen on (created at bind, removed at
    /// shutdown; a stale file from a dead daemon is replaced).
    pub socket: PathBuf,
    /// When set, every tenant is durable: checkpointed at
    /// `<store_dir>/<name>.csps`, warm-openable after eviction/restart.
    pub store_dir: Option<PathBuf>,
    /// How many mines may run at once (`0` = 1), each on the thread of
    /// the connection that asked for it. Engine-internal scoring stays
    /// single-threaded per run — across-tenant parallelism is what a
    /// daemon wants on shared hardware.
    pub threads: usize,
    /// Resident-memory budget in bytes; exceeded → evict idle tenants
    /// LRU-first. `None` = unbounded.
    pub mem_budget: Option<usize>,
}

impl ServerConfig {
    pub fn new(socket: impl Into<PathBuf>) -> Self {
        Self {
            socket: socket.into(),
            store_dir: None,
            threads: 1,
            mem_budget: None,
        }
    }
}

/// One resident tenant: an in-memory session, or a durable one bound to
/// its checkpoint file under `--store-dir`.
enum Tenant {
    Mem(Box<MiningSession>),
    Durable(Box<DurableSession>),
}

impl Tenant {
    fn session(&self) -> &MiningSession {
        match self {
            Tenant::Mem(s) => s,
            Tenant::Durable(d) => d.session(),
        }
    }

    fn is_durable(&self) -> bool {
        matches!(self, Tenant::Durable(_))
    }

    fn load(&mut self, g: &AttributedGraph) -> Result<(), ProtoError> {
        match self {
            Tenant::Mem(s) => {
                s.load(g);
                Ok(())
            }
            Tenant::Durable(d) => d.load(g).map_err(durable_err),
        }
    }

    fn stage_delta(&mut self, delta: &GraphDelta) -> Result<cspm_core::DeltaStats, ProtoError> {
        match self {
            Tenant::Mem(s) => s.stage_delta(delta).map_err(session_err),
            Tenant::Durable(d) => d.stage_delta(delta).map_err(durable_err),
        }
    }

    fn run_with(&mut self, obs: &mut dyn ProgressObserver) -> Result<CspmResult, ProtoError> {
        match self {
            Tenant::Mem(s) => s.run_with(obs).map_err(session_err),
            Tenant::Durable(d) => d.run_with(obs).map_err(durable_err),
        }
    }

    /// Checkpoints a durable tenant; `Ok(false)` for in-memory ones.
    fn checkpoint(&mut self) -> Result<bool, ProtoError> {
        match self {
            Tenant::Mem(_) => Ok(false),
            Tenant::Durable(d) => d.checkpoint().map(|()| true).map_err(durable_err),
        }
    }
}

impl ResidentFootprint for Tenant {
    fn approx_bytes(&self) -> usize {
        self.session().approx_bytes()
    }
}

fn session_err(e: SessionError) -> ProtoError {
    match e {
        SessionError::Empty | SessionError::NoGraph => ProtoError::new(
            ErrorCode::Internal,
            format!("session in unexpected state: {e}"),
        ),
        SessionError::Delta { index, source } => ProtoError::new(
            ErrorCode::BadDelta,
            format!("delta {index} does not apply: {source}"),
        ),
    }
}

fn durable_err(e: DurableError) -> ProtoError {
    match e {
        DurableError::Session(e) => session_err(e),
        DurableError::Store(e) => ProtoError::new(ErrorCode::Store, e.to_string()),
    }
}

/// Request counters exposed by the daemon-wide `stats` op.
#[derive(Debug, Default)]
struct Counters {
    requests: AtomicU64,
    errors: AtomicU64,
    opens: AtomicU64,
    deltas: AtomicU64,
    mines: AtomicU64,
    subscribes: AtomicU64,
    deadline_hits: AtomicU64,
    evictions: AtomicU64,
}

impl Counters {
    fn bump(&self, counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// State shared by every connection thread.
struct Shared {
    registry: Mutex<SessionRegistry<Tenant>>,
    slots: MineSlots,
    config: ServerConfig,
    /// Set once the drain starts: later requests get `shutting_down`.
    draining: AtomicBool,
    /// The wake-up pair's write end, for the in-band `shutdown` op.
    waker: UnixStream,
    counters: Counters,
}

impl Shared {
    fn miner(&self) -> Miner {
        // One scoring thread per run: the mine slots bound across-tenant
        // parallelism, and nested fan-out would oversubscribe the host.
        Miner::new().threads(1)
    }

    fn store_path(&self, name: &str) -> Option<PathBuf> {
        self.config
            .store_dir
            .as_ref()
            .map(|dir| dir.join(format!("{name}.csps")))
    }

    /// A fresh tenant for `name`: durable when a store dir is
    /// configured, plain otherwise.
    fn new_tenant(&self, name: &str) -> Result<Tenant, ProtoError> {
        match self.store_path(name) {
            Some(path) => {
                let ds = self.miner().durable(&path).map_err(|e| {
                    ProtoError::new(ErrorCode::Store, format!("open {}: {e}", path.display()))
                })?;
                Ok(Tenant::Durable(Box::new(ds)))
            }
            None => Ok(Tenant::Mem(Box::new(self.miner().build()))),
        }
    }

    /// Applies the memory budget after a mutating request. Durable
    /// tenants checkpoint before eviction (and veto it if the
    /// checkpoint fails — dropping un-persisted state would lose data).
    fn enforce_budget(&self) {
        let Some(budget) = self.config.mem_budget else {
            return;
        };
        let mut registry = lock_registry(&self.registry);
        let outcome = registry.enforce_budget(budget, |name, t| {
            t.checkpoint()
                .map_err(|e| {
                    eprintln!("cspm serve: keeping {name:?} resident, checkpoint failed: {e}");
                })
                .is_ok()
        });
        let m = serve_metrics();
        for _ in &outcome.evicted {
            self.counters.bump(&self.counters.evictions);
            m.evictions.inc();
        }
    }
}

/// The `--threads` bound on concurrent mines: a count of free slots.
/// A mine takes one before it locks its tenant, and its [`MineSlot`]
/// hands it back on drop, during an unwind too.
struct MineSlots {
    free: Mutex<usize>,
    freed: Condvar,
    /// How many slots exist, as `stats` reports them (`threads`).
    total: usize,
}

impl MineSlots {
    /// `threads` slots; `0` is promoted to one, since a daemon that can
    /// never mine is always a bug.
    fn new(threads: usize) -> Self {
        let total = threads.max(1);
        Self {
            free: Mutex::new(total),
            freed: Condvar::new(),
            total,
        }
    }

    /// Blocks until a slot is free, then takes it.
    fn acquire(&self) -> MineSlot<'_> {
        let mut free = self
            .freed
            .wait_while(lock(&self.free), |free| *free == 0)
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        *free -= 1;
        MineSlot(self)
    }
}

/// One held mine slot.
struct MineSlot<'a>(&'a MineSlots);

impl Drop for MineSlot<'_> {
    fn drop(&mut self) {
        *lock(&self.0.free) += 1;
        self.0.freed.notify_one();
    }
}

/// Locks a mutex, recovering from poisoning: a panicked mine must not
/// wedge every later request for that tenant (or the registry).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn lock_registry(m: &Mutex<SessionRegistry<Tenant>>) -> MutexGuard<'_, SessionRegistry<Tenant>> {
    let started = Instant::now();
    let guard = lock(m);
    serve_metrics()
        .lock_wait_seconds
        .observe(started.elapsed().as_secs_f64());
    guard
}

/// A running daemon spawned in-process (tests, benches, `cspm serve`
/// uses the blocking entry point). Stops and joins on drop.
pub struct Server {
    waker: UnixStream,
    thread: Option<JoinHandle<io::Result<()>>>,
    socket: PathBuf,
}

impl Server {
    /// Binds the socket and serves on a background thread. The socket
    /// is ready for connections when this returns.
    pub fn spawn(config: ServerConfig) -> io::Result<Server> {
        let listener = bind_socket(&config.socket)?;
        let (waker, woken) = wake_pair()?;
        let socket = config.socket.clone();
        let shared_waker = waker.try_clone()?;
        let thread = std::thread::Builder::new()
            .name("cspm-serve".into())
            .spawn(move || serve_on(listener, config, shared_waker, woken))?;
        Ok(Server {
            waker,
            thread: Some(thread),
            socket,
        })
    }

    /// Binds and serves on the calling thread until SIGTERM/SIGINT (or
    /// an in-band `shutdown` request). This is `cspm serve`. The
    /// "listening on" line goes to stderr only once the bind succeeded.
    pub fn run_until_signalled(config: ServerConfig) -> io::Result<()> {
        let listener = bind_socket(&config.socket)?;
        eprintln!("serve: listening on {}", config.socket.display());
        let (waker, woken) = wake_pair()?;
        // The handler's dup is never closed, so its fd can never be
        // reused for another file while a signal may still arrive.
        SIGNAL_WAKER.store(waker.try_clone()?.into_raw_fd(), Ordering::SeqCst);
        install_signal_handlers();
        serve_on(listener, config, waker, woken)
    }

    /// The socket path this daemon is serving.
    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// Wakes the daemon and waits for it to drain.
    pub fn stop(mut self) -> io::Result<()> {
        self.join()
    }

    fn join(&mut self) -> io::Result<()> {
        let Some(thread) = self.thread.take() else {
            return Ok(());
        };
        wake(&self.waker);
        thread
            .join()
            .map_err(|_| io::Error::other("server thread panicked"))?
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.join();
    }
}

/// The wake-up pair: one byte written to the first end makes the accept
/// loop drain. A full (nonblocking) buffer already holds a pending wake.
fn wake_pair() -> io::Result<(UnixStream, UnixStream)> {
    let (waker, woken) = UnixStream::pair()?;
    waker.set_nonblocking(true)?;
    Ok((waker, woken))
}

fn wake(mut waker: &UnixStream) {
    let _ = waker.write_all(&[1]);
}

// std links libc; declaring these directly avoids a dependency the
// offline build cannot add.
extern "C" {
    fn signal(signum: c_int, handler: usize) -> usize;
    fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
}

/// `struct pollfd`.
#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

const POLLIN: c_short = 0x1;
const POLLHUP: c_short = 0x10;

/// `nfds_t`: `unsigned long` on Linux, `unsigned int` on the BSDs.
#[cfg(any(target_os = "linux", target_os = "android"))]
type Nfds = std::ffi::c_ulong;
#[cfg(not(any(target_os = "linux", target_os = "android")))]
type Nfds = std::ffi::c_uint;

/// The wake-up pair's write end as the signal handler sees it (`-1`
/// until [`Server::run_until_signalled`] stores its dup).
static SIGNAL_WAKER: AtomicI32 = AtomicI32::new(-1);

extern "C" fn on_signal(_signum: c_int) {
    let fd = SIGNAL_WAKER.load(Ordering::SeqCst);
    if fd >= 0 {
        // SAFETY: the buffer is a 1-byte static, and `fd` is a dup that
        // is never closed, so it cannot name another file by now.
        unsafe { write(fd, b"\x01".as_ptr().cast(), 1) };
    }
}

fn install_signal_handlers() {
    // BSD semantics (glibc default) keep the handler installed across
    // deliveries.
    const SIGINT: c_int = 2;
    const SIGTERM: c_int = 15;
    let handler = on_signal as *const () as usize;
    // SAFETY: `on_signal` is an `extern "C" fn(c_int)` that only loads
    // an atomic and calls write(2), both async-signal-safe.
    unsafe {
        signal(SIGINT, handler);
        signal(SIGTERM, handler);
    }
}

/// Blocks in `poll(2)` until the listener has a connection to accept
/// (`true`) or the wake-up pair has a byte (`false`: drain). A wake-up
/// wins a tie, so a draining daemon accepts nothing more.
fn wait_for_connection(listener: &UnixListener, woken: &UnixStream) -> bool {
    let mut fds = [woken.as_raw_fd(), listener.as_raw_fd()].map(|fd| PollFd {
        fd,
        events: POLLIN,
        revents: 0,
    });
    loop {
        // SAFETY: `fds` is a live array of `fds.len()` initialised
        // `pollfd`s whose descriptors stay open across the call.
        if unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, -1) } >= 0 {
            return fds[0].revents == 0;
        }
        let e = io::Error::last_os_error();
        // EINTR is a signal whose handler has just written the wake-up.
        if e.kind() != ErrorKind::Interrupted {
            eprintln!("cspm serve: poll failed: {e}");
            std::thread::sleep(ACCEPT_ERROR_BACKOFF);
        }
    }
}

/// Binds `path`, replacing a stale socket file left by a dead daemon
/// (stale = connecting to it is refused). A *live* daemon on the same
/// path is an error — two listeners would split the tenant space.
fn bind_socket(path: &Path) -> io::Result<UnixListener> {
    if path.exists() {
        match UnixStream::connect(path) {
            Ok(_) => {
                return Err(io::Error::new(
                    ErrorKind::AddrInUse,
                    format!("a daemon is already serving on {}", path.display()),
                ));
            }
            Err(_) => std::fs::remove_file(path)?,
        }
    }
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let listener = UnixListener::bind(path)?;
    // `poll` may report a connection that is gone by the time `accept`
    // runs; nonblocking turns that into `WouldBlock`, not a stall.
    listener.set_nonblocking(true)?;
    Ok(listener)
}

/// The accept loop: runs until woken, then drains connections,
/// checkpoints durable tenants, and removes the socket file.
fn serve_on(
    listener: UnixListener,
    config: ServerConfig,
    waker: UnixStream,
    woken: UnixStream,
) -> io::Result<()> {
    if let Some(dir) = &config.store_dir {
        std::fs::create_dir_all(dir)?;
    }
    let socket_path = config.socket.clone();
    let shared = Arc::new(Shared {
        registry: Mutex::new(SessionRegistry::new()),
        slots: MineSlots::new(config.threads),
        config,
        draining: AtomicBool::new(false),
        waker,
        counters: Counters::default(),
    });

    // Each connection's thread, beside a weak handle on its stream: the
    // drain ends blocked reads through it, yet a finished thread's
    // socket closes at once.
    let mut connections: Vec<(JoinHandle<()>, Weak<UnixStream>)> = Vec::new();
    while wait_for_connection(&listener, &woken) {
        match listener.accept() {
            Ok((stream, _addr)) => {
                let stream = Arc::new(stream);
                let (shared, conn) = (Arc::clone(&shared), Arc::clone(&stream));
                let spawned = std::thread::Builder::new()
                    .name("cspm-serve-conn".into())
                    .spawn(move || handle_connection(&shared, &conn));
                match spawned {
                    Ok(thread) => {
                        connections.retain(|(thread, _)| !thread.is_finished());
                        connections.push((thread, Arc::downgrade(&stream)));
                    }
                    Err(e) => eprintln!("cspm serve: dropped a connection: {e}"),
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
            Err(e) => {
                // Accept failures are transient (per-connection), not
                // fatal to the daemon; don't tear down every tenant
                // because one handshake failed.
                eprintln!("cspm serve: accept failed: {e}");
                std::thread::sleep(ACCEPT_ERROR_BACKOFF);
            }
        }
    }

    // End every blocked read; a request already read still finishes
    // and writes its answer before its thread sees end-of-stream.
    shared.draining.store(true, Ordering::SeqCst);
    for stream in connections
        .iter()
        .filter_map(|(_, stream)| stream.upgrade())
    {
        let _ = stream.shutdown(Shutdown::Read);
    }
    for (thread, _) in connections {
        let _ = thread.join();
    }
    // Final drain: persist what can be persisted. A failed checkpoint
    // is reported, not fatal — the WAL already holds staged deltas.
    let mut registry = lock_registry(&shared.registry);
    for name in registry.names() {
        if let Some(handle) = registry.remove(&name) {
            if let Err(e) = lock(&handle).checkpoint() {
                eprintln!("cspm serve: final checkpoint of {name:?} failed: {e}");
            }
        }
    }
    drop(registry);
    let _ = std::fs::remove_file(&socket_path);
    Ok(())
}

/// Outcome of one capped line read.
enum LineOutcome {
    Line(String),
    /// The line exceeded [`MAX_FRAME`]; it was drained off the stream
    /// (bounded memory) and the connection stays usable.
    Oversized,
    Eof,
}

/// Reads one newline-terminated line of at most `cap` bytes. A longer
/// line is drained off the stream without being buffered, so memory
/// stays bounded no matter how long it runs.
fn next_line(r: &mut impl BufRead, cap: usize) -> io::Result<LineOutcome> {
    let mut line = Vec::new();
    let mut oversized = false;
    loop {
        let available = match r.fill_buf() {
            Ok(b) => b,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        let newline = available.iter().position(|&b| b == b'\n');
        let chunk = &available[..newline.unwrap_or(available.len())];
        oversized |= line.len() + chunk.len() > cap;
        if !oversized {
            line.extend_from_slice(chunk);
        }
        // An empty read is EOF; a pending unterminated line still counts.
        let eof = available.is_empty();
        let consumed = chunk.len() + usize::from(newline.is_some());
        r.consume(consumed);
        if newline.is_none() && !eof {
            continue;
        }
        if oversized {
            return Ok(LineOutcome::Oversized);
        }
        if eof && line.is_empty() {
            return Ok(LineOutcome::Eof);
        }
        if line.last() == Some(&b'\r') {
            line.pop();
        }
        return Ok(LineOutcome::Line(
            String::from_utf8_lossy(&line).into_owned(),
        ));
    }
}

fn handle_connection(shared: &Arc<Shared>, stream: &UnixStream) {
    // Reads block until a request arrives or the drain ends them (BSDs
    // let an accepted socket inherit the listener's O_NONBLOCK); writes
    // get a generous cap so one stuck client cannot pin the thread.
    if stream.set_nonblocking(false).is_err() {
        return;
    }
    let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
    let mut reader = BufReader::new(stream);
    loop {
        let dispatched = match next_line(&mut reader, MAX_FRAME) {
            Err(_) | Ok(LineOutcome::Eof) => return,
            Ok(LineOutcome::Oversized) => Err(ProtoError::new(
                ErrorCode::OversizedFrame,
                format!("request line exceeds {MAX_FRAME} bytes"),
            )),
            Ok(LineOutcome::Line(line)) if line.trim().is_empty() => continue,
            Ok(LineOutcome::Line(line)) => {
                shared.counters.bump(&shared.counters.requests);
                dispatch_on(shared, &line, stream)
            }
        };
        // Every error line is counted here, once, in both the `stats`
        // counters and the metrics scrape.
        let response = match dispatched {
            Ok(Dispatched::Respond(resp)) => resp,
            Ok(Dispatched::Hangup) => return,
            Err(e) => {
                shared.counters.bump(&shared.counters.errors);
                serve_metrics().errors.inc();
                e.to_line()
            }
        };
        if write_line(stream, &response).is_err() {
            return;
        }
    }
}

/// One complete response line plus trailing newline, in one write (a
/// socket write has nothing to flush).
fn write_line(mut w: &UnixStream, line: &str) -> io::Result<()> {
    w.write_all(format!("{line}\n").as_bytes())
}

/// Writes one progress line without waiting on a slow reader.
/// `Ok(false)`: the socket's send buffer could take none of it, so the
/// line is dropped whole. A line the kernel took only in part is
/// finished blocking, so no torn line reaches the stream. `Err`: the
/// client is gone.
fn try_write_line(mut w: &UnixStream, line: &str) -> io::Result<bool> {
    let bytes = format!("{line}\n").into_bytes();
    w.set_nonblocking(true)?;
    let sent = w.write(&bytes);
    w.set_nonblocking(false)?;
    match sent {
        Ok(n) => w.write_all(&bytes[n..]).map(|()| true),
        Err(e) if e.kind() == ErrorKind::WouldBlock => Ok(false),
        Err(e) => Err(e),
    }
}

/// What one dispatched request produced.
enum Dispatched {
    /// The response line for the caller to write (for `subscribe`, the
    /// terminal line after its progress events).
    Respond(String),
    /// The client went away mid-mine: close the connection without a
    /// terminal line.
    Hangup,
}

/// Parses and executes one request line; `Ok` is the dispatch outcome,
/// `Err` becomes a typed error line. Never panics on any input —
/// connection threads have no one to report a panic to. The connection
/// is passed through so `subscribe` can stream progress lines ahead of
/// its terminal line, and so either mine op sees its client hang up.
fn dispatch_on(
    shared: &Arc<Shared>,
    line: &str,
    writer: &UnixStream,
) -> Result<Dispatched, ProtoError> {
    if shared.draining.load(Ordering::SeqCst) {
        return Err(ProtoError::new(
            ErrorCode::ShuttingDown,
            "daemon is draining",
        ));
    }
    let req = parse_request(line)?;
    let op = serve_metrics().op(req.op_name());
    op.requests.inc();
    let started = Instant::now();
    let res = match req {
        Request::Ping => Ok(Dispatched::Respond(simple_ok("ping"))),
        Request::Shutdown => {
            shared.draining.store(true, Ordering::SeqCst);
            wake(&shared.waker);
            Ok(Dispatched::Respond(simple_ok("shutdown")))
        }
        Request::Open { session, graph } => {
            do_open(shared, &session, graph.as_deref()).map(Dispatched::Respond)
        }
        Request::Delta { session, delta } => {
            do_delta(shared, &session, &delta).map(Dispatched::Respond)
        }
        Request::Mine {
            session,
            deadline_ms,
            top,
        } => do_mine(shared, &session, deadline_ms, top, writer, false),
        Request::Subscribe {
            session,
            deadline_ms,
            top,
        } => do_mine(shared, &session, deadline_ms, top, writer, true),
        Request::Stats { session } => do_stats(shared, session.as_deref()).map(Dispatched::Respond),
        Request::Metrics => Ok(Dispatched::Respond(do_metrics())),
        Request::Close { session } => do_close(shared, &session).map(Dispatched::Respond),
    };
    op.seconds.observe(started.elapsed().as_secs_f64());
    res
}

/// The process-wide metrics registry, rendered as Prometheus text
/// exposition and carried in a JSON string field. One scrape covers
/// every instrumented crate: the engine, the store, and this daemon.
fn do_metrics() -> String {
    Value::Obj(vec![
        ("ok".into(), true.into()),
        ("op".into(), "metrics".into()),
        ("format".into(), "prometheus".into()),
        ("text".into(), cspm_telemetry::global().render().into()),
    ])
    .to_json()
}

fn simple_ok(op: &str) -> String {
    Value::Obj(vec![("ok".into(), true.into()), ("op".into(), op.into())]).to_json()
}

fn unknown_session(name: &str) -> ProtoError {
    ProtoError::new(
        ErrorCode::UnknownSession,
        format!("no session named {name:?}"),
    )
}

fn open_response(name: &str, warm: bool, tenant: &Tenant) -> String {
    let (vertices, edges) = tenant
        .session()
        .graph()
        .map_or((0, 0), |g| (g.vertex_count(), g.edge_count()));
    Value::Obj(vec![
        ("ok".into(), true.into()),
        ("op".into(), "open".into()),
        ("session".into(), name.into()),
        ("warm".into(), warm.into()),
        ("durable".into(), tenant.is_durable().into()),
        ("vertices".into(), vertices.into()),
        ("edges".into(), edges.into()),
    ])
    .to_json()
}

fn do_open(shared: &Arc<Shared>, name: &str, graph: Option<&str>) -> Result<String, ProtoError> {
    shared.counters.bump(&shared.counters.opens);
    // `_pin` keeps the request's own tenant checked out across budget
    // enforcement — a just-opened session must never be the one evicted
    // to make room for itself.
    let (response, _pin) = match graph {
        Some(text) => {
            // Parse outside the registry lock — it's pure CPU on the
            // request's own payload.
            let g = read_graph(text.as_bytes())
                .map_err(|e| ProtoError::new(ErrorCode::BadGraph, e.to_string()))?;
            let mut registry = lock_registry(&shared.registry);
            if registry.contains(name) {
                return Err(ProtoError::new(
                    ErrorCode::SessionExists,
                    format!("session {name:?} is already resident; close it first"),
                ));
            }
            let mut tenant = shared.new_tenant(name)?;
            tenant.load(&g)?;
            let response = open_response(name, false, &tenant);
            let pin = registry
                .insert(name, tenant)
                .expect("name checked under the same lock");
            (response, pin)
        }
        None => {
            let mut registry = lock_registry(&shared.registry);
            if let Some(handle) = registry.checkout(name) {
                drop(registry);
                let response = open_response(name, true, &lock(&handle));
                (response, handle)
            } else {
                // Not resident: warm-open from the store if there is
                // a checkpoint for this name.
                let path = shared.store_path(name).filter(|p| p.exists());
                let Some(path) = path else {
                    return Err(unknown_session(name));
                };
                let ds = DurableSession::open(shared.miner(), &path).map_err(|e| {
                    ProtoError::new(ErrorCode::Store, format!("open {}: {e}", path.display()))
                })?;
                let tenant = Tenant::Durable(Box::new(ds));
                let response = open_response(name, true, &tenant);
                let pin = registry
                    .insert(name, tenant)
                    .expect("absence checked under the same lock");
                (response, pin)
            }
        }
    };
    shared.enforce_budget();
    Ok(response)
}

fn do_delta(shared: &Arc<Shared>, name: &str, delta: &GraphDelta) -> Result<String, ProtoError> {
    shared.counters.bump(&shared.counters.deltas);
    let handle = lock_registry(&shared.registry)
        .checkout(name)
        .ok_or_else(|| unknown_session(name))?;
    let stats = lock(&handle).stage_delta(delta)?;
    if stats.rebuilt.is_some() {
        serve_metrics().delta_rebuilds.inc();
    }
    // Budget pressure runs while `handle` pins this tenant: the session
    // the client is actively growing is not an eviction candidate.
    shared.enforce_budget();
    drop(handle);
    Ok(Value::Obj(vec![
        ("ok".into(), true.into()),
        ("op".into(), "delta".into()),
        ("session".into(), name.into()),
        ("dirty_centers".into(), stats.dirty_centers.into()),
        ("rebuilt".into(), stats.rebuilt.is_some().into()),
        ("compacted".into(), stats.compacted.into()),
        ("fragmentation".into(), stats.fragmentation.into()),
    ])
    .to_json())
}

/// The hex digest of a DL value's exact bit pattern — the protocol's
/// bit-identity witness (`final_dl` itself is also exact on the wire,
/// but a string survives every JSON consumer's float handling).
pub fn dl_bits(dl: f64) -> String {
    format!("{:016x}", dl.to_bits())
}

/// The observer of every mine: enforces the request deadline, stops
/// the run once the client is gone, and, for `subscribe`, writes each
/// accepted merge's progress line itself. A line the socket cannot take
/// at once is dropped (counted in `cspm_serve_subscribe_dropped_total`):
/// a slow reader loses whole lines, never merges. A failed write means
/// the subscriber is gone; a plain `mine` writes nothing while it runs,
/// so it asks the socket once per merge instead ([`hung_up`]).
struct MineObserver<'a> {
    deadline: Option<Instant>,
    hit: bool,
    /// The requesting client's connection.
    conn: &'a UnixStream,
    /// The session name for `subscribe`'s progress lines; `None` for a
    /// plain `mine`.
    subscribe: Option<&'a str>,
    /// Merges so far: the `iteration` of the latest progress line.
    merges: u64,
    dropped: u64,
    /// The client hung up.
    gone: bool,
}

impl ProgressObserver for MineObserver<'_> {
    fn on_iteration(&mut self, stat: &IterationStat) -> ControlFlow<()> {
        self.merges += 1;
        if self.deadline.is_some_and(|at| Instant::now() >= at) {
            self.hit = true;
            return ControlFlow::Break(());
        }
        match self.subscribe {
            Some(name) => {
                match try_write_line(self.conn, &render_progress(name, self.merges, stat)) {
                    Ok(true) => {}
                    Ok(false) => self.dropped += 1,
                    Err(_) => self.gone = true,
                }
            }
            None => self.gone = hung_up(self.conn),
        }
        if self.gone {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    }
}

/// Whether the client has closed both halves of its connection, asked
/// with one zero-timeout `poll(2)`. Linux reports `POLLHUP` on a Unix
/// stream socket only then, so a client that shut down just its write
/// half after sending its request still gets its answer.
fn hung_up(conn: &UnixStream) -> bool {
    let mut fd = PollFd {
        fd: conn.as_raw_fd(),
        events: 0,
        revents: 0,
    };
    // SAFETY: one live, initialised `pollfd` whose descriptor stays
    // open across the call.
    let ready = unsafe { poll(&mut fd, 1, 0) };
    ready > 0 && fd.revents & POLLHUP != 0
}

/// One progress event line: `{"ok":true,"op":"subscribe",
/// "event":"progress","iteration":N,...}` with the [`IterationStat`]
/// fields spelled out.
fn render_progress(name: &str, iteration: u64, stat: &IterationStat) -> String {
    Value::Obj(vec![
        ("ok".into(), true.into()),
        ("op".into(), "subscribe".into()),
        ("event".into(), "progress".into()),
        ("session".into(), name.into()),
        ("iteration".into(), iteration.into()),
        ("gain_evals".into(), stat.gain_evals.into()),
        ("possible_pairs".into(), stat.possible_pairs.into()),
        ("accepted_gain".into(), stat.accepted_gain.into()),
        ("dl_after".into(), stat.dl_after.into()),
        ("data_dl_after".into(), stat.data_dl_after.into()),
    ])
    .to_json()
}

/// The `mine` and `subscribe` ops: one tenant mine on the request's own
/// connection thread. A `subscribe` (`stream`) writes one event line
/// per accepted merge to `conn` as the run goes; a plain `mine` streams
/// nothing. Either way the terminal line (or typed error) is returned
/// for the caller to write, unless the client hung up mid-run.
///
/// The mine slots bound mining CPU across all connections; a mine locks
/// its tenant only once it holds a slot. Latency is measured from
/// request receipt, so it includes the wait for a slot — that is what
/// the client experiences. A panicking run answers `internal`; its
/// slot and tenant lock come back as the unwind drops their guards.
fn do_mine(
    shared: &Arc<Shared>,
    name: &str,
    deadline_ms: Option<u64>,
    top: Option<usize>,
    conn: &UnixStream,
    stream: bool,
) -> Result<Dispatched, ProtoError> {
    let c = &shared.counters;
    c.bump(if stream { &c.subscribes } else { &c.mines });
    // Pins the tenant across the run *and* budget enforcement.
    let handle = lock_registry(&shared.registry)
        .checkout(name)
        .ok_or_else(|| unknown_session(name))?;
    let started = Instant::now();
    let mut obs = MineObserver {
        deadline: deadline_ms.map(|ms| started + Duration::from_millis(ms)),
        hit: false,
        conn,
        subscribe: stream.then_some(name),
        merges: 0,
        dropped: 0,
        gone: false,
    };

    let slot = shared.slots.acquire();
    let ran = catch_unwind(AssertUnwindSafe(|| -> Result<String, ProtoError> {
        let mut tenant = lock(&handle);
        let result = tenant.run_with(&mut obs)?;
        let elapsed_ms = started.elapsed().as_millis() as u64;
        Ok(render_mine(stream, name, &tenant, &result, top, elapsed_ms))
    }));
    drop(slot);
    if obs.dropped > 0 {
        serve_metrics().subscribe_dropped.add(obs.dropped);
    }

    let terminal = match ran {
        Err(_) => Err(ProtoError::new(
            ErrorCode::Internal,
            "mining job panicked; session state was not persisted",
        )),
        Ok(_) if obs.hit => {
            shared.counters.bump(&shared.counters.deadline_hits);
            serve_metrics().deadline_expiries.inc();
            Err(deadline_error(deadline_ms))
        }
        Ok(Ok(rendered)) => {
            shared.enforce_budget();
            Ok(Dispatched::Respond(rendered))
        }
        Ok(Err(e)) => Err(e),
    };
    if obs.gone {
        return Ok(Dispatched::Hangup);
    }
    terminal
}

fn deadline_error(deadline_ms: Option<u64>) -> ProtoError {
    ProtoError::new(
        ErrorCode::DeadlineExceeded,
        format!(
            "deadline of {}ms expired mid-merge; warm session state is unchanged",
            deadline_ms.unwrap_or(0)
        ),
    )
}

/// Renders a mine response under the tenant lock (star display needs
/// the graph's attribute table). `subscribe` (`stream`) reuses the same
/// payload as its terminal line, tagged `"event":"done"` so a streaming
/// client can tell it from the progress events that preceded it.
fn render_mine(
    stream: bool,
    name: &str,
    tenant: &Tenant,
    result: &CspmResult,
    top: Option<usize>,
    elapsed_ms: u64,
) -> String {
    let op = if stream { "subscribe" } else { "mine" };
    let mut doc = vec![("ok".into(), true.into()), ("op".into(), op.into())];
    if stream {
        doc.push(("event".into(), "done".into()));
    }
    doc.extend([
        ("session".into(), name.into()),
        ("initial_dl".into(), result.initial_dl.into()),
        ("final_dl".into(), result.final_dl.into()),
        ("final_dl_bits".into(), dl_bits(result.final_dl).into()),
        ("merges".into(), result.merges.into()),
        ("n_astars".into(), result.model.len().into()),
        ("cancelled".into(), result.stats.cancelled.into()),
        ("elapsed_ms".into(), elapsed_ms.into()),
    ]);
    if let (Some(top), Some(g)) = (top, tenant.session().graph()) {
        let patterns = result.model.astars().iter().take(top).map(|m| {
            let astar = m.astar.display(g.attrs()).to_string();
            Value::Obj(vec![
                ("astar".into(), astar.into()),
                ("frequency".into(), m.frequency.into()),
                ("code_len".into(), m.code_len.into()),
            ])
        });
        doc.push(("top_patterns".into(), Value::Arr(patterns.collect())));
    }
    Value::Obj(doc).to_json()
}

fn do_stats(shared: &Arc<Shared>, session: Option<&str>) -> Result<String, ProtoError> {
    match session {
        None => {
            let mut registry = lock_registry(&shared.registry);
            let names: Vec<Value> = registry.names().into_iter().map(Value::from).collect();
            let bytes = registry.approx_bytes();
            drop(registry);
            let count = |counter: &AtomicU64| counter.load(Ordering::Relaxed).into();
            let c = &shared.counters;
            let counters = Value::Obj(vec![
                ("requests".into(), count(&c.requests)),
                ("errors".into(), count(&c.errors)),
                ("opens".into(), count(&c.opens)),
                ("deltas".into(), count(&c.deltas)),
                ("mines".into(), count(&c.mines)),
                ("subscribes".into(), count(&c.subscribes)),
                ("deadline_hits".into(), count(&c.deadline_hits)),
                ("evictions".into(), count(&c.evictions)),
            ]);
            let budget = match shared.config.mem_budget {
                Some(b) => ("mem_budget".into(), b.into()),
                None => ("mem_budget_unlimited".into(), true.into()),
            };
            Ok(Value::Obj(vec![
                ("ok".into(), true.into()),
                ("op".into(), "stats".into()),
                ("sessions".into(), names.len().into()),
                ("resident_bytes".into(), bytes.into()),
                ("threads".into(), shared.slots.total.into()),
                budget,
                ("names".into(), Value::Arr(names)),
                ("counters".into(), counters),
            ])
            .to_json())
        }
        Some(name) => {
            let handle = lock_registry(&shared.registry).peek(name);
            let mut doc = vec![
                ("ok".into(), true.into()),
                ("op".into(), "stats".into()),
                ("session".into(), name.into()),
            ];
            match handle {
                Some(handle) => {
                    let tenant = lock(&handle);
                    let s = tenant.session();
                    let (vertices, edges) = s
                        .graph()
                        .map_or((0, 0), |g| (g.vertex_count(), g.edge_count()));
                    doc.extend([
                        ("resident".into(), true.into()),
                        ("durable".into(), tenant.is_durable().into()),
                        ("vertices".into(), vertices.into()),
                        ("edges".into(), edges.into()),
                        ("approx_bytes".into(), s.approx_bytes().into()),
                        ("fragmentation".into(), s.fragmentation().into()),
                        ("compactions".into(), s.compactions().into()),
                    ]);
                }
                None => {
                    let stored = shared.store_path(name).is_some_and(|p| p.exists());
                    if !stored {
                        return Err(unknown_session(name));
                    }
                    doc.extend([
                        ("resident".into(), false.into()),
                        ("stored".into(), true.into()),
                    ]);
                }
            }
            Ok(Value::Obj(doc).to_json())
        }
    }
}

fn do_close(shared: &Arc<Shared>, name: &str) -> Result<String, ProtoError> {
    // Checkpoint while still resident (peek: closing must not bump
    // recency), then remove. A concurrent close of the same name loses
    // the race at `remove` and reports unknown_session — accurate.
    let handle = lock_registry(&shared.registry)
        .peek(name)
        .ok_or_else(|| unknown_session(name))?;
    let checkpointed = lock(&handle).checkpoint()?;
    drop(handle);
    if lock_registry(&shared.registry).remove(name).is_none() {
        return Err(unknown_session(name));
    }
    Ok(Value::Obj(vec![
        ("ok".into(), true.into()),
        ("op".into(), "close".into()),
        ("session".into(), name.into()),
        ("checkpointed".into(), checkpointed.into()),
    ])
    .to_json())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    /// A daemon with `threads` slots runs that many mines at once (`0`
    /// counts as one): one more `acquire`, on another thread, returns
    /// only once a held slot is dropped.
    #[test]
    fn slots_bound_concurrent_mines() {
        for (threads, slots) in [(0, 1), (1, 1), (2, 2)] {
            let mine_slots = MineSlots::new(threads);
            assert_eq!(mine_slots.total, slots, "threads = {threads}");
            assert_eq!(*lock(&mine_slots.free), slots, "threads = {threads}");
            let mut held: Vec<_> = (0..slots).map(|_| mine_slots.acquire()).collect();
            let released = AtomicBool::new(false);
            let (tx, rx) = channel();
            std::thread::scope(|s| {
                s.spawn(|| {
                    tx.send(None).unwrap();
                    let _slot = mine_slots.acquire();
                    tx.send(Some(released.load(Ordering::SeqCst))).unwrap();
                });
                assert_eq!(rx.recv(), Ok(None), "the waiter started");
                assert!(
                    rx.recv_timeout(Duration::from_millis(100)).is_err(),
                    "threads = {threads}: acquired a slot while all {slots} were held"
                );
                released.store(true, Ordering::SeqCst);
                held.pop();
                assert_eq!(rx.recv(), Ok(Some(true)), "threads = {threads}");
            });
        }
    }

    /// A slot taken inside a run that panics comes back as the guard
    /// unwinds, so the next mine does not wait for it.
    #[test]
    fn a_panicking_mine_hands_its_slot_back() {
        let mine_slots = MineSlots::new(1);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let _slot = mine_slots.acquire();
            panic!("mine exploded");
        }));
        assert!(outcome.is_err());
        assert_eq!(*lock(&mine_slots.free), 1, "the unwind must free the slot");
        drop(mine_slots.acquire());
    }
}
