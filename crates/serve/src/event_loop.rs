//! The readiness-polled connection plane.
//!
//! One event-loop thread owns every connection: a single `poll(2)`
//! interest set covers the listener, a cross-thread waker, and each
//! connection socket, so ten thousand idle keep-alive clients cost one
//! file descriptor of kernel state apiece and no thread stacks.
//! Request parsing, the wire-speed decision-table path, deadline
//! bookkeeping, idle sweeping, and the graceful drain all happen here,
//! centrally, instead of being replicated across per-connection
//! threads.
//!
//! Requests the table cannot answer are queued to the worker pool; the
//! worker posts a [`Completion`] into the loop's completion inbox
//! (keyed by a generation-checked [`Token`]) and kicks the waker, so
//! every byte a connection ever sends or receives is handled by the
//! loop thread — connection state needs no lock.
//!
//! Pipelined requests are first-class: after a completion or a
//! loop-side `504`, the parser is re-run over the receive buffer,
//! because bytes that already arrived will never raise another
//! readability event.

use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use agequant_check::sync::Arc;
use agequant_check::thread;
use agequant_netpoll::{poll, PollFd, POLLIN, POLLOUT};

use crate::http::{self, HttpError, Parsed, Response};
use crate::metrics::Endpoint;
use crate::server::{self, Routed, Shared};

/// Grace past a request's deadline before the loop answers `504`
/// itself (the worker's own expired-pop answer usually lands first).
const DEADLINE_GRACE: Duration = Duration::from_millis(250);
/// How often the deadline and idle sweeps run.
const SWEEP_EVERY: Duration = Duration::from_millis(50);
/// Poll timeout, bounding sweep latency while the loop is idle.
const POLL_TICK_MS: i32 = 100;
/// How long a draining loop waits for in-flight work and final
/// flushes before force-closing whatever remains.
const DRAIN_PATIENCE: Duration = Duration::from_secs(10);
/// Bytes per `read(2)` call.
const READ_CHUNK: usize = 16 * 1024;

/// Addresses one parked request across the loop/worker boundary.
///
/// The generation retires stale completions: a connection that was
/// closed, reused, or answered `504` by the deadline sweep bumps its
/// generation, so a late worker reply is dropped instead of being
/// written onto someone else's request.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Token {
    pub(crate) slot: usize,
    pub(crate) gen: u64,
}

/// A worker's finished reply, addressed by token.
pub(crate) struct Completion {
    pub(crate) token: Token,
    pub(crate) response: Response,
}

/// Builds the `(read, write)` waker pair: a self-connected TCP socket,
/// the only readiness-pollable self-pipe `std` can make without more
/// FFI than the poll shim itself.
pub(crate) fn waker_pair() -> std::io::Result<(TcpStream, TcpStream)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let tx = TcpStream::connect(listener.local_addr()?)?;
    let (rx, _) = listener.accept()?;
    rx.set_nonblocking(true)?;
    tx.set_nonblocking(true)?;
    tx.set_nodelay(true)?;
    Ok((rx, tx))
}

/// A request waiting on the worker pool.
struct Pending {
    endpoint: Endpoint,
    started: Instant,
    deadline: Instant,
    wants_close: bool,
}

/// Per-connection state, owned by the loop thread.
struct Conn {
    stream: TcpStream,
    inbuf: Vec<u8>,
    /// Bytes of `inbuf` consumed by parsed requests; compacted once
    /// per wake rather than once per pipelined request.
    inpos: usize,
    outbuf: Vec<u8>,
    written: usize,
    last_activity: Instant,
    gen: u64,
    pending: Option<Pending>,
    close_after_flush: bool,
    continue_sent: bool,
    eof: bool,
}

impl Conn {
    fn new(stream: TcpStream, gen: u64) -> Self {
        Conn {
            stream,
            inbuf: Vec::new(),
            inpos: 0,
            outbuf: Vec::new(),
            written: 0,
            last_activity: Instant::now(),
            gen,
            pending: None,
            close_after_flush: false,
            continue_sent: false,
            eof: false,
        }
    }

    fn unflushed(&self) -> bool {
        self.written < self.outbuf.len()
    }

    /// More request bytes are welcome: nothing parked, not closing,
    /// and the peer has not hung up its sending half.
    fn can_read(&self) -> bool {
        self.pending.is_none() && !self.close_after_flush && !self.eof
    }
}

/// What a poll-set entry refers to this iteration.
enum FdKind {
    Waker,
    Listener,
    Conn(usize),
}

/// Runs the event loop until the drain completes.
pub(crate) fn run(shared: Arc<Shared>, listener: TcpListener, waker_rx: TcpStream) {
    EventLoop {
        shared,
        listener: Some(listener),
        waker_rx,
        conns: Vec::new(),
        free: Vec::new(),
        live: 0,
        next_gen: 1,
        next_sweep: Instant::now(),
        drain_deadline: None,
    }
    .run();
}

struct EventLoop {
    shared: Arc<Shared>,
    listener: Option<TcpListener>,
    waker_rx: TcpStream,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    live: usize,
    next_gen: u64,
    next_sweep: Instant,
    drain_deadline: Option<Instant>,
}

impl EventLoop {
    fn run(mut self) {
        let mut fds: Vec<PollFd> = Vec::new();
        let mut kinds: Vec<FdKind> = Vec::new();
        loop {
            if self.shared.is_draining() {
                // Stop accepting the moment the drain starts; dropping
                // the listener closes the port, so post-drain connects
                // are refused at the kernel.
                self.listener = None;
                if self.drain_deadline.is_none() {
                    self.drain_deadline = Some(Instant::now() + DRAIN_PATIENCE);
                }
            }
            self.drain_completions();
            self.sweep();
            if self.shared.is_draining() && self.live == 0 {
                break;
            }

            fds.clear();
            kinds.clear();
            fds.push(PollFd::readable(fd_of(&self.waker_rx)));
            kinds.push(FdKind::Waker);
            if let Some(listener) = &self.listener {
                fds.push(PollFd::readable(fd_of(listener)));
                kinds.push(FdKind::Listener);
            }
            for (slot, conn) in self.conns.iter().enumerate() {
                let Some(conn) = conn else { continue };
                let mut events = 0;
                if conn.can_read() {
                    events |= POLLIN;
                }
                if conn.unflushed() {
                    events |= POLLOUT;
                }
                if events == 0 {
                    // Parked on a worker reply with nothing to write:
                    // leaving it out of the set keeps a hung-up peer
                    // from spinning the loop on POLLHUP.
                    continue;
                }
                fds.push(PollFd::new(fd_of(&conn.stream), events));
                kinds.push(FdKind::Conn(slot));
            }

            if poll(&mut fds, POLL_TICK_MS).is_err() {
                // Non-EINTR failure (or a non-unix build): back off
                // instead of spinning; sweeps still run every pass.
                thread::sleep(Duration::from_millis(5));
            }

            for (fd, kind) in fds.iter().zip(&kinds) {
                match kind {
                    FdKind::Waker => {
                        if fd.is_readable() {
                            drain_waker(&self.waker_rx);
                        }
                    }
                    FdKind::Listener => {
                        if fd.is_readable() {
                            self.accept_ready();
                        }
                    }
                    FdKind::Conn(slot) => {
                        self.service(*slot, fd.is_readable(), fd.is_writable(), fd.is_error());
                    }
                }
            }
        }
        // The drain is over (or patience ran out): whatever is left
        // closes without ceremony.
        for slot in 0..self.conns.len() {
            self.close(slot);
        }
    }

    /// Handles one connection's readiness report.
    fn service(&mut self, slot: usize, readable: bool, writable: bool, error: bool) {
        if self.conns.get(slot).is_none_or(Option::is_none) {
            return;
        }
        if readable && self.conns[slot].as_ref().expect("live slot").can_read() {
            if self.fill(slot) {
                self.advance(slot);
            } else {
                self.close(slot);
                return;
            }
        }
        if self.conns[slot].is_none() {
            return;
        }
        // A close-marked connection with nothing left to write must
        // close now: it has no poll interest left to bring it back.
        let conn = self.conns[slot].as_ref().expect("live slot");
        if writable || conn.unflushed() || conn.close_after_flush {
            self.flush(slot);
        }
        if self.conns[slot].is_none() {
            return;
        }
        // POLLERR/POLLNVAL with no forward progress: the socket is
        // dead. (POLLHUP alone arrives with `readable` set and is
        // handled as EOF by the read path.)
        if error && !readable && !writable {
            self.close(slot);
        }
    }

    /// Reads everything available into the receive buffer. `false`
    /// means the socket errored and the connection should close.
    fn fill(&mut self, slot: usize) -> bool {
        let conn = self.conns[slot].as_mut().expect("live slot");
        let mut buf = [0u8; READ_CHUNK];
        loop {
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    conn.eof = true;
                    return true;
                }
                Ok(n) => {
                    conn.inbuf.extend_from_slice(&buf[..n]);
                    conn.last_activity = Instant::now();
                    if n < buf.len() {
                        return true;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
    }

    /// Parses and dispatches every complete request buffered on the
    /// connection, stopping at a partial request, a parked job, or a
    /// close-worthy condition. Re-run after completions: buffered
    /// pipelined bytes never raise another readability event.
    fn advance(&mut self, slot: usize) {
        loop {
            let (request, token) = {
                let conn = self.conns[slot].as_mut().expect("live slot");
                if conn.pending.is_some() || conn.close_after_flush {
                    break;
                }
                match http::try_parse(&conn.inbuf[conn.inpos..]) {
                    Err(err) => {
                        let (status, message) = match err {
                            HttpError::TooLarge(limit) => (413, format!("limit {limit} bytes")),
                            HttpError::Malformed(msg) | HttpError::Io(msg) => (400, msg),
                        };
                        answer_and_close(conn, &self.shared, status, &message);
                        break;
                    }
                    Ok(Parsed::Partial { needs_continue }) => {
                        if conn.eof {
                            // The peer finished sending mid-request:
                            // same 400-or-silent-close split the old
                            // blocking wire layer drew.
                            match http::eof_error(&conn.inbuf[conn.inpos..]) {
                                Some(HttpError::Malformed(msg)) => {
                                    answer_and_close(conn, &self.shared, 400, &msg);
                                }
                                Some(HttpError::TooLarge(limit)) => {
                                    answer_and_close(
                                        conn,
                                        &self.shared,
                                        413,
                                        &format!("limit {limit} bytes"),
                                    );
                                }
                                Some(HttpError::Io(_)) | None => conn.close_after_flush = true,
                            }
                        } else if needs_continue && !conn.continue_sent {
                            conn.outbuf.extend_from_slice(http::CONTINUE_BYTES);
                            conn.continue_sent = true;
                        }
                        break;
                    }
                    Ok(Parsed::Complete { request, consumed }) => {
                        conn.inpos += consumed;
                        conn.continue_sent = false;
                        conn.last_activity = Instant::now();
                        let token = Token {
                            slot,
                            gen: conn.gen,
                        };
                        (request, token)
                    }
                }
            };
            let started = Instant::now();
            let (endpoint, routed) = server::route(&self.shared, &request, token);
            let conn = self.conns[slot].as_mut().expect("live slot");
            match routed {
                Routed::Ready(response) => {
                    let keep_alive = !self.shared.is_draining() && !request.wants_close();
                    response.render_to(&mut conn.outbuf, keep_alive);
                    self.shared
                        .metrics
                        .observe(endpoint, response.status, started.elapsed());
                    if !keep_alive {
                        conn.close_after_flush = true;
                    }
                }
                Routed::Pending => {
                    conn.pending = Some(Pending {
                        endpoint,
                        started,
                        deadline: started + Duration::from_millis(self.shared.config.deadline_ms),
                        wants_close: request.wants_close(),
                    });
                }
            }
        }
        let conn = self.conns[slot].as_mut().expect("live slot");
        if conn.inpos > 0 {
            conn.inbuf.drain(..conn.inpos);
            conn.inpos = 0;
        }
    }

    /// Writes as much of the send buffer as the socket accepts,
    /// closing the connection once a close-marked buffer drains.
    fn flush(&mut self, slot: usize) {
        let (dead, done) = {
            let conn = self.conns[slot].as_mut().expect("live slot");
            let mut dead = false;
            while conn.written < conn.outbuf.len() {
                match conn.stream.write(&conn.outbuf[conn.written..]) {
                    Ok(0) => {
                        dead = true;
                        break;
                    }
                    Ok(n) => {
                        conn.written += n;
                        conn.last_activity = Instant::now();
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
            if conn.written == conn.outbuf.len() {
                conn.outbuf.clear();
                conn.written = 0;
            }
            (dead, conn.outbuf.is_empty() && conn.close_after_flush)
        };
        if dead || done {
            self.close(slot);
        }
    }

    /// Accepts every pending connection.
    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    self.shared.metrics.connection_opened();
                    self.adopt(stream);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return, // WouldBlock or transient; poll retries
            }
        }
    }

    /// Takes ownership of a connection and serves whatever already
    /// arrived without waiting for the next poll round.
    fn adopt(&mut self, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        let _ = stream.set_nonblocking(true);
        let gen = self.next_gen;
        self.next_gen += 1;
        let conn = Conn::new(stream, gen);
        let slot = match self.free.pop() {
            Some(slot) => {
                self.conns[slot] = Some(conn);
                slot
            }
            None => {
                self.conns.push(Some(conn));
                self.conns.len() - 1
            }
        };
        self.live += 1;
        if self.fill(slot) {
            self.advance(slot);
            self.flush(slot);
        } else {
            self.close(slot);
        }
    }

    /// Writes out every worker reply posted since the last pass.
    fn drain_completions(&mut self) {
        let completions = std::mem::take(
            &mut *self
                .shared
                .completions
                .lock()
                .expect("unpoisoned completions"),
        );
        for completion in completions {
            self.complete(completion);
        }
    }

    /// Writes a worker's reply onto its connection, unless the token
    /// was retired (connection closed/reused or already answered 504).
    fn complete(&mut self, completion: Completion) {
        let Token { slot, gen } = completion.token;
        let Some(Some(conn)) = self.conns.get_mut(slot) else {
            return;
        };
        if conn.gen != gen {
            return;
        }
        let Some(pending) = conn.pending.take() else {
            return;
        };
        let keep_alive = !self.shared.is_draining() && !pending.wants_close;
        completion.response.render_to(&mut conn.outbuf, keep_alive);
        self.shared.metrics.observe(
            pending.endpoint,
            completion.response.status,
            pending.started.elapsed(),
        );
        conn.last_activity = Instant::now();
        if !keep_alive {
            conn.close_after_flush = true;
        }
        self.advance(slot);
        self.flush(slot);
    }

    /// The central deadline and idle sweeps, rate-limited so ten
    /// thousand idle connections cost one scan per [`SWEEP_EVERY`],
    /// not one timer apiece.
    fn sweep(&mut self) {
        let now = Instant::now();
        if now < self.next_sweep {
            return;
        }
        self.next_sweep = now + SWEEP_EVERY;
        let draining = self.shared.is_draining();
        let idle_limit = Duration::from_secs(self.shared.config.keep_alive_secs.max(1));
        let patience_up = self.drain_deadline.is_some_and(|d| now >= d);
        for slot in 0..self.conns.len() {
            enum Action {
                Keep,
                Expire,
                Close,
            }
            let action = {
                let Some(conn) = &self.conns[slot] else {
                    continue;
                };
                if patience_up {
                    Action::Close
                } else if conn
                    .pending
                    .as_ref()
                    .is_some_and(|p| now >= p.deadline + DEADLINE_GRACE)
                {
                    Action::Expire
                } else if conn.pending.is_none()
                    && !conn.unflushed()
                    && (draining || now.duration_since(conn.last_activity) > idle_limit)
                {
                    Action::Close
                } else {
                    Action::Keep
                }
            };
            match action {
                Action::Keep => {}
                Action::Close => self.close(slot),
                Action::Expire => self.expire(slot),
            }
        }
    }

    /// The loop-side deadline answer: the worker never picked the job
    /// up (or is still on it); the client gets `504` now, and the
    /// eventual completion is retired by the generation bump.
    fn expire(&mut self, slot: usize) {
        let gen = self.next_gen;
        self.next_gen += 1;
        let conn = self.conns[slot].as_mut().expect("live slot");
        let Some(pending) = conn.pending.take() else {
            return;
        };
        conn.gen = gen;
        self.shared.metrics.record_timeout();
        let keep_alive = !self.shared.is_draining() && !pending.wants_close;
        let response = Response::json(504, server::error_body("deadline exceeded"));
        response.render_to(&mut conn.outbuf, keep_alive);
        self.shared
            .metrics
            .observe(pending.endpoint, 504, pending.started.elapsed());
        if !keep_alive {
            conn.close_after_flush = true;
        }
        self.advance(slot);
        self.flush(slot);
    }

    fn close(&mut self, slot: usize) {
        if let Some(entry @ Some(_)) = self.conns.get_mut(slot) {
            *entry = None;
            self.free.push(slot);
            self.live -= 1;
            self.shared.metrics.connection_closed();
        }
    }
}

/// Renders an error response, counts it, and marks the connection to
/// close once it flushes — the wire behavior of the old blocking
/// layer's 400/413 path.
fn answer_and_close(conn: &mut Conn, shared: &Shared, status: u16, message: &str) {
    let response = Response::json(status, server::error_body(message));
    shared
        .metrics
        .observe(Endpoint::Other, status, Duration::ZERO);
    response.render_to(&mut conn.outbuf, false);
    conn.close_after_flush = true;
}

/// Empties the waker socket so its readability resets.
fn drain_waker(mut waker_rx: &TcpStream) {
    let mut buf = [0u8; 64];
    loop {
        match waker_rx.read(&mut buf) {
            Ok(0) => return, // write end gone: the server is exiting
            Ok(_) => {}
            Err(_) => return, // WouldBlock: drained
        }
    }
}

#[cfg(unix)]
fn fd_of<T: std::os::unix::io::AsRawFd>(io: &T) -> i32 {
    io.as_raw_fd()
}

/// Non-unix builds compile but cannot poll; `poll` returns
/// `Unsupported` and the loop degrades to its backoff sleep.
#[cfg(not(unix))]
fn fd_of<T>(_io: &T) -> i32 {
    -1
}
