//! The nonblocking, readiness-driven connection layer.
//!
//! One event-loop thread owns every connection: a nonblocking listener,
//! per-connection read/write buffers, and an idle-connection sweeper.
//! Slow work never runs here — `dispatch` either answers inline
//! (ping/stats/shutdown, parse errors, backpressure rejections) or
//! hands the request to the worker pool, whose completion lands back on
//! this thread through an mpsc channel. Thousands of idle clients
//! therefore cost two buffers each and zero threads.
//!
//! The standard library exposes no `poll(2)`, so readiness is
//! approximated: every socket is nonblocking and the loop scans them
//! per tick, sleeping adaptively (downwards of a millisecond when
//! traffic flows, backing off to [`MAX_SLEEP`] when quiet). The sleep
//! doubles as the response wait — `recv_timeout` on the completion
//! channel wakes the loop the moment a worker finishes, so response
//! latency does not pay the idle backoff.
//!
//! Pipelined requests are drained together: every complete line in the
//! read buffer is dispatched in one wakeup (`batched_requests` counts
//! lines arriving two-or-more to a drain). Framing is linear: the newline
//! search resumes where the previous read stopped, and a line longer than
//! [`MAX_LINE`] is answered with an error, after which the connection's
//! input is discarded and its write side shut. A connection reads at most
//! [`MAX_LINE`] bytes per tick, so one that streams without end cannot
//! hold the loop; the rest waits for the next tick, which does not sleep.
//! Output is bounded the same way: while a connection has [`MAX_LINE`] or
//! more bytes of responses its peer has not taken, the loop stops reading
//! from it (TCP flow control then blocks the peer's sends) and resumes
//! once the backlog drains below [`MAX_LINE`].

use crate::proto::Response;
use crate::server::{Dispatched, Inner};
use crate::Backend;
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Identifies one connection for the lifetime of the daemon (never
/// reused, so late responses for closed connections are dropped rather
/// than misdelivered).
pub(crate) type ConnId = u64;

/// Event-loop sleep floor while traffic flows.
const MIN_SLEEP: Duration = Duration::from_micros(200);
/// Event-loop sleep ceiling when every connection is quiet.
const MAX_SLEEP: Duration = Duration::from_millis(10);
/// Bound on flushing outstanding responses after shutdown.
const SHUTDOWN_DRAIN: Duration = Duration::from_secs(5);

/// Longest request line accepted, in bytes (1 MiB). The largest request
/// of the end-to-end benchmark's base set is 7.3 KB, so this leaves over
/// 100x headroom while bounding what one connection can make the event
/// loop buffer.
pub const MAX_LINE: usize = 1 << 20;

struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    /// Prefix of `rbuf` already searched for a newline.
    scanned: usize,
    /// Responses queued for the peer; `wbuf[wpos..]` is not written yet.
    wbuf: Vec<u8>,
    wpos: usize,
    last_activity: Instant,
    /// Requests handed to the pool whose responses have not come back.
    pending: usize,
    /// Peer sent EOF; close once `wbuf` drains and `pending` hits 0.
    closing: bool,
    /// Unrecoverable socket error; drop at the next reap.
    dead: bool,
    /// A line exceeded [`MAX_LINE`]: input is discarded, and the write
    /// side is shut once the error response is out.
    rejected: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            rbuf: Vec::new(),
            scanned: 0,
            wbuf: Vec::new(),
            wpos: 0,
            last_activity: Instant::now(),
            pending: 0,
            closing: false,
            dead: false,
            rejected: false,
        }
    }

    fn queue_response(&mut self, resp: &Response) {
        // Drop the written prefix once it is at least half the buffer, so
        // each byte is moved at most once more (amortized linear).
        if self.wpos > 0 && self.wpos * 2 >= self.wbuf.len() {
            self.wbuf.drain(..self.wpos);
            self.wpos = 0;
        }
        self.wbuf.extend_from_slice(resp.to_json().as_bytes());
        self.wbuf.push(b'\n');
    }

    /// Bytes of responses queued but not yet written.
    fn unwritten(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Writes as much buffered output as the socket accepts right now.
    fn flush_writes(&mut self) -> bool {
        let mut moved = false;
        while self.unwritten() > 0 && !self.dead {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => self.dead = true,
                Ok(n) => {
                    self.wpos += n;
                    self.last_activity = Instant::now();
                    moved = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => self.dead = true,
            }
        }
        if self.unwritten() == 0 {
            self.wbuf.clear();
            self.wpos = 0;
        }
        if self.rejected && self.unwritten() == 0 && self.pending == 0 {
            // The client reads the error, then EOF.
            let _ = self.stream.shutdown(Shutdown::Write);
        }
        moved
    }

    /// Reads until the socket would block or [`MAX_LINE`] bytes (the
    /// tick's budget) came in. Returns every complete request line (and a
    /// final unterminated one after EOF), whether a line exceeded
    /// [`MAX_LINE`] (later input is then dropped), and whether the budget
    /// ran out.
    fn read_lines(&mut self) -> (Vec<String>, bool, bool) {
        let mut chunk = [0u8; 16 * 1024];
        let mut lines = Vec::new();
        let was_rejected = self.rejected;
        let mut budget = MAX_LINE;
        while !self.closing && !self.dead {
            if budget == 0 {
                return (lines, self.rejected && !was_rejected, true);
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => self.closing = true,
                Ok(n) => {
                    budget = budget.saturating_sub(n);
                    self.last_activity = Instant::now();
                    if self.rejected {
                        continue;
                    }
                    self.rbuf.extend_from_slice(&chunk[..n]);
                    if !self.split_lines(&mut lines) {
                        self.rejected = true;
                        self.rbuf = Vec::new();
                        self.scanned = 0;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => self.dead = true,
            }
        }
        if self.closing && !self.rbuf.is_empty() {
            push_line(&mut lines, &self.rbuf);
            self.rbuf.clear();
            self.scanned = 0;
        }
        (lines, self.rejected && !was_rejected, false)
    }

    /// Moves every complete line out of `rbuf`, resuming the newline
    /// search where the previous call stopped. Returns `false` once a line
    /// is longer than [`MAX_LINE`].
    fn split_lines(&mut self, lines: &mut Vec<String>) -> bool {
        let mut start = 0;
        while let Some(off) = self.rbuf[self.scanned..].iter().position(|&b| b == b'\n') {
            let end = self.scanned + off;
            if end - start > MAX_LINE {
                return false;
            }
            push_line(lines, &self.rbuf[start..end]);
            start = end + 1;
            self.scanned = start;
        }
        self.rbuf.drain(..start);
        self.scanned = self.rbuf.len();
        self.rbuf.len() <= MAX_LINE
    }
}

/// Adds one request line, trimmed; blank lines are skipped.
fn push_line(lines: &mut Vec<String>, raw: &[u8]) {
    let text = String::from_utf8_lossy(raw);
    let text = text.trim();
    if !text.is_empty() {
        lines.push(text.to_string());
    }
}

pub(crate) struct EventLoop<B: Backend> {
    listener: TcpListener,
    inner: Arc<Inner<B>>,
    idle_timeout: Option<Duration>,
    conns: HashMap<ConnId, Conn>,
    next_id: ConnId,
    reported_open: u64,
    tx: mpsc::Sender<(ConnId, Response)>,
    rx: mpsc::Receiver<(ConnId, Response)>,
}

impl<B: Backend> EventLoop<B> {
    pub(crate) fn new(
        listener: TcpListener,
        inner: Arc<Inner<B>>,
        idle_timeout: Option<Duration>,
    ) -> EventLoop<B> {
        let (tx, rx) = mpsc::channel();
        EventLoop {
            listener,
            inner,
            idle_timeout,
            conns: HashMap::new(),
            next_id: 1,
            reported_open: 0,
            tx,
            rx,
        }
    }

    /// Serves until shutdown, then flushes outstanding responses.
    pub(crate) fn run(mut self) {
        let _ = self.listener.set_nonblocking(true);
        let mut sleep = MIN_SLEEP;
        loop {
            let mut activity = self.drain_responses();
            activity |= self.accept_new();
            activity |= self.pump();
            self.reap();
            if self.inner.shutdown_requested() {
                break;
            }
            if activity {
                sleep = MIN_SLEEP;
                continue;
            }
            match self.rx.recv_timeout(sleep) {
                Ok((cid, resp)) => {
                    self.deliver(cid, &resp);
                    sleep = MIN_SLEEP;
                }
                Err(mpsc::RecvTimeoutError::Timeout) => sleep = (sleep * 2).min(MAX_SLEEP),
                // Unreachable: this loop owns a sender.
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }
        self.drain_on_shutdown();
    }

    fn drain_responses(&mut self) -> bool {
        let mut any = false;
        while let Ok((cid, resp)) = self.rx.try_recv() {
            self.deliver(cid, &resp);
            any = true;
        }
        any
    }

    fn deliver(&mut self, cid: ConnId, resp: &Response) {
        // A response for a connection that went away is dropped.
        if let Some(conn) = self.conns.get_mut(&cid) {
            conn.pending = conn.pending.saturating_sub(1);
            conn.queue_response(resp);
            conn.flush_writes();
        }
    }

    fn accept_new(&mut self) -> bool {
        let mut any = false;
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let id = self.next_id;
                    self.next_id += 1;
                    self.conns.insert(id, Conn::new(stream));
                    any = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
        any
    }

    /// One pass over every connection: flush pending output, read and
    /// dispatch whatever arrived. Reports activity while any connection
    /// still has input beyond its read budget. A connection whose peer
    /// leaves [`MAX_LINE`] or more bytes of responses untaken is not read
    /// until that backlog drains.
    fn pump(&mut self) -> bool {
        let mut any = false;
        let ids: Vec<ConnId> = self.conns.keys().copied().collect();
        for id in ids {
            let Some(mut conn) = self.conns.remove(&id) else {
                continue;
            };
            any |= conn.flush_writes();
            if conn.unwritten() >= MAX_LINE {
                self.conns.insert(id, conn);
                continue;
            }
            let (lines, too_long, more) = conn.read_lines();
            any |= more;
            if lines.len() >= 2 {
                self.inner.note_batched(lines.len() as u64);
            }
            for line in &lines {
                any = true;
                match self.inner.dispatch(id, line, &self.tx) {
                    Dispatched::Reply(resp) => conn.queue_response(&resp),
                    Dispatched::Async => conn.pending += 1,
                    Dispatched::Shutdown(resp) => {
                        conn.queue_response(&resp);
                        self.inner.begin_shutdown();
                    }
                }
            }
            if too_long {
                any = true;
                let error = format!("bad request: line exceeds {MAX_LINE} bytes");
                conn.queue_response(&self.inner.error(0, error, None));
            }
            if !lines.is_empty() || too_long {
                conn.flush_writes();
            }
            self.conns.insert(id, conn);
        }
        any
    }

    /// Drops dead and fully-drained-EOF connections, sweeps idle ones,
    /// and keeps the `open_connections` gauge current.
    fn reap(&mut self) {
        let idle_timeout = self.idle_timeout;
        let mut idle_closed = 0u64;
        self.conns.retain(|_, c| {
            if c.dead {
                return false;
            }
            let quiescent = c.pending == 0 && c.unwritten() == 0 && c.rbuf.is_empty();
            if c.closing && c.pending == 0 && c.unwritten() == 0 {
                return false;
            }
            if let Some(limit) = idle_timeout {
                if quiescent && c.last_activity.elapsed() >= limit {
                    idle_closed += 1;
                    return false;
                }
            }
            true
        });
        if idle_closed > 0 {
            self.inner.note_idle_closed(idle_closed);
        }
        let open = self.conns.len() as u64;
        if open != self.reported_open {
            self.inner.set_open_connections(open);
            self.reported_open = open;
        }
    }

    /// After shutdown: run remaining pool jobs, then flush their
    /// responses out (bounded by [`SHUTDOWN_DRAIN`]).
    fn drain_on_shutdown(mut self) {
        self.inner.pool_shutdown();
        let deadline = Instant::now() + SHUTDOWN_DRAIN;
        while Instant::now() < deadline {
            self.drain_responses();
            let mut outstanding = false;
            for conn in self.conns.values_mut() {
                conn.flush_writes();
                outstanding |= !conn.dead && (conn.unwritten() > 0 || conn.pending > 0);
            }
            if !outstanding {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}
