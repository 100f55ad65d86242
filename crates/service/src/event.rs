//! Event-driven connection core: every client served from a fixed set
//! of threads.
//!
//! The thread-per-connection loop the daemon started with costs one OS
//! thread per client — fine for a handful of interactive sessions,
//! hostile to hundreds of sweep clients. This module replaces it with a
//! readiness loop:
//!
//! * **One I/O thread** runs a level-triggered `Poller` — `epoll` on
//!   Linux, portable `poll(2)` everywhere else on unix — over the
//!   listener, a self-pipe waker, and every client socket, all
//!   nonblocking. The two syscall shims are the only unsafe code in the
//!   crate, confined to the `sys` module.
//! * **Per-connection state machines** (`Conn`) reassemble frames
//!   from arbitrarily fragmented reads
//!   ([`crate::proto::FrameAssembler`], hard-capped at
//!   `MAX_FRAME_BYTES` per frame) and stage responses through a
//!   bounded output buffer: response bytes stop being generated past
//!   `OUT_HIGH` until the socket drains, so a slow reader holds
//!   buffers, not threads.
//! * **A small executor pool** (sized off the global
//!   [`SweepPool`](tlabp_sim::SweepPool)) runs admitted plans through
//!   [`Session`](tlabp_sim::Session) streams and hands finished frames
//!   back over a bounded channel, nudging the I/O thread through the
//!   waker. The channel bound is end-to-end backpressure: a client that
//!   stops reading eventually blocks only its own plan's producer.
//! * **Admission control**: at most `inflight` plans per connection
//!   execute concurrently; further pipelined plans wait in FIFO order
//!   and are (re)checked against the memo tier at admission, so a
//!   duplicate computed meanwhile is served for free. Responses always
//!   leave in request order.
//!
//! The accept loop survives resource exhaustion: a failing `accept`
//! (EMFILE and friends) suspends the listener with exponential backoff
//! (`next_backoff`) instead of spinning hot, counts the error, and
//! resumes serving established connections meanwhile.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::mpsc::{self, Receiver, Sender, SyncSender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tlabp_sim::plan::Plan;

use crate::memo::MemoEntry;
use crate::proto::FrameAssembler;
use crate::proto::{
    decode_frame, done_payload, encode_frame, error_payload, result_payload, FrameKind,
};
use crate::server::{validate_plan, Shared};

/// Hard cap on one frame line; a client that streams bytes without a
/// newline is cut off here rather than growing the reassembly buffer
/// without bound.
pub(crate) const MAX_FRAME_BYTES: usize = 8 << 20;
/// Stop generating response bytes for a connection whose unsent output
/// exceeds this; generation resumes as the socket drains.
const OUT_HIGH: usize = 256 << 10;
/// Bound of the per-plan frame channel between an executor and the I/O
/// thread — the backpressure window of one in-flight response.
const RESPONSE_WINDOW_FRAMES: usize = 64;
/// Stop reading from a connection with this many responses pending
/// (admitted or queued); reads resume as responses complete.
const MAX_PIPELINE: usize = 1024;
/// Read syscall chunk size.
const READ_CHUNK: usize = 64 << 10;
/// First delay after a failed `accept`.
const ACCEPT_BACKOFF_MIN: Duration = Duration::from_millis(10);
/// Ceiling of the accept backoff schedule.
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_secs(1);
/// How often the daemon considers printing its one-line stats summary.
const STATS_PERIOD: Duration = Duration::from_secs(60);

const TOKEN_LISTENER: usize = 0;
const TOKEN_WAKER: usize = 1;
const TOKEN_FIRST_CONN: usize = 2;

/// The accept backoff schedule: double per consecutive failure,
/// saturating at [`ACCEPT_BACKOFF_MAX`].
fn next_backoff(current: Duration) -> Duration {
    current.saturating_mul(2).min(ACCEPT_BACKOFF_MAX)
}

// ---------------------------------------------------------------------
// Raw readiness syscalls. std exposes no readiness API and external
// crates are off the table, so `epoll`/`poll` are declared against the
// libc std already links. This module is the crate's entire unsafe
// surface; everything above it is safe Rust over `RawFd`s owned by std
// types.
#[allow(unsafe_code)]
mod sys {
    use std::ffi::{c_int, c_short, c_ulong};
    use std::io;
    use std::os::unix::io::RawFd;

    pub(super) const POLLIN: c_short = 0x001;
    pub(super) const POLLOUT: c_short = 0x004;
    pub(super) const POLLERR: c_short = 0x008;
    pub(super) const POLLHUP: c_short = 0x010;
    pub(super) const POLLNVAL: c_short = 0x020;

    /// `struct pollfd` from `poll(2)`.
    #[repr(C)]
    #[derive(Debug, Clone, Copy)]
    pub(super) struct PollFd {
        pub(super) fd: c_int,
        pub(super) events: c_short,
        pub(super) revents: c_short,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }

    /// Blocks in `poll(2)`; `timeout_ms < 0` blocks indefinitely.
    /// Returns the number of entries with nonzero `revents` (0 on
    /// timeout or EINTR).
    pub(super) fn poll_fds(fds: &mut [PollFd], timeout_ms: c_int) -> io::Result<usize> {
        // SAFETY: `fds` is a valid, exclusively borrowed slice of
        // `#[repr(C)]` pollfd values for the duration of the call, and
        // `nfds` is its exact length.
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) };
        if rc < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        Ok(rc as usize)
    }

    #[cfg(target_os = "linux")]
    pub(super) mod epoll {
        use super::{c_int, io, RawFd};

        pub(crate) const EPOLLIN: u32 = 0x001;
        pub(crate) const EPOLLOUT: u32 = 0x004;
        pub(crate) const EPOLLERR: u32 = 0x008;
        pub(crate) const EPOLLHUP: u32 = 0x010;
        const EPOLL_CTL_ADD: c_int = 1;
        const EPOLL_CTL_DEL: c_int = 2;
        const EPOLL_CTL_MOD: c_int = 3;
        const EPOLL_CLOEXEC: c_int = 0o200_0000;

        /// `struct epoll_event`; packed on x86-64, where the kernel ABI
        /// leaves the u64 payload unaligned.
        #[derive(Debug, Clone, Copy)]
        #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
        #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
        pub(crate) struct Event {
            pub(crate) events: u32,
            pub(crate) data: u64,
        }

        extern "C" {
            fn epoll_create1(flags: c_int) -> c_int;
            fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut Event) -> c_int;
            fn epoll_wait(
                epfd: c_int,
                events: *mut Event,
                maxevents: c_int,
                timeout: c_int,
            ) -> c_int;
            fn close(fd: c_int) -> c_int;
        }

        /// An owned epoll instance; the fd is closed on drop.
        #[derive(Debug)]
        pub(crate) struct Epoll {
            epfd: RawFd,
        }

        impl Epoll {
            pub(crate) fn new() -> io::Result<Epoll> {
                // SAFETY: epoll_create1 takes no pointers.
                let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
                if epfd < 0 {
                    return Err(io::Error::last_os_error());
                }
                Ok(Epoll { epfd })
            }

            fn ctl(&self, op: c_int, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
                let mut event = Event { events, data };
                // SAFETY: `event` outlives the call (the kernel copies
                // it) and is ignored for EPOLL_CTL_DEL.
                let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut event) };
                if rc < 0 {
                    return Err(io::Error::last_os_error());
                }
                Ok(())
            }

            pub(crate) fn add(&self, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
                self.ctl(EPOLL_CTL_ADD, fd, events, data)
            }

            pub(crate) fn modify(&self, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
                self.ctl(EPOLL_CTL_MOD, fd, events, data)
            }

            pub(crate) fn del(&self, fd: RawFd) -> io::Result<()> {
                self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
            }

            /// Waits for readiness; `timeout_ms < 0` blocks. Returns how
            /// many entries of `buf` were filled (0 on timeout or EINTR).
            pub(crate) fn wait(&self, buf: &mut [Event], timeout_ms: c_int) -> io::Result<usize> {
                // SAFETY: `buf` is a valid exclusively borrowed slice;
                // maxevents is its exact length (nonzero by the caller).
                let rc = unsafe {
                    epoll_wait(self.epfd, buf.as_mut_ptr(), buf.len() as c_int, timeout_ms)
                };
                if rc < 0 {
                    let err = io::Error::last_os_error();
                    if err.kind() == io::ErrorKind::Interrupted {
                        return Ok(0);
                    }
                    return Err(err);
                }
                Ok(rc as usize)
            }
        }

        impl Drop for Epoll {
            fn drop(&mut self) {
                // SAFETY: `epfd` is owned by this instance and closed
                // exactly once.
                unsafe {
                    close(self.epfd);
                }
            }
        }
    }
}

/// Which readiness mechanism a [`Poller`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PollerBackend {
    /// Linux `epoll` — O(ready) wakeups.
    Epoll,
    /// Portable `poll(2)` — O(registered) per wait, fine for hundreds
    /// of fds, available on every unix.
    Poll,
}

/// One readiness report from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Readiness {
    pub(crate) token: usize,
    pub(crate) readable: bool,
    pub(crate) writable: bool,
    /// Error or hangup; the owner should attempt I/O and observe the
    /// failure there.
    pub(crate) error: bool,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    fd: RawFd,
    token: usize,
    read: bool,
    write: bool,
}

#[derive(Debug)]
enum PollerImp {
    #[cfg(target_os = "linux")]
    Epoll {
        epoll: sys::epoll::Epoll,
        buf: Vec<sys::epoll::Event>,
        registered: usize,
    },
    Poll {
        interest: Vec<Slot>,
        fds: Vec<sys::PollFd>,
    },
}

/// Level-triggered readiness over raw fds, keyed by caller tokens.
#[derive(Debug)]
pub(crate) struct Poller {
    imp: PollerImp,
}

impl Poller {
    /// Opens a poller. Asking for [`PollerBackend::Epoll`] off Linux
    /// (or when `epoll_create1` fails) falls back to `poll` with a
    /// warning rather than erroring: the two are behaviorally
    /// interchangeable here.
    pub(crate) fn new(backend: PollerBackend) -> Poller {
        #[cfg(target_os = "linux")]
        if backend == PollerBackend::Epoll {
            match sys::epoll::Epoll::new() {
                Ok(epoll) => {
                    return Poller {
                        imp: PollerImp::Epoll { epoll, buf: Vec::new(), registered: 0 },
                    }
                }
                Err(err) => {
                    eprintln!("tlabp-serve: epoll unavailable ({err}); falling back to poll");
                }
            }
        }
        #[cfg(not(target_os = "linux"))]
        if backend == PollerBackend::Epoll {
            eprintln!("tlabp-serve: epoll is Linux-only; falling back to poll");
        }
        Poller { imp: PollerImp::Poll { interest: Vec::new(), fds: Vec::new() } }
    }

    /// The backend actually in use (after any fallback).
    pub(crate) fn backend(&self) -> PollerBackend {
        match self.imp {
            #[cfg(target_os = "linux")]
            PollerImp::Epoll { .. } => PollerBackend::Epoll,
            PollerImp::Poll { .. } => PollerBackend::Poll,
        }
    }

    fn backend_name(&self) -> &'static str {
        match self.backend() {
            PollerBackend::Epoll => "epoll",
            PollerBackend::Poll => "poll",
        }
    }

    pub(crate) fn register(
        &mut self,
        fd: RawFd,
        token: usize,
        read: bool,
        write: bool,
    ) -> std::io::Result<()> {
        match &mut self.imp {
            #[cfg(target_os = "linux")]
            PollerImp::Epoll { epoll, registered, .. } => {
                epoll.add(fd, epoll_mask(read, write), token as u64)?;
                *registered += 1;
                Ok(())
            }
            PollerImp::Poll { interest, .. } => {
                interest.retain(|slot| slot.fd != fd);
                interest.push(Slot { fd, token, read, write });
                Ok(())
            }
        }
    }

    pub(crate) fn reregister(
        &mut self,
        fd: RawFd,
        token: usize,
        read: bool,
        write: bool,
    ) -> std::io::Result<()> {
        match &mut self.imp {
            #[cfg(target_os = "linux")]
            PollerImp::Epoll { epoll, .. } => {
                epoll.modify(fd, epoll_mask(read, write), token as u64)
            }
            PollerImp::Poll { interest, .. } => {
                for slot in interest.iter_mut() {
                    if slot.fd == fd {
                        slot.token = token;
                        slot.read = read;
                        slot.write = write;
                        return Ok(());
                    }
                }
                interest.push(Slot { fd, token, read, write });
                Ok(())
            }
        }
    }

    pub(crate) fn deregister(&mut self, fd: RawFd) -> std::io::Result<()> {
        match &mut self.imp {
            #[cfg(target_os = "linux")]
            PollerImp::Epoll { epoll, registered, .. } => {
                *registered = registered.saturating_sub(1);
                epoll.del(fd)
            }
            PollerImp::Poll { interest, .. } => {
                interest.retain(|slot| slot.fd != fd);
                Ok(())
            }
        }
    }

    /// Waits for readiness, clearing and filling `out`. `None` blocks
    /// indefinitely. EINTR and timeouts return an empty `out`.
    pub(crate) fn wait(
        &mut self,
        out: &mut Vec<Readiness>,
        timeout: Option<Duration>,
    ) -> std::io::Result<()> {
        out.clear();
        let timeout_ms =
            timeout.map_or(-1i32, |d| i32::try_from(d.as_millis()).unwrap_or(i32::MAX));
        match &mut self.imp {
            #[cfg(target_os = "linux")]
            PollerImp::Epoll { epoll, buf, registered } => {
                buf.resize((*registered).max(16), sys::epoll::Event { events: 0, data: 0 });
                let n = epoll.wait(buf, timeout_ms)?;
                for ev in &buf[..n] {
                    let events = ev.events;
                    let data = ev.data;
                    out.push(Readiness {
                        token: data as usize,
                        readable: events & sys::epoll::EPOLLIN != 0,
                        writable: events & sys::epoll::EPOLLOUT != 0,
                        error: events & (sys::epoll::EPOLLERR | sys::epoll::EPOLLHUP) != 0,
                    });
                }
                Ok(())
            }
            PollerImp::Poll { interest, fds } => {
                fds.clear();
                fds.extend(interest.iter().map(|slot| sys::PollFd {
                    fd: slot.fd,
                    events: if slot.read { sys::POLLIN } else { 0 }
                        | if slot.write { sys::POLLOUT } else { 0 },
                    revents: 0,
                }));
                let n = sys::poll_fds(fds, timeout_ms)?;
                if n > 0 {
                    for (slot, fd) in interest.iter().zip(fds.iter()) {
                        if fd.revents != 0 {
                            out.push(Readiness {
                                token: slot.token,
                                readable: fd.revents & sys::POLLIN != 0,
                                writable: fd.revents & sys::POLLOUT != 0,
                                error: fd.revents & (sys::POLLERR | sys::POLLHUP | sys::POLLNVAL)
                                    != 0,
                            });
                        }
                    }
                }
                Ok(())
            }
        }
    }
}

#[cfg(target_os = "linux")]
fn epoll_mask(read: bool, write: bool) -> u32 {
    (if read { sys::epoll::EPOLLIN } else { 0 }) | (if write { sys::epoll::EPOLLOUT } else { 0 })
}

/// The I/O thread's end of the self-pipe: a nonblocking socketpair
/// registered under [`TOKEN_WAKER`].
#[derive(Debug)]
struct Waker {
    rx: UnixStream,
    tx: Arc<UnixStream>,
}

impl Waker {
    fn new() -> std::io::Result<Waker> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Waker { rx, tx: Arc::new(tx) })
    }

    fn handle(&self) -> WakeHandle {
        WakeHandle { tx: Arc::clone(&self.tx) }
    }

    fn fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }

    /// Swallows all pending wake bytes (many wakes coalesce into one
    /// loop iteration).
    fn drain(&mut self) {
        let mut buf = [0u8; 256];
        while matches!((&self.rx).read(&mut buf), Ok(n) if n > 0) {}
    }
}

/// Executor-side handle: nudges the I/O thread out of its wait.
#[derive(Debug, Clone)]
struct WakeHandle {
    tx: Arc<UnixStream>,
}

impl WakeHandle {
    fn wake(&self) {
        // A full pipe already guarantees a pending wakeup; errors are
        // deliberately ignored.
        let _ = (&*self.tx).write(&[1]);
    }
}

/// One admitted plan handed to the executor pool.
struct ExecJob {
    key: String,
    plan: Plan,
    reply: SyncSender<OutEvent>,
}

/// What an executor streams back to the I/O thread.
enum OutEvent {
    /// One pre-encoded `result` frame payload, in plan order.
    Frame(String),
    /// The response is complete.
    Done { jobs: usize, memo: bool },
}

/// Executor thread body: pull admitted plans, stream frames back.
/// Exits when the I/O thread (the only job sender) goes away.
fn exec_worker(shared: &Shared, jobs: &Mutex<Receiver<ExecJob>>, waker: &WakeHandle) {
    loop {
        let job = match jobs.lock() {
            Ok(rx) => rx.recv(),
            Err(_) => return,
        };
        let Ok(job) = job else { return };
        // Recheck the memo tier: an identical plan may have completed
        // while this one waited in the executor queue.
        if let Some(entry) = shared.memo_get(&job.key) {
            shared.stats.memo_hit();
            let total = entry.len();
            let replayed =
                entry.iter().all(|frame| job.reply.send(OutEvent::Frame(frame.clone())).is_ok());
            if replayed {
                let _ = job.reply.send(OutEvent::Done { jobs: total, memo: true });
            }
            waker.wake();
            continue;
        }
        let session = shared.session();
        let mut payloads = Vec::with_capacity(job.plan.len());
        let complete = session.submit(&job.plan).drain_while(|item| {
            let payload = result_payload(item.index, &item.outcome);
            // A send failure means the connection is gone; abandoning
            // the stream mid-plan is safe (remaining jobs are dropped).
            let sent = job.reply.send(OutEvent::Frame(payload.clone())).is_ok();
            waker.wake();
            payloads.push(payload);
            sent
        });
        if complete {
            let total = payloads.len();
            shared.memo_store(&job.key, &job.plan, payloads);
            let _ = job.reply.send(OutEvent::Done { jobs: total, memo: false });
            waker.wake();
        }
    }
}

/// One response owed to a client, in request order.
enum Resp {
    /// Parsed and validated, waiting for an admission slot.
    Queued { key: String, plan: Box<Plan> },
    /// Executing; frames arrive over the bounded channel.
    Live { rx: Receiver<OutEvent> },
    /// A memo hit replaying pre-encoded frames.
    Memo { entry: MemoEntry, next: usize },
    /// An `error` frame; `fatal` closes the connection after it flushes.
    Fail { message: String, fatal: bool },
}

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    peer: String,
    assembler: FrameAssembler,
    /// Staged output bytes; `out[out_pos..]` is unsent.
    out: Vec<u8>,
    out_pos: usize,
    /// Responses owed, FIFO.
    responses: VecDeque<Resp>,
    /// How many of `responses` are currently `Live`.
    live: usize,
    read_closed: bool,
    /// A fatal error frame has been staged; close once flushed.
    closing: bool,
    want_read: bool,
    want_write: bool,
}

impl Conn {
    fn new(stream: TcpStream, peer: String) -> Conn {
        Conn {
            stream,
            peer,
            assembler: FrameAssembler::new(MAX_FRAME_BYTES),
            out: Vec::new(),
            out_pos: 0,
            responses: VecDeque::new(),
            live: 0,
            read_closed: false,
            closing: false,
            want_read: true,
            want_write: false,
        }
    }

    fn unsent(&self) -> usize {
        self.out.len() - self.out_pos
    }
}

fn append_frame(out: &mut Vec<u8>, kind: FrameKind, payload: &str) {
    out.extend_from_slice(encode_frame(kind, payload).as_bytes());
    out.push(b'\n');
}

/// Drains the socket until `WouldBlock`/EOF, reassembling and handling
/// every completed frame. Returns `false` when the connection died.
fn handle_readable(
    conn: &mut Conn,
    shared: &Shared,
    job_tx: &Sender<ExecJob>,
    inflight: usize,
) -> bool {
    let mut buf = [0u8; READ_CHUNK];
    loop {
        if conn.read_closed || conn.responses.len() >= MAX_PIPELINE {
            return true;
        }
        match conn.stream.read(&mut buf) {
            Ok(0) => {
                conn.read_closed = true;
                return true;
            }
            Ok(n) => match conn.assembler.push(&buf[..n]) {
                Ok(lines) => {
                    for line in lines {
                        if line.is_empty() {
                            continue;
                        }
                        handle_frame(conn, &line, shared, job_tx, inflight);
                        if conn.read_closed {
                            return true;
                        }
                    }
                }
                Err(err) => {
                    // Framing is no longer trustworthy: answer with one
                    // error frame, then close after it flushes.
                    eprintln!("tlabp-serve: connection {}: {err}", conn.peer);
                    conn.responses.push_back(Resp::Fail { message: err.to_string(), fatal: true });
                    conn.read_closed = true;
                    return true;
                }
            },
            Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => return true,
            Err(err) if err.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
}

/// Handles one complete frame line from a client.
fn handle_frame(
    conn: &mut Conn,
    line: &str,
    shared: &Shared,
    job_tx: &Sender<ExecJob>,
    inflight: usize,
) {
    match decode_frame(line) {
        Ok((FrameKind::Plan, payload)) => submit_plan(conn, payload, shared, job_tx, inflight),
        Ok((kind, _)) => {
            conn.responses.push_back(Resp::Fail {
                message: format!("expected a plan frame, got {kind}"),
                fatal: false,
            });
        }
        Err(err) => {
            eprintln!("tlabp-serve: connection {}: {err}", conn.peer);
            conn.responses.push_back(Resp::Fail { message: err.to_string(), fatal: true });
            conn.read_closed = true;
        }
    }
}

/// Queues one plan request: memo fast path, then parse/validate, then
/// admission.
fn submit_plan(
    conn: &mut Conn,
    payload: &str,
    shared: &Shared,
    job_tx: &Sender<ExecJob>,
    inflight: usize,
) {
    shared.stats.plan();
    // Fast path: conforming clients send the canonical plan JSON, which
    // is exactly the memo key — a hit costs one map probe and zero
    // parsing.
    if let Some(entry) = shared.memo_get(payload) {
        shared.stats.memo_hit();
        conn.responses.push_back(Resp::Memo { entry, next: 0 });
        return;
    }
    let plan = match Plan::from_json_str(payload) {
        Ok(plan) => plan,
        Err(err) => {
            conn.responses.push_back(Resp::Fail { message: err.to_string(), fatal: false });
            return;
        }
    };
    if let Err(message) = validate_plan(&plan) {
        conn.responses.push_back(Resp::Fail { message, fatal: false });
        return;
    }
    let key = plan.to_json_string();
    if key != payload {
        // Non-canonical encoding of a known plan: still a hit.
        if let Some(entry) = shared.memo_get(&key) {
            shared.stats.memo_hit();
            conn.responses.push_back(Resp::Memo { entry, next: 0 });
            return;
        }
    }
    conn.responses.push_back(Resp::Queued { key, plan: Box::new(plan) });
    admit(conn, shared, job_tx, inflight);
}

/// Converts queued plans to live executions, FIFO, up to the
/// per-connection in-flight cap. Plans memoized since they queued are
/// converted to free memo replays instead (and don't consume a slot).
fn admit(conn: &mut Conn, shared: &Shared, job_tx: &Sender<ExecJob>, inflight: usize) {
    for resp in conn.responses.iter_mut() {
        if conn.live >= inflight {
            return;
        }
        if let Resp::Queued { key, plan } = resp {
            if let Some(entry) = shared.memo_get(key) {
                shared.stats.memo_hit();
                *resp = Resp::Memo { entry, next: 0 };
                continue;
            }
            let (tx, rx) = mpsc::sync_channel(RESPONSE_WINDOW_FRAMES);
            let job = ExecJob {
                key: std::mem::take(key),
                plan: *std::mem::replace(plan, Box::new(Plan::new())),
                reply: tx,
            };
            if job_tx.send(job).is_ok() {
                *resp = Resp::Live { rx };
                conn.live += 1;
            } else {
                *resp =
                    Resp::Fail { message: "execution workers unavailable".to_owned(), fatal: true };
            }
        }
    }
}

/// Moves completed response data into the output buffer (bounded by
/// [`OUT_HIGH`]) and re-admits queued plans as slots free up. Responses
/// leave strictly in request order.
fn pump(conn: &mut Conn, shared: &Shared, job_tx: &Sender<ExecJob>, inflight: usize) {
    loop {
        let before = (conn.out.len(), conn.responses.len(), conn.live);
        fill_out(conn);
        admit(conn, shared, job_tx, inflight);
        if (conn.out.len(), conn.responses.len(), conn.live) == before {
            return;
        }
    }
}

fn fill_out(conn: &mut Conn) {
    let Conn { out, out_pos, responses, live, closing, .. } = conn;
    while !*closing && out.len() - *out_pos < OUT_HIGH {
        let Some(front) = responses.front_mut() else { break };
        let pop = match front {
            Resp::Queued { .. } => break,
            Resp::Memo { entry, next } => {
                if *next < entry.len() {
                    append_frame(out, FrameKind::Result, &entry[*next]);
                    *next += 1;
                    false
                } else {
                    append_frame(out, FrameKind::Done, &done_payload(entry.len(), true));
                    true
                }
            }
            Resp::Live { rx } => match rx.try_recv() {
                Ok(OutEvent::Frame(payload)) => {
                    append_frame(out, FrameKind::Result, &payload);
                    false
                }
                Ok(OutEvent::Done { jobs, memo }) => {
                    append_frame(out, FrameKind::Done, &done_payload(jobs, memo));
                    *live -= 1;
                    true
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    // The executor died mid-plan (it never disconnects
                    // before `Done` otherwise): report and close.
                    append_frame(
                        out,
                        FrameKind::Error,
                        &error_payload("execution aborted on the server"),
                    );
                    *live -= 1;
                    *closing = true;
                    true
                }
            },
            Resp::Fail { message, fatal } => {
                append_frame(out, FrameKind::Error, &error_payload(message));
                if *fatal {
                    *closing = true;
                }
                true
            }
        };
        if pop {
            responses.pop_front();
        }
    }
}

/// Writes as much staged output as the socket accepts. Returns `false`
/// when the connection died.
fn write_out(conn: &mut Conn) -> bool {
    loop {
        if conn.out_pos >= conn.out.len() {
            conn.out.clear();
            conn.out_pos = 0;
            return true;
        }
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => return false,
            Ok(n) => conn.out_pos += n,
            Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => {
                // Reclaim the sent prefix so the buffer stays bounded by
                // unsent bytes, not lifetime traffic.
                if conn.out_pos > 0 {
                    conn.out.drain(..conn.out_pos);
                    conn.out_pos = 0;
                }
                return true;
            }
            Err(err) if err.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
}

fn should_close(conn: &Conn) -> bool {
    let flushed = conn.unsent() == 0;
    flushed && (conn.closing || (conn.read_closed && conn.responses.is_empty()))
}

fn update_interest(conn: &mut Conn, poller: &mut Poller, token: usize) -> std::io::Result<()> {
    let want_read = !conn.read_closed && !conn.closing && conn.responses.len() < MAX_PIPELINE;
    let want_write = conn.unsent() > 0;
    if want_read != conn.want_read || want_write != conn.want_write {
        conn.want_read = want_read;
        conn.want_write = want_write;
        poller.reregister(conn.stream.as_raw_fd(), token, want_read, want_write)?;
    }
    Ok(())
}

/// Event-core knobs resolved by the server from its [`ServeConfig`]
/// (see [`crate::server::ServeConfig`]).
pub(crate) struct EventConfig {
    pub(crate) backend: PollerBackend,
    /// Per-connection concurrent-plan cap (`TLABP_SERVE_INFLIGHT`).
    pub(crate) inflight: usize,
    /// Executor pool size.
    pub(crate) exec_threads: usize,
}

/// Runs the event-driven accept-and-serve loop forever. The fixed
/// thread budget is `1` (this I/O thread) `+ exec_threads`, independent
/// of the number of connections.
pub(crate) fn run(listener: &TcpListener, shared: &Arc<Shared>, config: &EventConfig) -> ! {
    listener.set_nonblocking(true).expect("nonblocking listener");
    let mut poller = Poller::new(config.backend);
    let mut waker = Waker::new().expect("waker socketpair");

    let (job_tx, job_rx) = mpsc::channel::<ExecJob>();
    let job_rx = Arc::new(Mutex::new(job_rx));
    for n in 0..config.exec_threads.max(1) {
        let shared = Arc::clone(shared);
        let job_rx = Arc::clone(&job_rx);
        let handle = waker.handle();
        std::thread::Builder::new()
            .name(format!("tlabp-exec-{n}"))
            .spawn(move || exec_worker(&shared, &job_rx, &handle))
            .expect("spawn executor thread");
    }

    poller.register(listener.as_raw_fd(), TOKEN_LISTENER, true, false).expect("register listener");
    poller.register(waker.fd(), TOKEN_WAKER, true, false).expect("register waker");

    let mut conns: HashMap<usize, Conn> = HashMap::new();
    let mut next_token = TOKEN_FIRST_CONN;
    let mut backoff = ACCEPT_BACKOFF_MIN;
    let mut accept_resume: Option<Instant> = None;
    let mut events: Vec<Readiness> = Vec::new();
    let mut dead: Vec<usize> = Vec::new();
    let mut last_stats = Instant::now();
    let mut last_stats_line = String::new();

    loop {
        let timeout = accept_resume.map(|at| at.saturating_duration_since(Instant::now()));
        if let Err(err) = poller.wait(&mut events, timeout) {
            eprintln!("tlabp-serve: poller wait failed: {err}");
            std::thread::sleep(Duration::from_millis(50));
            continue;
        }

        let mut accept_ready = false;
        for ev in &events {
            match ev.token {
                TOKEN_LISTENER => accept_ready = true,
                TOKEN_WAKER => waker.drain(),
                token => {
                    if let Some(conn) = conns.get_mut(&token) {
                        if (ev.readable || ev.error)
                            && !handle_readable(conn, shared, &job_tx, config.inflight)
                        {
                            dead.push(token);
                        }
                        let _ = ev.writable; // flushed in the pump pass below
                    }
                }
            }
        }

        // Resume a backed-off listener once its deadline passes.
        if accept_resume.is_some_and(|at| Instant::now() >= at) {
            accept_resume = None;
            if poller.register(listener.as_raw_fd(), TOKEN_LISTENER, true, false).is_ok() {
                accept_ready = true;
            } else {
                accept_resume = Some(Instant::now() + backoff);
            }
        }

        if accept_ready && accept_resume.is_none() {
            loop {
                match listener.accept() {
                    Ok((stream, peer)) => {
                        backoff = ACCEPT_BACKOFF_MIN;
                        shared.stats.accept();
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        let _ = stream.set_nodelay(true);
                        let token = next_token;
                        next_token += 1;
                        if poller.register(stream.as_raw_fd(), token, true, false).is_ok() {
                            conns.insert(token, Conn::new(stream, peer.to_string()));
                        }
                    }
                    Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(err) if err.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(err) => {
                        // EMFILE and friends: back off instead of
                        // spinning hot, keep serving existing clients.
                        shared.stats.accept_error();
                        eprintln!(
                            "tlabp-serve: accept failed: {err}; pausing accepts for {backoff:?}"
                        );
                        let _ = poller.deregister(listener.as_raw_fd());
                        accept_resume = Some(Instant::now() + backoff);
                        backoff = next_backoff(backoff);
                        break;
                    }
                }
            }
        }

        // Pump every connection: completed frames may belong to any of
        // them (the waker doesn't say which), and flushing below
        // OUT_HIGH may unblock more generation.
        for (&token, conn) in &mut conns {
            pump(conn, shared, &job_tx, config.inflight);
            if !write_out(conn) {
                dead.push(token);
                continue;
            }
            pump(conn, shared, &job_tx, config.inflight);
            if !write_out(conn) || should_close(conn) {
                dead.push(token);
                continue;
            }
            if update_interest(conn, &mut poller, token).is_err() {
                dead.push(token);
            }
        }
        for token in dead.drain(..) {
            if let Some(conn) = conns.remove(&token) {
                let _ = poller.deregister(conn.stream.as_raw_fd());
                drop(conn); // dropping the stream closes the socket and
                            // unblocks any executor mid-plan
            }
        }

        if last_stats.elapsed() >= STATS_PERIOD {
            last_stats = Instant::now();
            let line = shared.stats_line(conns.len(), poller.backend_name());
            if line != last_stats_line {
                eprintln!("tlabp-serve: {line}");
                last_stats_line = line;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_saturates() {
        let mut delay = ACCEPT_BACKOFF_MIN;
        let mut schedule = Vec::new();
        for _ in 0..10 {
            schedule.push(delay.as_millis());
            delay = next_backoff(delay);
        }
        assert_eq!(schedule[..8], [10, 20, 40, 80, 160, 320, 640, 1000]);
        assert_eq!(delay, ACCEPT_BACKOFF_MAX, "the schedule saturates at the max");
    }

    fn backends() -> Vec<PollerBackend> {
        let mut backends = vec![PollerBackend::Poll];
        if cfg!(target_os = "linux") {
            backends.push(PollerBackend::Epoll);
        }
        backends
    }

    #[test]
    fn poller_reports_listener_and_connection_readiness() {
        for backend in backends() {
            let mut poller = Poller::new(backend);
            assert_eq!(poller.backend(), backend, "no fallback expected on this host");
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            listener.set_nonblocking(true).expect("nonblocking");
            poller.register(listener.as_raw_fd(), 7, true, false).expect("register");

            let mut events = Vec::new();
            poller.wait(&mut events, Some(Duration::from_millis(10))).expect("wait");
            assert!(events.is_empty(), "{backend:?}: nothing is ready before a client connects");

            let client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
            poller.wait(&mut events, Some(Duration::from_secs(5))).expect("wait");
            assert!(
                events.iter().any(|ev| ev.token == 7 && ev.readable),
                "{backend:?}: pending accept must report the listener readable"
            );

            // A connected socket with write interest is writable at once.
            client.set_nonblocking(true).expect("nonblocking client");
            poller.register(client.as_raw_fd(), 9, false, true).expect("register client");
            poller.wait(&mut events, Some(Duration::from_secs(5))).expect("wait");
            assert!(
                events.iter().any(|ev| ev.token == 9 && ev.writable),
                "{backend:?}: an idle connected socket must be writable"
            );
            poller.deregister(client.as_raw_fd()).expect("deregister");
            poller.deregister(listener.as_raw_fd()).expect("deregister listener");
        }
    }

    #[test]
    fn waker_unblocks_a_waiting_poller() {
        for backend in backends() {
            let mut poller = Poller::new(backend);
            let mut waker = Waker::new().expect("waker");
            poller.register(waker.fd(), TOKEN_WAKER, true, false).expect("register");
            let handle = waker.handle();
            let waking = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                handle.wake();
            });
            let mut events = Vec::new();
            let start = Instant::now();
            poller.wait(&mut events, Some(Duration::from_secs(10))).expect("wait");
            assert!(
                events.iter().any(|ev| ev.token == TOKEN_WAKER && ev.readable),
                "{backend:?}: the wake byte must surface as waker readability"
            );
            assert!(start.elapsed() < Duration::from_secs(5), "woken, not timed out");
            waker.drain();
            // Coalesced wakes drain to quiescence: the next wait times out.
            poller.wait(&mut events, Some(Duration::from_millis(10))).expect("wait");
            assert!(events.is_empty(), "{backend:?}: drained waker is quiet");
            waking.join().expect("waker thread");
        }
    }
}
