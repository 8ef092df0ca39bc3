//! The TCP front end: one line-delimited `netan.job.v1` frame per
//! message, one connection per submitter.
//!
//! A connection is a simple request loop: the client sends a frame, the
//! server answers. A `submit` frame answers with `accepted` and then
//! streams that job's `progress`/`retry` frames as its shards merge,
//! ending in exactly one `result` or `error` frame — only then does the
//! server read the connection's next frame, so one connection carries
//! one job at a time and concurrency comes from concurrent connections
//! (each connection gets its own thread; the shard pool underneath is
//! shared and bounded). A `shutdown` frame answers `bye`, gracefully
//! shuts the whole service down ([`ScreenService::shutdown`]
//! semantics: in-flight shards drain, checkpoints persist, remaining
//! jobs fail typed), and stops the accept loop.
//!
//! Unparseable frames are answered with a `rejected` frame carrying a
//! `bad_frame` error — the connection stays open, the service keeps
//! running; no input a client can send brings the process down.
//!
//! A frame is read through a bounded reader: a line longer than
//! [`MAX_FRAME_BYTES`] (a submit frame is a few hundred bytes) is
//! answered with a `bad_frame` rejection and its connection closed, so a
//! client that never sends a newline cannot make the server buffer
//! without limit. Other connections are unaffected.
//!
//! Every served connection sets `TCP_NODELAY`: a job's `accepted`,
//! `progress` and `result` frames are separate small writes with no
//! client frame between them, so Nagle's algorithm would hold each one
//! until the client acknowledged the one before, and clients delay
//! their ACKs (by 40 ms on Linux).
//!
//! The server serves at most [`MAX_CONNECTIONS`] connections at once,
//! so clients cannot make it spawn threads without limit. A connection
//! past the limit gets no thread: it is answered with one `rejected`
//! frame of kind `too_many_connections` and closed. A slot frees when
//! its connection ends, however it ends.

use crate::job::{ClientFrame, ServerFrame, WireError};
use crate::service::{JobEvent, ScreenService, ServiceConfig};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

/// Longest frame a connection may send, in bytes, its newline excluded.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Most connections the server serves at once, each on its own thread;
/// one more is refused with a `too_many_connections` rejection. A
/// submitter holds one connection per job in flight, so this is far
/// above what a screening client needs.
pub const MAX_CONNECTIONS: usize = 64;

struct Shared {
    service: ScreenService,
    addr: SocketAddr,
    closing: AtomicBool,
    /// Connections being served.
    connections: AtomicUsize,
}

impl Shared {
    /// Flips the server into shutdown: drains the service (idempotent)
    /// and pokes the accept loop awake with a throwaway connection so
    /// it can observe the flag and exit.
    fn begin_shutdown(&self) {
        if !self.closing.swap(true, Ordering::SeqCst) {
            self.service.shutdown();
        }
        let _ = TcpStream::connect(self.addr);
    }
}

/// A running screening server: a [`ScreenService`] behind a TCP accept
/// loop. See the [module docs](self) for the connection protocol.
pub struct JobServer {
    shared: Arc<Shared>,
    accept: Mutex<Option<JoinHandle<()>>>,
}

impl JobServer {
    /// Binds `addr` (`"127.0.0.1:0"` picks a free port — read it back
    /// with [`addr`](Self::addr)) and starts the service and accept
    /// loop.
    ///
    /// # Errors
    ///
    /// The bind or local-address lookup failure, verbatim.
    pub fn start(addr: impl ToSocketAddrs, config: ServiceConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared {
            service: ScreenService::start(config),
            addr: local,
            closing: AtomicBool::new(false),
            connections: AtomicUsize::new(0),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&listener, &shared))
        };
        Ok(Self {
            shared,
            accept: Mutex::new(Some(accept)),
        })
    }

    /// The address the server actually listens on.
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Blocks until the server has shut down — either a client sent a
    /// `shutdown` frame or [`shutdown`](Self::shutdown) was called.
    pub fn wait(&self) {
        let handle = self
            .accept
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(h) = handle {
            let _ = h.join();
        }
    }

    /// Server-side graceful shutdown — the same drain-and-refuse path a
    /// client `shutdown` frame takes. Blocks until complete. Idempotent.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
        self.wait();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        if shared.closing.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.closing.load(Ordering::SeqCst) {
                    return;
                }
                match Slot::claim(shared) {
                    Some(slot) => {
                        std::thread::spawn(move || {
                            let _ = serve_connection(&slot.0, stream);
                        });
                    }
                    None => {
                        let _ = refuse(stream);
                    }
                }
            }
            Err(_) => {
                // Transient accept failures (connection reset before
                // accept, fd pressure) do not stop the server.
                if shared.closing.load(Ordering::SeqCst) {
                    return;
                }
            }
        }
    }
}

/// One of the [`MAX_CONNECTIONS`] connection slots, held by the thread
/// serving the connection and freed when it drops, however the
/// connection ends.
struct Slot(Arc<Shared>);

impl Slot {
    /// Takes a free slot, or `None` if every slot is taken.
    fn claim(shared: &Arc<Shared>) -> Option<Self> {
        shared
            .connections
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < MAX_CONNECTIONS).then_some(n + 1)
            })
            .ok()?;
        Some(Self(Arc::clone(shared)))
    }
}

impl Drop for Slot {
    fn drop(&mut self) {
        self.0.connections.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Answers a connection past [`MAX_CONNECTIONS`] with its rejection and
/// closes it.
fn refuse(mut stream: TcpStream) -> io::Result<()> {
    let limit = u64::try_from(MAX_CONNECTIONS).unwrap_or(u64::MAX);
    send(
        &mut stream,
        &ServerFrame::Rejected {
            error: WireError::TooManyConnections { limit },
        },
    )?;
    stream.shutdown(Shutdown::Write)
}

fn send(writer: &mut TcpStream, frame: &ServerFrame) -> io::Result<()> {
    let mut line = frame.render();
    line.push('\n');
    writer.write_all(line.as_bytes())?;
    writer.flush()
}

/// One frame off the wire.
enum Frame {
    /// A line, its newline removed.
    Line(String),
    /// A line longer than [`MAX_FRAME_BYTES`]; only its first
    /// `MAX_FRAME_BYTES + 1` bytes were read.
    Oversized,
}

/// Reads the next frame, never buffering more than
/// `MAX_FRAME_BYTES + 1` bytes of it: `None` at the end of the stream.
/// Like [`BufRead::lines`], a final line without a newline is a frame
/// and a line that is not UTF-8 is an [`io::ErrorKind::InvalidData`]
/// error.
fn read_frame(reader: &mut impl BufRead) -> io::Result<Option<Frame>> {
    let limit = MAX_FRAME_BYTES as u64 + 1;
    let mut bytes = Vec::new();
    if reader.take(limit).read_until(b'\n', &mut bytes)? == 0 {
        return Ok(None);
    }
    if bytes.last() == Some(&b'\n') {
        bytes.pop();
    } else if bytes.len() > MAX_FRAME_BYTES {
        return Ok(Some(Frame::Oversized));
    }
    String::from_utf8(bytes)
        .map(|line| Some(Frame::Line(line)))
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

fn serve_connection(shared: &Shared, stream: TcpStream) -> io::Result<()> {
    // Each frame goes out as written, not behind a delayed ACK (module
    // docs).
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    while let Some(frame) = read_frame(&mut reader)? {
        let line = match frame {
            Frame::Line(line) => line,
            Frame::Oversized => {
                send(
                    &mut writer,
                    &ServerFrame::Rejected {
                        error: WireError::BadFrame {
                            message: format!("frame exceeds {MAX_FRAME_BYTES} bytes"),
                        },
                    },
                )?;
                return writer.shutdown(Shutdown::Write);
            }
        };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match ClientFrame::parse(line) {
            Err(e) => send(
                &mut writer,
                &ServerFrame::Rejected {
                    error: WireError::BadFrame {
                        message: e.to_string(),
                    },
                },
            )?,
            Ok(ClientFrame::Shutdown) => {
                send(&mut writer, &ServerFrame::Bye)?;
                shared.begin_shutdown();
                return Ok(());
            }
            Ok(ClientFrame::Submit(request)) => {
                let shards = request.shard_count();
                match shared.service.submit(*request) {
                    Err(e) => send(
                        &mut writer,
                        &ServerFrame::Rejected {
                            error: WireError::from(&e),
                        },
                    )?,
                    Ok((job, events)) => {
                        send(&mut writer, &ServerFrame::Accepted { job, shards })?;
                        while let Ok(event) = events.recv() {
                            match event {
                                JobEvent::Progress {
                                    seed_start,
                                    seed_end,
                                    done,
                                    total,
                                    devices,
                                    spent,
                                    resumed,
                                } => send(
                                    &mut writer,
                                    &ServerFrame::Progress {
                                        job,
                                        seed_start,
                                        seed_end,
                                        done,
                                        total,
                                        devices,
                                        spent_s: spent.value(),
                                        resumed,
                                    },
                                )?,
                                JobEvent::Retry {
                                    seed_start,
                                    seed_end,
                                    message,
                                } => send(
                                    &mut writer,
                                    &ServerFrame::Retry {
                                        job,
                                        seed_start,
                                        seed_end,
                                        message,
                                    },
                                )?,
                                JobEvent::Done(report) => {
                                    send(&mut writer, &ServerFrame::Finished { job, report })?;
                                    break;
                                }
                                JobEvent::Failed(e) => {
                                    send(
                                        &mut writer,
                                        &ServerFrame::Error {
                                            job,
                                            error: WireError::from(&e),
                                        },
                                    )?;
                                    break;
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(())
}
