//! The open-loop read generator: one sender thread and one receiver
//! thread on one connection, built on the public frame codec.
//!
//! The sender sends each read when it is due, whether or not earlier
//! reads were answered, and runs the scheduled write batches between
//! reads. `Busy` replies are recorded, never retried. Every read is timed
//! from its due time, so generator stalls and server queueing both show.

use crate::schedule::{interleave, latency_from_due, lateness, Schedule};
use server::protocol::{decode_error, decode_outcome, encode_query, DEFAULT_MAX_PAYLOAD};
use server::{read_frame, write_frame, Frame, Opcode};
use std::io::{BufReader, BufWriter};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};
use triangle::service::{Query, QueryOutcome};

/// How long the receiver waits for outstanding replies after the last
/// send before counting them as unanswered.
const GRACE: Duration = Duration::from_secs(5);

/// What the server said about one read.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// An answer.
    Answer(QueryOutcome),
    /// A typed error frame.
    Error,
    /// Backpressure.
    Busy,
    /// Any other frame or an undecodable payload.
    Unexpected,
}

impl Reply {
    /// A short name for failure tallies.
    pub fn kind(&self) -> &'static str {
        match self {
            Reply::Answer(_) => "answer",
            Reply::Error => "error",
            Reply::Busy => "busy",
            Reply::Unexpected => "unexpected",
        }
    }
}

/// One answered read.
#[derive(Debug, Clone)]
pub struct Answered {
    /// Index of the read in the schedule (request id − 1).
    pub index: usize,
    /// Engine generation stamped on the reply.
    pub generation: u64,
    /// Latency from the read's due time.
    pub latency: Duration,
    /// When the reply arrived, as an offset from the schedule start.
    pub at: Duration,
    /// The reply.
    pub reply: Reply,
}

/// What one open-loop run did.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Reads sent.
    pub sent: usize,
    /// Replies received, in arrival order.
    pub answered: Vec<Answered>,
    /// How late each send (read or write) ran against its due time.
    pub late: Vec<Duration>,
    /// When the schedule started; reply offsets count from here.
    pub start: Instant,
}

/// Runs `reads` (query `i` is `queries[i % len]`, request id `i + 1`)
/// interleaved with `writes` (the sender calls `write(j)` for batch `j`).
///
/// With `until_generation = Some(g)`, reads continue at the same rate
/// past the schedule until a reply stamped with generation `≥ g` arrives
/// or `max_extension` passes.
pub fn run(
    addr: SocketAddr,
    queries: &[Query],
    reads: Schedule,
    writes: Schedule,
    mut write: impl FnMut(usize) + Send,
    until_generation: Option<u64>,
    max_extension: Duration,
) -> std::io::Result<LoadReport> {
    assert!(!queries.is_empty(), "need at least one query");
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let recv_stream = stream.try_clone()?;
    let shutdown_handle = stream.try_clone()?;
    let sent_total = AtomicU64::new(0);
    let received = AtomicU64::new(0);
    let reached = AtomicBool::new(until_generation.is_none());
    let start = Instant::now();
    let order = interleave(&reads, &writes);

    let (send_result, answered) = std::thread::scope(|scope| {
        let receiver = scope.spawn(|| {
            let mut reader = BufReader::new(recv_stream);
            let mut out: Vec<Answered> = Vec::new();
            while let Ok(Some(frame)) = read_frame(&mut reader, DEFAULT_MAX_PAYLOAD) {
                let at = start.elapsed();
                let index = frame.header.id.saturating_sub(1) as usize;
                let reply = match frame.header.opcode {
                    Opcode::Answer => decode_outcome(&frame.payload)
                        .map(Reply::Answer)
                        .unwrap_or(Reply::Unexpected),
                    Opcode::Error => match decode_error(&frame.payload) {
                        Ok(_) => Reply::Error,
                        Err(_) => Reply::Unexpected,
                    },
                    Opcode::Busy => Reply::Busy,
                    _ => Reply::Unexpected,
                };
                if let Some(g) = until_generation {
                    if frame.header.generation >= g && matches!(reply, Reply::Answer(_)) {
                        reached.store(true, Ordering::SeqCst);
                    }
                }
                received.fetch_add(1, Ordering::SeqCst);
                out.push(Answered {
                    index,
                    generation: frame.header.generation,
                    latency: latency_from_due(reads.due(index), at),
                    at,
                    reply,
                });
            }
            out
        });

        let sender = scope.spawn(|| -> std::io::Result<(usize, Vec<Duration>)> {
            let mut writer = BufWriter::new(stream);
            let mut late = Vec::with_capacity(order.len());
            let mut sent = 0usize;
            let mut send_read = |i: usize, late: &mut Vec<Duration>| -> std::io::Result<()> {
                let due = reads.due(i);
                wait_until(start, due);
                late.push(lateness(due, start.elapsed()));
                let q = &queries[i % queries.len()];
                let frame = Frame::new(Opcode::Query, i as u64 + 1, 0, encode_query(q));
                write_frame(&mut writer, &frame)?;
                sent_total.fetch_add(1, Ordering::SeqCst);
                Ok(())
            };
            let mut w = 0usize;
            for &(due, is_write) in &order {
                if is_write {
                    wait_until(start, due);
                    late.push(lateness(due, start.elapsed()));
                    write(w);
                    w += 1;
                } else {
                    send_read(sent, &mut late)?;
                    sent += 1;
                }
            }
            let deadline = reads.span() + max_extension;
            while !reached.load(Ordering::SeqCst) && reads.due(sent) < deadline {
                send_read(sent, &mut late)?;
                sent += 1;
            }
            Ok((sent, late))
        });

        let send_result = sender.join().expect("sender thread panicked");
        // Wait for outstanding replies, then unblock the receiver.
        let grace_end = Instant::now() + GRACE;
        while received.load(Ordering::SeqCst) < sent_total.load(Ordering::SeqCst)
            && Instant::now() < grace_end
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        let _ = shutdown_handle.shutdown(Shutdown::Both);
        (
            send_result,
            receiver.join().expect("receiver thread panicked"),
        )
    });
    let (sent, late) = send_result?;
    Ok(LoadReport {
        sent,
        answered,
        late,
        start,
    })
}

/// Sleeps until `due` after `start` (returns at once when already late).
fn wait_until(start: Instant, due: Duration) {
    let now = start.elapsed();
    if due > now {
        std::thread::sleep(due - now);
    }
}
