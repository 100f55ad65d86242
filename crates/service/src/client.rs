//! Client for the sweep daemon: submit a plan, iterate streamed results.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use tlabp_sim::plan::Plan;
use tlabp_sim::{JobOutcome, ResultSet};

use crate::proto::{
    decode_frame, encode_frame, parse_done_payload, parse_error_payload, parse_result_payload,
    Done, FrameKind,
};

/// A connection to a running [`SweepServer`](crate::server::SweepServer).
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

fn io_invalid(message: impl std::fmt::Display) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message.to_string())
}

impl Client {
    /// Connects to the daemon at `addr`, with Nagle's algorithm off
    /// (`TCP_NODELAY`, as the daemon sets on its side): a plan is one
    /// write, and its last partial segment must not wait for the
    /// daemon's delayed ACK.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { reader: BufReader::new(stream.try_clone()?), writer: BufWriter::new(stream) })
    }

    /// Connects, retrying until `deadline` elapses — for scripts that
    /// race a just-spawned daemon (the CI smoke test).
    ///
    /// # Errors
    ///
    /// Returns the last connection error once the deadline passes.
    pub fn connect_with_retry(addr: &str, deadline: Duration) -> std::io::Result<Client> {
        let start = Instant::now();
        loop {
            match Client::connect(addr) {
                Ok(client) => return Ok(client),
                Err(err) if start.elapsed() < deadline => {
                    let _ = err;
                    std::thread::sleep(Duration::from_millis(50));
                }
                Err(err) => return Err(err),
            }
        }
    }

    /// Submits a plan and returns the stream of its results.
    ///
    /// The returned [`ResultStream`] yields `(index, outcome)` pairs as
    /// the server streams them — strictly sequential from 0 — and must
    /// be driven to its end ([`ResultStream::finish`]) before the next
    /// submit.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn submit(&mut self, plan: &Plan) -> std::io::Result<ResultStream<'_>> {
        self.writer.write_all(encode_frame(FrameKind::Plan, &plan.to_json_string()).as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        Ok(ResultStream { reader: &mut self.reader, next_index: 0, done: None })
    }

    /// Submits a plan and drains the whole response into a
    /// [`ResultSet`] plus the terminal [`Done`] summary.
    ///
    /// # Errors
    ///
    /// Propagates transport failures, server-reported errors, and any
    /// protocol violation (out-of-order indices, wrong counts).
    pub fn execute(&mut self, plan: &Plan) -> std::io::Result<(ResultSet, Done)> {
        let mut stream = self.submit(plan)?;
        let mut outcomes = Vec::with_capacity(plan.len());
        while let Some(item) = stream.next_outcome()? {
            outcomes.push(item.1);
        }
        let done = stream.finish()?;
        if outcomes.len() != plan.len() {
            return Err(io_invalid(format!(
                "server streamed {} outcomes for a {}-job plan",
                outcomes.len(),
                plan.len()
            )));
        }
        Ok((ResultSet::from_outcomes(plan, outcomes), done))
    }

    /// Submits every plan back-to-back before reading any response, then
    /// drains the responses in submission order.
    ///
    /// This exploits the server's per-connection admission control: up
    /// to `TLABP_SERVE_INFLIGHT` of the pipelined plans execute
    /// concurrently while the rest queue FIFO, and responses always come
    /// back in submission order — one round trip for the whole batch
    /// instead of one per plan.
    ///
    /// # Errors
    ///
    /// Propagates transport failures, server-reported errors, and any
    /// protocol violation; on error the connection is left mid-stream
    /// and the client should be discarded.
    pub fn execute_pipelined(&mut self, plans: &[Plan]) -> std::io::Result<Vec<(ResultSet, Done)>> {
        for plan in plans {
            self.writer
                .write_all(encode_frame(FrameKind::Plan, &plan.to_json_string()).as_bytes())?;
            self.writer.write_all(b"\n")?;
        }
        self.writer.flush()?;
        let mut responses = Vec::with_capacity(plans.len());
        for plan in plans {
            let mut stream = ResultStream { reader: &mut self.reader, next_index: 0, done: None };
            let mut outcomes = Vec::with_capacity(plan.len());
            while let Some(item) = stream.next_outcome()? {
                outcomes.push(item.1);
            }
            let done = stream.finish()?;
            if outcomes.len() != plan.len() {
                return Err(io_invalid(format!(
                    "server streamed {} outcomes for a {}-job plan",
                    outcomes.len(),
                    plan.len()
                )));
            }
            responses.push((ResultSet::from_outcomes(plan, outcomes), done));
        }
        Ok(responses)
    }
}

/// The in-flight response to one submitted plan.
pub struct ResultStream<'c> {
    reader: &'c mut BufReader<TcpStream>,
    next_index: usize,
    done: Option<Done>,
}

impl ResultStream<'_> {
    /// Reads the next streamed outcome, or `None` once the server's
    /// `done` frame arrives.
    ///
    /// # Errors
    ///
    /// Propagates transport failures, decodes server `error` frames into
    /// `InvalidData` errors, and rejects out-of-order result indices.
    pub fn next_outcome(&mut self) -> std::io::Result<Option<(usize, JobOutcome)>> {
        if self.done.is_some() {
            return Ok(None);
        }
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io_invalid("server closed the connection mid-response"));
        }
        let (kind, payload) = decode_frame(&line).map_err(io_invalid)?;
        match kind {
            FrameKind::Result => {
                let (index, outcome) = parse_result_payload(payload).map_err(io_invalid)?;
                if index != self.next_index {
                    return Err(io_invalid(format!(
                        "result index {index} out of order (expected {})",
                        self.next_index
                    )));
                }
                self.next_index += 1;
                Ok(Some((index, outcome)))
            }
            FrameKind::Done => {
                let done = parse_done_payload(payload).map_err(io_invalid)?;
                if done.jobs != self.next_index {
                    return Err(io_invalid(format!(
                        "done frame reports {} jobs but {} results were streamed",
                        done.jobs, self.next_index
                    )));
                }
                self.done = Some(done);
                Ok(None)
            }
            FrameKind::Error => Err(io_invalid(parse_error_payload(payload))),
            FrameKind::Plan => Err(io_invalid("server sent a plan frame")),
        }
    }

    /// Drains any remaining results and returns the terminal [`Done`]
    /// summary.
    ///
    /// # Errors
    ///
    /// Propagates any error [`Self::next_outcome`] would.
    pub fn finish(mut self) -> std::io::Result<Done> {
        while self.next_outcome()?.is_some() {}
        Ok(self.done.expect("next_outcome returned None only after a done frame"))
    }
}
