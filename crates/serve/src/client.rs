//! A blocking client for the experiment service.
//!
//! The client speaks the newline-delimited JSON protocol of
//! [`crate::proto`]: [`Client::submit`] writes one request line,
//! [`Client::recv`] reads one response line. Because the server
//! completes jobs out of order, a pipelining caller matches responses
//! to requests by id; the convenience wrappers ([`Client::call`],
//! [`Client::call_retry`]) keep one request in flight and so never see
//! a foreign id.

use crate::json::Json;
use crate::proto::{sweep_digest, Envelope, PointResult, Request};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// One parsed response line.
#[derive(Debug, Clone)]
pub struct Response {
    /// Correlation id (echoes the request's).
    pub id: u64,
    /// Whether the request succeeded.
    pub ok: bool,
    /// Error message when `ok` is false.
    pub error: Option<String>,
    /// Backpressure hint: retry after this many milliseconds.
    pub retry_after_ms: Option<u64>,
    /// The full response object (payload fields live at top level).
    pub body: Json,
}

impl Response {
    /// Whether this is a backpressure rejection (retryable, the job was
    /// never accepted).
    pub fn is_backpressure(&self) -> bool {
        !self.ok && self.retry_after_ms.is_some()
    }

    fn from_json(body: Json) -> std::io::Result<Response> {
        let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
        let id = body
            .get("id")
            .and_then(Json::as_u64)
            .ok_or_else(|| bad("response missing id"))?;
        let ok = body
            .get("ok")
            .and_then(Json::as_bool)
            .ok_or_else(|| bad("response missing ok"))?;
        let error = body.get("error").and_then(Json::as_str).map(str::to_string);
        let retry_after_ms = body.get("retry_after_ms").and_then(Json::as_u64);
        Ok(Response {
            id,
            ok,
            error,
            retry_after_ms,
            body,
        })
    }
}

/// A connection to a running `ssim-serve` instance.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
}

impl Client {
    /// Connects to the server.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
            next_id: 1,
        })
    }

    /// Caps how long [`Client::recv`] blocks waiting for a response
    /// (`None` waits forever, the default).
    ///
    /// After a timeout the stream may still deliver the late response,
    /// so callers that enforce deadlines (the gateway's forwards) drop
    /// the connection and reconnect rather than resynchronize.
    ///
    /// # Errors
    ///
    /// Propagates socket option failures.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Sends one request without waiting for the response; returns the
    /// assigned correlation id. Use for pipelining.
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn submit(&mut self, req: &Request, deadline_ms: Option<u64>) -> std::io::Result<u64> {
        self.submit_job(req, deadline_ms, None)
    }

    /// Like [`Client::submit`], with an optional journal idempotency
    /// key: the server records the job durably before queueing it and
    /// replays the stored response if the key was already completed.
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn submit_job(
        &mut self,
        req: &Request,
        deadline_ms: Option<u64>,
        job: Option<&str>,
    ) -> std::io::Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        let env = Envelope {
            id,
            deadline_ms,
            job: job.map(str::to_string),
            req: req.clone(),
        };
        self.writer.write_all(env.render().as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        Ok(id)
    }

    /// Reads the next response line (completion order, not submission
    /// order).
    ///
    /// # Errors
    ///
    /// Fails on EOF, socket errors, or an unparseable response.
    pub fn recv(&mut self) -> std::io::Result<Response> {
        Response::from_json(self.recv_json()?)
    }

    /// Reads the next line as raw JSON — responses *and* streaming
    /// progress frames, which carry no `ok` key.
    fn recv_json(&mut self) -> std::io::Result<Json> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Json::parse(line.trim()).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("bad response line: {e}"),
            )
        })
    }

    /// One request, one response (no pipelining).
    ///
    /// # Errors
    ///
    /// Propagates transport errors; protocol-level failures come back
    /// as `ok == false` responses, not `Err`.
    pub fn call(&mut self, req: &Request, deadline_ms: Option<u64>) -> std::io::Result<Response> {
        self.call_job(req, deadline_ms, None)
    }

    /// [`Client::call`] with an optional journal idempotency key (see
    /// [`Client::submit_job`]).
    fn call_job(
        &mut self,
        req: &Request,
        deadline_ms: Option<u64>,
        job: Option<&str>,
    ) -> std::io::Result<Response> {
        let id = self.submit_job(req, deadline_ms, job)?;
        let resp = self.recv()?;
        if resp.id != id {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("response id {} for request {id}", resp.id),
            ));
        }
        Ok(resp)
    }

    /// Like [`Client::call`], but obeys backpressure: a `queue full`
    /// rejection sleeps for the server's `retry_after_ms` hint and
    /// resubmits, up to `max_retries` times.
    ///
    /// # Errors
    ///
    /// Propagates transport errors; gives the last rejection back as a
    /// plain response once retries are exhausted.
    pub fn call_retry(
        &mut self,
        req: &Request,
        deadline_ms: Option<u64>,
        max_retries: u32,
    ) -> std::io::Result<Response> {
        self.call_job_retry(req, deadline_ms, None, max_retries)
    }

    /// [`Client::call_retry`] with an optional journal idempotency key
    /// (see [`Client::submit_job`]); every resubmission carries the
    /// same key and deadline.
    ///
    /// # Errors
    ///
    /// As [`Client::call_retry`].
    pub fn call_job_retry(
        &mut self,
        req: &Request,
        deadline_ms: Option<u64>,
        job: Option<&str>,
        max_retries: u32,
    ) -> std::io::Result<Response> {
        let mut attempts = 0;
        loop {
            let resp = self.call_job(req, deadline_ms, job)?;
            if !resp.is_backpressure() || attempts >= max_retries {
                return Ok(resp);
            }
            attempts += 1;
            let hint = resp.retry_after_ms.unwrap_or(10).clamp(1, 1000);
            std::thread::sleep(Duration::from_millis(hint));
        }
    }

    /// Runs a [`Request::SweepStream`], merging the progress frames
    /// client-side into index order and verifying the merge against
    /// the final response's digest. Backpressure rejections resubmit
    /// the whole sweep (frames only start once the job is accepted, so
    /// nothing is lost); any other failure is an error.
    ///
    /// # Errors
    ///
    /// Transport errors, a non-backpressure rejection, an incomplete
    /// frame set, or a digest mismatch between the merged frames and
    /// the final response.
    pub fn sweep_stream(
        &mut self,
        req: &Request,
        deadline_ms: Option<u64>,
        max_retries: u32,
    ) -> std::io::Result<StreamedSweep> {
        let bad = |m: String| std::io::Error::new(std::io::ErrorKind::InvalidData, m);
        assert!(
            matches!(req, Request::SweepStream { .. }),
            "sweep_stream needs a SweepStream request"
        );
        let mut attempts = 0;
        'attempt: loop {
            let id = self.submit(req, deadline_ms)?;
            // Completion order is not index order (a server works the
            // points seed-major, a gateway shards them across
            // backends), so frames land in a sparse index map and are
            // sealed by the final response.
            let mut merged: std::collections::BTreeMap<usize, PointResult> =
                std::collections::BTreeMap::new();
            let mut frames = 0usize;
            loop {
                let body = self.recv_json()?;
                if body.get("frame").and_then(Json::as_str) == Some("point") {
                    if body.get("id").and_then(Json::as_u64) != Some(id) {
                        continue; // stale frame from an abandoned id
                    }
                    let index = body
                        .get("index")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| bad("frame missing index".to_string()))?
                        as usize;
                    let point = body
                        .get("point")
                        .ok_or_else(|| bad("frame missing point".to_string()))
                        .and_then(|p| PointResult::from_json(p).map_err(bad))?;
                    if merged.insert(index, point).is_some() {
                        return Err(bad(format!("duplicate frame for point {index}")));
                    }
                    frames += 1;
                    continue;
                }
                let resp = Response::from_json(body)?;
                if resp.id != id {
                    return Err(bad(format!("response id {} for request {id}", resp.id)));
                }
                if resp.is_backpressure() && attempts < max_retries {
                    attempts += 1;
                    let hint = resp.retry_after_ms.unwrap_or(10).clamp(1, 1000);
                    std::thread::sleep(Duration::from_millis(hint));
                    continue 'attempt;
                }
                if !resp.ok {
                    return Err(std::io::Error::other(
                        resp.error
                            .unwrap_or_else(|| "sweep-stream failed".to_string()),
                    ));
                }
                let expect = resp
                    .body
                    .get("results")
                    .and_then(Json::as_arr)
                    .map(<[Json]>::len)
                    .ok_or_else(|| bad("sweep response missing results".to_string()))?;
                let digest = resp
                    .body
                    .get("digest")
                    .and_then(Json::as_hex_u64)
                    .ok_or_else(|| bad("sweep response missing digest".to_string()))?;
                let mut points = Vec::with_capacity(expect);
                for i in 0..expect {
                    points.push(
                        *merged
                            .get(&i)
                            .ok_or_else(|| bad(format!("no frame for point {i}")))?,
                    );
                }
                if sweep_digest(&points) != digest {
                    return Err(bad("merged frames do not match sweep digest".to_string()));
                }
                return Ok(StreamedSweep {
                    points,
                    digest,
                    frames,
                    final_body: resp.body,
                });
            }
        }
    }
}

/// The verified outcome of a streamed sweep.
#[derive(Debug, Clone)]
pub struct StreamedSweep {
    /// Per-point results merged from the frames, in index order.
    pub points: Vec<PointResult>,
    /// The server's digest (already verified against `points`).
    pub digest: u64,
    /// Number of progress frames received.
    pub frames: usize,
    /// The final response body (carries `results`, `digest`, etc.).
    pub final_body: Json,
}
