//! A non-blocking JSON-lines client for the fleet's wire protocol.
//!
//! One thread drives every connection: requests are queued with a tag, the
//! server answers each connection's requests in order, so responses are
//! matched to tags first in, first out.

use edm_serve::protocol::{Request, Response};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One connection with its write buffer, read buffer and tags in flight.
pub struct Conn<T> {
    stream: TcpStream,
    out: Vec<u8>,
    inbuf: Vec<u8>,
    pending: VecDeque<(T, Instant)>,
}

/// How long a blocking call may wait for its answer.
const CALL_TIMEOUT: Duration = Duration::from_secs(120);

impl<T> Conn<T> {
    /// Connects to `addr` in non-blocking mode with Nagle off.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            out: Vec::new(),
            inbuf: Vec::new(),
            pending: VecDeque::new(),
        })
    }

    /// Queues `request` tagged with `tag`; returns the time it was queued.
    pub fn send(&mut self, request: &Request, tag: T) -> Instant {
        let line = serde_json::to_string(request).expect("requests serialize");
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        let now = Instant::now();
        self.pending.push_back((tag, now));
        now
    }

    /// Requests whose responses have not arrived.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Writes what the socket accepts, then reads what has arrived. Each
    /// response comes back with its tag and the time its request was
    /// queued. Returns whether any bytes moved.
    pub fn pump(&mut self, responses: &mut Vec<(T, Instant, Response)>) -> Result<bool, String> {
        let mut moved = false;
        while !self.out.is_empty() {
            match self.stream.write(&self.out) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => {
                    self.out.drain(..n);
                    moved = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("write failed: {e}")),
            }
        }
        let mut buf = [0u8; 64 * 1024];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => {
                    self.inbuf.extend_from_slice(&buf[..n]);
                    moved = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("read failed: {e}")),
            }
        }
        let mut start = 0;
        while let Some(end) = self.inbuf[start..].iter().position(|&b| b == b'\n') {
            let line = std::str::from_utf8(&self.inbuf[start..start + end])
                .map_err(|_| "response is not UTF-8".to_string())?;
            let response: Response =
                serde_json::from_str(line).map_err(|e| format!("bad response {line:?}: {e}"))?;
            let (tag, sent) = self
                .pending
                .pop_front()
                .ok_or("response without a request")?;
            responses.push((tag, sent, response));
            start += end + 1;
        }
        self.inbuf.drain(..start);
        Ok(moved)
    }
}

impl Conn<()> {
    /// Sends one request and waits for its response.
    pub fn call(&mut self, request: &Request) -> Result<Response, String> {
        assert_eq!(self.in_flight(), 0, "call needs an idle connection");
        self.send(request, ());
        let deadline = Instant::now() + CALL_TIMEOUT;
        let mut got = Vec::new();
        loop {
            if !self.pump(&mut got)? {
                if Instant::now() > deadline {
                    return Err(format!("no response to {request:?}"));
                }
                std::thread::sleep(Duration::from_micros(100));
            }
            if let Some((_, _, response)) = got.pop() {
                return Ok(response);
            }
        }
    }
}
