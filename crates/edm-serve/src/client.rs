//! The blocking JSON-lines protocol client.
//!
//! One TCP connection, one request line out, one response line back. Used
//! by `edm-cli --connect`, the `fleet_load` bench, and the fleet's TCP
//! tests; the raw [`send_raw`](Client::send_raw) / [`recv`](Client::recv)
//! halves exist for tests that split or corrupt frames on purpose.

use crate::protocol::{Request, Response};
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A blocking client over one connection to an `edm-fleet` server.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to `addr` (e.g. `127.0.0.1:7000`) with Nagle disabled, so
    /// each request line leaves at once.
    ///
    /// # Errors
    ///
    /// Propagates the connect failure.
    pub fn connect(addr: &str) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Bounds how long [`recv`](Client::recv) waits for a response line
    /// (`None` waits forever, the default).
    ///
    /// # Errors
    ///
    /// Propagates the socket option failure.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Sends one request and waits for its response.
    ///
    /// # Errors
    ///
    /// As [`send_raw`](Client::send_raw) and [`recv`](Client::recv).
    pub fn exchange(&mut self, request: &Request) -> io::Result<Response> {
        let mut line = serde_json::to_string(request)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        line.push('\n');
        self.send_raw(line.as_bytes())?;
        self.recv()
    }

    /// Writes `bytes` as they are: no framing, no newline added.
    ///
    /// # Errors
    ///
    /// Propagates the write failure.
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.writer.write_all(bytes)?;
        self.writer.flush()
    }

    /// Reads and decodes the next response line.
    ///
    /// # Errors
    ///
    /// [`UnexpectedEof`](io::ErrorKind::UnexpectedEof) when the server
    /// closed the connection, [`InvalidData`](io::ErrorKind::InvalidData)
    /// when the line is not a response, or the read failure itself.
    pub fn recv(&mut self) -> io::Result<Response> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        serde_json::from_str(&line)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad response: {e}")))
    }
}
