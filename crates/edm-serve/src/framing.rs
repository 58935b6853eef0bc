//! Incremental newline-delimited framing for the JSON-lines protocol.
//!
//! Both `edm-fleet` transports — stdin under `--stdio` and the TCP layer —
//! receive requests as newline-terminated JSON objects, but neither may
//! assume a read() returns whole lines: a request split across TCP
//! segments (or pipe writes) arrives in fragments, and a hostile or buggy
//! client can send a frame with no newline at all. [`LineFramer`] absorbs
//! arbitrary byte chunks and yields complete frames, converting the two
//! protocol-level failure modes into typed frames the caller answers with
//! a reject-with-reason response instead of dropping the connection:
//!
//! - [`Frame::Oversized`] — no newline within the configured bound; the
//!   framer discards input until the next newline and then resynchronizes,
//! - [`Frame::InvalidUtf8`] — the line is not UTF-8 (JSON must be).
//!
//! Malformed *JSON* on a well-formed line is not the framer's business —
//! the caller's parse error produces the reject reason.

use std::collections::VecDeque;

/// Default cap on one frame's length in bytes (1 MiB) — far above any
/// legitimate QASM submission, far below what an unterminated stream
/// could otherwise buffer.
pub const DEFAULT_MAX_FRAME: usize = 1 << 20;

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// A complete line (newline stripped, `\r\n` tolerated). May be empty
    /// or all-whitespace; callers typically skip those.
    Line(String),
    /// The line exceeded the frame bound before a newline arrived. The
    /// framer has entered discard mode and will resynchronize at the next
    /// newline; respond with a reject-and-reason, not a hangup.
    Oversized {
        /// Bytes seen so far for the frame when the bound tripped.
        length: usize,
    },
    /// A complete line that is not valid UTF-8.
    InvalidUtf8,
}

/// An incremental line decoder: feed byte chunks in, pull frames out.
///
/// ```
/// use edm_serve::framing::{Frame, LineFramer};
/// let mut framer = LineFramer::new(64);
/// framer.feed(b"{\"Poll\":");      // partial read…
/// assert_eq!(framer.next_frame(), None);
/// framer.feed(b"{\"id\":1}}\n");   // …completed by the next segment
/// assert_eq!(
///     framer.next_frame(),
///     Some(Frame::Line("{\"Poll\":{\"id\":1}}".into()))
/// );
/// ```
#[derive(Debug)]
pub struct LineFramer {
    buf: Vec<u8>,
    ready: VecDeque<Frame>,
    max_frame: usize,
    /// True while skipping the remainder of an oversized frame.
    discarding: bool,
}

impl LineFramer {
    /// Creates a framer bounding each frame to `max_frame` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `max_frame == 0`.
    pub fn new(max_frame: usize) -> Self {
        assert!(max_frame > 0, "frame bound must be positive");
        LineFramer {
            buf: Vec::new(),
            ready: VecDeque::new(),
            max_frame,
            discarding: false,
        }
    }

    /// Absorbs one read's worth of bytes. Complete frames become available
    /// through [`LineFramer::next_frame`].
    pub fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            if b == b'\n' {
                if self.discarding {
                    // The tail of an oversized frame; the Oversized frame
                    // was already emitted when the bound tripped.
                    self.discarding = false;
                    self.buf.clear();
                    continue;
                }
                let mut line = std::mem::take(&mut self.buf);
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                self.ready.push_back(match String::from_utf8(line) {
                    Ok(text) => Frame::Line(text),
                    Err(_) => Frame::InvalidUtf8,
                });
                continue;
            }
            if self.discarding {
                continue;
            }
            self.buf.push(b);
            // The bound is on line *content*: a terminator must never flip
            // an otherwise-acceptable line to Oversized. `\n` never enters
            // the buffer, but `\r` does until its `\n` arrives — so grant a
            // trailing `\r` sitting exactly one past the bound a one-byte
            // grace. If the next byte completes `\r\n`, the `\r` is popped
            // and the line is exactly max_frame; any other byte overflows
            // for real on the next iteration.
            let cr_grace = self.buf.len() == self.max_frame + 1 && b == b'\r';
            if self.buf.len() > self.max_frame && !cr_grace {
                self.ready.push_back(Frame::Oversized {
                    length: self.buf.len(),
                });
                self.buf.clear();
                self.discarding = true;
            }
        }
    }

    /// The next complete frame, or `None` until more bytes arrive.
    pub fn next_frame(&mut self) -> Option<Frame> {
        self.ready.pop_front()
    }

    /// Bytes buffered for the (incomplete) current frame.
    pub fn pending_len(&self) -> usize {
        self.buf.len()
    }
}

impl Default for LineFramer {
    /// A framer with the [`DEFAULT_MAX_FRAME`] bound.
    fn default() -> Self {
        LineFramer::new(DEFAULT_MAX_FRAME)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(framer: &mut LineFramer) -> Vec<Frame> {
        std::iter::from_fn(|| framer.next_frame()).collect()
    }

    #[test]
    fn single_feed_single_line() {
        let mut f = LineFramer::new(64);
        f.feed(b"hello\n");
        assert_eq!(lines(&mut f), vec![Frame::Line("hello".into())]);
    }

    #[test]
    fn frame_split_across_many_segments_reassembles() {
        let mut f = LineFramer::new(1024);
        // One request delivered a byte at a time, as a pathological TCP
        // stream could.
        let request = b"{\"Submit\":{\"qasm\":\"OPENQASM 2.0;\",\"shots\":64}}\n";
        for &b in request.iter() {
            f.feed(&[b]);
        }
        assert_eq!(
            lines(&mut f),
            vec![Frame::Line(
                "{\"Submit\":{\"qasm\":\"OPENQASM 2.0;\",\"shots\":64}}".into()
            )]
        );
    }

    #[test]
    fn several_lines_in_one_feed() {
        let mut f = LineFramer::new(64);
        f.feed(b"a\nb\r\nc\n");
        assert_eq!(
            lines(&mut f),
            vec![
                Frame::Line("a".into()),
                Frame::Line("b".into()),
                Frame::Line("c".into()),
            ]
        );
        assert_eq!(f.pending_len(), 0);
    }

    #[test]
    fn oversized_frame_rejects_then_resynchronizes() {
        let mut f = LineFramer::new(8);
        f.feed(b"way too long for the bound");
        assert_eq!(f.next_frame(), Some(Frame::Oversized { length: 9 }));
        assert_eq!(f.next_frame(), None);
        // Still discarding: more oversized tail produces nothing new.
        f.feed(b" and still going");
        assert_eq!(f.next_frame(), None);
        // The newline resynchronizes; the next line parses normally.
        f.feed(b"\nok\n");
        assert_eq!(lines(&mut f), vec![Frame::Line("ok".into())]);
    }

    #[test]
    fn line_of_exactly_the_bound_is_accepted() {
        let mut f = LineFramer::new(8);
        f.feed(b"12345678\n");
        assert_eq!(lines(&mut f), vec![Frame::Line("12345678".into())]);
    }

    #[test]
    fn line_one_past_the_bound_is_rejected() {
        let mut f = LineFramer::new(8);
        f.feed(b"123456789\n");
        assert_eq!(f.next_frame(), Some(Frame::Oversized { length: 9 }));
        // The newline already resynchronized the framer.
        f.feed(b"ok\n");
        assert_eq!(lines(&mut f), vec![Frame::Line("ok".into())]);
    }

    #[test]
    fn crlf_terminator_does_not_count_against_the_bound() {
        // Regression: a maximal line arriving with `\r\n` used to trip
        // Oversized on the `\r` even though the content fit exactly.
        let mut f = LineFramer::new(8);
        f.feed(b"12345678\r\n");
        assert_eq!(lines(&mut f), vec![Frame::Line("12345678".into())]);

        // Split between the `\r` and the `\n` — the grace must hold
        // across feed() boundaries.
        let mut f = LineFramer::new(8);
        f.feed(b"12345678\r");
        assert_eq!(f.next_frame(), None);
        f.feed(b"\n");
        assert_eq!(lines(&mut f), vec![Frame::Line("12345678".into())]);
    }

    #[test]
    fn cr_grace_is_not_a_loophole() {
        // A `\r` at the bound followed by anything but `\n` overflows.
        let mut f = LineFramer::new(8);
        f.feed(b"12345678\rx");
        assert_eq!(f.next_frame(), Some(Frame::Oversized { length: 10 }));
        // An embedded `\r` one past the bound mid-line overflows too once
        // the line keeps going.
        let mut f = LineFramer::new(8);
        f.feed(b"12345678\r\rmore\n");
        assert_eq!(f.next_frame(), Some(Frame::Oversized { length: 10 }));
        f.feed(b"ok\n");
        assert_eq!(lines(&mut f), vec![Frame::Line("ok".into())]);
    }

    #[test]
    fn invalid_utf8_is_a_typed_frame_not_a_hangup() {
        let mut f = LineFramer::new(64);
        f.feed(&[0xff, 0xfe, b'\n', b'o', b'k', b'\n']);
        assert_eq!(
            lines(&mut f),
            vec![Frame::InvalidUtf8, Frame::Line("ok".into())]
        );
    }

    #[test]
    fn empty_lines_are_yielded_for_the_caller_to_skip() {
        let mut f = LineFramer::new(64);
        f.feed(b"\n\nx\n");
        assert_eq!(
            lines(&mut f),
            vec![
                Frame::Line(String::new()),
                Frame::Line(String::new()),
                Frame::Line("x".into()),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "frame bound must be positive")]
    fn zero_bound_rejected() {
        let _ = LineFramer::new(0);
    }
}
