//! Match consumers the benchmark hands the engines.

use crate::oracle::Digest;
use jsonski::{Match, MatchSink};
use std::ops::ControlFlow;

/// Bytes one delivered chunk holds before it is handed on, as a streamed
/// response does.
pub const CHUNK_BYTES: usize = 16 * 1024;

/// Hashes every match into a [`Digest`].
#[derive(Default)]
pub struct Hash(pub Digest);

impl MatchSink for Hash {
    fn on_match(&mut self, m: Match<'_>) -> ControlFlow<()> {
        self.0.push(m.bytes());
        ControlFlow::Continue(())
    }
}

/// Copies every match, newline-terminated, into a fixed chunk buffer that
/// is handed on (here: cleared) whenever it fills, as a streaming consumer
/// would write it out.
pub struct Chunked {
    buf: Vec<u8>,
    pub matches: u64,
    /// Match bytes delivered, newlines excluded.
    pub bytes: u64,
    pub chunks: u64,
}

impl Chunked {
    pub fn new() -> Chunked {
        Chunked {
            buf: Vec::with_capacity(CHUNK_BYTES),
            matches: 0,
            bytes: 0,
            chunks: 0,
        }
    }

    pub fn reset(&mut self) {
        self.buf.clear();
        self.matches = 0;
        self.bytes = 0;
        self.chunks = 0;
    }

    pub fn push(&mut self, bytes: &[u8]) {
        if self.buf.len() + bytes.len() + 1 > CHUNK_BYTES && !self.buf.is_empty() {
            std::hint::black_box(&self.buf);
            self.buf.clear();
            self.chunks += 1;
        }
        self.buf.extend_from_slice(bytes);
        self.buf.push(b'\n');
        self.matches += 1;
        self.bytes += bytes.len() as u64;
    }

    /// Hands on the last partial chunk.
    pub fn finish(&mut self) {
        if !self.buf.is_empty() {
            std::hint::black_box(&self.buf);
            self.buf.clear();
            self.chunks += 1;
        }
    }
}

impl MatchSink for Chunked {
    fn on_match(&mut self, m: Match<'_>) -> ControlFlow<()> {
        self.push(m.bytes());
        ControlFlow::Continue(())
    }
}
