//! Pipes.
//!
//! Pipes arrive in Prototype 4 to support mario's process-per-input design:
//! the main loop forks a timer process and a keyboard-reader process, both of
//! which write events into a shared pipe the main loop reads (§4.4). The
//! paper's input-latency breakdown (Figure 11b) even calls out that this
//! "simplistic design ported from xv6" becomes a measurable cost for passing
//! a sub-10-byte keyboard event — a cost the reproduction charges through the
//! pipe costs of the platform cost model.

use std::collections::{HashMap, VecDeque};

use crate::error::{KResult, KernelError};

/// Capacity of a pipe's ring buffer (xv6 uses 512 bytes).
pub const PIPE_CAPACITY: usize = 512;

/// One pipe: a bounded byte FIFO plus reader/writer reference counts.
#[derive(Debug, Clone)]
pub struct Pipe {
    buffer: VecDeque<u8>,
    readers: usize,
    writers: usize,
    /// Total bytes ever written (for tests/stats).
    pub bytes_written: u64,
}

impl Pipe {
    fn new() -> Self {
        Pipe {
            buffer: VecDeque::new(),
            readers: 1,
            writers: 1,
            bytes_written: 0,
        }
    }

    /// Bytes currently buffered.
    pub fn len(&self) -> usize {
        self.buffer.len()
    }

    /// True if no bytes are buffered.
    pub fn is_empty(&self) -> bool {
        self.buffer.is_empty()
    }

    /// Free space in the buffer.
    pub fn space(&self) -> usize {
        PIPE_CAPACITY - self.buffer.len()
    }

    /// True once every write end has been closed.
    pub fn write_closed(&self) -> bool {
        self.writers == 0
    }

    /// True once every read end has been closed.
    pub fn read_closed(&self) -> bool {
        self.readers == 0
    }
}

/// Result of a pipe read attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipeReadResult {
    /// Bytes were read.
    Data(Vec<u8>),
    /// The pipe is empty but writers remain: the caller should block (or get
    /// EAGAIN if non-blocking).
    WouldBlock,
    /// The pipe is empty and all writers are gone: end of file.
    Eof,
}

/// Result of a pipe write attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipeWriteResult {
    /// `n` bytes were accepted.
    Wrote(usize),
    /// The buffer is full: the caller should block.
    WouldBlock,
    /// All readers are gone: broken pipe.
    Broken,
}

/// The kernel's pipe table.
#[derive(Debug, Clone, Default)]
pub struct PipeTable {
    pipes: HashMap<u64, Pipe>,
    next_id: u64,
}

impl PipeTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        PipeTable {
            pipes: HashMap::new(),
            next_id: 1,
        }
    }

    /// Allocates a new pipe, returning its id.
    pub fn create(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.pipes.insert(id, Pipe::new());
        id
    }

    /// Looks up a pipe.
    pub fn get(&self, id: u64) -> KResult<&Pipe> {
        self.pipes
            .get(&id)
            .ok_or_else(|| KernelError::NotFound(format!("pipe {id}")))
    }

    fn get_mut(&mut self, id: u64) -> KResult<&mut Pipe> {
        self.pipes
            .get_mut(&id)
            .ok_or_else(|| KernelError::NotFound(format!("pipe {id}")))
    }

    /// Reads up to `max` bytes from pipe `id`.
    pub fn read(&mut self, id: u64, max: usize) -> KResult<PipeReadResult> {
        let pipe = self.get_mut(id)?;
        if pipe.buffer.is_empty() {
            return Ok(if pipe.write_closed() {
                PipeReadResult::Eof
            } else {
                PipeReadResult::WouldBlock
            });
        }
        let n = max.min(pipe.buffer.len());
        let data: Vec<u8> = pipe.buffer.drain(..n).collect();
        Ok(PipeReadResult::Data(data))
    }

    /// Writes `data` into pipe `id` (partial writes happen when the buffer
    /// nears capacity).
    pub fn write(&mut self, id: u64, data: &[u8]) -> KResult<PipeWriteResult> {
        let pipe = self.get_mut(id)?;
        if pipe.read_closed() {
            return Ok(PipeWriteResult::Broken);
        }
        if pipe.space() == 0 {
            return Ok(PipeWriteResult::WouldBlock);
        }
        let n = data.len().min(pipe.space());
        pipe.buffer.extend(&data[..n]);
        pipe.bytes_written += n as u64;
        Ok(PipeWriteResult::Wrote(n))
    }

    /// Notes that another descriptor now references this end (dup/fork).
    pub fn add_ref(&mut self, id: u64, write_end: bool) -> KResult<()> {
        let pipe = self.get_mut(id)?;
        if write_end {
            pipe.writers += 1;
        } else {
            pipe.readers += 1;
        }
        Ok(())
    }

    /// Closes one reference to an end of the pipe; drops the pipe entirely
    /// when both sides are fully closed.
    pub fn close_end(&mut self, id: u64, write_end: bool) -> KResult<()> {
        let pipe = self.get_mut(id)?;
        if write_end {
            pipe.writers = pipe.writers.saturating_sub(1);
        } else {
            pipe.readers = pipe.readers.saturating_sub(1);
        }
        if pipe.readers == 0 && pipe.writers == 0 {
            self.pipes.remove(&id);
        }
        Ok(())
    }

    /// Number of live pipes.
    pub fn len(&self) -> usize {
        self.pipes.len()
    }

    /// True if no pipes exist.
    pub fn is_empty(&self) -> bool {
        self.pipes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_flow_fifo_through_the_pipe() {
        let mut pt = PipeTable::new();
        let p = pt.create();
        assert_eq!(pt.write(p, b"key:W").unwrap(), PipeWriteResult::Wrote(5));
        match pt.read(p, 3).unwrap() {
            PipeReadResult::Data(d) => assert_eq!(d, b"key"),
            other => panic!("unexpected {other:?}"),
        }
        match pt.read(p, 10).unwrap() {
            PipeReadResult::Data(d) => assert_eq!(d, b":W"),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(pt.read(p, 10).unwrap(), PipeReadResult::WouldBlock);
    }

    #[test]
    fn full_pipe_blocks_writers() {
        let mut pt = PipeTable::new();
        let p = pt.create();
        let big = vec![0u8; PIPE_CAPACITY + 100];
        assert_eq!(
            pt.write(p, &big).unwrap(),
            PipeWriteResult::Wrote(PIPE_CAPACITY)
        );
        assert_eq!(pt.write(p, b"x").unwrap(), PipeWriteResult::WouldBlock);
    }

    #[test]
    fn closing_all_writers_gives_eof_and_all_readers_breaks_the_pipe() {
        let mut pt = PipeTable::new();
        let p = pt.create();
        pt.write(p, b"last").unwrap();
        pt.close_end(p, true).unwrap();
        // Buffered data still readable, then EOF.
        assert!(matches!(pt.read(p, 10).unwrap(), PipeReadResult::Data(_)));
        assert_eq!(pt.read(p, 10).unwrap(), PipeReadResult::Eof);
        // Broken pipe in the other direction.
        let p2 = pt.create();
        pt.close_end(p2, false).unwrap();
        assert_eq!(pt.write(p2, b"x").unwrap(), PipeWriteResult::Broken);
    }

    #[test]
    fn pipes_are_reclaimed_when_fully_closed() {
        let mut pt = PipeTable::new();
        let p = pt.create();
        pt.add_ref(p, false).unwrap(); // a forked child holds another read end
        pt.close_end(p, true).unwrap();
        pt.close_end(p, false).unwrap();
        assert_eq!(pt.len(), 1, "one read end still open");
        pt.close_end(p, false).unwrap();
        assert!(pt.is_empty());
        assert!(pt.read(p, 1).is_err());
    }
}
