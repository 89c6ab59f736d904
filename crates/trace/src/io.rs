//! Trace capture and replay.
//!
//! The paper replays recorded application traces through USIMM; this module
//! gives the reproduction the same ability: any [`RecordSource`] can be
//! captured to a compact binary file and replayed later (or traces produced
//! by external tools can be converted into this format and driven through
//! the simulator).
//!
//! # Format (`MTRC` version 1)
//!
//! ```text
//! magic   4 bytes  "MTRC"
//! version u32 LE   1
//! cores   u32 LE   1..=256
//! name    u32 LE length + UTF-8 bytes
//! records repeated until EOF:
//!   core  u8
//!   flags u8          bit 0 = write
//!   gap   u32 LE
//!   line  u64 LE
//! ```

use std::error::Error;
use std::fmt;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::workload::{RecordSource, TraceRecord};

const MAGIC: &[u8; 4] = b"MTRC";
const VERSION: u32 = 1;

/// Most cores an `MTRC` trace can hold: records name their core in one
/// byte.
pub const MAX_CORES: usize = 256;

/// A structurally invalid trace: no cores, more cores than a record can
/// address, or a core with no records (a replay stream loops, so an empty
/// core could never make progress).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceShapeError {
    /// The trace has no cores at all.
    NoCores,
    /// The trace has more than [`MAX_CORES`] cores.
    TooManyCores {
        /// The core count asked for.
        cores: usize,
    },
    /// `core` has no records.
    EmptyCore {
        /// Index of the record-less core.
        core: usize,
    },
}

impl fmt::Display for TraceShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceShapeError::NoCores => write!(f, "trace has no cores"),
            TraceShapeError::TooManyCores { cores } => {
                write!(f, "trace has {cores} cores; records address at most {MAX_CORES}")
            }
            TraceShapeError::EmptyCore { core } => {
                write!(f, "trace core {core} has no records")
            }
        }
    }
}

impl Error for TraceShapeError {}

impl From<TraceShapeError> for io::Error {
    fn from(e: TraceShapeError) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// Writes trace records to a stream.
///
/// A `mut` reference works anywhere a writer is required.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    sink: W,
}

impl<W: Write> TraceWriter<W> {
    /// Creates a writer and emits the header.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` for more than [`MAX_CORES`] cores, and
    /// propagates I/O errors from the underlying writer.
    pub fn new(mut sink: W, name: &str, cores: u32) -> io::Result<Self> {
        if cores as usize > MAX_CORES {
            return Err(TraceShapeError::TooManyCores { cores: cores as usize }.into());
        }
        sink.write_all(MAGIC)?;
        sink.write_all(&VERSION.to_le_bytes())?;
        sink.write_all(&cores.to_le_bytes())?;
        sink.write_all(&(name.len() as u32).to_le_bytes())?;
        sink.write_all(name.as_bytes())?;
        Ok(TraceWriter { sink })
    }

    /// Appends one record for `core`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn record(&mut self, core: u8, record: TraceRecord) -> io::Result<()> {
        self.sink.write_all(&[core, u8::from(record.is_write)])?;
        self.sink.write_all(&record.gap.to_le_bytes())?;
        self.sink.write_all(&record.line.to_le_bytes())?;
        Ok(())
    }

    /// Flushes and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the flush.
    pub fn finish(mut self) -> io::Result<W> {
        self.sink.flush()?;
        Ok(self.sink)
    }
}

/// A fully-loaded trace, replayable as a [`RecordSource`].
///
/// Each core's stream loops when exhausted, so a finite capture can drive
/// arbitrarily long simulations (as the paper's finite traces do).
#[derive(Debug, Clone)]
pub struct RecordedTrace {
    name: String,
    per_core: Vec<Vec<TraceRecord>>,
    cursors: Vec<usize>,
}

impl RecordedTrace {
    /// Builds a trace from in-memory per-core record streams.
    ///
    /// # Errors
    ///
    /// Returns [`TraceShapeError`] if there are no cores, more than
    /// [`MAX_CORES`], or any core has no records.
    pub fn new(
        name: impl Into<String>,
        per_core: Vec<Vec<TraceRecord>>,
    ) -> Result<Self, TraceShapeError> {
        if per_core.is_empty() {
            return Err(TraceShapeError::NoCores);
        }
        if per_core.len() > MAX_CORES {
            return Err(TraceShapeError::TooManyCores { cores: per_core.len() });
        }
        if let Some(core) = per_core.iter().position(Vec::is_empty) {
            return Err(TraceShapeError::EmptyCore { core });
        }
        let cursors = vec![0; per_core.len()];
        Ok(RecordedTrace { name: name.into(), per_core, cursors })
    }

    /// Captures `records_per_core` records from a live source.
    ///
    /// # Errors
    ///
    /// Returns [`TraceShapeError`] if the source has no cores or
    /// `records_per_core` is zero.
    pub fn capture<S: RecordSource + ?Sized>(
        source: &mut S,
        records_per_core: usize,
    ) -> Result<Self, TraceShapeError> {
        let cores = source.num_cores();
        let per_core = (0..cores)
            .map(|core| (0..records_per_core).map(|_| source.next_record(core)).collect())
            .collect();
        RecordedTrace::new(source.name().to_owned(), per_core)
    }

    /// Reads a trace from an `MTRC` stream.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` for malformed headers (including a core count
    /// over [`MAX_CORES`]) or stray records, `UnexpectedEof` for a
    /// truncated header or record, and propagates underlying I/O errors.
    /// Nothing is allocated from an unchecked header field.
    pub fn read_from<R: Read>(reader: R) -> io::Result<Self> {
        let mut reader = BufReader::new(reader);
        let mut magic = [0u8; 4];
        reader.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "not an MTRC trace"));
        }
        let mut word = [0u8; 4];
        reader.read_exact(&mut word)?;
        let version = u32::from_le_bytes(word);
        if version != VERSION {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unsupported trace version {version}"),
            ));
        }
        reader.read_exact(&mut word)?;
        let cores = u32::from_le_bytes(word) as usize;
        if cores == 0 {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "zero cores"));
        }
        if cores > MAX_CORES {
            return Err(TraceShapeError::TooManyCores { cores }.into());
        }
        reader.read_exact(&mut word)?;
        let name_len = u32::from_le_bytes(word);
        // Read through `take` so a lying length costs only the bytes
        // actually present, not an up-front allocation of `name_len`.
        let mut name_bytes = Vec::new();
        reader.by_ref().take(u64::from(name_len)).read_to_end(&mut name_bytes)?;
        if name_bytes.len() != name_len as usize {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "truncated trace name"));
        }
        let name = String::from_utf8(name_bytes)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;

        let mut per_core: Vec<Vec<TraceRecord>> = vec![Vec::new(); cores];
        let mut head = [0u8; 2];
        loop {
            match reader.read_exact(&mut head) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => break,
                Err(e) => return Err(e),
            }
            let core = head[0] as usize;
            if core >= cores {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("record for core {core} of {cores}"),
                ));
            }
            let mut gap = [0u8; 4];
            reader.read_exact(&mut gap)?;
            let mut line = [0u8; 8];
            reader.read_exact(&mut line)?;
            per_core[core].push(TraceRecord {
                gap: u32::from_le_bytes(gap),
                line: u64::from_le_bytes(line),
                is_write: head[1] & 1 == 1,
            });
        }
        Ok(RecordedTrace::new(name, per_core)?)
    }

    /// Writes the trace to an `MTRC` stream.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_to<W: Write>(&self, sink: W) -> io::Result<()> {
        let mut writer =
            TraceWriter::new(BufWriter::new(sink), &self.name, self.per_core.len() as u32)?;
        for (core, records) in self.per_core.iter().enumerate() {
            for &record in records {
                let core = u8::try_from(core)
                    .map_err(|_| TraceShapeError::TooManyCores { cores: self.per_core.len() })?;
                writer.record(core, record)?;
            }
        }
        writer.finish()?;
        Ok(())
    }

    /// Loads a trace file.
    ///
    /// # Errors
    ///
    /// Propagates file-open and parse errors.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Self> {
        RecordedTrace::read_from(File::open(path)?)
    }

    /// Saves the trace to a file.
    ///
    /// # Errors
    ///
    /// Propagates file-create and write errors.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        self.write_to(File::create(path)?)
    }

    /// Records captured for `core`.
    #[must_use]
    pub fn len(&self, core: usize) -> usize {
        self.per_core[core].len()
    }

    /// True if the trace holds no records at all (unreachable via the
    /// constructors, which require records; useful for API symmetry).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.per_core.iter().all(Vec::is_empty)
    }
}

impl RecordSource for RecordedTrace {
    fn num_cores(&self) -> usize {
        self.per_core.len()
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn next_record(&mut self, core: usize) -> TraceRecord {
        let records = &self.per_core[core];
        let cursor = &mut self.cursors[core];
        let record = records[*cursor % records.len()];
        *cursor += 1;
        record
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Benchmark;
    use crate::workload::SystemWorkload;

    fn sample_trace() -> RecordedTrace {
        let bench = Benchmark::by_name("milc").unwrap();
        let mut workload = SystemWorkload::rate(bench, 2, 1 << 30, 5);
        RecordedTrace::capture(&mut workload, 100).unwrap()
    }

    #[test]
    fn capture_preserves_the_source_stream() {
        let bench = Benchmark::by_name("milc").unwrap();
        let mut live = SystemWorkload::rate(bench, 2, 1 << 30, 5);
        let mut captured = {
            let mut twin = SystemWorkload::rate(bench, 2, 1 << 30, 5);
            RecordedTrace::capture(&mut twin, 50).unwrap()
        };
        for core in 0..2 {
            for _ in 0..50 {
                assert_eq!(captured.next_record(core), live.next_record(core));
            }
        }
    }

    #[test]
    fn roundtrip_through_bytes() {
        let trace = sample_trace();
        let mut bytes = Vec::new();
        trace.write_to(&mut bytes).unwrap();
        let mut loaded = RecordedTrace::read_from(bytes.as_slice()).unwrap();
        assert_eq!(loaded.name(), "milc");
        assert_eq!(loaded.num_cores(), 2);
        let mut original = trace.clone();
        for core in 0..2 {
            assert_eq!(loaded.len(core), 100);
            for _ in 0..100 {
                assert_eq!(loaded.next_record(core), original.next_record(core));
            }
        }
    }

    #[test]
    fn replay_loops_when_exhausted() {
        let mut trace = RecordedTrace::new(
            "loop",
            vec![vec![
                TraceRecord { gap: 1, line: 10, is_write: false },
                TraceRecord { gap: 2, line: 20, is_write: true },
            ]],
        )
        .unwrap();
        let a = trace.next_record(0);
        let b = trace.next_record(0);
        let c = trace.next_record(0);
        assert_eq!(a.line, 10);
        assert_eq!(b.line, 20);
        assert_eq!(c, a, "stream loops");
    }

    #[test]
    fn rejects_bad_magic() {
        let err = RecordedTrace::read_from(&b"NOPE1234"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn rejects_truncated_records() {
        let trace = sample_trace();
        let mut bytes = Vec::new();
        trace.write_to(&mut bytes).unwrap();
        bytes.truncate(bytes.len() - 3);
        // Either a clean error or a shorter stream — never a panic; the
        // format requires whole records, so this must error.
        assert!(RecordedTrace::read_from(bytes.as_slice()).is_err());
    }

    #[test]
    fn rejects_record_for_unknown_core() {
        let mut bytes = Vec::new();
        {
            let mut w = TraceWriter::new(&mut bytes, "x", 1).unwrap();
            w.record(3, TraceRecord { gap: 0, line: 0, is_write: false }).unwrap();
            w.finish().unwrap();
        }
        assert!(RecordedTrace::read_from(bytes.as_slice()).is_err());
    }

    #[test]
    fn rejects_empty_trace_with_typed_error() {
        assert_eq!(
            RecordedTrace::new("empty", vec![]).unwrap_err(),
            TraceShapeError::NoCores
        );
        assert_eq!(
            RecordedTrace::new("half", vec![vec![], vec![]]).unwrap_err(),
            TraceShapeError::EmptyCore { core: 0 }
        );
    }

    /// Regression: a 16-byte header claiming `u32::MAX` cores used to
    /// make the reader build ~96 GiB of empty per-core vectors, and a
    /// lying name length used to be allocated before it was read.
    #[test]
    fn hostile_headers_are_refused_without_allocating() {
        let header = |cores: u32, name_len: u32| {
            let mut bytes = MAGIC.to_vec();
            bytes.extend_from_slice(&VERSION.to_le_bytes());
            bytes.extend_from_slice(&cores.to_le_bytes());
            bytes.extend_from_slice(&name_len.to_le_bytes());
            bytes
        };
        let err = RecordedTrace::read_from(header(u32::MAX, 0).as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("at most 256"), "{err}");
        let err = RecordedTrace::read_from(header(257, 0).as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        let mut lying = header(1, u32::MAX);
        lying.extend_from_slice(b"abc");
        let err = RecordedTrace::read_from(lying.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    /// Regression: records address their core in one byte, so core 256
    /// used to be written as core 0. Such traces are now refused up
    /// front; 256 cores is the largest shape that round-trips.
    #[test]
    fn traces_over_256_cores_are_refused() {
        let record = TraceRecord { gap: 1, line: 2, is_write: false };
        assert_eq!(
            RecordedTrace::new("wide", vec![vec![record]; 257]).unwrap_err(),
            TraceShapeError::TooManyCores { cores: 257 }
        );
        let err = TraceWriter::new(Vec::new(), "wide", 257).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        let per_core: Vec<Vec<TraceRecord>> = (0..MAX_CORES as u64)
            .map(|core| vec![TraceRecord { gap: 0, line: core, is_write: false }])
            .collect();
        let trace = RecordedTrace::new("widest", per_core).unwrap();
        let mut bytes = Vec::new();
        trace.write_to(&mut bytes).unwrap();
        let mut loaded = RecordedTrace::read_from(bytes.as_slice()).unwrap();
        assert_eq!(loaded.num_cores(), MAX_CORES);
        assert_eq!(loaded.next_record(255).line, 255);
        assert_eq!(loaded.next_record(0).line, 0);
    }

    #[test]
    fn read_from_surfaces_shape_errors_as_invalid_data() {
        let mut bytes = Vec::new();
        // A valid header for two cores, followed by records for core 0 only.
        let mut w = TraceWriter::new(&mut bytes, "onecore", 2).unwrap();
        w.record(0, TraceRecord { gap: 0, line: 1, is_write: false }).unwrap();
        w.finish().unwrap();
        let err = RecordedTrace::read_from(bytes.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("core 1"), "{err}");
    }
}
