//! The one container codec: little-endian field primitives plus the
//! framing every persisted format shares.
//!
//! Fields are fixed-width, so the on-disk layout is specified by
//! construction: no padding, no endianness surprises, no
//! platform-dependent sizes. Floats are stored as raw IEEE-754 bit
//! patterns so a resumed run reproduces byte-identical figures.
//!
//! Every image that leaves the chip is untrusted until checked, so the
//! framing rules live here and nowhere else:
//!
//! - a [`Header`] opens each container: four magic bytes, then the
//!   version. A short or wrong magic is [`RecoveryError::BadMagic`], a
//!   wrong version [`RecoveryError::UnsupportedVersion`];
//! - sections are `[tag u32][len u64][payload][fnv1a64(payload) u64]`
//!   ([`write_section`], [`read_section`], [`read_any_section`]);
//! - a trailing FNV-1a-64 checksum covers a span the format names
//!   ([`write_checksum`], [`read_checksum`], [`read_to_checksum`]);
//! - an entry count that declares more entries than the bytes left can
//!   hold, even at each entry's minimum size, is
//!   [`RecoveryError::CorruptSnapshot`] at the count's offset, before
//!   anything is reserved ([`bound_count`], [`ByteReader::count_u32`],
//!   [`ByteReader::count_u64`]);
//! - an indexed section's entries strictly ascend ([`ascending`]);
//! - a section or container with bytes left over is
//!   [`RecoveryError::CorruptSnapshot`] ([`expect_exhausted`]).
//!
//! The WAL's records keep their own torn-tail rule (see
//! [`crate::persist::wal`]).

use super::RecoveryError;

/// Offset-carrying truncation marker returned by [`ByteReader`] when the
/// input ends before a field does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Truncated {
    /// Byte offset at which the missing field started.
    pub offset: usize,
}

/// Appends fixed-width little-endian fields to a growable buffer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// Consumes the writer, returning the bytes written.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its raw IEEE-754 bit pattern (exact round-trip,
    /// NaN payloads included).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a bool as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Appends raw bytes with no length prefix (fixed-width fields).
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed (`u32`) UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.u32(v.len() as u32);
        self.bytes(v.as_bytes());
    }
}

/// Reads fixed-width little-endian fields from a byte slice, tracking the
/// current offset so truncation errors can name where the input ran out.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Creates a reader over `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Current byte offset.
    #[must_use]
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Bytes remaining.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    #[must_use]
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn chunk(&mut self, n: usize) -> Result<&'a [u8], Truncated> {
        let start = self.pos;
        let end = start.checked_add(n).ok_or(Truncated { offset: start })?;
        let bytes = self.buf.get(start..end).ok_or(Truncated { offset: start })?;
        self.pos = end;
        Ok(bytes)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`Truncated`] when the input is exhausted.
    pub fn u8(&mut self) -> Result<u8, Truncated> {
        Ok(self.chunk(1)?[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`Truncated`] when fewer than four bytes remain.
    pub fn u32(&mut self) -> Result<u32, Truncated> {
        let offset = self.pos;
        let bytes = self.chunk(4)?;
        bytes
            .try_into()
            .map(u32::from_le_bytes)
            .map_err(|_| Truncated { offset })
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`Truncated`] when fewer than eight bytes remain.
    pub fn u64(&mut self) -> Result<u64, Truncated> {
        let offset = self.pos;
        let bytes = self.chunk(8)?;
        bytes
            .try_into()
            .map(u64::from_le_bytes)
            .map_err(|_| Truncated { offset })
    }

    /// Reads an `f64` stored as a raw bit pattern.
    ///
    /// # Errors
    ///
    /// Returns [`Truncated`] when fewer than eight bytes remain.
    pub fn f64(&mut self) -> Result<f64, Truncated> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a bool byte (any nonzero value reads as `true`).
    ///
    /// # Errors
    ///
    /// Returns [`Truncated`] when the input is exhausted.
    pub fn bool(&mut self) -> Result<bool, Truncated> {
        Ok(self.u8()? != 0)
    }

    /// Reads `n` raw bytes.
    ///
    /// # Errors
    ///
    /// Returns [`Truncated`] when fewer than `n` bytes remain.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], Truncated> {
        self.chunk(n)
    }

    /// Reads a fixed 64-byte line image.
    ///
    /// # Errors
    ///
    /// Returns [`Truncated`] when fewer than 64 bytes remain.
    pub fn line(&mut self) -> Result<[u8; crate::CACHELINE_BYTES], Truncated> {
        let offset = self.pos;
        self.chunk(crate::CACHELINE_BYTES)?
            .try_into()
            .map_err(|_| Truncated { offset })
    }

    /// Reads a length-prefixed UTF-8 string (invalid UTF-8 reads as
    /// truncation at the string's offset — the bytes are not what the
    /// writer produced).
    ///
    /// # Errors
    ///
    /// Returns [`Truncated`] on exhaustion or invalid UTF-8.
    pub fn str(&mut self) -> Result<&'a str, Truncated> {
        let len = self.u32()? as usize;
        let offset = self.pos;
        std::str::from_utf8(self.chunk(len)?).map_err(|_| Truncated { offset })
    }

    /// Reads a `u32` count of entries that follow in this reader, each at
    /// least `min_entry` bytes (see [`bound_count`]).
    ///
    /// # Errors
    ///
    /// [`RecoveryError::Truncated`], or [`RecoveryError::CorruptSnapshot`]
    /// at the count's offset when the rest of the input cannot hold it.
    pub fn count_u32(&mut self, min_entry: usize) -> Result<usize, RecoveryError> {
        let offset = self.pos;
        let count = self.u32()?;
        bound_count(u64::from(count), min_entry, self.remaining(), offset)
    }

    /// Reads a `u64` count of entries that follow in this reader, each at
    /// least `min_entry` bytes (see [`bound_count`]).
    ///
    /// # Errors
    ///
    /// As [`ByteReader::count_u32`].
    pub fn count_u64(&mut self, min_entry: usize) -> Result<usize, RecoveryError> {
        let offset = self.pos;
        let count = self.u64()?;
        bound_count(count, min_entry, self.remaining(), offset)
    }
}

/// A container's header: four magic bytes and the one version this build
/// writes and reads, stored as a `u32` (or one byte, for `MTPR`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// The format's magic bytes.
    pub magic: [u8; 4],
    /// The format version this build writes and accepts.
    pub version: u32,
    /// Whether the version is stored in one byte rather than four.
    narrow: bool,
}

impl Header {
    /// A header with a `u32` version field.
    #[must_use]
    pub const fn new(magic: [u8; 4], version: u32) -> Self {
        Header { magic, version, narrow: false }
    }

    /// A header with a one-byte version field.
    #[must_use]
    pub const fn narrow(magic: [u8; 4], version: u8) -> Self {
        Header { magic, version: version as u32, narrow: true }
    }

    /// Appends the header to `out`.
    pub fn write(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.magic);
        if self.narrow {
            out.push(self.version as u8);
        } else {
            out.extend_from_slice(&self.version.to_le_bytes());
        }
    }

    /// Whether `bytes` start with this format's magic (it says which
    /// decoder to try, not that the image is sound).
    #[must_use]
    pub fn matches(&self, bytes: &[u8]) -> bool {
        bytes.starts_with(&self.magic)
    }

    /// A whole container: this header, `payload`, then the checksum of the
    /// payload (the `MTSR` and `MTLC` layout; [`Header::open`] reads it).
    #[must_use]
    pub fn seal(&self, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + payload.len() + 8);
        self.write(&mut out);
        let from = out.len();
        out.extend_from_slice(payload);
        write_checksum(&mut out, from);
        out
    }

    /// Reads a [`Header::seal`] container: the header, then the payload up
    /// to the checksum in the last eight bytes.
    ///
    /// # Errors
    ///
    /// The [`Header::read`] and [`read_to_checksum`] errors.
    pub fn open<'a>(&self, bytes: &'a [u8]) -> Result<ByteReader<'a>, RecoveryError> {
        let mut r = ByteReader::new(bytes);
        self.read(&mut r)?;
        read_to_checksum(&mut r)
    }

    /// Reads and checks the header.
    ///
    /// # Errors
    ///
    /// [`RecoveryError::BadMagic`] for a short or wrong magic,
    /// [`RecoveryError::Truncated`] for a short version field, and
    /// [`RecoveryError::UnsupportedVersion`] for another version.
    pub fn read(&self, r: &mut ByteReader<'_>) -> Result<(), RecoveryError> {
        if r.bytes(4).map_err(|_| RecoveryError::BadMagic)? != self.magic {
            return Err(RecoveryError::BadMagic);
        }
        let version = if self.narrow { u32::from(r.u8()?) } else { r.u32()? };
        if version != self.version {
            return Err(RecoveryError::UnsupportedVersion { version });
        }
        Ok(())
    }
}

/// Appends one section framed as `[tag u32][len u64][payload][fnv u64]`.
pub fn write_section(out: &mut Vec<u8>, tag: u32, payload: &[u8]) {
    out.extend_from_slice(&tag.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    let from = out.len();
    out.extend_from_slice(payload);
    write_checksum(out, from);
}

/// Reads the next section, which must carry `expect`, and returns a
/// reader over its checked payload.
///
/// # Errors
///
/// The [`read_any_section`] errors, and [`RecoveryError::CorruptSnapshot`]
/// at the section's offset for another tag.
pub fn read_section<'a>(
    r: &mut ByteReader<'a>,
    expect: u32,
) -> Result<ByteReader<'a>, RecoveryError> {
    let offset = r.offset();
    let (tag, payload) = read_any_section(r)?;
    if tag != expect {
        return Err(RecoveryError::CorruptSnapshot { offset });
    }
    Ok(ByteReader::new(payload))
}

/// Reads the next section whatever its tag, returning the tag and the
/// checked payload.
///
/// # Errors
///
/// [`RecoveryError::Truncated`], [`RecoveryError::CorruptSnapshot`] at
/// the section's offset for a length past `usize`, and
/// [`RecoveryError::ChecksumMismatch`] naming the tag.
pub fn read_any_section<'a>(r: &mut ByteReader<'a>) -> Result<(u32, &'a [u8]), RecoveryError> {
    let offset = r.offset();
    let tag = r.u32()?;
    let len = r.u64()?;
    let len = usize::try_from(len).map_err(|_| RecoveryError::CorruptSnapshot { offset })?;
    let from = r.offset();
    let payload = r.bytes(len)?;
    read_checksum(r, from, tag)?;
    Ok((tag, payload))
}

/// Appends the FNV-1a-64 checksum of `out[from..]`.
pub fn write_checksum(out: &mut Vec<u8>, from: usize) {
    let checksum = fnv1a(&out[from..]);
    out.extend_from_slice(&checksum.to_le_bytes());
}

/// Reads a stored checksum at the reader's position and checks it against
/// the bytes from offset `from` up to that position.
///
/// # Errors
///
/// [`RecoveryError::Truncated`] when fewer than eight bytes remain and
/// [`RecoveryError::ChecksumMismatch`] naming `section` on a mismatch.
pub fn read_checksum(
    r: &mut ByteReader<'_>,
    from: usize,
    section: u32,
) -> Result<(), RecoveryError> {
    let covered = &r.buf[from..r.pos];
    if fnv1a(covered) != r.u64()? {
        return Err(RecoveryError::ChecksumMismatch { section });
    }
    Ok(())
}

/// Reads the rest of the input as a payload followed by its checksum in
/// the last eight bytes, and returns a reader over the checked payload
/// (section 0 in a mismatch).
///
/// # Errors
///
/// [`RecoveryError::Truncated`] when fewer than eight bytes remain and
/// [`RecoveryError::ChecksumMismatch`] on a mismatch.
pub fn read_to_checksum<'a>(r: &mut ByteReader<'a>) -> Result<ByteReader<'a>, RecoveryError> {
    let from = r.offset();
    let len = r
        .remaining()
        .checked_sub(8)
        .ok_or(RecoveryError::Truncated { offset: from })?;
    let payload = r.bytes(len)?;
    read_checksum(r, from, 0)?;
    Ok(ByteReader::new(payload))
}

/// Admits a declared entry count only if `remaining` bytes can hold that
/// many entries of at least `min_entry` bytes each. A checksummed header
/// can still name any count; refusing it here turns a forged count into a
/// typed error instead of a reservation the host cannot make.
///
/// # Errors
///
/// [`RecoveryError::CorruptSnapshot`] at `offset`, the count's own offset.
pub fn bound_count(
    count: u64,
    min_entry: usize,
    remaining: usize,
    offset: usize,
) -> Result<usize, RecoveryError> {
    let room = remaining / min_entry.max(1);
    match usize::try_from(count) {
        Ok(count) if count <= room => Ok(count),
        _ => Err(RecoveryError::CorruptSnapshot { offset }),
    }
}

/// Admits the next entry of an indexed section (`MTSN`'s `DATA`, `MACS`,
/// one level of `LEVELS`) only if its `index` lies past the previous
/// entry's; `next` starts at 0. Writers emit strictly ascending indices
/// (`PagedStore::iter`), so a descending or repeated index is a
/// non-canonical image: refused, not inserted wherever it says.
///
/// # Errors
///
/// [`RecoveryError::CorruptSnapshot`] at `offset`, the entry's offset.
pub fn ascending(next: &mut u64, index: u64, offset: usize) -> Result<(), RecoveryError> {
    if index < *next {
        return Err(RecoveryError::CorruptSnapshot { offset });
    }
    *next = index.saturating_add(1);
    Ok(())
}

/// A fully-consumed reader: bytes left over are corruption.
///
/// # Errors
///
/// [`RecoveryError::CorruptSnapshot`] at the first unread byte.
pub fn expect_exhausted(r: &ByteReader<'_>) -> Result<(), RecoveryError> {
    if r.is_exhausted() {
        Ok(())
    } else {
        Err(RecoveryError::CorruptSnapshot { offset: r.offset() })
    }
}

/// FNV-1a 64-bit checksum — fast, dependency-free, and plenty to detect
/// the torn or bit-rotted writes this layer guards against (it is an
/// integrity *accident* detector; the MAC tree handles adversaries).
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.u32(0xdead_beef);
        w.u64(u64::MAX - 3);
        w.f64(-0.0);
        w.f64(f64::NAN);
        w.bool(true);
        w.str("héllo");
        w.bytes(&[1, 2, 3]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.f64().unwrap().is_nan());
        assert!(r.bool().unwrap());
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.bytes(3).unwrap(), &[1, 2, 3]);
        assert!(r.is_exhausted());
    }

    #[test]
    fn truncation_reports_the_field_offset() {
        let mut w = ByteWriter::new();
        w.u32(1);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        r.u8().unwrap();
        assert_eq!(r.u64(), Err(Truncated { offset: 1 }));
        // A failed read does not advance the cursor.
        assert_eq!(r.offset(), 1);
        assert_eq!(r.remaining(), 3);
    }

    #[test]
    fn headers_refuse_short_or_foreign_magic_and_other_versions() {
        const WIDE: Header = Header::new(*b"MTXX", 3);
        const NARROW: Header = Header::narrow(*b"MTYY", 2);
        for (header, len) in [(WIDE, 8), (NARROW, 5)] {
            let mut out = Vec::new();
            header.write(&mut out);
            assert_eq!(out.len(), len);
            assert!(header.matches(&out));
            header.read(&mut ByteReader::new(&out)).unwrap();
            for cut in 0..4 {
                let err = header.read(&mut ByteReader::new(&out[..cut])).unwrap_err();
                assert_eq!(err, RecoveryError::BadMagic);
            }
            let mut foreign = out.clone();
            foreign[0] ^= 1;
            let err = header.read(&mut ByteReader::new(&foreign)).unwrap_err();
            assert_eq!(err, RecoveryError::BadMagic);
            let mut other = out.clone();
            other[4] = 9;
            let err = header.read(&mut ByteReader::new(&other)).unwrap_err();
            assert_eq!(err, RecoveryError::UnsupportedVersion { version: 9 });
        }
    }

    #[test]
    fn sealed_payloads_check_their_span() {
        const HEADER: Header = Header::new(*b"MTXX", 1);
        let image = HEADER.seal(b"payload");
        let mut r = HEADER.open(&image).unwrap();
        assert_eq!(r.bytes(7).unwrap(), b"payload");
        assert!(r.is_exhausted());
        let mut flipped = image.clone();
        flipped[9] ^= 1;
        assert_eq!(
            HEADER.open(&flipped).unwrap_err(),
            RecoveryError::ChecksumMismatch { section: 0 }
        );
        assert_eq!(HEADER.open(&image[..15]).unwrap_err(), RecoveryError::Truncated { offset: 8 });
    }

    #[test]
    fn counts_the_rest_cannot_hold_are_refused() {
        assert_eq!(bound_count(3, 16, 48, 5), Ok(3));
        assert_eq!(bound_count(4, 16, 63, 5), Err(RecoveryError::CorruptSnapshot { offset: 5 }));
        assert_eq!(bound_count(u64::MAX, 1, 100, 7), Err(RecoveryError::CorruptSnapshot { offset: 7 }));
        let mut w = ByteWriter::new();
        w.u32(2);
        w.u64(1);
        let bytes = w.into_bytes();
        assert_eq!(ByteReader::new(&bytes).count_u32(4), Ok(2));
        assert_eq!(
            ByteReader::new(&bytes).count_u32(5),
            Err(RecoveryError::CorruptSnapshot { offset: 0 })
        );
    }

    #[test]
    fn fnv_is_stable_and_input_sensitive() {
        // Reference value for the empty input (FNV-1a offset basis).
        assert_eq!(fnv1a(&[]), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"abc"), fnv1a(b"abd"));
        assert_eq!(fnv1a(b"abc"), fnv1a(b"abc"));
    }
}
