//! Word-level bit-field packing for 64-byte counter-line codecs.
//!
//! All counter organizations in the paper are defined as bit-level layouts
//! of a 512-bit cacheline (Fig 8, Fig 13). Bit `b` of a line is bit
//! `b % 8` of byte `b / 8` (LSB-first), which is the same as bit `b % 64`
//! of the line read as eight little-endian `u64` words. Every codec
//! streams its fields through one `BitWriter` / `BitReader` pair over
//! those words: a field costs one shift-and-or, plus a second word when it
//! straddles a word boundary, and a counter array moves `64 / width`
//! counters per word operation. Each codec still mirrors its figure field
//! by field.
//!
//! [`get_bits`] / [`set_bits`] address one field anywhere in an image;
//! tests use them to corrupt images. `load_field` / `store_field` are
//! the single-field accessors of a line kept as its image: one
//! eight-byte load (and store) per field.

use crate::{CACHELINE_BITS, CACHELINE_BYTES};

/// 64-bit words per cacheline.
const LINE_WORDS: usize = CACHELINE_BYTES / 8;

fn to_words(buf: &[u8; CACHELINE_BYTES]) -> [u64; LINE_WORDS] {
    let mut words = [0u64; LINE_WORDS];
    for (word, bytes) in words.iter_mut().zip(buf.as_chunks::<8>().0) {
        *word = u64::from_le_bytes(*bytes);
    }
    words
}

fn to_bytes(words: &[u64; LINE_WORDS]) -> [u8; CACHELINE_BYTES] {
    let mut buf = [0u8; CACHELINE_BYTES];
    for (bytes, word) in buf.chunks_exact_mut(8).zip(words) {
        bytes.copy_from_slice(&word.to_le_bytes());
    }
    buf
}

/// The low `width` bits set (`width <= 64`).
#[inline]
pub(crate) fn low_mask(width: u32) -> u64 {
    u64::MAX.checked_shr(64 - width).unwrap_or(0)
}

/// The checks shared by every accessor: `count` fields of `width` bits
/// starting at `bit` must lie within the line.
fn check_run(bit: usize, width: u32, count: usize) {
    assert!(width <= 64, "field width {width} exceeds 64 bits");
    let bits = (width as usize).saturating_mul(count);
    assert!(
        bit.saturating_add(bits) <= CACHELINE_BITS,
        "field out of range"
    );
}

/// Panics unless `value` fits in `width` bits.
fn check_fits(value: u64, width: u32) {
    assert!(
        value.checked_shr(width).unwrap_or(0) == 0,
        "value {value:#x} does not fit in {width} bits"
    );
}

/// The eight bytes of `image` from byte `byte` on, as a little-endian word.
#[inline]
fn window(image: &[u8; CACHELINE_BYTES], byte: usize) -> u64 {
    let mut bytes = [0u8; 8];
    bytes.copy_from_slice(&image[byte..byte + 8]);
    u64::from_le_bytes(bytes)
}

/// Reads the `width`-bit field at bit `bit` with one eight-byte load from
/// the field's first byte.
///
/// Every field of a counter-line layout fits in the word that starts at
/// its first byte: fields are at most 57 bits wide, or 64 bits and
/// byte-aligned, and none starts past byte 56.
///
/// # Panics
///
/// Panics if the word would run past the line; debug builds also check
/// that the field lies within the word.
#[inline]
#[must_use]
pub(crate) fn load_field(image: &[u8; CACHELINE_BYTES], bit: usize, width: u32) -> u64 {
    debug_assert!(bit % 8 + width as usize <= 64, "field at {bit} straddles its word");
    (window(image, bit / 8) >> (bit % 8)) & low_mask(width)
}

/// Writes `value` into the `width`-bit field at bit `bit`, leaving every
/// other bit of the line as it was: the store counterpart of
/// [`load_field`], under the same layout conditions.
///
/// # Panics
///
/// Panics if the word would run past the line; debug builds also check
/// that the field lies within the word and that `value` fits.
#[inline]
pub(crate) fn store_field(image: &mut [u8; CACHELINE_BYTES], bit: usize, width: u32, value: u64) {
    debug_assert!(bit % 8 + width as usize <= 64, "field at {bit} straddles its word");
    debug_assert!(value & !low_mask(width) == 0, "value {value:#x} does not fit in {width} bits");
    let (byte, shift) = (bit / 8, bit % 8);
    let mask = low_mask(width) << shift;
    let word = (window(image, byte) & !mask) | ((value << shift) & mask);
    image[byte..byte + 8].copy_from_slice(&word.to_le_bytes());
}

/// Writes the fields of a line image in order, starting at bit 0.
///
/// Bits never written stay zero, so [`BitWriter::finish`] before the MAC
/// field yields the MAC-input form of the image.
#[derive(Debug)]
pub(crate) struct BitWriter {
    words: [u64; LINE_WORDS],
    /// Words already completed.
    full: usize,
    /// Bits of the pending word held in `acc` (always < 64).
    fill: u32,
    acc: u64,
}

impl BitWriter {
    /// A writer positioned at bit 0 of an all-zero line.
    #[must_use]
    pub fn new() -> Self {
        BitWriter {
            words: [0; LINE_WORDS],
            full: 0,
            fill: 0,
            acc: 0,
        }
    }

    /// Bit offset of the next field.
    #[must_use]
    pub fn position(&self) -> usize {
        self.full * 64 + self.fill as usize
    }

    /// Appends `value` as a `width`-bit field.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64`, the field extends past the end of the line,
    /// or `value` does not fit in `width` bits.
    pub fn write(&mut self, width: u32, value: u64) {
        check_run(self.position(), width, 1);
        check_fits(value, width);
        self.push(width, value);
    }

    /// Appends each of `values` as a `width`-bit field: one call per
    /// counter array, with the checks of [`BitWriter::write`] made once
    /// for the whole run. The fields are gathered `64 / width` at a time
    /// (21 three-bit minors, four 16-bit ZCC counters) into one chunk,
    /// which is appended like a single field.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64`, the run extends past the end of the line,
    /// or any value does not fit in `width` bits.
    pub fn write_all<T: Copy + Into<u64>>(&mut self, width: u32, values: &[T]) {
        check_run(self.position(), width, values.len());
        if width == 0 {
            return;
        }
        let mut seen = 0u64;
        for run in values.chunks((64 / width) as usize) {
            let mut chunk = 0u64;
            for (j, &value) in run.iter().enumerate() {
                let value = value.into();
                seen |= value;
                chunk |= value << (j as u32 * width);
            }
            self.push(width * run.len() as u32, chunk);
        }
        // Checked on the union of the run's bits: a too-wide value has
        // already overlapped its neighbours, but the image is never
        // returned.
        check_fits(seen, width);
    }

    /// Appends a field whose range the caller has checked.
    fn push(&mut self, width: u32, value: u64) {
        self.acc |= value << self.fill;
        let end = self.fill + width;
        if end >= 64 {
            self.words[self.full] = self.acc;
            self.full += 1;
            // The bits of `value` that did not fit the completed word
            // (none when the field ended exactly on the boundary).
            self.acc = value.checked_shr(64 - self.fill).unwrap_or(0);
            self.fill = end - 64;
        } else {
            self.fill = end;
        }
    }

    /// The finished 64-byte image.
    #[must_use]
    pub fn finish(mut self) -> [u8; CACHELINE_BYTES] {
        if self.fill > 0 {
            self.words[self.full] = self.acc;
        }
        to_bytes(&self.words)
    }
}

/// Reads the fields of a line image in order, starting at bit 0.
#[derive(Debug)]
pub(crate) struct BitReader {
    words: [u64; LINE_WORDS],
    bit: usize,
}

impl BitReader {
    /// A reader positioned at bit 0 of `image`.
    #[must_use]
    pub fn new(image: &[u8; CACHELINE_BYTES]) -> Self {
        BitReader {
            words: to_words(image),
            bit: 0,
        }
    }

    /// Reads the next `width` bits as a `u64`.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64` or the field extends past the end of the line.
    pub fn read(&mut self, width: u32) -> u64 {
        check_run(self.bit, width, 1);
        self.next_field(width)
    }

    /// Reads the next `out.len()` fields of `width` bits each into `out`:
    /// one call per counter array, with the checks of [`BitReader::read`]
    /// made once for the whole run. Like [`BitWriter::write_all`], it
    /// moves `64 / width` fields per word-level read.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64` or the run extends past the end of the line.
    pub fn read_all(&mut self, width: u32, out: &mut [u64]) {
        check_run(self.bit, width, out.len());
        if width == 0 {
            out.fill(0);
            return;
        }
        let mask = low_mask(width);
        for run in out.chunks_mut((64 / width) as usize) {
            let chunk = self.next_field(width * run.len() as u32);
            for (j, field) in run.iter_mut().enumerate() {
                *field = (chunk >> (j as u32 * width)) & mask;
            }
        }
    }

    /// The next field, whose range the caller has checked.
    fn next_field(&mut self, width: u32) -> u64 {
        if width == 0 {
            return 0;
        }
        let (idx, off) = (self.bit / 64, (self.bit % 64) as u32);
        let mut value = self.words[idx] >> off;
        if off + width > 64 {
            value |= self.words[idx + 1] << (64 - off);
        }
        self.bit += width as usize;
        value & low_mask(width)
    }

    /// Moves to bit offset `bit`, forwards or backwards.
    ///
    /// # Panics
    ///
    /// Panics if `bit` lies past the end of the line.
    pub fn seek(&mut self, bit: usize) {
        assert!(bit <= CACHELINE_BITS, "cannot seek to bit {bit}");
        self.bit = bit;
    }

    /// Offset of the first set bit in `[position, end)`, found a word at a
    /// time; `None` when the range is all zero. The position is unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `end` lies past the end of the line.
    #[must_use]
    pub fn first_one_before(&self, end: usize) -> Option<usize> {
        assert!(end <= CACHELINE_BITS, "range end {end} past the line");
        let mut bit = self.bit;
        while bit < end {
            let (idx, off) = (bit / 64, (bit % 64) as u32);
            let width = (64 - off).min((end - bit) as u32);
            let window = (self.words[idx] >> off) & low_mask(width);
            if window != 0 {
                return Some(bit + window.trailing_zeros() as usize);
            }
            bit += width as usize;
        }
        None
    }
}

/// Reads `width` bits starting at bit offset `bit` (LSB-first within the
/// line) as a `u64`.
///
/// # Panics
///
/// Panics if `width > 64` or the field extends past the end of the line.
pub fn get_bits(buf: &[u8; CACHELINE_BYTES], bit: usize, width: usize) -> u64 {
    let width = u32::try_from(width).unwrap_or(u32::MAX);
    let mut reader = BitReader::new(buf);
    reader.seek(bit);
    reader.read(width)
}

/// Writes `width` bits of `value` starting at bit offset `bit`, leaving the
/// rest of the line as it was.
///
/// # Panics
///
/// Panics if `width > 64`, the field extends past the end of the line, or
/// `value` does not fit in `width` bits.
pub fn set_bits(buf: &mut [u8; CACHELINE_BYTES], bit: usize, width: usize, value: u64) {
    let width = u32::try_from(width).unwrap_or(u32::MAX);
    check_run(bit, width, 1);
    check_fits(value, width);
    if width == 0 {
        return;
    }
    let mut words = to_words(buf);
    let (idx, off) = (bit / 64, (bit % 64) as u32);
    let mask = low_mask(width);
    words[idx] = (words[idx] & !(mask << off)) | (value << off);
    if off + width > 64 {
        let spill = 64 - off;
        words[idx + 1] = (words[idx + 1] & !(mask >> spill)) | (value >> spill);
    }
    *buf = to_bytes(&words);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_simple() {
        let mut buf = [0u8; CACHELINE_BYTES];
        set_bits(&mut buf, 3, 7, 0x55);
        assert_eq!(get_bits(&buf, 3, 7), 0x55);
        // Neighbours untouched.
        assert_eq!(get_bits(&buf, 0, 3), 0);
        assert_eq!(get_bits(&buf, 10, 10), 0);
    }

    #[test]
    fn roundtrip_across_byte_boundaries() {
        let mut buf = [0u8; CACHELINE_BYTES];
        set_bits(&mut buf, 13, 57, 0x1ff_ffff_ffff_ffff);
        assert_eq!(get_bits(&buf, 13, 57), 0x1ff_ffff_ffff_ffff);
    }

    #[test]
    fn roundtrip_across_word_boundaries() {
        let mut buf = [0xa5u8; CACHELINE_BYTES];
        set_bits(&mut buf, 100, 64, 0x0123_4567_89ab_cdef);
        assert_eq!(get_bits(&buf, 100, 64), 0x0123_4567_89ab_cdef);
        // The bits on either side of the field keep their old pattern.
        assert_eq!(get_bits(&buf, 96, 4), 0x5);
        assert_eq!(get_bits(&buf, 164, 4), 0xa);
    }

    #[test]
    fn full_width_field() {
        let mut buf = [0u8; CACHELINE_BYTES];
        set_bits(&mut buf, 448, 64, u64::MAX);
        assert_eq!(get_bits(&buf, 448, 64), u64::MAX);
    }

    #[test]
    fn overwrite_clears_old_bits() {
        let mut buf = [0u8; CACHELINE_BYTES];
        set_bits(&mut buf, 8, 8, 0xff);
        set_bits(&mut buf, 8, 8, 0x01);
        assert_eq!(get_bits(&buf, 8, 8), 0x01);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn rejects_oversized_value() {
        let mut buf = [0u8; CACHELINE_BYTES];
        set_bits(&mut buf, 0, 3, 8);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_field() {
        let buf = [0u8; CACHELINE_BYTES];
        let _ = get_bits(&buf, 510, 8);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn writer_rejects_fields_past_the_line() {
        let mut writer = BitWriter::new();
        for _ in 0..7 {
            writer.write(64, 0);
        }
        writer.write(52, 0);
        writer.write(13, 0);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn writer_rejects_oversized_value() {
        BitWriter::new().write(6, 64);
    }

    #[test]
    fn dense_packing_of_3_bit_fields() {
        // The SC-128 minor array: 128 x 3-bit fields must pack without
        // interference.
        let mut buf = [0u8; CACHELINE_BYTES];
        for i in 0..128 {
            set_bits(&mut buf, 64 + 3 * i, 3, (i % 8) as u64);
        }
        for i in 0..128 {
            assert_eq!(get_bits(&buf, 64 + 3 * i, 3), (i % 8) as u64, "slot {i}");
        }
    }

    #[test]
    fn writer_and_reader_agree_with_the_field_helpers() {
        // Mixed widths that straddle word boundaries at varying offsets.
        let fields: Vec<(u32, u64)> = (0..40)
            .map(|i| {
                let width = [1, 3, 7, 13, 57, 64][i % 6];
                (
                    width,
                    0x9e37_79b9_7f4a_7c15_u64.rotate_left(i as u32) & low_mask(width),
                )
            })
            .take_while({
                let mut total = 0;
                move |&(width, _)| {
                    total += width as usize;
                    total <= CACHELINE_BITS
                }
            })
            .collect();
        let mut writer = BitWriter::new();
        let mut expected = [0u8; CACHELINE_BYTES];
        for &(width, value) in &fields {
            set_bits(&mut expected, writer.position(), width as usize, value);
            writer.write(width, value);
        }
        assert_eq!(writer.finish(), expected);
        let mut reader = BitReader::new(&expected);
        for &(width, value) in &fields {
            assert_eq!(reader.read(width), value);
        }
    }

    #[test]
    fn single_field_accessors_agree_with_the_field_helpers() {
        let mut buf = [0xa5u8; CACHELINE_BYTES];
        for (bit, width, value) in [(1, 49, 0x1_2345_6789_abcd), (7, 57, 1), (50, 7, 127), (447, 1, 1)] {
            store_field(&mut buf, bit, width, value);
            assert_eq!(load_field(&buf, bit, width), value);
            assert_eq!(get_bits(&buf, bit, width as usize), value);
        }
        store_field(&mut buf, 448, 64, u64::MAX - 1);
        assert_eq!(load_field(&buf, 448, 64), u64::MAX - 1);
        // The bits around a field keep their old pattern.
        assert_eq!(get_bits(&buf, 448 - 4, 4), 0xa);
        assert_eq!(get_bits(&buf, 64, 8), 0xa5);
    }

    #[test]
    fn first_one_before_scans_by_word() {
        let mut buf = [0u8; CACHELINE_BYTES];
        let mut reader = BitReader::new(&buf);
        assert_eq!(reader.first_one_before(CACHELINE_BITS), None);
        set_bits(&mut buf, 300, 1, 1);
        reader = BitReader::new(&buf);
        reader.seek(196);
        assert_eq!(reader.first_one_before(448), Some(300));
        assert_eq!(reader.first_one_before(300), None);
        reader.seek(301);
        assert_eq!(reader.first_one_before(448), None);
    }
}
