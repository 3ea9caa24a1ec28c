//! Durable records: the on-disk format of the corpus sample store
//! (`ASGS` shards, see [`crate::store`]).
//!
//! # Framing
//!
//! A file is `magic(4) · version(u16) · record*`, and every record is
//! `tag(u8) · len(u32) · payload · fnv64(payload)`. All integers are
//! little-endian and floats are stored as exact IEEE-754 bit patterns, so a
//! decode is bit-identical to what was encoded (NaN payloads and `-0.0`
//! included). [`Records::open`] checks the magic, the version and every
//! length against the bytes that are actually there; [`Record::verify`]
//! checks one payload against its stored checksum, on whichever thread
//! decodes it. The checksum covers the payload only, so callers accept
//! only the tags they expect at each position and then validate the record
//! semantics. Any failure is an `InvalidData` error: the file is never
//! half-trusted.
//!
//! # Trailer fold
//!
//! Writer and reader both keep a running FNV-1a-64 over each record's
//! 13-byte trailer, `tag · len · fnv64(payload)` ([`RecordFile::fold`],
//! [`Records::fold`]). It costs O(records), not O(bytes), and a caller
//! that stores it beside the file (the store's manifest does) can detect
//! any changed byte without hashing the file a second time: a changed
//! payload fails its record checksum, and a changed tag, length or stored
//! checksum changes the fold. The magic and version are not folded, since
//! `open` checks them itself.
//!
//! # Publish and sweep
//!
//! [`publish`] writes its parts (a [`RecordFile`]'s, say) in order to a
//! unique `<stem>.tmp<pid>-<n>` sibling, fsyncs it, renames it over the
//! target, then fsyncs the parent directory, so after a crash at any step
//! the target is either the old file, the complete new file, or absent —
//! never torn. A crash before the rename leaves only the
//! tmp file, which [`sweep_tmp`] deletes on the next open. The sweep matches
//! exactly the names `publish` creates, so anything else a user keeps in the
//! directory is left alone.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a, 64-bit: record checksums and cheap content hashes for ids.
pub fn fnv64(bytes: &[u8]) -> u64 {
    fnv64_extend(FNV_OFFSET, bytes)
}

/// Continue an FNV-1a-64 hash whose state is `h` over `bytes`.
fn fnv64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `fold` extended over one record's trailer, `tag · len · sum`.
fn fold_trailer(fold: u64, tag: u8, len: u32, sum: u64) -> u64 {
    let mut trailer = [0u8; 13];
    trailer[0] = tag;
    trailer[1..5].copy_from_slice(&len.to_le_bytes());
    trailer[5..].copy_from_slice(&sum.to_le_bytes());
    fnv64_extend(fold, &trailer)
}

/// An `InvalidData` error: the bytes on disk are not a valid record.
pub fn bad_data(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

/// Append-only little-endian byte sink for one record payload.
#[derive(Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// IEEE-754 bit pattern: bit-exact round-trip incl. NaN payloads, -0.0.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }
    pub fn put_str(&mut self, s: &str) {
        self.put_usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Cursor over one record payload. Every read is length-checked.
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| bad_data("record payload truncated"))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn array<const N: usize>(&mut self) -> io::Result<[u8; N]> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    pub fn get_u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }
    pub fn get_u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }
    pub fn get_usize(&mut self) -> io::Result<usize> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| bad_data("length overflows usize"))
    }
    pub fn get_i64(&mut self) -> io::Result<i64> {
        Ok(i64::from_le_bytes(self.array()?))
    }
    pub fn get_f64(&mut self) -> io::Result<f64> {
        Ok(f64::from_bits(self.get_u64()?))
    }
    pub fn get_bool(&mut self) -> io::Result<bool> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(bad_data(format!("invalid bool byte {v}"))),
        }
    }
    pub fn get_str(&mut self) -> io::Result<String> {
        let len = self.get_usize()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| bad_data("invalid utf-8 in record"))
    }

    /// Read a `u64` element count, rejecting counts that cannot fit in the
    /// remaining payload at `min_elem_bytes` each — a corrupt length must
    /// not turn into a huge allocation.
    pub fn get_count(&mut self, min_elem_bytes: usize) -> io::Result<usize> {
        let n = self.get_usize()?;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.buf.len() - self.pos {
            return Err(bad_data("element count exceeds the record"));
        }
        Ok(n)
    }

    /// Require the payload to be consumed exactly (no trailing bytes).
    pub fn finish(&self) -> io::Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(bad_data("trailing bytes in record payload"))
        }
    }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// A record file image under construction: header, then records. The
/// image is kept as a list of parts, so a payload moved in by
/// [`Self::record_owned`] is written out from where it was encoded rather
/// than copied into one buffer beside it.
pub struct RecordFile {
    /// Finished parts of the image, in order; `tail` follows them.
    parts: Vec<Vec<u8>>,
    tail: Vec<u8>,
    fold: u64,
}

impl RecordFile {
    pub fn new(magic: [u8; 4], version: u16) -> Self {
        let mut tail = Vec::with_capacity(256);
        tail.extend_from_slice(&magic);
        tail.extend_from_slice(&version.to_le_bytes());
        RecordFile { parts: Vec::new(), tail, fold: FNV_OFFSET }
    }

    /// Fold a record's trailer and append its `tag · len` header.
    fn begin(&mut self, tag: u8, payload: &[u8], sum: u64) {
        debug_assert!(payload.len() <= u32::MAX as usize, "record payload over 4 GiB");
        let len = u32::try_from(payload.len()).unwrap_or(u32::MAX);
        self.fold = fold_trailer(self.fold, tag, len, sum);
        self.tail.push(tag);
        self.tail.extend_from_slice(&len.to_le_bytes());
    }

    /// Append one `tag · len · payload · fnv64(payload)` record.
    pub fn record(&mut self, tag: u8, payload: &[u8]) {
        let sum = fnv64(payload);
        self.begin(tag, payload, sum);
        self.tail.extend_from_slice(payload);
        self.tail.extend_from_slice(&sum.to_le_bytes());
    }

    /// [`Self::record`] for a payload the caller has already encoded and
    /// checksummed as `sum` (on a pool worker, say): it is moved into the
    /// image, neither hashed nor copied again.
    pub fn record_owned(&mut self, tag: u8, payload: Vec<u8>, sum: u64) {
        debug_assert_eq!(sum, fnv64(&payload), "record_owned given a wrong checksum");
        self.begin(tag, &payload, sum);
        self.parts.push(std::mem::take(&mut self.tail));
        self.parts.push(payload);
        self.tail.extend_from_slice(&sum.to_le_bytes());
    }

    /// The trailer fold over the records appended so far.
    pub fn fold(&self) -> u64 {
        self.fold
    }

    /// The image, in order, as the parts [`publish`] writes.
    pub fn parts(&self) -> impl Iterator<Item = &[u8]> {
        self.parts.iter().chain([&self.tail]).map(Vec::as_slice)
    }

    /// The image as one buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.parts().collect::<Vec<_>>().concat()
    }
}

/// One framed record of a file image. Its payload is unverified until
/// [`Record::verify`] says otherwise.
pub struct Record<'a> {
    pub tag: u8,
    payload: &'a [u8],
    sum: u64,
}

impl<'a> Record<'a> {
    /// The payload, once it matches its stored checksum.
    pub fn verify(&self) -> io::Result<&'a [u8]> {
        if fnv64(self.payload) == self.sum {
            Ok(self.payload)
        } else {
            Err(bad_data(format!("record checksum mismatch (tag {})", self.tag)))
        }
    }
}

/// A record file image's framing, walked to its last byte: every record
/// in file order, plus the trailer fold over all of them. No payload has
/// been hashed yet.
pub struct Records<'a> {
    records: Vec<Record<'a>>,
    fold: u64,
}

impl<'a> Records<'a> {
    /// Check the magic, the version and every record length, and fold the
    /// trailers. A file that ends inside a record is an error.
    pub fn open(buf: &'a [u8], magic: [u8; 4], version: u16) -> io::Result<Self> {
        if buf.len() < 6 || buf[..4] != magic {
            return Err(bad_data("bad file magic"));
        }
        let found = u16::from_le_bytes([buf[4], buf[5]]);
        if found != version {
            return Err(bad_data(format!("unsupported file version {found}")));
        }
        let mut rest = &buf[6..];
        let mut records = Vec::new();
        let mut fold = FNV_OFFSET;
        while !rest.is_empty() {
            if rest.len() < 5 {
                return Err(bad_data("file truncated at record header"));
            }
            let tag = rest[0];
            let len = u32::from_le_bytes([rest[1], rest[2], rest[3], rest[4]]);
            let body = &rest[5..];
            let n = len as usize;
            if body.len() < n.saturating_add(8) {
                return Err(bad_data("file truncated inside record"));
            }
            let mut sum = [0u8; 8];
            sum.copy_from_slice(&body[n..n + 8]);
            let sum = u64::from_le_bytes(sum);
            fold = fold_trailer(fold, tag, len, sum);
            records.push(Record { tag, payload: &body[..n], sum });
            rest = &body[n + 8..];
        }
        Ok(Records { records, fold })
    }

    /// The trailer fold over every record in the file.
    pub fn fold(&self) -> u64 {
        self.fold
    }

    /// Every record, in file order.
    pub fn into_records(self) -> Vec<Record<'a>> {
        self.records
    }
}

// ---------------------------------------------------------------------------
// Publish and sweep
// ---------------------------------------------------------------------------

/// Process-wide suffix for tmp names, so concurrent publishers (threads or
/// instances) in one process never share a tmp file.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

fn tmp_path(path: &Path) -> PathBuf {
    let n = TMP_COUNTER.fetch_add(1, Ordering::Relaxed) + 1;
    path.with_extension(format!("tmp{}-{n}", std::process::id()))
}

/// Whether `name` is a tmp name [`publish`] creates: `<stem>.tmp<pid>-<n>`.
fn is_tmp_name(name: &str) -> bool {
    let digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
    name.rsplit_once(".tmp")
        .and_then(|(_, ids)| ids.split_once('-'))
        .is_some_and(|(pid, n)| digits(pid) && digits(n))
}

/// Atomically replace `path` with the concatenation of `parts`: tmp
/// write, file fsync, rename, parent-directory fsync. On error the tmp
/// file is removed; `path` holds either its previous content or the new
/// one, never a mix.
pub fn publish<'a>(path: &Path, parts: impl IntoIterator<Item = &'a [u8]>) -> io::Result<()> {
    let tmp = tmp_path(path);
    let written = (|| {
        let mut w = io::BufWriter::with_capacity(1 << 16, fs::File::create(&tmp)?);
        for part in parts {
            w.write_all(part)?;
        }
        w.into_inner().map_err(io::IntoInnerError::into_error)?.sync_all()?;
        fs::rename(&tmp, path)
    })();
    if let Err(e) = written {
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => fs::File::open(dir)?.sync_all(),
        _ => Ok(()),
    }
}

/// Delete the tmp files a crashed [`publish`] left in `dir` (not
/// recursive). Every other file is kept.
pub fn sweep_tmp(dir: &Path) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if entry.file_type()?.is_file() && entry.file_name().to_str().is_some_and(is_tmp_name) {
            let _ = fs::remove_file(entry.path());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("autosuggest-durable-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn fnv64_matches_reference_vectors() {
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn reader_frames_what_the_writer_wrote_and_folds_the_same_trailers() {
        let mut file = RecordFile::new(*b"TEST", 3);
        file.record(1, b"alpha");
        file.record_owned(2, vec![], fnv64(b""));
        file.record(7, &[0xff; 300]);
        file.record_owned(8, vec![1, 2, 3], fnv64(&[1, 2, 3]));
        let fold = file.fold();
        let bytes = file.to_bytes();
        let records = Records::open(&bytes, *b"TEST", 3).unwrap();
        assert_eq!(records.fold(), fold);
        let records = records.into_records();
        let read: Vec<(u8, Vec<u8>)> =
            records.iter().map(|r| (r.tag, r.verify().unwrap().to_vec())).collect();
        let want = [(1, b"alpha".to_vec()), (2, vec![]), (7, vec![0xff; 300]), (8, vec![1, 2, 3])];
        assert_eq!(read, want);
        // The fold is FNV-1a over the concatenated 13-byte trailers.
        let trailers: Vec<u8> = records
            .iter()
            .flat_map(|r| {
                let mut t = vec![r.tag];
                t.extend_from_slice(&(r.payload.len() as u32).to_le_bytes());
                t.extend_from_slice(&fnv64(r.payload).to_le_bytes());
                t
            })
            .collect();
        assert_eq!(fold, fnv64(&trailers));
        assert_eq!(RecordFile::new(*b"TEST", 3).fold(), fnv64(b""));
    }

    #[test]
    fn framing_errors_and_payload_errors_are_invalid_data() {
        let mut file = RecordFile::new(*b"TEST", 3);
        file.record(1, b"payload");
        let bytes = file.to_bytes();
        for cut in 0..bytes.len() {
            if cut == 6 {
                continue; // a header and no records is a valid empty file
            }
            let err = Records::open(&bytes[..cut], *b"TEST", 3).err().expect("truncation");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "cut at {cut}");
        }
        assert!(Records::open(&bytes, *b"TEST", 4).is_err(), "other version");
        assert!(Records::open(&bytes, *b"TSET", 3).is_err(), "other magic");
        let mut flipped = bytes.clone();
        flipped[8 + 5] ^= 1; // inside the payload: framing fine, checksum not
        let records = Records::open(&flipped, *b"TEST", 3).unwrap().into_records();
        assert_eq!(records[0].verify().unwrap_err().kind(), io::ErrorKind::InvalidData);
        let mut trailing = bytes;
        trailing.push(0);
        assert!(Records::open(&trailing, *b"TEST", 3).is_err());
    }

    #[test]
    fn publish_replaces_atomically_and_leaves_no_tmp() {
        let dir = tmpdir("publish");
        let target = dir.join("data.bin");
        publish(&target, [b"one".as_slice()]).unwrap();
        publish(&target, [b"t".as_slice(), b"", b"wo"]).unwrap();
        assert_eq!(fs::read(&target).unwrap(), b"two");
        let names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["data.bin".to_string()]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_deletes_exactly_the_names_publish_creates() {
        let dir = tmpdir("sweep");
        let made = tmp_path(&dir.join("shard-00001.asg"));
        let swept = ["manifest.tmp12-3", "00ab.tmp1-1", "x.y.tmp99999-10"];
        let kept = [
            "notes.txt", "Cargo.toml", "Makefile", "a.shard", "shard-00001.asg", "manifest.json",
            "tmp1-2", "x.tmp", "x.tmp1-", "x.tmp-1", "x.tmp1-2a", "x.tmpa-1", "x.temp1-2",
        ];
        fs::write(&made, b"x").unwrap();
        for name in swept.iter().chain(&kept) {
            fs::write(dir.join(name), b"x").unwrap();
        }
        fs::create_dir_all(dir.join("sub.tmp1-1")).unwrap(); // directories stay
        sweep_tmp(&dir).unwrap();
        let mut names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        let mut want: Vec<String> = kept.iter().chain(&["sub.tmp1-1"]).map(|s| s.to_string()).collect();
        want.sort();
        assert_eq!(names, want);
        let _ = fs::remove_dir_all(&dir);
    }
}
