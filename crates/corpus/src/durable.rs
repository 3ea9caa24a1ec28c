//! Durable records: the on-disk format of the corpus sample store
//! (`ASGS` shards, see [`crate::store`]).
//!
//! # Framing
//!
//! A file is `magic(4) · version(u16) · record*`, and every record is
//! `tag(u8) · len(u32) · payload · fnv64(payload)`. All integers are
//! little-endian and floats are stored as exact IEEE-754 bit patterns, so a
//! decode is bit-identical to what was encoded (NaN payloads and `-0.0`
//! included). A reader checks the magic, the version, every length against
//! the bytes that are actually there, and every record checksum. The
//! checksum covers the payload only, so callers accept only the tags they
//! expect at each position and then validate the record semantics. Any
//! failure is an `InvalidData` error: the file is never half-trusted.
//!
//! # Publish and sweep
//!
//! [`publish`] writes a unique `<stem>.tmp<pid>-<n>` sibling, fsyncs it,
//! renames it over the target, then fsyncs the parent directory, so after a
//! crash at any step the target is either the old file, the complete new
//! file, or absent — never torn. A crash before the rename leaves only the
//! tmp file, which [`sweep_tmp`] deletes on the next open. The sweep matches
//! exactly the names `publish` creates, so anything else a user keeps in the
//! directory is left alone.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// FNV-1a, 64-bit: record checksums, whole-file checksums, and cheap
/// content hashes for ids.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
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

/// A record file image under construction: header, then records.
pub struct RecordFile {
    buf: Vec<u8>,
}

impl RecordFile {
    pub fn new(magic: [u8; 4], version: u16) -> Self {
        let mut buf = Vec::with_capacity(256);
        buf.extend_from_slice(&magic);
        buf.extend_from_slice(&version.to_le_bytes());
        RecordFile { buf }
    }

    /// Append one `tag · len · payload · fnv64(payload)` record.
    pub fn record(&mut self, tag: u8, payload: &[u8]) {
        debug_assert!(payload.len() <= u32::MAX as usize, "record payload over 4 GiB");
        let len = u32::try_from(payload.len()).unwrap_or(u32::MAX);
        self.buf.push(tag);
        self.buf.extend_from_slice(&len.to_le_bytes());
        self.buf.extend_from_slice(payload);
        self.buf.extend_from_slice(&fnv64(payload).to_le_bytes());
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Reader over a record file image: header checked on open, one verified
/// record per [`Records::next_record`].
pub struct Records<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Records<'a> {
    /// Check the magic and version and position at the first record.
    pub fn open(buf: &'a [u8], magic: [u8; 4], version: u16) -> io::Result<Self> {
        if buf.len() < 6 || buf[..4] != magic {
            return Err(bad_data("bad file magic"));
        }
        let found = u16::from_le_bytes([buf[4], buf[5]]);
        if found != version {
            return Err(bad_data(format!("unsupported file version {found}")));
        }
        Ok(Records { buf, pos: 6 })
    }

    /// The next `(tag, payload)`, its checksum already verified.
    pub fn next_record(&mut self) -> io::Result<(u8, &'a [u8])> {
        let rest = &self.buf[self.pos..];
        if rest.len() < 5 {
            return Err(bad_data("file truncated at record header"));
        }
        let tag = rest[0];
        let len = u32::from_le_bytes([rest[1], rest[2], rest[3], rest[4]]) as usize;
        let body = &rest[5..];
        if body.len() < len.saturating_add(8) {
            return Err(bad_data("file truncated inside record"));
        }
        let (payload, sum) = body.split_at(len);
        let mut stored = [0u8; 8];
        stored.copy_from_slice(&sum[..8]);
        if fnv64(payload) != u64::from_le_bytes(stored) {
            return Err(bad_data(format!("record checksum mismatch (tag {tag})")));
        }
        self.pos += 5 + len + 8;
        Ok((tag, payload))
    }

    /// Require the file to end exactly here (no trailing bytes).
    pub fn finish(&self) -> io::Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(bad_data("trailing bytes after the last record"))
        }
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

/// Atomically replace `path` with `bytes`: tmp write, file fsync, rename,
/// parent-directory fsync. On error the tmp file is removed; `path` holds
/// either its previous content or `bytes`, never a mix.
pub fn publish(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = tmp_path(path);
    let written = (|| {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
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
    fn publish_replaces_atomically_and_leaves_no_tmp() {
        let dir = tmpdir("publish");
        let target = dir.join("data.bin");
        publish(&target, b"one").unwrap();
        publish(&target, b"two").unwrap();
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
