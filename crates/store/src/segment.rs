//! Cold on-disk tier: sorted, immutable spill segments.
//!
//! A segment is one eviction batch (or one compaction output) written
//! as an append-only sorted run — the mini-LSM shape. Segments are
//! scratch: no process reads one back after the store that wrote it
//! is gone, so a segment is never synced, and the file holds entries
//! only. It is a sequence of pages of 512 entries (the last page may
//! be shorter), each page its keys then their mark bytes:
//!
//! ```text
//! page 0: keys 0..512 (u64 LE, sorted ascending, unique) | marks 0..512 (u8)
//! page 1: keys 512..1024                                 | marks 512..1024
//! …
//! ```
//!
//! [`Segment::write`] keeps what a probe needs in memory, built from
//! the entries it just wrote: the min/max fence keys, a Bloom sidecar
//! and a sparse page index (each page's first key). A point probe
//! fence-checks, consults the sidecar, picks the one page that can hold
//! the key from the index, and reads that page — keys and marks — with
//! one positioned read (`read_at`). It never mutates the file.
//!
//! [`SegmentIter`] streams a segment in key order, a few pages per
//! read — the input side of k-way merge compaction.

use crate::bloom::SplitBloom;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

/// Entries per page: 4 KiB of keys.
const PAGE_KEYS: usize = 512;
/// Bytes one entry occupies on disk (key + mark byte).
const ENTRY_BYTES: usize = 9;
/// Pages [`SegmentIter`] reads at a time.
const ITER_PAGES: usize = 8;

fn read_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    #[cfg(unix)]
    {
        use std::os::unix::fs::FileExt;
        file.read_exact_at(buf, offset)
    }
    #[cfg(windows)]
    {
        use std::os::windows::fs::FileExt;
        let mut done = 0;
        while done < buf.len() {
            let n = file.seek_read(&mut buf[done..], offset + done as u64)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            done += n;
        }
        Ok(())
    }
}

/// Key `i` of a page buffer read from disk.
fn key_at(page: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(page[i * 8..i * 8 + 8].try_into().expect("a key is 8 bytes"))
}

/// An immutable sorted run on disk; probed without loading the entries.
#[derive(Debug)]
pub struct Segment {
    file: File,
    path: PathBuf,
    count: usize,
    min: u64,
    max: u64,
    bloom: SplitBloom,
    /// First key of each page.
    index: Vec<u64>,
}

impl Segment {
    /// Write `entries` (sorted ascending by key, unique) to a new file
    /// at `path`, and return the probe-ready segment.
    pub fn write(path: &Path, entries: &[(u64, u8)]) -> io::Result<Segment> {
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0), "entries sorted+unique");
        // create_new: a segment path is written exactly once per store
        // lifetime, so an existing file means two stores share a spill
        // directory — fail loudly instead of truncating a sibling's
        // segment out from under its open fd
        let file = File::options().read(true).write(true).create_new(true).open(path)?;
        let mut w = BufWriter::new(&file);
        for page in entries.chunks(PAGE_KEYS) {
            for &(k, _) in page {
                w.write_all(&k.to_le_bytes())?;
            }
            for &(_, m) in page {
                w.write_all(&[m])?;
            }
        }
        w.flush()?;
        drop(w);
        let mut bloom = SplitBloom::with_capacity(entries.len());
        for &(k, _) in entries {
            bloom.insert(k);
        }
        Ok(Segment {
            file,
            path: path.to_path_buf(),
            count: entries.len(),
            min: entries.first().map_or(u64::MAX, |e| e.0),
            max: entries.last().map_or(0, |e| e.0),
            bloom,
            index: entries.iter().step_by(PAGE_KEYS).map(|e| e.0).collect(),
        })
    }

    pub fn len(&self) -> usize {
        self.count
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Mark byte of `key`, if present: fence check, Bloom sidecar, then
    /// one read of the page the index points at.
    pub fn get(&self, key: u64) -> io::Result<Option<u8>> {
        if self.count == 0 || key < self.min || key > self.max || !self.bloom.may_contain(key) {
            return Ok(None);
        }
        // the last page whose first key is <= key (page 0's is min)
        let page = self.index.partition_point(|&first| first <= key) - 1;
        let keys = PAGE_KEYS.min(self.count - page * PAGE_KEYS);
        let mut buf = [0u8; PAGE_KEYS * ENTRY_BYTES];
        let buf = &mut buf[..keys * ENTRY_BYTES];
        read_at(&self.file, buf, (page * PAGE_KEYS * ENTRY_BYTES) as u64)?;
        let (mut lo, mut hi) = (0, keys);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match key_at(buf, mid).cmp(&key) {
                std::cmp::Ordering::Equal => return Ok(Some(buf[keys * 8 + mid])),
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
            }
        }
        Ok(None)
    }

    /// Stream the entries in key order (compaction input).
    pub fn stream(&self) -> SegmentIter<'_> {
        SegmentIter { seg: self, next: 0, buf: Vec::new(), pos: 0 }
    }
}

/// Buffered sequential reader over one segment; not an `Iterator` so
/// I/O errors propagate instead of hiding inside `Option`.
pub struct SegmentIter<'a> {
    seg: &'a Segment,
    /// Index of the first entry not yet in `buf`.
    next: usize,
    buf: Vec<(u64, u8)>,
    pos: usize,
}

impl SegmentIter<'_> {
    pub fn next_entry(&mut self) -> io::Result<Option<(u64, u8)>> {
        if self.pos == self.buf.len() {
            if self.next == self.seg.count {
                return Ok(None);
            }
            self.refill()?;
        }
        self.pos += 1;
        Ok(Some(self.buf[self.pos - 1]))
    }

    /// Read the next [`ITER_PAGES`] pages (`next` is page-aligned).
    fn refill(&mut self) -> io::Result<()> {
        let n = (ITER_PAGES * PAGE_KEYS).min(self.seg.count - self.next);
        let mut raw = vec![0u8; n * ENTRY_BYTES];
        read_at(&self.seg.file, &mut raw, (self.next * ENTRY_BYTES) as u64)?;
        self.buf.clear();
        for page in raw.chunks(PAGE_KEYS * ENTRY_BYTES) {
            let (keys, marks) = page.split_at(page.len() / ENTRY_BYTES * 8);
            self.buf.extend((0..marks.len()).map(|i| (key_at(keys, i), marks[i])));
        }
        self.next += n;
        self.pos = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wave-seg-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        // segments are create_new; clear leftovers from a crashed run
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn write_and_probe() {
        let entries: Vec<(u64, u8)> = (0..5000u64).map(|k| (k * 3, (k % 3 + 1) as u8)).collect();
        let path = tmp("probe.wseg");
        let seg = Segment::write(&path, &entries).unwrap();
        assert_eq!(seg.len(), 5000);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 5000 * ENTRY_BYTES as u64);
        for &(k, m) in entries.iter().step_by(97) {
            assert_eq!(seg.get(k).unwrap(), Some(m));
        }
        assert_eq!(seg.get(1).unwrap(), None); // between fences, absent
        assert_eq!(seg.get(u64::MAX).unwrap(), None); // past max fence
        std::fs::remove_file(path).unwrap();
    }

    /// Page-boundary cases: runs of 1, 511, 512, 513 and 1025 keys
    /// (one short page, one full page, a full page plus one, two full
    /// pages plus one). Every key answers — the first and last key of
    /// each page among them — and so do the gaps between keys, the
    /// gaps across page boundaries, and keys outside the fences.
    #[test]
    fn page_probe_edges() {
        for n in [1usize, 511, 512, 513, 1025] {
            // even keys from 10, marks cycling 1..=3: odd keys are gaps
            let entries: Vec<(u64, u8)> =
                (0..n as u64).map(|i| (10 + 2 * i, (i % 3 + 1) as u8)).collect();
            let path = tmp(&format!("edges-{n}.wseg"));
            let seg = Segment::write(&path, &entries).unwrap();
            assert_eq!(seg.index.len(), n.div_ceil(PAGE_KEYS), "{n} keys");
            for &(k, m) in &entries {
                assert_eq!(seg.get(k).unwrap(), Some(m), "{n} keys: key {k}");
                assert_eq!(seg.get(k + 1).unwrap(), None, "{n} keys: gap after {k}");
            }
            for page in entries.chunks(PAGE_KEYS) {
                let (first, last) = (page[0].0, page[page.len() - 1].0);
                assert_eq!(seg.get(first - 1).unwrap(), None, "{n} keys: before page at {first}");
                assert_eq!(seg.get(first).unwrap(), Some(page[0].1));
                assert_eq!(seg.get(last).unwrap(), Some(page[page.len() - 1].1));
            }
            for outside in [0, 9, 10 + 2 * n as u64, u64::MAX] {
                assert_eq!(seg.get(outside).unwrap(), None, "{n} keys: {outside} outside");
            }
            std::fs::remove_file(path).unwrap();
        }
    }

    #[test]
    fn stream_reproduces_entries_in_order() {
        for n in [10_000u64, 4096, 4097] {
            let entries: Vec<(u64, u8)> = (0..n).map(|k| (k * 7 + 1, (k % 3) as u8)).collect();
            let path = tmp(&format!("stream-{n}.wseg"));
            let seg = Segment::write(&path, &entries).unwrap();
            let mut it = seg.stream();
            let mut got = Vec::new();
            while let Some(e) = it.next_entry().unwrap() {
                got.push(e);
            }
            assert_eq!(got, entries);
            std::fs::remove_file(path).unwrap();
        }
    }

    #[test]
    fn empty_segment_probes_and_streams_empty() {
        let path = tmp("empty.wseg");
        let seg = Segment::write(&path, &[]).unwrap();
        assert!(seg.is_empty());
        assert_eq!(seg.get(0).unwrap(), None);
        assert!(seg.stream().next_entry().unwrap().is_none());
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn rewriting_an_existing_segment_path_fails_loudly() {
        let path = tmp("twice.wseg");
        Segment::write(&path, &[(1, 1)]).unwrap();
        let err = Segment::write(&path, &[(2, 1)]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
        std::fs::remove_file(path).unwrap();
    }
}
