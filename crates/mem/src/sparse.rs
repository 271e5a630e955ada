//! Sparse page-granular storage for large DRAM devices.

use std::collections::HashMap;

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

/// Sparse byte storage backed by 4 kB pages allocated on first touch.
///
/// The HyperRAM configuration of HULK-V exposes up to 512 MB to the host;
/// allocating that eagerly for every simulated SoC would be wasteful, so DRAM
/// devices use this container. Untouched bytes read as zero, matching a
/// freshly initialized simulation memory.
///
/// # Example
///
/// ```
/// use hulkv_mem::SparseStorage;
///
/// let mut s = SparseStorage::new(512 * 1024 * 1024);
/// s.write(0x1FFF_FFF0, &[9; 8]);
/// let mut buf = [0u8; 8];
/// s.read(0x1FFF_FFF0, &mut buf);
/// assert_eq!(buf, [9; 8]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SparseStorage {
    pages: HashMap<u64, Box<[u8; PAGE_SIZE]>>,
    size: u64,
}

impl SparseStorage {
    /// Creates storage of `size` bytes.
    pub fn new(size: u64) -> Self {
        SparseStorage {
            pages: HashMap::new(),
            size,
        }
    }

    /// The addressable size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.size
    }

    /// Number of pages actually materialized.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Reads into `buf`; out-of-range reads are the caller's responsibility
    /// to have rejected (debug-asserted here).
    pub fn read(&self, offset: u64, buf: &mut [u8]) {
        debug_assert!(offset + buf.len() as u64 <= self.size);
        let mut pos = 0usize;
        while pos < buf.len() {
            let addr = offset + pos as u64;
            let page = addr >> PAGE_SHIFT;
            let in_page = (addr as usize) & (PAGE_SIZE - 1);
            let n = (PAGE_SIZE - in_page).min(buf.len() - pos);
            match self.pages.get(&page) {
                Some(p) => buf[pos..pos + n].copy_from_slice(&p[in_page..in_page + n]),
                None => buf[pos..pos + n].fill(0),
            }
            pos += n;
        }
    }

    /// FNV-1a digest of the stored content.
    ///
    /// Pages are visited in address order (the `HashMap` iteration order is
    /// not deterministic, so the keys are sorted first) and all-zero pages
    /// are skipped, making the digest a pure function of the *readable*
    /// content: writing zeros to an untouched region, which materializes a
    /// page without changing what any read returns, leaves the digest
    /// unchanged. The differential co-simulation driver relies on this to
    /// compare DRAM images between two runs without caring how each run's
    /// access pattern happened to materialize pages.
    pub fn content_digest(&self) -> u64 {
        let mut keys: Vec<u64> = self
            .pages
            .iter()
            .filter(|(_, p)| !hulkv_sim::is_zero(&p[..]))
            .map(|(&k, _)| k)
            .collect();
        keys.sort_unstable();
        let mut h = hulkv_sim::Fnv64::new();
        for k in keys {
            h.write_u64(k).write(&self.pages[&k][..]);
        }
        h.finish()
    }

    /// Serializes the non-zero resident pages into `snap`'s blob arena.
    ///
    /// Zero pages are dropped exactly as [`SparseStorage::content_digest`]
    /// skips them: a restored storage may hold fewer resident pages than the
    /// original, but every read and the digest are unchanged.
    pub fn snapshot_into(&self, snap: &mut hulkv_sim::Snapshot) -> hulkv_sim::Json {
        use hulkv_sim::snap::hex;
        let mut keys: Vec<u64> = self
            .pages
            .iter()
            .filter(|(_, p)| !hulkv_sim::is_zero(&p[..]))
            .map(|(&k, _)| k)
            .collect();
        keys.sort_unstable();
        let mut data = Vec::with_capacity(keys.len() * (8 + PAGE_SIZE));
        for k in &keys {
            data.extend_from_slice(&k.to_le_bytes());
            data.extend_from_slice(&self.pages[k][..]);
        }
        let desc = snap.push_blob(&data);
        hulkv_sim::Json::obj([
            ("size", hex(self.size)),
            ("count", hex(keys.len() as u64)),
            ("data", desc),
        ])
    }

    /// Restores state written by [`SparseStorage::snapshot_into`], replacing
    /// all resident pages.
    ///
    /// # Errors
    ///
    /// On size mismatch or malformed page records.
    pub fn restore_from(
        &mut self,
        snap: &hulkv_sim::Snapshot,
        j: &hulkv_sim::Json,
    ) -> hulkv_sim::SnapResult<()> {
        use hulkv_sim::snap::{get_u64, SnapError};
        let size = get_u64(j, "size")?;
        if size != self.size {
            return Err(SnapError::msg(format!(
                "sparse storage size mismatch: snapshot {size:#x}, target {:#x}",
                self.size
            )));
        }
        let pages = &mut self.pages;
        pages.clear();
        snap.visit_pages(j, |idx, bytes| {
            let mut p = Box::new([0u8; PAGE_SIZE]);
            p.copy_from_slice(bytes);
            pages.insert(idx, p);
            Ok(())
        })
    }

    /// Writes `data`, materializing pages as needed.
    pub fn write(&mut self, offset: u64, data: &[u8]) {
        debug_assert!(offset + data.len() as u64 <= self.size);
        let mut pos = 0usize;
        while pos < data.len() {
            let addr = offset + pos as u64;
            let page = addr >> PAGE_SHIFT;
            let in_page = (addr as usize) & (PAGE_SIZE - 1);
            let n = (PAGE_SIZE - in_page).min(data.len() - pos);
            let p = self
                .pages
                .entry(page)
                .or_insert_with(|| Box::new([0u8; PAGE_SIZE]));
            p[in_page..in_page + n].copy_from_slice(&data[pos..pos + n]);
            pos += n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untouched_reads_zero() {
        let s = SparseStorage::new(1 << 20);
        let mut b = [7u8; 16];
        s.read(0x8000, &mut b);
        assert_eq!(b, [0u8; 16]);
        assert_eq!(s.resident_pages(), 0);
    }

    #[test]
    fn cross_page_write_read() {
        let mut s = SparseStorage::new(1 << 20);
        let data: Vec<u8> = (0..100).collect();
        s.write(4096 - 50, &data);
        let mut b = vec![0u8; 100];
        s.read(4096 - 50, &mut b);
        assert_eq!(b, data);
        assert_eq!(s.resident_pages(), 2);
    }

    #[test]
    fn partial_page_preserves_rest() {
        let mut s = SparseStorage::new(1 << 20);
        s.write(0, &[0xAA; 8]);
        s.write(8, &[0xBB; 8]);
        let mut b = [0u8; 16];
        s.read(0, &mut b);
        assert_eq!(&b[..8], &[0xAA; 8]);
        assert_eq!(&b[8..], &[0xBB; 8]);
    }

    #[test]
    fn large_offsets_supported() {
        let mut s = SparseStorage::new(512 << 20);
        s.write((512 << 20) - 4, &[1, 2, 3, 4]);
        let mut b = [0u8; 4];
        s.read((512 << 20) - 4, &mut b);
        assert_eq!(b, [1, 2, 3, 4]);
        assert_eq!(s.size_bytes(), 512 << 20);
    }
}
