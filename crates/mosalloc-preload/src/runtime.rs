//! The preload runtime: real pool reservations + the shared Mosalloc
//! allocation logic.

use std::ffi::c_void;
use std::sync::{Mutex, OnceLock};

use mosalloc::config::{MosallocConfig, PoolSpec};
use mosalloc::FirstFit;
use vmcore::PageSize;

/// Raw-syscall shims that bypass the interposed symbols (calling our own
/// exported `mmap` from inside `mmap` would recurse).
pub struct RealMem;

impl RealMem {
    /// Raw `mmap` syscall.
    ///
    /// # Safety
    ///
    /// Same contract as `mmap(2)`.
    pub unsafe fn mmap(
        addr: *mut c_void,
        length: libc::size_t,
        prot: libc::c_int,
        flags: libc::c_int,
        fd: libc::c_int,
        offset: libc::off_t,
    ) -> *mut c_void {
        libc::syscall(libc::SYS_mmap, addr, length, prot, flags, fd, offset) as *mut c_void
    }

    /// Raw `munmap` syscall.
    ///
    /// # Safety
    ///
    /// Same contract as `munmap(2)`.
    pub unsafe fn munmap(addr: *mut c_void, length: libc::size_t) -> libc::c_int {
        libc::syscall(libc::SYS_munmap, addr, length) as libc::c_int
    }

    /// Raw `mremap` syscall moving the `length`-byte mapping at `old` to
    /// exactly `new`, replacing whatever was mapped there.
    ///
    /// # Safety
    ///
    /// Same contract as `mremap(2)` with `MREMAP_MAYMOVE | MREMAP_FIXED`.
    pub(crate) unsafe fn mremap_fixed(
        old: *mut c_void,
        length: libc::size_t,
        new: *mut c_void,
    ) -> *mut c_void {
        libc::syscall(
            libc::SYS_mremap,
            old,
            length,
            length,
            libc::MREMAP_MAYMOVE | libc::MREMAP_FIXED,
            new,
        ) as *mut c_void
    }
}

/// One reserved pool: a real memory reservation plus first-fit state.
#[derive(Debug)]
pub struct ReservedPool {
    base: u64,
    len: u64,
    alloc: FirstFit,
    /// Hugepage windows that were actually granted by the kernel.
    granted_windows: usize,
    /// Hugepage windows that fell back to base pages.
    fallback_windows: usize,
}

impl ReservedPool {
    /// Reserves backing memory for `spec` and remaps its hugepage
    /// windows. `strict` turns hugepage failures into `None`.
    fn reserve(spec: &PoolSpec, strict: bool) -> Option<ReservedPool> {
        if spec.size == 0 {
            return None;
        }
        let len = spec.size;
        let base = unsafe {
            RealMem::mmap(
                std::ptr::null_mut(),
                len as usize,
                libc::PROT_READ | libc::PROT_WRITE,
                libc::MAP_PRIVATE | libc::MAP_ANONYMOUS | libc::MAP_NORESERVE,
                -1,
                0,
            )
        };
        if base == libc::MAP_FAILED {
            return None;
        }
        let base = base as u64;
        let mut granted = 0;
        let mut fallback = 0;
        for w in &spec.windows {
            let huge_flag = match w.size {
                PageSize::Huge2M => libc::MAP_HUGETLB | libc::MAP_HUGE_2MB,
                PageSize::Huge1G => libc::MAP_HUGETLB | libc::MAP_HUGE_1GB,
                PageSize::Base4K => continue,
            };
            let win_len = (w.end - w.start) as usize;
            let target = (base + w.start) as *mut c_void;
            // Map the hugepages wherever the kernel puts them, then move
            // them over the window. A failed MAP_FIXED mapping straight
            // onto the window can leave it unmapped, and another thread's
            // next mapping can then land inside the pool; `mremap` either
            // replaces the window or leaves it as it was.
            // SAFETY: a fresh anonymous mapping at a kernel-chosen
            // address touches no existing memory.
            let huge = unsafe {
                RealMem::mmap(
                    std::ptr::null_mut(),
                    win_len,
                    libc::PROT_READ | libc::PROT_WRITE,
                    libc::MAP_PRIVATE | libc::MAP_ANONYMOUS | huge_flag,
                    -1,
                    0,
                )
            };
            // SAFETY: `huge` is the `win_len`-byte mapping just created,
            // and `target..target + win_len` lies inside this pool's own
            // reservation, which nothing has handed out yet.
            let moved = huge != libc::MAP_FAILED
                && unsafe { RealMem::mremap_fixed(huge, win_len, target) } != libc::MAP_FAILED;
            if moved {
                granted += 1;
                continue;
            }
            if huge != libc::MAP_FAILED {
                // SAFETY: the move failed, so `huge` is still the unused
                // mapping created above.
                unsafe { RealMem::munmap(huge, win_len) };
            }
            if strict {
                // SAFETY: the reservation is dropped before any of it is
                // handed out.
                unsafe { RealMem::munmap(base as *mut c_void, len as usize) };
                return None;
            }
            fallback += 1;
        }
        Some(ReservedPool {
            base,
            len,
            alloc: FirstFit::new(len),
            granted_windows: granted,
            fallback_windows: fallback,
        })
    }

    /// The reservation's base address.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// The reservation's length.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the reservation is empty (never true once constructed).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Hugepage windows granted vs fallen back.
    pub fn window_stats(&self) -> (usize, usize) {
        (self.granted_windows, self.fallback_windows)
    }

    fn contains(&self, addr: u64) -> bool {
        addr >= self.base && addr < self.base + self.len
    }
}

/// The global preload state: heap + anonymous pools and the emulated
/// program break.
#[derive(Debug)]
pub struct PreloadRuntime {
    heap: ReservedPool,
    anon: ReservedPool,
    brk_offset: u64,
}

/// Page granularity of pool mmaps.
const PAGE: u64 = 4096;

impl PreloadRuntime {
    /// Builds the runtime from a configuration. Returns `None` if any
    /// reservation fails.
    pub fn from_config(config: &MosallocConfig, strict: bool) -> Option<PreloadRuntime> {
        config.validate().ok()?;
        let heap = ReservedPool::reserve(&config.brk, strict)?;
        let anon = ReservedPool::reserve(&config.anon, strict)?;
        Some(PreloadRuntime {
            heap,
            anon,
            brk_offset: 0,
        })
    }

    /// Builds the runtime from the process environment.
    pub fn from_env() -> Option<PreloadRuntime> {
        let config = MosallocConfig::from_env().ok()?;
        let strict = std::env::var("MOSALLOC_STRICT").is_ok_and(|v| v == "1");
        Self::from_config(&config, strict)
    }

    /// The heap pool reservation.
    pub fn heap(&self) -> &ReservedPool {
        &self.heap
    }

    /// The anonymous pool reservation.
    pub fn anon(&self) -> &ReservedPool {
        &self.anon
    }

    /// Serves an anonymous `mmap`; `None` when the pool is exhausted
    /// (caller falls back to the kernel).
    pub fn pool_mmap_anon(&mut self, len: u64) -> Option<u64> {
        let len = len.div_ceil(PAGE) * PAGE;
        let offset = self.anon.alloc.alloc(len, PAGE)?;
        Some(self.anon.base + offset)
    }

    /// Releases a pool mapping. Returns `None` when the range is not pool
    /// memory (caller forwards to the kernel), `Some(false)` for an
    /// invalid pool free.
    pub fn pool_munmap(&mut self, addr: u64, len: u64) -> Option<bool> {
        if !self.anon.contains(addr) {
            if self.heap.contains(addr) {
                // Unmapping heap-pool memory is ignored (glibc never
                // munmaps brk memory; tolerate and report success).
                return Some(true);
            }
            return None;
        }
        let len = len.div_ceil(PAGE) * PAGE;
        let offset = addr - self.anon.base;
        Some(self.anon.alloc.free(offset, len).is_ok())
    }

    /// Emulated `sbrk`: moves the break inside the heap pool, returning
    /// the previous break.
    #[allow(clippy::result_unit_err)]
    pub fn sbrk(&mut self, increment: i64) -> Result<u64, ()> {
        let old = self.heap.base + self.brk_offset;
        if increment >= 0 {
            let inc = increment as u64;
            if self.brk_offset + inc > self.heap.len {
                return Err(());
            }
            self.brk_offset += inc;
        } else {
            let dec = increment.unsigned_abs();
            if dec > self.brk_offset {
                return Err(());
            }
            self.brk_offset -= dec;
        }
        Ok(old)
    }

    /// Emulated `brk`.
    #[allow(clippy::result_unit_err)]
    pub fn brk(&mut self, addr: u64) -> Result<(), ()> {
        if addr < self.heap.base || addr > self.heap.base + self.heap.len {
            return Err(());
        }
        self.brk_offset = addr - self.heap.base;
        Ok(())
    }
}

static RUNTIME: OnceLock<Option<Mutex<PreloadRuntime>>> = OnceLock::new();

/// Runs `f` against the global runtime; `None` when initialization
/// failed (every interposed call then falls back to the kernel, so a
/// misconfigured preload degrades to a no-op instead of crashing the
/// host process).
pub fn with_runtime<T>(f: impl FnOnce(&mut PreloadRuntime) -> T) -> Option<T> {
    let cell = RUNTIME.get_or_init(|| PreloadRuntime::from_env().map(Mutex::new));
    let mutex = cell.as_ref()?;
    let mut guard = mutex.lock().ok()?;
    Some(f(&mut guard))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosalloc::config::PoolSpec;

    fn small_config() -> MosallocConfig {
        MosallocConfig {
            brk: PoolSpec::plain(4 << 20),
            anon: PoolSpec::plain(4 << 20),
            file: PoolSpec::plain(1 << 20),
        }
    }

    #[test]
    fn reserve_and_touch_memory() {
        let rt = PreloadRuntime::from_config(&small_config(), false).unwrap();
        // The reservation must be real, writable memory.
        let p = rt.heap().base() as *mut u8;
        unsafe {
            p.write(0xAB);
            assert_eq!(p.read(), 0xAB);
        }
        assert_eq!(rt.heap().len(), 4 << 20);
    }

    #[test]
    fn anon_pool_mmap_roundtrip() {
        let mut rt = PreloadRuntime::from_config(&small_config(), false).unwrap();
        let a = rt.pool_mmap_anon(10_000).unwrap();
        assert_eq!(a % PAGE, 0);
        assert!(rt.anon().base() <= a && a < rt.anon().base() + rt.anon().len());
        // Memory is usable.
        unsafe {
            (a as *mut u64).write(42);
            assert_eq!((a as *mut u64).read(), 42);
        }
        // Rounded to 3 pages; exact free succeeds, double free fails.
        assert_eq!(rt.pool_munmap(a, 12_288), Some(true));
        assert_eq!(rt.pool_munmap(a, 12_288), Some(false));
        // Foreign address: kernel's problem.
        assert_eq!(rt.pool_munmap(0xdead_0000, 4096), None);
    }

    #[test]
    fn pool_exhaustion_falls_back() {
        let mut rt = PreloadRuntime::from_config(&small_config(), false).unwrap();
        assert!(
            rt.pool_mmap_anon(64 << 20).is_none(),
            "larger than the pool"
        );
    }

    #[test]
    fn sbrk_brk_semantics() {
        let mut rt = PreloadRuntime::from_config(&small_config(), false).unwrap();
        let base = rt.heap().base();
        assert_eq!(rt.sbrk(0).unwrap(), base, "sbrk(0) reports the pool base");
        assert_eq!(rt.sbrk(4096).unwrap(), base);
        assert_eq!(rt.sbrk(0).unwrap(), base + 4096);
        rt.brk(base + 8192).unwrap();
        assert_eq!(rt.sbrk(0).unwrap(), base + 8192);
        assert!(rt.sbrk(-(16384i64)).is_err(), "underflow rejected");
        assert!(rt.brk(base - 1).is_err());
        assert!(rt.sbrk((8 << 20) as i64).is_err(), "beyond the pool");
        // Heap writes work after sbrk.
        unsafe {
            (base as *mut u8).write(7);
            assert_eq!((base as *mut u8).read(), 7);
        }
    }

    #[test]
    fn hugepage_window_falls_back_gracefully() {
        // Containers rarely have hugetlb reservations: the window should
        // fall back to base pages in non-strict mode and the pool must
        // still work end to end.
        let config = MosallocConfig {
            brk: PoolSpec::plain(8 << 20).with_window(0, 2 << 20, PageSize::Huge2M),
            anon: PoolSpec::plain(4 << 20),
            file: PoolSpec::plain(1 << 20),
        };
        let mut rt = PreloadRuntime::from_config(&config, false)
            .expect("non-strict reservation always succeeds");
        let (granted, fallback) = rt.heap().window_stats();
        assert_eq!(granted + fallback, 1);
        // Every page of the window must be mapped and writable, granted
        // or not.
        let base = rt.sbrk(2 << 20).unwrap();
        for page in 0..(2 << 20) / PAGE {
            unsafe {
                ((base + page * PAGE) as *mut u8).write(1);
            }
        }
    }

    #[test]
    fn heap_munmap_tolerated() {
        let mut rt = PreloadRuntime::from_config(&small_config(), false).unwrap();
        let base = rt.heap().base();
        assert_eq!(rt.pool_munmap(base, 4096), Some(true));
    }
}
