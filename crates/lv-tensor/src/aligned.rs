//! Page-aligned f32 buffers.
//!
//! All tensors and kernel workspaces use 4096-byte-aligned allocations so
//! that more of the simulator's cache-set mapping (which is derived from
//! real host addresses) repeats across runs. Page alignment fixes the low
//! 12 address bits of every element, which cover only set-index bits 6–11.
//! The default L1 (64 KiB, 4-way, 64 B lines) has 256 sets, indexed by
//! bits 6–13, and the L2 has more, so the upper set bits still follow the
//! allocator. A deterministic simulated address space (ROADMAP item 1) is
//! what removes that dependence.

use std::alloc::{alloc_zeroed, dealloc, Layout};
use std::ops::{Deref, DerefMut};

/// Alignment for all simulation buffers (one 4 KiB page).
pub const BUF_ALIGN: usize = 4096;

/// A heap-allocated, zero-initialized, page-aligned `f32` buffer.
pub struct AlignedVec {
    ptr: *mut f32,
    len: usize,
}

// SAFETY: AlignedVec owns its allocation exclusively, like Vec<f32>.
unsafe impl Send for AlignedVec {}
unsafe impl Sync for AlignedVec {}

impl AlignedVec {
    /// Allocate `len` zeroed f32 elements at page alignment.
    pub fn zeroed(len: usize) -> Self {
        if len == 0 {
            return Self { ptr: std::ptr::NonNull::<f32>::dangling().as_ptr(), len: 0 };
        }
        let layout = Layout::from_size_align(len * 4, BUF_ALIGN).expect("layout");
        // SAFETY: layout has non-zero size (len > 0).
        let ptr = unsafe { alloc_zeroed(layout) as *mut f32 };
        assert!(!ptr.is_null(), "allocation of {len} f32 failed");
        Self { ptr, len }
    }

    /// Allocate and fill from a function of the index.
    pub fn from_fn(len: usize, mut f: impl FnMut(usize) -> f32) -> Self {
        let mut v = Self::zeroed(len);
        for (i, x) in v.iter_mut().enumerate() {
            *x = f(i);
        }
        v
    }

    /// Copy from a slice.
    pub fn from_slice(s: &[f32]) -> Self {
        let mut v = Self::zeroed(s.len());
        v.copy_from_slice(s);
        v
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Deref for AlignedVec {
    type Target = [f32];
    fn deref(&self) -> &[f32] {
        // SAFETY: ptr/len describe our live allocation (or a dangling ptr
        // with len 0, which from_raw_parts permits).
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl DerefMut for AlignedVec {
    fn deref_mut(&mut self) -> &mut [f32] {
        // SAFETY: as above, and we hold &mut self.
        unsafe { std::slice::from_raw_parts_mut(self.ptr, self.len) }
    }
}

impl Drop for AlignedVec {
    fn drop(&mut self) {
        if self.len > 0 {
            let layout = Layout::from_size_align(self.len * 4, BUF_ALIGN).expect("layout");
            // SAFETY: allocated with the identical layout in `zeroed`.
            unsafe { dealloc(self.ptr as *mut u8, layout) };
        }
    }
}

impl Clone for AlignedVec {
    fn clone(&self) -> Self {
        Self::from_slice(self)
    }
}

impl std::fmt::Debug for AlignedVec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AlignedVec(len={})", self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligned_and_zeroed() {
        let v = AlignedVec::zeroed(100);
        assert_eq!(v.as_ptr() as usize % BUF_ALIGN, 0);
        assert!(v.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_fn_fills() {
        let v = AlignedVec::from_fn(5, |i| i as f32);
        assert_eq!(&v[..], &[0.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn empty_ok() {
        let v = AlignedVec::zeroed(0);
        assert!(v.is_empty());
        let _ = v.clone();
    }

    #[test]
    fn clone_is_deep() {
        let mut a = AlignedVec::from_fn(4, |i| i as f32);
        let b = a.clone();
        a[0] = 99.0;
        assert_eq!(b[0], 0.0);
    }
}
