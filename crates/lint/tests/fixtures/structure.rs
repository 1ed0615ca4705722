//! Structural cases the item walk must get right in one pass: test-gated
//! items between two hazardous fns, a device-state struct declared below
//! its impl, a device-state name only in an impl header's trait position,
//! intrinsics in a closure and a nested fn inside a `#[target_feature]`
//! fn, and a module-level hash-container import.

use std::collections::HashMap;

pub fn before(x: Option<u32>) -> u32 {
    x.unwrap()
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    fn hidden(p: *const u8, x: Option<u32>) -> u8 {
        x.unwrap();
        unsafe { *p }
    }
}

#[cfg(all(test, loom))]
fn loom_only(v: &[u8]) -> u8 {
    let _ = std::time::Instant::now();
    v[0]
}

pub fn after(x: Option<u32>) -> u32 {
    x.expect("after")
}

impl Pool {
    pub fn grow(&mut self) {
        self.buf.reserve(8);
    }
}

pub struct Pool {
    id: AllocId,
    buf: Vec<u8>,
}

pub struct Ledger {
    dev: Box<dyn Device>,
}

pub struct Summary;

impl From<Ledger> for Summary {
    fn from(_l: Ledger) -> Summary {
        let _scratch = vec![0u8; 4];
        Summary
    }
}

// SAFETY: requires AVX2; callers reach this only after
// is_x86_feature_detected!("avx2") detection.
#[target_feature(enable = "avx2")]
pub unsafe fn kernel(a: f32) -> f32 {
    let splat = |x: f32| _mm256_set1_ps(x);
    fn lane(x: f32) -> f32 {
        _mm256_cvtss_f32(_mm256_set1_ps(x))
    }
    lane(a) + _mm256_cvtss_f32(splat(a))
}

pub fn undetected(a: f32) -> f32 {
    _mm_cvtss_f32(_mm_set1_ps(a))
}
