//! Reverse (source → destination) edge index for deterministic parallel
//! backward scatters.
//!
//! The serial backward scatter walks destinations in ascending order and
//! adds a per-destination gradient into each of its source rows:
//!
//! ```text
//! for i in 0..num_dst {            // ascending destination rows
//!     for p in src_positions(i) {  // row order
//!         grad_src[p] += g(i)
//!     }
//! }
//! ```
//!
//! Parallelizing *that* loop races on `grad_src[p]`. The [`ReverseIndex`]
//! flips the edges: for each source position `p` it stores the destination
//! rows that touch it, **in the exact order the serial loop visits them**
//! (ascending `i`, duplicates preserved). A kernel that partitions source
//! rows across threads and walks `dsts_of(p)` in order then writes each
//! output row from exactly one thread *and* accumulates each element in
//! the serial order — bit-identical to the sequential scatter for any
//! thread count.

use crate::block::Block;

/// CSR edge index from source position to the destination rows touching it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReverseIndex {
    offsets: Vec<usize>,
    dsts: Vec<u32>,
}

impl ReverseIndex {
    /// Builds the reverse index of `block` by counting sort, preserving
    /// the serial scatter's per-source visit order (ascending destination
    /// row, duplicates kept).
    pub fn new(block: &Block) -> Self {
        let num_src = block.num_src();
        let mut counts = vec![0usize; num_src];
        for i in 0..block.num_dst() {
            for &p in block.src_positions(i) {
                counts[p as usize] += 1;
            }
        }
        let mut offsets = Vec::with_capacity(num_src + 1);
        let mut total = 0usize;
        offsets.push(0);
        for &c in &counts {
            total += c;
            offsets.push(total);
        }
        let mut cursor = offsets[..num_src].to_vec();
        let mut dsts = vec![0u32; total];
        for i in 0..block.num_dst() {
            for &p in block.src_positions(i) {
                let slot = &mut cursor[p as usize];
                dsts[*slot] = i as u32;
                *slot += 1;
            }
        }
        ReverseIndex { offsets, dsts }
    }

    /// Destination rows whose aggregation reads source position `p`, in
    /// serial scatter order (ascending, duplicates preserved).
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a source position of the indexed block.
    pub fn dsts_of(&self, p: usize) -> &[u32] {
        &self.dsts[self.offsets[p]..self.offsets[p + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_block() -> Block {
        // dst = [5, 9]; srcs = [5, 9, 2, 3]; 5 <- {9, 2}; 9 <- {2, 3, 5}
        Block::from_parts(
            vec![5, 9],
            vec![5, 9, 2, 3],
            vec![0, 2, 5],
            vec![1, 2, 2, 3, 0],
        )
    }

    #[test]
    fn reverse_of_sample_block() {
        let rev = ReverseIndex::new(&sample_block());
        assert_eq!(rev.dsts_of(0), &[1]); // src pos 0 feeds dst row 1
        assert_eq!(rev.dsts_of(1), &[0]);
        assert_eq!(rev.dsts_of(2), &[0, 1]); // ascending dst order
        assert_eq!(rev.dsts_of(3), &[1]);
    }

    #[test]
    fn duplicate_edges_are_preserved() {
        // dst row 0 lists src position 1 twice (multigraph edge).
        let b = Block::from_parts(vec![7], vec![7, 3], vec![0, 3], vec![1, 1, 0]);
        let rev = ReverseIndex::new(&b);
        assert_eq!(rev.dsts_of(1), &[0, 0]);
        assert_eq!(rev.dsts_of(0), &[0]);
    }

    #[test]
    fn empty_block_yields_empty_index() {
        let b = Block::from_parts(vec![], vec![], vec![0], vec![]);
        let rev = ReverseIndex::new(&b);
        assert_eq!(
            (rev.offsets.as_slice(), rev.dsts.as_slice()),
            (&[0][..], &[][..])
        );
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Random valid block: `d` destinations, `s >= d` sources, rows
        /// of random positions (duplicates allowed).
        fn arb_block(seed: u64, d: usize, extra_src: usize, max_deg: usize) -> Block {
            // Tiny deterministic LCG so the proptest shim drives variety
            // through `seed` alone.
            let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            let mut next = move |bound: usize| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as usize) % bound.max(1)
            };
            let s = d + extra_src;
            let dst: Vec<u32> = (0..d as u32).collect();
            let src: Vec<u32> = (0..s as u32).collect();
            let mut offsets = vec![0usize];
            let mut indices = Vec::new();
            for _ in 0..d {
                let deg = next(max_deg + 1);
                for _ in 0..deg {
                    indices.push(next(s) as u32);
                }
                offsets.push(indices.len());
            }
            Block::from_parts(dst, src, offsets, indices)
        }

        proptest! {
            /// The reverse index holds exactly the block's edge multiset.
            #[test]
            fn edge_multiset_roundtrips(seed in 0u64..200, d in 1usize..12, extra in 0usize..8, deg in 0usize..6) {
                let block = arb_block(seed, d, extra, deg);
                let rev = ReverseIndex::new(&block);
                let mut fwd: Vec<(u32, u32)> = Vec::new();
                for i in 0..block.num_dst() {
                    for &p in block.src_positions(i) {
                        fwd.push((p, i as u32));
                    }
                }
                fwd.sort_unstable();
                let mut bwd: Vec<(u32, u32)> = Vec::new();
                for p in 0..block.num_src() {
                    prop_assert!(rev.dsts_of(p).windows(2).all(|w| w[0] <= w[1]));
                    for &i in rev.dsts_of(p) {
                        bwd.push((p as u32, i));
                    }
                }
                bwd.sort_unstable();
                prop_assert_eq!(fwd, bwd);
            }

            /// Scatter via the reverse index is bitwise equal to the
            /// serial destination-major scatter.
            #[test]
            fn reverse_scatter_matches_serial(seed in 0u64..200, d in 1usize..12, extra in 0usize..8, deg in 0usize..6) {
                let block = arb_block(seed, d, extra, deg);
                let rev = ReverseIndex::new(&block);
                // Per-destination gradient values with enough spread that
                // reordered float addition would actually differ.
                let g = |i: u32| ((i as f32) + 0.1).exp();
                let mut serial = vec![0.0f32; block.num_src()];
                for i in 0..block.num_dst() {
                    for &p in block.src_positions(i) {
                        serial[p as usize] += g(i as u32);
                    }
                }
                let mut via_rev = vec![0.0f32; block.num_src()];
                for (p, out) in via_rev.iter_mut().enumerate() {
                    for &i in rev.dsts_of(p) {
                        *out += g(i);
                    }
                }
                prop_assert_eq!(serial, via_rev);
            }
        }
    }
}
