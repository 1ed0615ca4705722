//! The prepared-block handle: everything the device stage of a pipelined
//! trainer needs for one micro-batch, produced entirely on the CPU.
//!
//! A [`PreparedBlocks`] is assembled by the **Prepare** stage (block
//! generation, then feature/label gather) and handed — by move, across a
//! channel — to the **Execute** stage. All payloads are owned flat buffers,
//! so the handoff never copies feature data, and
//! [`into_parts`](PreparedBlocks::into_parts) releases ownership to the
//! consumer the same way.

use crate::block::Block;
use buffalo_graph::NodeId;

/// One micro-batch, fully prepared for device execution: its per-layer
/// blocks plus gathered input features and output labels.
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedBlocks {
    blocks: Vec<Block>,
    features: Vec<f32>,
    feat_dim: usize,
    labels: Vec<u32>,
    output_globals: Vec<NodeId>,
    block_gen_seconds: f64,
    gather_seconds: f64,
}

impl PreparedBlocks {
    /// Wraps generated blocks and the wall-clock seconds generating them
    /// took. Features and labels start empty; attach them with
    /// [`set_features`](Self::set_features) / [`set_labels`](Self::set_labels).
    pub fn from_blocks(blocks: Vec<Block>, block_gen_seconds: f64) -> Self {
        PreparedBlocks {
            blocks,
            features: Vec::new(),
            feat_dim: 0,
            labels: Vec::new(),
            output_globals: Vec::new(),
            block_gen_seconds,
            gather_seconds: 0.0,
        }
    }

    /// The per-layer blocks, input layer first.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Source nodes of the innermost layer — the rows whose features the
    /// Prepare stage must gather.
    ///
    /// # Panics
    ///
    /// Panics if the handle holds no blocks.
    pub fn input_srcs(&self) -> &[NodeId] {
        // lint:allow(panic-reachability): infallible in the pipeline — handles are built from a BlockWalker walk, which returns exactly `depth` >= 1 blocks (suppresses chain: prepare_one → PreparedBlocks::input_srcs → .expect())
        self.blocks.first().expect("empty block list").src_nodes()
    }

    /// Destination nodes of the outermost layer — the nodes whose labels
    /// the loss needs.
    ///
    /// # Panics
    ///
    /// Panics if the handle holds no blocks.
    pub fn output_dsts(&self) -> &[NodeId] {
        // lint:allow(panic-reachability): infallible in the pipeline — handles are built from a BlockWalker walk, which returns exactly `depth` >= 1 blocks (suppresses chain: prepare_one → PreparedBlocks::output_dsts → .expect())
        self.blocks.last().expect("empty block list").dst_nodes()
    }

    /// Number of output nodes.
    pub fn num_outputs(&self) -> usize {
        self.blocks.last().map_or(0, |b| b.num_dst())
    }

    /// Attaches the gathered feature matrix (row-major,
    /// `input_srcs().len() × feat_dim`) and the wall-clock seconds the
    /// gather took.
    ///
    /// # Panics
    ///
    /// Panics if the buffer size does not match `input_srcs().len() ×
    /// feat_dim`.
    pub fn set_features(&mut self, features: Vec<f32>, feat_dim: usize, gather_seconds: f64) {
        assert_eq!(
            features.len(),
            self.input_srcs().len() * feat_dim,
            "feature buffer does not match input sources × feat_dim"
        );
        self.features = features;
        self.feat_dim = feat_dim;
        self.gather_seconds += gather_seconds;
    }

    /// Attaches the gathered labels (one per output node) and the
    /// wall-clock seconds the gather took.
    ///
    /// # Panics
    ///
    /// Panics if the label count does not match `num_outputs()`.
    pub fn set_labels(&mut self, labels: Vec<u32>, gather_seconds: f64) {
        assert_eq!(
            labels.len(),
            self.num_outputs(),
            "label count does not match output nodes"
        );
        self.labels = labels;
        self.gather_seconds += gather_seconds;
    }

    /// Attaches the dataset-global ids of the output nodes (one per
    /// output, same order as [`output_dsts`](Self::output_dsts)). The
    /// output ids in the blocks are micro-batch-local; inference consumers
    /// need the globals to map predictions back to dataset nodes.
    ///
    /// # Panics
    ///
    /// Panics if the id count does not match `num_outputs()`.
    pub fn set_output_globals(&mut self, globals: Vec<NodeId>) {
        assert_eq!(
            globals.len(),
            self.num_outputs(),
            "global id count does not match output nodes"
        );
        self.output_globals = globals;
    }

    /// Dataset-global ids of the output nodes; empty unless
    /// [`set_output_globals`](Self::set_output_globals) was called.
    pub fn output_globals(&self) -> &[NodeId] {
        &self.output_globals
    }

    /// Wall-clock seconds spent generating blocks.
    pub fn block_gen_seconds(&self) -> f64 {
        self.block_gen_seconds
    }

    /// Wall-clock seconds spent gathering features/labels.
    pub fn gather_seconds(&self) -> f64 {
        self.gather_seconds
    }

    /// Releases ownership of the payload without copying.
    pub fn into_parts(self) -> PreparedParts {
        PreparedParts {
            blocks: self.blocks,
            features: self.features,
            feat_dim: self.feat_dim,
            labels: self.labels,
            output_globals: self.output_globals,
        }
    }
}

/// The owned payload of a [`PreparedBlocks`], as
/// [`into_parts`](PreparedBlocks::into_parts) hands it to the consumer.
#[derive(Debug)]
pub struct PreparedParts {
    /// The per-layer blocks, input layer first.
    pub blocks: Vec<Block>,
    /// Gathered features, row-major `input_srcs().len() × feat_dim`.
    pub features: Vec<f32>,
    /// Width of a feature row.
    pub feat_dim: usize,
    /// One label per output node.
    pub labels: Vec<u32>,
    /// Dataset-global ids of the output nodes (empty unless attached).
    pub output_globals: Vec<NodeId>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate_blocks_fast, GenerateOptions};
    use buffalo_graph::generators;

    fn prepared() -> PreparedBlocks {
        let g = generators::barabasi_albert(200, 4, 0.3, 1).unwrap();
        PreparedBlocks::from_blocks(
            generate_blocks_fast(&g, 32, 2, GenerateOptions::default()),
            0.25,
        )
    }

    #[test]
    fn from_blocks_records_timing_and_shape() {
        let p = prepared();
        assert_eq!(p.blocks().len(), 2);
        assert_eq!(p.num_outputs(), 32);
        assert_eq!(p.block_gen_seconds(), 0.25);
        assert_eq!(p.gather_seconds(), 0.0);
        assert_eq!(p.output_dsts().len(), 32);
        assert!(p.input_srcs().len() >= p.output_dsts().len());
    }

    #[test]
    fn payload_moves_through_without_copies() {
        let mut p = prepared();
        let rows = p.input_srcs().len();
        let feats = vec![1.5f32; rows * 8];
        let feat_ptr = feats.as_ptr();
        p.set_features(feats, 8, 0.01);
        let labels = vec![0u32; p.num_outputs()];
        let label_ptr = labels.as_ptr();
        p.set_labels(labels, 0.02);
        assert!((p.gather_seconds() - 0.03).abs() < 1e-12);
        let globals = vec![7 as NodeId; p.num_outputs()];
        let globals_ptr = globals.as_ptr();
        p.set_output_globals(globals);
        let parts = p.into_parts();
        assert_eq!(parts.blocks.len(), 2);
        assert_eq!(parts.feat_dim, 8);
        // Same heap buffers end to end.
        assert_eq!(parts.features.as_ptr(), feat_ptr);
        assert_eq!(parts.labels.as_ptr(), label_ptr);
        assert_eq!(parts.output_globals.as_ptr(), globals_ptr);
    }

    #[test]
    #[should_panic(expected = "feature buffer does not match")]
    fn mismatched_features_are_rejected() {
        let mut p = prepared();
        p.set_features(vec![0.0; 3], 8, 0.0);
    }

    #[test]
    #[should_panic(expected = "label count does not match")]
    fn mismatched_labels_are_rejected() {
        let mut p = prepared();
        p.set_labels(vec![0; 1], 0.0);
    }
}
