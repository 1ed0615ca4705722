//! Graph serialization: text edge lists and a compact binary CSR format.
//!
//! The text format interoperates with the edge lists common in graph
//! repositories (SNAP, OGB dumps): one `src dst` pair per line, `#`
//! comments ignored. The binary format is a fast-reload CSR dump for
//! repeated experiments over the same synthetic graph.

use crate::csr::{CsrGraph, NodeId};
use crate::error::GraphError;
use crate::GraphBuilder;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;
use std::slice::ChunksExact;

/// Magic header of the binary CSR format.
const MAGIC: &[u8; 8] = b"BUFCSR01";

/// Writes `g` as a text edge list (`src dst` per line, each stored
/// adjacency entry once).
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_edge_list<W: Write>(g: &CsrGraph, w: W) -> io::Result<()> {
    let mut w = BufWriter::new(w);
    writeln!(w, "# nodes {}", g.num_nodes())?;
    for v in g.node_ids() {
        for &u in g.neighbors(v) {
            writeln!(w, "{u} {v}")?;
        }
    }
    w.flush()
}

/// Reads a text edge list into a directed graph (each `src dst` line
/// becomes an in-edge of `dst`). Lines starting with `#` and blank lines
/// are skipped; node count is inferred from the largest id unless a
/// `# nodes N` header is present.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] for malformed lines; I/O
/// errors are converted to the same variant with the underlying message.
pub(crate) fn read_edge_list<R: Read>(r: R) -> Result<CsrGraph, GraphError> {
    let invalid = |message: String| GraphError::InvalidParameter {
        name: "edge_list",
        message,
    };
    let r = BufReader::new(r);
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    let mut declared_nodes: Option<usize> = None;
    for (lineno, line) in r.lines().enumerate() {
        let line = line.map_err(|e| invalid(format!("line {}: {e}", lineno + 1)))?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let mut it = rest.split_whitespace();
            if it.next() == Some("nodes") {
                if let Some(Ok(n)) = it.next().map(str::parse::<usize>) {
                    declared_nodes = Some(n);
                }
            }
            continue;
        }
        let mut it = line.split_whitespace();
        let (s, d) = match (it.next(), it.next()) {
            (Some(s), Some(d)) => (s, d),
            _ => return Err(invalid(format!("line {}: expected `src dst`", lineno + 1))),
        };
        let s: u64 = s
            .parse()
            .map_err(|_| invalid(format!("line {}: bad src `{s}`", lineno + 1)))?;
        let d: u64 = d
            .parse()
            .map_err(|_| invalid(format!("line {}: bad dst `{d}`", lineno + 1)))?;
        if s > NodeId::MAX as u64 || d > NodeId::MAX as u64 {
            return Err(GraphError::NodeOutOfRange {
                node: s.max(d),
                num_nodes: NodeId::MAX as usize,
            });
        }
        edges.push((s as NodeId, d as NodeId));
    }
    let inferred = edges.iter().map(|&(s, d)| s.max(d) as usize + 1).max();
    let n = declared_nodes.max(inferred).unwrap_or(0);
    // Ids are `NodeId`s: a larger declared count names nodes no line can
    // reach, and would size the row table off the header alone.
    if n > NodeId::MAX as usize + 1 {
        return Err(invalid(format!("{n} nodes exceed the id range")));
    }
    let mut b = GraphBuilder::with_capacity(n, edges.len());
    b.extend_edges(edges);
    Ok(b.build_directed())
}

/// Writes `g` in the compact binary CSR format.
///
/// # Errors
///
/// Propagates I/O errors.
pub(crate) fn write_binary<W: Write>(g: &CsrGraph, w: W) -> io::Result<()> {
    let mut w = BufWriter::new(w);
    w.write_all(MAGIC)?;
    w.write_all(&(g.num_nodes() as u64).to_le_bytes())?;
    w.write_all(&(g.num_edges() as u64).to_le_bytes())?;
    for &o in g.offsets() {
        w.write_all(&(o as u64).to_le_bytes())?;
    }
    for &v in g.neighbor_array() {
        w.write_all(&v.to_le_bytes())?;
    }
    w.flush()
}

/// Reads a graph from the compact binary CSR format. Every count in the
/// header is bounded by the bytes that follow it, so a corrupt header
/// cannot size an allocation beyond the file.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] on magic/shape mismatches or
/// I/O failure.
pub(crate) fn read_binary<R: Read>(mut r: R) -> Result<CsrGraph, GraphError> {
    let invalid = |message: &str| GraphError::InvalidParameter {
        name: "binary_csr",
        message: message.to_owned(),
    };
    let mut bytes = Vec::new();
    r.read_to_end(&mut bytes)
        .map_err(|e| invalid(&e.to_string()))?;
    let body = match bytes.strip_prefix(MAGIC) {
        Some(body) => body,
        None if bytes.len() < MAGIC.len() => return Err(invalid("truncated header")),
        None => return Err(invalid("bad magic")),
    };
    // `count` words of `width` bytes from `at`, if the file holds them.
    let words = |at: usize, count: u64, width: usize| -> Option<ChunksExact<u8>> {
        let len = usize::try_from(count).ok()?.checked_mul(width)?;
        Some(body.get(at..at.checked_add(len)?)?.chunks_exact(width))
    };
    let u64_of = |w: &[u8]| u64::from_le_bytes(w.try_into().unwrap_or_default());
    let mut header = words(0, 2, 8).ok_or_else(|| invalid("truncated body"))?;
    let (n, m) = (
        header.next().map_or(0, u64_of),
        header.next().map_or(0, u64_of),
    );
    let offsets: Vec<usize> = (n.checked_add(1).and_then(|len| words(16, len, 8)))
        .ok_or_else(|| invalid("truncated body"))?
        .map(|w| u64_of(w) as usize)
        .collect();
    let neighbors: Vec<NodeId> = words(16 + 8 * offsets.len(), m, 4)
        .ok_or_else(|| invalid("truncated neighbors"))?
        .map(|w| NodeId::from_le_bytes(w.try_into().unwrap_or_default()))
        .collect();
    if offsets.last() != Some(&neighbors.len()) || offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(invalid("inconsistent offsets"));
    }
    if neighbors.iter().any(|&u| u as u64 >= n) {
        return Err(invalid("neighbor id out of range"));
    }
    Ok(CsrGraph::from_parts(offsets, neighbors))
}

/// Convenience: writes the binary format to `path`.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn save<P: AsRef<Path>>(g: &CsrGraph, path: P) -> io::Result<()> {
    write_binary(g, std::fs::File::create(path)?)
}

/// Convenience: reads either format from `path`, choosing by the magic
/// bytes.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] for unreadable files.
pub fn load<P: AsRef<Path>>(path: P) -> Result<CsrGraph, GraphError> {
    let bytes = std::fs::read(path).map_err(|e| GraphError::InvalidParameter {
        name: "path",
        message: e.to_string(),
    })?;
    if bytes.starts_with(MAGIC) {
        read_binary(&bytes[..])
    } else {
        read_edge_list(&bytes[..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn sample() -> CsrGraph {
        generators::barabasi_albert(300, 4, 0.3, 5).unwrap()
    }

    #[test]
    fn edge_list_round_trips() {
        let g = sample();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(&buf[..]).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn binary_round_trips() {
        let g = sample();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        let g2 = read_binary(&buf[..]).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn load_dispatches_on_magic() {
        let g = sample();
        let dir = std::env::temp_dir();
        let bin = dir.join("buffalo_io_test.csr");
        let txt = dir.join("buffalo_io_test.txt");
        save(&g, &bin).unwrap();
        write_edge_list(&g, std::fs::File::create(&txt).unwrap()).unwrap();
        assert_eq!(load(&bin).unwrap(), g);
        assert_eq!(load(&txt).unwrap(), g);
        let _ = std::fs::remove_file(bin);
        let _ = std::fs::remove_file(txt);
    }

    #[test]
    fn edge_list_parses_comments_and_headers() {
        let text = "# a comment\n# nodes 5\n\n0 1\n2 1\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.neighbors(1), &[0, 2]);
    }

    #[test]
    fn edge_list_rejects_garbage() {
        assert!(read_edge_list("0\n".as_bytes()).is_err());
        assert!(read_edge_list("a b\n".as_bytes()).is_err());
    }

    #[test]
    fn binary_rejects_corruption() {
        let g = sample();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        assert!(read_binary(&buf[..buf.len() - 3]).is_err());
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(read_binary(&bad[..]).is_err());
    }

    #[test]
    fn a_node_count_beyond_the_id_range_is_an_error() {
        let err = read_edge_list("# nodes 1000000000000\n0 1\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("exceed the id range"), "{err}");
    }

    /// A binary header declaring `n` nodes and `m` edges, and nothing else.
    fn header_only(n: u64, m: u64) -> Vec<u8> {
        [&MAGIC[..], &n.to_le_bytes(), &m.to_le_bytes()].concat()
    }

    #[test]
    fn a_header_larger_than_its_file_is_an_error() {
        for (n, m) in [(1 << 40, 0), (u64::MAX, 0), (0, u64::MAX), (1, 1 << 40)] {
            let err = read_binary(&header_only(n, m)[..]).unwrap_err();
            assert!(err.to_string().contains("truncated"), "n={n} m={m}: {err}");
        }
    }

    /// Lines of edge-list text from pieces that end in a separator, so
    /// numbers never run together into a legitimately huge id.
    const TEXT_PIECES: [&str; 16] = [
        "0 ",
        "1 ",
        "17 ",
        "255\n",
        "3\n",
        "\n",
        "# nodes 300\n",
        "# nodes 1000000000000\n",
        "#",
        "nodes ",
        "x ",
        "-1 ",
        "4294967297 ",
        "99999999999999999999\n",
        "\t",
        "2.5 ",
    ];

    proptest! {
        /// Edge-list text, arbitrary or assembled from the pieces above,
        /// parses or is rejected; it never panics or aborts.
        #[test]
        fn edge_list_parsing_is_total(
            raw in vec(0u16..256, 0..256),
            pieces in vec(0usize..TEXT_PIECES.len(), 0..40),
        ) {
            let raw: Vec<u8> = raw.into_iter().map(|b| b as u8).collect();
            let _ = read_edge_list(&raw[..]);
            let text: String = pieces.iter().map(|&i| TEXT_PIECES[i]).collect();
            if let Ok(g) = read_edge_list(text.as_bytes()) {
                prop_assert!(g.num_nodes() <= 1_000);
            }
        }

        /// Arbitrary bytes behind the magic, and a valid file with one
        /// byte replaced, parse or are rejected; they never panic or abort.
        #[test]
        fn binary_parsing_is_total(
            body in vec(0u16..256, 0..248),
            at in 0usize..4_096,
            byte in 0u16..256,
        ) {
            let body: Vec<u8> = body.into_iter().map(|b| b as u8).collect();
            let _ = read_binary(&[&MAGIC[..], &body].concat()[..]);
            let mut file = Vec::new();
            write_binary(&generators::barabasi_albert(20, 2, 0.3, 1).unwrap(), &mut file).unwrap();
            let at = at % file.len();
            file[at] = byte as u8;
            let _ = read_binary(&file[..]);
        }
    }

    #[test]
    fn empty_graph_round_trips() {
        let g = CsrGraph::empty(4);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        assert_eq!(read_binary(&buf[..]).unwrap(), g);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(&buf[..]).unwrap();
        assert_eq!(g2.num_nodes(), 4);
        assert_eq!(g2.num_edges(), 0);
    }
}
