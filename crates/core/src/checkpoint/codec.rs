//! Binary snapshot codec: fixed little-endian layout, magic + version
//! header, CRC32 (IEEE) footer over everything before it.
//!
//! Hand-rolled on purpose: the format must not depend on optional
//! dependencies, and a fixed layout keeps the torn-write failure modes
//! easy to reason about — any truncation or bit flip lands in the CRC.

use super::{CheckpointError, ParamState, TrainSnapshot, TrainerState, SNAPSHOT_VERSION};
use std::path::Path;

const MAGIC: &[u8; 8] = b"BUFCKPT\n";

/// Encodes a snapshot, including the trailing CRC32 footer.
pub(crate) fn encode(snap: &TrainSnapshot) -> Vec<u8> {
    let mut out = Vec::with_capacity(1024);
    out.extend_from_slice(MAGIC);
    put_u32(&mut out, SNAPSHOT_VERSION);
    put_u64(&mut out, snap.config_hash);
    put_u64(&mut out, snap.epoch);
    put_u64(&mut out, snap.epoch_iter);
    put_u64(&mut out, snap.global_iter);
    put_u64(&mut out, snap.device_allocs.len() as u64);
    for &a in &snap.device_allocs {
        put_u64(&mut out, a);
    }
    put_u64(&mut out, snap.dead_devices.len() as u64);
    for &d in &snap.dead_devices {
        put_u64(&mut out, d);
    }
    put_u64(&mut out, snap.rollbacks);
    put_u64(&mut out, snap.epoch_loss_sum.to_bits());
    put_u64(&mut out, snap.epoch_acc_sum.to_bits());
    put_u64(&mut out, snap.trainer.adam_t);
    put_u64(&mut out, snap.trainer.headroom_multiplier.to_bits());
    put_u64(&mut out, snap.loss_trail.len() as u64);
    for &l in &snap.loss_trail {
        put_u32(&mut out, l.to_bits());
    }
    put_u64(&mut out, snap.trainer.params.len() as u64);
    for p in &snap.trainer.params {
        put_u32(&mut out, p.rows);
        put_u32(&mut out, p.cols);
        for t in [&p.value, &p.m, &p.v] {
            for &x in t {
                put_u32(&mut out, x.to_bits());
            }
        }
    }
    let crc = crc32(&out);
    put_u32(&mut out, crc);
    out
}

/// Decodes and integrity-checks a snapshot.
///
/// # Errors
///
/// [`CheckpointError::Corrupt`] naming `path` on any damage: short file,
/// bad magic, unknown version, CRC mismatch, or truncated payload.
pub(crate) fn decode(bytes: &[u8], path: &Path) -> Result<TrainSnapshot, CheckpointError> {
    let corrupt = |reason: String| CheckpointError::Corrupt {
        path: path.to_path_buf(),
        reason,
    };
    if bytes.len() < MAGIC.len() + 4 + 4 {
        return Err(corrupt(format!("file too short ({} bytes)", bytes.len())));
    }
    // lint:allow(panic-reachability): in-bounds — length checked against MAGIC.len() + 8 above (suppresses chain: decode → [])
    if &bytes[..MAGIC.len()] != MAGIC {
        return Err(corrupt("bad magic".into()));
    }
    let (body, footer) = bytes.split_at(bytes.len() - 4);
    // lint:allow(panic-reachability): infallible — split_at leaves exactly 4 footer bytes (suppresses chain: decode → .unwrap())
    let stored = u32::from_le_bytes(footer.try_into().unwrap());
    let actual = crc32(body);
    if stored != actual {
        return Err(corrupt(format!(
            "CRC mismatch (stored {stored:#010x}, computed {actual:#010x})"
        )));
    }
    let mut r = Reader {
        bytes: body,
        pos: MAGIC.len(),
        path,
    };
    let version = r.u32()?;
    if version != SNAPSHOT_VERSION {
        return Err(corrupt(format!(
            "unsupported snapshot version {version} (expected {SNAPSHOT_VERSION})"
        )));
    }
    let config_hash = r.u64()?;
    let epoch = r.u64()?;
    let epoch_iter = r.u64()?;
    let global_iter = r.u64()?;
    let num_devices = r.len_prefix("device alloc list", 8)?;
    let mut device_allocs = Vec::with_capacity(num_devices);
    for _ in 0..num_devices {
        device_allocs.push(r.u64()?);
    }
    let num_dead = r.len_prefix("dead device list", 8)?;
    let mut dead_devices = Vec::with_capacity(num_dead);
    for _ in 0..num_dead {
        dead_devices.push(r.u64()?);
    }
    let rollbacks = r.u64()?;
    let epoch_loss_sum = f64::from_bits(r.u64()?);
    let epoch_acc_sum = f64::from_bits(r.u64()?);
    let adam_t = r.u64()?;
    let headroom_multiplier = f64::from_bits(r.u64()?);
    let trail_len = r.len_prefix("loss trail", 4)?;
    let mut loss_trail = Vec::with_capacity(trail_len);
    for _ in 0..trail_len {
        loss_trail.push(f32::from_bits(r.u32()?));
    }
    let num_params = r.len_prefix("param list", 8)?;
    let mut params = Vec::with_capacity(num_params);
    for _ in 0..num_params {
        let rows = r.u32()?;
        let cols = r.u32()?;
        // Value, first and second moment: three floats per entry.
        let n = r.bounded(rows as u64 * cols as u64, 12, "param shape")?;
        let mut tensors = [Vec::new(), Vec::new(), Vec::new()];
        for t in &mut tensors {
            t.reserve(n);
            for _ in 0..n {
                t.push(f32::from_bits(r.u32()?));
            }
        }
        let [value, m, v] = tensors;
        params.push(ParamState {
            rows,
            cols,
            value,
            m,
            v,
        });
    }
    if r.pos != body.len() {
        return Err(corrupt(format!(
            "{} trailing bytes after payload",
            body.len() - r.pos
        )));
    }
    Ok(TrainSnapshot {
        config_hash,
        epoch,
        epoch_iter,
        global_iter,
        device_allocs,
        dead_devices,
        rollbacks,
        epoch_loss_sum,
        epoch_acc_sum,
        loss_trail,
        trainer: TrainerState {
            adam_t,
            headroom_multiplier,
            params,
        },
    })
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    path: &'a Path,
}

impl Reader<'_> {
    fn corrupt(&self, reason: &str) -> CheckpointError {
        CheckpointError::Corrupt {
            path: self.path.to_path_buf(),
            reason: format!("{reason} at offset {}", self.pos),
        }
    }

    fn take(&mut self, n: usize) -> Result<&[u8], CheckpointError> {
        if self.pos + n > self.bytes.len() {
            return Err(self.corrupt("truncated payload"));
        }
        // lint:allow(panic-reachability): in-bounds — range checked against bytes.len() above (suppresses chain: Reader::take → [])
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        // lint:allow(panic-reachability): infallible — take(4) returns an exactly-4-byte slice (suppresses chain: Reader::u32 → .unwrap())
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        // lint:allow(panic-reachability): infallible — take(8) returns an exactly-8-byte slice (suppresses chain: Reader::u64 → .unwrap())
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A u64 length prefix of items at least `width` bytes each, bounded
    /// as [`Reader::bounded`] bounds it.
    fn len_prefix(&mut self, what: &str, width: u64) -> Result<usize, CheckpointError> {
        let n = self.u64()?;
        self.bounded(n, width, what)
    }

    /// `n` items of `width` bytes, checked against the bytes actually left
    /// so a corrupt count cannot trigger a huge allocation.
    fn bounded(&self, n: u64, width: u64, what: &str) -> Result<usize, CheckpointError> {
        let left = self.bytes.len().saturating_sub(self.pos) as u64;
        match n.checked_mul(width) {
            Some(len) if len <= left => Ok(n as usize),
            _ => Err(self.corrupt(&format!("implausible {what} length {n}"))),
        }
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

const CRC_TABLE: [u32; 256] = crc_table();

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        // lint:allow(panic-reachability): in-bounds — const-eval loop with i < 256 (suppresses chain: crc_table → [])
        table[i] = c;
        i += 1;
    }
    table
}

/// CRC-32 (IEEE 802.3, the zlib/PNG polynomial).
pub(crate) fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        // lint:allow(panic-reachability): in-bounds — index masked with & 0xFF, table length 256 (suppresses chain: crc32 → [])
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::path::PathBuf;

    pub(crate) fn sample_snapshot() -> TrainSnapshot {
        TrainSnapshot {
            config_hash: 0xDEAD_BEEF_1234_5678,
            epoch: 2,
            epoch_iter: 3,
            global_iter: 11,
            device_allocs: vec![421, 388],
            dead_devices: vec![1],
            rollbacks: 1,
            epoch_loss_sum: 3.75,
            epoch_acc_sum: 2.5,
            loss_trail: vec![1.5, 1.25, 1.0, 0.875],
            trainer: TrainerState {
                adam_t: 11,
                headroom_multiplier: 1.5625,
                params: vec![
                    ParamState {
                        rows: 2,
                        cols: 3,
                        value: vec![0.1, -0.2, 0.3, -0.4, 0.5, -0.6],
                        m: vec![0.01; 6],
                        v: vec![0.001; 6],
                    },
                    ParamState {
                        rows: 1,
                        cols: 3,
                        value: vec![0.0, f32::MIN_POSITIVE, -0.0],
                        m: vec![0.0; 3],
                        v: vec![0.0; 3],
                    },
                ],
            },
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard test vector for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn roundtrip_is_exact() {
        let snap = sample_snapshot();
        let bytes = encode(&snap);
        let back = decode(&bytes, &PathBuf::from("mem")).unwrap();
        assert_eq!(back, snap);
        // -0.0 and subnormals survive bit-exactly.
        assert_eq!(
            back.trainer.params[1].value[2].to_bits(),
            (-0.0f32).to_bits()
        );
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = encode(&sample_snapshot());
        let p = PathBuf::from("mem");
        for cut in 0..bytes.len() {
            assert!(
                decode(&bytes[..cut], &p).is_err(),
                "truncation to {cut} bytes was accepted"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let bytes = encode(&sample_snapshot());
        let p = PathBuf::from("mem");
        // Flip one bit per byte position; the CRC (or magic check) must
        // catch every one of them.
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 1 << (i % 8);
            assert!(decode(&bad, &p).is_err(), "bit flip at byte {i} accepted");
        }
    }

    #[test]
    fn version_bump_is_rejected() {
        let mut bytes = encode(&sample_snapshot());
        // Patch the version field (right after the magic) and re-seal the
        // CRC so only the version check can object.
        bytes[8] = 99;
        let err = decode(&resealed(bytes), &PathBuf::from("mem")).unwrap_err();
        assert!(err.to_string().contains("version 99"), "{err}");
    }

    /// `bytes` with the CRC footer recomputed over the rest.
    fn resealed(mut bytes: Vec<u8>) -> Vec<u8> {
        let body_len = bytes.len() - 4;
        let crc = crc32(&bytes[..body_len]).to_le_bytes();
        bytes[body_len..].copy_from_slice(&crc);
        bytes
    }

    #[test]
    fn a_param_shape_larger_than_the_file_is_an_error() {
        let mut bytes = encode(&sample_snapshot());
        // The first param's `rows`: after the header, the two device
        // lists, five scalars and the loss trail.
        let at = 8 + 4 + 4 * 8 + (8 + 16) + (8 + 8) + 5 * 8 + (8 + 16) + 8;
        assert_eq!(bytes[at..at + 8], [2, 0, 0, 0, 3, 0, 0, 0]);
        // 2^20 x 2^20 entries: 12 TiB the file does not hold.
        bytes[at..at + 8].copy_from_slice(&[0, 0, 0x10, 0, 0, 0, 0x10, 0]);
        let err = decode(&resealed(bytes), &PathBuf::from("mem")).unwrap_err();
        assert!(err.to_string().contains("implausible param shape"), "{err}");
    }

    proptest! {
        /// A valid snapshot with one byte replaced and the CRC re-sealed
        /// decodes or is rejected; it never panics or aborts.
        #[test]
        fn decoding_a_resealed_mutation_is_total(at in 0usize..1_024, byte in 0u16..256) {
            let mut bytes = encode(&sample_snapshot());
            let at = at % (bytes.len() - 4);
            bytes[at] = byte as u8;
            let _ = decode(&resealed(bytes), &PathBuf::from("mem"));
        }
    }
}
