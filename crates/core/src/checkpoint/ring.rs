//! Bounded snapshot ring with atomic writes.
//!
//! Each snapshot lands as `snap-<global_iter>.ckpt` via the classic
//! crash-consistency protocol: encode into a hidden `.tmp-` file in the
//! same directory, `fsync` the file, `rename` it over the final name,
//! then `fsync` the directory so the rename itself is durable. A reader
//! therefore never observes a partially written final file — unless the
//! filesystem loses the rename's ordering, which the injected
//! [`CrashPoint`](buffalo_memsim::CrashPoint) with `torn = true`
//! simulates and the CRC footer catches.

use super::{codec, CheckpointError, TrainSnapshot};
use buffalo_memsim::CrashPoint;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

const SNAP_PREFIX: &str = "snap-";
const SNAP_SUFFIX: &str = ".ckpt";

/// Writer over a directory holding the last *N* snapshots.
#[derive(Debug)]
pub struct CheckpointRing {
    dir: PathBuf,
    keep: usize,
    saves: u64,
    crash: Option<CrashPoint>,
}

impl CheckpointRing {
    /// Opens (creating if needed) the ring directory, retaining at most
    /// `keep` snapshots (clamped to ≥ 1).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] if the directory cannot be created.
    pub fn create(dir: impl Into<PathBuf>, keep: usize) -> Result<Self, CheckpointError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| CheckpointError::Io {
            path: dir.clone(),
            op: "create dir",
            message: e.to_string(),
        })?;
        Ok(CheckpointRing {
            dir,
            keep: keep.max(1),
            saves: 0,
            crash: None,
        })
    }

    /// Arms an injected crash (fault testing only).
    pub(crate) fn set_crash(&mut self, crash: Option<CrashPoint>) {
        self.crash = crash;
    }

    /// Saves `snap` atomically and prunes the ring to `keep` entries.
    /// Returns the final snapshot path.
    ///
    /// # Errors
    ///
    /// * [`CheckpointError::Io`] on filesystem failure.
    /// * [`CheckpointError::CrashInjected`] when an armed
    ///   [`CrashPoint`] fires — the partial write it leaves behind is
    ///   exactly what a real kill at that byte offset would leave.
    pub fn save(&mut self, snap: &TrainSnapshot) -> Result<PathBuf, CheckpointError> {
        self.saves += 1;
        let bytes = codec::encode(snap);
        let name = format!("{SNAP_PREFIX}{:010}{SNAP_SUFFIX}", snap.global_iter);
        let final_path = self.dir.join(&name);
        let tmp_path = self.dir.join(format!(".tmp-{name}"));
        if let Some(cp) = self.crash {
            if cp.fires(self.saves) {
                let cut = cp
                    .after_bytes
                    .unwrap_or(bytes.len() as u64 / 2)
                    .min(bytes.len() as u64) as usize;
                let victim = if cp.torn { &final_path } else { &tmp_path };
                // lint:allow(panic-reachability): in-bounds — `cut` is min-clamped to bytes.len() above (suppresses chain: CheckpointRing::save → [])
                write_all(victim, &bytes[..cut])?;
                return Err(CheckpointError::CrashInjected {
                    save_index: self.saves,
                });
            }
        }
        let file = write_all(&tmp_path, &bytes)?;
        file.sync_all().map_err(|e| io_err(&tmp_path, "fsync", e))?;
        drop(file);
        fs::rename(&tmp_path, &final_path).map_err(|e| io_err(&final_path, "rename", e))?;
        // Make the rename durable. Some filesystems refuse to fsync a
        // directory handle; a failure here narrows the crash window but
        // does not invalidate anything already written, so it is not fatal.
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }
        self.prune();
        Ok(final_path)
    }

    /// Removes snapshots beyond the newest `keep`, plus any stale temp
    /// files from earlier crashed saves. Removal failures are ignored —
    /// an over-full ring is not a correctness problem.
    fn prune(&self) {
        let mut entries = Self::entries(&self.dir).unwrap_or_default();
        while entries.len() > self.keep {
            let _ = fs::remove_file(entries.remove(0));
        }
        // prune only runs right after a successful save, when no temp file
        // is in flight — anything .tmp- left over is debris from a crash.
        if let Ok(rd) = fs::read_dir(&self.dir) {
            for e in rd.flatten() {
                if e.file_name().to_string_lossy().starts_with(".tmp-") {
                    let _ = fs::remove_file(e.path());
                }
            }
        }
    }

    /// Snapshot files in `dir`, oldest first. Hidden temp files from
    /// interrupted saves are excluded by construction.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] if the directory cannot be read.
    pub(crate) fn entries(dir: &Path) -> Result<Vec<PathBuf>, CheckpointError> {
        let rd = fs::read_dir(dir).map_err(|e| io_err(dir, "read dir", e))?;
        let mut out: Vec<PathBuf> = rd
            .flatten()
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with(SNAP_PREFIX) && n.ends_with(SNAP_SUFFIX))
            })
            .collect();
        out.sort();
        Ok(out)
    }

    /// Loads the newest snapshot that passes the integrity check, walking
    /// the ring newest-first and skipping corrupt entries (a torn final
    /// file from a lost rename, a bit flip at rest).
    ///
    /// # Errors
    ///
    /// * [`CheckpointError::Io`] if the directory is unreadable.
    /// * [`CheckpointError::NoValidSnapshot`] if every candidate fails —
    ///   including the empty-directory case.
    pub(crate) fn load_latest(dir: &Path) -> Result<(TrainSnapshot, PathBuf), CheckpointError> {
        let entries = Self::entries(dir)?;
        let mut corrupt = 0;
        for path in entries.iter().rev() {
            let bytes = match fs::read(path) {
                Ok(b) => b,
                Err(_) => {
                    corrupt += 1;
                    continue;
                }
            };
            match codec::decode(&bytes, path) {
                Ok(snap) => return Ok((snap, path.clone())),
                Err(_) => corrupt += 1,
            }
        }
        Err(CheckpointError::NoValidSnapshot {
            dir: dir.to_path_buf(),
            corrupt,
        })
    }
}

fn write_all(path: &Path, bytes: &[u8]) -> Result<File, CheckpointError> {
    let mut f = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(path)
        .map_err(|e| io_err(path, "create", e))?;
    f.write_all(bytes).map_err(|e| io_err(path, "write", e))?;
    Ok(f)
}

fn io_err(path: &Path, op: &'static str, e: std::io::Error) -> CheckpointError {
    CheckpointError::Io {
        path: path.to_path_buf(),
        op,
        message: e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::super::{ParamState, TrainerState};
    use super::*;

    fn snap(global_iter: u64) -> TrainSnapshot {
        TrainSnapshot {
            config_hash: 7,
            epoch: 0,
            epoch_iter: global_iter,
            global_iter,
            device_allocs: vec![global_iter * 3],
            dead_devices: Vec::new(),
            rollbacks: 0,
            epoch_loss_sum: global_iter as f64,
            epoch_acc_sum: 0.5,
            loss_trail: (0..global_iter).map(|i| i as f32).collect(),
            trainer: TrainerState {
                adam_t: global_iter,
                headroom_multiplier: 1.0,
                params: vec![ParamState {
                    rows: 2,
                    cols: 2,
                    value: vec![1.0, 2.0, 3.0, 4.0],
                    m: vec![0.0; 4],
                    v: vec![0.0; 4],
                }],
            },
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("buffalo-ckpt-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn ring_keeps_last_n_and_loads_newest() {
        let dir = tmpdir("ring");
        let mut ring = CheckpointRing::create(&dir, 3).unwrap();
        for i in 1..=6 {
            ring.save(&snap(i)).unwrap();
        }
        let entries = CheckpointRing::entries(&dir).unwrap();
        assert_eq!(entries.len(), 3, "{entries:?}");
        let (latest, path) = CheckpointRing::load_latest(&dir).unwrap();
        assert_eq!(latest, snap(6));
        assert!(path.to_string_lossy().contains("0000000006"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_snapshot_falls_back_to_previous_ring_entry() {
        // Satellite: a torn newest snapshot is rejected by the CRC and the
        // loader silently falls back to the older, intact entry.
        let dir = tmpdir("torn");
        let mut ring = CheckpointRing::create(&dir, 3).unwrap();
        ring.save(&snap(1)).unwrap();
        let newest = ring.save(&snap(2)).unwrap();
        let bytes = fs::read(&newest).unwrap();
        fs::write(&newest, &bytes[..bytes.len() / 2]).unwrap();
        let (latest, _) = CheckpointRing::load_latest(&dir).unwrap();
        assert_eq!(latest.global_iter, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flipped_snapshot_falls_back_too() {
        let dir = tmpdir("flip");
        let mut ring = CheckpointRing::create(&dir, 3).unwrap();
        ring.save(&snap(1)).unwrap();
        let newest = ring.save(&snap(2)).unwrap();
        let mut bytes = fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&newest, &bytes).unwrap();
        let (latest, _) = CheckpointRing::load_latest(&dir).unwrap();
        assert_eq!(latest.global_iter, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_or_all_corrupt_ring_is_a_structured_error() {
        let dir = tmpdir("empty");
        let ring = CheckpointRing::create(&dir, 2).unwrap();
        drop(ring);
        let err = CheckpointRing::load_latest(&dir).unwrap_err();
        assert!(matches!(
            err,
            CheckpointError::NoValidSnapshot { corrupt: 0, .. }
        ));
        // Corrupt the only snapshot: still structured, now counting it.
        let mut ring = CheckpointRing::create(&dir, 2).unwrap();
        let p = ring.save(&snap(1)).unwrap();
        fs::write(&p, b"garbage").unwrap();
        let err = CheckpointRing::load_latest(&dir).unwrap_err();
        assert!(matches!(
            err,
            CheckpointError::NoValidSnapshot { corrupt: 1, .. }
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn untorn_crash_leaves_final_files_intact() {
        // torn=false: the partial write stays in the temp file, so the
        // previous snapshot is untouched and still loads.
        let dir = tmpdir("crash-clean");
        let mut ring = CheckpointRing::create(&dir, 3).unwrap();
        ring.save(&snap(1)).unwrap();
        ring.set_crash(Some(CrashPoint {
            at_save: 2,
            after_bytes: Some(32),
            torn: false,
        }));
        let err = ring.save(&snap(2)).unwrap_err();
        assert!(matches!(
            err,
            CheckpointError::CrashInjected { save_index: 2 }
        ));
        let (latest, _) = CheckpointRing::load_latest(&dir).unwrap();
        assert_eq!(latest.global_iter, 1);
        // The stale temp file is invisible to the loader and cleaned up by
        // the next successful save.
        let mut ring = CheckpointRing::create(&dir, 3).unwrap();
        ring.save(&snap(3)).unwrap();
        let stale: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp-"))
            .collect();
        assert!(stale.is_empty(), "stale temp files: {stale:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_crash_is_caught_by_crc_on_load() {
        // torn=true: the partial write is visible at the final path — the
        // lost-rename case the CRC footer exists for.
        let dir = tmpdir("crash-torn");
        let mut ring = CheckpointRing::create(&dir, 3).unwrap();
        ring.save(&snap(1)).unwrap();
        ring.set_crash(Some(CrashPoint {
            at_save: 2,
            after_bytes: None,
            torn: true,
        }));
        ring.save(&snap(2)).unwrap_err();
        // The torn file exists at the final path but fails the check.
        let entries = CheckpointRing::entries(&dir).unwrap();
        assert_eq!(entries.len(), 2);
        let (latest, _) = CheckpointRing::load_latest(&dir).unwrap();
        assert_eq!(latest.global_iter, 1);
        fs::remove_dir_all(&dir).unwrap();
    }
}
