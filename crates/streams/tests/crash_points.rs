//! Crash-point recovery harness (ISSUE 8 tentpole).
//!
//! A PE checkpoint is a sequence of VFS operations
//! (create/write/fsync/rename/fsync-dir of its one generation file, plus
//! GC removes). This harness first runs a fixed multi-generation checkpoint
//! workload fault-free to *enumerate* those operations, then replays the
//! same workload once per operation index K with a sticky crash injected
//! at K — operation K and everything after it fails, simulating the
//! device dying mid-write. After every crash it asserts the two
//! guarantees the persistence layer makes:
//!
//! 1. **Recovery always reads a valid generation** — the recovered
//!    snapshot set is bit-identical to the state after some completed
//!    workload step (old or new generation, never a torn mix, never a
//!    panic).
//! 2. **The resumed run converges** — reopening the checkpointer on the
//!    crashed directory (which sweeps scratch debris and resumes the
//!    generation counter) and replaying the remaining steps ends with
//!    the exact same recovered state as the fault-free run.

use spca_streams::checkpoint::{recover_pe_manifest, PeCheckpointer, SnapshotSet};
use spca_streams::vfs::{FaultVfs, IoFaultSpec};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const PE: usize = 0;
/// Five generations: 5 operations each plus a GC remove from the third on,
/// 28 operations fault-free.
const STEPS: u64 = 5;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("spca_crashpt_{}_{name}", std::process::id()))
}

/// The canonical checkpoint contents after workload step `step`. Two
/// parts per step — one with a space in its operator name (exercising
/// the generation file's name-last field) — whose payloads are a deterministic
/// function of the step, so a recovered set identifies exactly which
/// step it came from.
fn canonical_parts(step: u64) -> SnapshotSet {
    vec![
        (
            "alpha split op".to_string(),
            format!("alpha payload for step {step}; ")
                .repeat(4)
                .into_bytes(),
        ),
        (
            "beta".to_string(),
            vec![step as u8 ^ 0x5a; 48 + step as usize],
        ),
    ]
}

/// Runs the whole workload: `STEPS` checkpoint generations, in order.
/// Errors are returned (not unwrapped) so crash replays can keep going
/// the way a supervised PE would — a failed checkpoint is skipped, not
/// fatal.
fn run_workload(ckpt: &mut PeCheckpointer, from_step: u64) -> Vec<std::io::Result<()>> {
    ((from_step + 1)..=STEPS)
        .map(|s| ckpt.write(&canonical_parts(s)))
        .collect()
}

/// Which workload step a recovered snapshot set corresponds to:
/// `Some(0)` for a clean empty directory, `Some(s)` when the set is
/// bit-identical to `canonical_parts(s)`, `None` when it matches no
/// committed state (i.e. recovery surfaced a torn mix — the failure this
/// harness exists to catch).
fn step_of(set: &Option<SnapshotSet>) -> Option<u64> {
    match set {
        None => Some(0),
        Some(parts) => (1..=STEPS).find(|&s| parts == &canonical_parts(s)),
    }
}

fn assert_no_scratch_debris(dir: &Path, context: &str) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let name = entry.unwrap().file_name().to_string_lossy().into_owned();
        assert!(
            !name.contains(".tmp"),
            "{context}: scratch file {name} survived"
        );
    }
}

#[test]
fn every_crash_point_recovers_a_valid_generation_and_converges() {
    // Pass 1: fault-free, to enumerate the operation sequence and record
    // the reference final state.
    let free_dir = tmp("free");
    std::fs::remove_dir_all(&free_dir).ok();
    let vfs = Arc::new(FaultVfs::default());
    let mut ckpt = PeCheckpointer::new_with_vfs(&free_dir, PE, vfs.clone()).unwrap();
    for r in run_workload(&mut ckpt, 0) {
        r.unwrap();
    }
    let total_ops = vfs.ops_performed();
    assert!(
        total_ops > 20,
        "workload must span many storage operations, got {total_ops}"
    );
    let reference = recover_pe_manifest(&free_dir, PE);
    assert_eq!(reference.quarantined, 0);
    assert!(!reference.fell_back);
    assert_eq!(
        step_of(&reference.set),
        Some(STEPS),
        "fault-free run must land on the final step"
    );
    std::fs::remove_dir_all(&free_dir).ok();

    // Pass 2: replay, killing the device after operation K, for every K.
    for k in 1..=total_ops {
        let dir = tmp(&format!("k{k}"));
        std::fs::remove_dir_all(&dir).ok();
        let vfs = Arc::new(FaultVfs::new(IoFaultSpec {
            crash_at_op: Some(k),
            ..IoFaultSpec::default()
        }));
        let mut ckpt = PeCheckpointer::new_with_vfs(&dir, PE, vfs).unwrap();
        // A supervised PE treats a failed checkpoint as a skip; once the
        // device is dead every later write fails fast too.
        let _ = run_workload(&mut ckpt, 0);
        drop(ckpt);

        // "Reboot": the device is healthy again; recovery must hand back
        // a bit-identical committed generation, quarantining whatever
        // the crash tore.
        let recovery = recover_pe_manifest(&dir, PE);
        let recovered_step = step_of(&recovery.set).unwrap_or_else(|| {
            panic!("crash at op {k}/{total_ops}: recovery produced a state matching no committed generation")
        });

        // Resume: reopen (sweeps scratch debris, resumes the generation
        // counter) and finish the workload; on a healthy device every
        // remaining step must succeed.
        let mut resumed = PeCheckpointer::new(&dir, PE).unwrap();
        for r in run_workload(&mut resumed, recovered_step) {
            r.unwrap_or_else(|e| {
                panic!("crash at op {k}: resumed write failed on a healthy device: {e}")
            });
        }
        assert_no_scratch_debris(&dir, &format!("crash at op {k}"));

        let final_state = recover_pe_manifest(&dir, PE);
        assert_eq!(final_state.quarantined, 0, "crash at op {k}");
        assert_eq!(
            step_of(&final_state.set),
            Some(STEPS),
            "crash at op {k}/{total_ops} (recovered at step {recovered_step}): \
             resumed run must converge to the fault-free final state"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Crashing *while recovering* (the reboot itself dies mid-quarantine)
/// must still never surface a torn mix: a second, healthy recovery reads
/// a valid generation.
#[test]
fn crash_during_recovery_is_also_safe() {
    use spca_streams::checkpoint::recover_pe_manifest_vfs;

    let dir = tmp("recrash");
    std::fs::remove_dir_all(&dir).ok();
    let mut ckpt = PeCheckpointer::new(&dir, PE).unwrap();
    for r in run_workload(&mut ckpt, 0) {
        r.unwrap();
    }
    // Tear the newest generation so recovery has quarantine work to do.
    let newest = dir.join(format!("pe{PE}-g{STEPS}.ckpt"));
    let bytes = std::fs::read(&newest).unwrap();
    std::fs::write(&newest, &bytes[..bytes.len() / 2]).unwrap();
    drop(ckpt);

    for k in 1..=6 {
        let vfs = FaultVfs::new(IoFaultSpec {
            crash_at_op: Some(k),
            ..IoFaultSpec::default()
        });
        // Must not panic, whatever it manages to salvage.
        let _ = recover_pe_manifest_vfs(&vfs, &dir, PE);
        // A healthy retry still reads a committed generation.
        let retry = recover_pe_manifest(&dir, PE);
        let step = step_of(&retry.set);
        assert!(
            step.is_some() && step != Some(0),
            "recovery crash at op {k}: healthy retry must still read a committed generation"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
