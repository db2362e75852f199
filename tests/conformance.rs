//! Registry-driven `ApproxApp` conformance suite.
//!
//! Iterates every application in the built-in registry and holds it to
//! the contract the pipeline assumes (see
//! [`opprox_testutil::conformance`]). Adding a port to the registry adds
//! it to this suite automatically; a port that breaks a contract fails
//! here with the app and contract named.

use opprox_approx_rt::{InputParams, LevelConfig, PhaseSchedule, RunResult};
use opprox_apps::registry::{all_apps, by_name};
use opprox_testutil::conformance;

#[test]
fn every_registered_app_reproduces_golden_at_level_zero() {
    for app in all_apps() {
        conformance::assert_level_zero_reproduces_golden(app.as_ref());
    }
}

#[test]
fn every_registered_app_has_finite_nonnegative_qos() {
    for app in all_apps() {
        conformance::assert_qos_finite_and_nonnegative(app.as_ref());
    }
}

#[test]
fn every_registered_app_has_monotone_block_work() {
    for app in all_apps() {
        conformance::assert_block_work_monotone(app.as_ref());
    }
}

#[test]
fn every_registered_app_is_thread_count_invariant() {
    for app in all_apps() {
        conformance::assert_thread_count_invariance(app.as_ref());
    }
}

#[test]
fn every_registered_app_executes_every_declared_block() {
    for app in all_apps() {
        conformance::assert_declared_blocks_execute(app.as_ref());
    }
}

#[test]
fn every_registered_app_resumes_bitwise_from_golden_checkpoints() {
    for app in all_apps() {
        // Every built-in port runs on the outer-loop driver, so the check
        // below compares real resumed runs rather than passing vacuously.
        let input = app.representative_inputs().remove(0);
        let taken = app.checkpoints(&input, &[1]).expect("checkpoints");
        assert_eq!(taken.len(), 1, "{} takes no checkpoints", app.meta().name);
        conformance::assert_resume_matches_scratch(app.as_ref());
    }
}

/// FNV-1a over the little-endian bytes of one word.
fn fnv1a(mut hash: u64, word: u64) -> u64 {
    for byte in word.to_le_bytes() {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// Digest of everything a run reports: the output's bits, the work and
/// iteration counts, and every call-context record.
fn run_digest(run: &RunResult) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for v in &run.output {
        hash = fnv1a(hash, v.to_bits());
    }
    hash = fnv1a(hash, run.work);
    hash = fnv1a(hash, run.outer_iters);
    for r in run.log.records() {
        hash = fnv1a(hash, u64::from(r.iteration));
        hash = fnv1a(hash, r.block as u64);
        hash = fnv1a(hash, r.work);
    }
    hash
}

/// CoMD's and Bodytrack's kernels are tuned under the bit-identity
/// contract (DESIGN §5): their accurate run, a single-phase probe at
/// mixed levels, and that probe resumed from the golden run's checkpoint
/// reproduce digests recorded before the tuning. CoMD's 27 atoms give an
/// odd accurate force loop and an even perforated one.
#[test]
fn tuned_kernels_reproduce_their_pinned_bits() {
    let cases = [
        (
            "CoMD",
            vec![3.0, 1.15, 24.0],
            vec![1, 2, 3],
            [
                0xcc7a_f589_3a79_81d6,
                0x3f81_8813_440c_c437,
                0x3f81_8813_440c_c437,
            ],
        ),
        (
            "Bodytrack",
            vec![3.0, 40.0, 6.0],
            vec![2, 3, 1, 2],
            [
                0x38e2_b23e_ae81_e11e,
                0x269e_b774_deb7_2dbf,
                0x269e_b774_deb7_2dbf,
            ],
        ),
    ];
    for (name, params, levels, pinned) in cases {
        let app = by_name(name).expect("registered app");
        let input = InputParams::new(params);
        let golden = app.golden(&input).expect("golden run");
        let probe = PhaseSchedule::single_phase(LevelConfig::new(levels), 2, 4, golden.outer_iters)
            .expect("probe schedule");
        let checkpoint = app
            .checkpoints(&input, &[probe.accurate_prefix()])
            .expect("checkpoints")
            .remove(0);
        let scratch = app.run(&input, &probe).expect("probe from scratch");
        let resumed = app.resume(&checkpoint, &probe).expect("resumed probe");
        let digests = [
            run_digest(&golden),
            run_digest(&scratch),
            run_digest(&resumed),
        ];
        assert_eq!(
            digests, pinned,
            "{name}: kernel bits moved: {digests:#018x?}"
        );
    }
}
