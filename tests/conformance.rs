//! Registry-driven `ApproxApp` conformance suite.
//!
//! Iterates every application in the built-in registry and holds it to
//! the contract the pipeline assumes (see
//! [`opprox_testutil::conformance`]). Adding a port to the registry adds
//! it to this suite automatically; a port that breaks a contract fails
//! here with the app and contract named.

use opprox_apps::registry::all_apps;
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
