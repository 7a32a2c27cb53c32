//! Cancellation-latency contract (CI-gated under the default pool and
//! `XSFQ_THREADS=1`): a cancelled flow aborts at the **next pass
//! boundary** — no further pass starts, the partial telemetry is exactly
//! the passes that completed, and the verdict names the cause. The matrix
//! covers a private 1-thread pool, a private 4-thread pool and the
//! process-wide executor, because the token is polled inside the parallel
//! evaluate loops too and the pool must come back healthy.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use xsfq_aig::pass::{PassObserver, PassStat};
use xsfq_aig::{build, Aig, Lit};
use xsfq_core::{FlowError, JobErrorKind, SynthesisFlow};
use xsfq_exec::{CancelCause, CancelToken};

fn adder() -> Aig {
    let mut g = Aig::new("adder4");
    let a = g.input_word("a", 4);
    let b = g.input_word("b", 4);
    let (sum, carry) = build::ripple_add(&mut g, &a, &b, Lit::FALSE);
    g.output_word("sum", &sum);
    g.output("carry", carry);
    g
}

/// The pool matrix every scenario runs under. `XSFQ_THREADS=1` in CI
/// additionally pins the *global* row to a sequential pool.
fn flows() -> Vec<(&'static str, SynthesisFlow)> {
    vec![
        ("threads(1)", SynthesisFlow::new().threads(1)),
        ("threads(4)", SynthesisFlow::new().threads(4)),
        ("global", SynthesisFlow::new()),
    ]
}

/// Observer that cancels the token after the first completed pass.
struct CancelAfterFirstPass {
    token: CancelToken,
    seen: Arc<Mutex<Vec<PassStat>>>,
}

impl PassObserver for CancelAfterFirstPass {
    fn on_pass(&mut self, stat: &PassStat) {
        let mut seen = self.seen.lock().unwrap();
        seen.push(stat.clone());
        if seen.len() == 1 {
            self.token.cancel();
        }
    }
}

/// A token cancelled before the run starts must abort before pass 0.
#[test]
fn pre_cancelled_token_runs_zero_passes() {
    let g = adder();
    for (label, flow) in flows() {
        let token = CancelToken::default();
        token.cancel();
        let flow = flow.cancel_token(token);
        let err = flow.run(&g).expect_err(label);
        assert!(
            matches!(err, FlowError::Cancelled(CancelCause::Explicit)),
            "{label}: expected explicit cancellation, got {err:?}"
        );
        // The isolated runner reports the same verdict with empty telemetry.
        let results = flow.run_many_isolated(std::slice::from_ref(&g));
        let job = results[0].as_ref().expect_err(label);
        assert!(
            matches!(job.kind, JobErrorKind::Cancelled),
            "{label}: {:?}",
            job.kind
        );
        assert!(job.passes.is_empty(), "{label}: no pass may run");
    }
}

/// Cancelling mid-run stops the script at the next pass boundary: exactly
/// one pass completes, and the flow returns promptly (the latency bound is
/// generous — the contract is "no further pass", not a wall-clock SLA).
#[test]
fn cancel_after_first_pass_stops_at_the_boundary() {
    let g = adder();
    // A long keep-best loop: without cancellation this runs 64 rounds.
    let script = "repeat 64 { b; rw; rf; rwz }";
    for (label, flow) in flows() {
        let token = CancelToken::default();
        let flow = flow.cancel_token(token.clone()).script_str(script).unwrap();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let mut observer = CancelAfterFirstPass {
            token: token.clone(),
            seen: seen.clone(),
        };
        let cancelled_at = Instant::now();
        let err = flow.run_observed(&g, &mut observer).expect_err(label);
        let latency = cancelled_at.elapsed();
        assert!(
            matches!(err, FlowError::Cancelled(CancelCause::Explicit)),
            "{label}: {err:?}"
        );
        let seen = seen.lock().unwrap();
        assert_eq!(
            seen.len(),
            1,
            "{label}: the pass after the cancel must not run"
        );
        assert!(
            latency < Duration::from_secs(30),
            "{label}: flow took {latency:?} to honor the cancellation"
        );
    }
}

/// A zero deadline expires before pass 0 and is reported as a deadline —
/// not an explicit cancel — through both entry points.
#[test]
fn expired_deadline_reports_deadline_cause() {
    let g = adder();
    for (label, flow) in flows() {
        let flow = flow.job_deadline(Duration::ZERO);
        let err = flow.run(&g).expect_err(label);
        assert!(
            matches!(err, FlowError::Cancelled(CancelCause::Deadline)),
            "{label}: {err:?}"
        );
        let results = flow.run_many_isolated(std::slice::from_ref(&g));
        let job = results[0].as_ref().expect_err(label);
        assert!(
            matches!(job.kind, JobErrorKind::DeadlineExpired),
            "{label}: {:?}",
            job.kind
        );
        assert!(job.passes.is_empty(), "{label}");
    }
}

/// Cancellation must not poison the executor: after a cancelled batch,
/// the same flow configuration (and, on the `global` row, the same
/// process-wide pool) completes a healthy run identical to a fresh
/// flow's.
#[test]
fn cancellation_leaves_the_pool_healthy() {
    let g = adder();
    for (label, flow) in flows() {
        let token = CancelToken::default();
        token.cancel();
        let cancelled = flow.clone().cancel_token(token);
        assert!(
            cancelled.run_many(std::slice::from_ref(&g)).is_err(),
            "{label}"
        );
        let after = flow.run(&g).unwrap_or_else(|e| {
            panic!("{label}: pool unusable after cancellation: {e}");
        });
        let fresh = SynthesisFlow::new().run(&g).unwrap();
        assert_eq!(
            after.report.jj_total, fresh.report.jj_total,
            "{label}: results diverged after cancellation"
        );
    }
}
