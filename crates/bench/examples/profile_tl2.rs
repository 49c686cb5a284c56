//! Profiles the TL2 (3, 2) liveness queries with the in-repo ~97 Hz
//! sampling profiler: registers the calling thread as the session
//! thread, runs OF + LF + WF through a fresh [`Verifier`] session, and
//! prints the folded stacks of the window — the same format
//! `GET /v1/profile` serves, ready for `flamegraph.pl` or speedscope —
//! plus, per query, the mean number of busy pool workers per sample
//! (the `tm_parallelism` histogram).
//!
//! ```bash
//! TM_MODELCHECK_THREADS=2 cargo run --release -p tm-bench --example profile_tl2
//! ```
//!
//! The interesting lines are the `run_graph_build` frames: the first
//! query compiles the run graph level by level on the pool, so the build
//! folds as `worker-N;task;run_graph_build` on every worker while the
//! session thread waits in `run_graph_build;pool_dispatch` and runs the
//! serial numbering between levels (`session-*;run_graph_build`). See
//! `crates/bench/NOTES.md`.

use std::time::Instant;

use tm_bench::liveness_roster;
use tm_checker::Verifier;
use tm_lang::LivenessProperty;
use tm_obs::{
    global_histogram, profile_snapshot, register_thread, start_sampler, stop_sampler,
    HistogramSnapshot, ThreadKind, Unit,
};

/// The `tm_parallelism` histogram: busy pool workers per sampler tick.
fn parallelism() -> HistogramSnapshot {
    global_histogram("tm_parallelism", "Busy pool workers per profiler sample", &[], Unit::None)
        .snapshot()
}

fn main() {
    let pool = tm_automata::modelcheck_threads();
    let _session = register_thread(ThreadKind::Session);
    let case = liveness_roster(3, 2)
        .into_iter()
        .find(|case| case.name.starts_with("TL2"))
        .expect("TL2 is in the (3,2) roster");
    println!("profiling {} at (3, 2), pool = {pool} threads", case.name);

    start_sampler();
    let before = profile_snapshot();
    let start = Instant::now();
    let mut verifier = Verifier::new(3, 2);
    for property in LivenessProperty::all() {
        let query_start = Instant::now();
        let busy_before = parallelism();
        let verdict = case.check_session(&mut verifier, property);
        let busy = parallelism();
        let samples = busy.count - busy_before.count;
        println!(
            "  {property}: {} (cached artifact: {}, {:.2?}, {:.2} busy workers per sample)",
            if verdict.holds() { "Y" } else { "N" },
            verdict.stats.artifact_cached,
            query_start.elapsed(),
            (busy.sum - busy_before.sum) as f64 / samples.max(1) as f64
        );
    }
    let elapsed = start.elapsed();
    let folded = profile_snapshot().folded_since(&before);
    stop_sampler();

    println!("\nfolded stacks over {elapsed:.2?} of work (count = ~10.3 ms samples):");
    print!("{folded}");
}
