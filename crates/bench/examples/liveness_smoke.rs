//! Release-mode liveness scaling smoke for CI: runs the compiled liveness
//! engine on every TM × contention-manager combination at (3, 1) and
//! (2, 2) — instance sizes beyond the paper's (2, 1) Table 3 — and
//! cross-checks every counterexample against the word-level property
//! oracle. Every combination's run graph is also built twice, inline
//! (`Executor::Sequential`) and on a pool of the session's size, and the
//! two builds must agree array for array. A regression on the engine
//! (hang, state-space blowup, bogus lasso, pool-dependent numbering)
//! fails or times this run out instead of wedging the test job.
//!
//! ```bash
//! cargo run --release -p tm-bench --example liveness_smoke
//! ```

use std::time::Instant;

use tm_automata::{Executor, QueryBudget, WorkerPool};
use tm_bench::{liveness_property_tag, liveness_roster, MAX_STATES};
use tm_checker::Verifier;
use tm_lang::LivenessProperty;

fn main() {
    let pool = tm_automata::modelcheck_threads();
    println!("liveness scaling smoke (pool = {pool} threads)");
    let workers = WorkerPool::new(pool);
    let budget = QueryBudget::new(MAX_STATES);
    let start = Instant::now();
    let mut checks = 0usize;
    for (n, k) in [(3usize, 1usize), (2, 2)] {
        for case in liveness_roster(n, k) {
            let inline = case
                .build_run_graph(&Executor::Sequential, &budget)
                .expect("smoke graphs are within the bound");
            let pooled = case
                .build_run_graph(&Executor::Pool(&workers), &budget)
                .expect("smoke graphs are within the bound");
            assert!(
                inline.0 == pooled.0 && inline.1 == pooled.1,
                "{} ({n},{k}): the run graph built on {pool} workers differs from the inline build",
                case.name
            );
            for property in LivenessProperty::all() {
                // A fresh session per query: every check builds its own
                // run graph, as a one-shot caller's would.
                let verdict = case
                    .check_session(&mut Verifier::new(n, k).pool_size(pool), property)
                    .into_liveness()
                    .expect("liveness query returns a liveness verdict");
                let holds = verdict.holds();
                if let Some(lasso) = verdict.counterexample() {
                    // Every violation must be a genuine one: its
                    // word-level projection fails the property.
                    let word = lasso
                        .to_word_lasso()
                        .expect("TM loops always emit statements");
                    assert!(
                        !property.holds(&word),
                        "{} ({n},{k}) {property}: lasso {word} satisfies the property",
                        case.name
                    );
                }
                if property == LivenessProperty::WaitFreedom {
                    // A thread may always read forever without
                    // committing: no TM is wait free.
                    assert!(!holds, "{} ({n},{k}) claims wait freedom", case.name);
                }
                println!(
                    "  {:22} ({n},{k}) {:2}: {} [{} states, {:.2?}]",
                    case.name,
                    liveness_property_tag(property),
                    if holds { "Y" } else { "N" },
                    verdict.tm_states,
                    verdict.total_time
                );
                checks += 1;
            }
        }
    }
    println!("{checks} checks passed in {:.2?}", start.elapsed());
}
