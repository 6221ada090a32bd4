//! Property test of the fork-join pool's exactly-once contract: whatever
//! the task count, pool width and per-task runtime spread, `run_owned`
//! returns **every task's result exactly once, in task order**, and the
//! pool's own counters agree — the executed-per-worker histogram sums to
//! the task total.

use mcfpga_service::{
    ParallelExecutor, SPAWN_EVENTS_METRIC, TASKS_EXECUTED_METRIC, TASKS_TOTAL_METRIC,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_task_runs_exactly_once_in_order(
        threads in 2usize..9,
        tasks in 0usize..120,
        spin in 0u32..200,
    ) {
        let mut pool = ParallelExecutor::new(threads);
        // two rounds on the same pool: reuse must not leak or re-run work
        for round in 0..2u64 {
            let input: Vec<u64> = (0..tasks).map(|i| round * 10_000 + i as u64).collect();
            let expect: Vec<u64> = input.iter().map(|v| v * 3 + 1).collect();
            let got = pool.run_owned(input, move |v: u64| {
                // uneven busy-work widens the completion-order spread
                for _ in 0..(v % u64::from(spin + 1)) {
                    std::hint::spin_loop();
                }
                v * 3 + 1
            });
            prop_assert_eq!(&got, &expect, "results must land in task order");
        }
        let registry = pool.registry();
        prop_assert_eq!(
            registry.counter_value(TASKS_TOTAL_METRIC),
            Some(2 * tasks as u64)
        );
        let executed: u64 = registry
            .counter_cells(TASKS_EXECUTED_METRIC)
            .expect("executed histogram registered")
            .iter()
            .sum();
        let pooled = if tasks > 1 { 2 * tasks as u64 } else { 0 };
        prop_assert_eq!(
            executed, pooled,
            "worker histogram must account for every pooled task"
        );
        prop_assert!(
            registry.counter_value(SPAWN_EVENTS_METRIC) <= Some(1),
            "one pool serves both rounds"
        );
    }
}
