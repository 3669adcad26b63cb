//! Regression suite for shard recovery.
//!
//! Pins a fault plan that once wedged the runtime: a shard finished a round
//! but its `StepDone` was lost, and a replacement restored at that round
//! stayed silent on every retry until the recovery budget ran out. With one
//! round in flight, the replacement is rebuilt from the coordinator's
//! gathered lanes one round back and redoes the round, so the plan must
//! finish with the sequential answer and an intact conformance ledger.

use cdrw_congest::CongestConfig;
use cdrw_core::{Cdrw, CdrwConfig};
use cdrw_graph::{Graph, GraphBuilder};
use cdrw_kmachine::{FaultPlan, KMachineConfig, KMachineEngine};

/// The chaos suite's two-pocket graph.
fn small_graph() -> Graph {
    GraphBuilder::from_edges(
        10,
        [
            (0, 1),
            (0, 2),
            (1, 2),
            (1, 3),
            (2, 3),
            (3, 4),
            (4, 5),
            (5, 6),
            (5, 7),
            (6, 7),
            (6, 8),
            (7, 8),
            (8, 9),
            (5, 9),
        ],
    )
    .unwrap()
}

fn config() -> CdrwConfig {
    CdrwConfig::builder().seed(9).delta(0.2).build()
}

#[test]
fn a_lost_step_done_before_a_crash_is_recovered() {
    let graph = small_graph();
    let want = Cdrw::new(config()).detect_all(&graph).unwrap();
    let engine = KMachineEngine::new(
        KMachineConfig::new(3)
            .with_congest(CongestConfig::new(config()))
            .with_partition_seed(3),
    )
    .unwrap();
    let plan = FaultPlan::seeded(6089)
        .with_drop_rate(0.098)
        .with_delay(0.048, 4)
        .with_duplicate_rate(0.004)
        .with_crash(2, 7);
    let report = engine.run_chaos(&graph, &plan).unwrap();
    assert_eq!(report.result, want);
    for round in &report.conformance.per_round {
        assert_eq!(
            round.measured_messages, round.modelled_messages,
            "conformance ledger polluted by recovery traffic in round {}",
            round.round
        );
    }
}
