//! The CONGEST and k-machine layers must agree with the sequential algorithm
//! and with each other: same detected communities, costs consistent with the
//! theory they implement.

use cdrw_core::{AssemblyPolicy, MixingCriterion};
use cdrw_repro::prelude::*;

fn instance(n: usize, seed: u64) -> (Graph, Partition, f64) {
    let p = (12.0 * (n as f64).ln() / n as f64).min(1.0);
    let params = PpmParams::new(n, 2, p, p / 40.0).unwrap();
    let (graph, truth) = generate_ppm(&params, seed).unwrap();
    (
        graph,
        truth,
        params.expected_block_conductance().clamp(0.01, 1.0),
    )
}

/// The criterion × ensemble × assembly combinations the k-machine
/// conformance suite runs.
fn policy_combos() -> [(MixingCriterion, EnsemblePolicy, AssemblyPolicy); 4] {
    [
        (
            MixingCriterion::Renormalized,
            EnsemblePolicy::Single,
            AssemblyPolicy::Raw,
        ),
        (
            MixingCriterion::Strict,
            EnsemblePolicy::Ensemble {
                walks: 3,
                quorum: 2,
            },
            AssemblyPolicy::Raw,
        ),
        (
            MixingCriterion::Lazy(0.5),
            EnsemblePolicy::Single,
            AssemblyPolicy::Pooled {
                reseed: 0,
                quorum: 0,
            },
        ),
        (
            MixingCriterion::Renormalized,
            EnsemblePolicy::Ensemble {
                walks: 2,
                quorum: 1,
            },
            AssemblyPolicy::Pooled {
                reseed: 2,
                quorum: 1,
            },
        ),
    ]
}

#[test]
fn congest_and_sequential_detect_identical_partitions() {
    for seed in [1u64, 2, 3] {
        let (graph, _, delta) = instance(256, seed);
        for (criterion, ensemble, assembly) in policy_combos() {
            let algorithm = CdrwConfig::builder()
                .seed(seed)
                .delta(delta)
                .criterion(criterion)
                .ensemble_policy(ensemble)
                .assembly_policy(assembly)
                .build();
            let sequential = Cdrw::new(algorithm).detect_all(&graph).unwrap();
            let congest = CongestCdrw::new(CongestConfig::new(algorithm))
                .detect_all(&graph)
                .unwrap();
            // The whole result — members, traces, partition and assembly
            // report — not just the partition.
            assert_eq!(
                sequential, congest.result,
                "seed {seed}, {criterion:?}/{ensemble:?}/{assembly:?}"
            );
        }
    }
}

#[test]
fn congest_and_sequential_detect_identical_single_communities() {
    let (graph, _, delta) = instance(256, 5);
    for (criterion, ensemble, assembly) in policy_combos() {
        let algorithm = CdrwConfig::builder()
            .seed(5)
            .delta(delta)
            .criterion(criterion)
            .ensemble_policy(ensemble)
            .assembly_policy(assembly)
            .build();
        let sequential = Cdrw::new(algorithm);
        let congest = CongestCdrw::new(CongestConfig::new(algorithm));
        for seed in [0usize, 17, 200] {
            let (detection, cost) = congest.detect_community(&graph, seed).unwrap();
            assert_eq!(
                sequential.detect_community(&graph, seed).unwrap(),
                detection,
                "seed {seed}, {criterion:?}/{ensemble:?}/{assembly:?}"
            );
            assert_eq!(cost.seed, seed);
            assert_eq!(cost.community_size, detection.len());
        }
    }
}

#[test]
fn congest_costs_track_the_detection_structure() {
    let (graph, truth, delta) = instance(512, 4);
    let algorithm = CdrwConfig::builder().seed(4).delta(delta).build();
    let report = CongestCdrw::new(CongestConfig::new(algorithm))
        .detect_all(&graph)
        .unwrap();
    // Detection stays correct.
    assert!(f_score(report.result.partition(), &truth).f_score > 0.85);
    // Costs decompose per community and are internally consistent.
    let sum_rounds: u64 = report.per_community.iter().map(|c| c.cost.rounds).sum();
    let sum_messages: u64 = report.per_community.iter().map(|c| c.cost.messages).sum();
    assert_eq!(sum_rounds, report.total.rounds);
    assert_eq!(sum_messages, report.total.messages);
    for community in &report.per_community {
        assert!(community.cost.rounds > 0);
        assert!(community.walk_steps > 0);
        // Every size check costs at least one aggregation round.
        assert!(community.cost.rounds >= community.size_checks as u64);
    }
}

#[test]
fn kmachine_conversion_uses_the_congest_measurements() {
    let (graph, _, delta) = instance(256, 7);
    let algorithm = CdrwConfig::builder().seed(7).delta(delta).build();
    let congest_config = CongestConfig::new(algorithm);
    let congest = CongestCdrw::new(congest_config).detect_all(&graph).unwrap();

    let k = 8usize;
    let report = KMachineSimulator::new(
        KMachineConfig::new(k)
            .with_congest(congest_config)
            .with_partition_seed(1),
    )
    .unwrap()
    .run(&graph)
    .unwrap();

    // The conversion bound must equal M/k² + ∆T/k computed from the CONGEST
    // measurements embedded in the report.
    let expected = report.congest.total.messages as f64 / (k * k) as f64
        + graph.max_degree() as f64 * report.congest.total.rounds as f64 / k as f64;
    assert!((report.conversion_rounds - expected).abs() < 1e-6);
    // And the embedded CONGEST run is the same execution.
    assert_eq!(report.congest.total, congest.total);
    // Refinement can only help.
    assert!(report.refined_rounds() <= report.conversion_rounds + 1e-9);
}

#[test]
fn kmachine_round_complexity_decreases_monotonically_in_k() {
    let (graph, _, delta) = instance(256, 9);
    let congest_config = CongestConfig::new(CdrwConfig::builder().seed(9).delta(delta).build());
    let mut previous = f64::INFINITY;
    for k in [2usize, 4, 8, 16, 32, 64] {
        let report = KMachineSimulator::new(KMachineConfig::new(k).with_congest(congest_config))
            .unwrap()
            .run(&graph)
            .unwrap();
        assert!(
            report.conversion_rounds < previous,
            "rounds did not decrease at k = {k}"
        );
        previous = report.conversion_rounds;
    }
}

#[test]
fn partition_balance_matches_the_rvp_claims() {
    let (graph, _, delta) = instance(512, 11);
    let congest_config = CongestConfig::new(CdrwConfig::builder().seed(11).delta(delta).build());
    let k = 16usize;
    let report = KMachineSimulator::new(
        KMachineConfig::new(k)
            .with_congest(congest_config)
            .with_partition_seed(3),
    )
    .unwrap()
    .run(&graph)
    .unwrap();
    let n = graph.num_vertices();
    let stats = report.partition;
    // Õ(n/k) vertices per machine: allow a generous constant.
    assert!(stats.max_vertices < 3 * n / k);
    assert!(stats.min_vertices > n / (3 * k));
    // Õ(m/k + ∆) stored edge endpoints per machine.
    let bound = 4 * (2 * graph.num_edges() / k + graph.max_degree());
    assert!(stats.max_stored_edges < bound);
}
