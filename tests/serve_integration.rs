//! Integration tests for the serving layer on real trained embeddings:
//!
//! (a) the tenant registry's budget-line configuration pick agrees with
//!     `core::selection::budget_selection`'s oracle-gap evaluation,
//! (b) the stability gate holds an SLO-violating candidate while
//!     promoting a compliant one, and
//! (c) the batched lookup path equals per-row lookups bitwise.

use embedstab::core::selection::{
    budget_selection, candidates_in_budget, pick_lowest_measure, pick_oracle, ConfigPoint,
};
use embedstab::embeddings::{train_embedding, Algo};
use embedstab::pipeline::cache::scratch_dir;
use embedstab::pipeline::{Experiment, Scale, World};
use embedstab::quant::Precision;
use embedstab::serve::{GateOutcome, Slo, StabilityGate, TenantRegistry, Version};
use std::sync::OnceLock;

fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| World::build(&Scale::Tiny.params(), 0))
}

/// Tiny-scale grid rows for one task with measures, seed 0 only (the
/// sweep an operator would run offline before registering tenants).
fn measured_points() -> Vec<ConfigPoint> {
    let rows = Experiment::new(world())
        .tasks(["sst2"])
        .algos([Algo::Cbow])
        .with_measures(true)
        .filter(|_, _, _, seed| seed == 0)
        .run();
    rows.iter()
        .map(|r| ConfigPoint {
            dim: r.dim,
            bits: r.bits,
            measure: r.measures.expect("measures requested").eis,
            instability: r.disagreement,
        })
        .collect()
}

/// (a) Registering a tenant runs the same candidate-ranking path
/// `budget_selection` evaluates: the pick's instability gap over the
/// budget-line oracle is exactly the report's single-budget mean gap.
#[test]
fn tenant_pick_agrees_with_budget_selection_oracle_gap() {
    let points = measured_points();
    // Tiny's grid (dims 4/8/16, bits 1/4/32) has one contested budget
    // line: 16 bits/word holds (dim=4, b=4) and (dim=16, b=1).
    let budget = 16u64;
    let on_line = candidates_in_budget(&points, budget);
    assert!(
        on_line.len() >= 2,
        "budget line must be contested, got {} candidates",
        on_line.len()
    );

    let root = scratch_dir("serve_integration_pick");
    std::fs::remove_dir_all(&root).ok();
    let mut registry = TenantRegistry::new(&root);
    let tenant = registry
        .register("shared", Slo::unbounded(budget), &points)
        .expect("register");

    // The registry's pick is the lowest-measure candidate on the line...
    let picked = pick_lowest_measure(&on_line).expect("candidates");
    assert_eq!(
        (tenant.dim(), tenant.precision().bits()),
        (picked.dim, picked.bits),
        "registry must pick through the shared selection path"
    );
    // ...and its oracle gap is exactly what budget_selection reports for
    // this budget (one contested line -> mean gap == the pick's gap).
    let oracle = pick_oracle(&on_line).expect("candidates");
    let report = budget_selection(&on_line);
    assert_eq!(report.budgets, 1);
    assert!(
        (report.mean_gap - (picked.instability - oracle.instability)).abs() < 1e-12,
        "gate pick gap {} must equal budget_selection mean gap {}",
        picked.instability - oracle.instability,
        report.mean_gap
    );
    std::fs::remove_dir_all(&root).ok();
}

/// (b) A candidate violating the SLO is held while a compliant one is
/// promoted, on real trained embeddings: the Wiki'18 retrain and an
/// independent-seed retrain score differently against the same live
/// snapshot, and an SLO between the two scores separates them.
#[test]
fn slo_holds_violating_candidate_and_promotes_compliant_one() {
    let w = world();
    let dim = 8usize;
    let e17 = train_embedding(Algo::Cbow, &w.stats17, w.vocab(), dim, 0);
    let e18_same = train_embedding(Algo::Cbow, &w.stats18, w.vocab(), dim, 0);
    let e18_reseeded = train_embedding(Algo::Cbow, &w.stats18, w.vocab(), dim, 7);

    // Score both candidates against the same bootstrap snapshot to place
    // the SLO between them, with the gate every registry uses.
    let gate = StabilityGate::new();
    let root = scratch_dir("serve_integration_slo");
    std::fs::remove_dir_all(&root).ok();
    let precision = Precision::new(4);
    let mut probe = embedstab::serve::SnapshotStore::open(root.join("probe")).expect("open");
    probe.publish(&e17, precision, None).expect("bootstrap");
    let live = probe.live().expect("live");
    let score_same = gate
        .score(live, &e18_same)
        .expect("score")
        .predicted_instability;
    let score_reseeded = gate
        .score(live, &e18_reseeded)
        .expect("score")
        .predicted_instability;
    assert!(
        score_same != score_reseeded,
        "the two retrains must be distinguishable"
    );
    let (compliant, violating) = if score_same < score_reseeded {
        (&e18_same, &e18_reseeded)
    } else {
        (&e18_reseeded, &e18_same)
    };

    let slo = Slo {
        max_predicted_instability: (score_same + score_reseeded) / 2.0,
        memory_budget_bits: dim as u64 * 4,
    };
    let mut registry = TenantRegistry::new(root.join("gated"));
    registry
        .register_config("t", slo, dim, precision)
        .expect("register");
    registry.submit("t", &e17).expect("bootstrap");

    // The SLO-violating candidate is held: live stays at v1.
    let held = registry.submit("t", violating).expect("submit");
    assert!(matches!(held, GateOutcome::Held { .. }));
    let tenant = registry.tenant("t").expect("tenant");
    assert_eq!(tenant.live().expect("live").meta().version, Version(1));
    assert_eq!(tenant.store().len(), 1, "held candidates are not published");

    // The compliant candidate is promoted and records its gate score.
    let promoted = registry.submit("t", compliant).expect("submit");
    assert!(matches!(promoted, GateOutcome::Promoted { .. }));
    let tenant = registry.tenant("t").expect("tenant");
    let live = tenant.live().expect("live");
    assert_eq!(live.meta().version, Version(2));
    let recorded = live
        .meta()
        .predicted_instability
        .expect("promotion records its score");
    assert!(recorded <= slo.max_predicted_instability);
    std::fs::remove_dir_all(&root).ok();
}

/// (c) `try_lookup_batch` equals per-row lookups bitwise, and the batched
/// nearest-neighbor path ranks a word's own vector first.
#[test]
fn batched_lookups_equal_per_row_lookups_bitwise() {
    let w = world();
    let dim = 8usize;
    let emb = train_embedding(Algo::Cbow, &w.stats17, w.vocab(), dim, 0);
    let root = scratch_dir("serve_integration_batch");
    std::fs::remove_dir_all(&root).ok();
    let mut registry = TenantRegistry::new(&root);
    registry
        .register_config("t", Slo::unbounded(dim as u64 * 4), dim, Precision::new(4))
        .expect("register");
    registry.submit("t", &emb).expect("bootstrap");
    let live = registry.tenant("t").expect("tenant").live().expect("live");

    let ids: Vec<u32> = (0..live.meta().vocab_size as u32).step_by(3).collect();
    let batch = live.try_lookup_batch(&ids).expect("ids in range");
    assert_eq!(batch.shape(), (ids.len(), dim));
    for (row, &id) in ids.iter().enumerate() {
        let single = live.try_lookup(id).expect("id in range");
        assert_eq!(batch.row(row).len(), single.len());
        for (a, b) in batch.row(row).iter().zip(single) {
            assert_eq!(a.to_bits(), b.to_bits(), "word {id} row {row} differs");
        }
    }

    // The batched similarity path agrees bitwise with itself run one
    // query at a time: the top-k kernel rescores every answer exactly, so
    // the tile a query rode in cannot change it.
    let queries = live.try_lookup_batch(&[5, 40]).expect("ids in range");
    let batched = live.try_nearest_batch(&queries, 3).expect("well-formed");
    for (qi, &id) in [5u32, 40].iter().enumerate() {
        assert_eq!(batched[qi][0].0, id, "a word is its own nearest neighbor");
        let query = live.try_lookup_batch(&[id]).expect("id in range");
        let solo = live.try_nearest_batch(&query, 3).expect("well-formed");
        assert_eq!(solo[0], batched[qi]);
    }
    std::fs::remove_dir_all(&root).ok();
}
