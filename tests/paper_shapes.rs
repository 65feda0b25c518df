//! The reproduction's headline shape claims, as executable assertions.
//!
//! The default tests run scaled-down federations (seconds, CI-friendly).
//! The `#[ignore]`d tests assert the same shapes at the paper's full
//! setting (100 clients, Ω = 40, 60 rounds) — run them with
//! `cargo test --release --test paper_shapes -- --ignored`.

use asyncfilter::prelude::*;

/// A mid-size federation: large enough for the filter statistics to be
/// meaningful, small enough for CI.
fn mid_config(profile: DatasetProfile) -> SimConfig {
    let mut cfg = SimConfig::paper_default(profile);
    cfg.num_clients = 40;
    cfg.num_malicious = 8;
    cfg.aggregation_bound = 16;
    cfg.rounds = 25;
    cfg.test_samples = 800;
    cfg
}

fn run(cfg: &SimConfig, filter: Box<dyn UpdateFilter>, attack: AttackKind) -> f64 {
    Simulation::new(cfg.clone())
        .run(filter, attack)
        .final_accuracy
}

#[test]
fn shape_asyncfilter_rescues_gd_on_mnist_profile() {
    let cfg = mid_config(DatasetProfile::Mnist);
    let undefended = run(&cfg, Box::new(PassthroughFilter), AttackKind::Gd);
    let defended = run(&cfg, Box::new(AsyncFilter::default()), AttackKind::Gd);
    let benign = run(&cfg, Box::new(PassthroughFilter), AttackKind::None);
    assert!(undefended < 0.6, "GD too weak: {undefended}");
    assert!(defended > 0.85, "no recovery: {defended}");
    assert!(benign > 0.9);
}

#[test]
fn shape_no_attack_accuracy_preserved() {
    for profile in [DatasetProfile::Mnist, DatasetProfile::FashionMnist] {
        let cfg = mid_config(profile);
        let fedbuff = run(&cfg, Box::new(PassthroughFilter), AttackKind::None);
        let filtered = run(&cfg, Box::new(AsyncFilter::default()), AttackKind::None);
        assert!(
            filtered > fedbuff - 0.04,
            "{profile}: filter cost too high ({filtered} vs {fedbuff})"
        );
    }
}

#[test]
#[ignore = "full paper-scale run, slow in a debug build; run with --release -- --ignored"]
fn full_scale_fldetector_is_not_an_async_substitute() {
    // The paper's motivating claim: the synchronous SOTA detector does not
    // rescue GD in the asynchronous setting the way AsyncFilter does. This
    // is a *scale* phenomenon — with few clients every client reports every
    // round and FLDetector's history-based predictions still work; at the
    // paper's 100-client buffered setting they break.
    let cfg = SimConfig::paper_default(DatasetProfile::Mnist);
    let detector = run(&cfg, Box::new(FlDetector::default()), AttackKind::Gd);
    let asyncfilter = run(&cfg, Box::new(AsyncFilter::default()), AttackKind::Gd);
    assert!(
        asyncfilter > detector + 0.2,
        "AsyncFilter ({asyncfilter}) should clearly beat FLDetector ({detector}) under async GD"
    );
}

#[test]
fn shape_staleness_stability() {
    // Mini Fig. 6: accuracy under GD must not collapse at any staleness limit.
    for limit in [5u64, 20] {
        let mut cfg = mid_config(DatasetProfile::FashionMnist);
        cfg.staleness_limit = limit;
        let acc = run(&cfg, Box::new(AsyncFilter::default()), AttackKind::Gd);
        assert!(acc > 0.7, "limit {limit}: accuracy {acc}");
    }
}

#[test]
#[ignore = "full paper-scale run, slow in a debug build; run with --release -- --ignored"]
fn full_scale_table2_gd_row() {
    let cfg = SimConfig::paper_default(DatasetProfile::Mnist);
    let undefended = run(&cfg, Box::new(PassthroughFilter), AttackKind::Gd);
    let defended = run(&cfg, Box::new(AsyncFilter::default()), AttackKind::Gd);
    assert!(undefended < 0.5);
    assert!(defended > 0.9, "paper-scale GD recovery: {defended}");
}

#[test]
#[ignore = "full paper-scale run, slow in a debug build; run with --release -- --ignored"]
fn full_scale_no_attack_parity() {
    let cfg = SimConfig::paper_default(DatasetProfile::Mnist);
    let fedbuff = run(&cfg, Box::new(PassthroughFilter), AttackKind::None);
    let filtered = run(&cfg, Box::new(AsyncFilter::default()), AttackKind::None);
    assert!(filtered > fedbuff - 0.01, "{filtered} vs {fedbuff}");
}

#[test]
#[ignore = "full paper-scale run, slow in a debug build; run with --release -- --ignored"]
fn full_scale_extreme_noniid_recovery() {
    // Table 7's headline: α = 0.01 GD, the paper's biggest relative win.
    let mut cfg = SimConfig::paper_default(DatasetProfile::FashionMnist);
    cfg.partitioner = Partitioner::dirichlet(0.01);
    let undefended = run(&cfg, Box::new(PassthroughFilter), AttackKind::Gd);
    let defended = run(&cfg, Box::new(AsyncFilter::default()), AttackKind::Gd);
    assert!(undefended < 0.3);
    assert!(defended > 0.6, "extreme non-IID recovery: {defended}");
}
