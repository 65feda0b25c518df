//! Plug-and-play: write your own server-side defense.
//!
//! The paper stresses that AsyncFilter "can be seamlessly integrated into
//! all asynchronous federated learning systems as a pluggable component".
//! This example shows the other direction of that interface: implementing a
//! *custom* defense (a simple norm-clipping filter) against the same
//! [`UpdateFilter`] trait and comparing it with AsyncFilter under attack.
//!
//! ```text
//! cargo run --release --example custom_defense
//! ```

use asyncfilter::prelude::*;

/// A naive defense: reject any update whose delta norm exceeds `factor`
/// times the running median of observed delta norms.
///
/// Good against crude large-norm attacks (GD), helpless against anything
/// that stays inside the benign norm range (LIE, Min-Max, Min-Sum) — which
/// is exactly why AsyncFilter's staleness-aware scoring exists.
struct NormClipFilter {
    factor: f64,
    observed_norms: Vec<f64>,
}

impl NormClipFilter {
    fn new(factor: f64) -> Self {
        Self {
            factor,
            observed_norms: Vec::new(),
        }
    }

    fn median_norm(&self) -> Option<f64> {
        if self.observed_norms.is_empty() {
            return None;
        }
        let mut sorted = self.observed_norms.clone();
        sorted.sort_by(f64::total_cmp);
        Some(sorted[sorted.len() / 2])
    }
}

impl UpdateFilter for NormClipFilter {
    fn name(&self) -> &str {
        "NormClip"
    }

    fn filter(&mut self, updates: Vec<ClientUpdate>, _ctx: &FilterContext<'_>) -> FilterOutcome {
        let threshold = self.median_norm().map(|m| m * self.factor);
        let mut outcome = FilterOutcome::default();
        for u in updates {
            let norm = u.delta.norm();
            let keep = u.params_is_finite() && threshold.is_none_or(|t| norm <= t);
            self.observed_norms.push(norm);
            if self.observed_norms.len() > 4096 {
                self.observed_norms.remove(0);
            }
            if keep {
                outcome.accepted.push(u);
            } else {
                outcome.rejected.push(u);
            }
        }
        outcome
    }
}

fn main() {
    let mut config = SimConfig::paper_default(DatasetProfile::FashionMnist);
    config.num_clients = 40;
    config.num_malicious = 8;
    config.aggregation_bound = 16;
    config.rounds = 30;

    println!("== custom defense vs AsyncFilter ==\n");
    println!("{:<14} {:>10} {:>10}", "defense", "GD", "LIE");
    type FilterFactory = fn() -> Box<dyn UpdateFilter>;
    let defenses: [(&str, FilterFactory); 3] = [
        ("FedBuff", || Box::new(PassthroughFilter)),
        ("NormClip", || Box::new(NormClipFilter::new(3.0))),
        ("AsyncFilter", || Box::new(AsyncFilter::default())),
    ];
    for (label, build) in defenses {
        let gd = Simulation::new(config.clone()).run(build(), AttackKind::Gd);
        let lie = Simulation::new(config.clone()).run(build(), AttackKind::Lie);
        println!(
            "{:<14} {:>9.1}% {:>9.1}%",
            label,
            gd.final_accuracy * 100.0,
            lie.final_accuracy * 100.0
        );
    }
    println!(
        "\nA simple norm rule already stops the crude large-norm attack; \
         AsyncFilter's value is that it needs no norm assumption and keeps \
         working when attackers match benign magnitudes (see the Min-Max/\
         Min-Sum constructions in asyncfl-attacks)."
    );
}
