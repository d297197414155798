//! Cross-crate accuracy/fidelity invariants: the paper's compression-
//! quality claims measured end to end.

use bbs::core::prune::PruneStrategy;
use bbs::models::accuracy::{
    evaluate_model_fidelity, synthesize_model, train_classifier, CompressionKind, CompressionMethod,
};
use bbs::models::lm::train_micro_lm;
use bbs::models::zoo;

const CAP: usize = 8 * 1024;

#[test]
fn bbs_preserves_distribution_best_at_moderate_compression() {
    let model = synthesize_model(&zoo::resnet34(), 3, CAP);
    let bbs = model.fidelity(&CompressionMethod::bbs_moderate());
    let bitwave = model.fidelity(&CompressionMethod::bitwave_moderate());
    let ptq = model.fidelity(&CompressionMethod::ptq_moderate());
    assert!(bbs.kl_divergence < bitwave.kl_divergence);
    assert!(bbs.kl_divergence < ptq.kl_divergence);
    assert!(bbs.est_accuracy_loss_pct < bitwave.est_accuracy_loss_pct);
    assert!(bbs.est_accuracy_loss_pct < ptq.est_accuracy_loss_pct);
}

#[test]
fn compression_ratios_near_paper_averages() {
    // Paper: 1.29x conservative, 1.66x moderate (model-size reduction).
    let model = synthesize_model(&zoo::vit_base(), 3, CAP);
    let cons = model.fidelity(&CompressionMethod::bbs_conservative());
    let moderate = model.fidelity(&CompressionMethod::bbs_moderate());
    assert!(
        (1.1..=1.45).contains(&cons.compression_ratio),
        "cons {}",
        cons.compression_ratio
    );
    assert!(
        (1.4..=1.85).contains(&moderate.compression_ratio),
        "mod {}",
        moderate.compression_ratio
    );
}

#[test]
fn real_trained_model_loss_ordering() {
    // Averaged over seeds: BBS moderate hurts less than matched-footprint
    // PTQ, and conservative is near-lossless — measured, not modelled.
    let methods = [
        CompressionMethod::bbs_conservative(),
        CompressionMethod::new(CompressionKind::Ptq(3), 0.20),
        CompressionMethod::bbs_moderate(),
    ];
    let seeds = [31u64, 32, 33];
    let mut loss = [0.0f64; 3];
    for &s in &seeds {
        let classifier = train_classifier(s);
        let int8 = classifier.accuracy_under(&CompressionMethod::int8_baseline());
        for (sum, m) in loss.iter_mut().zip(&methods) {
            *sum += (int8 - classifier.accuracy_under(m)) * 100.0;
        }
    }
    let [cons, ptq3, moderate] = loss.map(|sum| sum / seeds.len() as f64);
    assert!(cons < 1.0, "conservative near-lossless: {cons}");
    assert!(moderate < ptq3, "moderate {moderate} vs 3-bit PTQ {ptq3}");
}

#[test]
fn llm_perplexity_ordering_matches_fig17() {
    let olive = CompressionMethod::new(CompressionKind::Olive, 0.0);
    let cons = CompressionMethod::new(
        CompressionKind::Bbs(PruneStrategy::RoundedAveraging, 2),
        0.0,
    );
    let lm = train_micro_lm(51);
    let p_olive = lm.perplexity_under(&olive);
    let p_cons = lm.perplexity_under(&cons);
    let increase = p_cons / lm.fp32_perplexity() - 1.0;
    assert!(increase < 0.02, "conservative BBS ~ lossless: {increase}");
    assert!(p_cons < p_olive, "BBS cons {p_cons} vs Olive {p_olive}");
}

#[test]
fn fidelity_is_deterministic() {
    let model = zoo::vit_small();
    let a = evaluate_model_fidelity(&model, &CompressionMethod::bbs_moderate(), 9, CAP);
    let b = evaluate_model_fidelity(&model, &CompressionMethod::bbs_moderate(), 9, CAP);
    assert_eq!(a, b, "same seed must reproduce bit-identically");
}
