//! Table II: BBS moderate pruning vs 6-bit ANT — accuracy loss and
//! effective weight bit width, without fine-tuning.

use crate::{f, fidelity_grid, print_table};
use bbs_models::accuracy::CompressionMethod;
use bbs_models::zoo;

/// Regenerates Table II.
pub fn run() {
    let models = [zoo::vgg16(), zoo::resnet50()];
    let methods = [CompressionMethod::bbs_moderate(), CompressionMethod::ant6()];
    let fits = fidelity_grid(&models, &methods);
    let mut rows = Vec::new();
    for (spec, model_fits) in models.iter().zip(&fits) {
        let (bbs, ant) = (&model_fits[0], &model_fits[1]);
        rows.push(vec![
            spec.name.to_string(),
            format!(
                "{}% ({} bits)",
                f(bbs.est_accuracy_loss_pct, 2),
                f(bbs.effective_bits, 2)
            ),
            format!(
                "{}% ({} bits)",
                f(ant.est_accuracy_loss_pct, 2),
                f(ant.effective_bits, 2)
            ),
        ]);
    }
    rows.push(vec![
        "paper".to_string(),
        "0.20-0.23% (4.3-4.8 bits)".to_string(),
        "0.68-0.89% (6 bits)".to_string(),
    ]);
    print_table(
        "Table II — BBS (mod) vs ANT-6b: estimated accuracy loss and effective bits",
        &["model", "BBS (mod)", "ANT-6b"],
        &rows,
    );
}
