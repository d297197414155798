//! Table II: BBS moderate pruning vs 6-bit ANT — accuracy loss and
//! effective weight bit width, without fine-tuning.

use crate::{fidelity_grid, labelled, Cell, Table};
use bbs_models::accuracy::CompressionMethod;
use bbs_models::zoo;

/// Regenerates Table II.
pub fn run() {
    let models = [zoo::vgg16(), zoo::resnet50()];
    let methods = [CompressionMethod::bbs_moderate(), CompressionMethod::ant6()];
    let fits = fidelity_grid(&models, &methods);
    let mut rows: Vec<Vec<Cell>> = models
        .iter()
        .zip(&fits)
        .map(|(spec, model_fits)| {
            let cells = model_fits.iter().map(|fit| {
                Cell::template(
                    "{}% ({} bits)",
                    &[(fit.est_accuracy_loss_pct, 2), (fit.effective_bits, 2)],
                )
            });
            labelled(spec.name, cells)
        })
        .collect();
    let paper = ["0.20-0.23% (4.3-4.8 bits)", "0.68-0.89% (6 bits)"];
    rows.push(labelled("paper", paper.map(Cell::text)));
    let table = Table::new(
        "Table II — BBS (mod) vs ANT-6b: estimated accuracy loss and effective bits",
        &["model", "BBS (mod)", "ANT-6b"],
        rows,
    );
    print!("{}", table.render());
}
