//! Table III: BBS vs Microscaling vs NoisyQuant on vision transformers —
//! accuracy loss and effective weight bit width.

use crate::{fidelity_grid, labelled, Cell, Table};
use bbs_models::accuracy::{CompressionKind, CompressionMethod};
use bbs_models::zoo;

/// Regenerates Table III.
pub fn run() {
    let methods: Vec<(&str, CompressionMethod)> = vec![
        (
            "Microscaling",
            CompressionMethod::new(CompressionKind::Microscaling(6), 0.0),
        ),
        (
            "NoisyQuant",
            CompressionMethod::new(CompressionKind::NoisyQuant(6), 0.0),
        ),
        ("BBS (cons)", CompressionMethod::bbs_conservative()),
        ("BBS (mod)", CompressionMethod::bbs_moderate()),
    ];
    let compressions: Vec<CompressionMethod> = methods.iter().map(|(_, m)| *m).collect();
    let fits = fidelity_grid(&[zoo::vit_small(), zoo::vit_base()], &compressions);
    let mut rows: Vec<Vec<Cell>> = methods
        .iter()
        .enumerate()
        .map(|(k, (name, _))| {
            let cells = fits.iter().map(|model_fits| {
                let fit = &model_fits[k];
                Cell::template(
                    "{}% ({} bits)",
                    &[(fit.est_accuracy_loss_pct, 2), (fit.effective_bits, 2)],
                )
            });
            labelled(name, cells)
        })
        .collect();
    rows.push(
        [
            "paper",
            "MX 2.49/NQ 2.08/BBS 0.75-0.96%",
            "MX 0.33/NQ 0.64/BBS 0.05-0.39%",
        ]
        .map(Cell::text)
        .into(),
    );
    let table = Table::new(
        "Table III — PTQ works vs BBS on vision transformers: estimated accuracy loss (effective bits)",
        &["method", "ViT-Small", "ViT-Base"],
        rows,
    );
    print!("{}", table.render());
}
