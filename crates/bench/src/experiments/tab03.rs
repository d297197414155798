//! Table III: BBS vs Microscaling vs NoisyQuant on vision transformers —
//! accuracy loss and effective weight bit width.

use crate::{f, fidelity_grid, print_table};
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
    let mut rows = Vec::new();
    for (k, (name, _)) in methods.iter().enumerate() {
        let mut row = vec![name.to_string()];
        for model_fits in &fits {
            let fit = &model_fits[k];
            row.push(format!(
                "{}% ({} bits)",
                f(fit.est_accuracy_loss_pct, 2),
                f(fit.effective_bits, 2)
            ));
        }
        rows.push(row);
    }
    rows.push(vec![
        "paper".to_string(),
        "MX 2.49/NQ 2.08/BBS 0.75-0.96%".to_string(),
        "MX 0.33/NQ 0.64/BBS 0.05-0.39%".to_string(),
    ]);
    print_table(
        "Table III — PTQ works vs BBS on vision transformers: estimated accuracy loss (effective bits)",
        &["method", "ViT-Small", "ViT-Base"],
        &rows,
    );
}
