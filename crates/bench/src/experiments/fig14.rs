//! Figure 14: normalized speedup on ResNet-50 and Bert-MRPC as the number
//! of PE columns grows (load-imbalance scaling).

use crate::{f, print_table, weight_cap, workload_store, SEED};
use bbs_models::zoo;
use bbs_sim::accel::{
    bitlet::Bitlet, bitvert::BitVert, bitwave::BitWave, pragmatic::Pragmatic, stripes::Stripes,
    Accelerator,
};
use bbs_sim::config::ArrayConfig;
use bbs_sim::engine::simulate_with;

/// The Fig. 14 column sweep.
pub const COLUMN_SWEEP: [usize; 5] = [2, 4, 8, 16, 32];

/// Speedups over Stripes at one column count. Lowering is independent of
/// the array geometry, so the whole 5-point column sweep reuses one stored
/// lowering per model.
fn speedups_at(model: &bbs_models::ModelSpec, cols: usize) -> Vec<f64> {
    let cfg = ArrayConfig::paper_16x32().with_pe_cols(cols);
    let cap = weight_cap();
    let store = workload_store();
    let base = simulate_with(store, &Stripes::new(), model, &cfg, SEED, cap).total_cycles() as f64;
    let accels: Vec<Box<dyn Accelerator>> = vec![
        Box::new(Pragmatic::new()),
        Box::new(Bitlet::new()),
        Box::new(BitWave::new()),
        Box::new(BitVert::moderate()),
    ];
    accels
        .iter()
        .map(|a| {
            base / simulate_with(store, a.as_ref(), model, &cfg, SEED, cap).total_cycles() as f64
        })
        .collect()
}

/// Regenerates Fig. 14.
pub fn run() {
    for model in [zoo::resnet50(), zoo::bert_mrpc()] {
        let rows: Vec<Vec<String>> = COLUMN_SWEEP
            .iter()
            .map(|&cols| {
                let s = speedups_at(&model, cols);
                vec![
                    cols.to_string(),
                    f(s[0], 2),
                    f(s[1], 2),
                    f(s[2], 2),
                    f(s[3], 2),
                ]
            })
            .collect();
        print_table(
            &format!(
                "Fig. 14 ({}) — speedup over Stripes vs PE columns (paper: Pragmatic/Bitlet degrade, BitWave/BitVert stay flat; Bitlet on Bert drops 1.63->1.35)",
                model.name
            ),
            &["PE cols", "Pragmatic", "Bitlet", "BitWave", "BitVert (mod)"],
            &rows,
        );
    }
}
