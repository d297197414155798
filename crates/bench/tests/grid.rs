//! The figures' one grid runner: a grid served through `/sweep` returns
//! the same results, in the same order, as the in-process grid.

use bbs_bench::grid_results;
use bbs_bench::serve_path::self_hosted_server;
use bbs_models::zoo;
use bbs_serve::registry::ACCELERATOR_IDS;
use bbs_sim::{ArrayConfig, SweepSpec};

/// Two light models × every accelerator × two PE-column configs × two
/// seeds at cap 256: 64 cells over every axis the figures leave at one
/// entry.
#[test]
fn served_grid_equals_in_process_grid() {
    let spec = SweepSpec {
        models: vec![zoo::vit_small(), zoo::resnet34()],
        accelerators: ACCELERATOR_IDS.iter().map(|id| id.to_string()).collect(),
        configs: vec![
            ArrayConfig::paper_16x32(),
            ArrayConfig::paper_16x32().with_pe_cols(16),
        ],
        seeds: vec![7, 8],
        caps: vec![256],
    };
    let local = grid_results(&spec, None).expect("in-process grid");
    assert_eq!(local.len(), 64);

    let server = self_hosted_server().expect("start server");
    let served = grid_results(&spec, Some(server.addr()));
    server.stop();
    let served = served.expect("served grid");

    assert_eq!(served.len(), local.len());
    for (i, (s, l)) in served.iter().zip(&local).enumerate() {
        assert!(s == l, "cell {i} differs between /sweep and in process");
    }
}
