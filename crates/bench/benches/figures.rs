//! One Criterion benchmark per regenerated table/figure, at a reduced
//! weight cap so `cargo bench` exercises every experiment path quickly.
//! The full-resolution runs are the `figXX_*`/`tabXX_*` binaries.

use bbs_models::accuracy::{evaluate_model_fidelity, synthesize_model, CompressionMethod};
use bbs_models::zoo;
use bbs_sim::accel::{bitvert::BitVert, stripes::Stripes};
use bbs_sim::config::ArrayConfig;
use bbs_sim::engine::simulate;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

const CAP: usize = 2 * 1024;

fn fig03_sparsity(c: &mut Criterion) {
    let model = zoo::vit_small();
    c.bench_function("fig03/sparsity_vit_small", |b| {
        b.iter(|| bbs_bench::experiments::fig03::model_sparsity(black_box(&model)))
    });
}

fn fig06_kl(c: &mut Criterion) {
    let model = synthesize_model(&zoo::resnet34(), 7, CAP);
    c.bench_function("fig06/kl_resnet34_4col", |b| {
        b.iter(|| bbs_bench::experiments::fig06::technique_kls(black_box(&model), 4))
    });
}

fn fig11_accuracy(c: &mut Criterion) {
    let model = zoo::vit_small();
    c.bench_function("fig11/fidelity_bbs_mod", |b| {
        b.iter(|| {
            evaluate_model_fidelity(
                black_box(&model),
                &CompressionMethod::bbs_moderate(),
                7,
                CAP,
            )
        })
    });
}

fn fig12_speedup(c: &mut Criterion) {
    let cfg = ArrayConfig::paper_16x32();
    let model = zoo::resnet34();
    c.bench_function("fig12/speedup_pair", |b| {
        b.iter(|| {
            let s = simulate(&Stripes::new(), black_box(&model), &cfg, 7, CAP);
            let v = simulate(&BitVert::moderate(), black_box(&model), &cfg, 7, CAP);
            s.total_cycles() as f64 / v.total_cycles() as f64
        })
    });
}

fn fig13_energy(c: &mut Criterion) {
    let cfg = ArrayConfig::paper_16x32();
    let model = zoo::resnet34();
    c.bench_function("fig13/energy_breakdown", |b| {
        b.iter(|| {
            simulate(&BitVert::moderate(), black_box(&model), &cfg, 7, CAP).energy_breakdown()
        })
    });
}

fn fig14_fig15_load_balance(c: &mut Criterion) {
    let model = zoo::bert_sst2();
    c.bench_function("fig14/column_sweep_point", |b| {
        let cfg = ArrayConfig::paper_16x32().with_pe_cols(8);
        b.iter(|| simulate(&BitVert::moderate(), black_box(&model), &cfg, 7, CAP).total_cycles())
    });
    c.bench_function("fig15/stall_breakdown", |b| {
        let cfg = ArrayConfig::paper_16x32();
        b.iter(|| simulate(&BitVert::moderate(), black_box(&model), &cfg, 7, CAP).stall_breakdown())
    });
}

fn fig16_pareto(c: &mut Criterion) {
    let cfg = ArrayConfig::paper_16x32();
    let model = zoo::resnet50();
    c.bench_function("fig16/edp_point", |b| {
        b.iter(|| simulate(&BitVert::conservative(), black_box(&model), &cfg, 7, CAP).edp())
    });
}

fn fig17_llm(c: &mut Criterion) {
    use bbs_models::lm::{llama_subset, measure_lm_perplexity};
    c.bench_function("fig17/micro_lm_perplexity", |b| {
        b.iter(|| measure_lm_perplexity(&CompressionMethod::int8_baseline(), 41))
    });
    let llama = llama_subset(1);
    c.bench_function("fig17/llama_block_fidelity", |b| {
        b.iter(|| {
            evaluate_model_fidelity(
                black_box(&llama),
                &CompressionMethod::bbs_moderate(),
                7,
                CAP * 8,
            )
        })
    });
}

fn tables(c: &mut Criterion) {
    use bbs_hw::explore::{bitvert_design_space, olive_comparison, pe_comparison};
    use bbs_hw::gates::Technology;
    let t = Technology::tsmc28();
    c.bench_function("tab01/model_zoo", |b| b.iter(zoo::paper_benchmarks));
    c.bench_function("tab02_tab03/fidelity", |b| {
        let model = zoo::vit_small();
        b.iter(|| evaluate_model_fidelity(&model, &CompressionMethod::ant6(), 7, CAP))
    });
    c.bench_function("tab04/design_space", |b| {
        b.iter(|| bitvert_design_space(&t))
    });
    c.bench_function("tab05/pe_comparison", |b| b.iter(|| pe_comparison(&t)));
    c.bench_function("tab06/olive_comparison", |b| {
        b.iter(|| olive_comparison(&t))
    });
}

criterion_group!(
    benches,
    fig03_sparsity,
    fig06_kl,
    fig11_accuracy,
    fig12_speedup,
    fig13_energy,
    fig14_fig15_load_balance,
    fig16_pareto,
    fig17_llm,
    tables
);
criterion_main!(benches);
