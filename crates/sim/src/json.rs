//! JSON serialization of simulation inputs and outputs, plus the stable
//! request hash that keys the `bbs-serve` content-addressed result cache.
//!
//! Round-trip guarantees:
//!
//! * every integer field (cycle/traffic counters) is exact — counters stay
//!   far below 2^53 and `bbs_json` asserts that;
//! * every `f64` field (fractions, energies) is written in shortest
//!   round-trip form, so decode(encode(x)) reproduces `x` bit-for-bit and a
//!   decoded [`SimResult`] is `==` to the original.

use crate::accel::LayerPerf;
use crate::config::ArrayConfig;
use crate::engine::{LayerSim, SimResult};
use crate::sweep::SweepSpec;
use bbs_hw::json::{
    dram_from_json, dram_to_json, energy_breakdown_from_json, energy_breakdown_to_json,
    sram_from_json, sram_to_json, technology_from_json, technology_to_json,
};
use bbs_json::{field, field_arr, field_f64, field_str, field_u64, field_usize, Fnv1a64, Json};
use bbs_models::json::{hash_spec_text, model_spec_to_json};
use bbs_models::ModelSpec;

/// Encodes an [`ArrayConfig`].
pub fn array_config_to_json(c: &ArrayConfig) -> Json {
    Json::obj(vec![
        ("pe_rows", Json::from_usize(c.pe_rows)),
        ("pe_cols", Json::from_usize(c.pe_cols)),
        ("lanes_per_pe", Json::from_usize(c.lanes_per_pe)),
        ("tech", technology_to_json(&c.tech)),
        ("weight_buffer", sram_to_json(&c.weight_buffer)),
        ("act_buffer", sram_to_json(&c.act_buffer)),
        ("dram", dram_to_json(&c.dram)),
    ])
}

/// Decodes an [`ArrayConfig`], validating the geometry is non-degenerate.
pub fn array_config_from_json(v: &Json) -> Result<ArrayConfig, String> {
    let cfg = ArrayConfig {
        pe_rows: field_usize(v, "pe_rows")?,
        pe_cols: field_usize(v, "pe_cols")?,
        lanes_per_pe: field_usize(v, "lanes_per_pe")?,
        tech: technology_from_json(field(v, "tech")?)?,
        weight_buffer: sram_from_json(field(v, "weight_buffer")?)?,
        act_buffer: sram_from_json(field(v, "act_buffer")?)?,
        dram: dram_from_json(field(v, "dram")?)?,
    };
    const MAX_GEOM: usize = 1 << 20;
    for (what, dim) in [
        ("pe_rows", cfg.pe_rows),
        ("pe_cols", cfg.pe_cols),
        ("lanes_per_pe", cfg.lanes_per_pe),
    ] {
        if dim == 0 || dim > MAX_GEOM {
            return Err(format!("array config: {what} out of range"));
        }
    }
    if !cfg.tech.freq_mhz.is_finite() || cfg.tech.freq_mhz <= 0.0 {
        return Err("array config: freq_mhz must be positive".to_string());
    }
    Ok(cfg)
}

/// Encodes a [`LayerPerf`].
fn layer_perf_to_json(p: &LayerPerf) -> Json {
    Json::obj(vec![
        ("compute_cycles", Json::from_u64(p.compute_cycles)),
        ("useful_fraction", Json::Num(p.useful_fraction)),
        ("intra_fraction", Json::Num(p.intra_fraction)),
        ("inter_fraction", Json::Num(p.inter_fraction)),
        ("weight_dram_bits", Json::from_u64(p.weight_dram_bits)),
        ("act_dram_bits", Json::from_u64(p.act_dram_bits)),
        ("weight_sram_bits", Json::from_u64(p.weight_sram_bits)),
        ("act_sram_bits", Json::from_u64(p.act_sram_bits)),
    ])
}

/// Decodes a [`LayerPerf`].
fn layer_perf_from_json(v: &Json) -> Result<LayerPerf, String> {
    Ok(LayerPerf {
        compute_cycles: field_u64(v, "compute_cycles")?,
        useful_fraction: field_f64(v, "useful_fraction")?,
        intra_fraction: field_f64(v, "intra_fraction")?,
        inter_fraction: field_f64(v, "inter_fraction")?,
        weight_dram_bits: field_u64(v, "weight_dram_bits")?,
        act_dram_bits: field_u64(v, "act_dram_bits")?,
        weight_sram_bits: field_u64(v, "weight_sram_bits")?,
        act_sram_bits: field_u64(v, "act_sram_bits")?,
    })
}

/// Encodes a [`LayerSim`].
fn layer_sim_to_json(l: &LayerSim) -> Json {
    Json::obj(vec![
        ("name", Json::str(&l.name)),
        ("compute_cycles", Json::from_u64(l.compute_cycles)),
        ("memory_cycles", Json::from_u64(l.memory_cycles)),
        ("total_cycles", Json::from_u64(l.total_cycles)),
        ("perf", layer_perf_to_json(&l.perf)),
        ("energy", energy_breakdown_to_json(&l.energy)),
    ])
}

/// Decodes a [`LayerSim`].
fn layer_sim_from_json(v: &Json) -> Result<LayerSim, String> {
    Ok(LayerSim {
        name: field_str(v, "name")?.to_string(),
        compute_cycles: field_u64(v, "compute_cycles")?,
        memory_cycles: field_u64(v, "memory_cycles")?,
        total_cycles: field_u64(v, "total_cycles")?,
        perf: layer_perf_from_json(field(v, "perf")?)?,
        energy: energy_breakdown_from_json(field(v, "energy")?)?,
    })
}

/// Encodes a [`SimResult`] with all per-layer records.
pub fn sim_result_to_json(r: &SimResult) -> Json {
    Json::obj(vec![
        ("accelerator", Json::str(&r.accelerator)),
        ("model", Json::str(&r.model)),
        (
            "layers",
            Json::Arr(r.layers.iter().map(layer_sim_to_json).collect()),
        ),
    ])
}

/// Decodes a [`SimResult`].
pub fn sim_result_from_json(v: &Json) -> Result<SimResult, String> {
    Ok(SimResult {
        accelerator: field_str(v, "accelerator")?.to_string(),
        model: field_str(v, "model")?.to_string(),
        layers: field_arr(v, "layers")?
            .iter()
            .map(layer_sim_from_json)
            .collect::<Result<Vec<_>, _>>()?,
    })
}

/// The content address of one simulation request: a stable 64-bit FNV-1a
/// hash over the canonical (key-sorted, compact) JSON of the request
/// object `{model, accelerator, config, seed, max_weights_per_layer}` —
/// the *full* model spec, accelerator name, array configuration and BBS
/// sampling parameters.
///
/// Two requests hash equal iff every quantity the simulation depends on is
/// equal, so a cache hit may be served without re-running the engine.
///
/// The sorted keys put the model between the short fields, so the hash
/// streams over three parts without joining them: the canonical object of
/// `accelerator`, `config` and `max_weights_per_layer` less its closing
/// brace, then `,"model":` and the spec's canonical text
/// ([`hash_spec_text`]: written once per process for a shared zoo
/// model), then `,"seed":N}`. These are the bytes the whole object's `canonical()`
/// writes — a test pins the two equal — so no key moves, and a zoo
/// model's layer table is never rebuilt to take one.
pub fn sim_request_key(
    model: &ModelSpec,
    accelerator: &str,
    cfg: &ArrayConfig,
    seed: u64,
    max_weights_per_layer: usize,
) -> u64 {
    let head = Json::obj(vec![
        ("accelerator", Json::str(accelerator)),
        ("config", array_config_to_json(cfg)),
        (
            "max_weights_per_layer",
            Json::from_usize(max_weights_per_layer),
        ),
    ])
    .canonical();
    let mut hash = Fnv1a64::new();
    hash.write(&head.as_bytes()[..head.len() - 1]);
    hash.write(b",\"model\":");
    hash_spec_text(model, &mut hash);
    hash.write(format!(",\"seed\":{}}}", Json::from_u64(seed)).as_bytes());
    hash.finish()
}

/// Encodes a [`SweepSpec`] as the `/sweep` wire grid: models carry their
/// full layer tables (so the encoding is self-contained and two grids
/// naming the same model with different layers serialize differently),
/// the other axes are plain arrays.
pub fn sweep_spec_to_json(s: &SweepSpec) -> Json {
    Json::obj(vec![
        (
            "models",
            Json::Arr(s.models.iter().map(model_spec_to_json).collect()),
        ),
        (
            "accelerators",
            Json::Arr(s.accelerators.iter().map(|a| Json::str(a)).collect()),
        ),
        (
            "configs",
            Json::Arr(s.configs.iter().map(array_config_to_json).collect()),
        ),
        (
            "seeds",
            Json::Arr(s.seeds.iter().map(|&v| Json::from_u64(v)).collect()),
        ),
        (
            "max_weights_per_layer",
            Json::Arr(s.caps.iter().map(|&v| Json::from_usize(v)).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accel::bitvert::BitVert;
    use crate::engine::simulate;
    use bbs_models::zoo;

    #[test]
    fn sim_result_roundtrips_bit_identical() {
        let cfg = ArrayConfig::paper_16x32();
        let model = zoo::vit_small();
        let r = simulate(&BitVert::moderate(), &model, &cfg, 7, 512);
        let text = sim_result_to_json(&r).to_string();
        let back = sim_result_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r);
        // And re-encoding is textually stable.
        assert_eq!(sim_result_to_json(&back).to_string(), text);
    }

    /// Literal keys: every other key test compares new code with new
    /// code, so a change to `Json::canonical`'s bytes would move every
    /// result-cache key (and every shard home) with all of them green.
    #[test]
    fn request_keys_are_pinned() {
        let cfg = ArrayConfig::paper_16x32();
        assert_eq!(
            sim_request_key(&zoo::resnet34(), "bitvert-moderate", &cfg, 7, 4096),
            0x7aa6_b788_9bea_32ac
        );
        assert_eq!(
            sim_request_key(&zoo::vit_small(), "stripes", &cfg, 3, 256),
            0x9aca_769d_357d_ae75
        );
    }

    /// The request object's canonical form, built as a tree: the
    /// construction the streamed key replaced, kept as its oracle.
    fn tree_key(
        model: &ModelSpec,
        accelerator: &str,
        cfg: &ArrayConfig,
        seed: u64,
        max_weights_per_layer: usize,
    ) -> u64 {
        let canon = Json::obj(vec![
            ("model", model_spec_to_json(model)),
            ("accelerator", Json::str(accelerator)),
            ("config", array_config_to_json(cfg)),
            ("seed", Json::from_u64(seed)),
            (
                "max_weights_per_layer",
                Json::from_usize(max_weights_per_layer),
            ),
        ])
        .canonical();
        bbs_json::fnv1a_64(canon.as_bytes())
    }

    #[test]
    fn streamed_key_equals_the_tree_key() {
        let narrow = ArrayConfig::paper_16x32().with_pe_cols(8);
        let mut odd = zoo::vgg16();
        odd.layers[2].name = "\"\\\u{1}é".to_string();
        for model in zoo::all().iter().map(|m| &**m).chain([&odd]) {
            for (accel, cfg, seed, cap) in [
                ("stripes", &narrow, 0, 1),
                (
                    "BitVert \"mod\"",
                    &ArrayConfig::paper_16x32(),
                    1 << 53,
                    65536,
                ),
            ] {
                assert_eq!(
                    sim_request_key(model, accel, cfg, seed, cap),
                    tree_key(model, accel, cfg, seed, cap),
                    "{}",
                    model.name
                );
            }
        }
    }

    #[test]
    fn array_config_roundtrips() {
        let cfg = ArrayConfig::paper_16x32().with_pe_cols(8);
        let back = array_config_from_json(&array_config_to_json(&cfg)).unwrap();
        assert_eq!(back, cfg);
    }

    #[test]
    fn non_finite_config_numbers_rejected() {
        // "1e999" parses to f64::INFINITY; it must not reach the engine
        // (inf energies would serialize as null and break round trips).
        let text = array_config_to_json(&ArrayConfig::paper_16x32())
            .to_string()
            .replace("\"ge_leakage_mw\":0.00006", "\"ge_leakage_mw\":1e999");
        assert!(text.contains("1e999"), "replacement must hit: {text}");
        let err = array_config_from_json(&Json::parse(&text).unwrap()).unwrap_err();
        assert!(err.contains("finite"), "{err}");
    }

    #[test]
    fn degenerate_config_rejected() {
        let mut v = array_config_to_json(&ArrayConfig::paper_16x32());
        if let Json::Obj(pairs) = &mut v {
            pairs[0].1 = Json::from_u64(0);
        }
        assert!(array_config_from_json(&v).is_err());
    }

    #[test]
    fn request_key_is_stable_and_discriminating() {
        let cfg = ArrayConfig::paper_16x32();
        let model = zoo::resnet34();
        let k = sim_request_key(&model, "bitvert-moderate", &cfg, 7, 4096);
        assert_eq!(
            k,
            sim_request_key(&model, "bitvert-moderate", &cfg, 7, 4096)
        );
        assert_ne!(k, sim_request_key(&model, "stripes", &cfg, 7, 4096));
        assert_ne!(
            k,
            sim_request_key(&model, "bitvert-moderate", &cfg, 8, 4096)
        );
        assert_ne!(
            k,
            sim_request_key(&model, "bitvert-moderate", &cfg, 7, 2048)
        );
        let narrow = cfg.clone().with_pe_cols(8);
        assert_ne!(
            k,
            sim_request_key(&model, "bitvert-moderate", &narrow, 7, 4096)
        );
        let other = zoo::resnet50();
        assert_ne!(
            k,
            sim_request_key(&other, "bitvert-moderate", &cfg, 7, 4096)
        );
    }
}
