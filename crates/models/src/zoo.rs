//! The benchmark model zoo: layer tables of the paper's seven DNNs
//! (Table I) plus Llama-3-8B (§V-H).
//!
//! Only *weight* layers are listed — the operands the paper compresses and
//! the accelerators process bit-serially. Attention score/context matmuls
//! (activation × activation) carry no weights and are excluded, as in the
//! paper's weight-sparsity evaluation. Embedding lookups are excluded for
//! the same reason.

use crate::json::model_spec_to_json;
use crate::layer::{LayerSpec, ModelFamily, ModelSpec};
use std::sync::{Arc, OnceLock};

/// VGG-16 on ImageNet (224×224).
pub fn vgg16() -> ModelSpec {
    let mut layers = vec![
        LayerSpec::conv2d("conv1.1", 3, 64, 3, 1, 224),
        LayerSpec::conv2d("conv1.2", 64, 64, 3, 1, 224),
        LayerSpec::conv2d("conv2.1", 64, 128, 3, 1, 112),
        LayerSpec::conv2d("conv2.2", 128, 128, 3, 1, 112),
        LayerSpec::conv2d("conv3.1", 128, 256, 3, 1, 56),
        LayerSpec::conv2d("conv3.2", 256, 256, 3, 1, 56),
        LayerSpec::conv2d("conv3.3", 256, 256, 3, 1, 56),
        LayerSpec::conv2d("conv4.1", 256, 512, 3, 1, 28),
        LayerSpec::conv2d("conv4.2", 512, 512, 3, 1, 28),
        LayerSpec::conv2d("conv4.3", 512, 512, 3, 1, 28),
        LayerSpec::conv2d("conv5.1", 512, 512, 3, 1, 14),
        LayerSpec::conv2d("conv5.2", 512, 512, 3, 1, 14),
        LayerSpec::conv2d("conv5.3", 512, 512, 3, 1, 14),
    ];
    layers.push(LayerSpec::linear("fc6", 25088, 4096, 1));
    layers.push(LayerSpec::linear("fc7", 4096, 4096, 1));
    layers.push(LayerSpec::linear("fc8", 4096, 1000, 1));
    ModelSpec {
        name: "VGG-16",
        family: ModelFamily::Cnn,
        layers,
    }
}

fn basic_block(
    layers: &mut Vec<LayerSpec>,
    name: &str,
    in_c: usize,
    c: usize,
    hw: usize,
    stride: usize,
) {
    layers.push(LayerSpec::conv2d(
        format!("{name}.conv1"),
        in_c,
        c,
        3,
        stride,
        hw,
    ));
    let out_hw = hw.div_ceil(stride);
    layers.push(LayerSpec::conv2d(
        format!("{name}.conv2"),
        c,
        c,
        3,
        1,
        out_hw,
    ));
    if stride != 1 || in_c != c {
        layers.push(LayerSpec::conv2d(
            format!("{name}.down"),
            in_c,
            c,
            1,
            stride,
            hw,
        ));
    }
}

/// ResNet-34 on ImageNet.
pub fn resnet34() -> ModelSpec {
    let mut layers = vec![LayerSpec::conv2d("conv1", 3, 64, 7, 2, 224)];
    let stages: [(usize, usize, usize, usize); 4] = [
        (3, 64, 56, 1),
        (4, 128, 56, 2),
        (6, 256, 28, 2),
        (3, 512, 14, 2),
    ];
    let mut in_c = 64;
    for (si, &(blocks, c, hw, first_stride)) in stages.iter().enumerate() {
        for b in 0..blocks {
            let stride = if b == 0 { first_stride } else { 1 };
            let block_hw = if b == 0 { hw } else { hw / first_stride };
            basic_block(
                &mut layers,
                &format!("layer{}.{}", si + 1, b),
                in_c,
                c,
                block_hw,
                stride,
            );
            in_c = c;
        }
    }
    layers.push(LayerSpec::linear("fc", 512, 1000, 1));
    ModelSpec {
        name: "ResNet-34",
        family: ModelFamily::Cnn,
        layers,
    }
}

fn bottleneck(
    layers: &mut Vec<LayerSpec>,
    name: &str,
    in_c: usize,
    c: usize,
    hw: usize,
    stride: usize,
) {
    layers.push(LayerSpec::conv2d(
        format!("{name}.conv1"),
        in_c,
        c,
        1,
        1,
        hw,
    ));
    layers.push(LayerSpec::conv2d(
        format!("{name}.conv2"),
        c,
        c,
        3,
        stride,
        hw,
    ));
    let out_hw = hw.div_ceil(stride);
    layers.push(LayerSpec::conv2d(
        format!("{name}.conv3"),
        c,
        c * 4,
        1,
        1,
        out_hw,
    ));
    if stride != 1 || in_c != c * 4 {
        layers.push(LayerSpec::conv2d(
            format!("{name}.down"),
            in_c,
            c * 4,
            1,
            stride,
            hw,
        ));
    }
}

/// ResNet-50 on ImageNet.
pub fn resnet50() -> ModelSpec {
    let mut layers = vec![LayerSpec::conv2d("conv1", 3, 64, 7, 2, 224)];
    let stages: [(usize, usize, usize, usize); 4] = [
        (3, 64, 56, 1),
        (4, 128, 56, 2),
        (6, 256, 28, 2),
        (3, 512, 14, 2),
    ];
    let mut in_c = 64;
    for (si, &(blocks, c, hw, first_stride)) in stages.iter().enumerate() {
        for b in 0..blocks {
            let stride = if b == 0 { first_stride } else { 1 };
            let block_hw = if b == 0 { hw } else { hw / first_stride };
            bottleneck(
                &mut layers,
                &format!("layer{}.{}", si + 1, b),
                in_c,
                c,
                block_hw,
                stride,
            );
            in_c = c * 4;
        }
    }
    layers.push(LayerSpec::linear("fc", 2048, 1000, 1));
    ModelSpec {
        name: "ResNet-50",
        family: ModelFamily::Cnn,
        layers,
    }
}

fn transformer_encoder(
    layers: &mut Vec<LayerSpec>,
    prefix: &str,
    blocks: usize,
    d: usize,
    mlp: usize,
    tokens: usize,
) {
    for b in 0..blocks {
        layers.push(LayerSpec::linear(
            format!("{prefix}{b}.qkv"),
            d,
            3 * d,
            tokens,
        ));
        layers.push(LayerSpec::linear(format!("{prefix}{b}.proj"), d, d, tokens));
        layers.push(LayerSpec::linear(
            format!("{prefix}{b}.fc1"),
            d,
            mlp,
            tokens,
        ));
        layers.push(LayerSpec::linear(
            format!("{prefix}{b}.fc2"),
            mlp,
            d,
            tokens,
        ));
    }
}

/// ViT-Small/16 on ImageNet (197 tokens).
pub fn vit_small() -> ModelSpec {
    let mut layers = vec![LayerSpec::linear("patch_embed", 768, 384, 196)];
    transformer_encoder(&mut layers, "block", 12, 384, 1536, 197);
    layers.push(LayerSpec::linear("head", 384, 1000, 1));
    ModelSpec {
        name: "ViT-Small",
        family: ModelFamily::VisionTransformer,
        layers,
    }
}

/// ViT-Base/16 on ImageNet (197 tokens).
pub fn vit_base() -> ModelSpec {
    let mut layers = vec![LayerSpec::linear("patch_embed", 768, 768, 196)];
    transformer_encoder(&mut layers, "block", 12, 768, 3072, 197);
    layers.push(LayerSpec::linear("head", 768, 1000, 1));
    ModelSpec {
        name: "ViT-Base",
        family: ModelFamily::VisionTransformer,
        layers,
    }
}

fn bert_base(name: &'static str, tokens: usize, classes: usize) -> ModelSpec {
    let d = 768;
    let mut layers = Vec::new();
    for b in 0..12 {
        layers.push(LayerSpec::linear(format!("layer{b}.q"), d, d, tokens));
        layers.push(LayerSpec::linear(format!("layer{b}.k"), d, d, tokens));
        layers.push(LayerSpec::linear(format!("layer{b}.v"), d, d, tokens));
        layers.push(LayerSpec::linear(format!("layer{b}.o"), d, d, tokens));
        layers.push(LayerSpec::linear(format!("layer{b}.fc1"), d, 3072, tokens));
        layers.push(LayerSpec::linear(format!("layer{b}.fc2"), 3072, d, tokens));
    }
    layers.push(LayerSpec::linear("pooler", d, d, 1));
    layers.push(LayerSpec::linear("classifier", d, classes, 1));
    ModelSpec {
        name,
        family: ModelFamily::Bert,
        layers,
    }
}

/// BERT-base on GLUE MRPC (sequence length 128).
pub fn bert_mrpc() -> ModelSpec {
    bert_base("Bert-MRPC", 128, 2)
}

/// BERT-base on GLUE SST-2 (sequence length 64).
pub fn bert_sst2() -> ModelSpec {
    bert_base("Bert-SST2", 64, 2)
}

/// Llama-3-8B decoder (GQA: 8 KV heads of 128), 2048-token context.
pub fn llama3_8b() -> ModelSpec {
    let d = 4096;
    let kv = 1024;
    let ffn = 14336;
    let tokens = 2048;
    let mut layers = Vec::new();
    for b in 0..32 {
        layers.push(LayerSpec::linear(format!("layer{b}.q"), d, d, tokens));
        layers.push(LayerSpec::linear(format!("layer{b}.k"), d, kv, tokens));
        layers.push(LayerSpec::linear(format!("layer{b}.v"), d, kv, tokens));
        layers.push(LayerSpec::linear(format!("layer{b}.o"), d, d, tokens));
        layers.push(LayerSpec::linear(format!("layer{b}.gate"), d, ffn, tokens));
        layers.push(LayerSpec::linear(format!("layer{b}.up"), d, ffn, tokens));
        layers.push(LayerSpec::linear(format!("layer{b}.down"), ffn, d, tokens));
    }
    ModelSpec {
        name: "Llama-3-8B",
        family: ModelFamily::Llm,
        layers,
    }
}

/// The seven benchmarks of the paper's Table I, in figure order.
pub fn paper_benchmarks() -> Vec<ModelSpec> {
    vec![
        vgg16(),
        resnet34(),
        resnet50(),
        vit_small(),
        vit_base(),
        bert_mrpc(),
        bert_sst2(),
    ]
}

/// A zoo model as the process shares it: the spec behind one `Arc` and
/// its canonical text (see [`crate::json::hash_spec_text`]), written when
/// the model is first built.
struct Shared {
    spec: Arc<ModelSpec>,
    text: Box<str>,
}

/// A zoo registry entry: display name, constructor, and the shared model
/// once something has asked for it.
struct ZooEntry {
    name: &'static str,
    build: fn() -> ModelSpec,
    shared: OnceLock<Shared>,
}

impl ZooEntry {
    const fn new(name: &'static str, build: fn() -> ModelSpec) -> ZooEntry {
        ZooEntry {
            name,
            build,
            shared: OnceLock::new(),
        }
    }

    fn shared(&self) -> &Shared {
        self.shared.get_or_init(|| {
            let spec = (self.build)();
            let text = model_spec_to_json(&spec).canonical().into_boxed_str();
            Shared {
                spec: Arc::new(spec),
                text,
            }
        })
    }
}

/// The seven paper benchmarks plus Llama-3-8B, each built at most once
/// per process. Single source of truth for [`all`]/[`by_name`]/[`names`];
/// a name lookup builds only the model it finds.
static ZOO: [ZooEntry; 8] = [
    ZooEntry::new("VGG-16", vgg16),
    ZooEntry::new("ResNet-34", resnet34),
    ZooEntry::new("ResNet-50", resnet50),
    ZooEntry::new("ViT-Small", vit_small),
    ZooEntry::new("ViT-Base", vit_base),
    ZooEntry::new("Bert-MRPC", bert_mrpc),
    ZooEntry::new("Bert-SST2", bert_sst2),
    ZooEntry::new("Llama-3-8B", llama3_8b),
];

/// Every zoo model: the seven paper benchmarks plus Llama-3-8B, as the
/// shared `Arc`s [`by_name`] hands out.
pub fn all() -> Vec<Arc<ModelSpec>> {
    ZOO.iter().map(|e| Arc::clone(&e.shared().spec)).collect()
}

/// The zoo model with the given name (the paper's figure labels,
/// case-insensitive), or `None`. This is the lookup `bbs-serve` uses to
/// decode requests that reference models by name. Every call returns the
/// same `Arc`, built on the first: no layer table is rebuilt or cloned,
/// and the model's canonical text, which every key and fingerprint taken
/// of it hashes, is written once per process. The shared spec cannot
/// change — `Arc::make_mut` on a clone copies it — so code that holds
/// this `Arc` may treat pointer equality as "is the zoo model".
pub fn by_name(name: &str) -> Option<Arc<ModelSpec>> {
    ZOO.iter()
        .find(|e| e.name.eq_ignore_ascii_case(name))
        .map(|e| Arc::clone(&e.shared().spec))
}

/// `spec` as a shared model: the zoo's own `Arc` when `spec` equals the
/// zoo model of its name, so a zoo spec spelled out in full is that zoo
/// model from here on (one key text, forwarded by name); a new `Arc`
/// otherwise.
pub fn share(spec: ModelSpec) -> Arc<ModelSpec> {
    match by_name(spec.name) {
        Some(zoo) if *zoo == spec => zoo,
        _ => Arc::new(spec),
    }
}

/// Whether `model` is a shared zoo model: the very allocation [`by_name`]
/// hands out, compared by address. A copy — even an equal one — is not.
pub fn is_shared(model: &ModelSpec) -> bool {
    shared(model).is_some()
}

/// The shared entry whose `Arc` `model` points into. Nothing can change
/// that allocation, so the text written when it was built is still its
/// text.
fn shared(model: &ModelSpec) -> Option<&'static Shared> {
    ZOO.iter()
        .filter_map(|e| e.shared.get())
        .find(|s| std::ptr::eq(Arc::as_ptr(&s.spec), model))
}

/// `model`'s canonical text if `model` is a shared zoo model: the text
/// written when the zoo built it.
pub(crate) fn shared_text(model: &ModelSpec) -> Option<&'static str> {
    shared(model).map(|s| &*s.text)
}

/// All zoo model names, in [`all`] order (no layer tables built).
pub fn names() -> Vec<&'static str> {
    ZOO.iter().map(|e| e.name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_params_near(model: &ModelSpec, expect_m: f64, tol: f64) {
        let got = model.params() as f64 / 1e6;
        assert!(
            (got - expect_m).abs() / expect_m < tol,
            "{}: {got:.1}M params, expected ~{expect_m}M",
            model.name
        );
    }

    #[test]
    fn vgg16_matches_published_size() {
        assert_params_near(&vgg16(), 138.0, 0.03);
    }

    #[test]
    fn resnet34_matches_published_size() {
        assert_params_near(&resnet34(), 21.8, 0.05);
    }

    #[test]
    fn resnet50_matches_published_size() {
        assert_params_near(&resnet50(), 25.5, 0.05);
    }

    #[test]
    fn vit_sizes_match_published() {
        assert_params_near(&vit_small(), 22.0, 0.07);
        assert_params_near(&vit_base(), 86.0, 0.07);
    }

    #[test]
    fn bert_encoder_size_matches() {
        // 12 encoder layers of BERT-base: ~85M weight-layer parameters
        // (embeddings excluded by design).
        assert_params_near(&bert_mrpc(), 85.6, 0.05);
    }

    #[test]
    fn llama_is_about_seven_billion_weight_params() {
        // 8B total minus embeddings/head ~ 7.0B in projection layers.
        let p = llama3_8b().params() as f64 / 1e9;
        assert!((6.5..=7.5).contains(&p), "{p}B");
    }

    #[test]
    fn resnet50_macs_in_published_band() {
        // ~4.1 GMACs at 224x224.
        let g = resnet50().macs() as f64 / 1e9;
        assert!((3.6..=4.6).contains(&g), "{g} GMACs");
    }

    #[test]
    fn vgg16_macs_in_published_band() {
        // ~15.5 GMACs.
        let g = vgg16().macs() as f64 / 1e9;
        assert!((14.0..=16.5).contains(&g), "{g} GMACs");
    }

    #[test]
    fn seven_benchmarks() {
        let b = paper_benchmarks();
        assert_eq!(b.len(), 7);
        let names: Vec<&str> = b.iter().map(|m| m.name).collect();
        assert_eq!(
            names,
            vec![
                "VGG-16",
                "ResNet-34",
                "ResNet-50",
                "ViT-Small",
                "ViT-Base",
                "Bert-MRPC",
                "Bert-SST2"
            ]
        );
    }

    #[test]
    fn by_name_finds_every_model_case_insensitively() {
        assert_eq!(names().len(), 8);
        for name in names() {
            let m = by_name(&name.to_lowercase()).expect(name);
            assert_eq!(m.name, name);
        }
        assert!(by_name("AlexNet").is_none());
    }

    /// One build per process: every lookup shares the first `Arc`, in the
    /// constructors' layer tables, and `all` hands out the same ones.
    #[test]
    fn zoo_models_are_built_once_and_shared() {
        for (built, name) in all().iter().zip(names()) {
            let a = by_name(name).unwrap();
            let b = by_name(&name.to_uppercase()).unwrap();
            assert!(Arc::ptr_eq(&a, &b), "{name}");
            assert!(Arc::ptr_eq(&a, built), "{name}");
        }
        assert_eq!(*by_name("ResNet-34").unwrap(), resnet34());
    }

    #[test]
    fn share_returns_the_zoo_arc_only_for_the_zoo_model() {
        let zoo = by_name("ViT-Small").unwrap();
        assert!(Arc::ptr_eq(&share(vit_small()), &zoo));
        let mut changed = vit_small();
        changed.layers[0].positions += 1;
        let changed = share(changed);
        assert!(!Arc::ptr_eq(&changed, &zoo));
        assert_ne!(*changed, *zoo);
    }

    /// The shared text is found only through the shared allocation: an
    /// equal copy, or the copy `Arc::make_mut` makes of a shared `Arc`
    /// before editing it, is another model as far as the zoo knows.
    #[test]
    fn shared_text_follows_the_allocation_not_the_value() {
        let zoo = by_name("Bert-SST2").unwrap();
        assert!(is_shared(&zoo));
        assert!(!is_shared(&bert_sst2()));
        let mut edited = Arc::clone(&zoo);
        Arc::make_mut(&mut edited).layers.truncate(3);
        assert!(!Arc::ptr_eq(&edited, &zoo));
        assert!(!is_shared(&edited));
        assert_eq!(zoo.layers.len(), bert_sst2().layers.len());
    }

    #[test]
    fn sst2_is_lighter_than_mrpc() {
        assert!(bert_sst2().macs() < bert_mrpc().macs());
        assert_eq!(bert_sst2().params(), bert_mrpc().params());
    }
}
