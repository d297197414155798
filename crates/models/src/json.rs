//! JSON serialization of model shape descriptions.
//!
//! Part of the workspace serialization layer: [`ModelSpec`]s travel over
//! the `bbs-serve` wire protocol and feed content-addressed cache keys, so
//! the encoding carries the *full layer table* — two requests naming the
//! same model but shipping different layer shapes hash differently.
//!
//! `ModelSpec::name` is `&'static str` (zoo names are compile-time
//! constants), so decoding resolves the name against the [`crate::zoo`]
//! registry; unknown model names are rejected.
//!
//! Keys hash a spec's *canonical text* ([`hash_spec_text`]): the bytes
//! `model_spec_to_json(m).canonical()` writes, kept for the life of the
//! process for each shared zoo model.

use crate::layer::{LayerSpec, ModelFamily, ModelSpec};
use crate::zoo;
use bbs_json::{field, field_arr, field_str, field_usize, Fnv1a64, Json};

/// Upper bound on decoded layer counts (a zoo model has < 300).
pub const MAX_LAYERS: usize = 4096;
/// Upper bound on any decoded per-layer dimension.
pub const MAX_DIM: usize = 1 << 32;
/// Upper bound on a decoded layer's MACs. Keeps every downstream counter
/// (bit traffic is MACs × a small constant) far inside exact-`u64`/`f64`
/// integer range; Llama-3-8B's largest layer is ~2^36 MACs, four orders
/// of magnitude below this.
pub const MAX_LAYER_MACS: u128 = 1 << 50;

/// Encodes a [`ModelFamily`] as its display tag (`cnn`, `vit`, ...).
fn family_to_json(f: ModelFamily) -> Json {
    Json::str(&f.to_string())
}

/// Decodes a [`ModelFamily`] from its display tag.
fn family_from_json(v: &Json) -> Result<ModelFamily, String> {
    match v.as_str() {
        Some("cnn") => Ok(ModelFamily::Cnn),
        Some("vit") => Ok(ModelFamily::VisionTransformer),
        Some("bert") => Ok(ModelFamily::Bert),
        Some("llm") => Ok(ModelFamily::Llm),
        Some(other) => Err(format!("unknown model family '{other}'")),
        None => Err("model family must be a string".to_string()),
    }
}

/// Encodes a [`LayerSpec`].
fn layer_spec_to_json(l: &LayerSpec) -> Json {
    Json::obj(vec![
        ("name", Json::str(&l.name)),
        ("channels", Json::from_usize(l.channels)),
        ("elems_per_channel", Json::from_usize(l.elems_per_channel)),
        ("positions", Json::from_usize(l.positions)),
        ("unique_input_elems", Json::from_usize(l.unique_input_elems)),
    ])
}

/// Decodes a [`LayerSpec`], validating every dimension is in
/// `1..=`[`MAX_DIM`] (the simulator assumes non-degenerate layers).
fn layer_spec_from_json(v: &Json) -> Result<LayerSpec, String> {
    let spec = LayerSpec {
        name: field_str(v, "name")?.to_string(),
        channels: field_usize(v, "channels")?,
        elems_per_channel: field_usize(v, "elems_per_channel")?,
        positions: field_usize(v, "positions")?,
        unique_input_elems: field_usize(v, "unique_input_elems")?,
    };
    for (what, dim) in [
        ("channels", spec.channels),
        ("elems_per_channel", spec.elems_per_channel),
        ("positions", spec.positions),
        ("unique_input_elems", spec.unique_input_elems),
    ] {
        if dim == 0 || dim > MAX_DIM {
            return Err(format!("layer '{}': {what} out of range", spec.name));
        }
    }
    let macs = spec.channels as u128 * spec.elems_per_channel as u128 * spec.positions as u128;
    if macs > MAX_LAYER_MACS {
        return Err(format!("layer '{}': too many MACs", spec.name));
    }
    Ok(spec)
}

/// Encodes a [`ModelSpec`] with its full layer table.
pub fn model_spec_to_json(m: &ModelSpec) -> Json {
    Json::obj(vec![
        ("name", Json::str(m.name)),
        ("family", family_to_json(m.family)),
        (
            "layers",
            Json::Arr(m.layers.iter().map(layer_spec_to_json).collect()),
        ),
    ])
}

/// Continues `hash` over the canonical text of `m`: exactly the bytes
/// `model_spec_to_json(m).canonical()` writes (keys sorted, compact), the
/// text every request key and workload fingerprint hashes.
///
/// A shared zoo model ([`zoo::by_name`]'s `Arc`) hashes the text written
/// when it was built, so a warm key builds no tree. Any other spec — a
/// custom layer table, or a copy of a zoo model — is written and hashed
/// afresh on each call, so an edited spec can never hash text from
/// before its edit.
pub fn hash_spec_text(m: &ModelSpec, hash: &mut Fnv1a64) {
    match zoo::shared_text(m) {
        Some(text) => hash.write(text.as_bytes()),
        None => hash.write(model_spec_to_json(m).canonical().as_bytes()),
    }
}

/// Decodes a [`ModelSpec`]. The name must be a zoo model (it resolves to
/// the zoo's `&'static str`); family and layers are taken from the JSON,
/// so a request may carry a modified layer table under a known name.
pub fn model_spec_from_json(v: &Json) -> Result<ModelSpec, String> {
    let name = field_str(v, "name")?;
    // The list is built by hand rather than with `str::join`. rustc placed
    // that shared generic in the LM's codegen unit, so calling it here
    // made every binary that decodes specs, the server included, link the
    // LM, trainer and accuracy objects and their unwind tables.
    let canonical = zoo::by_name(name).ok_or_else(|| {
        let mut msg = format!("unknown model '{name}' (known: ");
        for (i, known) in zoo::names().iter().enumerate() {
            if i > 0 {
                msg.push_str(", ");
            }
            msg.push_str(known);
        }
        msg.push(')');
        msg
    })?;
    let family = family_from_json(field(v, "family")?)?;
    let layers_json = field_arr(v, "layers")?;
    if layers_json.is_empty() || layers_json.len() > MAX_LAYERS {
        return Err(format!("layer count must be 1..={MAX_LAYERS}"));
    }
    let layers = layers_json
        .iter()
        .map(layer_spec_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(ModelSpec {
        name: canonical.name,
        family,
        layers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zoo_models_roundtrip() {
        for m in zoo::all() {
            let text = model_spec_to_json(&m).to_string();
            let back = model_spec_from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, *m, "{}", m.name);
        }
    }

    #[test]
    fn family_tags_roundtrip() {
        for f in [
            ModelFamily::Cnn,
            ModelFamily::VisionTransformer,
            ModelFamily::Bert,
            ModelFamily::Llm,
        ] {
            assert_eq!(family_from_json(&family_to_json(f)).unwrap(), f);
        }
        assert!(family_from_json(&Json::str("gan")).is_err());
    }

    #[test]
    fn unknown_model_name_rejected() {
        let mut v = model_spec_to_json(&zoo::vgg16());
        if let Json::Obj(pairs) = &mut v {
            pairs[0].1 = Json::str("AlexNet");
        }
        let err = model_spec_from_json(&v).unwrap_err();
        let known = zoo::names().join(", ");
        assert_eq!(err, format!("unknown model 'AlexNet' (known: {known})"));
    }

    #[test]
    fn degenerate_layers_rejected() {
        let v = Json::parse(
            "{\"name\":\"c\",\"channels\":0,\"elems_per_channel\":1,\
             \"positions\":1,\"unique_input_elems\":1}",
        )
        .unwrap();
        assert!(layer_spec_from_json(&v).is_err());
    }

    #[test]
    fn oversized_layers_rejected() {
        let dim = 1usize << 20;
        let v = Json::parse(&format!(
            "{{\"name\":\"big\",\"channels\":{dim},\"elems_per_channel\":{dim},\
             \"positions\":{dim},\"unique_input_elems\":1}}"
        ))
        .unwrap();
        let err = layer_spec_from_json(&v).unwrap_err();
        assert!(err.contains("MACs"), "{err}");
    }

    #[test]
    fn modified_layer_table_is_carried() {
        let mut m = zoo::bert_sst2();
        m.layers.truncate(4);
        let back = model_spec_from_json(&model_spec_to_json(&m)).unwrap();
        assert_eq!(back.layers.len(), 4);
        assert_eq!(back.name, "Bert-SST2");
    }
}
