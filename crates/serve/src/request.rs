//! Decoding and content-addressing of simulation requests.
//!
//! The wire schema (see the README's serve section):
//!
//! ```json
//! {
//!   "model": "ResNet-50",            // zoo name, or a full model-spec object
//!   "accelerator": "bitvert-moderate",
//!   "config": { ... },               // optional, defaults to paper_16x32
//!   "seed": 7,                       // optional
//!   "max_weights_per_layer": 4096    // optional, clamped to the server cap
//! }
//! ```

use crate::registry;
use bbs_json::{field_str, Json};
use bbs_models::json::model_spec_from_json;
use bbs_models::synth::materialized_weights;
use bbs_models::{zoo, ModelSpec};
use bbs_sim::json::{array_config_from_json, sim_request_key};
use bbs_sim::ArrayConfig;
use std::sync::Arc;

/// Default per-layer weight cap when a request does not specify one.
pub const DEFAULT_CAP: usize = 4096;

/// Most weights a custom model spec may materialize at its request's cap
/// (2^26). Lowering keeps at least one 32-weight group per channel
/// whatever the cap, so without this bound a ~200-byte body naming 2^32
/// channels would allocate 2^37 weights. Every zoo model stays within it
/// at the server's default largest cap: Llama-3-8B, the largest,
/// materializes 44–46 M.
pub const MAX_SPEC_WEIGHTS: u64 = 1 << 26;

/// A fully decoded, validated simulation request.
///
/// `model` is shared. A zoo model — named, or spelled out in full and
/// equal to it — is the zoo's own `Arc` ([`zoo::by_name`]): decoding
/// clones no layer table, [`SimRequest::key`] hashes the canonical text
/// the zoo wrote once for the process, and [`SimRequest::to_json`]
/// forwards it by name. Any other spec has an `Arc` of its own, and its
/// text is written when its key is taken. Edit the model through
/// `Arc::make_mut`, which copies a shared spec first: an edit never
/// reaches the zoo's spec, and the copy is keyed by its own content.
#[derive(Debug, Clone, PartialEq)]
pub struct SimRequest {
    /// The model to simulate (zoo model, possibly with a custom layer
    /// table).
    pub model: Arc<ModelSpec>,
    /// Canonical accelerator id (resolvable via [`registry`]).
    pub accelerator: &'static str,
    /// Array geometry and memory system.
    pub config: ArrayConfig,
    /// Weight-synthesis seed.
    pub seed: u64,
    /// Per-layer synthesized-weight cap.
    pub max_weights_per_layer: usize,
}

impl SimRequest {
    /// Decodes a request body. `max_cap` is the server's upper bound on
    /// `max_weights_per_layer` (work-size protection); a custom spec that
    /// would materialize more than [`MAX_SPEC_WEIGHTS`] weights at the
    /// resulting cap is refused.
    pub fn from_json(v: &Json, max_cap: usize) -> Result<SimRequest, String> {
        let model = match v.get("model") {
            Some(Json::Str(name)) => zoo::by_name(name)
                .ok_or_else(|| format!("unknown model '{name}' (see GET /models)"))?,
            Some(spec @ Json::Obj(_)) => zoo::share(model_spec_from_json(spec)?),
            Some(_) => return Err("'model' must be a name or a model-spec object".to_string()),
            None => return Err("missing field 'model'".to_string()),
        };
        let accelerator = registry::canonical_id(field_str(v, "accelerator")?)
            .ok_or_else(|| "unknown accelerator (see GET /accelerators)".to_string())?;
        let config = match v.get("config") {
            Some(c) => array_config_from_json(c)?,
            None => ArrayConfig::paper_16x32(),
        };
        let seed = match v.get("seed") {
            Some(s) => s.as_u64().ok_or("'seed' must be a non-negative integer")?,
            None => 7,
        };
        let requested_cap = match v.get("max_weights_per_layer") {
            Some(c) => c
                .as_usize()
                .filter(|&c| c > 0)
                .ok_or("'max_weights_per_layer' must be a positive integer")?,
            None => DEFAULT_CAP,
        };
        let max_weights_per_layer = requested_cap.min(max_cap);
        check_weight_budget(&model, max_weights_per_layer)?;
        Ok(SimRequest {
            model,
            accelerator,
            config,
            seed,
            max_weights_per_layer,
        })
    }

    /// Re-encodes the request (canonical field order) as a `/simulate`
    /// body. A shared zoo model (the `Arc` [`zoo::by_name`] hands out,
    /// compared by address) goes by its name; any other spec (a zoo name
    /// over a changed layer table) is spelled out in full. Either form
    /// decodes back to the same model, and the key hashes the decoded
    /// spec, so [`SimRequest::key`] does not depend on which form was
    /// sent.
    pub fn to_json(&self) -> Json {
        let model = if zoo::is_shared(&self.model) {
            Json::str(self.model.name)
        } else {
            bbs_models::json::model_spec_to_json(&self.model)
        };
        Json::obj(vec![
            ("model", model),
            ("accelerator", Json::str(self.accelerator)),
            ("config", bbs_sim::json::array_config_to_json(&self.config)),
            ("seed", Json::from_u64(self.seed)),
            (
                "max_weights_per_layer",
                Json::from_usize(self.max_weights_per_layer),
            ),
        ])
    }

    /// The request's content address (the cache key): see
    /// [`sim_request_key`]. A shared zoo model's spec text is hashed
    /// as the zoo wrote it; a custom spec's is written for this call.
    pub fn key(&self) -> u64 {
        sim_request_key(
            &self.model,
            self.accelerator,
            &self.config,
            self.seed,
            self.max_weights_per_layer,
        )
    }
}

/// Refuses a custom spec that would materialize more than
/// [`MAX_SPEC_WEIGHTS`] weights at `cap`, before anything is allocated.
/// A shared zoo model passes: how much it materializes is the operator's
/// choice of `--max-cap`.
pub(crate) fn check_weight_budget(model: &ModelSpec, cap: usize) -> Result<(), String> {
    if zoo::is_shared(model) {
        return Ok(());
    }
    let weights = model
        .layers
        .iter()
        .map(|l| materialized_weights(l, cap))
        .fold(0u64, u64::saturating_add);
    if weights > MAX_SPEC_WEIGHTS {
        return Err(format!(
            "model spec would materialize {weights} weights at max_weights_per_layer \
             {cap}, more than the limit of {MAX_SPEC_WEIGHTS}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbs_models::json::model_spec_to_json;
    use bbs_sim::store::model_fingerprint;

    #[test]
    fn minimal_request_gets_defaults() {
        let v = Json::parse("{\"model\":\"ViT-Small\",\"accelerator\":\"stripes\"}").unwrap();
        let r = SimRequest::from_json(&v, 65536).unwrap();
        assert_eq!(r.model.name, "ViT-Small");
        assert_eq!(r.accelerator, "stripes");
        assert_eq!(r.config, ArrayConfig::paper_16x32());
        assert_eq!(r.seed, 7);
        assert_eq!(r.max_weights_per_layer, DEFAULT_CAP);
    }

    #[test]
    fn cap_is_clamped_to_server_limit() {
        let v = Json::parse(
            "{\"model\":\"VGG-16\",\"accelerator\":\"ant\",\"max_weights_per_layer\":999999}",
        )
        .unwrap();
        let r = SimRequest::from_json(&v, 8192).unwrap();
        assert_eq!(r.max_weights_per_layer, 8192);
    }

    #[test]
    fn request_roundtrips_through_its_own_encoding() {
        let v =
            Json::parse("{\"model\":\"Bert-SST2\",\"accelerator\":\"BitVert (mod)\",\"seed\":11}")
                .unwrap();
        let r = SimRequest::from_json(&v, 65536).unwrap();
        assert_eq!(r.accelerator, "bitvert-moderate");
        let again = SimRequest::from_json(&r.to_json(), 65536).unwrap();
        assert_eq!(again, r);
        assert_eq!(again.key(), r.key());
    }

    #[test]
    fn zoo_models_go_by_name_and_changed_specs_in_full() {
        let zoo_request = SimRequest::from_json(
            &Json::parse("{\"model\":\"ResNet-34\",\"accelerator\":\"bitvert-moderate\"}").unwrap(),
            65536,
        )
        .unwrap();
        let mut changed = zoo_request.clone();
        Arc::make_mut(&mut changed.model).layers[1].channels += 1;
        // An unmodified zoo spec sent in full is the zoo model: it goes
        // on by name under the same key.
        let spelled = SimRequest::from_json(
            &Json::obj(vec![
                ("model", model_spec_to_json(&zoo::resnet34())),
                ("accelerator", Json::str("bitvert-moderate")),
            ]),
            65536,
        )
        .unwrap();
        assert_eq!(spelled, zoo_request);

        let by_name = zoo_request.to_json();
        assert_eq!(by_name.get("model"), Some(&Json::str("ResNet-34")));
        let in_full = changed.to_json();
        assert_eq!(
            in_full.get("model"),
            Some(&model_spec_to_json(&changed.model))
        );
        assert_ne!(changed.key(), zoo_request.key());
        for (request, wire) in [(&zoo_request, by_name), (&changed, in_full)] {
            let back =
                SimRequest::from_json(&Json::parse(&wire.to_string()).unwrap(), 65536).unwrap();
            assert_eq!(&back, request);
            assert_eq!(back.key(), request.key());
        }
    }

    /// A zoo model decodes to the zoo's one `Arc`, whether named or
    /// spelled out in full; an edit through `Arc::make_mut` copies it, so
    /// the edited request gets its own key and fingerprint and the zoo's
    /// model and key stay as they were.
    #[test]
    fn zoo_requests_share_one_spec_and_edits_copy_it() {
        let body = "{\"model\":\"Bert-SST2\",\"accelerator\":\"ant\"}";
        let a = SimRequest::from_json(&Json::parse(body).unwrap(), 65536).unwrap();
        let b = SimRequest::from_json(&Json::parse(body).unwrap(), 65536).unwrap();
        let zoo_model = zoo::by_name("bert-sst2").unwrap();
        assert!(Arc::ptr_eq(&a.model, &zoo_model) && Arc::ptr_eq(&b.model, &zoo_model));
        let spelled = Json::obj(vec![
            ("model", model_spec_to_json(&zoo::bert_sst2())),
            ("accelerator", Json::str("ant")),
        ]);
        let spelled = SimRequest::from_json(&spelled, 65536).unwrap();
        assert!(Arc::ptr_eq(&spelled.model, &zoo_model));

        let key = a.key();
        let fingerprint = model_fingerprint(&a.model);
        let mut edited = a.clone();
        Arc::make_mut(&mut edited.model).layers[4].name.push('\\');
        assert!(!Arc::ptr_eq(&edited.model, &zoo_model));
        assert_eq!(*zoo_model, zoo::bert_sst2(), "the zoo's spec is untouched");
        assert_ne!(edited.key(), key);
        let edited_text = model_spec_to_json(&edited.model).canonical();
        assert_eq!(
            model_fingerprint(&edited.model),
            bbs_json::fnv1a_64(edited_text.as_bytes())
        );
        assert_ne!(model_fingerprint(&edited.model), fingerprint);
        assert_eq!((a.key(), model_fingerprint(&a.model)), (key, fingerprint));
        assert_eq!(
            SimRequest::from_json(&edited.to_json(), 65536)
                .unwrap()
                .key(),
            edited.key()
        );
    }

    /// One custom layer of 2^32 channels: ~200 bytes of JSON that lowering
    /// would turn into 2^37 weights (512 GiB of `f32`). Decoding refuses
    /// it at every cap, and nothing is lowered.
    #[test]
    fn oversized_custom_specs_are_refused_at_decode() {
        let body = "{\"model\":{\"name\":\"VGG-16\",\"family\":\"cnn\",\"layers\":[\
                    {\"name\":\"wide\",\"channels\":4294967296,\"elems_per_channel\":32,\
                    \"positions\":1,\"unique_input_elems\":1}]},\"accelerator\":\"stripes\"}";
        assert!(body.len() < 200, "{}", body.len());
        for cap in [1, DEFAULT_CAP, 65536, usize::MAX] {
            let err = SimRequest::from_json(&Json::parse(body).unwrap(), cap).unwrap_err();
            assert!(err.contains("materialize 137438953472 weights"), "{err}");
        }
        // The same layer at 2^21 channels materializes 2^26: allowed.
        let fits = body.replace("4294967296", "2097152");
        assert!(SimRequest::from_json(&Json::parse(&fits).unwrap(), 65536).is_ok());
        let over = body.replace("4294967296", "2097153");
        assert!(SimRequest::from_json(&Json::parse(&over).unwrap(), 65536).is_err());
    }

    /// Every zoo model fits the budget at the server's default largest
    /// cap, by name or spelled out in full (Llama-3-8B at 44–46 M).
    #[test]
    fn zoo_models_fit_the_weight_budget() {
        let max_cap = crate::service::ServiceConfig::default().max_cap;
        for model in zoo::all() {
            let weights: u64 = model
                .layers
                .iter()
                .map(|l| materialized_weights(l, max_cap))
                .sum();
            assert!(weights <= MAX_SPEC_WEIGHTS, "{}: {weights}", model.name);
            let copy = Arc::new((*model).clone());
            assert_eq!(check_weight_budget(&copy, max_cap), Ok(()));
        }
        let llama = zoo::by_name("Llama-3-8B").unwrap();
        for cap in [1, DEFAULT_CAP, max_cap] {
            let weights: u64 = llama
                .layers
                .iter()
                .map(|l| materialized_weights(l, cap))
                .sum();
            assert!((44_000_000..=46_200_000).contains(&weights), "{weights}");
        }
    }

    #[test]
    fn key_ignores_name_spelling_but_not_content() {
        let a = SimRequest::from_json(
            &Json::parse("{\"model\":\"resnet-34\",\"accelerator\":\"BITWAVE\"}").unwrap(),
            65536,
        )
        .unwrap();
        let b = SimRequest::from_json(
            &Json::parse("{\"model\":\"ResNet-34\",\"accelerator\":\"bit-wave\"}").unwrap(),
            65536,
        )
        .unwrap();
        assert_eq!(a.key(), b.key(), "spelling variants are one cache entry");
        let c = SimRequest::from_json(
            &Json::parse("{\"model\":\"ResNet-34\",\"accelerator\":\"bitwave\",\"seed\":8}")
                .unwrap(),
            65536,
        )
        .unwrap();
        assert_ne!(a.key(), c.key());
    }

    #[test]
    fn bad_requests_rejected_with_reasons() {
        let max = 65536;
        for (body, needle) in [
            ("{}", "model"),
            (
                "{\"model\":\"Nope\",\"accelerator\":\"ant\"}",
                "unknown model",
            ),
            ("{\"model\":\"VGG-16\"}", "accelerator"),
            (
                "{\"model\":\"VGG-16\",\"accelerator\":\"tpu\"}",
                "unknown accelerator",
            ),
            (
                "{\"model\":\"VGG-16\",\"accelerator\":\"ant\",\"seed\":-1}",
                "seed",
            ),
            (
                "{\"model\":\"VGG-16\",\"accelerator\":\"ant\",\"max_weights_per_layer\":0}",
                "max_weights_per_layer",
            ),
        ] {
            let err = SimRequest::from_json(&Json::parse(body).unwrap(), max).unwrap_err();
            assert!(err.contains(needle), "{body} -> {err}");
        }
    }
}
