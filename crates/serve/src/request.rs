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
use bbs_models::{zoo, ModelSpec};
use bbs_sim::json::{array_config_from_json, sim_request_key};
use bbs_sim::ArrayConfig;

/// Default per-layer weight cap when a request does not specify one.
pub const DEFAULT_CAP: usize = 4096;

/// A fully decoded, validated simulation request.
#[derive(Debug, Clone, PartialEq)]
pub struct SimRequest {
    /// The model to simulate (zoo model, possibly with a custom layer
    /// table).
    pub model: ModelSpec,
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
    /// `max_weights_per_layer` (work-size protection).
    pub fn from_json(v: &Json, max_cap: usize) -> Result<SimRequest, String> {
        let model = match v.get("model") {
            Some(Json::Str(name)) => zoo::by_name(name)
                .ok_or_else(|| format!("unknown model '{name}' (see GET /models)"))?,
            Some(spec @ Json::Obj(_)) => model_spec_from_json(spec)?,
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
        Ok(SimRequest {
            model,
            accelerator,
            config,
            seed,
            max_weights_per_layer: requested_cap.min(max_cap),
        })
    }

    /// Re-encodes the request (canonical field order) as a `/simulate`
    /// body. A zoo model goes by its name; any other spec (a zoo name over
    /// a changed layer table) is spelled out in full. Either form decodes
    /// back to the same model, and the key hashes the decoded spec, so
    /// [`SimRequest::key`] does not depend on which form was sent.
    pub fn to_json(&self) -> Json {
        let model = if zoo::by_name(self.model.name).as_ref() == Some(&self.model) {
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

    /// The request's content address (the cache key).
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

#[cfg(test)]
mod tests {
    use super::*;
    use bbs_models::json::model_spec_to_json;

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
        changed.model.layers[1].channels += 1;
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
