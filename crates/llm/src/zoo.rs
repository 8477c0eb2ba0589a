//! Model zoo: named backbone profiles and the size ladder.
//!
//! The paper evaluates four LLM families (Llama2, OPT, Mistral, LLaVa; Fig
//! 15) and five OPT sizes (0.35B–13B; Fig 16). The zoo mirrors both axes at
//! simulator scale: profiles differ in head count, MLP width, pre-training
//! mixture and seed; the size ladder scales width/depth. Pre-trained
//! checkpoints are cached on disk so figure regeneration does not re-train
//! backbones.

use crate::model::{LmConfig, TinyLm};
use crate::pretrain::{pretrain, Corpus, CorpusMix, PretrainReport};
use crate::tokenizer::Tokenizer;
use nt_nn::{checkpoint, ParamStore};
use nt_tensor::Rng;
use std::path::PathBuf;

/// The four backbone families of Figure 15.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Profile {
    /// Default foundation model (the paper's Llama2-7B role).
    LlamaSim,
    /// OPT-style: fewer attention heads.
    OptSim,
    /// Mistral-style: more heads, slimmer MLP.
    MistralSim,
    /// LLaVa-style: multimodal pre-training mixture.
    LlavaSim,
}

impl Profile {
    pub const ALL: [Profile; 4] =
        [Profile::LlamaSim, Profile::OptSim, Profile::MistralSim, Profile::LlavaSim];

    pub fn name(self) -> &'static str {
        match self {
            Profile::LlamaSim => "llama-sim",
            Profile::OptSim => "opt-sim",
            Profile::MistralSim => "mistral-sim",
            Profile::LlavaSim => "llava-sim",
        }
    }
}

/// Full specification of a backbone to build/pre-train.
#[derive(Clone, Debug)]
pub struct ModelSpec {
    pub name: String,
    pub cfg: LmConfig,
    pub mix: CorpusMix,
    pub seed: u64,
}

/// Spec for a named profile at the default ("7B-sim") scale.
pub fn profile_spec(p: Profile) -> ModelSpec {
    let tok = Tokenizer::new();
    let vocab = tok.vocab_size();
    let (cfg, mix, seed) = match p {
        Profile::LlamaSim => (LmConfig::base(vocab), CorpusMix::text(), 101),
        Profile::OptSim => {
            (LmConfig { n_heads: 2, ..LmConfig::base(vocab) }, CorpusMix::text(), 202)
        }
        Profile::MistralSim => {
            (LmConfig { n_heads: 8, mlp_mult: 3, ..LmConfig::base(vocab) }, CorpusMix::text(), 303)
        }
        Profile::LlavaSim => (LmConfig::base(vocab), CorpusMix::multimodal(), 404),
    };
    ModelSpec { name: p.name().to_string(), cfg, mix, seed }
}

/// The OPT size ladder of Figure 16. `label` mirrors the paper's parameter
/// counts; the architectures are the scaled-down stand-ins.
pub const SIZE_LADDER: [&str; 5] = ["0.35b-sim", "1.3b-sim", "2.7b-sim", "7b-sim", "13b-sim"];

/// Spec for a ladder entry.
pub fn size_spec(label: &str) -> ModelSpec {
    let tok = Tokenizer::new();
    let vocab = tok.vocab_size();
    let (d, l, h) = match label {
        "0.35b-sim" => (12, 1, 2),
        "1.3b-sim" => (24, 1, 2),
        "2.7b-sim" => (32, 2, 4),
        "7b-sim" => (48, 2, 4),
        "13b-sim" => (64, 3, 4),
        other => panic!("unknown size label {other:?} (see SIZE_LADDER)"),
    };
    ModelSpec {
        name: format!("opt-{label}"),
        cfg: LmConfig {
            vocab,
            d_model: d,
            n_layers: l,
            n_heads: h,
            mlp_mult: 4,
            max_seq: 160,
            dropout: 0.0,
        },
        mix: CorpusMix::text(),
        seed: 7000 + d as u64,
    }
}

/// A ready-to-use backbone: model + its parameter store + tokenizer.
pub struct LoadedLm {
    pub lm: TinyLm,
    pub store: ParamStore,
    pub tok: Tokenizer,
    /// `None` when restored from cache.
    pub report: Option<PretrainReport>,
}

/// Zoo with an on-disk checkpoint cache.
pub struct Zoo {
    cache_dir: PathBuf,
}

impl Zoo {
    pub fn new(cache_dir: impl Into<PathBuf>) -> Self {
        Zoo { cache_dir: cache_dir.into() }
    }

    fn path_for(&self, spec: &ModelSpec, steps: usize) -> PathBuf {
        self.cache_dir.join(format!("{}-s{}.ntck", spec.name, steps))
    }

    /// Build the backbone with random weights (the "no pre-trained
    /// knowledge" ablation) — never touches the cache.
    pub fn build_random(&self, spec: &ModelSpec) -> LoadedLm {
        let mut rng = Rng::seeded(spec.seed);
        let mut store = ParamStore::new();
        let lm = TinyLm::new(&mut store, spec.cfg.clone(), &mut rng);
        LoadedLm { lm, store, tok: Tokenizer::new(), report: None }
    }

    /// Load the pre-trained backbone from cache, or pre-train it for
    /// `steps` steps and cache the result.
    pub fn load_or_pretrain(&self, spec: &ModelSpec, steps: usize) -> LoadedLm {
        let mut loaded = self.build_random(spec);
        let path = self.path_for(spec, steps);
        if path.exists() && checkpoint::load(&mut loaded.store, &path).is_ok() {
            return loaded;
        }
        // Corrupt/stale cache: fall through and re-train.
        let mut rng = Rng::seeded(spec.seed ^ 0xC0FFEE);
        let corpus = Corpus::new(spec.mix.clone(), 32, &mut rng);
        let report = pretrain(&loaded.lm, &mut loaded.store, &corpus, steps, 3e-3, spec.seed);
        let _ = checkpoint::save(&loaded.store, &path);
        loaded.report = Some(report);
        loaded
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_specs_are_monotone_in_params() {
        let mut last = 0usize;
        for label in SIZE_LADDER {
            let spec = size_spec(label);
            let zoo = Zoo::new(std::env::temp_dir().join("zoo-param-test"));
            let loaded = zoo.build_random(&spec);
            let n = loaded.lm.num_params(&loaded.store);
            assert!(n > last, "{label} should be larger than previous ({n} <= {last})");
            last = n;
        }
    }

    #[test]
    fn all_profiles_construct() {
        for p in Profile::ALL {
            let spec = profile_spec(p);
            let zoo = Zoo::new(std::env::temp_dir().join("zoo-profile-test"));
            let loaded = zoo.build_random(&spec);
            assert!(loaded.lm.num_params(&loaded.store) > 0);
            assert_eq!(loaded.lm.cfg.vocab, loaded.tok.vocab_size());
        }
    }

    #[test]
    fn cache_roundtrip_restores_weights() {
        let dir = std::env::temp_dir().join(format!("zoo-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let zoo = Zoo::new(&dir);
        let mut spec = size_spec("0.35b-sim");
        spec.name = "cache-test".into();
        let a = zoo.load_or_pretrain(&spec, 5);
        assert!(a.report.is_some(), "first load must pre-train");
        let b = zoo.load_or_pretrain(&spec, 5);
        assert!(b.report.is_none(), "second load must hit cache");
        for id in a.store.ids() {
            assert_eq!(a.store.data(id), b.store.data(id), "weights must match after cache");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic]
    fn unknown_size_label_panics() {
        size_spec("70b-sim");
    }
}
