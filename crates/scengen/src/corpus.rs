//! The fuzzer's corpus: every coverage-novel scenario, with its signature.
//!
//! The corpus is the fuzzer's memory — one [`CorpusEntry`] per distinct
//! [`CoverageSignature`] ever observed, holding the first spec that
//! reached it. Mutation parents and splice donors are drawn from here, so
//! the search walks outward from behaviorally distinct points instead of
//! resampling the dense center of the seed distribution.
//!
//! Corpora persist as one version-tagged JSON file whose entries each
//! embed a `scenario.v1` document beside the signature it reached. A
//! corpus of any other version loads as a reported error, never a panic
//! and never a partial load, so CI falls back to a fresh one.

use crate::coverage::CoverageSignature;
use crate::grammar::ScenarioSpec;
use crate::scenario_file::envelope_version;
use std::collections::BTreeSet;

/// Format version of serialized corpora — the only one this build reads.
/// Bump when the envelope or [`CoverageSignature`] change shape.
pub const CORPUS_VERSION: u32 = 4;

/// One coverage-novel scenario: the first spec observed to produce its
/// signature.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusEntry {
    /// The spec that reached the signature.
    pub spec: ScenarioSpec,
    /// The behavioral signature it produced.
    pub signature: CoverageSignature,
}
serde::record!(struct CorpusEntry { spec, signature });

/// Serialized corpus envelope.
struct CorpusFile {
    version: u32,
    entries: Vec<CorpusEntry>,
}
serde::record!(struct CorpusFile { version, entries });

/// The set of coverage-novel scenarios found so far, insertion-ordered.
#[derive(Debug, Clone, Default)]
pub struct Corpus {
    entries: Vec<CorpusEntry>,
    seen: BTreeSet<CoverageSignature>,
}

impl Corpus {
    /// An empty corpus.
    pub fn new() -> Self {
        Corpus::default()
    }

    /// Number of entries (= distinct signatures).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the corpus holds nothing yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries, in the order their signatures were first reached.
    pub fn entries(&self) -> &[CorpusEntry] {
        &self.entries
    }

    /// One entry by index.
    pub fn entry(&self, i: usize) -> &CorpusEntry {
        &self.entries[i]
    }

    /// Whether a signature is already covered.
    pub fn covers(&self, signature: &CoverageSignature) -> bool {
        self.seen.contains(signature)
    }

    /// Admit `spec` if its signature is novel. Returns true when the entry
    /// was added (the scenario found new behavior).
    pub fn add(&mut self, spec: ScenarioSpec, signature: CoverageSignature) -> bool {
        if !self.seen.insert(signature.clone()) {
            return false;
        }
        self.entries.push(CorpusEntry { spec, signature });
        true
    }

    /// Serialize to the version-tagged JSON envelope.
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string(&CorpusFile {
            version: CORPUS_VERSION,
            entries: self.entries.clone(),
        })
    }

    /// Parse a corpus from its JSON envelope. A version mismatch or parse
    /// failure is an error message, not a panic — callers (the CLI, CI)
    /// report it and start from an empty corpus. The version is probed
    /// before the entries are parsed, so a corpus from another revision
    /// reports its version, not whatever field its entries fail on.
    pub fn from_json(json: &str) -> Result<Corpus, String> {
        let unreadable = |e: serde_json::Error| {
            format!("unreadable corpus (not a v{CORPUS_VERSION} envelope): {e}")
        };
        let value = serde_json::parse(json).map_err(unreadable)?;
        match envelope_version(&value) {
            Some(CORPUS_VERSION) | None => {}
            Some(found) => {
                return Err(format!(
                    "corpus version {found} incompatible with this build (reads v{CORPUS_VERSION})"
                ))
            }
        }
        let file: CorpusFile = serde::Deserialize::from_value(&value).map_err(unreadable)?;
        let mut corpus = Corpus::new();
        for entry in file.entries {
            corpus.add(entry.spec, entry.signature);
        }
        Ok(corpus)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::CoverageSignature;
    use crate::oracle::{run_campaign, CampaignDigest};

    fn entry_for(seed: u64) -> (ScenarioSpec, CoverageSignature) {
        let spec = ScenarioSpec::from_seed(seed);
        let digest = CampaignDigest::capture(&run_campaign(&spec));
        let sig = CoverageSignature::capture(&spec, &digest);
        (spec, sig)
    }

    #[test]
    fn add_deduplicates_on_signature() {
        let mut corpus = Corpus::new();
        let (spec, sig) = entry_for(1);
        assert!(corpus.add(spec.clone(), sig.clone()));
        assert!(!corpus.add(spec, sig.clone()), "same signature admitted twice");
        assert_eq!(corpus.len(), 1);
        assert!(corpus.covers(&sig));
    }

    #[test]
    fn corpus_roundtrips_through_json() {
        let mut corpus = Corpus::new();
        for seed in 1..=6 {
            let (spec, sig) = entry_for(seed);
            corpus.add(spec, sig);
        }
        let json = corpus.to_json().unwrap();
        let back = Corpus::from_json(&json).unwrap();
        assert_eq!(back.entries(), corpus.entries());
        // Every entry embeds the one scenario format.
        assert_eq!(json.matches("\"format\":\"scenario.v1\"").count(), corpus.len());
    }

    #[test]
    fn incompatible_corpus_is_an_error_not_a_panic() {
        assert!(Corpus::from_json("not json").is_err());
        assert!(Corpus::from_json("{\"entries\": []}").is_err());
        let future = "{\"version\": 99, \"entries\": []}";
        let err = Corpus::from_json(future).unwrap_err();
        assert!(err.contains("version 99"), "unhelpful error: {err}");
        // The version is probed before the entries parse: a future corpus
        // whose entry shape changed still reports the version, not a
        // field error.
        let future_shape = "{\"version\": 99, \"entries\": [{\"bogus\": 1}]}";
        let err = Corpus::from_json(future_shape).unwrap_err();
        assert!(err.contains("version 99"), "probe ran after parse: {err}");
        // So does the previous revision's envelope (derived-struct specs):
        // reported with its version, never migrated, never half-loaded.
        let older = "{\"version\": 3, \"entries\": [{\"spec\": {\"seed\": 1}}]}";
        let err = Corpus::from_json(older).unwrap_err();
        assert!(err.contains("version 3"), "older corpus not reported: {err}");
    }
}
