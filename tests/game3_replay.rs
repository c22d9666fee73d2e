//! Game 3's challenge pipeline — the evader, then the classifier's `-O3`
//! normalizer — is one cached transform. Replaying a warm Game 3 point,
//! or playing it for another model on the same split, must therefore
//! recompute nothing: no transform-cache miss means no `optimize` run.
//!
//! This file is a test binary of its own, so no other test can add
//! misses to the global cache while the counters are compared.

use yali_core::{
    play, ClassifierSpec, Corpus, Game, GameConfig, SourceStrategy, TransformCache, Transformer,
};
use yali_ml::ModelKind;

#[test]
fn replaying_a_warm_game3_point_adds_no_transform_cache_misses() {
    let corpus = Corpus::poj(4, 10, 5);
    for evader in [
        Transformer::Ir(yali_obf::IrObf::Ollvm),
        Transformer::Source(SourceStrategy::Drlsg),
        Transformer::Opt(yali_opt::OptLevel::O3),
    ] {
        let config = |model| {
            GameConfig::game0(ClassifierSpec::histogram(model), 9).with_game(Game::Game3, evader)
        };
        let cold = play(&corpus, &config(ModelKind::Rf));
        let before = TransformCache::global().stats();
        let warm = play(&corpus, &config(ModelKind::Rf));
        // A second model of a sweep meets the same challenges.
        play(&corpus, &config(ModelKind::Knn));
        let after = TransformCache::global().stats();
        assert_eq!(format!("{cold:?}"), format!("{warm:?}"), "{evader}");
        assert_eq!(
            after.misses, before.misses,
            "{evader}: a warm replay recomputed"
        );
        assert!(
            after.hits > before.hits,
            "{evader}: the replay bypassed the cache"
        );
    }
}
