import random

import numpy as np
import pytest

from smtkit.decoder.weights import FeatureWeights
from smtkit.evaluate import EvalError
from smtkit.tune import (
    MertConfig,
    NBestPool,
    SentenceError,
    line_search,
    mert,
    optimize_pool,
    pool_bleu,
    weighted_terms,
)


def zero_weights(**overrides):
    base = {name: 0.0 for name in FeatureWeights.names()}
    base.update(overrides)
    return FeatureWeights(**base)


def ratio_pool(n_sentences=4):
    """A wins BLEU; on the positive quadrant A is selected iff l1 > 2*l2.

    Feature 1 is phi_t_given_s, feature 2 is lm. The mirrored decoy makes
    negative lm weights lose too, so the optimum keeps lm non-negative.
    """
    refs = []
    pool = NBestPool()
    for i in range(n_sentences):
        ref = [f"g{i}", "x", "y", "z"]
        refs.append(ref)
        pool.add(i, tuple(ref), {"phi_t_given_s": 1.0})
        pool.add(i, (f"b{i}", "q", "r", "s"), {"lm": 2.0})
        pool.add(i, (f"c{i}", "n", "o", "p"), {"lm": -2.0})
    return pool, refs


class TestPoolBleu:
    def test_single_hypothesis(self):
        pool = NBestPool()
        ref = ["a", "b", "c", "d"]
        pool.add(0, tuple(ref), {"lm": 1.0})
        assert pool_bleu(pool, FeatureWeights(), [ref]) == 1.0

    def test_all_gold_pool_is_one(self):
        pool = NBestPool()
        refs = []
        for i in range(3):
            ref = [f"w{i}", "a", "b", "c", "d"]
            refs.append(ref)
            pool.add(i, tuple(ref), {"lm": -1.0})
        assert pool_bleu(pool, FeatureWeights(), refs) == 1.0

    def test_two_sentence_hand_computation(self):
        # selections are forced; corpus BLEU recomputed by hand:
        # hyp1 = ref1 (4 tokens), hyp2 shares 3 of 4 tokens, one 4-gram each
        pool = NBestPool()
        ref1 = ["a", "b", "c", "d"]
        ref2 = ["e", "f", "g", "h"]
        pool.add(0, tuple(ref1), {"lm": 1.0})
        pool.add(1, ("e", "f", "g", "x"), {"lm": 1.0})
        p1 = 7 / 8
        p2 = 5 / 6
        p3 = 3 / 4
        p4 = 1 / 2
        expected = (p1 * p2 * p3 * p4) ** 0.25
        got = pool_bleu(pool, FeatureWeights(), [ref1, ref2])
        assert got == pytest.approx(expected, abs=1e-12)

    def test_scale_invariance_of_selection(self):
        pool, refs = ratio_pool()
        weights = zero_weights(phi_t_given_s=3.0, lm=1.0)
        doubled = zero_weights(phi_t_given_s=6.0, lm=2.0)
        assert pool_bleu(pool, weights, refs) == pool_bleu(pool, doubled, refs)

    def test_reference_count_mismatch(self):
        pool = NBestPool()
        pool.add(0, ("a",), {})
        with pytest.raises(EvalError):
            pool_bleu(pool, FeatureWeights(), [])

    def test_tie_breaks_bytewise(self):
        pool = NBestPool()
        ref = ["a", "b", "c", "d"]
        pool.add(0, ("z", "z", "z", "z"), {"lm": 1.0})
        pool.add(0, ("a", "b", "c", "d"), {"lm": 1.0})
        # equal scores: the bytewise smaller hypothesis must win
        assert pool_bleu(pool, FeatureWeights(), [ref]) == 1.0


class TestLineSearch:
    def test_agrees_with_grid_scan(self):
        rng = random.Random(5)
        pool = NBestPool()
        refs = []
        vocab = [f"w{j}" for j in range(10)]
        for i in range(6):
            ref = rng.sample(vocab, 5)
            refs.append(ref)
            pool.add(i, tuple(ref), {"lm": rng.uniform(-3, 0), "phi_t_given_s": rng.uniform(-3, 0)})
            for _ in range(5):
                pool.add(
                    i,
                    tuple(rng.sample(vocab, 5)),
                    {"lm": rng.uniform(-3, 0), "phi_t_given_s": rng.uniform(-3, 0)},
                )
        weights = FeatureWeights()
        value, predicted = line_search(weighted_terms(pool, weights), refs, weights, "lm", {})
        grid_best = max(
            pool_bleu(pool, weights.replaced("lm", x), refs)
            for x in np.linspace(-20.0, 20.0, 10001)
        )
        assert predicted == pytest.approx(grid_best, abs=1e-9)
        assert pool_bleu(pool, weights.replaced("lm", value), refs) == pytest.approx(
            predicted, abs=1e-12
        )

    def test_unused_feature_is_flat(self):
        pool, refs = ratio_pool()
        weights = zero_weights(phi_t_given_s=1.0, lm=1.0)
        value, predicted = line_search(weighted_terms(pool, weights), refs, weights, "glue", {})
        assert value == weights.glue
        assert predicted == pytest.approx(pool_bleu(pool, weights, refs))


class TestOptimizePool:
    def test_already_optimal_pool_unchanged(self):
        pool, refs = ratio_pool()
        weights = zero_weights(phi_t_given_s=5.0, lm=1.0)  # A already selected
        tuned, best, accepted = optimize_pool(pool, refs, weights, random_restarts=0)
        assert tuned == weights
        assert best == 1.0
        assert accepted == []

    def test_winning_ratio_reached(self):
        pool, refs = ratio_pool()
        start = zero_weights(phi_t_given_s=1.0, lm=1.0)  # starts on the losing side
        assert pool_bleu(pool, start, refs) == 0.0
        tuned, best, accepted = optimize_pool(pool, refs, start, random_restarts=3, seed=1)
        assert best == 1.0
        l1, l2 = tuned.phi_t_given_s, tuned.lm
        assert l2 >= 0.0
        assert l1 > 2.0 * l2
        assert accepted == sorted(accepted)

    def test_accepted_updates_never_decrease(self):
        rng = random.Random(9)
        pool = NBestPool()
        refs = []
        vocab = [f"w{j}" for j in range(8)]
        for i in range(5):
            ref = rng.sample(vocab, 5)
            refs.append(ref)
            for _ in range(6):
                pool.add(
                    i,
                    tuple(rng.sample(vocab, 5)),
                    {
                        "lm": rng.uniform(-3, 0),
                        "phi_t_given_s": rng.uniform(-3, 0),
                        "word_penalty": -5.0,
                    },
                )
            pool.add(i, tuple(ref), {"lm": rng.uniform(-3, 0), "phi_t_given_s": rng.uniform(-3, 0), "word_penalty": -5.0})
        _, _, accepted = optimize_pool(pool, refs, FeatureWeights(), random_restarts=2, seed=4)
        assert all(a <= b + 1e-12 for a, b in zip(accepted, accepted[1:]))


class FixtureDecoder:
    """Chooses from a fixed hypothesis set by current weights, like a batch decoder."""

    def __init__(self, options):
        self.options = options  # per sentence: list of (tokens, features)
        self.calls = 0

    def __call__(self, sources, weights, nbest):
        self.calls += 1
        assert len(sources) == len(self.options)
        nbests = []
        for options in self.options:
            ranked = sorted(options, key=lambda o: (-weights.dot(o[1]), o[0]))
            nbests.append([(tokens, weights.dot(feats), feats) for tokens, feats in ranked[:nbest]])
        return nbests


class TestMert:
    def test_end_to_end_on_fixture_decoder(self):
        refs = []
        options = []
        for i in range(4):
            ref = [f"g{i}", "x", "y", "z"]
            refs.append(ref)
            options.append(
                [
                    (tuple(ref), {"phi_t_given_s": 1.0}),
                    ((f"b{i}", "q", "r", "s"), {"lm": 2.0}),
                    ((f"c{i}", "n", "o", "p"), {"lm": -2.0}),
                ]
            )
        decoder = FixtureDecoder(options)
        start = zero_weights(phi_t_given_s=1.0, lm=1.0)
        result = mert(
            ["src"] * 4, refs, decoder, start, MertConfig(nbest=3, max_iterations=4, random_restarts=2)
        )
        assert result.pool_bleu == 1.0
        l1, l2 = result.weights.phi_t_given_s, result.weights.lm
        assert l2 >= 0.0 and l1 > 2.0 * l2
        # weights come back L1-normalized
        assert sum(abs(v) for v in result.weights.as_dict().values()) == pytest.approx(1.0)
        assert len(result.iteration_bleu) >= 1
        assert result.history

    def test_decoder_failure_names_sentence(self):
        def broken(sources, weights, nbest):
            raise SentenceError(1, "boom")

        refs = [["r", "e", "f", "s"]] * 2
        # an input error (exit 2 from the CLI), not an internal one
        with pytest.raises(EvalError, match="^decoder failed on dev sentence 1: boom$"):
            mert(["s", "t"], refs, broken, FeatureWeights(), MertConfig(max_iterations=1))

    def test_empty_dev_set_rejected(self):
        with pytest.raises(EvalError):
            mert([], [], lambda *a: [], FeatureWeights(), MertConfig())
