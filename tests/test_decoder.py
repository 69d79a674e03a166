import math
import random

import pytest

from decoder_oracle import decode_oracle
from smtkit.corpus import SentencePair
from smtkit.decoder import (
    ChartConfig,
    ChartModels,
    DecodeConfig,
    DecodeError,
    FeatureWeights,
    PhraseModels,
    TreeModels,
    decode_chart,
    decode_phrase,
    decode_tree,
    score_derivation,
)
from smtkit.decoder.weights import format_weights, parse_weights
from smtkit.deptree import parse_conllu
from smtkit.lm import train_lm
from smtkit.phrasetab import MSD, MSLR, PhraseEntry, ReorderingEntry, extract_reordering
from smtkit.ruletab import Fragment, NT, RuleEntry, TreeRule, Var, glue_rules


SRC = [f"s{i}" for i in range(8)]
TGT = [f"t{i}" for i in range(8)]


def random_lm(seed=7, order=2):
    rng = random.Random(seed)
    corpus = [[rng.choice(TGT) for _ in range(rng.randint(2, 6))] for _ in range(150)]
    return train_lm(corpus, order=order)


def random_phrase_table(seed=11):
    rng = random.Random(seed)
    entries = []
    for s in SRC:
        for t in rng.sample(TGT, 3):
            scores = tuple(rng.uniform(0.05, 1.0) for _ in range(4))
            entries.append(PhraseEntry((s,), (t,), scores, frozenset({(0, 0)}), (1, 1, 1)))
    for _ in range(12):
        s = tuple(rng.sample(SRC, 2))
        t = tuple(rng.sample(TGT, rng.randint(1, 2)))
        scores = tuple(rng.uniform(0.05, 1.0) for _ in range(4))
        entries.append(PhraseEntry(s, t, scores, frozenset({(0, 0)}), (1, 1, 1)))
    return entries


@pytest.fixture(scope="module")
def phrase_models():
    return PhraseModels(random_phrase_table(), random_lm())


@pytest.fixture(scope="module")
def reordering_models():
    rng = random.Random(3)
    pairs = []
    links = []
    for _ in range(30):
        n = rng.randint(1, 3)
        src = [rng.choice(SRC) for _ in range(n)]
        tgt = [rng.choice(TGT) for _ in range(n)]
        pairs.append(SentencePair(src, tgt))
        links.append({(i, i) for i in range(n)})
    reorder = extract_reordering(pairs, links, "msd")
    return PhraseModels(random_phrase_table(), random_lm(), reorder)


def random_reordering_models(orientations, seed=5):
    """Every orientation gets its own probability, so scoring one as another
    changes the score; a fifth of the entries have no statistics."""
    rng = random.Random(seed)
    table = random_phrase_table()
    reorder = [
        ReorderingEntry(
            e.src,
            e.tgt,
            {o: rng.uniform(0.01, 1.0) for o in orientations},
            {o: rng.uniform(0.01, 1.0) for o in orientations},
        )
        for e in table
        if rng.random() < 0.8
    ]
    return PhraseModels(table, random_lm(), reorder)


UNLIMITED = DecodeConfig(stack_size=None, distortion_limit=None, nbest=1)


class TestDecodePhrase:
    def test_single_option_score_by_hand(self):
        lm = random_lm()
        entry = PhraseEntry(("s0",), ("t0",), (0.5, 0.25, 0.5, 0.125), frozenset({(0, 0)}), (1, 1, 1))
        models = PhraseModels([entry], lm)
        weights = FeatureWeights()
        hyp = decode_phrase(["s0"], models, weights, UNLIMITED)[0]
        assert hyp.tokens == ("t0",)
        lm_total, _ = lm.score_sentence(["t0"])
        expected = (
            weights.phi_s_given_t * math.log10(0.5)
            + weights.lex_s_given_t * math.log10(0.25)
            + weights.phi_t_given_s * math.log10(0.5)
            + weights.lex_t_given_s * math.log10(0.125)
            + weights.phrase_penalty * -1
            + weights.word_penalty * -1
            + weights.lm * lm_total
        )
        assert hyp.score == pytest.approx(expected, abs=1e-9)

    def test_empty_sentence_rejected(self, phrase_models):
        with pytest.raises(DecodeError):
            decode_phrase([], phrase_models)

    def test_oov_copied_verbatim_with_penalty(self, phrase_models):
        hyp = decode_phrase(["zzz"], phrase_models, FeatureWeights(), UNLIMITED)[0]
        assert hyp.tokens == ("zzz",)
        assert hyp.features["oov"] == -1.0

    def test_gold_phrases_recover_gold_output(self):
        # seeded with exactly the gold phrase pairs of the weeping example
        src = ["why", "are", "you", "weeping", "?"]
        gold = ["तु", "काहे", "रोअत", "हउअ", "?"]
        lm = train_lm([gold] * 5, order=3)
        entries = [
            PhraseEntry(("why",), ("काहे",), (1, 1, 1, 1), frozenset({(0, 0)}), (1, 1, 1)),
            PhraseEntry(("are", "you"), ("तु",), (1, 1, 1, 1), frozenset({(0, 0)}), (1, 1, 1)),
            PhraseEntry(("weeping",), ("रोअत", "हउअ"), (1, 1, 1, 1), frozenset({(0, 0)}), (1, 1, 1)),
            PhraseEntry(("?",), ("?",), (1, 1, 1, 1), frozenset({(0, 0)}), (1, 1, 1)),
        ]
        models = PhraseModels(entries, lm)
        hyp = decode_phrase(src, models, FeatureWeights(), UNLIMITED)[0]
        assert hyp.tokens == tuple(gold)

    def test_unconstrained_beam_matches_oracle(self, phrase_models):
        rng = random.Random(23)
        for _ in range(40):
            sent = [rng.choice(SRC + ["oov-word"]) for _ in range(rng.randint(1, 4))]
            beam = decode_phrase(sent, phrase_models, FeatureWeights(), UNLIMITED)[0]
            oracle_tokens, oracle_score = decode_oracle(sent, phrase_models, FeatureWeights())
            assert beam.score == pytest.approx(oracle_score, abs=1e-9)

    def test_oracle_equivalence_with_reordering_model(self, reordering_models):
        rng = random.Random(29)
        for _ in range(15):
            sent = [rng.choice(SRC) for _ in range(rng.randint(1, 3))]
            beam = decode_phrase(sent, reordering_models, FeatureWeights(), UNLIMITED)[0]
            _, oracle_score = decode_oracle(sent, reordering_models, FeatureWeights())
            assert beam.score == pytest.approx(oracle_score, abs=1e-9)

    def test_oracle_equivalence_with_mslr_reordering_model(self):
        models = random_reordering_models(MSLR)
        # a heavy reordering weight makes discontinuous orders win often
        weights = FeatureWeights(reordering=3.0, distortion=0.05)
        rng = random.Random(37)
        for _ in range(25):
            sent = [rng.choice(SRC + ["oov-word"]) for _ in range(rng.randint(1, 4))]
            beam = decode_phrase(sent, models, weights, UNLIMITED)[0]
            _, oracle_score = decode_oracle(sent, models, weights)
            assert beam.score == pytest.approx(oracle_score, abs=1e-9)

    @pytest.mark.parametrize("orientations", [MSD, MSLR], ids=["msd", "mslr"])
    def test_limited_beam_nbest_rederives_with_reordering(self, orientations):
        # the search's incremental score of every returned hypothesis must
        # equal its feature vector recomputed from the derivation alone
        models = random_reordering_models(orientations)
        weights = FeatureWeights(reordering=0.7, distortion=0.2)
        config = DecodeConfig(stack_size=3, distortion_limit=None, nbest=5)
        rng = random.Random(41)
        returned = 0
        for _ in range(20):
            sent = [rng.choice(SRC + ["oov-word"]) for _ in range(rng.randint(2, 6))]
            for hyp in decode_phrase(sent, models, weights, config):
                again = score_derivation(hyp.steps, models, weights, len(sent))
                assert again == pytest.approx(hyp.score, abs=1e-9)
                assert weights.dot(hyp.features) == pytest.approx(hyp.score, abs=1e-9)
                returned += 1
        assert returned > 40

    def test_score_rederives_from_derivation(self, phrase_models):
        rng = random.Random(31)
        weights = FeatureWeights()
        for _ in range(20):
            sent = [rng.choice(SRC) for _ in range(rng.randint(1, 5))]
            for hyp in decode_phrase(sent, phrase_models, weights, DecodeConfig(nbest=4)):
                again = score_derivation(hyp.steps, phrase_models, weights, len(sent))
                assert again == pytest.approx(hyp.score, abs=1e-9)
                assert weights.dot(hyp.features) == pytest.approx(hyp.score, abs=1e-9)

    def test_nbest_sorted_and_deduplicated(self, phrase_models):
        hyps = decode_phrase(["s0", "s1", "s2"], phrase_models, FeatureWeights(), DecodeConfig(nbest=10))
        scores = [h.score for h in hyps]
        assert scores == sorted(scores, reverse=True)
        assert len({h.tokens for h in hyps}) == len(hyps)

    def test_monotone_restriction(self, phrase_models):
        config = DecodeConfig(stack_size=None, distortion_limit=0, nbest=1)
        hyp = decode_phrase(["s0", "s1", "s2", "s3"], phrase_models, FeatureWeights(), config)[0]
        starts = [s.start for s in hyp.steps]
        assert starts == sorted(starts)

    def test_distortion_limit_respected(self, phrase_models):
        config = DecodeConfig(stack_size=None, distortion_limit=2, nbest=1)
        hyp = decode_phrase(["s0", "s1", "s2", "s3", "s4"], phrase_models, FeatureWeights(), config)[0]
        last_end = 0
        for step in hyp.steps:
            assert abs(step.start - last_end) <= 2
            last_end = step.end

    def test_swap_wins_when_lm_dominates(self):
        # two words; LM strongly prefers the reversed target order
        lm = train_lm([["B", "A"]] * 5, order=2)
        entries = [
            PhraseEntry(("x",), ("A",), (1, 1, 1, 1), frozenset({(0, 0)}), (1, 1, 1)),
            PhraseEntry(("y",), ("B",), (1, 1, 1, 1), frozenset({(0, 0)}), (1, 1, 1)),
        ]
        models = PhraseModels(entries, lm)
        weights = FeatureWeights(lm=5.0, distortion=0.1)
        tokens, _ = decode_oracle(["x", "y"], models, weights)
        assert tokens == ("B", "A")
        beam = decode_phrase(["x", "y"], models, weights, UNLIMITED)[0]
        assert beam.tokens == ("B", "A")

    def test_oracle_tie_break_bytewise(self):
        lm = train_lm([["A"], ["B"]], order=2)  # symmetric LM
        entries = [
            PhraseEntry(("x",), ("B",), (1, 1, 1, 1), frozenset({(0, 0)}), (1, 1, 1)),
            PhraseEntry(("x",), ("A",), (1, 1, 1, 1), frozenset({(0, 0)}), (1, 1, 1)),
        ]
        models = PhraseModels(entries, lm)
        tokens, _ = decode_oracle(["x"], models, FeatureWeights())
        assert tokens == ("A",)

    def test_oracle_length_cap(self, phrase_models):
        with pytest.raises(DecodeError):
            decode_oracle(["s0"] * 5, phrase_models, max_len=4)

    def test_deterministic_across_runs(self, phrase_models):
        sent = ["s3", "s1", "s4", "s1"]
        first = decode_phrase(sent, phrase_models, FeatureWeights(), DecodeConfig(nbest=5))
        for _ in range(3):
            again = decode_phrase(sent, phrase_models, FeatureWeights(), DecodeConfig(nbest=5))
            assert [h.tokens for h in again] == [h.tokens for h in first]
            assert [h.score for h in again] == [h.score for h in first]


def reorder_rule_fixture():
    lm = train_lm([["जात", "हऽ", "ऊ"], ["ऊ", "जात", "हऽ"]], order=2)
    rules = [
        RuleEntry(
            "X",
            ("is", NT(1), "going"),
            ("जात", "हऽ", NT(1)),
            (1, 1, 1, 1),
            frozenset({(0, 0), (1, 2), (2, 1)}),
            (1, 1, 1),
        ),
        RuleEntry("X", ("he",), ("ऊ",), (1, 1, 1, 1), frozenset({(0, 0)}), (1, 1, 1)),
    ] + glue_rules()
    return ChartModels(rules, lm)


class TestDecodeChart:
    def test_single_word_lexical_rule(self):
        models = reorder_rule_fixture()
        assert decode_chart(["he"], models)[0].tokens == ("ऊ",)

    def test_long_distance_reordering_through_gap_rule(self):
        models = reorder_rule_fixture()
        hyp = decode_chart(["is", "he", "going"], models)[0]
        assert hyp.tokens == ("जात", "हऽ", "ऊ")

    def test_glue_grammar_required(self):
        lm = random_lm()
        with pytest.raises(DecodeError, match="glue"):
            ChartModels([RuleEntry("X", ("a",), ("b",))], lm)

    def test_score_rederives_from_features(self):
        models = reorder_rule_fixture()
        weights = FeatureWeights()
        hyp = decode_chart(["is", "he", "going"], models, weights)[0]
        assert weights.dot(hyp.features) == pytest.approx(hyp.score, abs=1e-9)
        lm_total, _ = models.lm.score_sentence(list(hyp.tokens))
        assert hyp.features["lm"] == pytest.approx(lm_total, abs=1e-12)

    def test_monotone_grammar_matches_restricted_oracle(self):
        # lexical-only grammar: chart must equal the monotone-restricted oracle
        rng = random.Random(37)
        lm = random_lm()
        entries = []
        rules = list(glue_rules())
        for s in SRC[:4]:
            for t in rng.sample(TGT, 2):
                scores = tuple(rng.uniform(0.1, 1.0) for _ in range(4))
                entries.append(PhraseEntry((s,), (t,), scores, frozenset({(0, 0)}), (1, 1, 1)))
                rules.append(
                    RuleEntry("X", (s,), (t,), scores, frozenset({(0, 0)}), (1, 1, 1))
                )
        chart_models = ChartModels(rules, lm)
        phrase_models = PhraseModels(entries, lm)
        weights = FeatureWeights(glue=0.0, distortion=0.0)
        monotone = DecodeConfig(stack_size=None, distortion_limit=0, nbest=1)
        for _ in range(10):
            sent = [rng.choice(SRC[:4]) for _ in range(3)]
            chart_hyp = decode_chart(sent, chart_models, weights)[0]
            mono_hyp = decode_phrase(sent, phrase_models, weights, monotone)[0]
            assert chart_hyp.tokens == mono_hyp.tokens
            # identical feature accounting modulo the phrase/rule structure
            assert chart_hyp.score == pytest.approx(mono_hyp.score, abs=1e-9)

    def test_oov_falls_back_to_passthrough(self):
        models = reorder_rule_fixture()
        hyp = decode_chart(["he", "mystery"], models)[0]
        assert "mystery" in hyp.tokens
        assert hyp.features["oov"] == -1.0

    def test_nbest_sorted(self):
        models = reorder_rule_fixture()
        hyps = decode_chart(["is", "he", "going"], models, config=ChartConfig(nbest=5))
        scores = [h.score for h in hyps]
        assert scores == sorted(scores, reverse=True)


def tree_fixture():
    conllu = (
        "1\ta\t_\t_\tA\t_\t3\tleft\t_\t_\n"
        "2\tb\t_\t_\tB\t_\t3\tright\t_\t_\n"
        "3\tv\t_\t_\tV\t_\t0\troot\t_\t_\n"
    )
    return parse_conllu(conllu)[0]


class TestDecodeTree:
    def test_one_node_one_rule(self):
        sent = parse_conllu("1\tw\t_\t_\tX\t_\t0\troot\t_\t_\n")[0]
        rules = [TreeRule(Fragment("root", ("w",)), ("OUT",))]
        models = TreeModels(rules, random_lm())
        assert decode_tree(sent, models)[0].tokens == ("OUT",)

    def test_root_rule_swaps_children(self):
        rules = [
            TreeRule(Fragment("root", (Var(1, "left"), Var(2, "right"), "v")), (Var(2, ""), Var(1, ""), "V!")),
            TreeRule(Fragment("left", ("a",)), ("A!",)),
            TreeRule(Fragment("right", ("b",)), ("B!",)),
        ]
        models = TreeModels(rules, random_lm())
        assert decode_tree(tree_fixture(), models)[0].tokens == ("B!", "A!", "V!")

    def test_full_tree_rule_vs_composed_same_string(self):
        whole = TreeRule(
            Fragment("root", (Fragment("left", ("a",)), Fragment("right", ("b",)), "v")),
            ("A!", "B!", "V!"),
        )
        composed = [
            TreeRule(Fragment("root", (Var(1, "left"), Var(2, "right"), "v")), (Var(1, ""), Var(2, ""), "V!")),
            TreeRule(Fragment("left", ("a",)), ("A!",)),
            TreeRule(Fragment("right", ("b",)), ("B!",)),
        ]
        lm = random_lm()
        out_whole = decode_tree(tree_fixture(), TreeModels([whole], lm))[0]
        out_composed = decode_tree(tree_fixture(), TreeModels(composed, lm))[0]
        assert out_whole.tokens == out_composed.tokens

    def test_unmatched_node_passthrough_with_penalty(self):
        models = TreeModels([], random_lm())
        hyp = decode_tree(tree_fixture(), models)[0]
        assert hyp.tokens == ("a", "b", "v")
        assert hyp.features["oov"] < 0

    def test_non_projective_input_rejected(self):
        conllu = (
            "1\ta\t_\t_\tA\t_\t3\td\t_\t_\n"
            "2\tb\t_\t_\tB\t_\t4\td\t_\t_\n"
            "3\tc\t_\t_\tC\t_\t0\troot\t_\t_\n"
            "4\td\t_\t_\tD\t_\t3\td\t_\t_\n"
        )
        sent = parse_conllu(conllu)[0]
        with pytest.raises(DecodeError, match="non-projective"):
            decode_tree(sent, TreeModels([], random_lm()))

    def test_score_rederives(self):
        rules = [
            TreeRule(Fragment("root", (Var(1, "left"), Var(2, "right"), "v")), (Var(2, ""), Var(1, ""), "V!")),
            TreeRule(Fragment("left", ("a",)), ("A!",)),
            TreeRule(Fragment("right", ("b",)), ("B!",)),
        ]
        weights = FeatureWeights()
        models = TreeModels(rules, random_lm())
        hyp = decode_tree(tree_fixture(), models, weights)[0]
        assert weights.dot(hyp.features) == pytest.approx(hyp.score, abs=1e-9)


class TestWeightsFile:
    def test_round_trip(self):
        weights = FeatureWeights(lm=0.4, distortion=-0.2)
        text = format_weights(weights, ["iteration 0: dev_bleu=0.5"])
        again = parse_weights(text)
        assert again == weights
        assert text.startswith("#")

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            parse_weights("not_a_feature\t1.0\n")

    def test_l1_normalization_preserves_ratios(self):
        weights = FeatureWeights(lm=2.0, phi_t_given_s=4.0)
        normalized = weights.l1_normalized()
        assert normalized.phi_t_given_s / normalized.lm == pytest.approx(2.0)
        total = sum(abs(v) for v in normalized.as_dict().values())
        assert total == pytest.approx(1.0)
