import hashlib
import math
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decoder_oracle import decode_oracle
from oracles import scfg_derivations_reference, scfg_gap_spans, tree_derivations_reference
from smtkit import cli
from smtkit.corpus import SentencePair, clean, read_parallel, read_sentences
from smtkit.decoder import (
    ChartConfig,
    ChartModels,
    DecodeConfig,
    DecodeError,
    FeatureWeights,
    PhraseModels,
    TreeConfig,
    TreeModels,
    decode_chart,
    decode_phrase,
    decode_tree,
    score_derivation,
)
from smtkit.decoder import phrase as phrase_module
from smtkit.decoder.chart import ItemFactory
from smtkit.decoder.phrase import _COVERAGE, _LAST_END, _OPTION, _TOKENS, _TOTAL
from smtkit.decoder.weights import format_weights, parse_weights
from smtkit.deptree import TreeShape, parse_conllu
from smtkit import lm as lm_module
from smtkit.lm import LmStates, NGramModel, read_arpa, train_lm
from smtkit.phrasetab import (
    MSD,
    MSLR,
    PhraseEntry,
    ReorderingEntry,
    build_phrase_table,
    extract_reordering,
)
from smtkit.ruletab import (
    Fragment, NT, RuleEntry, TreeRule, Var, build_rule_table, build_tree_rule_table, glue_rules,
)
from smtkit.synthdata import write_fixture_tree
from test_ruletab import as_pair, dep_sentence, neutral


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


# Digests of every decode_phrase result over configurations whose scores sum
# exactly in binary floating point: every phrase score is a power of ten (an
# integer log10), every weight is dyadic, and the LM, distortion and
# reordering terms are added with `+=`. The digests therefore do not depend on
# how a Python version rounds `sum()`, and pin the search's results byte for
# byte, ties at the beam cut, recombination and n-best order included.
EXACT_WEIGHTS = FeatureWeights(
    lm=0.5,
    phi_s_given_t=0.25,
    lex_s_given_t=0.25,
    phi_t_given_s=0.25,
    lex_t_given_s=0.25,
    phrase_penalty=0.25,
    word_penalty=0.125,
    distortion=0.375,
    reordering=0.5,
    oov=8.0,
)
SEARCH_CONFIGS = [
    DecodeConfig(stack_size=stack, nbest=nbest)
    for stack in (1, 2, 100, None)
    for nbest in (1, 5)
]


def _entry(src, tgt, scores):
    return PhraseEntry(tuple(src), tuple(tgt), scores, frozenset({(0, 0)}), (1, 1, 1))


def tie_models(orientations=None):
    """Every phrase scores the same and the LM is symmetric in its words, so
    many hypotheses tie exactly, also at the beam cut."""
    words = TGT[:4]
    lm = train_lm([[a, b] for a in words for b in words], order=2)
    flat = (0.1, 0.1, 0.1, 0.1)
    entries = [_entry((s,), (t,), flat) for s in SRC[:4] for t in words[:3]]
    # a two-word phrase scores what its two one-word halves score together
    # (four times log10 0.1 and one phrase penalty each), so that derivations
    # that split differently tie on the whole search key
    halves = (0.01, 0.01, 0.01, 0.001)
    entries += [
        _entry((SRC[0], SRC[1]), (words[3],), flat),
        _entry((SRC[2], SRC[3]), (words[0], words[1]), halves),
    ]
    reorder = None
    if orientations:
        even = {o: 1.0 for o in orientations}
        reorder = [ReorderingEntry(e.src, e.tgt, dict(even), dict(even)) for e in entries]
    return PhraseModels(entries, lm, reorder)


def exact_models(orientations=None, seed=13, duplicates=False):
    """Random table with power-of-ten scores, optionally with duplicated
    (src, tgt) lines, and reordering statistics on most entries."""
    rng = random.Random(seed)
    powers = (1.0, 0.1, 0.01, 0.001)
    entries = []
    for s in SRC[:5]:
        for t in rng.sample(TGT[:5], 2):
            entries.append(_entry((s,), (t,), tuple(rng.choice(powers) for _ in range(4))))
    for _ in range(6):
        src = rng.sample(SRC[:5], 2)
        tgt = rng.sample(TGT[:5], rng.randint(1, 2))
        entries.append(_entry(src, tgt, tuple(rng.choice(powers) for _ in range(4))))
    if duplicates:
        # a second line for an existing (src, tgt): a copy, whose derivations
        # tie with the original's, or one with other scores
        for e in rng.sample(entries, 8):
            scores = e.scores if rng.random() < 0.5 else tuple(rng.choice(powers) for _ in range(4))
            entries.append(_entry(e.src, e.tgt, scores))
    reorder = None
    if orientations:
        reorder = [
            ReorderingEntry(
                e.src,
                e.tgt,
                {o: rng.choice((0.5, 0.25, 0.125)) for o in orientations},
                {o: rng.choice((0.5, 0.25, 0.125)) for o in orientations},
            )
            for e in entries
            if rng.random() < 0.8
        ]
    lm_rng = random.Random(seed + 1)
    corpus = [[lm_rng.choice(TGT[:5]) for _ in range(lm_rng.randint(2, 5))] for _ in range(60)]
    return PhraseModels(entries, train_lm(corpus, order=3), reorder)


def search_digest(models, sentences, configs=SEARCH_CONFIGS, weights=EXACT_WEIGHTS):
    digest = hashlib.sha256()
    for sent in sentences:
        for config in configs:
            for hyp in decode_phrase(sent, models, weights, config):
                record = (
                    hyp.tokens,
                    repr(hyp.score),
                    sorted(hyp.features.items()),
                    [(step.start, step.end) for step in hyp.steps],
                )
                digest.update(repr(record).encode())
            digest.update(b"|")
    return digest.hexdigest()


SEARCH_SENTENCES = [
    ["s0", "s1", "s2", "s3"],
    ["s2", "s3", "s0", "s1", "s2"],
    ["s3", "oov-word", "s1", "s0"],
    ["s4", "s0", "s1", "s4", "s2", "s3"],
    ["s1"],
]

SEARCH_CASES = {
    "ties": (tie_models, ()),
    "ties-msd": (tie_models, (MSD,)),
    "exact": (exact_models, ()),
    "exact-msd": (exact_models, (MSD,)),
    "exact-mslr": (exact_models, (MSLR, 17)),
    "duplicates-msd": (exact_models, (MSD, 19, True)),
    "duplicates-mslr": (exact_models, (MSLR, 23, True)),
}
# recorded from the decoder before its search loop interned LM states
SEARCH_DIGESTS = {
    "ties": "6065d5d406062f5deae93e6f7f228343f755a907a598f15a345364b2a4645623",
    "ties-msd": "20f47298ff8f7767e1b2d9d90adb72204458e1f9c7138353ef85f46110e93423",
    "exact": "425e1ec291561be2ff30fdedba07f59fc175dc2180deb7d29a5553d10c415431",
    "exact-msd": "bf0285756a4f0965cfd8e965d1dcdf227db4dbae3a6699b3f83cde7c5a66693f",
    "exact-mslr": "fffc8af7ba7ba3e3204d51a3417286a6a38b86b28a0c76cbcb7daa6a5e231ce8",
    "duplicates-msd": "65934ac446144b2b52aa310eb75d95478ec4220a6de8f59a593611e971ba1f76",
    "duplicates-mslr": "54b2cc8441e8a040d64b6cb60a5efd3163e56cef1e534feaaac8d0f8db57452c",
}


# Longer sentences and small beams, so that most stacks hold more keys than
# the beam keeps: the cases where a stack's floor prunes candidates.
FLOOR_SENTENCES = [
    ["s0", "s1", "s2", "s3", "s0", "s1", "s2"],
    ["s2", "s3", "s0", "s1", "oov-word", "s2", "s3", "s0"],
    ["s4", "s0", "s1", "s4", "s2", "s3", "s1", "s0", "s2"],
]
FLOOR_CONFIGS = [
    DecodeConfig(stack_size=stack, nbest=nbest) for stack in (3, 5, 10) for nbest in (1, 5)
]
# recorded from the decoder before stacks had a floor
FLOOR_DIGESTS = {
    "ties": "db66d457ac5c1490ea0a4624ad586a8b304f19b109b5853de847db04daa63783",
    "ties-msd": "4939b9e03e0bb2eef79afd3e5678f78ea7592bef630fab27b4821015551a6fd8",
    "exact": "53cf7aa7404ac4c77a4de5a57ecbdd1f62cf48499f4c9bebe07d63e0c28dcdbc",
    "exact-msd": "e2de9892ba94e8ea75dc654f3ab29ca2b8ce191a254214890b72c9f5d360f0ec",
    "exact-mslr": "dc322de39e0e82c5c66e4ea9e093373756c863908977702b3deb1d2fd50ac5f3",
    "duplicates-msd": "0639ed5fc8800c7b25af13afd92ed509a616d266a90b9908abcbf94fb1766d52",
    "duplicates-mslr": "8f164213bd48e42e4a97b6d8be9a424702f79e5a0cad4960043c8565d0a52d38",
}
# per case, over FLOOR_SENTENCES x FLOOR_CONFIGS, recorded from the decoder
# before stacks had a floor: the summed size of every stack `_survivors` cut,
# and the digest of what it kept
FLOOR_STACKS = {
    "ties": (5979, "09c3444fab211bcf8065503dc7565852fcf9d049f4e5bb930614c5f5b03d352a"),
    "ties-msd": (5951, "afbf6576ef3edbb4bfb130729b5ad1ad8a747995e18a329ef65e9d6df8337a95"),
    "exact": (6649, "726f11b098f0e8a5474878e8c576f0293f2b02dcd589004d6784d9ffb768a493"),
    "exact-msd": (6917, "807f170fa0003bda16346a7b4a10437c59cb0d2a5af7d169e2b52af6eedfed32"),
    "exact-mslr": (7532, "a569c3eccaafc1b93140e2977dbf64ccc8f3d8999d75f46168e69d9f01731323"),
    "duplicates-msd": (7431, "fa3e479dcd1328a7a7b4fdfc30b26890ce1e839871f100bfa51357684c8ea2e7"),
    "duplicates-mslr": (7061, "ea9f4beecaeaea717c57385d0ab011cd80eee12e5473b95af63398aca6fb8f35"),
}


class TestPhraseSearchBytes:
    @pytest.mark.parametrize("case", sorted(SEARCH_CASES))
    def test_results_match_recorded_digest(self, case):
        make, args = SEARCH_CASES[case]
        assert search_digest(make(*args), SEARCH_SENTENCES) == SEARCH_DIGESTS[case]

    @pytest.mark.parametrize("case", sorted(SEARCH_CASES))
    def test_overflowing_stacks_match_recorded_digest(self, case):
        make, args = SEARCH_CASES[case]
        digest = search_digest(make(*args), FLOOR_SENTENCES, FLOOR_CONFIGS)
        assert digest == FLOOR_DIGESTS[case]

    @pytest.mark.parametrize("case", sorted(SEARCH_CASES))
    def test_floor_prunes_only_what_the_beam_drops(self, case, monkeypatch):
        # the stacks hold fewer entries than before the floor, and every
        # beam keeps the same hypotheses
        make, args = SEARCH_CASES[case]
        models = make(*args)
        survivors = phrase_module._survivors
        sizes = []
        kept_digest = hashlib.sha256()

        def recording(stack, beam_width, steps):
            kept = survivors(stack, beam_width, steps)
            sizes.append(len(stack))
            record = [
                (repr(hyp[_TOTAL]), hyp[_TOKENS], hyp[_COVERAGE], hyp[_LAST_END], hyp[_OPTION])
                for hyp in kept
            ]
            kept_digest.update(repr(record).encode())
            return kept

        monkeypatch.setattr(phrase_module, "_survivors", recording)
        for sent in FLOOR_SENTENCES:
            for config in FLOOR_CONFIGS:
                decode_phrase(sent, models, EXACT_WEIGHTS, config)
        entries_before, kept_before = FLOOR_STACKS[case]
        assert kept_digest.hexdigest() == kept_before
        assert sum(sizes) < entries_before

    def test_exact_tie_in_one_span_keeps_the_lower_option_index(self, monkeypatch):
        # "a c" and "b c" translate x and both end in LM state (c): after
        # <s> they score exactly alike, so they tie on one recombination
        # key. Out of context "b c" estimates higher (b's unigram is -0.5,
        # a's -1.0), so a search that visits options best first meets it
        # first; table order (by target) still makes "a c" option 0, and
        # the tie goes to it. Expected results recorded from the decoder
        # that visited options in table order.
        lm = read_arpa("\n".join([
            "\\data\\", "ngram 1=7", "ngram 2=4", "", "\\1-grams:",
            "-99\t<s>\t-0.5", "-1.0\ta\t-0.5", "-0.5\tb\t-0.5", "-1.0\tc\t-0.5",
            "-1.0\td\t-0.5", "-1.0\t</s>\t0", "-2.0\t<unk>\t0", "", "\\2-grams:",
            "-0.5\t<s> a", "-0.5\t<s> b", "-0.25\ta c", "-0.25\tb c", "", "\\end\\", "",
        ]))
        flat = (0.1, 0.1, 0.1, 0.1)
        table = [_entry(["x"], ["b", "c"], flat), _entry(["x"], ["a", "c"], flat),
                 _entry(["y"], ["d"], flat)]
        models = PhraseModels(table, lm)
        assert models.lm_ceilings() is not None
        survivors = phrase_module._survivors
        kept = []

        def recording(stack, beam_width, steps):
            hyps = survivors(stack, beam_width, steps)
            kept.append([(hyp[_TOKENS], hyp[_OPTION]) for hyp in hyps])
            return hyps

        monkeypatch.setattr(phrase_module, "_survivors", recording)
        results = {}
        for stack, nbest in ((100, 5), (1, 1)):
            hyps = decode_phrase(["x", "y"], models, EXACT_WEIGHTS, DecodeConfig(stack, nbest=nbest))
            results[stack] = [
                (h.tokens, h.score, [(s.start, s.end, s.tgt) for s in h.steps]) for h in hyps
            ]
        best = (("a", "c", "d"), -4.75, [(0, 1, ("a", "c")), (1, 2, ("d",))])
        assert results[100] == [
            best,
            (("d", "b", "c"), -6.125, [(1, 2, ("d",)), (0, 1, ("b", "c"))]),
            (("d", "a", "c"), -6.375, [(1, 2, ("d",)), (0, 1, ("a", "c"))]),
        ]
        assert results[1] == [best]
        assert kept[1] == [(("a", "c"), 0), (("d",), 2)]
        assert kept[3] == [(("a", "c"), 0)]

    def test_duplicate_tables_repeat_entries(self):
        # the duplicate-line tables really hold repeated (src, tgt) pairs
        models = exact_models(MSD, 19, True)
        keys = [(e.src, e.tgt) for e in models.phrase_table]
        assert len(set(keys)) < len(keys)


def assert_one_query_per_context_and_word(make_models, decode, monkeypatch):
    """`decode(models)` asks `NGramModel.score_ids` once per distinct
    (context, word). An identical second call with the same models asks
    nothing, as their LM memo holds every answer, and a call with freshly
    built models asks as often as the first did."""
    calls = []
    score_ids = NGramModel.score_ids

    def counting(self, history, word):
        calls.append((tuple(history), word))
        return score_ids(self, history, word)

    monkeypatch.setattr(NGramModel, "score_ids", counting)
    models = make_models()
    first = decode(models)
    first_calls = len(calls)
    assert first_calls == len(set(calls)) > 0
    calls.clear()
    again = decode(models)
    assert calls == []
    fresh = decode(make_models())
    assert len(calls) == first_calls
    for hyps in (again, fresh):
        assert [(h.tokens, h.score, h.features) for h in hyps] == [
            (h.tokens, h.score, h.features) for h in first
        ]


class TestLmCalls:
    def test_one_score_ids_call_per_distinct_context_and_word(self, monkeypatch):
        sent = ["s4", "s0", "s1", "oov-word", "s2", "s3"]
        config = DecodeConfig(stack_size=10, nbest=5)
        assert_one_query_per_context_and_word(
            lambda: exact_models(MSLR, 17),
            lambda models: decode_phrase(sent, models, EXACT_WEIGHTS, config),
            monkeypatch,
        )

    def test_chart_decoder_asks_once_per_context_and_word(self, monkeypatch):
        # a trigram LM, so a junction rescores two words of a sub-item
        sent = ["s1", "s1", "s0", "s2", "s1", "s3"]
        config = ChartConfig(cell_beam=100, nbest=5)
        assert_one_query_per_context_and_word(
            lambda: ChartModels(chart_digest_models(29).rule_table, random_lm(order=3)),
            lambda models: decode_chart(sent, models, CHART_TREE_WEIGHTS, config),
            monkeypatch,
        )

    def test_tree_decoder_asks_once_per_context_and_word(self, monkeypatch):
        config = TreeConfig(k_best_per_node=100, nbest=5)
        assert_one_query_per_context_and_word(
            lambda: TreeModels(tree_digest_models(29).tree_rules, random_lm(order=3)),
            lambda models: decode_tree(DIGEST_TREES[3], models, CHART_TREE_WEIGHTS, config),
            monkeypatch,
        )


def traced_search(models, sentences, configs, weights=EXACT_WEIGHTS):
    """(n-best digest, digest of what every stack's beam kept, summed
    `NGramModel.score_ids` calls) of decoding each sentence under each
    config. The memo bound is 0, so every decode starts from a cold LM memo,
    and the count sums what each decode asks on its own."""
    calls = [0]
    score_ids = NGramModel.score_ids
    survivors = phrase_module._survivors
    kept = hashlib.sha256()

    def counting(self, history, word):
        calls[0] += 1
        return score_ids(self, history, word)

    def recording(stack, beam_width, steps):
        hyps = survivors(stack, beam_width, steps)
        record = [
            (repr(hyp[_TOTAL]), hyp[_TOKENS], hyp[_COVERAGE], hyp[_LAST_END], hyp[_OPTION])
            for hyp in hyps
        ]
        kept.update(repr(record).encode())
        return hyps

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lm_module, "MEMO_TRANSITIONS", 0)
        patch.setattr(NGramModel, "score_ids", counting)
        patch.setattr(phrase_module, "_survivors", recording)
        nbest = search_digest(models, sentences, configs, weights)
    return nbest, kept.hexdigest(), calls[0]


def no_ceilings(monkeypatch):
    """Turn the LM-ceiling check off: every ceiling is +inf."""
    monkeypatch.setattr(PhraseModels, "lm_ceilings", lambda self: None)


@pytest.fixture(scope="module")
def fixture_phrase_models(tmp_path_factory):
    """A phrase model with msd reordering trained as the pipeline trains it,
    on a small `write_fixture_tree` corpus, and its test sentences."""
    paths = write_fixture_tree(200, 5, 12, seed=7, root=str(tmp_path_factory.mktemp("fixture")))
    pairs = clean(read_parallel(paths["train.src"], paths["train.tgt"]))
    fwd, bwd, links = cli._alignments_for(pairs, 4, 1, "grow-diag-final-and")
    table = build_phrase_table(pairs, links, fwd, bwd, 7)
    reordering = extract_reordering(pairs, links, "msd")
    lm = train_lm([p.target for p in pairs] + read_sentences(paths["mono.tgt"]), order=3)
    return PhraseModels(table, lm, reordering), read_sentences(paths["test.src"])


NEGATIVE_WEIGHT_MODELS = exact_models(MSLR, 17)


class TestLmCeiling:
    """The check of a candidate's LM-ceiling total against its stack's floor
    drops only candidates that the floor test on its real total drops."""

    @pytest.mark.parametrize("case", sorted(SEARCH_CASES))
    def test_same_results_and_beams_with_fewer_lm_queries(self, case, monkeypatch):
        make, args = SEARCH_CASES[case]
        models = make(*args)
        assert models.lm_ceilings() is not None
        runs = ((SEARCH_SENTENCES, SEARCH_CONFIGS), (FLOOR_SENTENCES, FLOOR_CONFIGS))
        on = [traced_search(models, sentences, configs) for sentences, configs in runs]
        no_ceilings(monkeypatch)
        off = [traced_search(models, sentences, configs) for sentences, configs in runs]
        assert [run[:2] for run in on] == [run[:2] for run in off]
        assert (on[0][0], on[1][0]) == (SEARCH_DIGESTS[case], FLOOR_DIGESTS[case])
        assert on[1][1] == off[1][1] == FLOOR_STACKS[case][1]
        assert on[0][2] <= off[0][2]
        assert on[1][2] < off[1][2]

    def test_fixture_model_with_msd_reordering(self, fixture_phrase_models, monkeypatch):
        models, sentences = fixture_phrase_models
        assert models.lm_ceilings() is not None
        configs = [DecodeConfig(stack_size=s, nbest=k) for s in (5, 100) for k in (1, 5)]
        on = traced_search(models, sentences, configs, FeatureWeights())
        no_ceilings(monkeypatch)
        off = traced_search(models, sentences, configs, FeatureWeights())
        assert on[:2] == off[:2]
        assert on[2] < off[2]

    def test_options_after_one_that_fails_the_check_are_still_tried(self, monkeypatch):
        # y's options are visited best estimate first: p (unigram -0.5)
        # before q (-2.0). After <s> and with a beam of one, x -> r sets the
        # floor of stack 1, which p's ceiling total is below; q's ceiling
        # (its bigram after <s>, -0.0625) is not, and q beats r for the
        # beam. Stopping the span at p would lose "q r".
        lm = read_arpa("\n".join([
            "\\data\\", "ngram 1=6", "ngram 2=2", "", "\\1-grams:",
            "-99\t<s>\t-0.5", "-0.25\tr\t0", "-0.5\tp\t0", "-2.0\tq\t0",
            "-0.5\t</s>\t0", "-3.0\t<unk>\t0", "", "\\2-grams:",
            "-0.125\t<s> r", "-0.0625\t<s> q", "", "\\end\\", "",
        ]))
        one = (1.0, 1.0, 1.0, 1.0)
        table = [_entry(["x"], ["r"], one), _entry(["y"], ["p"], one), _entry(["y"], ["q"], one)]
        models = PhraseModels(table, lm)
        weights = FeatureWeights(lm=1.0, distortion=0.0)
        config = DecodeConfig(stack_size=1)
        on = decode_phrase(["x", "y"], models, weights, config)[0]
        assert on.tokens == ("q", "r")
        no_ceilings(monkeypatch)
        assert decode_phrase(["x", "y"], models, weights, config)[0] == on

    @pytest.mark.parametrize("name", ["lm", "reordering"])
    def test_negative_weight_turns_the_check_off(self, name, monkeypatch):
        models = exact_models(MSD)
        weights = EXACT_WEIGHTS.replaced(name, -0.5)
        on = traced_search(models, FLOOR_SENTENCES, FLOOR_CONFIGS, weights)
        no_ceilings(monkeypatch)
        assert traced_search(models, FLOOR_SENTENCES, FLOOR_CONFIGS, weights) == on

    def test_positive_backoff_or_orientation_above_one_turns_the_check_off(self):
        models = exact_models(MSD)
        assert models.lm_ceilings() is not None
        lifted = train_lm([["t0", "t1"], ["t1", "t2"]], order=2)
        lifted.backoffs[1][next(iter(lifted.backoffs[1]))] = 0.25
        assert PhraseModels(models.phrase_table, lifted, models.reordering).lm_ceilings() is None
        entry = models.reordering[0]
        raised = ReorderingEntry(entry.src, entry.tgt, dict(entry.forward, swap=1.5), entry.backward)
        reordering = [raised] + models.reordering[1:]
        assert PhraseModels(models.phrase_table, models.lm, reordering).lm_ceilings() is None

    def test_nan_phrase_score_is_dropped_by_neither(self, monkeypatch):
        # a candidate whose total is NaN never fails the floor test, so no
        # bound may drop it, nor the span it shares with finite options
        models = exact_models(MSD)

        def outcomes():
            found = []
            for pos, entry in enumerate(models.phrase_table):
                table = list(models.phrase_table)
                table[pos] = _entry(entry.src, entry.tgt, (math.nan,) + entry.scores[1:])
                poisoned = PhraseModels(table, models.lm, models.reordering)
                for sent in FLOOR_SENTENCES:
                    for config in FLOOR_CONFIGS:
                        try:
                            hyps = decode_phrase(sent, poisoned, EXACT_WEIGHTS, config)
                            found.append([(h.tokens, repr(h.score)) for h in hyps])
                        except DecodeError as exc:
                            found.append(str(exc))
            return found

        on = outcomes()
        no_ceilings(monkeypatch)
        assert outcomes() == on

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(["lm", "reordering"]),
        st.sampled_from([-0.25, -3.0]),
        st.lists(st.sampled_from(SRC[:5] + ["oov-word"]), min_size=1, max_size=4),
    )
    def test_negative_weight_search_stays_exact(self, name, value, sent):
        models = NEGATIVE_WEIGHT_MODELS
        weights = EXACT_WEIGHTS.replaced(name, value)
        beam = decode_phrase(sent, models, weights, UNLIMITED)[0]
        _, oracle_score = decode_oracle(sent, models, weights)
        assert beam.score == pytest.approx(oracle_score, abs=1e-9)


def unigram_lm(seed=43):
    """An order-1 LM, as read from an ARPA file that holds only 1-grams."""
    rng = random.Random(seed)
    lines = ["\\data\\", f"ngram 1={len(TGT) + 3}", "", "\\1-grams:", "-99\t<s>"]
    for word in TGT + ["</s>", "<unk>"]:
        lines.append(f"{-rng.uniform(0.2, 1.5):.4f}\t{word}")
    return read_arpa("\n".join(lines + ["", "\\end\\", ""]))


class TestOrderOneLm:
    def test_contexts_stay_constant_and_search_is_exact(self):
        # every context after <s> is empty: the LM's history is cut to ()
        models = PhraseModels(random_phrase_table(), unigram_lm())
        assert models.lm.order == 1
        rng = random.Random(47)
        for _ in range(15):
            sent = [rng.choice(SRC + ["oov-word"]) for _ in range(rng.randint(1, 4))]
            beam = decode_phrase(sent, models, FeatureWeights(), UNLIMITED)[0]
            _, oracle_score = decode_oracle(sent, models, FeatureWeights())
            assert beam.score == pytest.approx(oracle_score, abs=1e-9)
            assert models.lm_states().contexts == [(), (models.lm.vocab.id_of("<s>"),)]
        long = ["s0", "s1", "s2", "s3", "s4", "s5"]
        decode_phrase(long, models, FeatureWeights(), DecodeConfig(stack_size=100, nbest=5))
        assert len(models.lm_states().contexts) == 2


def extracted_orientations(n, derivation, orientation_set):
    """The (forward, backward) orientation of each step of `derivation`, as
    `phrasetab.extract_reordering` classifies its phrase pair in the word
    alignment that the derivation implies: the steps' target words in output
    order, each step's source words linked to each of its target words.
    (Within a phrase the links are unknown; a diagonal there would make the
    extractor's word-based corner tests read, say, a swap after a two-word
    phrase as discontinuous.) Source position i is the word s@i and target
    position j the word t@j, so every phrase pair is an entry of its own,
    and without smoothing the orientation counted is the one with
    probability 1."""
    links = set()
    spans = []
    j = 0
    for step in derivation:
        b = len(step.tgt)
        links |= {(i, k) for i in range(step.start, step.end) for k in range(j, j + b)}
        spans.append((step.start, step.end, j, j + b))
        j += b
    pair = SentencePair([f"s@{i}" for i in range(n)], [f"t@{k}" for k in range(j)])
    entries = extract_reordering([pair], [links], orientation_set, 0.0, max(n, j))
    counted = {(e.src, e.tgt): e for e in entries}
    found = []
    for i1, i2, j1, j2 in spans:
        entry = counted[(tuple(pair.source[i1:i2]), tuple(pair.target[j1:j2]))]
        found.append(tuple(
            next(o for o, p in probs.items() if p == 1.0) for probs in (entry.forward, entry.backward)
        ))
    return found


class TestOrientationsAgainstExtraction:
    @pytest.mark.xfail(
        strict=True,
        reason="decoder/phrase.py reads the backward orientation with monotone and swap "
        "exchanged against phrasetab.extract_reordering (FOUND in CHANGES.md)",
    )
    @pytest.mark.parametrize("orientations", [MSD, MSLR], ids=["msd", "mslr"])
    def test_reordering_feature_matches_extracted_orientations(self, orientations):
        models = random_reordering_models(orientations)
        orientation_set = "msd" if orientations == MSD else "mslr"
        weights = FeatureWeights(reordering=0.7, distortion=0.2)
        config = DecodeConfig(stack_size=10, distortion_limit=None, nbest=5)
        entries = {(e.src, e.tgt): e for e in models.reordering}
        rng = random.Random(53)
        for _ in range(20):
            sent = [rng.choice(SRC + ["oov-word"]) for _ in range(rng.randint(1, 6))]
            for hyp in decode_phrase(sent, models, weights, config):
                expected = 0.0
                found = extracted_orientations(len(sent), hyp.steps, orientation_set)
                for step, (forward, backward) in zip(hyp.steps, found):
                    entry = entries.get(step.entry_key)
                    if entry:
                        expected += math.log10(max(entry.forward[forward], 1e-30))
                        expected += math.log10(max(entry.backward[backward], 1e-30))
                assert hyp.features["reordering"] == pytest.approx(expected, abs=1e-9)

    def test_equal_distributions_share_one_log_table(self):
        table = random_phrase_table()
        forward = {"monotone": 0.5, "swap": 0.25, "discontinuous": 0.25}
        backward = dict(forward, swap=0.125)
        reorder = [ReorderingEntry(e.src, e.tgt, dict(forward), dict(backward)) for e in table[:2]]
        models = PhraseModels(table, random_lm(), reorder)
        first, second = (models.reordering_logs((e.src, e.tgt)) for e in table[:2])
        assert first[0] is second[0] and first[1] is second[1]
        assert first[0]["disc-left"] == first[0]["disc-right"] == math.log10(0.25)
        assert first[1]["swap"] == math.log10(0.125)


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

    def test_unary_rule_keeps_the_pass_through_of_an_unknown_word(self):
        # the unary rule's tail is the cell it would fill, which is not
        # filled yet: it builds no item there, so "zz" is passed through
        x1 = NT(1)
        rules = [RuleEntry("X", ("a",), ("A",)), RuleEntry("X", (x1,), (x1,))] + glue_rules()
        hyp = decode_chart(["a", "zz"], ChartModels(rules, random_lm()))[0]
        assert hyp.tokens == ("A", "zz")
        assert hyp.features["oov"] == -1.0

    @pytest.mark.parametrize("rule", [
        RuleEntry("Y", ("a",), ("b",)),
        RuleEntry("X", (NT(1, "Y"), "a"), (NT(1, "Y"), "b")),
        RuleEntry("X", (NT(1), "a"), (NT(1, "Y"), "b")),
        RuleEntry("S", ("a",), ("b",)),
        RuleEntry("S", (NT(1, "S"), NT(2, "X")), (NT(2, "X"), NT(1, "S"))),
    ], ids=["lhs-y", "gap-y", "target-gap-y", "lexical-s", "swapped-glue"])
    def test_only_x_rules_and_the_glue_rules_are_accepted(self, rule):
        table = [RuleEntry("X", ("a",), ("b",)), rule] + glue_rules()
        with pytest.raises(DecodeError, match="only X rules with X gaps and the glue rules"):
            ChartModels(table, random_lm())
        assert ChartModels(table[:1] + table[2:], random_lm())

    def test_cell_beam_below_one_keeps_one_item(self):
        # as the tree decoder's k does
        models = reorder_rule_fixture()
        sentence = ["is", "he", "going"]
        one = decode_chart(sentence, models, config=ChartConfig(cell_beam=1, nbest=5))
        for beam in (0, -1):
            assert decode_chart(sentence, models, config=ChartConfig(cell_beam=beam, nbest=5)) == one

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


@st.composite
def tiny_grammars(draw):
    """A sentence of 1-5 words from SRC[:3] and a grammar in the oracle's
    terms. Each rule's source is read off a span of the sentence, with up
    to two sub-spans as gaps, so that most rules match somewhere; a word of
    it may be replaced by SRC[3], which no sentence has. The grammar always
    holds an NT-initial rule with SRC[3]. (A `random.Random` from a drawn
    seed draws them, which spreads the rules' shapes wider than Hypothesis'
    own draws did.)"""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    sentence = [rng.choice(SRC[:3]) for _ in range(rng.randint(1, 5))]
    n = len(sentence)
    rules = [((("x", 1), ("w", SRC[3])), (("w", TGT[0]), ("x", 1)), (0.5, 0.5, 1.0, 1.0))]
    for _ in range(rng.randint(1, 8)):
        i = rng.randrange(n)
        j = rng.randint(i + 1, min(n, i + 5))
        source, gaps, at = [], 0, i
        while at < j:
            # a gap starts here two times in three at the rule's start, so
            # that many rules are NT-initial, and one time in three after it
            if gaps < 2 and rng.random() < (2 / 3 if at == i else 1 / 3):
                gaps += 1
                source.append(("x", gaps))
                at = rng.randint(at + 1, j)
            else:
                source.append(("w", rng.choice((sentence[at], sentence[at], SRC[3]))))
                at += 1
        if source == [("x", 1)]:
            continue  # a rule that is a single gap would derive itself
        target = [("x", g) for g in rng.sample(range(1, gaps + 1), gaps)]
        for _ in range(rng.randint(0 if gaps else 1, 2)):
            target.insert(rng.randint(0, len(target)), ("w", rng.choice(TGT[:4])))
        scores = tuple(rng.choice((0.25, 0.5, 1.0)) for _ in range(4))
        rules.append((tuple(source), tuple(target), scores))
    return sentence, rules


def as_rule_entry(source, target, scores):
    """A rule in the oracle's terms as an X rule of the chart decoder."""
    def side(items):
        return tuple(NT(item[1]) if item[0] == "x" else item[1] for item in items)

    return RuleEntry("X", side(source), side(target), scores)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(
    tiny_grammars(),
    st.sampled_from((2, 3)),
    st.builds(FeatureWeights, lm=st.sampled_from((0.25, 0.5, 1.0)),
              glue=st.sampled_from((0.0, 0.5, 1.0)),
              word_penalty=st.sampled_from((-0.5, 0.0, 0.5))),
)
def test_chart_decoder_matches_exhaustive_oracle(case, order, weights):
    """With a beam that holds every item, `decode_chart`'s best output has
    the best score of every derivation the oracle enumerates."""
    sentence, rules = case
    lm = train_lm([TGT[:4], TGT[3::-1], TGT[1:3]], order=order)
    reference = scfg_derivations_reference(
        sentence, rules, weights.as_dict(), lambda tokens: lm.score_sentence(list(tokens))[0]
    )
    models = ChartModels([as_rule_entry(*rule) for rule in rules] + glue_rules(), lm)
    (hyp,) = decode_chart(sentence, models, weights, ChartConfig(cell_beam=10 ** 8, nbest=1))
    best = max(score for score, _ in reference)
    assert hyp.score == pytest.approx(best, abs=1e-9)
    assert any(tokens == hyp.tokens and score == pytest.approx(best, abs=1e-9)
               for score, tokens in reference)


def sentence_candidates(sentence, rules):
    """The rule table of a tiny grammar, and `ChartModels.candidates` of
    the sentence as lists of rules."""
    table = [as_rule_entry(*rule) for rule in rules]
    models = ChartModels(table + glue_rules(), train_lm([TGT[:4]]))
    candidates = [[rule for rule, _ in scored] for scored in models.candidates(sentence)]
    assert len(candidates) == len(sentence)
    return table, candidates


def covers_span_from(sentence, source, i):
    """Whether the rule source covers some span of the sentence starting at i."""
    return any(next(scfg_gap_spans(sentence, source, i, j), None) is not None
               for j in range(i + 1, len(sentence) + 1))


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(tiny_grammars())
def test_sentence_filter_keeps_every_nt_initial_rule_that_can_match(case):
    """`ChartModels.candidates` ends the rules of each start position of
    the sentence with the same NT-initial rules, in table order; among them
    every NT-initial rule that covers some span of the sentence, and none
    with a word the sentence lacks."""
    sentence, rules = case
    table, candidates = sentence_candidates(sentence, rules)
    nt_initial = [rule for rule in candidates[0] if isinstance(rule.src_rhs[0], NT)]
    assert nt_initial == [rule for rule in table if rule in nt_initial]
    assert all(s in sentence for rule in nt_initial for s in rule.src_rhs if not isinstance(s, NT))
    for kept in candidates:
        assert kept[len(kept) - len(nt_initial):] == nt_initial
    for source, target, scores in rules:
        if source[0][0] == "x" and any(covers_span_from(sentence, source, i)
                                       for i in range(len(sentence))):
            assert as_rule_entry(source, target, scores) in nt_initial


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(tiny_grammars())
def test_sentence_filter_keeps_every_word_initial_rule_that_can_match(case):
    """`ChartModels.candidates` begins the rules of each start position of
    the sentence with the rules starting with the word there, in table
    order; among them every such rule that covers some span starting there,
    and none with a word the sentence lacks."""
    sentence, rules = case
    table, candidates = sentence_candidates(sentence, rules)
    for word, kept in zip(sentence, candidates):
        word_initial = [rule for rule in kept if not isinstance(rule.src_rhs[0], NT)]
        assert kept[:len(word_initial)] == word_initial
        assert word_initial == [rule for rule in table if rule in word_initial and rule.src_rhs[0] == word]
        assert all(s in sentence for rule in word_initial for s in rule.src_rhs if not isinstance(s, NT))
    for source, target, scores in rules:
        for i in range(len(sentence)):
            if source[0][0] == "w" and covers_span_from(sentence, source, i):
                assert as_rule_entry(source, target, scores) in candidates[i]


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


def draw_tree(draw, forms_from):
    """Heads, labels and forms of a random projective tree of 1-6 tokens."""
    n = draw(st.integers(1, 6))
    heads = [0] * n

    def attach(lo, hi, head):  # tokens lo+1..hi form one subtree under head
        top = draw(st.integers(lo, hi - 1))
        heads[top] = head
        for start, end in ((lo, top), (top + 1, hi)):
            while start < end:
                split = draw(st.integers(start + 1, end))
                attach(start, split, top + 1)
                start = split

    attach(0, n, 0)
    labels = [draw(st.sampled_from(("nsubj", "obj", "amod"))) for _ in range(n)]
    forms = [draw(st.sampled_from(forms_from)) for _ in range(n)]
    return heads, labels, forms


@st.composite
def projective_tree_tables(draw):
    """A random projective tree, and the rule table that
    `build_tree_rule_table` extracts from it with 1-4 random targets and
    link sets, so that a node may match several rules or none. The table
    also holds the rules of 0-2 other trees, whose words may differ: they
    share labels with the first tree's nodes but may not match it."""
    heads, labels, forms = draw_tree(draw, SRC[:3])
    trees = [(heads, labels, forms)]
    trees += [draw_tree(draw, SRC[:4]) for _ in range(draw(st.integers(0, 2)))]
    pairs, link_sets = [], []
    for tree, count in zip(trees, [draw(st.integers(1, 4))] + [1] * (len(trees) - 1)):
        n = len(tree[0])
        for _ in range(count):
            target = draw(st.lists(st.sampled_from(TGT[:4]), min_size=1, max_size=6))
            pairs.append(as_pair(*tree, target))
            link_sets.append(draw(st.sets(
                st.tuples(st.integers(0, n - 1), st.integers(0, len(target) - 1)),
                min_size=1, max_size=2 * n,
            )))
    table, skipped = build_tree_rule_table(pairs, link_sets)
    assert skipped == 0
    return heads, labels, forms, table, [pair.target for pair in pairs]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    projective_tree_tables(),
    st.sampled_from((2, 3)),
    st.builds(FeatureWeights, lm=st.sampled_from((0.25, 0.5, 1.0)),
              word_penalty=st.sampled_from((-0.5, 0.0, 0.5))),
)
def test_tree_decoder_matches_exhaustive_oracle(case, order, weights):
    """With a k that holds every derivation, `decode_tree` returns every
    output the oracle can derive, each with the oracle's best score."""
    heads, labels, forms, table, targets = case
    lm = train_lm(targets + [TGT[:4], TGT[3::-1]], order=order)
    reference = tree_derivations_reference(
        heads, labels, forms, [(*neutral(rule), rule.scores) for rule in table],
        weights.as_dict(), lambda tokens: lm.score_sentence(list(tokens))[0],
    )
    best: dict = {}
    for score, tokens in reference:
        best[tokens] = max(score, best.get(tokens, -math.inf))
    k = len(reference)
    hyps = decode_tree(dep_sentence(heads, labels, forms), TreeModels(table, lm),
                       weights, TreeConfig(k_best_per_node=k, nbest=k))
    assert {h.tokens for h in hyps} == set(best)
    for hyp in hyps:
        assert hyp.score == pytest.approx(best[hyp.tokens], abs=1e-9)
    assert hyps[0].score == pytest.approx(max(best.values()), abs=1e-9)


@st.composite
def tree_runs(draw):
    """1-3 random projective trees and a one-token one, the rule table that
    `build_tree_rule_table` extracts from them with 1-3 random targets and
    link sets each, an LM over the targets, and a run of sentences that
    decodes each tree four times in a random order. The words come from
    three, so leaves share their (label, form) within a tree and across."""
    trees = [draw_tree(draw, SRC[:3]) for _ in range(draw(st.integers(1, 3)))]
    trees.append(([0], ["root"], [draw(st.sampled_from(SRC[:3]))]))
    pairs, link_sets = [], []
    for heads, labels, forms in trees:
        n = len(heads)
        for _ in range(draw(st.integers(1, 3))):
            target = draw(st.lists(st.sampled_from(TGT[:4]), min_size=1, max_size=5))
            pairs.append(as_pair(heads, labels, forms, target))
            link_sets.append(draw(st.sets(
                st.tuples(st.integers(0, n - 1), st.integers(0, len(target) - 1)),
                min_size=1, max_size=2 * n,
            )))
    table, _ = build_tree_rule_table(pairs, link_sets)
    lm = train_lm([pair.target for pair in pairs] + [TGT[:4]], order=draw(st.sampled_from((2, 3))))
    sources = [dep_sentence(*tree) for tree in trees]
    run = draw(st.permutations(list(range(len(trees))) * 4))
    return table, lm, [sources[i] for i in run]


# two weight sets that rank a leaf's targets differently: by LM and length
LEAF_CACHE_WEIGHTS = [
    FeatureWeights(),
    FeatureWeights(lm=2.0, word_penalty=-1.5, phi_t_given_s=0.0, lex_t_given_s=1.0),
]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(tree_runs())
def test_leaf_cache_gives_the_bytes_of_fresh_models(case):
    """A run of decodes with one `TreeModels`, whose leaf cache carries from
    sentence to sentence, writes the n-best bytes of a fresh `TreeModels`
    per sentence. Along the run, k and the n-best size change, the weights
    change every third sentence, first as one of two objects and then as one
    object changed in place, and the LM memo begins anew once."""
    table, lm, run = case
    configs = [TreeConfig(k_best_per_node=k, nbest=n) for k in (1, 2, 100) for n in (1, 5)]
    steps = [(config, i) for config in configs for i in range(len(run))]
    models = TreeModels(table, lm)
    in_place = FeatureWeights()
    shared, fresh = [], []
    for step, (config, i) in enumerate(steps):
        values = LEAF_CACHE_WEIGHTS[step // 3 % 2]
        if step < len(steps) // 2:
            weights = values
        else:
            weights = in_place
            vars(weights).update(vars(values))
        with pytest.MonkeyPatch.context() as patch:
            if step == len(steps) * 3 // 4 + 1:  # not where the weights change
                patch.setattr(lm_module, "MEMO_TRANSITIONS", 0)
            hyps = decode_tree(run[i], models, weights, config)
        shared.append([(h.tokens, h.score, h.features) for h in hyps])
        hyps = decode_tree(run[i], TreeModels(table, lm), FeatureWeights(**vars(values)), config)
        fresh.append([(h.tokens, h.score, h.features) for h in hyps])
    assert cli._format_nbest(shared) == cli._format_nbest(fresh)


# nested target sides: words, and lists that stand for composed sub-items
ITEM_SHAPES = st.recursive(
    st.lists(st.sampled_from(TGT[:4] + ["zz"]), max_size=3),
    lambda inner: st.lists(st.one_of(st.sampled_from(TGT[:4]), inner), min_size=1, max_size=3),
    max_leaves=8,
)


def composed_item(factory, shape):
    target, subs = [], []
    for part in shape:
        if isinstance(part, str):
            target.append(part)
        else:
            target.append(len(subs))
            subs.append(composed_item(factory, part))
    return factory.compose(tuple(target), {"phrase_penalty": -1.0}, (), *subs)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(ITEM_SHAPES, st.sampled_from((2, 3, 4)))
def test_composed_item_scores_its_words_once(shape, order):
    """An item composed from sub-items, which rescores only junction words,
    holds the LM score, head score and end state of its whole string."""
    lm = train_lm([TGT[:4], TGT[3::-1], TGT[1:3]], order=order)
    lm_states = LmStates(lm)
    weights = FeatureWeights()
    item = composed_item(ItemFactory(lm_states, weights), shape)
    ids = tuple(map(lm.vocab.id_of, item.tokens))
    total, state = lm_states.advance(lm_states.empty, ids)
    assert item.prefix_lm == pytest.approx(total, abs=1e-9)
    assert item.head_lm == pytest.approx(
        lm_states.advance(lm_states.empty, ids[:lm_states.cut])[0], abs=1e-9
    )
    assert item.state == state
    assert item.score == pytest.approx(weights.dot(item.features) + weights.lm * total, abs=1e-9)


# Digests of every decode_chart and decode_tree n-best over grammars whose
# scores sum exactly in binary floating point, as the phrase digests above:
# every rule score is a power of ten, every LM log10 probability and back-off
# and every weight is dyadic. They pin each n-best byte for byte (tokens,
# score, features, derivation and tie order) at small and large beams.
CHART_TREE_WEIGHTS = EXACT_WEIGHTS.replaced("glue", 0.25)


def dyadic_lm(seed, words=tuple(TGT[:5]), order=2):
    """An ARPA LM over `words` whose log10 probabilities and back-offs are
    multiples of 1/8; seed None makes every word equally likely."""
    rng = random.Random(seed)
    vocab = list(words) + ["</s>", "<unk>"]
    unigrams = [f"-99\t<s>\t{-0.5 if seed is None else -rng.choice((0.25, 0.5))}"]
    for word in vocab:
        logp = -0.75 if seed is None else -rng.choice((0.5, 0.75, 1.0, 1.25))
        unigrams.append(f"{logp}\t{word}\t{-0.5 if seed is None else -rng.choice((0.25, 0.5))}")
    bigrams = []
    if seed is not None:
        for prev in ["<s>"] + list(words):
            for word in rng.sample(list(words) + ["</s>"], 3):
                bigrams.append(f"{-rng.choice((0.125, 0.25, 0.375))}\t{prev} {word}")
    lines = ["\\data\\", f"ngram 1={len(unigrams)}", f"ngram 2={len(bigrams)}", ""]
    lines += ["\\1-grams:"] + unigrams + ["", "\\2-grams:"] + bigrams + ["", "\\end\\", ""]
    assert order == 2
    return read_arpa("\n".join(lines))


def _rule(src, tgt, scores):
    return RuleEntry("X", tuple(src), tuple(tgt), scores, frozenset(), (1, 1, 1))


def chart_digest_models(seed):
    """Lexical, one-gap, two-gap and reordering rules over s0-s3; seed None
    gives every rule the same scores and the LM no preference."""
    rng = random.Random(seed)
    powers = (1.0, 0.1, 0.01)

    def scores():
        return (0.1,) * 4 if seed is None else tuple(rng.choice(powers) for _ in range(4))

    x1, x2 = NT(1), NT(2)
    rules = [_rule((s,), (t,), scores()) for s in SRC[:4] for t in TGT[:3]]
    rules += [
        _rule(("s0", "s1"), ("t3", "t4"), scores()),
        _rule(("s0", x1), ("t1", x1), scores()),
        _rule((x1, "s1", x2), (x2, x1), scores()),
        _rule((x1, "s1", x2), (x1, "t4", x2), scores()),
        _rule((x1, "s2"), (x1, "t3"), scores()),
        _rule(("s3", x1, "s0"), (x1, "t2"), scores()),
        _rule((x1, x2), (x2, x1), scores()),
    ]
    return ChartModels(rules + glue_rules(), dyadic_lm(seed))


DIGEST_TREES = parse_conllu(
    # det under nsubj, an advmod chain and a word no rule covers
    "1\tthe\t_\t_\t_\t_\t2\tdet\t_\t_\n"
    "2\tdog\t_\t_\t_\t_\t3\tnsubj\t_\t_\n"
    "3\truns\t_\t_\t_\t_\t0\troot\t_\t_\n"
    "4\tvery\t_\t_\t_\t_\t5\tadvmod\t_\t_\n"
    "5\tfast\t_\t_\t_\t_\t3\tadvmod\t_\t_\n"
    "6\toov-word\t_\t_\t_\t_\t3\tpunct\t_\t_\n"
    "\n"
    # no rule for its root: the whole sentence is passed through
    "1\tthe\t_\t_\t_\t_\t2\tdet\t_\t_\n"
    "2\tdog\t_\t_\t_\t_\t3\tnsubj\t_\t_\n"
    "3\tsleeps\t_\t_\t_\t_\t0\troot\t_\t_\n"
    "4\tfast\t_\t_\t_\t_\t3\tadvmod\t_\t_\n"
    "\n"
    "1\truns\t_\t_\t_\t_\t0\troot\t_\t_\n"
    "\n"
    "1\tdog\t_\t_\t_\t_\t2\tnsubj\t_\t_\n"
    "2\truns\t_\t_\t_\t_\t0\troot\t_\t_\n"
    "3\tthe\t_\t_\t_\t_\t4\tdet\t_\t_\n"
    "4\tdog\t_\t_\t_\t_\t2\tobj\t_\t_\n"
    "5\tfast\t_\t_\t_\t_\t2\tadvmod\t_\t_\n"
    "\n"
    # a passed-through root whose variables are adjacent
    "1\tdog\t_\t_\t_\t_\t3\tnsubj\t_\t_\n"
    "2\tfast\t_\t_\t_\t_\t3\tadvmod\t_\t_\n"
    "3\truns\t_\t_\t_\t_\t0\troot\t_\t_\n"
)


def tree_digest_models(seed):
    """Rules with variables, inlined fragments and several targets per
    fragment; seed None gives every rule the same scores."""
    rng = random.Random(seed)
    powers = (1.0, 0.1, 0.01)

    def rule(fragment, target):
        scores = (0.1,) * 4 if seed is None else tuple(rng.choice(powers) for _ in range(4))
        return TreeRule(fragment, target, scores)

    v1, v2, v3 = Var(1, ""), Var(2, ""), Var(3, "")
    root = Fragment("root", (Var(1, "nsubj"), "runs", Var(2, "advmod"), Var(3, "punct")))
    rules = [
        rule(root, (v2, v1, "t0", v3)),
        rule(root, (v1, "t0", v2, v3)),
        rule(Fragment("root", ("runs",)), ("t0",)),
        rule(Fragment("root", ("runs",)), ("t1",)),
        rule(Fragment("root", (Var(1, "nsubj"), "runs", Var(2, "obj"), Var(3, "advmod"))),
             (v1, v3, "t0", v2)),
        rule(Fragment("nsubj", (Var(1, "det"), "dog")), ("t2", v1)),
        rule(Fragment("nsubj", (Var(1, "det"), "dog")), (v1, "t2")),
        rule(Fragment("nsubj", (Fragment("det", ("the",)), "dog")), ("t3",)),
        rule(Fragment("nsubj", ("dog",)), ("t2",)),
        # with the last advmod rule, two derivations make 't2 t4 t4' of adjacent
        # nsubj and advmod variables
        rule(Fragment("nsubj", ("dog",)), ("t2", "t4")),
        rule(Fragment("obj", (Var(1, "det"), "dog")), (v1, "t4")),
        rule(Fragment("det", ("the",)), ("t1",)),
        rule(Fragment("det", ("the",)), ("t4",)),
        rule(Fragment("advmod", ("fast",)), ("t3",)),
        rule(Fragment("advmod", ("fast",)), ("t4", "t4")),
        rule(Fragment("advmod", ("fast",)), ("t4",)),
        rule(Fragment("advmod", ("very",)), ("t1",)),
    ]
    return TreeModels(rules, dyadic_lm(seed))


def nbest_digest(decode, models, sentences, configs, weights=CHART_TREE_WEIGHTS):
    digest = hashlib.sha256()
    for sent in sentences:
        for config in configs:
            for hyp in decode(sent, models, weights, config):
                record = (
                    hyp.tokens,
                    repr(hyp.score),
                    sorted(hyp.features.items()),
                    [rule.key() for rule in hyp.steps],
                )
                digest.update(repr(record).encode())
            digest.update(b"|")
    return digest.hexdigest()


CHART_SENTENCES = [
    ["s0", "s1", "s2", "s3"],
    ["s3", "s2", "s0", "s1", "s0"],
    ["s2", "oov-word", "s1", "s0", "s3"],
    ["s1", "s1", "s0", "s2", "s1", "s3"],
    ["oov-word"],
]
CHART_CONFIGS = [ChartConfig(cell_beam=b, nbest=n) for b in (1, 2, 100) for n in (1, 5)]
TREE_CONFIGS = [TreeConfig(k_best_per_node=b, nbest=n) for b in (1, 2, 100) for n in (1, 5)]
CHART_TREE_SEEDS = {"ties": None, "exact": 29, "exact-2": 31}
# recorded from the decoders before they shared one ranking step and built
# their products with itertools.product
CHART_DIGESTS = {
    "ties": "3d657b2b557b64ef112e59726c3623ef1e6d27d3539b3e39b1235c5407fcd2fd",
    "exact": "9f6a0bf09dabbbeb7a5ac9f0c8c4671143d440c91a8dc551a720bf0d052dc8c4",
    "exact-2": "99b625f9307f4a481e5a22b4b7acddf6bda7b26c6d37cccbd68ab320aaa6a879",
}
TREE_DIGESTS = {
    "ties": "c6eac27a57de983c175dde748f9d2ccfcc07d39f9ad496c7e296607c9bcae78f",
    "exact": "7f11bc2c5f67060b4f14d487980621acab9bb8c55626ee86ecf056ca46b3b1f4",
    "exact-2": "7635192b185ff351ac7b0796094950f3333d89507c6b1cc8d7d8f31c7116885e",
}


class TestChartTreeBytes:
    @pytest.mark.parametrize("case", sorted(CHART_TREE_SEEDS))
    def test_chart_results_match_recorded_digest(self, case):
        models = chart_digest_models(CHART_TREE_SEEDS[case])
        digest = nbest_digest(decode_chart, models, CHART_SENTENCES, CHART_CONFIGS)
        assert digest == CHART_DIGESTS[case]

    @pytest.mark.parametrize("case", sorted(CHART_TREE_SEEDS))
    def test_tree_results_match_recorded_digest(self, case):
        models = tree_digest_models(CHART_TREE_SEEDS[case])
        digest = nbest_digest(decode_tree, models, DIGEST_TREES, TREE_CONFIGS)
        assert digest == TREE_DIGESTS[case]

    def test_cases_tie_and_pass_through(self):
        # the flat grammars tie at the cuts, and every tree decode has a
        # passed-through node
        chart = decode_chart(CHART_SENTENCES[0], chart_digest_models(None), CHART_TREE_WEIGHTS,
                             ChartConfig(cell_beam=100, nbest=5))
        assert len({h.score for h in chart}) < len(chart)
        tree_models = tree_digest_models(None)
        for sent in DIGEST_TREES[:2]:
            hyps = decode_tree(sent, tree_models, CHART_TREE_WEIGHTS, TREE_CONFIGS[-1])
            assert all(h.features["oov"] < 0 for h in hyps)
            assert len({h.score for h in hyps}) < len(hyps)


@pytest.fixture(scope="module")
def trained_chart_tree(tmp_path_factory):
    """Hier and tree models trained as the pipeline trains them on a small
    `write_fixture_tree` corpus, and its test inputs. Their rule scores,
    lexical weights and LM numbers are not dyadic, so that a change in the
    order of a sum shows in the last digit of a score."""
    paths = write_fixture_tree(60, 2, 8, seed=3, root=str(tmp_path_factory.mktemp("trained")))
    pairs = read_parallel(paths["train.src"], paths["train.tgt"])
    trees = parse_conllu(Path(paths["train.conllu"]).read_text(encoding="utf-8"))
    for pair, tree in zip(pairs, trees):
        pair.source_tree = TreeShape.of(tree)
    fwd, bwd, links = cli._alignments_for(pairs, 3, 1, "grow-diag-final-and")
    lm = train_lm([p.target for p in pairs] + read_sentences(paths["mono.tgt"]), order=3)
    return {
        "chart": (decode_chart, ChartModels(build_rule_table(pairs, links, fwd, bwd), lm),
                  read_sentences(paths["test.src"]),
                  [ChartConfig(cell_beam=b, nbest=5) for b in (1, 4, 30)]),
        "tree": (decode_tree, TreeModels(build_tree_rule_table(pairs, links)[0], lm),
                 parse_conllu(Path(paths["test.conllu"]).read_text(encoding="utf-8")),
                 [TreeConfig(k_best_per_node=b, nbest=5) for b in (1, 4, 30)]),
    }


# the default weights and a second set, neither dyadic, and a glue weight
TRAINED_WEIGHTS = [
    FeatureWeights(),
    FeatureWeights().replaced("glue", 0.7).replaced("word_penalty", -0.35).replaced("lm", 0.45),
]
# recorded before the chart and tree decoders filled their nodes in one place,
# once per float sum() of the interpreter: from Python 3.12 sum() is
# compensated, which changes the last digit of the EM's t-tables and of
# `FeatureWeights.dot`. Both were checked to agree on 3.10 and 3.11, and on
# 3.12 and 3.13.
TRAINED_DIGESTS = {
    "chart": "b8fbcf16cf0c0116a2dfcfb47aa0516afc280dfab081f2e4ff970119c07269e0",
    "tree": "0d3bcd6da3717fd7e54fb196a8bb857ed2f0b0dd22c058e2203ff44ff6586be4",
}
if sys.version_info >= (3, 12):
    TRAINED_DIGESTS = {
        "chart": "a541b535a4bb4dd9311fea95b8319a09a5e7eb1b671e13d02068014cf735623d",
        "tree": "723660e2e4786fe925ad53b4bf60b63dd3a3dec5bcd4d4b0c77d779d3981f5fc",
    }


@pytest.mark.parametrize("kind", sorted(TRAINED_DIGESTS))
def test_trained_models_match_recorded_digest(trained_chart_tree, kind):
    """Every n-best of trained hier and tree models, byte for byte: the
    dyadic digests above cannot see a sum taken in another order."""
    decode, models, inputs, configs = trained_chart_tree[kind]
    digests = [nbest_digest(decode, models, inputs, configs, weights) for weights in TRAINED_WEIGHTS]
    assert hashlib.sha256(" ".join(digests).encode()).hexdigest() == TRAINED_DIGESTS[kind]


def shared_memo_cases():
    """Per decoder: a maker of fresh models, the decode, its inputs and its
    weights."""
    phrase_config = DecodeConfig(stack_size=5, nbest=5)
    chart_config = ChartConfig(cell_beam=10, nbest=5)
    tree_config = TreeConfig(k_best_per_node=10, nbest=5)
    return {
        "phrase": (
            lambda: exact_models(MSLR, 17),
            lambda sent, models, weights: decode_phrase(sent, models, weights, phrase_config),
            SEARCH_SENTENCES + FLOOR_SENTENCES,
            EXACT_WEIGHTS,
        ),
        "chart": (
            lambda: ChartModels(chart_digest_models(29).rule_table, random_lm(order=3)),
            lambda sent, models, weights: decode_chart(sent, models, weights, chart_config),
            CHART_SENTENCES,
            CHART_TREE_WEIGHTS,
        ),
        "tree": (
            lambda: TreeModels(tree_digest_models(29).tree_rules, random_lm(order=3)),
            lambda sent, models, weights: decode_tree(sent, models, weights, tree_config),
            DIGEST_TREES,
            CHART_TREE_WEIGHTS,
        ),
    }


def nbest_record(hyps):
    return [(h.tokens, repr(h.score), h.features) for h in hyps]


class TestSharedLmMemo:
    """A decoder's models keep one LM memo for every decode, and what it
    holds never changes a result: the n-best list of every input is the one
    it gets on cold models."""

    @pytest.mark.parametrize("kind", ["phrase", "chart", "tree"])
    def test_nbest_does_not_depend_on_earlier_decodes(self, kind):
        make, decode, inputs, weights = shared_memo_cases()[kind]
        other = weights.replaced("lm", 0.25 * weights.lm).replaced("word_penalty", -1.5)
        cold = [nbest_record(decode(sent, make(), weights)) for sent in inputs]

        after_others = []
        for pos, sent in enumerate(inputs):
            models = make()
            for earlier in inputs[:pos] + inputs[pos + 1:]:
                decode(earlier, models, weights)
            after_others.append(nbest_record(decode(sent, models, weights)))
        assert after_others == cold

        models = make()
        backwards = [nbest_record(decode(sent, models, weights)) for sent in reversed(inputs)]
        assert backwards[::-1] == cold

        models = make()
        reweighted = []
        for sent in inputs:
            decode(sent, models, other)
            reweighted.append(nbest_record(decode(sent, models, weights)))
        assert reweighted == cold

    @pytest.mark.parametrize("kind", ["phrase", "chart", "tree"])
    def test_memo_restarts_past_its_bound(self, kind, monkeypatch):
        make, decode, inputs, weights = shared_memo_cases()[kind]
        cold = [nbest_record(decode(sent, make(), weights)) for sent in inputs]
        monkeypatch.setattr(lm_module, "MEMO_TRANSITIONS", 1)
        models = make()
        memos = []
        bounded = []
        for sent in inputs:
            bounded.append(nbest_record(decode(sent, models, weights)))
            memos.append(models._lm_states)  # the memo this decode used
        assert bounded == cold
        # each decode left more than one transition, so the next began anew
        assert len({id(memo) for memo in memos}) == len(inputs)

    def test_memo_follows_the_models_lm(self):
        models = exact_models(MSD)
        memo = models.lm_states()
        assert models.lm_states() is memo and memo.lm is models.lm
        models.lm = random_lm(order=3)
        assert models.lm_states() is not memo and models.lm_states().lm is models.lm


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
