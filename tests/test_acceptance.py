"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
summary. Every tolerance is pinned here; timings are wall-clock budgets.
"""

import json
import random
import time

import pytest

from conftest import A_STONE_CONLLU, A_STONE_NESTED, FIG_3_8_CONLLU
from decoder_oracle import decode_oracle
from oracles import consistent_span_pairs, corpus_bleu_reference, ibm1_em_reference
from smtkit.align import TTable, train_ibm1
from smtkit.corpus import SentencePair
from smtkit.decoder import (
    ChartConfig,
    ChartModels,
    DecodeConfig,
    FeatureWeights,
    PhraseModels,
    TreeModels,
    decode_chart,
    decode_phrase,
    decode_tree,
    score_derivation,
)
from smtkit.deptree import TreeShape, is_projective, parse_conllu, to_nested_tree
from smtkit.evaluate import bleu, meteor_lite, precision_recall_f, wer
from smtkit.lm import read_arpa, train_lm, write_arpa
from smtkit.phrasetab import PhraseEntry, extract_phrases
from smtkit.ruletab import NT, build_tree_rule_table, extract_hier_rules, glue_rules
from smtkit.tune import NBestPool, optimize_pool, pool_bleu


def report(number, description, elapsed, budget):
    status = "PASS" if elapsed <= budget else "SLOW"
    print(f"[criterion {number:2d}] {status} {description} ({elapsed:.3f}s, budget {budget}s)")
    assert elapsed <= budget, f"criterion {number} exceeded its {budget}s budget"


def test_criterion_01_mle_lexical_distribution():
    start = time.perf_counter()
    counts = {"good": {"अच्छा": 172.0, "नीक": 145.0, "बढ़िया": 138.0, "नीमन": 73.0, "ठीक": 7.0}}
    table = TTable.from_counts(counts, {"good": 555.0})
    expected = {"अच्छा": 0.309, "नीक": 0.261, "बढ़िया": 0.249, "नीमन": 0.131, "ठीक": 0.012}
    for word, value in expected.items():
        assert abs(table.prob(word, "good") - value) <= 0.001
    elapsed = time.perf_counter() - start
    report(1, "MLE lexical distribution matches reference values +-0.001", elapsed, 0.001)


def test_criterion_02_precision_recall_worked_example():
    ref = "हम बहरे खेले नाई जाब ।".split()
    systems = {
        "A": ("हमें के भी बहरे ना जाई ।".split(), 14.28, 16.6),
        "B": ("हम ना बाहर जाब के चाही ।".split(), 28.57, 33.33),
        "C": (list(ref), 100.0, 100.0),
    }
    start = time.perf_counter()
    for name, (hyp, expected_p, expected_r) in systems.items():
        p, r, _ = precision_recall_f(hyp, ref)
        # the reference figures truncate (16.66.. appears as 16.6)
        assert abs(p * 100 - expected_p) < 0.1, name
        assert abs(r * 100 - expected_r) < 0.1, name
    elapsed = time.perf_counter() - start
    report(2, "precision/recall percentages match the worked example", elapsed, 0.001)


def test_criterion_03_ibm1_em_against_oracle(toy_pairs):
    start = time.perf_counter()
    table, likelihoods = train_ibm1(toy_pairs, iterations=50, epsilon=0.0)
    assert all(b - a >= -1e-12 for a, b in zip(likelihoods, likelihoods[1:]))
    assert table.prob("das", "the") >= 0.99
    ref_t, ref_lls = ibm1_em_reference([(p.source, p.target) for p in toy_pairs], 50)
    for (e, f), p in ref_t.items():
        assert abs(table.prob(f, e) - p) <= 1e-9
    assert likelihoods == pytest.approx(ref_lls, abs=1e-9)
    elapsed = time.perf_counter() - start
    report(3, "IBM-1 EM monotone and equal to brute-force oracle", elapsed, 1.0)


def test_criterion_04_phrase_extraction_oracle():
    rng = random.Random(42)
    start = time.perf_counter()
    for _ in range(1000):
        n_src = rng.randint(1, 5)
        n_tgt = rng.randint(1, 5)
        links = {
            (rng.randrange(n_src), rng.randrange(n_tgt))
            for _ in range(rng.randint(0, n_src * n_tgt))
        }
        max_len = rng.randint(1, 5)
        pair = SentencePair([f"s{i}" for i in range(n_src)], [f"t{j}" for j in range(n_tgt)])
        got = extract_phrases(pair, links, max_len)
        want = consistent_span_pairs(n_src, n_tgt, links, max_len)
        assert got == want
    elapsed = time.perf_counter() - start
    report(4, "phrase extraction set-equals exhaustive oracle on 1000 instances", elapsed, 10.0)


def _decoder_fixture_models(seed=11):
    rng = random.Random(seed)
    src = [f"s{i}" for i in range(8)]
    tgt = [f"t{i}" for i in range(8)]
    corpus = [[rng.choice(tgt) for _ in range(rng.randint(2, 6))] for _ in range(150)]
    model = train_lm(corpus, order=2)
    entries = []
    for s in src:
        for t in rng.sample(tgt, 3):
            scores = tuple(rng.uniform(0.05, 1.0) for _ in range(4))
            entries.append(PhraseEntry((s,), (t,), scores, frozenset({(0, 0)}), (1, 1, 1)))
    for _ in range(12):
        s = tuple(rng.sample(src, 2))
        t = tuple(rng.sample(tgt, rng.randint(1, 2)))
        scores = tuple(rng.uniform(0.05, 1.0) for _ in range(4))
        entries.append(PhraseEntry(s, t, scores, frozenset({(0, 0)}), (1, 1, 1)))
    return src, PhraseModels(entries, model)


def test_criterion_05_decoder_exactness():
    src_words, models = _decoder_fixture_models()
    weights = FeatureWeights()
    unlimited = DecodeConfig(stack_size=None, distortion_limit=None, nbest=1)
    rng = random.Random(99)
    start = time.perf_counter()
    for _ in range(200):
        sentence = [rng.choice(src_words + ["oov-word"]) for _ in range(rng.randint(1, 4))]
        beam = decode_phrase(sentence, models, weights, unlimited)[0]
        _, oracle_score = decode_oracle(sentence, models, weights)
        assert abs(beam.score - oracle_score) <= 1e-9
        rederived = score_derivation(beam.steps, models, weights, len(sentence))
        assert abs(rederived - beam.score) <= 1e-9
        assert abs(weights.dot(beam.features) - beam.score) <= 1e-9
    elapsed = time.perf_counter() - start
    report(5, "unconstrained beam equals oracle on 200 sentences; scores re-derive", elapsed, 60.0)


def test_criterion_06_hierarchical_rule_and_reordering():
    start = time.perf_counter()
    pair = SentencePair(["is", "he", "going"], ["जात", "हऽ", "ऊ"])
    links = {(0, 0), (2, 1), (1, 2)}
    rules = extract_hier_rules(pair, links)
    target = ("X", ("is", NT(1), "going"), ("जात", "हऽ", NT(1)))
    assert target in {r.key() for r in rules}

    gap_rule = next(r for r in rules if r.key() == target)
    he_rule = next(r for r in rules if r.key() == ("X", ("he",), ("ऊ",)))
    lm_fixture = train_lm([["जात", "हऽ", "ऊ"]] * 3, order=2)
    chart = ChartModels([gap_rule, he_rule] + glue_rules(), lm_fixture)
    hyp = decode_chart(["is", "he", "going"], chart, FeatureWeights(), ChartConfig())[0]
    assert hyp.tokens == ("जात", "हऽ", "ऊ")  # 'he' crossed over 'going'
    elapsed = time.perf_counter() - start
    report(6, "gap rule extracted and chart decoder reorders through it", elapsed, 1.0)


def test_criterion_07_lm_normalization_and_arpa():
    rng = random.Random(5)
    vocab = [f"w{i}" for i in range(2000)]
    corpus = []
    total = 0
    while total < 100_000:
        sent = [vocab[min(int(rng.expovariate(1 / 300)), 1999)] for _ in range(rng.randint(3, 12))]
        corpus.append(sent)
        total += len(sent)
    start = time.perf_counter()
    model = train_lm(corpus, order=3)

    all_words = [w for w in model.vocab.strings() if w not in ("<null>", "<s>")]
    histories = [()]
    histories += rng.sample(list(model.backoffs[1]), 49)
    histories += rng.sample(list(model.backoffs[2]), 50)
    for history in histories:
        words = [model.vocab.string_of(i) for i in history]
        mass = sum(10 ** model.score_word(words, w) for w in all_words)
        assert abs(mass - 1.0) <= 1e-6

    again = read_arpa(write_arpa(model))
    for k in range(1, 4):
        ours = model.items(k)
        theirs = again.items(k)
        assert len(ours) == len(theirs)
        for (w1, p1, b1), (w2, p2, b2) in zip(ours, theirs):
            assert w1 == w2 and abs(p1 - p2) <= 1e-6 and abs((b1 or 0) - (b2 or 0)) <= 1e-6

    logp = 0.0
    tokens = 0
    for sent in corpus[:500]:
        total_lp, _ = model.score_sentence(sent)
        logp += total_lp
        tokens += len(sent) + 1
    perplexity = 10 ** (-logp / tokens)
    assert perplexity < len(all_words)  # uniform baseline
    elapsed = time.perf_counter() - start
    report(7, "LM normalized to 1e-6, ARPA round-trips, beats uniform", elapsed, 30.0)


def test_criterion_08_metric_identities_and_bleu_oracle():
    start = time.perf_counter()
    sentence = "हम बहरे खेले नाई जाब ।".split()
    assert bleu([sentence], [sentence]).score == 1.0
    assert wer(sentence, sentence) == 0.0
    single = meteor_lite(["x"], ["x"])
    assert single.score == pytest.approx(1 - 0.5)

    rng = random.Random(8)
    vocab = [f"w{i}" for i in range(15)]
    refs = []
    hyps = []
    for _ in range(100):
        ref = [rng.choice(vocab) for _ in range(rng.randint(4, 12))]
        hyp = [t if rng.random() < 0.65 else rng.choice(vocab) for t in ref]
        refs.append(ref)
        hyps.append(hyp)
    assert abs(bleu(hyps, refs).score - corpus_bleu_reference(hyps, refs)) <= 1e-9
    elapsed = time.perf_counter() - start
    report(8, "metric identities hold; corpus BLEU equals n-gram oracle", elapsed, 5.0)


def test_criterion_09_mert_winning_ratio():
    start = time.perf_counter()
    pool = NBestPool()
    refs = []
    for i in range(4):
        ref = [f"g{i}", "x", "y", "z"]
        refs.append(ref)
        pool.add(i, tuple(ref), {"phi_t_given_s": 1.0})
        pool.add(i, (f"b{i}", "q", "r", "s"), {"lm": 2.0})
        pool.add(i, (f"c{i}", "n", "o", "p"), {"lm": -2.0})

    # grid-search oracle over the 2-D weight simplex: A wins iff l1/l2 > 2
    zero = {name: 0.0 for name in FeatureWeights.names()}
    boundary = None
    previous = 0.0
    for step in range(1, 1000):
        l1 = step / 1000.0
        weights = FeatureWeights(**{**zero, "phi_t_given_s": l1, "lm": 1.0 - l1})
        value = pool_bleu(pool, weights, refs)
        if value > previous:
            boundary = l1
        previous = value
    assert boundary is not None and abs(boundary / (1 - boundary) - 2.0) < 0.01

    start_weights = FeatureWeights(**{**zero, "phi_t_given_s": 1.0, "lm": 1.0})
    assert pool_bleu(pool, start_weights, refs) == 0.0
    tuned, best, accepted = optimize_pool(pool, refs, start_weights, random_restarts=3, seed=1)
    assert best == 1.0
    assert tuned.lm >= 0.0 and tuned.phi_t_given_s > 2.0 * tuned.lm
    assert accepted == sorted(accepted)
    elapsed = time.perf_counter() - start
    report(9, "MERT reaches the oracle-derived winning ratio; updates monotone", elapsed, 30.0)


def test_criterion_10_tree_pipeline():
    start = time.perf_counter()
    fig = parse_conllu(FIG_3_8_CONLLU)[0]
    assert len(fig.tokens) == 6 and next(t for t in fig.tokens if t.head == 0).form == "came"
    assert is_projective(fig)

    stone = parse_conllu(A_STONE_CONLLU)[0]
    assert to_nested_tree(stone) == A_STONE_NESTED

    # tree rules extracted from a fixed alignment reproduce the translation
    target = "एगो पत्थर , कहलस छोटन ।".split()
    links = {(0, 0), (1, 1), (2, 2), (3, 3), (6, 4), (7, 5)}
    pair = SentencePair([t.form for t in stone.tokens], target, source_tree=TreeShape.of(stone))
    table, skipped = build_tree_rule_table([pair], [{(i, j) for i, j in links}])
    assert skipped == 0
    lm_fixture = train_lm([target] * 3, order=2)
    hyp = decode_tree(stone, TreeModels(table, lm_fixture), FeatureWeights())[0]
    assert hyp.tokens == tuple(target)
    elapsed = time.perf_counter() - start
    report(10, "CoNLL-U parse, projectivity, nested tree and tree decode", elapsed, 1.0)


@pytest.mark.slow
def test_criterion_11_end_to_end_pipeline(tmp_path):
    from smtkit.cli import main
    from smtkit.synthdata import write_fixture_tree

    write_fixture_tree(train=1000, dev=40, test=100, seed=1, root=str(tmp_path))
    artifact_names = [
        "lm.arpa", "alignments.txt", "ttable-fwd.txt", "ttable-bwd.txt",
        "phrase-table.txt", "weights.txt", "test.nbest", "test.hyp",
        "test.detok", "report.txt",
    ]

    def run_once(tag, jobs):
        model_dir = tmp_path / tag
        config_path = tmp_path / f"{tag}.cfg"
        config_path.write_text(
            "\n".join(
                [
                    f"paths.train_source = {tmp_path}/train.src",
                    f"paths.train_target = {tmp_path}/train.tgt",
                    f"paths.dev_source = {tmp_path}/dev.src",
                    f"paths.dev_target = {tmp_path}/dev.tgt",
                    f"paths.test_source = {tmp_path}/test.src",
                    f"paths.test_target = {tmp_path}/test.tgt",
                    f"paths.mono_target = {tmp_path}/mono.tgt",
                    f"paths.model_dir = {model_dir}",
                    "align.iterations = 4",
                    "tune.enabled = true",
                    "tune.iterations = 2",
                    "tune.nbest = 20",
                    "eval.metrics = bleu,wer,prf,meteor",
                ]
            )
            + "\n",
            encoding="utf-8",
        )
        started = time.perf_counter()
        code = main(["--seed", "1", "--jobs", str(jobs), "pipeline", "--config", str(config_path)])
        duration = time.perf_counter() - started
        assert code == 0
        assert duration < 300.0, f"pipeline run took {duration:.1f}s"
        return {name: (model_dir / name).read_bytes() for name in artifact_names}, duration

    start = time.perf_counter()
    first, duration = run_once("run1", jobs=1)
    second, _ = run_once("run2", jobs=1)
    third, _ = run_once("run3", jobs=4)
    assert first == second, "re-run artifacts differ"
    assert first == third, "artifacts depend on --jobs"

    report_text = first["report.txt"].decode("utf-8")
    assert "bleu\t" in report_text and "wer\t" in report_text
    weights_text = first["weights.txt"].decode("utf-8")
    assert weights_text.count("iteration") >= 1
    manifest = json.loads((tmp_path / "run1" / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["artifacts"]
    elapsed = time.perf_counter() - start
    report(11, f"end-to-end pipeline deterministic (single run {duration:.1f}s)", elapsed, 900.0)
