import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arpa_reference import read_arpa as reference_read_arpa
from oracles import arpa_tables, backoff_reference_logprob, kn_reference_prob
from smtkit.cli import EXIT_OK, main
from smtkit.corpus import BOS, EOS, NULL, UNK
from smtkit.lm import LOG10_ZERO, LmError, read_arpa, train_lm, write_arpa
from smtkit.synthdata import write_fixture_tree


def predictable_vocab(model):
    return [w for w in model.vocab.strings() if w not in (NULL, BOS)]


def sum_over_vocab(model, history):
    return sum(10 ** model.score_word(list(history), w) for w in predictable_vocab(model))


@pytest.fixture(scope="module")
def random_corpus():
    rng = random.Random(7)
    words = [f"w{i}" for i in range(25)]
    return [
        [rng.choice(words) for _ in range(rng.randint(1, 10))] for _ in range(300)
    ]


@pytest.fixture(scope="module")
def trigram(random_corpus):
    return train_lm(random_corpus, order=3)


class TestTraining:
    def test_symmetric_continuations_equal(self):
        model = train_lm([["a", "b"], ["a", "c"]], order=2)
        assert model.score_word(["a"], "b") == pytest.approx(model.score_word(["a"], "c"))

    def test_unsmoothed_mle_reference_is_upper_bound(self):
        # hand count: history "a" continues to b once out of two
        model = train_lm([["a", "b"], ["a", "c"]], order=2)
        assert 10 ** model.score_word(["a"], "b") < 0.5

    def test_order_below_two_rejected(self):
        with pytest.raises(LmError):
            train_lm([["a"]], order=1)

    def test_empty_corpus_rejected(self):
        with pytest.raises(LmError):
            train_lm([], order=2)
        with pytest.raises(LmError):
            train_lm([[]], order=2)

    def test_fixed_discount_mode(self):
        model = train_lm([["a", "b"], ["a", "c"]], order=2, discount_mode="fixed")
        assert sum_over_vocab(model, ("a",)) == pytest.approx(1.0, abs=1e-6)

    def test_beats_uniform_baseline(self, random_corpus, trigram):
        vocab_size = len(predictable_vocab(trigram)) - 1  # <s> excluded already, drop <unk>? keep
        total_ppl = 0.0
        sample = random_corpus[:50]
        for sent in sample:
            _, ppl = trigram.score_sentence(sent)
            total_ppl += ppl
        assert total_ppl / len(sample) < vocab_size


class TestNormalization:
    def test_sampled_histories_sum_to_one(self, trigram):
        rng = random.Random(3)
        unigram_hists = [h for h in trigram.backoffs[1]]
        bigram_hists = [h for h in trigram.backoffs[2]]
        hists = rng.sample(unigram_hists, min(40, len(unigram_hists)))
        hists += rng.sample(bigram_hists, min(59, len(bigram_hists)))
        hists.append(())
        for hist in hists:
            words = tuple(trigram.vocab.string_of(i) for i in hist)
            assert sum_over_vocab(trigram, words) == pytest.approx(1.0, abs=1e-6)

    def test_prefix_closure(self, trigram):
        for k in (2, 3):
            for gram in trigram.probs[k]:
                assert gram[:-1] in trigram.probs[k - 1]

    def test_stored_probs_nonpositive(self, trigram):
        for k in (1, 2, 3):
            assert all(lp <= 0.0 for lp in trigram.probs[k].values())


class TestScoring:
    def test_seen_word_returns_stored_value(self, trigram):
        gram = next(iter(trigram.probs[3]))
        words = [trigram.vocab.string_of(i) for i in gram]
        assert trigram.score_word(words[:2], words[2]) == trigram.probs[3][gram]

    def test_oov_empty_history_is_unk(self, trigram):
        assert trigram.score_word([], "never-seen-word") == trigram.unk_logprob

    def test_matches_recursive_oracle(self, random_corpus, trigram):
        rng = random.Random(13)
        words = [f"w{i}" for i in range(25)] + ["zzz-oov"]
        for _ in range(30):
            hist = [rng.choice(words) for _ in range(rng.randint(0, 2))]
            word = rng.choice(words)
            expected = kn_reference_prob(random_corpus, 3, word, hist)
            got = 10 ** trigram.score_word(hist, word)
            assert got == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_score_ids_equals_recursive_backoff_reference(self):
        # order 4, so a query can back off through two stored histories
        rng = random.Random(17)
        words = [f"w{i}" for i in range(40)]
        corpus = [[rng.choice(words) for _ in range(rng.randint(2, 12))] for _ in range(400)]
        text = write_arpa(train_lm(corpus, order=4))
        model = read_arpa(text)
        probs, bows = arpa_tables(text)
        histories = [tuple(s[i : i + 3]) for s in corpus[:60] for i in range(len(s) - 2)]
        histories += [tuple(rng.choice(words) for _ in range(rng.randint(0, 3))) for _ in range(100)]
        two_level = 0
        for hist in histories:
            for word in rng.sample(words, 5) + ["zzz-oov", EOS]:
                expected = backoff_reference_logprob(probs, bows, 4, hist, word)
                assert model.score_word(hist, word) == expected
                if (
                    len(hist) == 3
                    and hist + (word,) not in probs
                    and hist[1:] + (word,) not in probs
                    and bows.get(hist)
                    and bows.get(hist[1:])
                ):
                    two_level += 1
        assert two_level >= 50

    def test_word_order_preference(self):
        # a model trained on one ordering prefers it over a shuffle
        corpus = [["इ", "घर", "छोट", "हऽ"]] * 3
        model = train_lm(corpus, order=3)
        good, _ = model.score_sentence(["इ", "घर", "छोट", "हऽ"])
        bad, _ = model.score_sentence(["छोट", "घर", "हऽ", "इ"])
        assert good > bad

    def test_empty_sentence_scores_only_eos(self, trigram):
        total, ppl = trigram.score_sentence([])
        assert total == trigram.score_word([BOS], EOS)
        assert ppl == pytest.approx(10 ** (-total))

    def test_log_additivity(self, trigram):
        total_ab, _ = trigram.score_sentence(["w1", "w2"])
        partial = trigram.score_word([BOS], "w1") + trigram.score_word([BOS, "w1"], "w2")
        eos = trigram.score_word(["w1", "w2"], EOS)
        assert total_ab == pytest.approx(partial + eos, abs=1e-12)

    def test_monotone_data_benefit(self, random_corpus):
        full = train_lm(random_corpus, order=3)
        half = train_lm(random_corpus[: len(random_corpus) // 2], order=3)
        def corpus_ppl(model):
            logp = 0.0
            tokens = 0
            for sent in random_corpus:
                total, _ = model.score_sentence(sent)
                logp += total
                tokens += len(sent) + 1
            return 10 ** (-logp / tokens)
        assert corpus_ppl(full) <= corpus_ppl(half)


class TestArpa:
    def test_round_trip(self, trigram):
        text = write_arpa(trigram)
        again = read_arpa(text)
        for k in (1, 2, 3):
            ours = trigram.items(k)
            theirs = again.items(k)
            assert len(ours) == len(theirs)
            for (w1, p1, b1), (w2, p2, b2) in zip(ours, theirs):
                assert w1 == w2
                assert p1 == pytest.approx(p2, abs=1e-6)
                assert (b1 or 0.0) == pytest.approx(b2 or 0.0, abs=1e-6)

    def test_scores_survive_round_trip(self, trigram, random_corpus):
        again = read_arpa(write_arpa(trigram))
        for sent in random_corpus[:10]:
            assert again.score_sentence(sent)[0] == pytest.approx(
                trigram.score_sentence(sent)[0], abs=1e-6
            )

    def test_count_mismatch_detected(self, trigram):
        text = write_arpa(trigram)
        lines = text.splitlines()
        lines[1] = "ngram 1=999999"
        with pytest.raises(LmError, match="1-grams"):
            read_arpa("\n".join(lines))

    def test_missing_header_rejected(self):
        with pytest.raises(LmError):
            read_arpa("\\1-grams:\n-1\ta\n\\end\\\n")

    def test_missing_end_rejected(self, trigram):
        text = write_arpa(trigram).replace("\\end\\", "")
        with pytest.raises(LmError, match="end"):
            read_arpa(text)

    def test_declared_sections(self, trigram):
        text = write_arpa(trigram)
        assert text.startswith("\\data\\\n")
        for k, count in enumerate(trigram.ngram_counts(), start=1):
            assert f"ngram {k}={count}" in text


class TestUnk:
    def test_unk_gets_positive_probability(self, trigram):
        assert trigram.unk_logprob > -99.0
        assert 10 ** trigram.unk_logprob > 0

    def test_unk_in_vocab(self, trigram):
        assert UNK in trigram.vocab.strings()

    def test_closed_vocabulary_scores_unknown_words_as_zero(self):
        # no <unk> unigram: an unknown word has probability 0, at any history
        closed = read_arpa(
            "\\data\\\nngram 1=3\nngram 2=1\n\n\\1-grams:\n-99\t<s>\t-0.5\n-0.3\t</s>\t0\n"
            "-0.3\tb\t-0.2\n\n\\2-grams:\n-0.1\t<s> b\n\n\\end\\\n"
        )
        assert closed.unk_logprob == LOG10_ZERO
        assert closed.score_word([], "zz") == LOG10_ZERO
        assert closed.score_word(["b"], "zz") == -0.2 + LOG10_ZERO
        assert closed.score_word([BOS], "b") == -0.1


def ngram_maxima(model):
    """Per word id, the larger of unk_logprob and every stored log10 p of an
    n-gram ending in the word: the ceiling by its definition."""
    best = {}
    for k in range(1, model.order + 1):
        for gram, logp in model.probs[k].items():
            best[gram[-1]] = max(best.get(gram[-1], logp), logp)
    return [max(model.unk_logprob, best.get(w, model.unk_logprob)) for w in range(len(model.vocab))]


def stored_histories(model):
    return {()} | {gram for k in range(1, model.order) for gram in model.probs[k]}


def assert_ceilings_hold(model, histories):
    ceilings = model.word_ceilings()
    assert ceilings == ngram_maxima(model)
    for history in histories:
        for word in range(len(model.vocab)):
            assert model.score_ids(tuple(history), word) <= ceilings[word]


def random_histories(model, rng, count=40):
    ids = range(len(model.vocab))
    return [[rng.choice(ids) for _ in range(rng.randint(0, model.order + 1))] for _ in range(count)]


# order 1, as read from an ARPA file that holds only 1-grams
UNIGRAM_ARPA = (
    "\\data\\\nngram 1=5\n\n\\1-grams:\n-99\t<s>\n-0.7\t</s>\n-0.4\ta\n-1.1\tb\n"
    "-2.5\t<unk>\n\n\\end\\\n"
)
# no <unk> unigram: an unknown word scores LOG10_ZERO plus back-off weights
CLOSED_ARPA = (
    "\\data\\\nngram 1=4\nngram 2=3\n\n\\1-grams:\n-99\t<s>\t-0.5\n-0.6\t</s>\t0\n"
    "-0.3\ta\t-0.2\n-0.5\tb\t-0.1\n\n\\2-grams:\n-0.1\t<s> a\n-0.2\ta b\n-0.05\tb </s>\n"
    "\n\\end\\\n"
)
# a positive back-off weight lifts p(b | a) above every stored value for b
POSITIVE_BACKOFF_ARPA = (
    "\\data\\\nngram 1=5\nngram 2=1\n\n\\1-grams:\n-99\t<s>\t0\n-0.5\t</s>\t0\n"
    "-1.0\ta\t0.5\n-0.3\tb\t0\n-2\t<unk>\t0\n\n\\2-grams:\n-0.2\ta </s>\n\n\\end\\\n"
)


class TestWordCeilings:
    """`word_ceilings` bounds `score_ids` at every history, or is None."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=6), min_size=1, max_size=12),
        st.integers(min_value=2, max_value=4),
        st.sampled_from(["counts_of_counts", "fixed"]),
        st.randoms(use_true_random=False),
    )
    def test_trained_models(self, corpus, order, discount_mode, rng):
        model = train_lm(corpus, order=order, discount_mode=discount_mode)
        assert_ceilings_hold(model, stored_histories(model) | {tuple(h) for h in random_histories(model, rng)})

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([UNIGRAM_ARPA, CLOSED_ARPA]), st.randoms(use_true_random=False))
    def test_hand_written_models(self, text, rng):
        model = read_arpa(text)
        assert_ceilings_hold(model, stored_histories(model) | {tuple(h) for h in random_histories(model, rng)})

    def test_closed_vocabulary_ceiling_of_unknown_words(self):
        model = read_arpa(CLOSED_ARPA)
        assert model.word_ceilings()[model.vocab.id_of("zz")] == LOG10_ZERO

    def test_positive_backoff_gives_none(self):
        model = read_arpa(POSITIVE_BACKOFF_ARPA)
        a, b = model.vocab.id_of("a"), model.vocab.id_of("b")
        assert model.score_ids((a,), b) > ngram_maxima(model)[b]
        assert model.word_ceilings() is None

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_values_give_none(self, value):
        # read_arpa rejects these numbers, so the models are changed in code
        unigram = read_arpa(UNIGRAM_ARPA)
        unigram.probs[1][(unigram.vocab.id_of("b"),)] = float(value)
        assert unigram.word_ceilings() is None
        closed = read_arpa(CLOSED_ARPA)
        closed.backoffs[1][(closed.vocab.id_of("a"),)] = float(value)
        assert closed.word_ceilings() is None


# words shared by every section, so that an n-gram's words recur across orders
ARPA_WORDS = [BOS, EOS, UNK, "a", "b", "c", "long-word"]
BLANK_LINES = ["", " ", "\t"]


@st.composite
def arpa_lines(draw):
    """A well-formed ARPA text of order 1 to 5 as (role, k, line) triples: a
    role of "head", "count", "blank", "section", "entry" or "end"; k is the
    n-gram size of a count, section or entry line. Blank and whitespace-only
    lines go before the header and anywhere after the count lines; an
    n-gram may appear twice in its section."""
    order = draw(st.integers(min_value=1, max_value=5))
    logps = st.floats(max_value=0.0, allow_nan=False, allow_infinity=False)
    bows = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([0.0, -0.0])
    sections = [
        draw(st.lists(
            st.tuples(logps, st.lists(st.sampled_from(ARPA_WORDS), min_size=k, max_size=k), bows),
            min_size=1 if k == 1 else 0, max_size=6,
        ))
        for k in range(1, order + 1)
    ]
    body = [("blank", 0, "")]
    for k, entries in enumerate(sections, start=1):
        body.append(("section", k, f"\\{k}-grams:"))
        for logp, words, bow in entries:
            fields = [repr(logp), " ".join(words)] + ([repr(bow)] if k < order else [])
            body.append(("entry", k, "\t".join(fields)))
    body.append(("end", 0, "\\end\\"))
    blank = st.tuples(st.just("blank"), st.just(0), st.sampled_from(BLANK_LINES))
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        body.insert(draw(st.integers(min_value=1, max_value=len(body))), draw(blank))
    leading = draw(st.lists(blank, max_size=2))
    counts = [("count", k, f"ngram {k}={len(entries)}") for k, entries in enumerate(sections, start=1)]
    return leading + [("head", 0, "\\data\\")] + counts + body


def arpa_text(lines) -> str:
    return "\n".join(line for _, _, line in lines) + "\n"


def read_outcome(reader, text):
    """The model `reader` reads from `text`, as the exact reprs of its tables
    in insertion order and its vocabulary, or the message of its LmError."""
    try:
        model = reader(text)
    except LmError as exc:
        return str(exc)
    return (
        model.order,
        [repr(list(table.items())) for table in model.probs],
        [repr(list(table.items())) for table in model.backoffs],
        model.vocab.strings(),
    )


def pick(lines, draw, role):
    """The index of a line with role `role`."""
    return draw(st.sampled_from([i for i, (found, _, _) in enumerate(lines) if found == role]))


def set_field(lines, index, field, value):
    role, k, line = lines[index]
    fields = line.split("\t")
    fields[field] = value
    lines[index] = (role, k, "\t".join(fields))


# the numbers that make a value non-numeric, non-finite or a positive log10 probability
BAD_VALUES = {
    "non-numeric value": ["abc", "1,5", "--1", "0x1"],
    "non-finite value": ["nan", "inf", "-inf", "NaN", "-Infinity"],
    "positive log10 probability": ["0.5", "1e-300", "3"],
}
ARPA_DEFECTS = [
    "bad count line", "undeclared section", "wrong field count", "wrong token count",
    "non-numeric value", "non-finite value", "positive log10 probability",
    "data before any section", "missing end", "mismatched declared count",
]


def inject_defect(lines, defect, draw):
    """`lines` with one defect of kind `defect`, a key of ARPA_DEFECTS."""
    lines = list(lines)
    order = max(k for role, k, _ in lines if role == "count")
    if defect == "bad count line":
        i = pick(lines, draw, "count")
        k = lines[i][1]
        lines[i] = ("count", k, draw(st.sampled_from(
            ["ngram x=1", f"ngram 0={k}", f"ngram {k}=-1", f"ngram {k}", f"count {k}=1", f"ngram {k}=1.5"]
        )))
    elif defect == "undeclared section":
        i = pick(lines, draw, "section")
        lines[i] = ("section", 0, draw(st.sampled_from(
            [f"\\{order + 1}-grams:", "\\x-grams:", "\\-grams:", "\\0-grams:"]
        )))
    elif defect == "wrong field count":
        i = pick(lines, draw, "entry")
        role, k, line = lines[i]
        fields = line.split("\t")
        fields = draw(st.sampled_from([fields + ["-1.5"], fields[:-1] if k < order else fields[:1]]))
        lines[i] = (role, k, "\t".join(fields))
    elif defect == "wrong token count":
        i = pick(lines, draw, "entry")
        words = lines[i][2].split("\t")[1]
        shorter = [words.rpartition(" ")[0]] if " " in words else []
        set_field(lines, i, 1, draw(st.sampled_from([words + " a", " " + words] + shorter)))
    elif defect in BAD_VALUES:
        i = pick(lines, draw, "entry")
        fields = [0, 2] if lines[i][1] < order and defect != "positive log10 probability" else [0]
        set_field(lines, i, draw(st.sampled_from(fields)), draw(st.sampled_from(BAD_VALUES[defect])))
    elif defect == "data before any section":
        first = next(i for i, (role, _, _) in enumerate(lines) if role == "section")
        lines.insert(first, lines[pick(lines, draw, "entry")])
    elif defect == "missing end":
        del lines[pick(lines, draw, "end")]
    else:  # a declared count that does not match its section
        i = pick(lines, draw, "count")
        k, count = lines[i][1], int(lines[i][2].partition("=")[2])
        wrong = draw(st.sampled_from([count + 1, count + 7] + ([count - 1] if count else [])))
        lines[i] = ("count", k, f"ngram {k}={wrong}")
    return lines


class TestReaderMatchesReference:
    """`read_arpa` reads what the line-by-line reader in `arpa_reference`
    reads: the same tables in the same order, the same vocabulary ids, and on
    malformed text the same first error."""

    @settings(max_examples=200, deadline=None)
    @given(arpa_lines())
    def test_same_model(self, lines):
        text = arpa_text(lines)
        found = read_outcome(read_arpa, text)
        assert not isinstance(found, str), found
        assert found == read_outcome(reference_read_arpa, text)

    @settings(max_examples=300, deadline=None)
    @given(arpa_lines(), st.sampled_from(ARPA_DEFECTS), st.data())
    def test_same_error(self, lines, defect, data):
        text = arpa_text(inject_defect(lines, defect, data.draw))
        expected = read_outcome(reference_read_arpa, text)
        assert isinstance(expected, str), defect
        assert read_outcome(read_arpa, text) == expected

    @settings(max_examples=200, deadline=None)
    @given(arpa_lines(), st.data())
    def test_any_line_replaced(self, lines, data):
        """Any one line replaced by a line of ARPA-like fragments reads the
        same, model or error."""
        fragment = st.sampled_from(["\\", "\t", " ", "ngram", "=", "-grams:", "1", "-0.5", "a", "end", "data"])
        lines = list(lines)
        lines[data.draw(st.integers(min_value=0, max_value=len(lines) - 1))] = (
            "", 0, "".join(data.draw(st.lists(fragment, max_size=8)))
        )
        text = arpa_text(lines)
        assert read_outcome(read_arpa, text) == read_outcome(reference_read_arpa, text)

    @pytest.mark.parametrize("text", ["", "\n \n", "\\data\\\n", "\\data\\\n\n", "\\data\\\nngram 1=0\n"])
    def test_truncated_texts(self, text):
        assert read_outcome(read_arpa, text) == read_outcome(reference_read_arpa, text)

    @pytest.mark.parametrize("kind, order", [("phrase", 3), ("hier", 2), ("tree", 5)])
    def test_pipeline_models(self, kind, order, tmp_path):
        fixture = tmp_path / "corpus"
        write_fixture_tree(train=40, dev=6, test=5, seed=2, root=str(fixture))
        config = [
            f"paths.train_source = {fixture}/train.src",
            f"paths.train_target = {fixture}/train.tgt",
            f"paths.test_source = {fixture}/test.src",
            f"paths.test_target = {fixture}/test.tgt",
            f"paths.model_dir = {tmp_path}/model",
            "align.iterations = 1",
            f"decoder.kind = {kind}",
            f"lm.order = {order}",
            "tune.enabled = false",
        ]
        if kind == "tree":
            config += [f"paths.{split}_trees = {fixture}/{split}.conllu" for split in ("train", "test")]
        (tmp_path / "pipeline.cfg").write_text("\n".join(config) + "\n", encoding="utf-8")
        assert main(["pipeline", "--config", str(tmp_path / "pipeline.cfg")]) == EXIT_OK
        text = (tmp_path / "model" / "lm.arpa").read_text(encoding="utf-8")
        found = read_outcome(read_arpa, text)
        assert found[0] == order
        assert found == read_outcome(reference_read_arpa, text)
