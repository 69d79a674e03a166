import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import em_reference
from oracles import ibm1_em_reference, ibm2_em_reference, viterbi_reference
from smtkit import corpus
from smtkit.align import (
    AlignError,
    NULL_WORD,
    TTable,
    _cell_layout,
    format_links,
    DistortionTable,
    parse_links,
    read_links,
    read_ttable,
    symmetrize,
    train_ibm1,
    train_ibm2,
    viterbi_align,
    write_ttable,
)
from smtkit.cli import _alignments_for
from smtkit.corpus import SentencePair
from smtkit.synthdata import write_fixture_tree


def assert_rows_normalized(ttable, tol=1e-9):
    for src in ttable.sources():
        assert sum(ttable.row(src).values()) == pytest.approx(1.0, abs=tol)


# A source word repeated within a sentence ("the", "a"), a repeated target
# word ("ein", "hund", "die") and five sentence lengths per side, so that the
# E-step's repeated cells and its per-geometry distortion rows are exercised.
EM_PAIRS = [
    SentencePair(["the", "dog", "sees", "the", "cat"], ["der", "hund", "sieht", "die", "katze"]),
    SentencePair(["the", "cat"], ["die", "katze"]),
    SentencePair(["a", "dog", "a", "dog"], ["ein", "hund", "ein", "hund"]),
    SentencePair(["dog"], ["hund"]),
    SentencePair(["the", "cat", "sees"], ["die", "katze", "sieht", "die"]),
    SentencePair(["a", "cat", "sees", "the", "dog", "."], ["eine", "katze", "sieht", "den", "hund"]),
]


def swapped(pairs):
    return [SentencePair(p.target, p.source) for p in pairs]


def assert_table_matches(table, ref_t):
    assert {(e, f) for e in table.sources() for f in table.row(e)} == set(ref_t)
    for (e, f), p in ref_t.items():
        assert table.prob(f, e) == pytest.approx(p, abs=1e-9)


def assert_same_rows(table, expected):
    """The same rows in the same order, each with the same keys in the same
    order and equal floats."""
    assert list(table) == list(expected)
    for key, row in expected.items():
        assert list(table[key].items()) == list(row.items()), key


def assert_same_em(pairs, init_pairs=None, iterations=5, epsilon=0.0):
    """Model 1 on `pairs`, then Model 2 on them from Model 1 trained on
    `init_pairs` (default `pairs`), equal to em_reference's dict-based EM."""
    table, lls = train_ibm1(pairs, iterations, epsilon)
    ref_table, ref_lls = em_reference.train_ibm1(pairs, iterations, epsilon)
    assert_same_rows(table.table, ref_table.table)
    assert lls == ref_lls
    init = table if init_pairs is None else train_ibm1(init_pairs, iterations, epsilon)[0]
    table, dist, lls = train_ibm2(pairs, init, iterations, epsilon)
    ref_table, ref_dist, ref_lls = em_reference.train_ibm2(pairs, init, iterations, epsilon)
    assert_same_rows(table.table, ref_table.table)
    assert_same_rows(dist.table, ref_dist.table)
    assert lls == ref_lls


def covered_by(table, pairs):
    """The pairs whose every source word has a row in `table`."""
    return [p for p in pairs if all(src in table.table for src in p.source)]


def has_missing_cell(table, pairs):
    return any(tgt not in table.row(src) for p in pairs for src in p.source for tgt in p.target)


class TestExactOrderEm:
    """The cell-id EM returns exactly the dict-based EM's floats, row order
    and key order (em_reference.py), on whatever interpreter runs the test."""

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_em_pairs(self, direction):
        pairs = EM_PAIRS if direction == "forward" else swapped(EM_PAIRS)
        assert_same_em(pairs, iterations=6)
        assert_same_em(pairs, iterations=10, epsilon=1e-6)

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_fixture_corpus(self, tmp_path, direction):
        paths = write_fixture_tree(300, 5, 5, seed=41, root=str(tmp_path))
        pairs = corpus.clean(corpus.read_parallel(paths["train.src"], paths["train.tgt"]))
        if direction == "backward":
            pairs = swapped(pairs)
        assert len(pairs) == 300
        assert_same_em(pairs, iterations=4, epsilon=1e-6)
        # Model 1 from the first 100 pairs leaves cells that start at PROB_FLOOR
        init, _ = train_ibm1(pairs[:100], 4)
        rest = covered_by(init, pairs)
        assert len(rest) > 100 and has_missing_cell(init, rest)
        assert_same_em(rest, init_pairs=pairs[:100], iterations=4)

    @pytest.mark.parametrize("null_first", [False, True])
    def test_repeated_target_words_share_one_tuple(self, null_first):
        # a repeated target word, new in its pair ("x" of the first pair) or
        # met before, reads its first occurrence's ids, so the E-steps sum
        # the same ids in the same order as with a tuple per occurrence
        pairs = [
            SentencePair(["a", "b"], ["x", "y", "x", "x"]),
            SentencePair(["b", "b", "c"], ["y", "z", "y", "."]),
            SentencePair(["a", "c"], [".", "x", ".", "z", "."]),
        ]
        _, layout = _cell_layout(pairs, null_first)
        for pair, targets in zip(pairs, layout):
            first = {}
            for word, ids in zip(pair.target, targets):
                assert first.setdefault(word, ids) is ids
            assert len({id(ids) for ids in targets}) == len(set(pair.target))
        for side in (pairs, swapped(pairs)):
            assert_same_em(side, iterations=5)
            assert_same_em(side, iterations=8, epsilon=1e-6)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.lists(st.sampled_from("abcd"), min_size=0, max_size=5),
                st.lists(st.sampled_from("wxyz"), min_size=1, max_size=5),
            ),
            min_size=1,
            max_size=8,
        ),
        st.integers(1, 6),
        st.sampled_from([0.0, 1e-6, 1e-2]),
        st.integers(1, 8),
    )
    def test_random_corpora(self, raw, iterations, epsilon, prefix_len):
        pairs = [SentencePair(s, t) for s, t in raw]
        assert_same_em(pairs, iterations=iterations, epsilon=epsilon)
        prefix = pairs[:prefix_len]
        init, _ = train_ibm1(prefix, iterations, epsilon)
        assert_same_em(covered_by(init, pairs), init_pairs=prefix, iterations=iterations, epsilon=epsilon)


class TestIbm1:
    def test_convergence_on_toy_corpus(self, toy_pairs):
        table, lls = train_ibm1(toy_pairs, iterations=100, epsilon=0.0)
        assert table.prob("das", "the") >= 0.99
        assert table.prob("haus", "house") >= 0.99

    def test_log_likelihood_non_decreasing(self, toy_pairs):
        _, lls = train_ibm1(toy_pairs, iterations=50, epsilon=0.0)
        assert all(b - a >= -1e-12 for a, b in zip(lls, lls[1:]))

    def test_matches_dense_reference_em(self, toy_pairs):
        table, lls = train_ibm1(toy_pairs, iterations=20, epsilon=0.0)
        ref_pairs = [(p.source, p.target) for p in toy_pairs]
        ref_t, ref_lls = ibm1_em_reference(ref_pairs, 20)
        for (e, f), p in ref_t.items():
            assert table.prob(f, e) == pytest.approx(p, abs=1e-9)
        assert lls == pytest.approx(ref_lls, abs=1e-9)

    def test_single_pair_normalization(self):
        table, _ = train_ibm1([SentencePair(["a"], ["x"])], iterations=1)
        assert sum(table.row("a").values()) == pytest.approx(1.0, abs=1e-9)
        assert_rows_normalized(table)

    def test_rows_normalized_after_every_m_step(self, toy_pairs):
        for iters in (1, 2, 5):
            table, _ = train_ibm1(toy_pairs, iterations=iters, epsilon=0.0)
            assert_rows_normalized(table)

    def test_early_stop(self, toy_pairs):
        _, lls = train_ibm1(toy_pairs, iterations=500, epsilon=1e-3)
        assert len(lls) < 500

    def test_rejects_bad_input(self):
        with pytest.raises(AlignError):
            train_ibm1([], iterations=5)
        with pytest.raises(AlignError):
            train_ibm1([SentencePair(["a"], ["x"])], iterations=0)

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_matches_dense_reference_with_repeated_words(self, direction):
        pairs = EM_PAIRS if direction == "forward" else swapped(EM_PAIRS)
        table, lls = train_ibm1(pairs, iterations=6, epsilon=0.0)
        ref_t, ref_lls = ibm1_em_reference([(p.source, p.target) for p in pairs], 6)
        assert_table_matches(table, ref_t)
        assert lls == pytest.approx(ref_lls, abs=1e-9)

    def test_empty_side_names_the_pair(self):
        pairs = [SentencePair(["a"], ["x"]), SentencePair(["b"], ["y"]), SentencePair(["c"], [])]
        with pytest.raises(AlignError, match=r"sentence pair 3 .*smtkit clean"):
            train_ibm1(pairs, iterations=2)


class TestIbm2:
    def test_monotone_corpus_prefers_diagonal(self):
        rng = random.Random(1)
        words = ["u", "v", "w"]
        pairs = []
        for _ in range(60):
            sent = [rng.choice(words) for _ in range(2)]
            pairs.append(SentencePair(list(sent), [f"{t}'" for t in sent]))
        t1, _ = train_ibm1(pairs, iterations=10)
        t2, dist, lls = train_ibm2(pairs, t1, iterations=10)
        # target position j aligns to source position j+1 (0 is NULL)
        for j in (0, 1):
            row = {i: dist.prob(i, j, 2, 2) for i in range(3)}
            assert max(row, key=row.get) == j + 1

    def test_likelihood_monotone(self, toy_pairs):
        t1, _ = train_ibm1(toy_pairs, iterations=5)
        _, _, lls = train_ibm2(toy_pairs, t1, iterations=30, epsilon=0.0)
        assert all(b - a >= -1e-12 for a, b in zip(lls, lls[1:]))

    def test_zero_iterations_rejected(self, toy_pairs):
        t1, _ = train_ibm1(toy_pairs, iterations=1)
        with pytest.raises(AlignError):
            train_ibm2(toy_pairs, t1, iterations=0)

    def test_vocabulary_mismatch_rejected(self, toy_pairs):
        foreign = TTable({"other": {"x": 1.0}})
        with pytest.raises(AlignError, match="cover"):
            train_ibm2(toy_pairs, foreign, iterations=1)

    def test_distortion_rows_normalized(self, toy_pairs):
        t1, _ = train_ibm1(toy_pairs, iterations=5)
        _, dist, _ = train_ibm2(toy_pairs, t1, iterations=5)
        for (j, l_f, l_e), row in dist.table.items():
            assert sum(row.values()) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_matches_dense_reference_with_repeated_words(self, direction):
        pairs = EM_PAIRS if direction == "forward" else swapped(EM_PAIRS)
        t1, _ = train_ibm1(pairs, iterations=3, epsilon=0.0)
        t_init = {(e, f): p for e in t1.sources() for f, p in t1.row(e).items()}
        table, dist, lls = train_ibm2(pairs, t1, iterations=6, epsilon=0.0)
        ref_t, ref_a, ref_lls = ibm2_em_reference(
            [(p.source, p.target) for p in pairs], t_init, 6
        )
        assert_table_matches(table, ref_t)
        assert {(i, *key) for key, row in dist.table.items() for i in row} == set(ref_a)
        for (i, j, l_f, l_e), p in ref_a.items():
            assert dist.prob(i, j, l_f, l_e) == pytest.approx(p, abs=1e-9)
        assert lls == pytest.approx(ref_lls, abs=1e-9)

    def test_empty_side_names_the_pair(self, toy_pairs):
        t1, _ = train_ibm1(toy_pairs, iterations=1)
        with pytest.raises(AlignError, match=r"sentence pair 2 .*smtkit clean"):
            train_ibm2([toy_pairs[0], SentencePair(["the"], [])], t1, iterations=1)


class TestViterbi:
    def test_matches_direct_argmax(self):
        t1, _ = train_ibm1(EM_PAIRS, iterations=3)
        t2, dist, _ = train_ibm2(EM_PAIRS, t1, iterations=3)
        unseen = SentencePair(["the", "dog", "sees", "a", "cat", "mystery", "the"], ["hund", "die", "?"])
        tied = SentencePair(["b", "a"], ["x", "y"])
        tied_table = TTable({NULL_WORD: {"y": 0.5}, "a": {"x": 0.5, "y": 0.5}, "b": {"x": 0.5}})
        for pair in EM_PAIRS + [unseen]:
            assert viterbi_align(t1, pair) == viterbi_reference(t1, pair)
            assert viterbi_align(t2, pair, dist) == viterbi_reference(t2, pair, dist)
        assert viterbi_align(tied_table, tied) == viterbi_reference(tied_table, tied) == {(0, 0)}
        assert (0, 3, 7) not in dist.table  # `unseen` takes the uniform row
        geometry = DistortionTable({(0, 2, 2): {0: 0.2, 1: 0.3, 2: 0.5}})
        assert viterbi_align(tied_table, tied, geometry) == viterbi_reference(tied_table, tied, geometry)

    def test_identity_model(self):
        table = TTable({"a": {"a": 1.0}, "b": {"b": 1.0}, NULL_WORD: {}})
        pair = SentencePair(["a", "b"], ["a", "b"])
        assert viterbi_align(table, pair) == {(0, 0), (1, 1)}

    def test_reordering_pattern_from_paper_example(self):
        # a 4x4 pair built so the best links are {0-0, 1-1, 2-3, 3-2}
        table = TTable(
            {
                "s0": {"t0": 0.9},
                "s1": {"t1": 0.9},
                "s2": {"t3": 0.9},
                "s3": {"t2": 0.9},
                NULL_WORD: {f"t{i}": 0.01 for i in range(4)},
            }
        )
        pair = SentencePair(["s0", "s1", "s2", "s3"], ["t0", "t1", "t2", "t3"])
        assert viterbi_align(table, pair) == {(0, 0), (1, 1), (2, 3), (3, 2)}

    def test_null_preference_drops_link(self):
        table = TTable({NULL_WORD: {"x": 0.9}, "a": {"x": 0.1}})
        assert viterbi_align(table, SentencePair(["a"], ["x"])) == set()

    def test_unknown_target_word_unlinked(self):
        table = TTable({"a": {"x": 1.0}, NULL_WORD: {}})
        assert viterbi_align(table, SentencePair(["a"], ["mystery"])) == set()

    def test_deterministic(self):
        table = TTable({"a": {"x": 0.5, "y": 0.5}, "b": {"x": 0.5, "y": 0.5}, NULL_WORD: {}})
        pair = SentencePair(["a", "b"], ["x", "y"])
        first = viterbi_align(table, pair)
        assert all(viterbi_align(table, pair) == first for _ in range(5))


class TestSymmetrize:
    def test_equal_inputs_fixed_point(self):
        links = {(0, 1), (2, 2)}
        for heuristic in ("intersection", "union", "grow-diag-final-and"):
            assert symmetrize(links, links, heuristic) == links

    def test_documented_trace(self):
        fwd = {(0, 0), (1, 1)}
        bwd = {(0, 0), (1, 0)}
        assert symmetrize(fwd, bwd, "intersection") == {(0, 0)}
        assert symmetrize(fwd, bwd, "union") == {(0, 0), (1, 1), (1, 0)}
        assert symmetrize(fwd, bwd, "grow-diag-final-and") == {(0, 0), (1, 1)}

    def test_disjoint_sets(self):
        fwd, bwd = {(0, 0)}, {(3, 3)}
        assert symmetrize(fwd, bwd, "intersection") == set()
        assert symmetrize(fwd, bwd, "union") == fwd | bwd

    def test_unknown_heuristic(self):
        with pytest.raises(AlignError):
            symmetrize(set(), set(), "magic")

    @settings(max_examples=300)
    @given(
        st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=12),
        st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=12),
    )
    def test_result_between_intersection_and_union(self, fwd, bwd):
        result = symmetrize(fwd, bwd, "grow-diag-final-and")
        assert fwd & bwd <= result <= fwd | bwd

    def test_bounds_hold_on_1000_random_link_sets(self):
        rng = random.Random(12)
        for _ in range(1000):
            n_src, n_tgt = rng.randint(1, 8), rng.randint(1, 8)
            fwd = {
                (rng.randrange(n_src), rng.randrange(n_tgt))
                for _ in range(rng.randint(0, 10))
            }
            bwd = {
                (rng.randrange(n_src), rng.randrange(n_tgt))
                for _ in range(rng.randint(0, 10))
            }
            result = symmetrize(fwd, bwd, "grow-diag-final-and")
            assert fwd & bwd <= result <= fwd | bwd


class TestLinkFormat:
    def test_round_trip(self):
        links = {(0, 0), (1, 2), (3, 1)}
        assert parse_links(format_links(links)) == links

    def test_pharaoh_layout(self):
        assert format_links({(2, 3), (0, 0)}) == "0-0 2-3"

    @pytest.mark.parametrize("line", ["0-0 1-x", "3", "0-0 -1", "1-2-3"])
    def test_malformed_link_rejected(self, line):
        with pytest.raises(AlignError, match="malformed link"):
            parse_links(line)

    def test_read_links_names_the_line(self):
        assert read_links("0-0 1-1\n\n2-0\n") == [((0, 0), (1, 1)), (), ((2, 0),)]
        with pytest.raises(AlignError, match=r"line 2: malformed link '1-x'"):
            read_links("0-0\n0-0 1-x\n")


def assert_link_tuples(link_lists):
    """Each pair's links are a sorted tuple of distinct points, and equal
    points are one object across the pairs."""
    first = {}
    for links in link_lists:
        assert type(links) is tuple and list(links) == sorted(set(links))
        for point in links:
            assert first.setdefault(point, point) is point
    return first


class TestLinkTuples:
    def test_read_links_shares_equal_points(self):
        links = read_links("1-0 0-0 2-1\n\n0-0 2-1 2-1\n1-0\n")
        assert links == [((0, 0), (1, 0), (2, 1)), (), ((0, 0), (2, 1)), ((1, 0),)]
        assert len(assert_link_tuples(links)) == 3

    @pytest.mark.parametrize("heuristic", ["intersection", "union", "grow-diag-final-and"])
    def test_pipeline_links_share_equal_points(self, tmp_path, heuristic):
        paths = write_fixture_tree(60, 1, 1, seed=3, root=str(tmp_path))
        pairs = corpus.clean(corpus.read_parallel(paths["train.src"], paths["train.tgt"]))
        _, _, links = _alignments_for(pairs, 2, 1, heuristic)
        assert len(links) == len(pairs)
        points = assert_link_tuples(links)
        # shared, so far fewer distinct points than links
        assert len(points) < sum(map(len, links)) / 2
        # and the same links as the pipeline wrote before, one set a pair
        text = "".join(format_links(l) + "\n" for l in links)
        assert [set(l) for l in read_links(text)] == [set(l) for l in links]


class TestTTableSerialization:
    def test_round_trip(self, toy_pairs):
        table, _ = train_ibm1(toy_pairs, iterations=5)
        again = read_ttable(write_ttable(table))
        for src in table.sources():
            for tgt, p in table.row(src).items():
                assert again.prob(tgt, src) == p

    def test_non_numeric_probability_names_the_line(self):
        with pytest.raises(AlignError, match=r"line 2: probability 'zz' is not a number"):
            read_ttable("a\tx\t0.5\nb\ty\tzz\n")

    def test_mle_from_counts_with_explicit_denominator(self):
        counts = {"good": {"अच्छा": 172.0, "नीक": 145.0}}
        table = TTable.from_counts(counts, {"good": 555.0})
        assert table.prob("अच्छा", "good") == pytest.approx(172 / 555)
