import hashlib
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import consistent_span_pairs, phrase_counts_reference
from smtkit.align import TTable
from smtkit.cli import _alignments_for, _write
from smtkit.corpus import SentencePair, read_parallel
from smtkit.phrasetab import (
    MSD,
    MSLR,
    PhraseError,
    build_phrase_table,
    count_phrase_pairs,
    extract_phrases,
    extract_reordering,
    format_phrase_entry,
    parse_phrase_entry,
    phrase_table_lines,
    read_phrase_table,
    read_reordering_table,
    reordering_table_lines,
    write_phrase_table,
    write_reordering_table,
)
from smtkit.synthdata import write_fixture_tree
from test_ruletab import digest_corpus


def make_pair(n_src, n_tgt):
    return SentencePair([f"s{i}" for i in range(n_src)], [f"t{j}" for j in range(n_tgt)])


class TestExtractPhrases:
    def test_monotone_identity(self):
        pair = make_pair(2, 2)
        spans = extract_phrases(pair, {(0, 0), (1, 1)})
        assert spans == [((0, 0), (0, 0)), ((0, 1), (0, 1)), ((1, 1), (1, 1))]

    def test_paper_reordering_matches_oracle(self):
        pair = make_pair(4, 4)
        links = {(0, 0), (1, 1), (2, 3), (3, 2)}
        assert extract_phrases(pair, links, 7) == consistent_span_pairs(4, 4, links, 7)

    def test_empty_links_empty_result(self):
        assert extract_phrases(make_pair(3, 3), set()) == []

    def test_max_len_enforced_both_sides(self):
        pair = make_pair(3, 3)
        links = {(0, 0), (1, 1), (2, 2)}
        spans = extract_phrases(pair, links, max_phrase_len=2)
        assert ((0, 2), (0, 2)) not in spans
        assert all(i2 - i1 < 2 and j2 - j1 < 2 for (i1, i2), (j1, j2) in spans)

    def test_bad_max_len(self):
        with pytest.raises(PhraseError):
            extract_phrases(make_pair(1, 1), {(0, 0)}, 0)

    @pytest.mark.parametrize("link", [(2, 0), (0, 2), (-1, 0)])
    def test_link_outside_the_pair(self, link):
        with pytest.raises(PhraseError, match="outside the sentence pair"):
            extract_phrases(make_pair(2, 2), {(0, 0), link})

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_equals_exhaustive_oracle(self, data):
        n_src = data.draw(st.integers(1, 5))
        n_tgt = data.draw(st.integers(1, 5))
        links = data.draw(
            st.sets(
                st.tuples(st.integers(0, n_src - 1), st.integers(0, n_tgt - 1)),
                max_size=n_src * n_tgt,
            )
        )
        max_len = data.draw(st.integers(1, 5))
        pair = make_pair(n_src, n_tgt)
        assert extract_phrases(pair, links, max_len) == consistent_span_pairs(
            n_src, n_tgt, links, max_len
        )


def uniform_ttables(pairs):
    fwd = {}
    bwd = {}
    for pair in pairs:
        for s in pair.source + ["<null>"]:
            for t in pair.target:
                fwd.setdefault(s, {})[t] = 1.0
                bwd.setdefault(t, {})[s] = 1.0
    return TTable(fwd), TTable(bwd)


class TestPhraseTable:
    def test_single_occurrence_single_link_all_ones(self):
        pairs = [SentencePair(["a"], ["x"])]
        fwd = TTable({"a": {"x": 1.0}})
        bwd = TTable({"x": {"a": 1.0}})
        entries = build_phrase_table(pairs, [{(0, 0)}], fwd, bwd)
        assert len(entries) == 1
        assert entries[0].scores == (1.0, 1.0, 1.0, 1.0)

    def test_competing_targets_relative_frequency(self):
        pairs = [SentencePair(["a"], ["x"])] * 3 + [SentencePair(["a"], ["y"])]
        fwd, bwd = uniform_ttables(pairs)
        entries = build_phrase_table(pairs, [{(0, 0)}] * 4, fwd, bwd)
        by_tgt = {e.tgt: e for e in entries}
        assert by_tgt[("x",)].scores[2] == pytest.approx(0.75)
        assert by_tgt[("y",)].scores[2] == pytest.approx(0.25)
        assert by_tgt[("x",)].counts == (3.0, 4.0, 3.0)

    def test_phi_t_given_s_normalizes_per_source(self):
        rng = random.Random(5)
        pairs = []
        links = []
        for _ in range(40):
            n = rng.randint(1, 4)
            pair = SentencePair(
                [rng.choice("abc") for _ in range(n)],
                [rng.choice("xyz") for _ in range(n)],
            )
            pairs.append(pair)
            links.append({(i, i) for i in range(n)})
        fwd, bwd = uniform_ttables(pairs)
        entries = build_phrase_table(pairs, links, fwd, bwd)
        totals = {}
        for e in entries:
            totals[e.src] = totals.get(e.src, 0.0) + e.scores[2]
        for total in totals.values():
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_stored_alignment_consistent_with_span(self):
        pairs = [SentencePair(["a", "b"], ["x", "y"])]
        fwd, bwd = uniform_ttables(pairs)
        entries = build_phrase_table(pairs, [{(0, 0), (1, 1)}], fwd, bwd)
        for e in entries:
            for i, j in e.alignment:
                assert 0 <= i < len(e.src) and 0 <= j < len(e.tgt)

    def test_alignment_seen_most_often_wins_over_a_later_one(self):
        pairs = [SentencePair(["a", "b"], ["x", "y"])] * 3
        diagonal = {(0, 0), (1, 1)}
        links = [diagonal, diagonal, diagonal | {(1, 0)}]
        fwd, bwd = uniform_ttables(pairs)
        entries = build_phrase_table(pairs, links, fwd, bwd)
        both = next(e for e in entries if e.src == ("a", "b") and e.tgt == ("x", "y"))
        assert both.alignment == diagonal and both.counts[2] == 3

    def test_entries_sorted(self):
        pairs = [SentencePair(["b"], ["y"]), SentencePair(["a"], ["x"])]
        fwd, bwd = uniform_ttables(pairs)
        entries = build_phrase_table(pairs, [{(0, 0)}, {(0, 0)}], fwd, bwd)
        assert [(e.src, e.tgt) for e in entries] == sorted((e.src, e.tgt) for e in entries)

    def test_lexical_weight_unaligned_word_uses_null(self):
        pairs = [SentencePair(["a"], ["x", "pad"])]
        fwd = TTable({"a": {"x": 0.8, "pad": 0.1}, "<null>": {"x": 0.1, "pad": 0.5}})
        bwd = TTable({"x": {"a": 1.0}, "pad": {"a": 1.0}})
        entries = build_phrase_table(pairs, [{(0, 0)}], fwd, bwd)
        two_word = next(e for e in entries if e.tgt == ("x", "pad"))
        # lex(t|s): x aligned to a (0.8), pad unaligned -> NULL (0.5)
        assert two_word.scores[3] == pytest.approx(0.8 * 0.5)


class TestPhraseTableFormat:
    def test_figure_shaped_row_round_trips_bit_identically(self):
        line = "$ ||| $ ||| 1 1 0.5 0.428571 ||| 0-0 ||| 2 4 2"
        assert format_phrase_entry(parse_phrase_entry(line)) == line

    def test_scientific_notation_round_trips(self):
        line = "a b ||| x ||| 0.333333 4.35515e-09 0.333333 0.0483928 ||| 0-0 1-0 ||| 3 3 1"
        assert format_phrase_entry(parse_phrase_entry(line)) == line

    def test_table_round_trip(self):
        pairs = [SentencePair(["a", "b"], ["x", "y"])]
        fwd, bwd = uniform_ttables(pairs)
        entries = build_phrase_table(pairs, [{(0, 0), (1, 1)}], fwd, bwd)
        text = write_phrase_table(entries)
        assert read_phrase_table(text) == entries

    def test_malformed_line_rejected(self):
        with pytest.raises(PhraseError):
            parse_phrase_entry("too ||| few ||| fields")


class TestReordering:
    def test_monotone_corpus_prefers_monotone(self):
        pairs = []
        links = []
        for _ in range(10):
            pairs.append(make_pair(3, 3))
            links.append({(i, i) for i in range(3)})
        entries = extract_reordering(pairs, links, "msd")
        for e in entries:
            assert e.forward["monotone"] > e.forward["swap"]
            assert e.backward["monotone"] > e.backward["swap"]
            assert all(p > 0 for p in e.forward.values())

    def test_swap_event_recorded(self):
        # "the red ball" style crossing: second phrase swaps with the first
        pair = SentencePair(["red", "ball"], ["gend", "lal"])
        links = {(0, 1), (1, 0)}
        entries = extract_reordering([pair], [links], "msd", smoothing_sigma=0.0)
        red = next(e for e in entries if e.src == ("red",))
        assert red.forward["swap"] == 1.0

    def test_smoothing_formula_exact(self):
        pair = make_pair(2, 2)
        links = {(0, 0), (1, 1)}
        entries = extract_reordering([pair], [links], "msd", smoothing_sigma=0.5)
        # single monotone event: unseen orientation = sigma / (total + sigma*k)
        unseen = 0.5 / (1.0 + 0.5 * 3)
        for e in entries:
            assert e.forward["swap"] == pytest.approx(unseen)
            assert sum(e.forward.values()) == pytest.approx(1.0, abs=1e-9)
            assert sum(e.backward.values()) == pytest.approx(1.0, abs=1e-9)

    def test_mslr_has_four_orientations(self):
        pair = make_pair(2, 2)
        entries = extract_reordering([pair], [{(0, 0), (1, 1)}], "mslr")
        assert set(entries[0].forward) == {"monotone", "swap", "disc-left", "disc-right"}

    def test_mslr_tie_goes_to_the_left(self):
        # target word 0 links to source words 0 and 4, two away from s2 on either side
        links = {(0, 0), (4, 0), (2, 1)}
        entries = extract_reordering([make_pair(5, 2)], [links], "mslr", smoothing_sigma=0.0)
        entry = next(e for e in entries if e.src == ("s2",))
        assert entry.forward["disc-left"] == 1.0

    def test_round_trip(self):
        pair = make_pair(2, 2)
        for orientation in ("msd", "mslr"):
            entries = extract_reordering([pair], [{(0, 0), (1, 1)}], orientation)
            text = write_reordering_table(entries)
            again = read_reordering_table(text)
            assert len(again) == len(entries)
            for e1, e2 in zip(entries, again):
                assert e1.src == e2.src and e1.tgt == e2.tgt
                for o in e1.forward:
                    assert e2.forward[o] == pytest.approx(e1.forward[o])

    def test_unknown_orientation_set(self):
        with pytest.raises(PhraseError):
            extract_reordering([], [], "msdr")


ORIENTATIONS = {None: (), "msd": MSD, "mslr": MSLR}


class TestCountPhrasePairs:
    @pytest.mark.parametrize("orientation_set", sorted(ORIENTATIONS, key=str))
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_equals_per_occurrence_oracle(self, orientation_set, data):
        # two-word vocabularies, so that phrase pairs recur within and across pairs
        pairs, link_sets = [], []
        for _ in range(data.draw(st.integers(1, 4))):
            source = data.draw(st.lists(st.sampled_from("ab"), min_size=1, max_size=6))
            target = data.draw(st.lists(st.sampled_from("xy"), min_size=1, max_size=6))
            pairs.append(SentencePair(source, target))
            link_sets.append(data.draw(st.sets(
                st.tuples(st.integers(0, len(source) - 1), st.integers(0, len(target) - 1)),
                max_size=len(source) * len(target),
            )))
        max_len = data.draw(st.integers(1, 6))
        orientations = ORIENTATIONS[orientation_set]
        k = len(orientations)
        counts = count_phrase_pairs(pairs, link_sets, max_len, orientation_set)
        found = {}
        for key, record in counts.items():
            found[key] = [
                record[0],
                Counter(record[1]),
                +Counter(dict(zip(orientations, record[2 : 2 + k]))),
                +Counter(dict(zip(orientations, record[2 + k :]))),
            ]
        assert found == phrase_counts_reference(pairs, link_sets, max_len, orientations)
        # equal internal alignments are one object
        alignments = [a for record in counts.values() for a in record[1]]
        assert len({id(a) for a in alignments}) == len(set(alignments))

    def test_counts_without_the_orientation_set_are_refused(self):
        pairs, link_sets, _, _ = digest_corpus()
        counts = count_phrase_pairs(pairs, link_sets, 7, "msd")
        with pytest.raises(PhraseError, match="no mslr orientations"):
            extract_reordering(pairs, link_sets, "mslr", counts=counts)

    def test_equal_values_are_one_object_when_built_and_read(self):
        pairs, link_sets, fwd, bwd = digest_corpus()
        counts = count_phrase_pairs(pairs, link_sets, 7, "mslr")
        table = build_phrase_table(pairs, link_sets, fwd, bwd, counts=counts)
        reordering = extract_reordering(pairs, link_sets, "mslr", counts=counts)
        for table, reordering in (
            (table, reordering),
            (read_phrase_table(write_phrase_table(table)),
             read_reordering_table(write_reordering_table(reordering))),
        ):
            assert len({id(e.alignment) for e in table}) == len({e.alignment for e in table})
            dists = [d for e in reordering for d in (e.forward, e.backward)]
            distinct = {tuple(d.items()) for d in dists}
            assert len({id(d) for d in dists}) == len(distinct) < len(dists)
            assert not hasattr(table[0], "__dict__") and not hasattr(reordering[0], "__dict__")
            with pytest.raises(TypeError):
                reordering[0].forward["swap"] = 1.0

    def test_a_table_read_twice_shares_its_repeated_fields(self):
        # a reader parses each distinct counts, alignment and orientation
        # field once, also across reads
        pairs, link_sets, fwd, bwd = digest_corpus()
        counts = count_phrase_pairs(pairs, link_sets, 7, "msd")
        phrases = write_phrase_table(build_phrase_table(pairs, link_sets, fwd, bwd, counts=counts))
        orientations = write_reordering_table(extract_reordering(pairs, link_sets, "msd", counts=counts))
        table, again = read_phrase_table(phrases), read_phrase_table(phrases)
        assert table == again
        for name in ("counts", "alignment"):
            values = [getattr(e, name) for e in table]
            assert len({id(v) for v in values}) == len(set(values)) < len(values)
            assert all(getattr(e, name) is getattr(f, name) for e, f in zip(table, again))
        reordering, again = read_reordering_table(orientations), read_reordering_table(orientations)
        assert reordering == again
        dists = [d for e in reordering for d in (e.forward, e.backward)]
        assert len({id(d) for d in dists}) == len({tuple(d.items()) for d in dists}) < len(dists)
        assert all(e.forward is f.forward and e.backward is f.backward
                   for e, f in zip(reordering, again))

    def test_negative_smoothing_is_refused(self):
        with pytest.raises(PhraseError, match="sigma must be >= 0"):
            extract_reordering([make_pair(1, 1)], [{(0, 0)}], "msd", smoothing_sigma=-0.1)

    def test_bytes_kept_per_entry(self, tmp_path):
        """What the pipeline keeps in memory per phrase-table and per
        reordering entry, counting once for both tables: about 480 B and
        125 B on CPython 3.10-3.13, against about 1,210 B and 785 B with a
        dict per entry, unshared values and a count per table."""
        paths = write_fixture_tree(1000, 1, 1, seed=1, root=str(tmp_path))
        pairs = read_parallel(paths["train.src"], paths["train.tgt"])
        fwd, bwd, links = _alignments_for(pairs, 2, 1, "grow-diag-final-and")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            counts = count_phrase_pairs(pairs, links, 7, "msd")
            table = build_phrase_table(pairs, links, fwd, bwd, counts=counts)
            with_table = tracemalloc.get_traced_memory()[0]
            reordering = extract_reordering(pairs, links, "msd", counts=counts)
            reordering_kept = tracemalloc.get_traced_memory()[0] - with_table
            del counts
            table_kept = tracemalloc.get_traced_memory()[0] - before - reordering_kept
        finally:
            tracemalloc.stop()
        assert len(table) == len(reordering) > 5000
        assert table_kept / len(table) < 560
        assert reordering_kept / len(reordering) < 150


class TestFactoredPhraseTable:
    def test_factored_tokens_flow_through_extraction(self):
        # factored corpora use composite word|POS tokens end to end
        pairs = [SentencePair(["come", "here"], ["आवज|N_NN", "इहाँ|PR_PRP"])]
        links = {(0, 0), (1, 1)}
        fwd, bwd = uniform_ttables(pairs)
        entries = build_phrase_table(pairs, [links], fwd, bwd)
        targets = {e.tgt for e in entries}
        assert ("आवज|N_NN",) in targets
        line = format_phrase_entry(next(e for e in entries if e.tgt == ("आवज|N_NN",)))
        assert parse_phrase_entry(line).tgt == ("आवज|N_NN",)


# sha256 of the phrase table and of the msd and mslr reordering tables of
# `test_ruletab.digest_corpus()`; they hold under any string-hash seed
PHRASE_TABLE_DIGEST = "0bb0cebbb4563f492f837d3df2ae57d7b3c3a3ca31d3148b9b2a3704c81636a9"
REORDERING_TABLE_DIGESTS = {
    "msd": "0b2b4799af3c960d273e5cffbfc6d96de51c414300c90db655508bc6a12dc7b5",
    "mslr": "1653ba20b0132d7dd049c847adbc90600ee4c0ea5c8838c04edd7cd2243f2afc",
}


def test_phrase_table_matches_recorded_digest():
    text = write_phrase_table(build_phrase_table(*digest_corpus()))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == PHRASE_TABLE_DIGEST


def test_streamed_tables_equal_the_written_text(tmp_path):
    # what the pipeline and the table commands write line by line is what
    # write_phrase_table and write_reordering_table return, an empty table included
    pairs, link_sets, fwd, bwd = digest_corpus()
    counts = count_phrase_pairs(pairs, link_sets, 7, "msd")
    path = tmp_path / "table.txt"
    for lines, write, entries, digest in (
        (phrase_table_lines, write_phrase_table,
         build_phrase_table(pairs, link_sets, fwd, bwd, counts=counts), PHRASE_TABLE_DIGEST),
        (reordering_table_lines, write_reordering_table,
         extract_reordering(pairs, link_sets, "msd", counts=counts), REORDERING_TABLE_DIGESTS["msd"]),
    ):
        _write(str(path), lines(entries))
        assert path.read_bytes() == write(entries).encode("utf-8")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
        _write(str(path), lines([]))
        assert path.read_bytes() == write([]).encode("utf-8") == b"\n"


@pytest.mark.parametrize("orientation_set", sorted(REORDERING_TABLE_DIGESTS))
def test_reordering_table_matches_recorded_digest(orientation_set):
    pairs, link_sets, _, _ = digest_corpus()
    text = write_reordering_table(extract_reordering(pairs, link_sets, orientation_set))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == REORDERING_TABLE_DIGESTS[orientation_set]
