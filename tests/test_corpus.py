import pytest
from hypothesis import given
from hypothesis import strategies as st

from smtkit.corpus import (
    CorpusError,
    SentencePair,
    Vocabulary,
    clean,
    detokenize,
    read_text,
    tokenize,
    tokenize_line,
)


class TestTokenize:
    def test_empty_input_has_no_lines(self):
        assert tokenize("") == []

    def test_blank_line_yields_empty_sequence(self):
        assert tokenize("\n") == [[]]

    def test_devanagari_sentence(self):
        line = "हम बहरे खेले नाई जाब ।"
        assert tokenize(line, "devanagari") == [["हम", "बहरे", "खेले", "नाई", "जाब", "।"]]

    def test_english_lowercases_and_splits_punct(self):
        assert tokenize("Why are you weeping?") == [["why", "are", "you", "weeping", "?"]]

    def test_danda_split_even_when_attached(self):
        assert tokenize_line("जाब।", "devanagari") == ["जाब", "।"]

    def test_double_danda_split(self):
        assert tokenize_line("जाब॥", "devanagari") == ["जाब", "॥"]

    def test_avagraha_never_split(self):
        assert tokenize_line("हऽ ।", "devanagari") == ["हऽ", "।"]

    def test_unknown_profile_rejected(self):
        with pytest.raises(CorpusError):
            tokenize_line("x", "klingon")

    def test_one_sequence_per_line(self):
        assert tokenize("a b\nc\n") == [["a", "b"], ["c"]]

    def test_equal_tokens_are_one_object(self):
        # split and join make a new string per occurrence; tokenize shares them
        first, second = tokenize("The dog, the cat.\nthe dog")
        assert first[0] == first[3] == "the" and first[0] is first[3] is second[0]
        assert first[1] is second[1]
        lines = tokenize("देख देखऽ देख\nदेख", "devanagari")
        assert lines[0][0] is lines[0][2] is lines[1][0] and lines[0][1] == "देखऽ"


def test_sentence_pair_is_slotted():
    pair = SentencePair(["a"], ["x"])
    assert not hasattr(pair, "__dict__")
    with pytest.raises(AttributeError):
        pair.alignment = None


class TestDetokenize:
    def test_empty(self):
        assert detokenize([]) == ""

    def test_closing_danda_attaches(self):
        assert detokenize(["हम", "जाब", "।"], "devanagari") == "हम जाब।"

    def test_question_mark_attaches(self):
        assert detokenize(["why", "?"]) == "why?"

    def test_roundtrip_on_punctuation_final_sentences(self):
        for line in ("why are you weeping?", "the dog sees the house.", "stop!"):
            tokens = tokenize_line(line)
            assert detokenize(tokens) == line

    def test_leading_punct_left_alone(self):
        assert detokenize(["।"], "devanagari") == "।"


class TestClean:
    def test_empty(self):
        assert clean([]) == []

    def test_overlong_side_removed(self):
        pair = SentencePair(["w"] * 81, ["x"])
        assert clean([pair], max_len=80) == []

    def test_exactly_80_kept(self):
        pair = SentencePair(["w"] * 80, ["x"])
        assert clean([pair], max_len=80) == [pair]

    def test_empty_side_removed_order_preserved(self):
        keep1 = SentencePair(["a"], ["b"])
        drop = SentencePair(["a"], [])
        keep2 = SentencePair(["c"], ["d"])
        assert clean([keep1, drop, keep2]) == [keep1, keep2]

    def test_bad_max_len(self):
        with pytest.raises(CorpusError):
            clean([], max_len=0)

    @given(
        st.lists(
            st.tuples(
                st.lists(st.sampled_from("abc"), max_size=5),
                st.lists(st.sampled_from("xyz"), max_size=5),
            ),
            max_size=20,
        )
    )
    def test_idempotent(self, raw):
        pairs = [SentencePair(list(s), list(t)) for s, t in raw]
        once = clean(pairs, max_len=3)
        assert clean(once, max_len=3) == once


class TestVocabulary:
    def test_reserved_ids(self):
        v = Vocabulary()
        assert v.id_of("<null>") == 0
        assert v.id_of("<s>") == 1
        assert v.id_of("</s>") == 2
        assert v.id_of("<unk>") == 3

    def test_round_trip(self):
        v = Vocabulary()
        words = ["alpha", "beta", "gamma"]
        ids = [v.add(w) for w in words]
        assert [v.id_of(v.string_of(i)) for i in ids] == ids

    def test_unknown_maps_to_unk(self):
        v = Vocabulary()
        assert v.id_of("never-seen") == 3

    def test_add_is_stable(self):
        v = Vocabulary()
        first = v.add("word")
        assert v.add("word") == first


class TestReadText:
    def test_invalid_utf8_reports_offset(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"ok\xff\xfenot")
        with pytest.raises(CorpusError, match="byte offset 2"):
            read_text(str(path))
