"""Fuzz tests for the model-file readers.

Every reader of a file smtkit writes or accepts, given any text, either
parses it or raises its module's `ValueError` subclass, which the CLI turns
into exit code 2. Any other exception would reach the user as exit 3, an
internal error. The inputs are arbitrary text and small random edits of a
valid file, since most arbitrary text fails on its first line.
"""

import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from smtkit.align import AlignError, read_links, read_ttable
from smtkit.cli import PipelineConfig
from smtkit.corpus import CorpusError
from smtkit.decoder.weights import WeightsError, parse_weights
from smtkit.deptree import ConlluError, parse_conllu, parse_nested_tree_file, to_nested_tree
from smtkit.evaluate import EvalError, parse_human_scores
from smtkit.lm import LmError, read_arpa, train_lm, write_arpa
from smtkit.phrasetab import PhraseError, read_phrase_table, read_reordering_table
from smtkit.ruletab import read_rule_table, read_tree_rule_table

CONLLU = (
    "# sent_id = s1\n"
    "# text = don't go home\n"
    "1-2\tdon't\t_\t_\t_\t_\t_\t_\t_\t_\n"
    "1\tdo\tdo\tAUX\tVB\t_\t3\taux\t_\t_\n"
    "2\tn't\tnot\tPART\tRB\t_\t3\tadvmod\t_\t_\n"
    "3\tgo\tgo\tVERB\tVB\tMood=Imp\t0\troot\t_\t_\n"
    "4\thome\thome\tADV\tRB\t_\t3\tobl:tmod\t_\tSpaceAfter=No\n"
    "\n"
    "# sent_id = s2\n"
    "1\tit\t_\t_\t_\t_\t2\tnsubj\t_\t_\n"
    "2\trains\t_\t_\t_\t_\t0\troot\t_\t_\n"
    "\n"
)

# reader, the error it may raise, a file it parses
READERS = {
    "arpa": (read_arpa, LmError, write_arpa(train_lm([["a", "b", "c"], ["b", "a"]], order=3))),
    "ttable": (read_ttable, AlignError, "a\tx\t0.5\na\ty\t0.25\nNULL\tx\t1e-05\n"),
    "links": (read_links, AlignError, "0-0 1-1 2-1\n\n3-0\n"),
    "phrase": (
        read_phrase_table,
        PhraseError,
        "a b ||| x ||| 0.5 0.25 0.5 0.125 ||| 0-0 1-0 ||| 1 2 1\n"
        "c ||| y z ||| 1 1 0.5 0.5 ||| 0-0 0-1 ||| 2 2 2\n",
    ),
    "reordering": (
        read_reordering_table,
        PhraseError,
        "a ||| x ||| 0.5 0.25 0.25 0.5 0.25 0.25\n"
        "c ||| y z ||| 0.4 0.3 0.2 0.1 0.25 0.25 0.25 0.25\n",
    ),
    "rule": (
        read_rule_table,
        PhraseError,
        "a [X][X] b [X] ||| [X][X] x [X] ||| 0.5 0.25 0.5 0.125 ||| 0-1 1-0 2-1 ||| 1 1 1\n"
        "[X][X] [S] ||| [X][X] [S] ||| 1 1 1 1 ||| 0-0 ||| 1 1 1\n"
        "[S][S] [X][X] [S] ||| [S][S] [X][X] [S] ||| 1 1 1 1 ||| 0-0 1-1 ||| 1 1 1\n",
    ),
    "tree-rule": (
        read_tree_rule_table,
        PhraseError,
        "(root w:a #1:nsubj (obj w:c)) ||| x #1 y ||| 0.5 0.25 ||| 2 4\n"
        "(nsubj w:b) ||| z ||| 1 1 ||| 1 1\n",
    ),
    "conllu": (parse_conllu, ConlluError, CONLLU),
    "nested-tree": (
        parse_nested_tree_file,
        ConlluError,
        "".join(to_nested_tree(sent) + "\n" for sent in parse_conllu(CONLLU)),
    ),
    "human-scores": (parse_human_scores, EvalError, "# id, fluency, adequacy\n1, 4, 5\n2\t2\t3\n"),
    "pipeline-config": (
        PipelineConfig.parse,
        CorpusError,
        "decoder.kind = hier  # the chart decoder\ndecoder.stack_size = 10\nlm.order = 4\n"
        "tune.enabled = false\nreorder.enabled = yes\neval.metrics = bleu\n",
    ),
    "weights": (
        parse_weights,
        WeightsError,
        "# feature weights, format v1\n# untuned defaults\nlm\t0.5\nphi_s_given_t\t0.2\n"
        "word_penalty\t-1.0\ndistortion\t0.3\noov\t10.0\n",
    ),
}

# characters that carry structure in at least one of the formats
_SYMBOLS = "0123456789 \t\n-.|#()[]:=\\_abeSX<>/\""


@st.composite
def _edited(draw, text: str) -> str:
    """`text` after one to four random edits: an insertion, deletion,
    replacement or duplication of a short stretch, or another value for one
    of its numbers (ids, heads, counts, link indices)."""
    for _ in range(draw(st.integers(1, 4))):
        start = draw(st.integers(0, len(text)))
        end = min(len(text), start + draw(st.integers(0, 4)))
        edit = draw(st.sampled_from(("insert", "delete", "replace", "duplicate", "number")))
        piece = draw(st.text(alphabet=_SYMBOLS, min_size=1, max_size=3))
        numbers = [m.span() for m in re.finditer(r"\d+", text)]
        if edit == "number" and numbers:
            start, end = draw(st.sampled_from(numbers))
            text = text[:start] + str(draw(st.integers(-1, 12))) + text[end:]
        elif edit == "insert":
            text = text[:start] + piece + text[start:]
        elif edit == "delete":
            text = text[:start] + text[end:]
        elif edit == "replace":
            text = text[:start] + piece + text[end:]
        elif edit == "duplicate":
            text = text[:end] + text[start:end] + text[end:]
    return text


@pytest.mark.parametrize("name", sorted(READERS))
def test_reader_parses_or_raises_its_error(name):
    read, error, sample = READERS[name]
    assert read(sample)

    @settings(
        derandomize=True,
        database=None,
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.one_of(st.text(max_size=80), st.text(alphabet=_SYMBOLS, max_size=80), _edited(sample)))
    def parses_or_raises(text):
        try:
            read(text)
        except error:
            pass

    parses_or_raises()


# a valid file but for one number that is not finite: the reader, its
# error, the text with {x} for that number, and the message
NON_FINITE = {
    "phrase-score": (read_phrase_table, PhraseError,
                     "a ||| x ||| 1 1 1 1 ||| 0-0 ||| 1 1 1\nb ||| y ||| 1 {x} 1 1 ||| 0-0 ||| 1 1 1\n",
                     "line 2: non-finite number '{x}'"),
    "phrase-count": (read_phrase_table, PhraseError,
                     "a ||| x ||| 1 1 1 1 ||| 0-0 ||| 1 1 1\nb ||| y ||| 1 1 1 1 ||| 0-0 ||| 1 {x} 1\n",
                     "line 2: non-finite number '{x}'"),
    "reordering": (read_reordering_table, PhraseError,
                   "a ||| x ||| 0.5 0.25 0.25 0.5 0.25 0.25\nc ||| y ||| 0.5 0.25 {x} 0.5 0.25 0.25\n",
                   "line 2: non-finite number '{x}'"),
    "rule": (read_rule_table, PhraseError,
             "a [X] ||| x [X] ||| 1 1 1 1 ||| 0-0 ||| 1 1 1\nb [X] ||| y [X] ||| 1 1 {x} 1 ||| 0-0 ||| 1 1 1\n",
             "line 2: non-finite number '{x}'"),
    "tree-rule": (read_tree_rule_table, PhraseError,
                  "(root w:a) ||| x ||| 1 1 ||| 1 1\n(nsubj w:b) ||| z ||| 1 1 ||| {x} 1\n",
                  "line 2: non-finite number '{x}'"),
    "ttable": (read_ttable, AlignError, "a\tx\t0.5\na\ty\t{x}\n", "line 2: non-finite number '{x}'"),
    "weights": (parse_weights, WeightsError, "lm\t0.5\nglue\t{x}\n", "line 2: non-finite weight '{x}'"),
    "arpa-probability": (read_arpa, LmError,
                         "\\data\\\nngram 1=2\n\n\\1-grams:\n-0.5\ta\n{x}\tb\n\\end\\\n",
                         "line 6: non-finite number '{x}'"),
    "arpa-back-off": (read_arpa, LmError,
                      "\\data\\\nngram 1=2\nngram 2=1\n\n\\1-grams:\n-0.5\ta\t-0.1\n"
                      "-0.5\tb\t{x}\n\n\\2-grams:\n-0.2\ta b\n\\end\\\n",
                      "line 7: non-finite number '{x}'"),
}


def in_range(read):
    """A value that lies inside the range of each number `read` reads: 1,
    but 0 in an ARPA file, whose log10 probabilities may not lie above 0."""
    return "0" if read is read_arpa else "1"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", sorted(NON_FINITE))
def test_non_finite_number_is_a_data_error(name, value):
    read, error, text, message = NON_FINITE[name]
    assert read(text.replace("{x}", in_range(read)))
    with pytest.raises(error, match=re.escape(message.replace("{x}", value))):
        read(text.replace("{x}", value))


def test_weight_given_twice_is_a_data_error():
    with pytest.raises(WeightsError, match="^line 3: feature weight 'lm' given twice$"):
        parse_weights("lm\t0.5\nglue\t0.1\nlm\t7.0\n")


def test_finite_numbers_whose_sum_overflows_are_read():
    # counts may be any finite number; scores must be probabilities
    (entry,) = read_phrase_table("a ||| x ||| 1 1 0.5 1 ||| 0-0 ||| 1e308 1e308 1\n")
    assert entry.counts == (1e308, 1e308, 1.0)


# a valid file but for one number outside its range: the reader, its error,
# the text with {x} for that number, the values that lie outside the range
# and the message
OUT_OF_RANGE = {
    "phrase-score": (read_phrase_table, PhraseError,
                     "a ||| x ||| 1 1 1 1 ||| 0-0 ||| 1 1 1\nb ||| y ||| 1 {x} 1 1 ||| 0-0 ||| 1 1 1\n",
                     ["-0.5", "0", "-0.0", "1.0000001", "7"], "line 2: probability '{x}' lies outside (0, 1]"),
    "ttable": (read_ttable, AlignError, "a\tx\t0.5\na\ty\t{x}\n",
               ["-3", "0", "2.5", "-0.5"], "line 2: probability '{x}' lies outside (0, 1]"),
    "reordering": (read_reordering_table, PhraseError,
                   "a ||| x ||| 0.5 0.25 0.25 0.5 0.25 0.25\nc ||| y ||| 0.5 0.25 {x} 0.5 0.25 0.25\n",
                   ["7.0", "-0.5", "1.5", "-1e-300"], "line 2: probability '{x}' lies outside [0, 1]"),
    "rule-score": (read_rule_table, PhraseError,
                   "a [X] ||| x [X] ||| 1 1 1 1 ||| 0-0 ||| 1 1 1\n"
                   "b [X] ||| y [X] ||| 1 1 {x} 1 ||| 0-0 ||| 1 1 1\n",
                   ["-0.5", "0", "1.5", "-1e-300"], "line 2: probability '{x}' lies outside (0, 1]"),
    "tree-rule-score": (read_tree_rule_table, PhraseError,
                        "(root w:a) ||| x ||| 1 1 ||| 1 1\n(nsubj w:b) ||| z ||| {x} 1 ||| 1 1\n",
                        ["-2", "0", "-0.0", "3.5"], "line 2: probability '{x}' lies outside (0, 1]"),
    # a back-off weight may take any finite value, as the one of <s> here
    "arpa-probability": (read_arpa, LmError,
                         "\\data\\\nngram 1=2\nngram 2=1\n\n\\1-grams:\n-99\t<s>\t0.5\n{x}\ta\t-0.1\n"
                         "\n\\2-grams:\n-0.2\t<s> a\n\\end\\\n",
                         ["2.0", "0.5", "1e-300"], "line 7: log10 probability '{x}' lies above 0"),
}


@pytest.mark.parametrize("name", sorted(OUT_OF_RANGE))
def test_number_outside_its_range_is_a_data_error(name):
    read, error, text, values, message = OUT_OF_RANGE[name]
    assert read(text.replace("{x}", in_range(read)))
    for value in values:
        with pytest.raises(error, match="^" + re.escape(message.replace("{x}", value)) + "$"):
            read(text.replace("{x}", value))


# the smallest values smtkit writes: the lexical-weight floor of a phrase
# table, the t-table floor and the zeros of `train-reorder --sigma 0`
@pytest.mark.parametrize("read,text", [
    (read_phrase_table, "a ||| x ||| 1 1e-30 1 1e-30 ||| 0-0 ||| 1 1 1\n"),
    (read_ttable, "a\tx\t1e-12\n"),
    (read_reordering_table, "a ||| x ||| 1.0 0.0 0.0 0.0 1.0 0.0\nb ||| y ||| 1 0 0 0 0 0 1 0\n"),
], ids=["phrase-lexical-floor", "ttable-floor", "reordering-zero"])
def test_smallest_written_values_are_read(read, text):
    assert read(text)


# rule lines whose alignment leaves a nonterminal without its pair: the line
# and the error it gives
BAD_RULE_LINES = {
    "link-past-target": ("[X][X] a [X] ||| b [X] ||| 1 1 1 1 ||| 0-5 ||| 1 1 1",
                         "alignment point 0-5 lies outside the rule"),
    "unpaired-target-nonterminal": ("a [X] ||| [X][X] b [X] ||| 1 1 1 1 ||| 0-1 ||| 1 1 1",
                                    "target nonterminals do not pair one to one with source ones"),
}


@pytest.mark.parametrize("name", sorted(BAD_RULE_LINES))
def test_unpaired_rule_nonterminal_is_a_data_error(name):
    line, message = BAD_RULE_LINES[name]
    with pytest.raises(PhraseError, match="^line 2: " + re.escape(message)):
        read_rule_table("a [X] ||| b [X] ||| 1 1 1 1 ||| 0-0 ||| 1 1 1\n" + line + "\n")


# tree-rule lines whose variables do not pair one to one: the line and the
# error it gives
_UNNAMED = "target variables do not name each fragment variable once"
BAD_TREE_RULE_LINES = {
    "unknown-target-variable": ("(root #1:obj w:a) ||| x #2 ||| 1 1 1 1 ||| 1 1", _UNNAMED),
    "repeated-target-variable": ("(root #1:obj w:a) ||| x #1 #1 ||| 1 1 1 1 ||| 1 1", _UNNAMED),
    "dropped-fragment-variable": ("(root w:a #1:obj #2:obj) ||| x #1 ||| 1 1 1 1 ||| 1 1", _UNNAMED),
    "misnumbered-fragment-variable": ("(root #2:obj w:a) ||| x #2 ||| 1 1 1 1 ||| 1 1",
                                      "fragment variables are not numbered 1..1, each once"),
}


@pytest.mark.parametrize("name", sorted(BAD_TREE_RULE_LINES))
def test_unpaired_tree_rule_variable_is_a_data_error(name):
    line, message = BAD_TREE_RULE_LINES[name]
    with pytest.raises(PhraseError, match="^line 2: " + re.escape(message)):
        read_tree_rule_table("(root w:a) ||| b ||| 1 1 1 1 ||| 1 1\n" + line + "\n")


# an alignment field with a bad point, in a phrase-table and in a rule-table
# line: the field, and the error it gives with the entry's name for `within`
BAD_LINKS = {
    "malformed-link": ("1-2-3", "malformed link '1-2-3', expected i-j"),
    "dashless-link": ("0", "malformed link '0', expected i-j"),
    "negative-link": ("0--1", "alignment point 0--1 lies outside the {within}"),
    "outside-link": ("5-7", "alignment point 5-7 lies outside the {within}"),
    "one-past-link": ("0-0 1-2", "alignment point 1-2 lies outside the {within}"),
}
LINK_TABLES = {
    "phrase": (read_phrase_table, "phrase pair", "a c ||| b d ||| 0.5 0.5 0.5 0.5 ||| {links} ||| 1 1 1"),
    "rule": (read_rule_table, "rule", "a c [X] ||| b d [X] ||| 0.5 0.5 0.5 0.5 ||| {links} ||| 1 1 1"),
}


@pytest.mark.parametrize("table", sorted(LINK_TABLES))
@pytest.mark.parametrize("name", sorted(BAD_LINKS))
def test_bad_alignment_point_is_a_data_error(table, name):
    read, within, line = LINK_TABLES[table]
    links, message = BAD_LINKS[name]
    text = line.format(links="0-0") + "\n" + line.format(links=links) + "\n"
    with pytest.raises(PhraseError, match="^line 2: " + re.escape(message.format(within=within))):
        read(text)


@pytest.mark.parametrize("table", sorted(LINK_TABLES))
def test_each_point_inside_the_entry_is_read(table):
    read, _, line = LINK_TABLES[table]
    assert read(line.format(links="1-0 0-1 1-1"))[0].alignment == {(1, 0), (0, 1), (1, 1)}
