import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import A_STONE_NESTED
from oracles import projective_by_yields
from smtkit import cli, deptree
from smtkit.corpus import read_parallel
from smtkit.deptree import (
    _crossings,
    _lines,
    ConlluError,
    DepSentence,
    DepToken,
    TreeShape,
    is_projective,
    parse_conllu,
    parse_nested_tree,
    parse_nested_tree_file,
    to_nested_tree,
    write_conllu,
)
from smtkit.synthdata import write_fixture_tree


def chain_sentence(n, deprel="dep"):
    """Token i attaches to i+1; the last token is the root."""
    toks = [
        DepToken(i, f"w{i}", head=(i + 1 if i < n else 0), deprel=(deprel if i < n else "root"), xpos="X")
        for i in range(1, n + 1)
    ]
    return DepSentence(sent_id="chain", tokens=toks)


class TestParseConllu:
    def test_fig_3_8(self, fig_3_8):
        assert len(fig_3_8.tokens) == 6
        root = next(t for t in fig_3_8.tokens if t.head == 0)
        assert root.form == "came" and root.deprel == "root"
        anita = fig_3_8.tokens[0]
        assert anita.form == "Anita" and anita.head == 4 and anita.deprel == "nsubj"

    def test_single_token(self):
        sents = parse_conllu("1\tx\tx\tX\tX\t_\t0\troot\t_\t_\n")
        assert len(sents) == 1 and sents[0].tokens[0].id == 1

    def test_self_loop_is_cycle_error(self):
        with pytest.raises(ConlluError, match="cycle"):
            parse_conllu("1\tx\t_\t_\t_\t_\t1\tdep\t_\t_\n")

    def test_longer_cycle_detected(self):
        block = "1\ta\t_\t_\t_\t_\t2\tdep\t_\t_\n2\tb\t_\t_\t_\t_\t1\tdep\t_\t_\n3\tc\t_\t_\t_\t_\t0\troot\t_\t_\n"
        with pytest.raises(ConlluError, match="cycle"):
            parse_conllu(block)

    @pytest.mark.parametrize(
        "heads, named",
        [
            ((0, 4, 1, 5, 4), "line 3: cycle involving token 2"),  # 2 leads into 4 <-> 5
            ((3, 0, 4, 5, 4), "line 2: cycle involving token 1"),
            ((0, 1, 5, 3, 4), "line 4: cycle involving token 3"),  # 3 -> 5 -> 4 -> 3
        ],
    )
    def test_cycle_names_the_first_token_off_the_root(self, heads, named):
        block = "# sent_id = loop\n" + "".join(
            f"{i}\tw{i}\t_\t_\t_\t_\t{head}\tdep\t_\t_\n" for i, head in enumerate(heads, start=1)
        )
        with pytest.raises(ConlluError, match=f"^sentence loop, {named}$"):
            parse_conllu(block)

    def test_multiple_roots_rejected(self):
        block = "1\ta\t_\t_\t_\t_\t0\troot\t_\t_\n2\tb\t_\t_\t_\t_\t0\troot\t_\t_\n"
        with pytest.raises(ConlluError, match="root"):
            parse_conllu(block)

    @pytest.mark.parametrize("heads, roots", [((0, 0, 2), 2), ((2, 3, 1), 0)])
    def test_root_count_error_names_the_first_token_line(self, heads, roots):
        good = "# sent_id = ok\n1\tw\t_\t_\t_\t_\t0\troot\t_\t_\n\n"
        block = "# sent_id = two\n# text = a b c\n" + "".join(
            f"{i}\tw{i}\t_\t_\t_\t_\t{head}\tdep\t_\t_\n" for i, head in enumerate(heads, start=1)
        )
        with pytest.raises(
            ConlluError, match=f"^sentence two, line 6: expected exactly 1 root, found {roots}$"
        ):
            parse_conllu(good + block)

    def test_dangling_head_rejected(self):
        with pytest.raises(ConlluError, match="dangling"):
            parse_conllu("1\tx\t_\t_\t_\t_\t9\tdep\t_\t_\n")

    @pytest.mark.parametrize("ids", [(1, 5), (2, 1), (1, 1), (0, 1)], ids=str)
    def test_ids_must_run_one_to_n(self, ids):
        # token 1's head 2 is in range; with ids (1, 5) no token 2 exists
        block = (
            "# sent_id = gap\n"
            f"{ids[0]}\ta\t_\t_\t_\t_\t2\tdep\t_\t_\n"
            f"{ids[1]}\tb\t_\t_\t_\t_\t0\troot\t_\t_\n"
        )
        line = 2 if ids[0] != 1 else 3
        with pytest.raises(ConlluError, match=f"sentence gap, line {line}: token id"):
            parse_conllu(block)

    def test_column_count_error_has_location(self):
        with pytest.raises(ConlluError, match="line 1"):
            parse_conllu("1\tx\tmissing\n")

    @pytest.mark.parametrize(
        "text, line",
        [
            ("# sent_id = a", 2),
            ("1\tx\t_\t_\t_\t_\t0\troot\t_\t_\n\n# sent_id = b\n# text = y\n", 5),
            ("1\tx\t_\t_\t_\t_\t0\troot\t_\t_\n\n\n# sent_id = b\n\n\n", 5),
        ],
    )
    def test_comment_block_without_tokens_names_the_line_after_it(self, text, line):
        # the block ends at end of input or at its blank line; either way the
        # message names the line that closes it
        with pytest.raises(ConlluError, match=f"^line {line}: comment block without token lines$"):
            parse_conllu(text)

    def test_multiword_ranges_kept_out_of_tree(self):
        block = (
            "1-2\tdon't\t_\t_\t_\t_\t_\t_\t_\t_\n"
            "1\tdo\t_\t_\t_\t_\t0\troot\t_\t_\n"
            "2\tnot\t_\t_\t_\t_\t1\tadvmod\t_\t_\n"
        )
        sent = parse_conllu(block)[0]
        assert len(sent.tokens) == 2
        assert sent.extra_rows == [(0, block.splitlines()[0])]

    def test_equal_column_values_are_one_object(self):
        text = (
            "1\tthe\tthe\tDET\tDT\t_\t2\tdet\t_\t_\n"
            "2\tdogs\tdog\tNOUN\tNN\tNumber=Plur\t0\troot\t_\t_\n\n"
            "1\tthe\tthe\tDET\tDT\t_\t2\tdet\t_\t_\n"
            "2\tdog\tdog\tNOUN\tNN\tNumber=Sing\t0\troot\t_\t_\n"
        )
        (the, dogs), (the_again, dog) = (sent.tokens for sent in parse_conllu(text))
        assert the.form is the.lemma is the_again.form is the_again.lemma
        assert dogs.lemma is dog.form is dog.lemma
        assert the.deprel is the_again.deprel and dogs.deprel is dog.deprel
        assert dogs.upos is dog.upos and dogs.xpos is dog.xpos
        assert dogs.feats == "Number=Plur" and dog.feats == "Number=Sing"

    def test_trees_are_slotted(self, fig_3_8):
        assert not hasattr(fig_3_8, "__dict__")
        assert not any(hasattr(tok, "__dict__") for tok in fig_3_8.tokens)

    def test_bytes_kept_per_token(self, tmp_path):
        """What a parsed corpus keeps in memory, per token: about 200 B on
        CPython 3.11, against about 440 B with a string per column value and
        a dict per token."""
        paths = write_fixture_tree(1000, 1, 1, seed=1, root=str(tmp_path))
        with open(paths["train.conllu"], encoding="utf-8") as fh:
            text = fh.read()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trees = parse_conllu(text)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        tokens = sum(len(tree.tokens) for tree in trees)
        assert tokens > 5000
        assert kept / tokens < 300

    def test_attached_trees_retain_under_40_percent_of_the_parse(self, tmp_path):
        """The training trees rule extraction keeps, three tuples a tree,
        against the parsed `DepSentence`s: about 27% of their memory on
        CPython 3.11."""
        paths = write_fixture_tree(2000, 1, 1, seed=1, root=str(tmp_path))
        with open(paths["train.conllu"], encoding="utf-8") as fh:
            text = fh.read()
        pairs = read_parallel(paths["train.src"], paths["train.tgt"])
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trees = parse_conllu(text)
            parsed = tracemalloc.get_traced_memory()[0] - before
            del trees
            before = tracemalloc.get_traced_memory()[0]
            cli._attach_trees(pairs, paths["train.conllu"])
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert all(isinstance(pair.source_tree, deptree.TreeShape) for pair in pairs)
        assert kept <= 0.4 * parsed

    def test_round_trip_token_fields(self, fig_3_8):
        text = write_conllu([fig_3_8])
        again = parse_conllu(text)[0]
        assert again.tokens == fig_3_8.tokens
        assert write_conllu([again]) == text


# every line boundary `str.splitlines` knows
LINE_BREAKS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


class TestBoundedSlices:
    """`parse_conllu` splits its text into lines a slice at a time."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.lists(st.sampled_from(LINE_BREAKS) | st.text("ab\t ", max_size=4), max_size=30),
        st.integers(1, 12),
    )
    def test_lines_are_splitlines(self, parts, size):
        text = "".join(parts)
        with mock.patch.object(deptree, "_SLICE_CHARS", size):
            assert list(_lines(text)) == text.splitlines()

    def test_crlf_at_every_slice_edge(self):
        text = "ab\r\ncd\r\n\r\nef\rg\n\r\nh\r\n"
        for size in range(1, len(text) + 2):
            with mock.patch.object(deptree, "_SLICE_CHARS", size):
                assert list(_lines(text)) == text.splitlines()
        # the default slice holds a whole small text
        assert list(_lines(text)) == text.splitlines()

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    @pytest.mark.parametrize("bad, message", [
        ("1\tx\t_", "expected 10 tab-separated columns, found 3"),
        ("x\tw\t_\t_\t_\t_\t0\troot\t_\t_", "non-integer id or head"),
    ])
    def test_error_right_after_a_slice_edge(self, newline, bad, message):
        good = "1\tw\t_\t_\t_\t_\t0\troot\t_\t_"
        head = newline.join(["# sent_id = s1", good, "", "# sent_id = s2", good, "", "# sent_id = s3", ""])
        text = head + bad + newline + newline
        expected = f"^sentence s3, line 8: {message}$"
        with pytest.raises(ConlluError, match=expected):
            parse_conllu(text)
        # the first slice is `head`, which ends in a line feed, so the bad
        # line starts the second
        assert head.endswith("\n")
        with mock.patch.object(deptree, "_SLICE_CHARS", len(head)):
            with pytest.raises(ConlluError, match=expected):
                parse_conllu(text)


@st.composite
def conllu_texts(draw):
    """The token lines of 1-4 random trees (any shape, projective or not)
    and a CoNLL-U text of them: a sentence
    may have a sent_id and a text comment and a multiword range, and blocks
    are parted by one or two blank lines, with or without a final one."""
    token_lines = []
    blocks = []
    for index in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, 6))
        order = draw(st.permutations(range(1, n + 1)))
        heads = {order[0]: 0}
        for k in range(1, n):
            heads[order[k]] = order[draw(st.integers(0, k - 1))]
        lines = []
        if draw(st.booleans()):
            lines.append(f"# sent_id = s{index}")
        if draw(st.booleans()):
            lines.append("# text = t")
        for i in range(1, n + 1):
            if i == 1 and n > 1 and draw(st.booleans()):
                lines.append("1-2\tmw\t_\t_\t_\t_\t_\t_\t_\t_")
            form, label = draw(st.sampled_from("ab")), draw(st.sampled_from(["nsubj", "obj"]))
            lines.append(f"{i}\t{form}\t_\tX\tX\t_\t{heads[i]}\t{label}\t_\t_")
            token_lines.append(lines[-1])
        blocks.append("\n".join(lines))
    text = "".join(block + "\n" * draw(st.integers(2, 3)) for block in blocks[:-1])
    return token_lines, text + blocks[-1] + "\n" * draw(st.integers(0, 2))


def _defect(line: str, kind: str) -> str:
    """A token line broken in one way that `_sentences` checks."""
    cols = line.split("\t")
    tok_id = int(cols[0])
    if kind == "self-head":
        cols[6] = str(tok_id)
    elif kind == "dangling-head":
        cols[6] = "99"
    elif kind == "negative-head":
        cols[6] = "-1"
    elif kind == "extra-root":
        cols[6] = "0" if cols[6] != "0" else str(1 if tok_id > 1 else 2)
    elif kind == "non-integer":
        cols[6] = "h"
    elif kind == "wrong-id":
        cols[0] = str(tok_id + 1)
    elif kind == "columns":
        cols = cols[:9]
    return "\t".join(cols)


DEFECTS = ["self-head", "dangling-head", "negative-head", "extra-root", "non-integer",
           "wrong-id", "columns", "lone-comment"]


class TestTreeShapeReader:
    """`read_tree_shapes` is `parse_conllu` then `TreeShape.of` per sentence,
    errors included: both run one parse loop."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(conllu_texts())
    def test_shapes_of_the_parsed_sentences(self, case):
        _, text = case
        shapes = deptree.read_tree_shapes(text)
        assert shapes == [TreeShape.of(sent) for sent in parse_conllu(text)]
        assert all(type(shape) is TreeShape for shape in shapes)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(conllu_texts(), st.sampled_from(DEFECTS), st.data())
    def test_same_error_for_each_defect(self, case, kind, data):
        token_lines, text = case
        line = data.draw(st.sampled_from(token_lines))
        if kind == "lone-comment":
            text = text.replace(line, "# lone\n\n" + line, 1)
        else:
            text = text.replace(line, _defect(line, kind), 1)
        with pytest.raises(ConlluError) as parsed:
            parse_conllu(text)
        with pytest.raises(ConlluError) as shaped:
            deptree.read_tree_shapes(text)
        assert str(shaped.value) == str(parsed.value)
        assert "line " in str(parsed.value)

    def test_equal_strings_are_shared_across_shapes(self):
        text = (
            "1\tab\t_\t_\t_\t_\t0\tnsubj\t_\t_\n\n"
            "1\tab\t_\t_\t_\t_\t0\tobj\t_\t_\n2\tab\t_\t_\t_\t_\t1\tnsubj\t_\t_\n"
        )
        first, second = deptree.read_tree_shapes(text)
        assert first.forms[0] is second.forms[0] is second.forms[1]
        assert first.labels == ("root",) and second.labels[1] == "nsubj"


class TestProjectivity:
    def test_chain_projective(self):
        assert is_projective(chain_sentence(3))

    def test_fig_3_8_projective(self, fig_3_8):
        assert is_projective(fig_3_8)

    def test_crossing_arcs_detected(self):
        toks = [
            DepToken(1, "a", head=3, deprel="dep"),
            DepToken(2, "b", head=4, deprel="dep"),
            DepToken(3, "c", head=0, deprel="root"),
            DepToken(4, "d", head=3, deprel="dep"),
        ]
        sent = DepSentence(tokens=toks)
        assert not is_projective(sent)
        assert next(_crossings(sent), None) is not None

    @given(st.integers(min_value=2, max_value=7), st.data())
    def test_agrees_with_yield_contiguity_oracle(self, n, data):
        heads = {}
        root = data.draw(st.integers(min_value=1, max_value=n))
        for tok in range(1, n + 1):
            if tok == root:
                heads[tok] = 0
            else:
                heads[tok] = data.draw(
                    st.integers(min_value=1, max_value=n).filter(lambda h, t=tok: h != t)
                )
        # keep only valid trees (no cycles)
        def reaches_root(tok):
            seen = set()
            while tok != 0:
                if tok in seen:
                    return False
                seen.add(tok)
                tok = heads[tok]
            return True

        if not all(reaches_root(t) for t in heads):
            return
        toks = [
            DepToken(i, f"w{i}", head=heads[i], deprel="root" if heads[i] == 0 else "dep")
            for i in range(1, n + 1)
        ]
        sent = DepSentence(tokens=toks)
        assert is_projective(sent) == projective_by_yields(heads)

    @settings(max_examples=300)
    @given(
        st.integers(min_value=1, max_value=12),
        st.randoms(use_true_random=False),
        st.sampled_from(["nested", "tree", "any"]),
    )
    def test_linear_check_agrees_with_pair_search(self, n, rng, shape):
        # nested: a projective tree, each subtree built over an interval;
        # tree: each token in a random order attached to one placed before
        # it; any: a random head per token, cycles and several roots
        # included, where the pair search decides
        heads = [0] * (n + 1)
        if shape == "nested":
            intervals = [(1, n, 0)]
            while intervals:
                lo, hi, head = intervals.pop()
                if lo <= hi:
                    node = rng.randint(lo, hi)
                    heads[node] = head
                    intervals += [(lo, node - 1, node), (node + 1, hi, node)]
        elif shape == "tree":
            placed = [0]
            for node in rng.sample(range(1, n + 1), n):
                heads[node] = rng.choice(placed[1:]) if len(placed) > 1 else 0
                placed.append(node)
        else:
            heads = [0] + [rng.randint(0, n) for _ in range(n)]
        sent = DepSentence(tokens=[DepToken(i, f"w{i}", head=heads[i]) for i in range(1, n + 1)])
        pairs = list(_crossings(sent))
        assert is_projective(sent) == (not pairs)
        if shape == "nested":
            assert is_projective(sent)


# the characters that the nested-tree format escapes, and a plain one
_ESCAPED_TEXT = st.text(alphabet="a<&\"'>", min_size=1, max_size=3)


@st.composite
def projective_trees(draw):
    """A projective sentence of 1-10 tokens, forms, tags and labels drawn
    from `_ESCAPED_TEXT`. Each interval gets a head drawn from it; the rest
    of it splits into runs on each side, one dependent subtree per run."""
    n = draw(st.integers(1, 10))
    heads = [0] * (n + 1)
    intervals = [(1, n, 0)]
    while intervals:
        lo, hi, parent = intervals.pop()
        node = draw(st.integers(lo, hi))
        heads[node] = parent
        for start, end in ((lo, node - 1), (node + 1, hi)):
            while start <= end:
                cut = draw(st.integers(start, end))
                intervals.append((start, cut, node))
                start = cut + 1
    return DepSentence(tokens=[
        DepToken(i, draw(_ESCAPED_TEXT), xpos=draw(_ESCAPED_TEXT), head=heads[i],
                 deprel="root" if heads[i] == 0 else draw(_ESCAPED_TEXT))
        for i in range(1, n + 1)
    ])


class TestNestedTree:
    def test_single_token(self):
        sent = parse_conllu("1\tx\tx\tX\tX\t_\t0\troot\t_\t_\n")[0]
        assert (
            to_nested_tree(sent)
            == '<tree label="sent"><tree label="root"><tree label="X">x</tree></tree></tree>'
        )

    def test_a_stone_fig_4_8_pattern(self, a_stone_sentence):
        rendered = to_nested_tree(a_stone_sentence)
        assert rendered == A_STONE_NESTED
        assert (
            '<tree label="nsubj"><tree label="det"><tree label="DT">A</tree></tree>'
            '<tree label="NN">stone</tree></tree>' in rendered
        )

    def test_round_trip_label_sequence(self, a_stone_sentence):
        rendered = to_nested_tree(a_stone_sentence)
        rebuilt = parse_nested_tree(rendered)
        assert [t.form for t in rebuilt.tokens] == [t.form for t in a_stone_sentence.tokens]
        # a word's node label is its XPOS, the label around it its deprel
        assert [(t.xpos, t.deprel) for t in rebuilt.tokens] == [
            (t.xpos, t.deprel) for t in a_stone_sentence.tokens
        ]
        assert next(t for t in rebuilt.tokens if t.head == 0).deprel == "root"
        # reading our own output again gives the same sentence
        assert parse_nested_tree(rendered) == rebuilt

    def test_leaf_per_token_in_surface_order(self, fig_3_8):
        rebuilt = parse_nested_tree(to_nested_tree(fig_3_8))
        assert [t.form for t in rebuilt.tokens] == [t.form for t in fig_3_8.tokens]
        assert [t.id for t in rebuilt.tokens] == list(range(1, len(fig_3_8.tokens) + 1))

    def test_non_projective_rejected_naming_arcs(self):
        toks = [
            DepToken(1, "a", head=3, deprel="dep"),
            DepToken(2, "b", head=4, deprel="dep"),
            DepToken(3, "c", head=0, deprel="root"),
            DepToken(4, "d", head=3, deprel="dep"),
        ]
        with pytest.raises(ConlluError, match="crosses"):
            to_nested_tree(DepSentence(tokens=toks))

    @pytest.mark.parametrize("heads", [(0, 0), (0, 3, 2)], ids=["two-roots", "cycle"])
    def test_non_tree_rejected(self, heads):
        # rendering from one root would drop the other tokens
        toks = [DepToken(i, f"w{i}", head=h, deprel="dep") for i, h in enumerate(heads, 1)]
        with pytest.raises(ConlluError, match="is not one tree"):
            to_nested_tree(DepSentence(sent_id="s", tokens=toks))

    def test_xml_escaping(self):
        sent = parse_conllu('1\t<&">\tx\tX\tP&P\t_\t0\troot\t_\t_\n')[0]
        rendered = to_nested_tree(sent)
        assert "&lt;&amp;&quot;&gt;" in rendered
        assert 'label="P&amp;P"' in rendered
        (token,) = parse_nested_tree(rendered).tokens
        assert (token.form, token.xpos) == ('<&">', "P&P")

    def test_nested_to_sentence_round_trip(self, a_stone_sentence):
        rendered = to_nested_tree(a_stone_sentence)
        rebuilt = parse_nested_tree(rendered, "s9")
        assert rebuilt.sent_id == "s9"
        assert [t.form for t in rebuilt.tokens] == [t.form for t in a_stone_sentence.tokens]
        assert [t.head for t in rebuilt.tokens] == [t.head for t in a_stone_sentence.tokens]
        assert [t.deprel for t in rebuilt.tokens] == [t.deprel for t in a_stone_sentence.tokens]
        assert to_nested_tree(rebuilt) == rendered

    def test_deep_chain_round_trip(self):
        # 2,000 nested levels, past Python's default recursion limit of 1,000
        sent = chain_sentence(2000)
        rendered = to_nested_tree(sent)
        assert rendered.count("<tree ") == 2 + 2 * 2000 - 1
        (rebuilt,) = parse_nested_tree_file(rendered + "\n")
        assert [(t.id, t.form, t.head, t.deprel, t.xpos) for t in rebuilt.tokens] == [
            (t.id, t.form, t.head, t.deprel, t.xpos) for t in sent.tokens
        ]
        assert to_nested_tree(rebuilt) == rendered

    @pytest.mark.parametrize(
        "line",
        ['<tree label="sent', '<tree label="sent">a', '<tree label="sent"><x></tree>'],
        ids=["open-label", "open-tree", "stray-tag"],
    )
    def test_malformed_nested_tree_rejected(self, line):
        with pytest.raises(ConlluError, match="offset"):
            parse_nested_tree(line)

    @settings(max_examples=300, deadline=None)
    @given(projective_trees())
    def test_written_trees_read_back(self, sent):
        rendered = to_nested_tree(sent)
        rebuilt = parse_nested_tree(rendered)
        assert [(t.id, t.form, t.head, t.deprel, t.xpos) for t in rebuilt.tokens] == [
            (t.id, t.form, t.head, t.deprel, t.xpos) for t in sent.tokens
        ]
        assert to_nested_tree(rebuilt) == rendered

    # lines that a reader taking "a node with text is a word" would read by
    # dropping text or whole subtrees
    @pytest.mark.parametrize(
        "line, node",
        [
            ('<tree label="sent"><tree label="root"><tree label="VB">go<tree label="obj">'
             '<tree label="NN">home</tree></tree></tree></tree></tree>', "VB"),
            ('<tree label="sent"><tree label="root">go<tree label="VB">home</tree></tree></tree>',
             "root"),
            ('<tree label="sent"><tree label="root"><tree label="VB">go</tree><tree label="obj">'
             '<tree label="NN">home</tree>now</tree></tree></tree>', "obj"),
        ],
        ids=["word-with-subtree", "text-in-root", "text-in-inner-node"],
    )
    def test_text_beside_subtrees_rejected(self, line, node):
        with pytest.raises(ConlluError, match=f"^node '{node}' holds a word and subtrees at offset"):
            parse_nested_tree(line)
        with pytest.raises(ConlluError, match="^line 2: node"):
            parse_nested_tree_file(to_nested_tree(chain_sentence(2)) + "\n" + line + "\n")

    def test_nested_tree_file_reader(self, fig_3_8, a_stone_sentence):
        text = to_nested_tree(fig_3_8) + "\n" + to_nested_tree(a_stone_sentence) + "\n"
        sentences = parse_nested_tree_file(text)
        assert len(sentences) == 2
        assert next(t for t in sentences[1].tokens if t.head == 0).form == "said"

