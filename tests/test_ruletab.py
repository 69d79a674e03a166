import hashlib
import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import frontier_rules_reference, hier_rules_reference

from smtkit.align import TTable
from smtkit.corpus import SentencePair
from smtkit.deptree import DepSentence, DepToken, TreeShape, parse_conllu
from smtkit.phrasetab import extract_phrases
from smtkit.ruletab import (
    Fragment,
    NT,
    TreeRule,
    Var,
    _count_rules,
    _hier_rule_keys,
    _read_fragment,
    _symbols,
    _tree_rule_keys,
    build_rule_table,
    build_tree_rule_table,
    extract_hier_rules,
    format_rule,
    format_tree_rule,
    glue_rules,
    parse_rule,
    parse_tree_rule,
    read_rule_table,
    read_tree_rule_table,
    write_rule_table,
    write_tree_rule_table,
)
from smtkit.phrasetab import PhraseError


def reorder_fixture():
    """'is he going' aligned so the gap rule keeps its target-final variable."""
    pair = SentencePair(["is", "he", "going"], ["जात", "हऽ", "ऊ"])
    links = {(0, 0), (2, 1), (1, 2)}
    return pair, links


class TestHierExtraction:
    def test_single_word_pair_only_lexical_rule(self):
        rules = extract_hier_rules(SentencePair(["w"], ["v"]), {(0, 0)})
        assert [r.key() for r in rules] == [("X", ("w",), ("v",))]

    def test_paper_rule_extracted(self):
        pair, links = reorder_fixture()
        rules = extract_hier_rules(pair, links)
        assert ("X", ("is", NT(1), "going"), ("जात", "हऽ", NT(1))) in {r.key() for r in rules}

    def test_no_adjacent_source_nonterminals(self):
        pair = SentencePair(["a", "b", "c", "d"], ["w", "x", "y", "z"])
        links = {(i, i) for i in range(4)}
        for rule in extract_hier_rules(pair, links):
            for s1, s2 in zip(rule.src_rhs, rule.src_rhs[1:]):
                assert not (isinstance(s1, NT) and isinstance(s2, NT))

    def test_source_side_keeps_a_terminal(self):
        pair = SentencePair(["a", "b"], ["x", "y"])
        links = {(0, 0), (1, 1)}
        for rule in extract_hier_rules(pair, links):
            assert any(not isinstance(s, NT) for s in rule.src_rhs)

    def test_max_source_symbols(self):
        pair = SentencePair([f"s{i}" for i in range(7)], [f"t{i}" for i in range(7)])
        links = {(i, i) for i in range(7)}
        for rule in extract_hier_rules(pair, links):
            assert len(rule.src_rhs) <= 5

    def test_substituting_holes_reconstitutes_initial_phrase(self):
        pair, links = reorder_fixture()
        initial = {
            (tuple(pair.source[i1 : i2 + 1]), tuple(pair.target[j1 : j2 + 1]))
            for (i1, i2), (j1, j2) in extract_phrases(pair, links, 10)
        }
        rules = extract_hier_rules(pair, links)
        lexical = [r.key() for r in rules if not any(isinstance(s, NT) for s in r.src_rhs)]
        for rule in rules:
            nts = [s for s in rule.src_rhs if isinstance(s, NT)]
            if len(nts) != 1:
                continue
            # some extracted phrase pair must fill the hole back to an initial pair
            for _, src_fill, tgt_fill in lexical:
                src = tuple(
                    t for s in rule.src_rhs for t in (src_fill if isinstance(s, NT) else (s,))
                )
                tgt = tuple(
                    t for s in rule.tgt_rhs for t in (tgt_fill if isinstance(s, NT) else (s,))
                )
                if (src, tgt) in initial:
                    break
            else:
                pytest.fail(f"rule {rule} cannot be reconstituted")


class TestGlue:
    def test_exactly_two_monotone_rules(self):
        rules = glue_rules()
        assert len(rules) == 2
        assert rules[0].key() == ("S", (NT(1, "X"),), (NT(1, "X"),))
        assert rules[1].key() == ("S", (NT(1, "S"), NT(2, "X")), (NT(1, "S"), NT(2, "X")))
        for rule in rules:
            assert rule.scores == (1.0, 1.0, 1.0, 1.0)

    def test_serialization_round_trip(self):
        for rule in glue_rules():
            assert parse_rule(format_rule(rule)).key() == rule.key()


class TestRuleTable:
    def test_counts_normalize_per_source(self):
        pair, links = reorder_fixture()
        table = build_rule_table([pair], [links], TTable({}), TTable({}))
        table = [rule for rule in table if rule.lhs != "S"]
        by_src = {}
        for rule in table:
            by_src.setdefault((rule.lhs, rule.src_rhs), 0.0)
            by_src[(rule.lhs, rule.src_rhs)] += rule.scores[2]
        for total in by_src.values():
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_counts_sum_identity(self):
        pair, links = reorder_fixture()
        table = build_rule_table([pair, pair], [links, links], TTable({}), TTable({}))
        table = [rule for rule in table if rule.lhs != "S"]
        for rule in table:
            src_count = sum(r.counts[2] for r in table if (r.lhs, r.src_rhs) == (rule.lhs, rule.src_rhs))
            assert src_count == pytest.approx(rule.counts[1])

    def test_round_trip(self):
        pair, links = reorder_fixture()
        table = build_rule_table([pair], [links], TTable({}), TTable({}))
        text = write_rule_table(table)
        again = read_rule_table(text)
        assert [r.key() for r in again] == [r.key() for r in table]
        assert write_rule_table(again) == text

    def test_key_with_two_alignments_keeps_the_smallest(self):
        # "b b" -> "y" twice, with its link on either word
        pair = SentencePair(["b", "b", "b"], ["y"])
        table = build_rule_table([pair], [{(1, 0)}], TTable({}), TTable({}))
        (rule,) = [rule for rule in table if rule.key() == ("X", ("b", "b"), ("y",))]
        assert rule.alignment == {(0, 0)}

    def test_figure_style_line_parses(self):
        line = "[X][X] our flag [X] ||| [X][X] हमहन क झन्डा [X] ||| 1 0.0218876 1 0.00134698 ||| 0-0 1-1 2-2 2-3 ||| 1 1 1"
        rule = parse_rule(line)
        assert rule.lhs == "X"
        assert rule.src_rhs[0] == NT(1, "X")
        assert rule.src_rhs[1:] == ("our", "flag")


@st.composite
def hier_pairs(draw):
    """A sentence pair of 1-8 words a side over a small vocabulary, so that
    words repeat, with random links."""
    source = draw(st.lists(st.sampled_from("abc"), min_size=1, max_size=8))
    target = draw(st.lists(st.sampled_from("xyz"), min_size=1, max_size=8))
    links = draw(st.sets(st.tuples(st.integers(0, len(source) - 1), st.integers(0, len(target) - 1)),
                         max_size=len(source) + len(target)))
    return source, target, links


@settings(max_examples=300, deadline=None, derandomize=True)
@given(hier_pairs())
@example((list("abcdef"), list("xyzuvw"), {(i, i) for i in range(6)}))
def test_hier_rules_match_reference(case):
    source, target, links = case

    def side(symbols):
        return tuple(s.index if isinstance(s, NT) else s for s in symbols)

    rules = extract_hier_rules(SentencePair(source, target), links)
    found = {(side(r.src_rhs), side(r.tgt_rhs), r.alignment) for r in rules if r.lhs == "X"}
    assert len(found) == len(rules)
    assert found == hier_rules_reference(source, target, links)


def digest_corpus(seed=3, size=40):
    """Random pairs as in `hier_pairs`, with lexical tables of dyadic
    probabilities. Some of their rule keys are found twice in a sentence with
    different alignments."""
    rng = random.Random(seed)
    pairs, link_sets = [], []
    for _ in range(size):
        source = [rng.choice("abc") for _ in range(rng.randint(1, 8))]
        target = [rng.choice("xyz") for _ in range(rng.randint(1, 8))]
        pairs.append(SentencePair(source, target))
        link_sets.append({(rng.randrange(len(source)), rng.randrange(len(target)))
                          for _ in range(rng.randint(1, len(source) + len(target)))})

    def ttable(given, words):
        return TTable({g: {w: rng.choice((0.5, 0.25, 0.125)) for w in words} for g in given})

    return pairs, link_sets, ttable("abc", "xyz"), ttable("xyz", "abc")


# sha256 of the rule table of `digest_corpus()`; it holds under any string-hash seed
RULE_TABLE_DIGEST = "4e19f8f247821b87442390b209bd97f3fea77b6e92df562078c3858145a3d4dd"


def test_rule_table_matches_recorded_digest():
    text = write_rule_table(build_rule_table(*digest_corpus()))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == RULE_TABLE_DIGEST


def test_a_rule_table_read_twice_shares_its_alignments():
    # the rule reader parses each distinct alignment field once, as the
    # phrase-table reader does, also across reads
    text = write_rule_table(build_rule_table(*digest_corpus()))
    table, again = read_rule_table(text), read_rule_table(text)
    assert table == again
    alignments = [rule.alignment for rule in table]
    assert len({id(a) for a in alignments}) == len(set(alignments)) < len(alignments)
    assert all(rule.alignment is other.alignment for rule, other in zip(table, again))


def test_rule_table_does_not_depend_on_link_set_order():
    # four source words linked to one target word: the sum of their
    # translation probabilities depends on its order, which is the links'
    # order, not the order in which the link set was built
    pair = SentencePair(list("abcd"), ["x"])
    probs = dict(zip("abcd", (0.1, 0.2, 0.3, 0.7)))
    fwd, bwd = TTable({s: {"x": p} for s, p in probs.items()}), TTable({"x": probs})
    tables = {
        write_rule_table(build_rule_table([pair], [set(order)], fwd, bwd))
        for order in itertools.permutations([(i, 0) for i in range(4)])
    }
    assert len(tables) == 1


def test_rule_table_digest_does_not_depend_on_slicing():
    # the pairs counted in slices, merged in any order, give the same table
    for shards in (2, 3, 11):
        calls = []

        def reversed_map(count, slices):
            calls.append(list(slices))
            return [count(s) for s in slices][::-1]

        text = write_rule_table(build_rule_table(*digest_corpus(), shards, reversed_map))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == RULE_TABLE_DIGEST
        assert calls == [list(range(shards))]


def chain_tree(links_monotone=True):
    conllu = (
        "1\tt1\t_\t_\tA\t_\t2\td1\t_\t_\n"
        "2\tt2\t_\t_\tB\t_\t3\td2\t_\t_\n"
        "3\tt3\t_\t_\tC\t_\t0\troot\t_\t_\n"
    )
    sent = parse_conllu(conllu)[0]
    pair = SentencePair(["t1", "t2", "t3"], ["u1", "u2", "u3"], source_tree=TreeShape.of(sent))
    # the interleaving alignment makes the middle node's target span overlap
    # the root word's target position
    links = {(0, 0), (1, 1), (2, 2)} if links_monotone else {(0, 0), (1, 2), (2, 1)}
    return pair, links


class TestTreeExtraction:
    def test_single_word_single_rule(self):
        sent = parse_conllu("1\tw\t_\t_\tX\t_\t0\troot\t_\t_\n")[0]
        pair = SentencePair(["w"], ["v"], source_tree=TreeShape.of(sent))
        rules, _ = build_tree_rule_table([pair], [{(0, 0)}])
        assert len(rules) == 1
        assert rules[0].fragment == Fragment("root", ("w",))
        assert rules[0].target == ("v",)

    def test_chain_three_minimal_rules(self):
        pair, links = chain_tree()
        rules, _ = build_tree_rule_table([pair], [links])
        assert len(rules) == 3
        root_rule = next(r for r in rules if r.fragment.label == "root")
        assert sum(isinstance(t, Var) for t in root_rule.target) == 1

    def test_all_frontier_monotone_one_rule_per_node(self):
        pair, links = chain_tree()
        assert len(build_tree_rule_table([pair], [links])[0]) == len(pair.source)

    def test_non_frontier_material_absorbed_into_parent(self):
        # reversed alignment makes the middle node's span overlap its complement
        pair, links = chain_tree(links_monotone=False)
        rules, _ = build_tree_rule_table([pair], [links])
        labels = [r.fragment.label for r in rules]
        assert "root" in labels
        root_rule = next(r for r in rules if r.fragment.label == "root")
        # d2's subtree is not frontier (its span interleaves), so the root
        # rule inlines it rather than using a variable
        assert not any(isinstance(t, Var) and t.label == "d2" for t in root_rule.fragment.items)

    def test_target_variables_unique(self):
        pair, links = chain_tree()
        for rule in build_tree_rule_table([pair], [links])[0]:
            indices = [t.index for t in rule.target if isinstance(t, Var)]
            assert len(indices) == len(set(indices))

    def test_non_projective_skipped(self):
        conllu = (
            "1\ta\t_\t_\tA\t_\t3\td\t_\t_\n"
            "2\tb\t_\t_\tB\t_\t4\td\t_\t_\n"
            "3\tc\t_\t_\tC\t_\t0\troot\t_\t_\n"
            "4\td\t_\t_\tD\t_\t3\td\t_\t_\n"
        )
        sent = parse_conllu(conllu)[0]
        pair = SentencePair(["a", "b", "c", "d"], ["w"], source_tree=TreeShape.of(sent))
        rules, skipped = build_tree_rule_table([pair], [{(0, 0)}])
        assert rules == []
        assert skipped == 1

    def test_missing_tree_rejected(self):
        with pytest.raises(PhraseError):
            build_tree_rule_table([SentencePair(["a"], ["b"])], [set()])


class TestTreeRuleTable:
    def test_relative_frequency_over_root_labels(self):
        pair, links = chain_tree()
        table, skipped = build_tree_rule_table([pair, pair], [links, links])
        assert skipped == 0
        for rule in table:
            assert rule.scores[2] == pytest.approx(1.0)

    def test_round_trip(self):
        pair, links = chain_tree()
        table, _ = build_tree_rule_table([pair], [links])
        text = write_tree_rule_table(table)
        again = read_tree_rule_table(text)
        assert [r.key() for r in again] == [r.key() for r in table]
        assert write_tree_rule_table(again) == text

    @pytest.mark.parametrize("line", [
        "(root ||| b ||| 0.5 ||| 1",
        "(root w:a ||| b ||| 0.5 ||| 1",
        " ||| b ||| 0.5 ||| 1",
    ], ids=["label-to-end", "items-to-end", "empty-fragment"])
    def test_unterminated_fragment_names_line(self, line):
        text = "(root w:a) ||| b ||| 0.5 0.5 ||| 1 1\n" + line + "\n"
        with pytest.raises(PhraseError, match="^line 2: "):
            read_tree_rule_table(text)

    def test_nested_fragment_round_trip(self):
        rule = TreeRule(
            Fragment("root", (Fragment("d2", (Var(1, "d1"), "t2")), "t3")),
            (Var(1, ""), "u2", "u3"),
        )
        assert parse_tree_rule(format_tree_rule(rule)).key() == rule.key()

    def test_parenthesis_word_round_trip(self):
        rule = TreeRule(Fragment("root", ("a", Fragment("punct", (")",)), Var(1, "obj"))), ("b", Var(1, "")))
        line = format_tree_rule(rule)
        assert line.startswith("(root w:a (punct w=%29) #1:obj) ||| b #1 ||| ")
        assert parse_tree_rule(line) == rule

    def test_text_after_fragment_names_line(self):
        # written before ')' words were escaped, this line read back as
        # (root w:a (punct w:)) and dropped '#1:obj' without a word
        text = "(root w:a) ||| b ||| 1 1 1 1 ||| 1 1\n(root w:a (punct w:)) #1:obj) ||| b ||| 1 1 1 1 ||| 1 1\n"
        with pytest.raises(PhraseError, match="^line 2: unexpected text after the fragment: ' #1:obj\\)'"):
            read_tree_rule_table(text)


LABELS = ("nsubj", "obj", "amod", "punct")
# words heavy in the characters the tree-rule format gives a meaning to
WORDS = st.text(alphabet="ab()%:#w=|-.", min_size=1, max_size=4)
VARS = st.builds(Var, st.integers(1, 9), st.sampled_from(LABELS))
FRAGMENTS = st.recursive(
    st.builds(Fragment, st.sampled_from(LABELS), st.tuples(WORDS)),
    lambda inner: st.builds(
        Fragment,
        st.sampled_from(LABELS),
        st.lists(st.one_of(WORDS, VARS, inner), min_size=1, max_size=3).map(tuple),
    ),
    max_leaves=8,
)
TARGETS = st.lists(
    st.one_of(WORDS, st.builds(Var, st.integers(1, 9), st.just(""))),
    min_size=1, max_size=4,
).map(tuple)
SCORES = st.tuples(*[st.sampled_from((0.5, 1.0, 0.25, 1e-05, 0.3333333333333333))] * 4)


def fragment_variables(fragment):
    """The variable indices of `fragment`, in surface order."""
    found = []
    for item in fragment.items:
        if isinstance(item, Fragment):
            found += fragment_variables(item)
        elif isinstance(item, Var):
            found.append(item.index)
    return found


def renumbered(fragment, numbers):
    """`fragment` with its variables numbered by `numbers`, in surface order."""
    return Fragment(fragment.label, tuple(
        renumbered(item, numbers) if isinstance(item, Fragment)
        else Var(next(numbers), item.label) if isinstance(item, Var)
        else item
        for item in fragment.items
    ))


@st.composite
def paired_rules(draw):
    """A fragment with variables 1..m and a target of words that names each
    of them once."""
    fragment = renumbered(draw(FRAGMENTS), iter(range(1, 100)))
    order = draw(st.permutations(range(1, len(fragment_variables(fragment)) + 1)))
    target = draw(st.lists(WORDS, min_size=0 if order else 1, max_size=4))
    for index in order:
        target.insert(draw(st.integers(0, len(target))), Var(index, ""))
    return fragment, tuple(target)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(FRAGMENTS, TARGETS)
def test_tree_rule_variables_must_pair_one_to_one(fragment, target):
    numbers = list(range(1, len(fragment_variables(fragment)) + 1))
    paired = (sorted(fragment_variables(fragment)) == numbers
              and sorted(t.index for t in target if isinstance(t, Var)) == numbers)
    line = format_tree_rule(TreeRule(fragment, target))
    if paired:
        assert parse_tree_rule(line).key() == (fragment, target)
    else:
        with pytest.raises(PhraseError, match="variables"):
            parse_tree_rule(line)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(paired_rules(), SCORES)
@example((Fragment("root", ("a",)), ("x", "|||", "|||")), (1.0, 1.0, 1.0, 1.0))
def test_tree_rule_round_trip(rule_sides, scores):
    fragment, target = rule_sides
    rule = TreeRule(fragment, target, scores, (3.0, 4.0))
    line = format_tree_rule(rule)
    assert parse_tree_rule(line) == rule
    assert format_tree_rule(parse_tree_rule(line)) == line


@st.composite
def tree_pairs(draw):
    """A random tree over 1-7 tokens (often non-projective), a target of 1-7
    words and random links, some from beyond the tree."""
    n = draw(st.integers(1, 7))
    order = draw(st.permutations(range(1, n + 1)))
    heads = [0] * n
    for k, tok in enumerate(order[1:], start=1):  # each token hangs below an earlier one
        heads[tok - 1] = order[draw(st.integers(0, k - 1))]
    labels = [draw(st.sampled_from(LABELS)) for _ in range(n)]
    forms = [draw(WORDS) for _ in range(n)]
    target = draw(st.lists(WORDS, min_size=1, max_size=7))
    links = draw(st.sets(st.tuples(st.integers(0, n + 1), st.integers(0, len(target) - 1)),
                         max_size=3 * n))
    return heads, labels, forms, target, links


def dep_sentence(heads, labels, forms):
    return DepSentence(tokens=[DepToken(t, forms[t - 1], head=heads[t - 1], deprel=labels[t - 1])
                               for t in range(1, len(heads) + 1)])


def as_pair(heads, labels, forms, target):
    return SentencePair(list(forms), list(target),
                        source_tree=TreeShape.of(dep_sentence(heads, labels, forms)))


def tree_rules(pair, links):
    """One pair's rules as `_tree_rule_keys` lists them: in token order,
    a repeated rule once per occurrence."""
    return [TreeRule(_read_fragment(text), _symbols(target, Var, ""))
            for (text, target), _ in _tree_rule_keys(pair, links) or ()]


def neutral(rule):
    """A TreeRule in the oracle's terms."""
    def fragment(frag):
        return (frag.label, tuple(
            ("frag", fragment(item)) if isinstance(item, Fragment)
            else ("var", item.index, item.label) if isinstance(item, Var)
            else ("w", item)
            for item in frag.items
        ))

    return fragment(rule.fragment), tuple(
        ("var", t.index) if isinstance(t, Var) else ("w", t) for t in rule.target
    )


@settings(max_examples=400, deadline=None, derandomize=True)
@given(tree_pairs())
def test_tree_rules_match_oracle(case):
    heads, labels, forms, target, links = case
    expected = frontier_rules_reference(heads, labels, forms, target, links)
    pair = as_pair(heads, labels, forms, target)
    assert [neutral(r) for r in tree_rules(pair, links)] == (expected or [])
    table, skipped = build_tree_rule_table([pair], [links])
    assert skipped == (expected is None)
    assert sorted(neutral(r) for r in table) == sorted(set(expected or []))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(tree_pairs(), min_size=1, max_size=8))
def test_tree_rule_table_matches_oracle_counts(cases):
    pairs = [as_pair(*case[:4]) for case in cases]
    link_sets = [case[4] for case in cases]
    joint, label_totals, target_totals, skipped = {}, {}, {}, 0
    for case in cases:
        rules = frontier_rules_reference(*case)
        skipped += rules is None
        for frag, rhs in rules or []:
            joint[frag, rhs] = joint.get((frag, rhs), 0) + 1
            label_totals[frag[0]] = label_totals.get(frag[0], 0) + 1
            target_totals[rhs] = target_totals.get(rhs, 0) + 1
    table, table_skipped = build_tree_rule_table(pairs, link_sets)
    assert table_skipped == skipped
    assert {neutral(r): (r.scores, r.counts) for r in table} == {
        (frag, rhs): (
            (count / target_totals[rhs], 1.0, count / label_totals[frag[0]], 1.0),
            (count, label_totals[frag[0]]),
        )
        for (frag, rhs), count in joint.items()
    }
    lines = [format_tree_rule(r) for r in table]
    assert lines == sorted(lines)
    # slicing the pairs into shards, counted in any order, gives the same table
    for shards in (2, 3, 11):
        calls = []

        def reversed_map(count, slices):
            calls.append(list(slices))
            return [count(s) for s in slices][::-1]

        assert build_tree_rule_table(pairs, link_sets, shards, reversed_map) == (table, skipped)
        assert calls == [list(range(min(shards, len(pairs))))]


def test_shard_counts_are_plain_data():
    import marshal

    pair, links = chain_tree(links_monotone=False)
    for rule_keys in (_hier_rule_keys, _tree_rule_keys):
        sent = []

        def marshalled(count, slices):
            sent.extend(count(s) for s in slices)
            return [marshal.loads(marshal.dumps(counts)) for counts in sent]

        counts, skipped = _count_rules(rule_keys, [pair, pair], [links, links], 2, marshalled)
        assert [marshal.loads(marshal.dumps(counts)) for counts in sent] == sent
        assert (counts, skipped) == _count_rules(rule_keys, [pair, pair], [links, links])
        assert skipped == 0 and {n for n, _ in counts.values()} == {2}
        assert {number for _, (number, _) in counts.values()} == {0}


def test_link_outside_pair_rejected():
    pair, _ = chain_tree()
    with pytest.raises(PhraseError, match="link 0-3 lies outside the sentence pair"):
        build_tree_rule_table([pair], [{(0, 0), (0, 3)}])
