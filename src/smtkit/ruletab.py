"""Hierarchical (SCFG) rule extraction with glue grammar, and dependency
tree-to-string rule extraction via frontier nodes.

Hierarchical rules subtract one or two sub-phrase pairs from an initial
phrase pair of at most MAX_SPAN (10) words a side and replace them with
co-indexed gap nonterminals, under the usual constraints: at most MAX_NT (2)
nonterminals, never adjacent on the source side, at most MAX_SRC_SYMBOLS (5)
source symbols, at least one source terminal.

Tree rules are read off the walk that `deptree.heads_walk` gives a source
tree's `deptree.TreeShape`, under its labels; a tree that is not projective
(`deptree.heads_contiguous`) gives no rules. A hier gap and a tree
variable are one named tuple, `NT`; a tree variable, `Var`, is an `NT`
that prints under its own name.

Both tables are counted by `_count_rules` on plain keys, which write a gap
or variable as its index, in slices that the CLI spreads over `--jobs`
processes; a rule object is built once per distinct key.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .align import TTable, format_links
from .corpus import SentencePair
from .deptree import TreeShape, heads_contiguous, heads_walk
from .phrasetab import (
    PhraseError, _fmt_num, _lex_weight, extract_phrases, finite_floats, parse_lines, probabilities,
    read_alignment,
)


class NT(NamedTuple):
    """A gap nonterminal or variable; index pairs source and target
    occurrences."""

    index: int
    label: str = "X"


@dataclass(frozen=True)
class RuleEntry:
    lhs: str
    src_rhs: tuple
    tgt_rhs: tuple
    scores: tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0)
    alignment: frozenset = frozenset()
    counts: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def key(self) -> tuple:
        return (self.lhs, self.src_rhs, self.tgt_rhs)


MAX_NT = 2  # gaps per rule
MAX_SRC_SYMBOLS = 5  # terminals and gaps on the source side
MAX_SPAN = 10  # longest initial phrase, on either side


def _side(words: list[str], start: int, end: int, holes: dict[int, tuple[int, int]]):
    """words[start..end] with each hole {start: (end, index)} written as its
    index, and the position in that side of each kept word and hole; a hier
    rule's side or a tree rule's target side."""
    rhs: list = []
    at: dict[int, int] = {}
    p = start
    while p <= end:
        at[p] = len(rhs)
        hole = holes.get(p)
        if hole is None:
            rhs.append(words[p])
            p += 1
        else:
            rhs.append(hole[1])
            p = hole[0] + 1
    return tuple(rhs), at


def _hier_rule_keys(pair: SentencePair, links) -> set[tuple[tuple, tuple]]:
    """The hierarchical rules of one sentence pair, each keyed as (its source
    side, its target side) with each gap as its index, and each with its
    sorted links; a key found with several link sets comes with each."""
    initial = extract_phrases(pair, links, MAX_SPAN)
    rules: set[tuple[tuple, tuple]] = set()
    for outer in initial:
        (i1, i2), (j1, j2) = outer
        # the other initial pairs inside this one, sorted as `initial` is, so
        # that a pair's first hole starts first on the source side
        subs = [
            (s, t) for s, t in initial
            if (s, t) != outer and i1 <= s[0] and s[1] <= i2 and j1 <= t[0] and t[1] <= j2
        ]
        hole_sets = [()] + [(sub,) for sub in subs] + [
            (a, b) for a, b in itertools.combinations(subs, MAX_NT)
            if a[0][1] + 1 < b[0][0] and (a[1][1] < b[1][0] or b[1][1] < a[1][0])
        ]
        for holes in hole_sets:
            terminals = i2 - i1 + 1 - sum(s2 - s1 + 1 for (s1, s2), _ in holes)
            if terminals < 1 or terminals + len(holes) > MAX_SRC_SYMBOLS:
                continue
            src_rhs, src_at = _side(
                pair.source, i1, i2, {s1: (s2, k) for k, ((s1, s2), _) in enumerate(holes, 1)}
            )
            tgt_rhs, tgt_at = _side(
                pair.target, j1, j2, {t1: (t2, k) for k, (_, (t1, t2)) in enumerate(holes, 1)}
            )
            # a link from a hole's first word can only add the hole's own pair
            alignment = {(src_at[s1], tgt_at[t1]) for (s1, _), (t1, _) in holes}
            alignment.update(
                (src_at[i], tgt_at[j]) for i, j in links if i in src_at and j in tgt_at
            )
            rules.add(((src_rhs, tgt_rhs), tuple(sorted(alignment))))
    return rules


def _symbols(side: tuple, nt: type = NT, label: str = "X") -> tuple:
    """A rule key's side with each gap or variable index as an `nt`."""
    return tuple(nt(s, label) if isinstance(s, int) else s for s in side)


def _rule_sort_key(key: tuple) -> tuple:
    """A hier rule key's place in the table: side by side, a word before a
    gap, words by their text and gaps by their index."""
    return tuple(tuple((1, s) if isinstance(s, int) else (0, s) for s in side) for side in key)


def extract_hier_rules(pair: SentencePair, links: set[tuple[int, int]]) -> list[RuleEntry]:
    """Hierarchical rules from one sentence pair, deduplicated, in key order
    and a key's link sets from the smallest."""
    return [
        RuleEntry("X", _symbols(src), _symbols(tgt), alignment=frozenset(alignment))
        for (src, tgt), alignment in sorted(
            _hier_rule_keys(pair, links), key=lambda rule: (_rule_sort_key(rule[0]), rule[1])
        )
    ]


def glue_rules() -> list[RuleEntry]:
    """The two monotone glue rules with fixed feature value 1."""
    return [
        RuleEntry("S", (NT(1, "X"),), (NT(1, "X"),), alignment=frozenset({(0, 0)})),
        RuleEntry(
            "S",
            (NT(1, "S"), NT(2, "X")),
            (NT(1, "S"), NT(2, "X")),
            alignment=frozenset({(0, 0), (1, 1)}),
        ),
    ]


def _count_rules(
    rule_keys: Callable,
    pairs: list[SentencePair],
    link_sets: list[set[tuple[int, int]]],
    shards: int = 1,
    map_shards: Callable | None = None,
) -> tuple[dict[tuple, list], int]:
    """{key: [occurrences, smallest (sentence number, links)]} over the
    rules that `rule_keys(pair, links)` gives as (key, links), and the number
    of pairs it skips by giving None.

    The pairs are counted in `shards` round-robin slices by
    `map_shards(count, slices)`, which returns [count(s) for s in slices]
    (in this process when None; the CLI passes one that spreads the slices
    over processes, so a slice's counts are plain data). The result does
    not depend on the slicing.
    """
    shards = max(1, min(shards, len(pairs)))

    def count(shard: int):
        counts: dict[tuple, list] = {}
        skipped = 0
        for number in range(shard, len(pairs), shards):
            rules = rule_keys(pairs[number], link_sets[number])
            skipped += rules is None
            for key, links in rules or ():
                seen = counts.setdefault(key, [0, (number, links)])
                seen[0] += 1
                seen[1] = min(seen[1], (number, links))
        return counts, skipped

    joint: dict[tuple, list] = {}
    skipped = 0
    for counts, shard_skipped in (map_shards or map)(count, list(range(shards))):
        skipped += shard_skipped
        for key, (n, first) in counts.items():
            seen = joint.setdefault(key, [0, first])
            seen[0] += n
            seen[1] = min(seen[1], first)
    return joint, skipped


def build_rule_table(
    pairs: list[SentencePair],
    link_sets: list[set[tuple[int, int]]],
    ttable_fwd: TTable,
    ttable_bwd: TTable,
    shards: int = 1,
    map_shards: Callable | None = None,
) -> list[RuleEntry]:
    """The scored hier rules of the pairs in key order, glue rules last.
    A rule keeps its smallest links in the first sentence that has it. The
    pairs are counted as `_count_rules` says."""
    joint, _ = _count_rules(_hier_rule_keys, pairs, link_sets, shards, map_shards)
    src_totals: dict[tuple, int] = {}
    tgt_totals: dict[tuple, int] = {}
    for (src, tgt), (n, _) in joint.items():
        src_totals[src] = src_totals.get(src, 0) + n
        tgt_totals[tgt] = tgt_totals.get(tgt, 0) + n
    table = []
    for key in sorted(joint, key=_rule_sort_key):
        src, tgt = key
        n, (_, alignment) = joint[key]
        count, count_src, count_tgt = float(n), float(src_totals[src]), float(tgt_totals[tgt])
        # lexical weights over the links between words, not gaps
        words = [(i, j) for i, j in alignment if isinstance(src[i], str) and isinstance(tgt[j], str)]
        lex_t_given_s = _lex_weight(tgt, src, words, ttable_fwd)
        lex_s_given_t = _lex_weight(src, tgt, [(j, i) for i, j in words], ttable_bwd)
        table.append(
            RuleEntry(
                "X",
                _symbols(src),
                _symbols(tgt),
                scores=(count / count_tgt, lex_s_given_t, count / count_src, lex_t_given_s),
                alignment=frozenset(alignment),
                counts=(count_tgt, count_src, count),
            )
        )
    return table + glue_rules()


def _side_to_text(symbols: tuple, lhs: str) -> str:
    parts = []
    for s in symbols:
        parts.append(f"[{s.label}][{s.label}]" if isinstance(s, NT) else s)
    parts.append(f"[{lhs}]")
    return " ".join(parts)


def format_rule(rule: RuleEntry) -> str:
    scores = " ".join(_fmt_num(s) for s in rule.scores)
    counts = " ".join(_fmt_num(c) for c in rule.counts)
    return (
        f"{_side_to_text(rule.src_rhs, rule.lhs)} ||| {_side_to_text(rule.tgt_rhs, rule.lhs)}"
        f" ||| {scores} ||| {format_links(rule.alignment)} ||| {counts}"
    )


def _parse_side(text: str) -> tuple[list, str]:
    tokens = text.split()
    if not tokens or not (tokens[-1].startswith("[") and tokens[-1].endswith("]")):
        raise PhraseError(f"rule side missing [LHS] marker: {text!r}")
    lhs = tokens[-1][1:-1]
    symbols: list = []
    for tok in tokens[:-1]:
        if tok.startswith("[") and tok.endswith("]") and "][" in tok:
            label = tok[1 : tok.index("][")]
            symbols.append(NT(0, label))  # index resolved from the alignment
        else:
            symbols.append(tok)
    return symbols, lhs


def parse_rule(line: str) -> RuleEntry:
    fields = line.split(" ||| ")
    if len(fields) != 5:
        raise PhraseError(f"expected 5 ||| fields, found {len(fields)}: {line!r}")
    src_syms, lhs = _parse_side(fields[0])
    tgt_syms, lhs_t = _parse_side(fields[1])
    if lhs != lhs_t:
        raise PhraseError(f"source lhs {lhs!r} != target lhs {lhs_t!r}")
    scores = probabilities(fields[2])
    alignment = read_alignment(fields[3], len(src_syms), len(tgt_syms), "rule")
    counts = finite_floats(fields[4])
    # co-index nonterminals through the alignment, in source order
    index = 0
    for pos, sym in enumerate(src_syms):
        if isinstance(sym, NT):
            index += 1
            src_syms[pos] = NT(index, sym.label)
            tgt_pos = next((j for i, j in alignment if i == pos), None)
            if tgt_pos is None or not isinstance(tgt_syms[tgt_pos], NT):
                raise PhraseError(f"nonterminal at source position {pos} is unaligned: {line!r}")
            tgt_syms[tgt_pos] = NT(index, tgt_syms[tgt_pos].label)
    if sorted(s.index for s in tgt_syms if isinstance(s, NT)) != list(range(1, index + 1)):
        raise PhraseError(f"target nonterminals do not pair one to one with source ones: {line!r}")
    return RuleEntry(lhs, tuple(src_syms), tuple(tgt_syms), scores, alignment, counts)


def write_rule_table(rules: list[RuleEntry]) -> str:
    return "\n".join(format_rule(r) for r in rules) + "\n"


def read_rule_table(text: str) -> list[RuleEntry]:
    return parse_lines(text, parse_rule)


# ---------------------------------------------------------------------------
# dependency tree-to-string rules (frontier-node extraction)
# ---------------------------------------------------------------------------


class Var(NT):
    """A tree rule's variable: an `NT` that prints under its own name."""

    __slots__ = ()


@dataclass(frozen=True)
class Fragment:
    """A rooted source-tree fragment: deprel label plus surface-ordered items.

    Items are terminal words (str), variables (Var) standing for frontier
    descendants, or inlined non-frontier children (Fragment).
    """

    label: str
    items: tuple


@dataclass(frozen=True)
class TreeRule:
    fragment: Fragment
    target: tuple  # words (str) and Var references
    scores: tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0)
    counts: tuple[float, float] = (1.0, 1.0)

    def key(self):
        return (self.fragment, self.target)


def _word_text(word: str) -> str:
    """A fragment's terminal word as written: `w:word`, or, for a word with a
    parenthesis (which would end the fragment), `w=` and the word with `%`,
    `(` and `)` percent-encoded."""
    if "(" in word or ")" in word:
        return "w=" + word.replace("%", "%25").replace("(", "%28").replace(")", "%29")
    return "w:" + word


_ESCAPED = re.compile("%2[589]")


def _tree_rule_keys(pair: SentencePair, links) -> list[tuple[tuple[str, tuple], tuple]] | None:
    """The minimal frontier-node rules of one sentence pair, in token order,
    each keyed as (its fragment's text, its target side with each variable
    as its index), and each with no links, (); None when the source tree is
    not projective.

    One bottom-up pass over the tree's walk gives each node the number and
    target span of the links from inside its yield. A node is a frontier
    node iff it has inside links and no other link falls in their target
    span, i.e. iff the links into that span are as many as its inside
    links. A link from beyond the tree is inside no yield.
    """
    tree: TreeShape = pair.source_tree
    if tree is None:
        raise PhraseError("sentence pair carries no source tree")
    forms, heads, labels = tree
    n = len(heads)
    target = pair.target

    inside = [0] * (n + 1)
    lo = [len(target)] * (n + 1)
    hi = [-1] * (n + 1)
    before = [0] * (len(target) + 1)  # before[j]: links into target positions < j
    for i, j in links:
        if i < 0 or not 0 <= j < len(target):
            raise PhraseError(f"link {i}-{j} lies outside the sentence pair")
        before[j + 1] += 1
        if i < n:
            inside[i + 1] += 1
            lo[i + 1] = min(lo[i + 1], j)
            hi[i + 1] = max(hi[i + 1], j)
    for j in range(len(target)):
        before[j + 1] += before[j]
    walk = heads_walk(heads)
    if walk is None or not heads_contiguous(heads, walk[1]):
        return None
    children, order = walk
    for node in reversed(order):
        head = heads[node - 1]
        if head:
            inside[head] += inside[node]
            lo[head] = min(lo[head], lo[node])
            hi[head] = max(hi[head], hi[node])
    frontier = [
        inside[node] > 0 and before[hi[node] + 1] - before[lo[node]] == inside[node]
        for node in range(n + 1)
    ]

    def fragment(node: int, variables: list[int]) -> str:
        parts = ["(" + labels[node - 1]]
        for item in sorted(children[node] + [node]):
            if item == node:
                parts.append(_word_text(forms[node - 1]))
            elif frontier[item]:
                variables.append(item)
                parts.append(f"#{len(variables)}:{labels[item - 1]}")
            else:
                parts.append(fragment(item, variables))
        return " ".join(parts) + ")"

    keys = []
    for node in range(1, n + 1):
        if not frontier[node]:
            continue
        variables: list[int] = []
        text = fragment(node, variables)
        start, end = (0, len(target) - 1) if node == order[0] else (lo[node], hi[node])
        # the variables' target spans are disjoint: each one's links lie
        # outside every other one's yield
        holes = {lo[v]: (hi[v], index) for index, v in enumerate(variables, start=1)}
        keys.append(((text, _side(target, start, end, holes)[0]), ()))
    return keys


def build_tree_rule_table(
    pairs: list[SentencePair],
    link_sets: list[set[tuple[int, int]]],
    shards: int = 1,
    map_shards: Callable | None = None,
) -> tuple[list[TreeRule], int]:
    """Aggregate tree rules; relative frequency over root labels.

    Returns the table, sorted by its text, and the number of skipped
    non-projective sentences. The pairs are counted as `_count_rules` says.
    """
    joint, skipped = _count_rules(_tree_rule_keys, pairs, link_sets, shards, map_shards)
    keyed = [(_read_fragment(text), target, n) for (text, target), (n, _) in joint.items()]
    label_totals: dict[str, int] = {}
    tgt_totals: dict[tuple, int] = {}
    for fragment, target, n in keyed:
        label_totals[fragment.label] = label_totals.get(fragment.label, 0) + n
        tgt_totals[target] = tgt_totals.get(target, 0) + n
    table = []
    for fragment, target, n in keyed:
        count = float(n)
        label_total = float(label_totals[fragment.label])
        table.append(
            TreeRule(
                fragment,
                _symbols(target, Var, ""),
                scores=(count / tgt_totals[target], 1.0, count / label_total, 1.0),
                counts=(count, label_total),
            )
        )
    # the lines of two distinct keys differ before their scores, so these
    # never decide the order
    table.sort(key=format_tree_rule)
    return table, skipped


def _fragment_to_text(fragment: Fragment) -> str:
    parts = [fragment.label]
    for item in fragment.items:
        if isinstance(item, Fragment):
            parts.append(_fragment_to_text(item))
        elif isinstance(item, Var):
            parts.append(f"#{item.index}:{item.label}")
        else:
            parts.append(_word_text(item))
    return "(" + " ".join(parts) + ")"


def format_tree_rule(rule: TreeRule) -> str:
    # `w:` marks a target word that would read as a variable, a marked word
    # or the field separator
    tgt = " ".join(
        f"#{t.index}" if isinstance(t, Var)
        else f"w:{t}" if t.startswith(("#", "w:")) or t == "|||"
        else t
        for t in rule.target
    )
    scores = " ".join(_fmt_num(s) for s in rule.scores)
    counts = " ".join(_fmt_num(c) for c in rule.counts)
    return f"{_fragment_to_text(rule.fragment)} ||| {tgt} ||| {scores} ||| {counts}"


def _parse_fragment(text: str, pos: int) -> tuple[Fragment, int]:
    if pos >= len(text) or text[pos] != "(":
        raise PhraseError(f"expected '(' at offset {pos}")
    pos += 1
    end = pos
    while end < len(text) and text[end] not in " )":
        end += 1
    label = text[pos:end]
    pos = end
    items: list = []
    while True:
        while pos < len(text) and text[pos] == " ":
            pos += 1
        if pos >= len(text):
            raise PhraseError("unterminated fragment")
        if text[pos] == ")":
            return Fragment(label, tuple(items)), pos + 1
        if text[pos] == "(":
            sub, pos = _parse_fragment(text, pos)
            items.append(sub)
            continue
        end = pos
        while end < len(text) and text[end] not in " )":
            end += 1
        token = text[pos:end]
        pos = end
        if token.startswith("#"):
            idx, _, label_part = token[1:].partition(":")
            items.append(Var(int(idx), label_part))
        elif token.startswith("w:"):
            items.append(token[2:])
        elif token.startswith("w="):
            items.append(_ESCAPED.sub(lambda m: chr(int(m.group()[1:], 16)), token[2:]))
        else:
            raise PhraseError(f"unexpected fragment item {token!r}")


def _read_fragment(text: str) -> Fragment:
    """The fragment `text` holds, and nothing after it."""
    fragment, end = _parse_fragment(text, 0)
    if end != len(text):
        raise PhraseError(f"unexpected text after the fragment: {text[end:]!r}")
    return fragment


def _fragment_vars(fragment: Fragment) -> list[int]:
    """The indices of the variables in `fragment`, in surface order."""
    indices = []
    for item in fragment.items:
        if isinstance(item, Var):
            indices.append(item.index)
        elif isinstance(item, Fragment):
            indices += _fragment_vars(item)
    return indices


def parse_tree_rule(line: str) -> TreeRule:
    fields = line.split(" ||| ")
    if len(fields) != 4:
        raise PhraseError(f"expected 4 ||| fields, found {len(fields)}: {line!r}")
    fragment = _read_fragment(fields[0])
    target: list = []
    for tok in fields[1].split():
        if tok.startswith("w:"):
            target.append(tok[2:])
        elif tok.startswith("#"):
            target.append(Var(int(tok[1:]), ""))
        else:
            target.append(tok)
    variables = sorted(_fragment_vars(fragment))
    numbers = list(range(1, len(variables) + 1))
    if variables != numbers:
        raise PhraseError(f"fragment variables are not numbered 1..{len(numbers)}, each once: {line!r}")
    if sorted(t.index for t in target if isinstance(t, Var)) != numbers:
        raise PhraseError(f"target variables do not name each fragment variable once: {line!r}")
    scores = probabilities(fields[2])
    counts = finite_floats(fields[3])
    return TreeRule(fragment, tuple(target), scores, counts)


def write_tree_rule_table(rules: list[TreeRule]) -> str:
    return "\n".join(format_tree_rule(r) for r in rules) + "\n"


def read_tree_rule_table(text: str) -> list[TreeRule]:
    return parse_lines(text, parse_tree_rule)
