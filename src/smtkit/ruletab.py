"""Hierarchical (SCFG) rule extraction with glue grammar, and dependency
tree-to-string rule extraction via frontier nodes.

Hierarchical rules subtract one or two sub-phrase pairs from an initial
phrase pair and replace them with co-indexed gap nonterminals, under the
usual constraints: at most 2 nonterminals, never adjacent on the source
side, at most 5 source symbols, at least one source terminal.
"""

from __future__ import annotations

from dataclasses import dataclass

from .align import NULL_WORD, TTable
from .corpus import SentencePair
from .deptree import DepSentence, is_projective
from .phrasetab import PhraseError, _fmt_num, extract_phrases, parse_lines


@dataclass(frozen=True)
class NT:
    """A gap nonterminal; index pairs source and target occurrences."""

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


@dataclass
class HierConfig:
    max_nt: int = 2
    max_src_symbols: int = 5
    max_span: int = 10


def _sub_spans(
    initial: list[tuple[tuple[int, int], tuple[int, int]]],
    outer: tuple[tuple[int, int], tuple[int, int]],
) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    (i1, i2), (j1, j2) = outer
    subs = []
    for (a1, a2), (b1, b2) in initial:
        if (a1, a2, b1, b2) == (i1, i2, j1, j2):
            continue
        if i1 <= a1 and a2 <= i2 and j1 <= b1 and b2 <= j2:
            subs.append(((a1, a2), (b1, b2)))
    return subs


def _make_rule(
    pair: SentencePair,
    links: set[tuple[int, int]],
    outer: tuple[tuple[int, int], tuple[int, int]],
    holes: list[tuple[tuple[int, int], tuple[int, int]]],
    config: HierConfig,
) -> RuleEntry | None:
    (i1, i2), (j1, j2) = outer
    src_rhs: list = []
    src_pos_of: dict[int, int] = {}
    nt_src_pos: dict[int, int] = {}
    i = i1
    while i <= i2:
        hole = next((h for h, ((a1, a2), _) in enumerate(holes) if a1 == i), None)
        if hole is not None:
            nt_src_pos[hole + 1] = len(src_rhs)
            src_rhs.append(NT(hole + 1))
            i = holes[hole][0][1] + 1
        else:
            src_pos_of[i] = len(src_rhs)
            src_rhs.append(pair.source[i])
            i += 1
    tgt_rhs: list = []
    tgt_pos_of: dict[int, int] = {}
    nt_tgt_pos: dict[int, int] = {}
    j = j1
    while j <= j2:
        hole = next((h for h, (_, (b1, b2)) in enumerate(holes) if b1 == j), None)
        if hole is not None:
            nt_tgt_pos[hole + 1] = len(tgt_rhs)
            tgt_rhs.append(NT(hole + 1))
            j = holes[hole][1][1] + 1
        else:
            tgt_pos_of[j] = len(tgt_rhs)
            tgt_rhs.append(pair.target[j])
            j += 1

    terminals = [s for s in src_rhs if not isinstance(s, NT)]
    if not terminals:
        return None
    if len(src_rhs) > config.max_src_symbols:
        return None
    for a, b in zip(src_rhs, src_rhs[1:]):
        if isinstance(a, NT) and isinstance(b, NT):
            return None

    alignment = set()
    for idx in nt_src_pos:
        alignment.add((nt_src_pos[idx], nt_tgt_pos[idx]))
    for i, j in links:
        if i in src_pos_of and j in tgt_pos_of:
            alignment.add((src_pos_of[i], tgt_pos_of[j]))
    return RuleEntry("X", tuple(src_rhs), tuple(tgt_rhs), alignment=frozenset(alignment))


def extract_hier_rules(
    pair: SentencePair,
    links: set[tuple[int, int]],
    config: HierConfig | None = None,
) -> list[RuleEntry]:
    """Hierarchical rules from one sentence pair, deduplicated."""
    config = config or HierConfig()
    initial = extract_phrases(pair, links, config.max_span)
    rules: set[RuleEntry] = set()
    for outer in initial:
        lexical = _make_rule(pair, links, outer, [], config)
        if lexical is not None:
            rules.add(lexical)
        subs = _sub_spans(initial, outer)
        for a in range(len(subs)):
            rule = _make_rule(pair, links, outer, [subs[a]], config)
            if rule is not None:
                rules.add(rule)
            if config.max_nt < 2:
                continue
            for b in range(len(subs)):
                if a == b:
                    continue
                (sa, ta), (sb, tb) = (subs[a][0], subs[a][1]), (subs[b][0], subs[b][1])
                if sa[1] >= sb[0] and sb[1] >= sa[0]:
                    continue  # overlapping source spans
                if ta[1] >= tb[0] and tb[1] >= ta[0]:
                    continue  # overlapping target spans
                if sa[0] > sb[0]:
                    continue  # holes ordered by source start; avoid duplicates
                rule = _make_rule(pair, links, outer, [subs[a], subs[b]], config)
                if rule is not None:
                    rules.add(rule)
    return sorted(rules, key=_rule_sort_key)


def _rule_sort_key(rule: RuleEntry):
    def side(symbols):
        return tuple(
            (1, s.index, s.label) if isinstance(s, NT) else (0, 0, s) for s in symbols
        )

    return (rule.lhs, side(rule.src_rhs), side(rule.tgt_rhs))


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


def _rule_lex_weights(
    rule: RuleEntry, ttable_fwd: TTable, ttable_bwd: TTable
) -> tuple[float, float]:
    """Lexical weights over terminal links only."""
    term_links = [
        (i, j)
        for i, j in rule.alignment
        if not isinstance(rule.src_rhs[i], NT) and not isinstance(rule.tgt_rhs[j], NT)
    ]

    def one_side(out_side, in_side, links, table):
        weight = 1.0
        for j, word in enumerate(out_side):
            if isinstance(word, NT):
                continue
            aligned = [i for i, jj in links if jj == j]
            if aligned:
                total = sum(table.prob(word, in_side[i]) for i in aligned)
                weight *= total / len(aligned)
            else:
                weight *= table.prob(word, NULL_WORD)
        return max(weight, 1e-30)

    lex_t_given_s = one_side(rule.tgt_rhs, rule.src_rhs, term_links, ttable_fwd)
    lex_s_given_t = one_side(
        rule.src_rhs, rule.tgt_rhs, [(j, i) for i, j in term_links], ttable_bwd
    )
    return lex_s_given_t, lex_t_given_s


def build_rule_table(
    pairs: list[SentencePair],
    link_sets: list[set[tuple[int, int]]],
    ttable_fwd: TTable,
    ttable_bwd: TTable,
    config: HierConfig | None = None,
    include_glue: bool = True,
) -> list[RuleEntry]:
    """Aggregate per-sentence rules into a scored rule table."""
    config = config or HierConfig()
    joint: dict[tuple, float] = {}
    by_rule: dict[tuple, RuleEntry] = {}
    src_totals: dict[tuple, float] = {}
    tgt_totals: dict[tuple, float] = {}
    for pair, links in zip(pairs, link_sets):
        for rule in extract_hier_rules(pair, links, config):
            key = rule.key()
            joint[key] = joint.get(key, 0.0) + 1.0
            by_rule.setdefault(key, rule)
            src_totals[(rule.lhs, rule.src_rhs)] = src_totals.get((rule.lhs, rule.src_rhs), 0.0) + 1.0
            tgt_totals[(rule.lhs, rule.tgt_rhs)] = tgt_totals.get((rule.lhs, rule.tgt_rhs), 0.0) + 1.0

    table = []
    for key in sorted(joint, key=lambda k: _rule_sort_key(by_rule[k])):
        rule = by_rule[key]
        count = joint[key]
        count_src = src_totals[(rule.lhs, rule.src_rhs)]
        count_tgt = tgt_totals[(rule.lhs, rule.tgt_rhs)]
        lex_s_given_t, lex_t_given_s = _rule_lex_weights(rule, ttable_fwd, ttable_bwd)
        table.append(
            RuleEntry(
                rule.lhs,
                rule.src_rhs,
                rule.tgt_rhs,
                scores=(count / count_tgt, lex_s_given_t, count / count_src, lex_t_given_s),
                alignment=rule.alignment,
                counts=(count_tgt, count_src, count),
            )
        )
    if include_glue:
        table.extend(glue_rules())
    return table


def _side_to_text(symbols: tuple, lhs: str) -> str:
    parts = []
    for s in symbols:
        parts.append(f"[{s.label}][{s.label}]" if isinstance(s, NT) else s)
    parts.append(f"[{lhs}]")
    return " ".join(parts)


def format_rule(rule: RuleEntry) -> str:
    scores = " ".join(_fmt_num(s) for s in rule.scores)
    links = " ".join(f"{i}-{j}" for i, j in sorted(rule.alignment))
    counts = " ".join(_fmt_num(c) for c in rule.counts)
    return (
        f"{_side_to_text(rule.src_rhs, rule.lhs)} ||| {_side_to_text(rule.tgt_rhs, rule.lhs)}"
        f" ||| {scores} ||| {links} ||| {counts}"
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
    scores = tuple(float(x) for x in fields[2].split())
    alignment = frozenset(
        (int(a), int(b)) for a, b in (p.split("-") for p in fields[3].split())
    )
    counts = tuple(float(x) for x in fields[4].split())
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
    return RuleEntry(lhs, tuple(src_syms), tuple(tgt_syms), scores, alignment, counts)


def write_rule_table(rules: list[RuleEntry]) -> str:
    return "\n".join(format_rule(r) for r in rules) + "\n"


def read_rule_table(text: str) -> list[RuleEntry]:
    return parse_lines(text, parse_rule)


# ---------------------------------------------------------------------------
# dependency tree-to-string rules (frontier-node extraction)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Var:
    index: int
    label: str


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


def _node_label(sent: DepSentence, tok_id: int) -> str:
    tok = sent.tokens[tok_id - 1]
    return "root" if tok.head == 0 else tok.deprel


def _yields(sent: DepSentence) -> dict[int, set[int]]:
    out: dict[int, set[int]] = {t.id: {t.id} for t in sent.tokens}
    # repeated passes are fine at sentence scale
    changed = True
    while changed:
        changed = False
        for tok in sent.tokens:
            if tok.head != 0:
                parent = out[tok.head]
                before = len(parent)
                parent |= out[tok.id]
                changed = changed or len(parent) != before
    return out


def extract_tree_rules(
    pair: SentencePair, links: set[tuple[int, int]]
) -> list[TreeRule]:
    """Minimal frontier-node rules from a projective source dependency tree.

    Skips (returns nothing for) non-projective trees; the caller warns.
    """
    sent: DepSentence = pair.source_tree
    if sent is None:
        raise PhraseError("sentence pair carries no source tree")
    if not is_projective(sent):
        return []
    yields = _yields(sent)
    n_tgt = len(pair.target)

    span: dict[int, tuple[int, int] | None] = {}
    complement: dict[int, set[int]] = {}
    for tok in sent.tokens:
        yield_pos = {tid - 1 for tid in yields[tok.id]}
        inside = [j for i, j in links if i in yield_pos]
        span[tok.id] = (min(inside), max(inside)) if inside else None
        complement[tok.id] = {j for i, j in links if i not in yield_pos}

    def frontier(tok_id: int) -> bool:
        s = span[tok_id]
        if s is None:
            return False
        return not any(s[0] <= j <= s[1] for j in complement[tok_id])

    root = sent.root()

    def build_fragment(tok_id: int, variables: list[int]) -> Fragment:
        tok = sent.tokens[tok_id - 1]
        items: list = []
        constituents = sorted(sent.children(tok_id) + [tok], key=lambda t: t.id)
        for c in constituents:
            if c.id == tok_id:
                items.append(c.form)
            elif frontier(c.id):
                variables.append(c.id)
                items.append(Var(len(variables), _node_label(sent, c.id)))
            else:
                items.append(build_fragment(c.id, variables))
        return Fragment(_node_label(sent, tok_id), tuple(items))

    rules: list[TreeRule] = []
    for tok in sent.tokens:
        if not frontier(tok.id):
            continue
        variables: list[int] = []
        fragment = build_fragment(tok.id, variables)
        if tok.id == root.id:
            lo, hi = 0, n_tgt - 1
        else:
            lo, hi = span[tok.id]
        var_spans = sorted(
            ((span[v], idx + 1) for idx, v in enumerate(variables)), key=lambda x: x[0]
        )
        target: list = []
        j = lo
        while j <= hi:
            covered = next((v for v in var_spans if v[0][0] == j), None)
            if covered is not None:
                target.append(Var(covered[1], ""))
                j = covered[0][1] + 1
            else:
                target.append(pair.target[j])
                j += 1
        rules.append(TreeRule(fragment, tuple(target)))
    return rules


def build_tree_rule_table(
    pairs: list[SentencePair], link_sets: list[set[tuple[int, int]]]
) -> tuple[list[TreeRule], int]:
    """Aggregate tree rules; relative frequency over root labels.

    Returns the table and the number of skipped non-projective sentences.
    """
    joint: dict[tuple, float] = {}
    label_totals: dict[str, float] = {}
    tgt_totals: dict[tuple, float] = {}
    skipped = 0
    for pair, links in zip(pairs, link_sets):
        extracted = extract_tree_rules(pair, links)
        if not extracted and pair.source_tree is not None and not is_projective(pair.source_tree):
            skipped += 1
            continue
        for rule in extracted:
            joint[rule.key()] = joint.get(rule.key(), 0.0) + 1.0
            label_totals[rule.fragment.label] = label_totals.get(rule.fragment.label, 0.0) + 1.0
            tgt_totals[rule.target] = tgt_totals.get(rule.target, 0.0) + 1.0
    table = []
    for key in sorted(joint, key=lambda k: format_tree_rule(TreeRule(*k))):
        fragment, target = key
        count = joint[key]
        label = fragment.label
        table.append(
            TreeRule(
                fragment,
                target,
                scores=(
                    count / tgt_totals[target],
                    1.0,
                    count / label_totals[label],
                    1.0,
                ),
                counts=(count, label_totals[label]),
            )
        )
    return table, skipped


def _fragment_to_text(fragment: Fragment) -> str:
    parts = [fragment.label]
    for item in fragment.items:
        if isinstance(item, Fragment):
            parts.append(_fragment_to_text(item))
        elif isinstance(item, Var):
            parts.append(f"#{item.index}:{item.label}")
        else:
            parts.append(f"w:{item}")
    return "(" + " ".join(parts) + ")"


def format_tree_rule(rule: TreeRule) -> str:
    tgt = " ".join(
        f"#{t.index}" if isinstance(t, Var) else (f"w:{t}" if t.startswith(("#", "w:")) else t)
        for t in rule.target
    )
    scores = " ".join(_fmt_num(s) for s in rule.scores)
    counts = " ".join(_fmt_num(c) for c in rule.counts)
    return f"{_fragment_to_text(rule.fragment)} ||| {tgt} ||| {scores} ||| {counts}"


def _parse_fragment(text: str, pos: int) -> tuple[Fragment, int]:
    if text[pos] != "(":
        raise PhraseError(f"expected '(' at offset {pos}")
    pos += 1
    end = pos
    while text[end] not in " )":
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
        else:
            raise PhraseError(f"unexpected fragment item {token!r}")


def parse_tree_rule(line: str) -> TreeRule:
    fields = line.split(" ||| ")
    if len(fields) != 4:
        raise PhraseError(f"expected 4 ||| fields, found {len(fields)}: {line!r}")
    fragment, _ = _parse_fragment(fields[0], 0)
    target: list = []
    for tok in fields[1].split():
        if tok.startswith("w:"):
            target.append(tok[2:])
        elif tok.startswith("#"):
            target.append(Var(int(tok[1:]), ""))
        else:
            target.append(tok)
    scores = tuple(float(x) for x in fields[2].split())
    counts = tuple(float(x) for x in fields[3].split())
    return TreeRule(fragment, tuple(target), scores, counts)


def write_tree_rule_table(rules: list[TreeRule]) -> str:
    return "\n".join(format_tree_rule(r) for r in rules) + "\n"


def read_tree_rule_table(text: str) -> list[TreeRule]:
    return parse_lines(text, parse_tree_rule)
