"""CoNLL-U dependency trees: parsing, tree shape, nested-tree conversion.

A tree's shape is worked out here only, for rule extraction and tree
decoding alike: its walk (`heads_walk`), projectivity (`heads_contiguous`)
and node labels (`node_label`), all over the tree's head array.
`tree_walk` and `yields_contiguous` run the same two on a `DepSentence`.
Rule extraction keeps a training tree as a `TreeShape`, three tuples in
place of one object per token, read by `read_tree_shapes` one validated
sentence at a time, through the parse loop of `parse_conllu`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Sequence

from .gcpause import paused_gc


class ConlluError(ValueError):
    """Raised for structurally invalid CoNLL-U input."""


@dataclass(slots=True)
class DepToken:
    id: int
    form: str
    lemma: str = "_"
    upos: str = "_"
    xpos: str = "_"
    feats: str = "_"
    head: int = 0
    deprel: str = "_"
    deps: str = "_"
    misc: str = "_"

    def to_conllu(self) -> str:
        return "\t".join(
            [
                str(self.id), self.form, self.lemma, self.upos, self.xpos,
                self.feats, str(self.head), self.deprel, self.deps, self.misc,
            ]
        )


@dataclass(slots=True)
class DepSentence:
    sent_id: str = ""
    tokens: list[DepToken] = field(default_factory=list)
    comments: list[str] = field(default_factory=list)
    # Multiword-token ranges and empty nodes, preserved verbatim as
    # (index of the token line they precede, raw line).
    extra_rows: list[tuple[int, str]] = field(default_factory=list)


def node_label(tok: DepToken) -> str:
    """A tree node's label, for rules and decoding alike: `root` for the
    root, its deprel for any other token."""
    return "root" if tok.head == 0 else tok.deprel


class TreeShape(NamedTuple):
    """A tree as rule extraction reads it: each token's form, head and
    `node_label`, in token order."""

    forms: tuple[str, ...]
    heads: tuple[int, ...]
    labels: tuple[str, ...]

    @classmethod
    def of(cls, sent: DepSentence) -> TreeShape:
        tokens = sent.tokens
        return cls(
            tuple(tok.form for tok in tokens),
            tuple(tok.head for tok in tokens),
            tuple(node_label(tok) for tok in tokens),
        )


def _walk(heads: Sequence[int]) -> tuple[list[list[int]], list[int]] | None:
    """Each token's children in id order (children[0] holds the roots) and,
    top-down, the tokens the roots reach: breadth first, so each comes after
    its head. Token ids run 1..n in the order of `heads`. A token on or
    below a cycle is not reached. None when a head lies outside 0..n."""
    n = len(heads)
    children: list[list[int]] = [[] for _ in range(n + 1)]
    for pos, head in enumerate(heads, 1):
        if not 0 <= head <= n:
            return None
        children[head].append(pos)
    order = list(children[0])
    for node in order:
        order.extend(children[node])
    return children, order


def heads_walk(heads: Sequence[int]) -> tuple[list[list[int]], list[int]] | None:
    """`_walk`'s children and top-down order of one tree, whose root is
    order[0]; None unless exactly one root reaches every token."""
    walk = _walk(heads)
    if walk is None or len(walk[0][0]) != 1 or len(walk[1]) != len(heads):
        return None
    return walk


def heads_contiguous(heads: Sequence[int], order: list[int]) -> bool:
    """Whether every token's yield is contiguous, in one bottom-up pass over
    a `heads_walk` order that gives each token its yield's extent and size.
    For a tree this holds iff no two arcs cross."""
    n = len(heads)
    first = list(range(n + 1))
    last = list(range(n + 1))
    size = [1] * (n + 1)
    for node in reversed(order):
        if last[node] - first[node] + 1 != size[node]:
            return False
        head = heads[node - 1]
        if head:
            first[head] = min(first[head], first[node])
            last[head] = max(last[head], last[node])
            size[head] += size[node]
    return True


def _heads(sent: DepSentence) -> list[int]:
    return [tok.head for tok in sent.tokens]


def tree_walk(sent: DepSentence) -> tuple[list[list[int]], list[int]] | None:
    """`heads_walk` of a sentence whose token ids run 1..n; None otherwise."""
    if any(tok.id != pos for pos, tok in enumerate(sent.tokens, 1)):
        return None
    return heads_walk(_heads(sent))


def yields_contiguous(sent: DepSentence, order: list[int]) -> bool:
    """`heads_contiguous` of a sentence, over its `tree_walk` order."""
    return heads_contiguous(_heads(sent), order)


def _validate_tree(sent: DepSentence, line_of: dict[int, int]) -> None:
    """Raise for a sentence that is not one tree; an error names the line of
    the token at fault, or for a root count that of the first token."""
    ident = sent.sent_id or "<unknown>"
    n = len(sent.tokens)
    for tok in sent.tokens:
        line = line_of.get(tok.id, 0)
        if tok.head == tok.id:
            raise ConlluError(f"sentence {ident}, line {line}: token {tok.id} heads itself (cycle)")
        if tok.head < 0 or tok.head > n:
            raise ConlluError(
                f"sentence {ident}, line {line}: head {tok.head} of token {tok.id} is dangling"
            )
    children, reached = _walk(_heads(sent))
    if len(children[0]) != 1:
        raise ConlluError(
            f"sentence {ident}, line {line_of.get(1, 0)}: "
            f"expected exactly 1 root, found {len(children[0])}"
        )
    # a token that the walk from the root misses is on or below a cycle
    if len(reached) < n:
        found = set(reached)
        missed = next(tok.id for tok in sent.tokens if tok.id not in found)
        raise ConlluError(
            f"sentence {ident}, line {line_of.get(missed, 0)}: cycle involving token {missed}"
        )


# the characters a parse splits into lines at a time, up to the next line feed
_SLICE_CHARS = 1 << 16


def _lines(text: str) -> Iterator[str]:
    """`text.splitlines()`, one slice at a time: each slice ends just after
    a line feed (or at the end), so no line break is cut, and the lines of
    the whole text never exist at once."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + _SLICE_CHARS - 1) + 1 or len(text)
        yield from text[start:end].splitlines()
        start = end


def _sentences(text: str) -> Iterator[DepSentence]:
    """The parse loop of every CoNLL-U reader: each sentence, validated, as
    its block ends. Equal column values share one string object within a
    parse, so a corpus keeps each distinct form, lemma, tag and label once.
    Lines are read in bounded slices (`_lines`); the text gets one blank
    line more, which ends its last block."""
    current = DepSentence()
    line_of: dict[int, int] = {}
    share = {}.setdefault  # a column value -> its first equal string
    for lineno, line in enumerate(itertools.chain(_lines(text), [""]), start=1):
        if not line.strip():
            if current.tokens:
                _validate_tree(current, line_of)
                yield current
            elif current.comments:
                raise ConlluError(f"line {lineno}: comment block without token lines")
            current = DepSentence()
            line_of = {}
            continue
        if line.startswith("#"):
            current.comments.append(line)
            body = line[1:].strip()
            if body.startswith("sent_id"):
                current.sent_id = body.split("=", 1)[1].strip() if "=" in body else ""
            continue
        cols = line.split("\t")
        if len(cols) != 10:
            raise ConlluError(
                f"sentence {current.sent_id or '<unknown>'}, line {lineno}: "
                f"expected 10 tab-separated columns, found {len(cols)}"
            )
        if "-" in cols[0] or "." in cols[0]:
            current.extra_rows.append((len(current.tokens), line))
            continue
        try:
            tok_id = int(cols[0])
            head = int(cols[6])
        except ValueError as exc:
            raise ConlluError(
                f"sentence {current.sent_id or '<unknown>'}, line {lineno}: "
                f"non-integer id or head"
            ) from exc
        if tok_id != len(current.tokens) + 1:
            raise ConlluError(
                f"sentence {current.sent_id or '<unknown>'}, line {lineno}: "
                f"token id {tok_id} where {len(current.tokens) + 1} was expected "
                f"(ids must run 1..n in order)"
            )
        _, form, lemma, upos, xpos, feats, _, deprel, deps, misc = map(share, cols, cols)
        current.tokens.append(DepToken(tok_id, form, lemma, upos, xpos, feats, head, deprel, deps, misc))
        line_of[tok_id] = lineno


@paused_gc()
def parse_conllu(text: str) -> list[DepSentence]:
    """Parse CoNLL-U text into validated dependency sentences (`_sentences`)."""
    return list(_sentences(text))


@paused_gc()
def read_tree_shapes(text: str) -> list[TreeShape]:
    """`[TreeShape.of(s) for s in parse_conllu(text)]`, with the same checks
    and errors, each sentence dropped once its shape is made, so that the
    list of every parsed sentence never exists."""
    return [TreeShape.of(sent) for sent in _sentences(text)]


def write_conllu(sentences: list[DepSentence]) -> str:
    blocks: list[str] = []
    for sent in sentences:
        lines = list(sent.comments)
        extra = dict(sent.extra_rows)
        for i, tok in enumerate(sent.tokens):
            if i in extra:
                lines.append(extra[i])
            lines.append(tok.to_conllu())
        if len(sent.tokens) in extra:
            lines.append(extra[len(sent.tokens)])
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def _arcs(sent: DepSentence) -> list[tuple[int, int]]:
    # The root arc is anchored at virtual position 0.
    return [(min(t.head, t.id), max(t.head, t.id)) for t in sent.tokens]


def _crossings(sent: DepSentence):
    """Yield each pair of crossing arcs; arcs sharing an endpoint never cross."""
    arcs = _arcs(sent)
    for a in range(len(arcs)):
        lo1, hi1 = arcs[a]
        for b in range(a + 1, len(arcs)):
            lo2, hi2 = arcs[b]
            if len({lo1, hi1, lo2, hi2}) < 4:
                continue
            inside = (lo1 < lo2 < hi1) + (lo1 < hi2 < hi1)
            if inside == 1:
                yield arcs[a], arcs[b]


def is_projective(sent: DepSentence) -> bool:
    """No two arcs cross. A tree is decided by `yields_contiguous` in linear
    time; anything else goes through the pair search."""
    walk = tree_walk(sent)
    if walk is None:
        return next(_crossings(sent), None) is None
    return yields_contiguous(sent, walk[1])


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
        .replace("'", "&apos;")
    )


def to_nested_tree(sent: DepSentence) -> str:
    """Serialize a projective tree to the nested-tree decoder input: each
    node's word in surface position among its dependents, each wrapped,
    built bottom-up over the tree's walk."""
    ident = sent.sent_id or "<unknown>"
    walk = tree_walk(sent)
    if walk is None:
        raise ConlluError(f"sentence {ident} is not one tree")
    children, order = walk
    if not yields_contiguous(sent, order):
        a, b = next(_crossings(sent))
        raise ConlluError(
            f"sentence {ident} is non-projective: arc {a[0]}-{a[1]} crosses arc {b[0]}-{b[1]}"
        )
    rendered: dict[int, str] = {}
    for node in reversed(order):
        parts = []
        for item in sorted(children[node] + [node]):
            tok = sent.tokens[item - 1]
            if item == node:
                parts.append(f'<tree label="{_escape(tok.xpos)}">{_escape(tok.form)}</tree>')
            else:
                parts.append(f'<tree label="{_escape(tok.deprel)}">{rendered.pop(item)}</tree>')
        rendered[node] = "".join(parts)
    return f'<tree label="sent"><tree label="root">{rendered[order[0]]}</tree></tree>'


def _unescape(text: str) -> str:
    return (
        text.replace("&lt;", "<")
        .replace("&gt;", ">")
        .replace("&quot;", '"')
        .replace("&apos;", "'")
        .replace("&amp;", "&")
    )


_TOP = ("sent", "root")  # the labels of the two outer nodes
_NOT_TOP = 'nested tree must be <tree label="sent"><tree label="root">...'


@dataclass(slots=True)
class _OpenNode:
    label: str
    word: str | None = None
    head: int = 0  # its head word's id once met
    sub_heads: list[int] = field(default_factory=list)  # of its finished subtrees


def parse_nested_tree(line: str, sent_id: str = "") -> DepSentence:
    """Read one nested-tree line into a dependency sentence, in one pass.

    A node holds either one word or subtrees. A word's node label becomes
    its XPOS and the label of the node around it its deprel; a node of
    subtrees has exactly one word node among them, the head of the words
    below it. Ids follow word order. The open nodes are kept on an explicit
    stack, so that nesting depth is not bounded by Python's recursion limit.
    """
    tokens: list[DepToken] = []
    stack: list[_OpenNode] = []
    pos = 0
    open_tag = '<tree label="'
    while True:
        if line.startswith(open_tag, pos):
            if stack and stack[-1].word is not None:
                raise ConlluError(f"node {stack[-1].label!r} holds a word and subtrees at offset {pos}")
            pos += len(open_tag)
            end = line.find('">', pos)
            if end < 0:
                raise ConlluError(f"unterminated label at offset {pos}")
            label = _unescape(line[pos:end])
            # the first node is "sent" and its one subtree "root"
            if len(stack) < 2 and (label != _TOP[len(stack)] or stack and stack[0].sub_heads):
                raise ConlluError(_NOT_TOP)
            stack.append(_OpenNode(label))
            pos = end + 2
            continue
        if not stack:  # only before the first tag: the loop ends when the tree closes
            raise ConlluError(f"expected <tree> at offset {pos}")
        node = stack[-1]
        if line.startswith("</tree>", pos):
            pos += len("</tree>")
            stack.pop()
            if node.word is not None:
                if len(stack) < 2:  # a word in or as "sent"
                    raise ConlluError(_NOT_TOP)
                parent = stack[-1]
                if parent.head:
                    raise ConlluError(f"two head words under one {parent.label!r} node")
                tokens.append(DepToken(len(tokens) + 1, node.word, xpos=node.label, deprel=parent.label))
                parent.head = len(tokens)
            elif not stack:  # "sent" closed
                if not node.sub_heads:
                    raise ConlluError(_NOT_TOP)
                break
            elif not node.head:
                raise ConlluError(f"node {node.label!r} has no head word")
            else:
                for sub in node.sub_heads:
                    tokens[sub - 1].head = node.head
                stack[-1].sub_heads.append(node.head)  # under "sent", the root keeps head 0
            continue
        nxt = line.find("<", pos)
        if nxt <= pos:
            raise ConlluError(f"expected </tree> at offset {pos}")
        if node.head or node.sub_heads:
            raise ConlluError(f"node {node.label!r} holds a word and subtrees at offset {pos}")
        node.word = _unescape(line[pos:nxt])
        pos = nxt
    if pos != len(line.strip()):
        raise ConlluError(f"trailing data after tree at offset {pos}")
    return DepSentence(sent_id=sent_id, tokens=tokens)


def parse_nested_tree_file(text: str) -> list[DepSentence]:
    """One nested tree per line, converted back to dependency sentences; an
    error names the line."""
    sentences = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            sentences.append(parse_nested_tree(line.strip(), str(lineno)))
        except ConlluError as exc:
            raise ConlluError(f"line {lineno}: {exc}") from None
    return sentences

