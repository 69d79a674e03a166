"""Phrase-pair extraction, phrase-table scoring and reordering models.

Phrase pairs are spans consistent with the word alignment: no link may
leave the span pair, at least one link must lie inside, and unaligned
boundary words extend pairs. The four translation scores per entry follow
the [phi(s|t), lex(s|t), phi(t|s), lex(t|s)] column order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .align import NULL_WORD, TTable
from .corpus import SentencePair, Token

SpanPair = tuple[tuple[int, int], tuple[int, int]]  # ((i1,i2),(j1,j2)) inclusive

MSD = ("monotone", "swap", "discontinuous")
MSLR = ("monotone", "swap", "disc-left", "disc-right")


class PhraseError(ValueError):
    """Raised for malformed phrase-table data."""


def extract_phrases(
    pair: SentencePair,
    links: set[tuple[int, int]],
    max_phrase_len: int = 7,
) -> list[SpanPair]:
    """All consistent span pairs, extended over unaligned boundary words."""
    if max_phrase_len < 1:
        raise PhraseError(f"max_phrase_len must be >= 1, got {max_phrase_len}")
    n_src, n_tgt = len(pair.source), len(pair.target)
    aligned_tgt = {j for _, j in links}
    spans: list[SpanPair] = []
    for i1 in range(n_src):
        for i2 in range(i1, min(i1 + max_phrase_len, n_src)):
            inside_tgt = [j for i, j in links if i1 <= i <= i2]
            if not inside_tgt:
                continue
            j1, j2 = min(inside_tgt), max(inside_tgt)
            # consistency: no external source word may link into [j1, j2]
            if any(j1 <= j <= j2 and not i1 <= i <= i2 for i, j in links):
                continue
            # extend over unaligned target boundary words
            lo = j1
            while True:
                hi = j2
                while True:
                    if hi - lo + 1 <= max_phrase_len:
                        spans.append(((i1, i2), (lo, hi)))
                    hi += 1
                    if hi >= n_tgt or hi in aligned_tgt:
                        break
                lo -= 1
                if lo < 0 or lo in aligned_tgt:
                    break
    return sorted(spans)


@dataclass
class PhraseEntry:
    src: tuple[str, ...]
    tgt: tuple[str, ...]
    # [phi(s|t), lex(s|t), phi(t|s), lex(t|s)]
    scores: tuple[float, float, float, float]
    alignment: frozenset[tuple[int, int]]
    counts: tuple[float, float, float]  # (count_tgt, count_src, count_joint)


def _lex_weight(
    tgt: tuple[str, ...],
    src: tuple[str, ...],
    links: frozenset[tuple[int, int]],
    ttable: TTable,
) -> float:
    """Koehn-style lexical weight: product over target words of the mean
    translation probability of their aligned source words (NULL when none)."""
    weight = 1.0
    for j, tgt_word in enumerate(tgt):
        aligned = [i for i, jj in links if jj == j]
        if aligned:
            total = sum(ttable.prob(tgt_word, src[i]) for i in aligned)
            weight *= total / len(aligned)
        else:
            weight *= ttable.prob(tgt_word, NULL_WORD)
    return max(weight, 1e-30)


def build_phrase_table(
    pairs: list[SentencePair],
    link_sets: list[set[tuple[int, int]]],
    ttable_fwd: TTable,
    ttable_bwd: TTable,
    max_phrase_len: int = 7,
) -> list[PhraseEntry]:
    """Relative-frequency scores plus lexical weights for extracted pairs.

    ttable_fwd is p(target word | source word), ttable_bwd the reverse.
    The stored alignment is the most frequent internal alignment for the
    phrase pair; entries come out sorted by (src, tgt).
    """
    joint: dict[tuple[tuple[str, ...], tuple[str, ...]], float] = {}
    src_totals: dict[tuple[str, ...], float] = {}
    tgt_totals: dict[tuple[str, ...], float] = {}
    align_votes: dict[
        tuple[tuple[str, ...], tuple[str, ...]], dict[frozenset[tuple[int, int]], int]
    ] = {}

    for pair, links in zip(pairs, link_sets):
        for (i1, i2), (j1, j2) in extract_phrases(pair, links, max_phrase_len):
            src = tuple(pair.source[i1 : i2 + 1])
            tgt = tuple(pair.target[j1 : j2 + 1])
            internal = frozenset(
                (i - i1, j - j1) for i, j in links if i1 <= i <= i2 and j1 <= j <= j2
            )
            key = (src, tgt)
            joint[key] = joint.get(key, 0.0) + 1.0
            src_totals[src] = src_totals.get(src, 0.0) + 1.0
            tgt_totals[tgt] = tgt_totals.get(tgt, 0.0) + 1.0
            votes = align_votes.setdefault(key, {})
            votes[internal] = votes.get(internal, 0) + 1

    entries: list[PhraseEntry] = []
    for (src, tgt), count in sorted(joint.items()):
        votes = align_votes[(src, tgt)]
        top = max(votes.values())
        # most frequent internal alignment; ties to the smallest link list
        alignment = min((a for a, c in votes.items() if c == top), key=sorted)
        reverse = frozenset((j, i) for i, j in alignment)
        entries.append(
            PhraseEntry(
                src=src,
                tgt=tgt,
                scores=(
                    count / tgt_totals[tgt],
                    _lex_weight(src, tgt, reverse, ttable_bwd),
                    count / src_totals[src],
                    _lex_weight(tgt, src, alignment, ttable_fwd),
                ),
                alignment=alignment,
                counts=(tgt_totals[tgt], src_totals[src], count),
            )
        )
    return entries


def _fmt_num(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def format_phrase_entry(entry: PhraseEntry) -> str:
    scores = " ".join(_fmt_num(s) for s in entry.scores)
    links = " ".join(f"{i}-{j}" for i, j in sorted(entry.alignment))
    counts = " ".join(_fmt_num(c) for c in entry.counts)
    return f"{' '.join(entry.src)} ||| {' '.join(entry.tgt)} ||| {scores} ||| {links} ||| {counts}"


def parse_phrase_entry(line: str) -> PhraseEntry:
    fields = line.split(" ||| ")
    if len(fields) != 5:
        raise PhraseError(f"expected 5 ||| fields, found {len(fields)}: {line!r}")
    src = tuple(fields[0].split())
    tgt = tuple(fields[1].split())
    scores = tuple(float(x) for x in fields[2].split())
    if len(scores) != 4:
        raise PhraseError(f"expected 4 scores, found {len(scores)}: {line!r}")
    alignment = frozenset(
        (int(a), int(b)) for a, b in (p.split("-") for p in fields[3].split())
    )
    counts = tuple(float(x) for x in fields[4].split())
    if len(counts) != 3:
        raise PhraseError(f"expected 3 counts, found {len(counts)}: {line!r}")
    return PhraseEntry(src, tgt, scores, alignment, counts)


def write_phrase_table(entries: list[PhraseEntry]) -> str:
    return "\n".join(format_phrase_entry(e) for e in entries) + "\n"


def parse_lines(text: str, parse_line) -> list:
    """parse_line(line) for each non-blank line of a table file's text; a
    ValueError it raises becomes a PhraseError naming the line."""
    entries = []
    lineno = 0
    try:
        for lineno, line in enumerate(text.splitlines(), start=1):
            if line.strip():
                entries.append(parse_line(line))
    except ValueError as exc:
        raise PhraseError(f"line {lineno}: {exc}") from None
    return entries


def read_phrase_table(text: str) -> list[PhraseEntry]:
    return parse_lines(text, parse_phrase_entry)


@dataclass
class ReorderingEntry:
    src: tuple[str, ...]
    tgt: tuple[str, ...]
    forward: dict[str, float]  # orientation w.r.t. the previous phrase
    backward: dict[str, float]  # orientation w.r.t. the following phrase


def _orientation(
    links: set[tuple[int, int]],
    n_src: int,
    n_tgt: int,
    i1: int,
    i2: int,
    adjacent_tgt: int,
    orientations: tuple[str, ...],
) -> str:
    """Word-based orientation against the target row above (or below) the
    phrase. Sentence corners count as alignment points."""
    corner = (-1, -1) if adjacent_tgt < 0 else (n_src, n_tgt)
    top_left = (i1 - 1, adjacent_tgt)
    top_right = (i2 + 1, adjacent_tgt)
    if top_left in links or top_left == corner:
        return "monotone"
    if top_right in links or top_right == corner:
        return "swap"
    if len(orientations) == 3:
        return "discontinuous"
    row = [i for i, j in links if j == adjacent_tgt]
    if not row:
        return "disc-left"
    nearest = min(row, key=lambda i: (min(abs(i - i1), abs(i - i2)), i))
    return "disc-left" if nearest < i1 else "disc-right"


def extract_reordering(
    pairs: list[SentencePair],
    link_sets: list[set[tuple[int, int]]],
    orientation_set: str = "msd",
    smoothing_sigma: float = 0.5,
    max_phrase_len: int = 7,
) -> list[ReorderingEntry]:
    """Count forward/backward orientations per phrase pair and smooth."""
    if orientation_set not in ("msd", "mslr"):
        raise PhraseError(f"unknown orientation set: {orientation_set!r}")
    orientations = MSD if orientation_set == "msd" else MSLR
    fwd_counts: dict[tuple, dict[str, float]] = {}
    bwd_counts: dict[tuple, dict[str, float]] = {}

    for pair, links in zip(pairs, link_sets):
        n_src, n_tgt = len(pair.source), len(pair.target)
        for (i1, i2), (j1, j2) in extract_phrases(pair, links, max_phrase_len):
            key = (tuple(pair.source[i1 : i2 + 1]), tuple(pair.target[j1 : j2 + 1]))
            fwd = _orientation(links, n_src, n_tgt, i1, i2, j1 - 1, orientations)
            # backward mirrors against the following target row
            corner = (n_src, n_tgt) if j2 + 1 >= n_tgt else None
            bottom_right = (i2 + 1, j2 + 1)
            bottom_left = (i1 - 1, j2 + 1)
            if bottom_right in links or (corner and bottom_right == corner):
                bwd = "monotone"
            elif bottom_left in links:
                bwd = "swap"
            elif len(orientations) == 3:
                bwd = "discontinuous"
            else:
                row = [i for i, j in links if j == j2 + 1]
                if not row:
                    bwd = "disc-right"
                else:
                    nearest = min(row, key=lambda i: (min(abs(i - i1), abs(i - i2)), i))
                    bwd = "disc-right" if nearest > i2 else "disc-left"
            fwd_counts.setdefault(key, {o: 0.0 for o in orientations})[fwd] += 1.0
            bwd_counts.setdefault(key, {o: 0.0 for o in orientations})[bwd] += 1.0

    entries = []
    for key in sorted(fwd_counts):
        entry_fwd = {}
        entry_bwd = {}
        for table, out in ((fwd_counts[key], entry_fwd), (bwd_counts[key], entry_bwd)):
            total = sum(table.values())
            denom = total + smoothing_sigma * len(orientations)
            for o in orientations:
                out[o] = (table[o] + smoothing_sigma) / denom
        entries.append(ReorderingEntry(key[0], key[1], entry_fwd, entry_bwd))
    return entries


def write_reordering_table(entries: list[ReorderingEntry]) -> str:
    lines = []
    for e in entries:
        orientations = MSD if len(e.forward) == 3 else MSLR
        values = [e.forward[o] for o in orientations] + [e.backward[o] for o in orientations]
        lines.append(
            f"{' '.join(e.src)} ||| {' '.join(e.tgt)} ||| "
            + " ".join(_fmt_num(v) for v in values)
        )
    return "\n".join(lines) + "\n"


def parse_reordering_entry(line: str) -> ReorderingEntry:
    fields = line.split(" ||| ")
    if len(fields) != 3:
        raise PhraseError(f"expected 3 ||| fields: {line!r}")
    values = [float(x) for x in fields[2].split()]
    if len(values) == 6:
        orientations = MSD
    elif len(values) == 8:
        orientations = MSLR
    else:
        raise PhraseError(f"expected 6 or 8 probabilities: {line!r}")
    half = len(orientations)
    return ReorderingEntry(
        tuple(fields[0].split()),
        tuple(fields[1].split()),
        dict(zip(orientations, values[:half])),
        dict(zip(orientations, values[half:])),
    )


def read_reordering_table(text: str) -> list[ReorderingEntry]:
    return parse_lines(text, parse_reordering_entry)


@dataclass
class GenerationTable:
    """p(generated factor | surface form), estimated by MLE."""

    table: dict[str, dict[str, float]] = field(default_factory=dict)

    def prob(self, generated: str, surface: str) -> float:
        return self.table.get(surface, {}).get(generated, 0.0)


def build_generation_table(
    annotated_corpus: list[list[Token]],
    from_factor: int = 0,
    to_factor: int = 1,
) -> GenerationTable:
    counts: dict[str, dict[str, float]] = {}
    for pos_sent, sent in enumerate(annotated_corpus):
        for pos, tok in enumerate(sent):
            if max(from_factor, to_factor) >= len(tok.factors):
                raise PhraseError(
                    f"token at sentence {pos_sent}, position {pos} lacks factor "
                    f"{max(from_factor, to_factor)}"
                )
            row = counts.setdefault(tok.factors[from_factor], {})
            row[tok.factors[to_factor]] = row.get(tok.factors[to_factor], 0.0) + 1.0
    table: dict[str, dict[str, float]] = {}
    for key, row in counts.items():
        total = sum(row.values())
        table[key] = {value: c / total for value, c in row.items()}
    return GenerationTable(table)
