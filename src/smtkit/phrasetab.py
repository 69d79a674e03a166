"""Phrase-pair extraction, phrase-table scoring and reordering models.

Phrase pairs are spans consistent with the word alignment: no link may
leave the span pair, at least one link must lie inside, and unaligned
boundary words extend pairs. The four translation scores per entry follow
the [phi(s|t), lex(s|t), phi(t|s), lex(t|s)] column order.

`count_phrase_pairs` is one pass over the extracted span pairs that counts,
per (src, tgt) pair, its occurrences, internal-alignment votes and, given an
orientation set, forward and backward orientations; `build_phrase_table` and
`extract_reordering` score such a count. The pipeline counts once for both
tables and drops the count before writing them, and writes each table line
by line (`phrase_table_lines`, `reordering_table_lines`), never holding a
file's whole text. Entries are slotted, and equal values are one object, in
built and read tables alike: a frozenset per distinct internal alignment and
a read-only mapping per distinct orientation distribution. A reader parses
each distinct alignment, counts and orientation field once.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

from .align import NULL_WORD, TTable
from .corpus import SentencePair

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
    """All consistent span pairs, extended over unaligned boundary words.

    Each word keeps the extent of the positions it links to, so a source
    span grows its target span word by word, and its consistency is checked
    over that target span alone.
    """
    if max_phrase_len < 1:
        raise PhraseError(f"max_phrase_len must be >= 1, got {max_phrase_len}")
    n_src, n_tgt = len(pair.source), len(pair.target)
    # per source word its lowest and highest linked target position, and per
    # target word its source ones; (n, -1) for an unaligned word
    tgt_lo, tgt_hi = [n_tgt] * n_src, [-1] * n_src
    src_lo, src_hi = [n_src] * n_tgt, [-1] * n_tgt
    for i, j in links:
        if not (0 <= i < n_src and 0 <= j < n_tgt):
            raise PhraseError(f"link {i}-{j} lies outside the sentence pair")
        tgt_lo[i], tgt_hi[i] = min(tgt_lo[i], j), max(tgt_hi[i], j)
        src_lo[j], src_hi[j] = min(src_lo[j], i), max(src_hi[j], i)
    spans: list[SpanPair] = []
    for i1 in range(n_src):
        j1, j2 = n_tgt, -1
        for i2 in range(i1, min(i1 + max_phrase_len, n_src)):
            j1, j2 = min(j1, tgt_lo[i2]), max(j2, tgt_hi[i2])
            if j2 < 0:
                continue  # no link inside yet
            if j2 - j1 >= max_phrase_len:
                break  # the target span only widens as i2 grows
            # consistency: no external source word may link into [j1, j2]
            if min(src_lo[j1 : j2 + 1]) < i1 or max(src_hi[j1 : j2 + 1]) > i2:
                continue
            # extend over unaligned target boundary words
            lo = j1
            while True:
                hi = j2
                while True:
                    if hi - lo + 1 <= max_phrase_len:
                        spans.append(((i1, i2), (lo, hi)))
                    hi += 1
                    if hi >= n_tgt or src_hi[hi] >= 0:
                        break
                lo -= 1
                if lo < 0 or src_hi[lo] >= 0:
                    break
    return sorted(spans)


@dataclass(slots=True)
class PhraseEntry:
    src: tuple[str, ...]
    tgt: tuple[str, ...]
    # [phi(s|t), lex(s|t), phi(t|s), lex(t|s)]
    scores: tuple[float, float, float, float]
    alignment: frozenset[tuple[int, int]]
    counts: tuple[float, float, float]  # (count_tgt, count_src, count_joint)


def _lex_weight(
    tgt: tuple,
    src: tuple,
    links: frozenset[tuple[int, int]] | list[tuple[int, int]],
    ttable: TTable,
) -> float:
    """Koehn-style lexical weight: product over target words of the mean
    translation probability of their aligned source words (NULL when none);
    a rule's nonterminals are skipped."""
    weight = 1.0
    for j, tgt_word in enumerate(tgt):
        if not isinstance(tgt_word, str):
            continue
        aligned = [i for i, jj in links if jj == j]
        if aligned:
            total = sum(ttable.prob(tgt_word, src[i]) for i in aligned)
            weight *= total / len(aligned)
        else:
            weight *= ttable.prob(tgt_word, NULL_WORD)
    return max(weight, 1e-30)


def _orientations(orientation_set: str) -> tuple[str, ...]:
    if orientation_set not in ("msd", "mslr"):
        raise PhraseError(f"unknown orientation set: {orientation_set!r}")
    return MSD if orientation_set == "msd" else MSLR


# per (src, tgt) pair: [occurrences, {alignment: votes}, forward counts..., backward counts...]
PairCounts = dict[tuple[tuple[str, ...], tuple[str, ...]], list]


def count_phrase_pairs(
    pairs: list[SentencePair],
    link_sets: list[set[tuple[int, int]]],
    max_phrase_len: int = 7,
    orientation_set: str | None = None,
) -> PairCounts:
    """Count every extracted phrase pair in one pass; the orientation counts
    follow the order of `orientation_set`, and there are none without it."""
    orientations = () if orientation_set is None else _orientations(orientation_set)
    k = len(orientations)
    counts: PairCounts = {}
    alignments: dict[frozenset[tuple[int, int]], frozenset[tuple[int, int]]] = {}
    for pair, links in zip(pairs, link_sets):
        n_src, n_tgt = len(pair.source), len(pair.target)
        for (i1, i2), (j1, j2) in extract_phrases(pair, links, max_phrase_len):
            key = (tuple(pair.source[i1 : i2 + 1]), tuple(pair.target[j1 : j2 + 1]))
            internal = frozenset(
                (i - i1, j - j1) for i, j in links if i1 <= i <= i2 and j1 <= j <= j2
            )
            internal = alignments.setdefault(internal, internal)
            record = counts.get(key)
            if record is None:
                record = counts[key] = [0, {}] + [0] * (2 * k)
            record[0] += 1
            record[1][internal] = record[1].get(internal, 0) + 1
            if k:
                fwd = _orientation(links, i1, i2, (i1 - 1, j1 - 1), (i2 + 1, j1 - 1), (-1, -1),
                                   j1 - 1, "disc-left", orientations)
                bwd = _orientation(links, i1, i2, (i2 + 1, j2 + 1), (i1 - 1, j2 + 1), (n_src, n_tgt),
                                   j2 + 1, "disc-right", orientations)
                record[2 + orientations.index(fwd)] += 1
                record[2 + k + orientations.index(bwd)] += 1
    return counts


def build_phrase_table(
    pairs: list[SentencePair],
    link_sets: list[set[tuple[int, int]]],
    ttable_fwd: TTable,
    ttable_bwd: TTable,
    max_phrase_len: int = 7,
    counts: PairCounts | None = None,
) -> list[PhraseEntry]:
    """Relative-frequency scores plus lexical weights for extracted pairs.

    ttable_fwd is p(target word | source word), ttable_bwd the reverse.
    `counts`, when given, is the `count_phrase_pairs` of these pairs and
    lengths, with or without orientations; else they are counted here.
    The stored alignment is the most frequent internal alignment for the
    phrase pair; entries come out sorted by (src, tgt).
    """
    if counts is None:
        counts = count_phrase_pairs(pairs, link_sets, max_phrase_len)
    src_totals: dict[tuple[str, ...], int] = {}
    tgt_totals: dict[tuple[str, ...], int] = {}
    for (src, tgt), record in counts.items():
        src_totals[src] = src_totals.get(src, 0) + record[0]
        tgt_totals[tgt] = tgt_totals.get(tgt, 0) + record[0]

    entries: list[PhraseEntry] = []
    for src, tgt in sorted(counts):
        count, votes = counts[src, tgt][:2]
        top = max(votes.values())
        # most frequent internal alignment; ties to the smallest link list
        alignment = min((a for a, c in votes.items() if c == top), key=sorted)
        # the lexical weights sum in link order, not in the set's order
        reverse = sorted((j, i) for i, j in alignment)
        entries.append(
            PhraseEntry(
                src=src,
                tgt=tgt,
                scores=(
                    count / tgt_totals[tgt],
                    _lex_weight(src, tgt, reverse, ttable_bwd),
                    count / src_totals[src],
                    _lex_weight(tgt, src, sorted(alignment), ttable_fwd),
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


def finite_floats(field: str) -> tuple[float, ...]:
    """The numbers of a table field; nan and inf are data errors."""
    values = tuple(map(float, field.split()))
    if not math.isfinite(sum(values)):  # else every value is finite
        for word, value in zip(field.split(), values):
            if not math.isfinite(value):
                raise PhraseError(f"non-finite number {word!r}")
    return values


def probabilities(field: str, zero_ok: bool = False) -> tuple[float, ...]:
    """finite_floats of a field of probabilities: each in (0, 1], or in
    [0, 1] when `zero_ok`."""
    values = finite_floats(field)
    for word, value in zip(field.split(), values):
        if not (0.0 < value <= 1.0 or zero_ok and value == 0.0):
            raise PhraseError(f"probability {word!r} lies outside {'[0, 1]' if zero_ok else '(0, 1]'}")
    return values


@lru_cache(maxsize=4096)
def _alignment(field: str) -> frozenset[tuple[int, int]]:
    """The links of an alignment field; equal fields give one frozenset."""
    return frozenset((int(a), int(b)) for a, b in (p.split("-") for p in field.split()))


@lru_cache(maxsize=4096)
def _counts(field: str) -> tuple[float, ...]:
    """finite_floats of a counts field; equal fields are parsed once."""
    return finite_floats(field)


def parse_phrase_entry(line: str) -> PhraseEntry:
    fields = line.split(" ||| ")
    if len(fields) != 5:
        raise PhraseError(f"expected 5 ||| fields, found {len(fields)}: {line!r}")
    src = tuple(fields[0].split())
    tgt = tuple(fields[1].split())
    scores = probabilities(fields[2])
    if len(scores) != 4:
        raise PhraseError(f"expected 4 scores, found {len(scores)}: {line!r}")
    alignment = _alignment(fields[3])
    counts = _counts(fields[4])
    if len(counts) != 3:
        raise PhraseError(f"expected 3 counts, found {len(counts)}: {line!r}")
    return PhraseEntry(src, tgt, scores, alignment, counts)


def phrase_table_lines(entries: list[PhraseEntry]) -> Iterator[str]:
    """The lines of a phrase table file, each with its newline; a table
    without entries is one empty line."""
    for entry in entries:
        yield format_phrase_entry(entry) + "\n"
    if not entries:
        yield "\n"


def write_phrase_table(entries: list[PhraseEntry]) -> str:
    return "".join(phrase_table_lines(entries))


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


@dataclass(slots=True)
class ReorderingEntry:
    src: tuple[str, ...]
    tgt: tuple[str, ...]
    forward: Mapping[str, float]  # orientation w.r.t. the previous phrase
    backward: Mapping[str, float]  # orientation w.r.t. the following phrase


@lru_cache(maxsize=4096)
def _distribution(probs: tuple[float, ...]) -> Mapping[str, float]:
    """The read-only msd (3 probabilities) or mslr (4) mapping of `probs`;
    equal `probs` give one mapping."""
    return MappingProxyType(dict(zip(MSD if len(probs) == 3 else MSLR, probs)))


def _orientation(
    links: set[tuple[int, int]],
    i1: int,
    i2: int,
    monotone: tuple[int, int],
    swap: tuple[int, int],
    corner: tuple[int, int],
    row: int,
    empty_row: str,
    orientations: tuple[str, ...],
) -> str:
    """Word-based orientation of source phrase i1..i2 against the adjacent
    target `row`: monotone or swap when that point is linked or is the
    sentence `corner`, else discontinuous, split by the side of the row's
    nearest link (`empty_row` when it has none). The phrase's own words never
    link into the row."""
    if monotone in links or monotone == corner:
        return "monotone"
    if swap in links or swap == corner:
        return "swap"
    if len(orientations) == 3:
        return "discontinuous"
    in_row = [i for i, j in links if j == row]
    if not in_row:
        return empty_row
    nearest = min(in_row, key=lambda i: (min(abs(i - i1), abs(i - i2)), i))
    return "disc-left" if nearest < i1 else "disc-right"


def extract_reordering(
    pairs: list[SentencePair],
    link_sets: list[set[tuple[int, int]]],
    orientation_set: str = "msd",
    smoothing_sigma: float = 0.5,
    max_phrase_len: int = 7,
    counts: PairCounts | None = None,
) -> list[ReorderingEntry]:
    """Smoothed forward and backward orientation distributions per phrase
    pair. `counts`, when given, is the `count_phrase_pairs` of these pairs
    and lengths with this orientation set; else they are counted here."""
    orientations = _orientations(orientation_set)
    if not smoothing_sigma >= 0.0:
        raise PhraseError(f"smoothing sigma must be >= 0, got {smoothing_sigma}")
    if counts is None:
        counts = count_phrase_pairs(pairs, link_sets, max_phrase_len, orientation_set)
    k = len(orientations)
    entries = []
    for key in sorted(counts):
        record = counts[key]
        if len(record) != 2 + 2 * k:
            raise PhraseError(f"the counts hold no {orientation_set} orientations")
        dists = []
        for observed in (record[2 : 2 + k], record[2 + k :]):
            denom = sum(observed) + smoothing_sigma * k
            dists.append(_distribution(tuple((c + smoothing_sigma) / denom for c in observed)))
        entries.append(ReorderingEntry(key[0], key[1], *dists))
    return entries


def format_reordering_entry(entry: ReorderingEntry) -> str:
    orientations = MSD if len(entry.forward) == 3 else MSLR
    values = [entry.forward[o] for o in orientations] + [entry.backward[o] for o in orientations]
    return f"{' '.join(entry.src)} ||| {' '.join(entry.tgt)} ||| " + " ".join(map(_fmt_num, values))


def reordering_table_lines(entries: list[ReorderingEntry]) -> Iterator[str]:
    """The lines of a reordering table file, each with its newline; a
    table without entries is one empty line."""
    for entry in entries:
        yield format_reordering_entry(entry) + "\n"
    if not entries:
        yield "\n"


def write_reordering_table(entries: list[ReorderingEntry]) -> str:
    return "".join(reordering_table_lines(entries))


@lru_cache(maxsize=4096)
def _orientation_values(field: str) -> tuple[Mapping[str, float], ...]:
    """The forward and backward distributions of a reordering value field,
    or () when it holds neither 6 nor 8 values; equal fields are parsed
    once."""
    values = probabilities(field, zero_ok=True)  # `train-reorder --sigma 0` writes zeros
    if len(values) not in (6, 8):
        return ()
    half = len(values) // 2
    return _distribution(values[:half]), _distribution(values[half:])


def parse_reordering_entry(line: str) -> ReorderingEntry:
    fields = line.split(" ||| ")
    if len(fields) != 3:
        raise PhraseError(f"expected 3 ||| fields: {line!r}")
    distributions = _orientation_values(fields[2])
    if not distributions:
        raise PhraseError(f"expected 6 or 8 probabilities: {line!r}")
    return ReorderingEntry(tuple(fields[0].split()), tuple(fields[1].split()), *distributions)


def read_reordering_table(text: str) -> list[ReorderingEntry]:
    return parse_lines(text, parse_reordering_entry)
