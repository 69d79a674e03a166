"""IBM Model 1/2 training by EM, Viterbi alignment and symmetrization.

Conventions: the NULL token occupies source position 0 and takes part in
both E-steps. Alignment functions map target positions to source positions.
Link sets are 0-based (source index, target index) pairs. A corpus's links,
as the pipeline symmetrizes them and as `read_links` reads them, have the
one form that `link_tuples` builds: each pair's links are a sorted tuple of
points, and equal points are one tuple object across the corpus.

EM runs over integer cell ids (Och & Ney 2003, "A Systematic Comparison of
Various Statistical Alignment Models"). Each co-occurring (source word,
target word) cell is numbered once, in the order a pass over the pairs
first meets it. t(f|e) and the expected counts are flat float lists indexed
by cell id, and each pair holds, per target word, the cell ids of its
sources: NULL last for Model 1 and first for Model 2. A target word repeated
within a pair shares its first occurrence's tuple, which holds the same ids.
Each source word keeps its {target word: id} row in first-met order, and
each (j, l_f, l_e) geometry has one distortion row, a list over positions
0..l_e. The trained tables come back as `TTable` and `DistortionTable`
dicts in that order.

Summation order is part of the output. Denominators, row totals and the
floor rescale are `sum()` calls, counts accumulate by `+=` in traversal
order, and a share is `p / denom`. Python 3.12's float `sum()` is
compensated, so turning a `sum()` into a `+=` loop, or the reverse, changes
the tables' bytes on 3.12 even where 3.11 gives equal floats.
`tests/em_reference.py` keeps the dict-based EM that these functions must
match exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

from .corpus import SentencePair
from .gcpause import paused_gc

PROB_FLOOR = 1e-12  # keeps later lexical weighting away from zero division

NULL_WORD = "<null>"


class AlignError(ValueError):
    """Raised for invalid training input."""


@dataclass
class TTable:
    """Lexical translation probabilities t(f|e), source word -> target word."""

    table: dict[str, dict[str, float]] = field(default_factory=dict)

    def prob(self, target: str, source: str) -> float:
        row = self.table.get(source)
        if row is None:
            return 0.0
        return row.get(target, 0.0)

    def row(self, source: str) -> dict[str, float]:
        return self.table.get(source, {})

    def sources(self) -> list[str]:
        return list(self.table)

    @classmethod
    def from_counts(
        cls,
        joint_counts: dict[str, dict[str, float]],
        source_totals: dict[str, float] | None = None,
    ) -> "TTable":
        """Single-pass MLE from co-occurrence counts, no EM.

        When source_totals is given it is used as the denominator even if it
        differs from the row sum, for tables whose totals include
        translations not listed row by row.
        """
        table: dict[str, dict[str, float]] = {}
        for src, row in joint_counts.items():
            denom = source_totals[src] if source_totals else sum(row.values())
            if denom <= 0:
                raise AlignError(f"non-positive denominator for source {src!r}")
            table[src] = {tgt: count / denom for tgt, count in row.items()}
        return cls(table)


@dataclass
class DistortionTable:
    """Model-2 position probabilities a(i | j, l_f, l_e); i = 0 is NULL."""

    table: dict[tuple[int, int, int], dict[int, float]] = field(default_factory=dict)

    def prob(self, i: int, j: int, l_f: int, l_e: int) -> float:
        row = self.table.get((j, l_f, l_e))
        if row is None:
            return 1.0 / (l_e + 1)  # unseen geometry: uniform
        return row.get(i, 0.0)


def _check_corpus(pairs: list[SentencePair], iterations: int) -> None:
    if iterations < 1:
        raise AlignError(f"iterations must be >= 1, got {iterations}")
    if not pairs:
        raise AlignError("empty training corpus")
    for number, pair in enumerate(pairs, start=1):
        if not pair.target:
            raise AlignError(
                f"sentence pair {number} has an empty side; drop such pairs with `smtkit clean`"
            )


def _cell_layout(
    pairs: list[SentencePair], null_first: bool
) -> tuple[dict[str, dict[str, int]], list[list[tuple[int, ...]]]]:
    """Number each co-occurring (source word, target word) cell in the order
    a pass over the pairs first meets it.

    Returns the cells, each source word's {target word: cell id} in
    first-met order, and for each pair, per target word, the tuple of the
    cell ids of its sources, with NULL first or last as `null_first` says.
    A target word repeated within a pair gets its first occurrence's tuple.
    """
    cells: dict[str, dict[str, int]] = {}
    layout: list[list[tuple[int, ...]]] = []
    n = 0
    for pair in pairs:
        sources = [NULL_WORD] + pair.source if null_first else pair.source + [NULL_WORD]
        rows = [cells.setdefault(src, {}) for src in sources]
        firsts: dict[str, tuple[int, ...]] = {}  # a target word -> its tuple in this pair
        targets = []
        for tgt in pair.target:
            ids = firsts.get(tgt)
            if ids is None:
                try:
                    ids = tuple([row[tgt] for row in rows])
                except KeyError:  # a cell not met before, rare after the first pairs
                    for row in rows:
                        if tgt not in row:
                            row[tgt] = n
                            n += 1
                    ids = tuple([row[tgt] for row in rows])
                firsts[tgt] = ids
            targets.append(ids)
        layout.append(targets)
    return cells, layout


def _normalize_rows(counts: list[float], rows: list[list[int]]) -> list[float]:
    """t over cell ids: each row's counts over their sum, floored, then
    rescaled; `rows` holds each source word's cell ids in first-met order."""
    t = [0.0] * len(counts)
    for ids in rows:
        total = sum([counts[c] for c in ids])
        floored = [max(counts[c] / total, PROB_FLOOR) for c in ids]
        # flooring may overshoot 1; renormalize so every row sums to exactly 1
        scale = sum(floored)
        for c, v in zip(ids, floored):
            t[c] = v / scale
    return t


def _ttable(cells: dict[str, dict[str, int]], t: list[float]) -> TTable:
    return TTable({src: {tgt: t[c] for tgt, c in row.items()} for src, row in cells.items()})


@paused_gc()
def train_ibm1(
    pairs: list[SentencePair],
    iterations: int = 10,
    epsilon: float = 1e-6,
) -> tuple[TTable, list[float]]:
    """EM for IBM Model 1; returns the table and per-iteration log-likelihoods.

    Initialization is uniform over co-occurring pairs. Stops early once the
    log-likelihood gain drops below epsilon.
    """
    _check_corpus(pairs, iterations)
    cells, layout = _cell_layout(pairs, null_first=False)
    rows = [list(row.values()) for row in cells.values()]
    t = [0.0] * sum(len(ids) for ids in rows)
    for ids in rows:
        uniform = 1.0 / len(ids)
        for c in ids:
            t[c] = uniform
    log_lens = [math.log(len(pair.source) + 1) for pair in pairs]

    likelihoods: list[float] = []
    for _ in range(iterations):
        counts = [0.0] * len(t)
        log_likelihood = 0.0
        for log_len, targets in zip(log_lens, layout):
            for ids in targets:
                probs = [t[c] for c in ids]
                denom = sum(probs)
                log_likelihood += math.log(denom) - log_len
                for p, c in zip(probs, ids):
                    counts[c] += p / denom
        t = _normalize_rows(counts, rows)
        likelihoods.append(log_likelihood)
        if len(likelihoods) >= 2 and likelihoods[-1] - likelihoods[-2] < epsilon:
            break
    return _ttable(cells, t), likelihoods


@paused_gc()
def train_ibm2(
    pairs: list[SentencePair],
    ibm1_init: TTable,
    iterations: int = 10,
    epsilon: float = 1e-6,
) -> tuple[TTable, DistortionTable, list[float]]:
    """Joint EM over lexical and absolute-position tables (IBM Model 2)."""
    _check_corpus(pairs, iterations)
    for pair in pairs:
        for src in pair.source + [NULL_WORD]:
            if src not in ibm1_init.table:
                raise AlignError(f"model-1 table does not cover source word {src!r}")

    cells, layout = _cell_layout(pairs, null_first=True)
    rows = [list(row.values()) for row in cells.values()]
    t = [0.0] * sum(len(ids) for ids in rows)
    for src, row in cells.items():
        init = ibm1_init.table[src]
        for tgt, c in row.items():
            t[c] = init.get(tgt, PROB_FLOOR)
    # the distortion rows of one (l_f, l_e) shape are first met together, for
    # j = 0..l_f - 1, so row base + j holds geometry (j, l_f, l_e)
    shapes: dict[tuple[int, int], int] = {}
    a: list[list[float]] = []
    bases = []
    for pair in pairs:
        l_f, l_e = len(pair.target), len(pair.source)
        if (l_f, l_e) not in shapes:
            shapes[l_f, l_e] = len(a)
            a.extend([1.0 / (l_e + 1)] * (l_e + 1) for _ in range(l_f))
        bases.append(shapes[l_f, l_e])

    likelihoods: list[float] = []
    for _ in range(iterations):
        t_counts = [0.0] * len(t)
        a_counts = [[0.0] * len(row) for row in a]
        log_likelihood = 0.0
        for base, targets in zip(bases, layout):
            for g, ids in enumerate(targets, base):
                # a distortion row holds positions 0..l_e in that order
                weights = [t[c] * d for c, d in zip(ids, a[g])]
                denom = sum(weights)
                log_likelihood += math.log(denom)
                a_row = a_counts[g]
                for i, (w, c) in enumerate(zip(weights, ids)):
                    share = w / denom
                    t_counts[c] += share
                    a_row[i] += share
        t = _normalize_rows(t_counts, rows)
        a = []
        for row in a_counts:
            total = sum(row)
            a.append([c / total for c in row])
        likelihoods.append(log_likelihood)
        if len(likelihoods) >= 2 and likelihoods[-1] - likelihoods[-2] < epsilon:
            break
    distortion = {
        (j, l_f, l_e): dict(enumerate(a[base + j]))
        for (l_f, l_e), base in shapes.items()
        for j in range(l_f)
    }
    return _ttable(cells, t), DistortionTable(distortion), likelihoods


def viterbi_align(
    ttable: TTable,
    pair: SentencePair,
    distortion: DistortionTable | None = None,
) -> set[tuple[int, int]]:
    """Best single source link per target word; NULL alignments drop the link.

    Ties go to the smallest source position (NULL, at position 0, wins ties).
    """
    links: set[tuple[int, int]] = set()
    rows = [ttable.table.get(src, {}) for src in [NULL_WORD] + pair.source]
    l_f, l_e = len(pair.target), len(pair.source)
    for j, tgt in enumerate(pair.target):
        scores = [row.get(tgt, 0.0) for row in rows]
        if distortion is not None:
            a_row = distortion.table.get((j, l_f, l_e))
            if a_row is None:  # unseen geometry: uniform
                uniform = 1.0 / (l_e + 1)
                scores = [s * uniform for s in scores]
            else:
                scores = [s * a_row.get(i, 0.0) for i, s in enumerate(scores)]
        best_score = max(scores)
        best_i = scores.index(best_score)  # the first maximum
        if best_i > 0 and best_score > 0.0:
            links.add((best_i - 1, j))
    return links


# diagonal neighbors take priority over orthogonal ones so that a diagonal
# continuation claims both endpoints before a same-row/column link can
_NEIGHBORS = ((-1, -1), (-1, 1), (1, -1), (1, 1), (-1, 0), (0, -1), (1, 0), (0, 1))


def grow_diag_final_and(
    forward: set[tuple[int, int]], backward: set[tuple[int, int]]
) -> set[tuple[int, int]]:
    union = forward | backward
    alignment = set(forward & backward)
    src_aligned = {i for i, _ in alignment}
    tgt_aligned = {j for _, j in alignment}

    # GROW-DIAG: union links neighboring an existing link, while an endpoint
    # is still uncovered
    added = True
    while added:
        added = False
        for i, j in sorted(alignment):
            for di, dj in _NEIGHBORS:
                cand = (i + di, j + dj)
                if cand not in union or cand in alignment:
                    continue
                if cand[0] not in src_aligned or cand[1] not in tgt_aligned:
                    alignment.add(cand)
                    src_aligned.add(cand[0])
                    tgt_aligned.add(cand[1])
                    added = True

    # FINAL-AND: union links whose endpoints are both still uncovered
    for cand in sorted(union - alignment):
        if cand[0] not in src_aligned and cand[1] not in tgt_aligned:
            alignment.add(cand)
            src_aligned.add(cand[0])
            tgt_aligned.add(cand[1])
    return alignment


SYMMETRIZATIONS = ("intersection", "union", "grow-diag-final-and")


def symmetrize(
    forward: set[tuple[int, int]],
    backward: set[tuple[int, int]],
    heuristic: str = "grow-diag-final-and",
) -> set[tuple[int, int]]:
    if heuristic == "intersection":
        return set(forward & backward)
    if heuristic == "union":
        return set(forward | backward)
    if heuristic == "grow-diag-final-and":
        return grow_diag_final_and(forward, backward)
    raise AlignError(f"unknown symmetrization heuristic: {heuristic!r}")


Links = tuple[tuple[int, int], ...]


def link_tuples(link_sets: Iterable[Iterable[tuple[int, int]]]) -> list[Links]:
    """Each pair's links as a sorted tuple of (i, j) points, equal points
    one tuple object across the pairs: ~0.1 KB a pair of 7 links, where a
    set of fresh tuples takes ~0.9 KB. Extractors only iterate over links
    and test points for membership."""
    share = {}.setdefault  # a point -> its first equal tuple
    return [tuple(sorted([share(point, point) for point in links])) for links in link_sets]


def format_links(links: Iterable[tuple[int, int]]) -> str:
    """Pharaoh format: space-separated i-j pairs, source-target, 0-based."""
    return " ".join(f"{i}-{j}" for i, j in sorted(links))


def write_ttable(ttable: TTable) -> str:
    lines = []
    for src in sorted(ttable.table):
        for tgt in sorted(ttable.table[src]):
            lines.append(f"{src}\t{tgt}\t{ttable.table[src][tgt]!r}")
    return "\n".join(lines) + "\n"


def read_ttable(text: str) -> TTable:
    table: dict[str, dict[str, float]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        cols = line.split("\t")
        if len(cols) != 3:
            raise AlignError(f"line {lineno}: expected src<TAB>tgt<TAB>prob")
        try:
            prob = float(cols[2])
        except ValueError:
            raise AlignError(f"line {lineno}: probability {cols[2]!r} is not a number") from None
        if not math.isfinite(prob):
            raise AlignError(f"line {lineno}: non-finite number {cols[2]!r}")
        if not 0.0 < prob <= 1.0:
            raise AlignError(f"line {lineno}: probability {cols[2]!r} lies outside (0, 1]")
        table.setdefault(cols[0], {})[cols[1]] = prob
    return TTable(table)


def parse_links(text: str) -> set[tuple[int, int]]:
    links = set()
    for part in text.split():
        i, _, j = part.partition("-")
        try:
            links.add((int(i), int(j)))
        except ValueError:
            raise AlignError(f"malformed link {part!r}, expected i-j") from None
    return links


def read_links(text: str) -> list[Links]:
    """The links of each line of a Pharaoh-format alignment file, in
    `link_tuples`' form."""

    def link_sets():
        for lineno, line in enumerate(text.splitlines(), start=1):
            try:
                yield parse_links(line)
            except AlignError as exc:
                raise AlignError(f"line {lineno}: {exc}") from None

    return link_tuples(link_sets())
