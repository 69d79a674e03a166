"""The dict-based IBM Model 1/2 EM that `smtkit.align` ran before its tables
were indexed by cell id, kept verbatim as an exact-order reference.

`smtkit.align` must return the same floats, in the same row and key order,
as these functions on the same interpreter. Unlike the dense oracles in
`oracles.py`, which check the model to a tolerance, this copy pins every
addition's order: Python 3.12's float `sum()` is compensated, so moving one
addition into or out of a `sum()` call changes bytes there.
"""

from __future__ import annotations

import math

from smtkit.align import NULL_WORD, PROB_FLOOR, AlignError, DistortionTable, TTable, _check_corpus
from smtkit.corpus import SentencePair


def _normalize_rows(counts: dict[str, dict[str, float]]) -> dict[str, dict[str, float]]:
    table: dict[str, dict[str, float]] = {}
    for src, row in counts.items():
        total = sum(row.values())
        floored = {tgt: max(c / total, PROB_FLOOR) for tgt, c in row.items()}
        # flooring may overshoot 1; renormalize so every row sums to exactly 1
        scale = sum(floored.values())
        table[src] = {tgt: v / scale for tgt, v in floored.items()}
    return table


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

    # uniform init over co-occurring (source+NULL, target) pairs
    t: dict[str, dict[str, float]] = {}
    for pair in pairs:
        for src in pair.source + [NULL_WORD]:
            row = t.setdefault(src, {})
            for tgt in pair.target:
                row[tgt] = 1.0
    for src, row in t.items():
        uniform = 1.0 / len(row)
        for tgt in row:
            row[tgt] = uniform

    likelihoods: list[float] = []
    for _ in range(iterations):
        counts: dict[str, dict[str, float]] = {}
        log_likelihood = 0.0
        for pair in pairs:
            sources = pair.source + [NULL_WORD]
            rows = [t[src] for src in sources]
            # every pair has a target word, so this creates the count rows in
            # the order the per-cell updates would
            count_rows = [counts.setdefault(src, {}) for src in sources]
            log_len = math.log(len(sources))
            for tgt in pair.target:
                probs = [row[tgt] for row in rows]
                denom = sum(probs)
                log_likelihood += math.log(denom) - log_len
                for p, crow in zip(probs, count_rows):
                    crow[tgt] = crow.get(tgt, 0.0) + p / denom
        t = _normalize_rows(counts)
        likelihoods.append(log_likelihood)
        if len(likelihoods) >= 2 and likelihoods[-1] - likelihoods[-2] < epsilon:
            break
    return TTable(t), likelihoods


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

    t = {src: dict(row) for src, row in ibm1_init.table.items()}
    a: dict[tuple[int, int, int], dict[int, float]] = {}
    for pair in pairs:
        l_f, l_e = len(pair.target), len(pair.source)
        for j in range(l_f):
            a.setdefault((j, l_f, l_e), {i: 1.0 / (l_e + 1) for i in range(l_e + 1)})

    likelihoods: list[float] = []
    for _ in range(iterations):
        t_counts: dict[str, dict[str, float]] = {}
        a_counts: dict[tuple[int, int, int], dict[int, float]] = {}
        log_likelihood = 0.0
        for pair in pairs:
            sources = [NULL_WORD] + pair.source
            l_f, l_e = len(pair.target), len(pair.source)
            rows = [t[src] for src in sources]
            count_rows = [t_counts.setdefault(src, {}) for src in sources]
            for j, tgt in enumerate(pair.target):
                key = (j, l_f, l_e)
                # a distortion row holds positions 0..l_e in that order
                weights = [
                    row.get(tgt, PROB_FLOOR) * d for row, d in zip(rows, a[key].values())
                ]
                denom = sum(weights)
                log_likelihood += math.log(denom)
                a_row = a_counts.setdefault(key, {})
                for i, (w, crow) in enumerate(zip(weights, count_rows)):
                    share = w / denom
                    crow[tgt] = crow.get(tgt, 0.0) + share
                    a_row[i] = a_row.get(i, 0.0) + share
        t = _normalize_rows(t_counts)
        a = {}
        for key, row in a_counts.items():
            total = sum(row.values())
            a[key] = {i: c / total for i, c in row.items()}
        likelihoods.append(log_likelihood)
        if len(likelihoods) >= 2 and likelihoods[-1] - likelihoods[-2] < epsilon:
            break
    return TTable(t), DistortionTable(a), likelihoods
