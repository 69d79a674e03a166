"""Minimum-error-rate training of log-linear weights against corpus BLEU.

Uses the exact line-search: along one weight coordinate every hypothesis
score is linear, so per sentence the argmax follows the upper envelope of
lines and corpus BLEU is piecewise constant. The search evaluates BLEU on
every interval of the merged envelope event list and jumps to the midpoint
of the best one.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable

from .decoder.weights import FeatureWeights
from .evaluate import EvalError, bleu, bleu_from_stats, bleu_stats


@dataclass
class MertConfig:
    nbest: int = 100
    max_iterations: int = 10
    min_weight_delta: float = 1e-4
    random_restarts: int = 3
    seed: int = 1


@dataclass
class NBestPool:
    """Per-sentence accumulated hypotheses, deduplicated by target string."""

    sentences: list[dict[tuple[str, ...], dict[str, float]]] = field(default_factory=list)

    def ensure(self, n: int) -> None:
        while len(self.sentences) < n:
            self.sentences.append({})

    def add(self, index: int, tokens: tuple[str, ...], features: dict[str, float]) -> None:
        self.ensure(index + 1)
        self.sentences[index].setdefault(tokens, features)

    def size(self) -> int:
        return sum(len(s) for s in self.sentences)


def _select(hyps: dict[tuple[str, ...], dict[str, float]], weights: FeatureWeights):
    best_tokens = None
    best_score = -math.inf
    for tokens in sorted(hyps):
        score = weights.dot(hyps[tokens])
        if score > best_score + 1e-12:
            best_score = score
            best_tokens = tokens
    return best_tokens


def pool_bleu(pool: NBestPool, weights: FeatureWeights, references: list[list[str]]) -> float:
    """Corpus BLEU of the per-sentence argmax selections."""
    if len(references) != len(pool.sentences):
        raise EvalError(
            f"reference count {len(references)} != pool sentences {len(pool.sentences)}"
        )
    selected = []
    for hyps, ref in zip(pool.sentences, references):
        if not hyps:
            raise EvalError("pool contains a sentence with no hypotheses")
        selected.append(list(_select(hyps, weights)))
    return bleu(selected, references).score


def _envelope(lines: list[tuple[float, float, int]]) -> list[tuple[float, int]]:
    """Upper envelope of (slope, intercept, id) lines.

    Returns (x_from, id) segments ordered left to right; the first starts
    at -inf.
    """
    # one line per slope: keep the highest intercept (ties: smallest id)
    by_slope: dict[float, tuple[float, int]] = {}
    for slope, intercept, ident in sorted(lines, key=lambda l: (l[0], -l[1], l[2])):
        if slope not in by_slope or intercept > by_slope[slope][0]:
            by_slope[slope] = (intercept, ident)
    ordered = sorted((s, i, ident) for s, (i, ident) in by_slope.items())
    hull: list[tuple[float, float, int, float]] = []  # slope, intercept, id, x_from
    for slope, intercept, ident in ordered:
        while hull:
            top_slope, top_intercept, top_id, top_x = hull[-1]
            x = (top_intercept - intercept) / (slope - top_slope)
            if x <= top_x:
                hull.pop()
            else:
                hull.append((slope, intercept, ident, x))
                break
        if not hull:
            hull.append((slope, intercept, ident, -math.inf))
    return [(x, ident) for _, _, ident, x in hull]


def weighted_terms(pool: NBestPool, weights: FeatureWeights) -> list[list[tuple]]:
    """Per sentence, its hypotheses in token order as (tokens, features,
    terms): terms are the (name, weight * value) products in feature order.

    An intercept in line_search sums these products, so one table serves
    every coordinate searched from the same `weights`.
    """
    return [
        [
            (tokens, hyps[tokens], [(f, weights.get(f) * v) for f, v in hyps[tokens].items()])
            for tokens in sorted(hyps)
        ]
        for hyps in pool.sentences
    ]


def line_search(
    terms: list[list[tuple]],
    references: list[list[str]],
    weights: FeatureWeights,
    name: str,
    stats_cache: dict,
) -> tuple[float, float]:
    """Best value for one weight and the pool BLEU it achieves, from the
    pool's weighted_terms(pool, weights)."""
    events: list[tuple[float, int, tuple, tuple]] = []  # (x, sentence, old stats, new stats)
    agg = [0] * len(bleu_stats([], []))  # summed stats of the current selection

    def stats_of(index, tokens):
        key = (index, tokens)
        if key not in stats_cache:
            stats_cache[key] = bleu_stats(list(tokens), references[index])
        return stats_cache[key]

    def add(stats, sign):
        for k, value in enumerate(stats):
            agg[k] += sign * value

    for index, hyps in enumerate(terms):
        # summed in feature order, each intercept is the very float that a
        # sum of weights.get(f) * v over the features gives
        lines = [
            (feats.get(name, 0.0), sum([p for f, p in products if f != name]), ident)
            for ident, (_, feats, products) in enumerate(hyps)
        ]
        segments = _envelope(lines)
        add(stats_of(index, hyps[segments[0][1]][0]), +1)
        for (x, ident), (_, prev_ident) in zip(segments[1:], segments[:-1]):
            events.append(
                (x, index, stats_of(index, hyps[prev_ident][0]), stats_of(index, hyps[ident][0]))
            )

    events.sort(key=lambda e: e[0])
    # interval boundaries are the distinct switch points
    thresholds = sorted({e[0] for e in events})

    best_bleu = bleu_from_stats(agg).score
    best_interval = 0
    pos = 0
    interval = 0
    while pos < len(events):
        x = events[pos][0]
        while pos < len(events) and events[pos][0] == x:
            add(events[pos][2], -1)
            add(events[pos][3], +1)
            pos += 1
        interval += 1
        value = bleu_from_stats(agg).score
        if value > best_bleu + 1e-12:
            best_bleu = value
            best_interval = interval
    if not thresholds:
        return weights.get(name), best_bleu
    if best_interval == 0:
        best_value = thresholds[0] - 1.0
    elif best_interval == len(thresholds):
        best_value = thresholds[-1] + 1.0
    else:
        best_value = (thresholds[best_interval - 1] + thresholds[best_interval]) / 2.0
    return best_value, best_bleu


def optimize_pool(
    pool: NBestPool,
    references: list[list[str]],
    weights: FeatureWeights,
    random_restarts: int = 3,
    seed: int = 1,
) -> tuple[FeatureWeights, float, list[float]]:
    """Coordinate ascent on pool BLEU with random restarts.

    Returns the best weights, their pool BLEU, and the BLEU after each
    accepted update (a non-decreasing sequence).
    """
    rng = random.Random(seed)
    stats_cache: dict = {}

    def ascend(start: FeatureWeights) -> tuple[FeatureWeights, float, list[float]]:
        current = start
        current_bleu = pool_bleu(pool, current, references)
        accepted: list[float] = []
        while True:
            best_candidate = None
            best_bleu = current_bleu
            terms = weighted_terms(pool, current)
            for name in FeatureWeights.names():
                value, predicted = line_search(terms, references, current, name, stats_cache)
                if predicted <= best_bleu + 1e-12:
                    continue
                candidate = current.replaced(name, value)
                actual = pool_bleu(pool, candidate, references)
                if actual > best_bleu + 1e-12:
                    best_bleu = actual
                    best_candidate = candidate
            if best_candidate is None:
                return current, current_bleu, accepted
            current = best_candidate
            current_bleu = best_bleu
            accepted.append(current_bleu)

    best_weights, best_bleu, best_accepted = ascend(weights)
    for _ in range(random_restarts):
        start = FeatureWeights(
            **{name: rng.uniform(-1.0, 1.0) for name in FeatureWeights.names()}
        )
        candidate, candidate_bleu, candidate_accepted = ascend(start)
        if candidate_bleu > best_bleu + 1e-12:
            best_weights, best_bleu = candidate, candidate_bleu
            best_accepted = candidate_accepted
    return best_weights, best_bleu, best_accepted


@dataclass
class MertResult:
    weights: FeatureWeights
    iteration_bleu: list[float]  # dev BLEU of the 1-best decode per iteration
    pool_bleu: float
    history: list[str]


DecoderFn = Callable[[list, FeatureWeights, int], list]
"""(sources, weights, nbest) -> per source its n-best [(tokens, score, features), ...];
a source it cannot decode raises SentenceError"""


class SentenceError(Exception):
    """A batch decoder's failure on the sentence at `index`."""

    def __init__(self, index: int, message: str):
        super().__init__(index, message)
        self.index = index
        self.message = message


def mert(
    dev_sources: list,
    dev_references: list[list[str]],
    decoder_fn: DecoderFn,
    initial_weights: FeatureWeights | None = None,
    config: MertConfig | None = None,
) -> MertResult:
    """Alternate decoding and pool optimization until weights stabilize."""
    if not dev_sources:
        raise EvalError("empty development set")
    if len(dev_sources) != len(dev_references):
        raise EvalError("development sources and references must be aligned")
    weights = initial_weights or FeatureWeights()
    config = config or MertConfig()
    pool = NBestPool()
    pool.ensure(len(dev_sources))
    iteration_bleu: list[float] = []
    history: list[str] = []
    final_pool_bleu = 0.0

    for iteration in range(config.max_iterations):
        try:
            nbests = decoder_fn(dev_sources, weights, config.nbest)
        except SentenceError as exc:
            raise RuntimeError(f"decoder failed on dev sentence {exc.index}: {exc.message}") from exc
        firsts = []
        for index, hyps in enumerate(nbests):
            for tokens, _, features in hyps:
                pool.add(index, tuple(tokens), dict(features))
            firsts.append(list(hyps[0][0]))
        dev_bleu = bleu(firsts, dev_references).score
        iteration_bleu.append(dev_bleu)

        new_weights, final_pool_bleu, _ = optimize_pool(
            pool, dev_references, weights,
            random_restarts=config.random_restarts,
            seed=config.seed + iteration,
        )
        delta = max(
            abs(new_weights.get(n) - weights.get(n)) for n in FeatureWeights.names()
        )
        history.append(
            f"iteration {iteration}: dev_bleu={dev_bleu:.6f} "
            f"pool_bleu={final_pool_bleu:.6f} max_weight_delta={delta:.6f}"
        )
        improved = final_pool_bleu > pool_bleu(pool, weights, dev_references) + 1e-12
        weights = new_weights
        if not improved and delta < config.min_weight_delta:
            break

    return MertResult(weights.l1_normalized(), iteration_bleu, final_pool_bleu, history)
