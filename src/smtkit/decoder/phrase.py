"""Stack-based beam search for phrase models.

Hypotheses are organized into stacks by the number of covered source words.
Recombination keys on (coverage, LM context, end of last phrase); with a
lexicalized reordering model the identity and span of the last phrase join
the key, because the pending backward orientation depends on them. With an
unlimited stack and no distortion limit the search is exhaustive dynamic
programming, which is what the oracle-equivalence tests rely on.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from ..corpus import BOS, EOS
from ..lm import NGramModel
from ..phrasetab import PhraseEntry, ReorderingEntry
from .weights import FeatureWeights, add_features

SCORE_NAMES = ("phi_s_given_t", "lex_s_given_t", "phi_t_given_s", "lex_t_given_s")
OOV_FEATURES = {"oov": -1.0, "word_penalty": -1.0}  # one verbatim-copied unknown word


class DecodeError(ValueError):
    """Raised for unusable decoder input or missing models."""


@dataclass
class PhraseModels:
    phrase_table: list[PhraseEntry]
    lm: NGramModel
    reordering: list[ReorderingEntry] | None = None

    def __post_init__(self):
        self._options: dict[tuple[str, ...], list[PhraseEntry]] = {}
        self.max_src_len = 1
        for entry in self.phrase_table:
            self._options.setdefault(entry.src, []).append(entry)
            self.max_src_len = max(self.max_src_len, len(entry.src))
        for options in self._options.values():
            options.sort(key=lambda e: (e.tgt, e.scores))
        self._reorder: dict[tuple[tuple[str, ...], tuple[str, ...]], ReorderingEntry] = {}
        if self.reordering:
            for entry in self.reordering:
                self._reorder[(entry.src, entry.tgt)] = entry
        # filled on first use, so loading a model stays as cheap as indexing it
        self._reorder_logs: dict[tuple | None, tuple[dict[str, float], dict[str, float]] | None] = {}

    def options(self, src: tuple[str, ...]) -> list[PhraseEntry]:
        return self._options.get(src, [])

    def reordering_entry(self, src, tgt) -> ReorderingEntry | None:
        return self._reorder.get((src, tgt))

    def reordering_logs(
        self, key: tuple | None
    ) -> tuple[dict[str, float], dict[str, float]] | None:
        """log10 forward and backward orientation scores of one phrase entry.

        `key` is a step's `entry_key`; None (an OOV step) or an entry without
        reordering statistics gives None. Memoized per entry.
        """
        if key not in self._reorder_logs:
            entry = self._reorder.get(key) if key is not None else None
            self._reorder_logs[key] = (
                None if entry is None else (_log_scores(entry.forward), _log_scores(entry.backward))
            )
        return self._reorder_logs[key]


def _log_scores(probs: dict[str, float]) -> dict[str, float]:
    """log10 score per orientation, keyed by the four-way (mslr) names; a
    three-way (msd) entry gives its discontinuous score to both."""
    logs = {orient: math.log10(max(p, 1e-30)) for orient, p in probs.items()}
    if "discontinuous" in logs:
        logs["disc-left"] = logs["disc-right"] = logs.pop("discontinuous")
    return logs


@dataclass
class DecodeConfig:
    stack_size: int | None = 100
    distortion_limit: int | None = 6
    nbest: int = 1


@dataclass(frozen=True)
class Step:
    """One derivation step: a source span translated by one option."""

    start: int
    end: int  # exclusive
    tgt: tuple[str, ...]
    features: tuple[tuple[str, float], ...]  # phrase-local features
    entry_key: tuple | None  # (src, tgt) of the phrase entry; None for OOV


@dataclass
class Hypothesis:
    coverage: int  # bit mask
    covered: int
    last_end: int  # exclusive source position after last phrase
    ctx: tuple[int, ...]  # LM context ids
    tokens: tuple[str, ...]
    score: float  # accumulated weighted score
    future: float
    steps: tuple[Step, ...]

    def sort_key(self):
        return (-(self.score + self.future), self.tokens, self.coverage, self.last_end)


@dataclass
class DecodedHypothesis:
    tokens: tuple[str, ...]
    score: float
    features: dict[str, float]
    steps: tuple[Step, ...]


def translation_features(scores, target: tuple) -> dict[str, float]:
    """Features of one applied phrase or rule: the log10 of its four scores,
    one phrase, and the words (str items) of its target side."""
    feats = {name: math.log10(max(s, 1e-30)) for name, s in zip(SCORE_NAMES, scores)}
    feats["phrase_penalty"] = -1.0
    feats["word_penalty"] = -float(sum(1 for t in target if isinstance(t, str)))
    return feats


def rank_nbest(
    items, lm: NGramModel, weights: FeatureWeights, nbest: int
) -> list[DecodedHypothesis]:
    """The n-best tail of the chart and tree decoders.

    `items` carry `tokens`, LM-free `features` and `rules`. Each distinct
    output keeps its best derivation after rescoring the LM with sentence
    boundaries; the result is sorted by (-score, tokens).
    """
    ranked: dict[tuple[str, ...], DecodedHypothesis] = {}
    for item in items:
        features = dict(item.features)
        features["lm"], _ = lm.score_sentence(list(item.tokens))
        score = weights.dot(features)
        existing = ranked.get(item.tokens)
        if existing is None or score > existing.score:
            ranked[item.tokens] = DecodedHypothesis(item.tokens, score, features, item.rules)
    ordered = sorted(ranked.values(), key=lambda h: (-h.score, h.tokens))
    return ordered[: max(nbest, 1)]


def build_options(
    sentence: list[str], models: PhraseModels
) -> dict[tuple[int, int], list[Step]]:
    """Translation options per source span, with OOV pass-through filling."""
    n = len(sentence)
    options: dict[tuple[int, int], list[Step]] = {}
    covered = [False] * n
    for i in range(n):
        for j in range(i + 1, min(i + models.max_src_len, n) + 1):
            src = tuple(sentence[i:j])
            entries = models.options(src)
            if entries:
                options[(i, j)] = [
                    Step(i, j, e.tgt, tuple(translation_features(e.scores, e.tgt).items()),
                         (e.src, e.tgt))
                    for e in entries
                ]
                for k in range(i, j):
                    covered[k] = True
    for i in range(n):
        if not covered[i]:
            options.setdefault((i, i + 1), []).append(
                Step(i, i + 1, (sentence[i],), tuple(OOV_FEATURES.items()), None)
            )
    return options


def lm_prefix_score(lm: NGramModel, tokens: tuple[str, ...]) -> float:
    """Boundary-free log10 LM score of a token sequence."""
    total = 0.0
    for i in range(len(tokens)):
        history = tokens[max(0, i - lm.order + 1) : i]
        total += lm.score_word(history, tokens[i])
    return total


def future_cost_table(
    sentence: list[str],
    options: dict[tuple[int, int], list[Step]],
    models: PhraseModels,
    weights: FeatureWeights,
) -> dict[tuple[int, int], float]:
    """Best-case span estimates: phrase-local features plus context-free LM."""
    n = len(sentence)
    table: dict[tuple[int, int], float] = {}
    for width in range(1, n + 1):
        for i in range(0, n - width + 1):
            j = i + width
            best = -math.inf
            for step in options.get((i, j), []):
                score = sum(weights.get(name) * v for name, v in step.features)
                score += weights.lm * lm_prefix_score(models.lm, step.tgt)
                best = max(best, score)
            for k in range(i + 1, j):
                combined = table[(i, k)] + table[(k, j)]
                best = max(best, combined)
            table[(i, j)] = best
    return table


def _uncovered_future(
    coverage: int, n: int, table: dict[tuple[int, int], float]
) -> float:
    total = 0.0
    i = 0
    while i < n:
        if coverage >> i & 1:
            i += 1
            continue
        j = i
        while j < n and not coverage >> j & 1:
            j += 1
        total += table[(i, j)]
        i = j
    return total


def _orientation_name(prev_start: int, prev_end: int, start: int, end: int) -> str:
    """Four-way orientation of [start, end) against [prev_start, prev_end)."""
    if prev_end == start:
        return "monotone"
    if end == prev_start:
        return "swap"
    return "disc-left" if start >= prev_end else "disc-right"


def _forward_log(models: PhraseModels, step: Step, prev_start: int, prev_end: int) -> float:
    """log10 forward score of `step` after the phrase [prev_start, prev_end);
    0.0 when its entry has no reordering statistics."""
    logs = models.reordering_logs(step.entry_key)
    if logs is None:
        return 0.0
    return logs[0][_orientation_name(prev_start, prev_end, step.start, step.end)]


def _backward_log(models: PhraseModels, step: Step, next_start: int, next_end: int) -> float:
    """log10 backward score of `step` before the phrase [next_start, next_end);
    0.0 when its entry has no reordering statistics."""
    logs = models.reordering_logs(step.entry_key)
    if logs is None:
        return 0.0
    return logs[1][_orientation_name(next_start, next_end, step.start, step.end)]


def _final_reordering_for(
    models: PhraseModels, weights: FeatureWeights, step: Step, n: int
) -> float:
    """Weighted backward score of the last phrase against the sentence end."""
    if models.reordering_logs(step.entry_key) is None:
        return 0.0
    return weights.reordering * _backward_log(models, step, n, n + 1)


def decode_phrase(
    sentence: list[str],
    models: PhraseModels,
    weights: FeatureWeights | None = None,
    config: DecodeConfig | None = None,
) -> list[DecodedHypothesis]:
    """Beam-search decode; returns up to nbest hypotheses, best first.

    Recombination keeps a single survivor per key; n-best variety comes
    from widening the per-stack beam to at least 2*nbest keys and from
    every distinct completed derivation encountered along the way.

    Each decode computes once, for its own options and weights: the weighted
    phrase-local score and the LM ids of every option, LM deltas by
    (context, target ids), the </s> score by context and future costs by
    coverage. Orientation log-scores are memoized per phrase entry on
    `models`; an expansion's orientations follow from the previous phrase's
    span and the new span alone, so they are resolved once per span and
    each option adds only its own forward log-score. A completed derivation
    keeps only its score and steps; the full feature vector is computed for
    the returned n-best alone.
    """
    weights = weights or FeatureWeights()
    config = config or DecodeConfig()
    if not sentence:
        raise DecodeError("cannot decode an empty sentence")
    if models.lm is None or models.phrase_table is None:
        raise DecodeError("phrase decoding needs a phrase table and a language model")

    n = len(sentence)
    lm = models.lm
    order_cut = lm.order - 1
    options = build_options(sentence, models)
    future = future_cost_table(sentence, options, models, weights)
    beam_width = config.stack_size
    if beam_width is not None and config.nbest > 1:
        beam_width = max(beam_width, 2 * config.nbest)

    # per-decode caches: LM deltas by (context, target ids), </s> scores by
    # context and future costs by coverage mask
    lm_cache: dict[tuple, tuple[float, tuple[int, ...]]] = {}
    eos_cache: dict[tuple[int, ...], float] = {}
    future_cache: dict[int, float] = {}

    def future_of(coverage: int) -> float:
        cached = future_cache.get(coverage)
        if cached is None:
            cached = _uncovered_future(coverage, n, future)
            future_cache[coverage] = cached
        return cached

    def lm_delta(ctx: tuple[int, ...], ids: tuple[int, ...]) -> tuple[float, tuple[int, ...]]:
        total = 0.0
        cur = ctx
        for wid in ids:
            total += lm.score_ids(cur, wid)
            cur = (cur + (wid,))[-order_cut:]
        lm_cache[(ctx, ids)] = (total, cur)
        return total, cur

    def eos_score(ctx: tuple[int, ...]) -> float:
        cached = eos_cache.get(ctx)
        if cached is None:
            cached = lm.score_ids(ctx, eos_id)
            eos_cache[ctx] = cached
        return cached

    bos_ctx = (lm.vocab.id_of(BOS),)
    eos_id = lm.vocab.id_of(EOS)
    init = Hypothesis(
        coverage=0,
        covered=0,
        last_end=0,
        ctx=bos_ctx,
        tokens=(),
        score=0.0,
        future=future_of(0),
        steps=(),
    )
    stacks: list[dict[tuple, Hypothesis]] = [dict() for _ in range(n + 1)]
    stacks[0][(0, bos_ctx, 0, None)] = init
    # best (score, steps) per distinct output
    completed: dict[tuple[str, ...], tuple[float, tuple[Step, ...]]] = {}
    full_mask = (1 << n) - 1
    # per span: its coverage mask and, per option, the weighted phrase-local
    # score, the LM ids of the target words and the reordering log-scores
    span_options = [
        (
            i,
            j,
            ((1 << (j - i)) - 1) << i,
            [
                (
                    step,
                    sum(weights.get(name) * v for name, v in step.features),
                    tuple(lm.vocab.id_of(w) for w in step.tgt),
                    models.reordering_logs(step.entry_key),
                )
                for step in steps
            ],
        )
        for (i, j), steps in sorted(options.items())
    ]
    track_reorder = bool(models.reordering)
    distortion_weight = weights.distortion
    lm_weight = weights.lm
    reordering_weight = weights.reordering
    limit = config.distortion_limit

    for count in range(n):
        stack = stacks[count]
        if not stack:
            continue
        if beam_width is None:
            survivors = sorted(stack.values(), key=Hypothesis.sort_key)
        else:
            survivors = heapq.nsmallest(beam_width, stack.values(), key=Hypothesis.sort_key)
        for hyp in survivors:
            coverage = hyp.coverage
            last_end = hyp.last_end
            hyp_ctx = hyp.ctx
            prev = hyp.steps[-1] if hyp.steps else None
            prev_start = prev.start if prev is not None else 0
            for i, j, mask, scored in span_options:
                if coverage & mask:
                    continue
                jump = i - last_end if i >= last_end else last_end - i
                if limit is not None and jump > limit:
                    continue
                base = hyp.score + distortion_weight * -float(jump)
                new_coverage = coverage | mask
                if track_reorder:
                    # the span fixes both orientations: the new phrase's
                    # forward one and the previous phrase's backward one
                    forward_orient = _orientation_name(prev_start, last_end, i, j)
                    backward = 0.0
                    if prev is not None:
                        backward = _backward_log(models, prev, i, j)
                for step, local, ids, reorder_logs in scored:
                    inc = base + local
                    delta, ctx = lm_cache.get((hyp_ctx, ids)) or lm_delta(hyp_ctx, ids)
                    inc += lm_weight * delta
                    if track_reorder:
                        forward = reorder_logs[0][forward_orient] if reorder_logs else 0.0
                        inc += reordering_weight * (forward + backward)
                    if new_coverage == full_mask:
                        score = inc + lm_weight * eos_score(ctx)
                        if track_reorder:
                            score += _final_reordering_for(models, weights, step, n)
                        tokens = hyp.tokens + step.tgt
                        existing = completed.get(tokens)
                        if existing is None or score > existing[0]:
                            completed[tokens] = (score, hyp.steps + (step,))
                        continue
                    key = (new_coverage, ctx, j, step.entry_key if track_reorder else None)
                    target_stack = stacks[hyp.covered + (j - i)]
                    other = target_stack.get(key)
                    if other is not None and other.score >= inc:
                        continue
                    target_stack[key] = Hypothesis(
                        coverage=new_coverage,
                        covered=hyp.covered + (j - i),
                        last_end=j,
                        ctx=ctx,
                        tokens=hyp.tokens + step.tgt,
                        score=inc,
                        future=future_of(new_coverage),
                        steps=hyp.steps + (step,),
                    )

    if not completed:
        if config.distortion_limit == 0:
            raise DecodeError("monotone search failed to complete any hypothesis")
        fallback = DecodeConfig(stack_size=config.stack_size, distortion_limit=0, nbest=config.nbest)
        return decode_phrase(sentence, models, weights, fallback)

    ranked = sorted(completed.items(), key=lambda item: (-item[1][0], item[0]))
    return [
        DecodedHypothesis(tokens, score, derivation_features(steps, models, n), steps)
        for tokens, (score, steps) in ranked[: max(config.nbest, 1)]
    ]


def derivation_features(
    steps: tuple[Step, ...], models: PhraseModels, n: int
) -> dict[str, float]:
    """Recompute the full feature vector of a derivation from scratch."""
    features: dict[str, float] = {}
    tokens: tuple[str, ...] = ()
    last_start, last_end = 0, 0
    prev: Step | None = None
    distortion = 0.0
    reorder = 0.0
    for step in steps:
        add_features(features, dict(step.features))
        distortion += abs(step.start - last_end)
        if models.reordering:
            reorder += _forward_log(models, step, last_start, last_end)
            if prev is not None:
                reorder += _backward_log(models, prev, step.start, step.end)
        tokens += step.tgt
        last_start, last_end = step.start, step.end
        prev = step
    if models.reordering and prev is not None:
        reorder += _backward_log(models, prev, n, n + 1)
    features["distortion"] = -distortion
    if models.reordering:
        features["reordering"] = reorder
    total_lm, _ = models.lm.score_sentence(list(tokens))
    features["lm"] = total_lm
    return features


def score_derivation(
    steps: tuple[Step, ...],
    models: PhraseModels,
    weights: FeatureWeights,
    n: int,
) -> float:
    return weights.dot(derivation_features(steps, models, n))
