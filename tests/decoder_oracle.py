"""Exhaustive reference decoder for short sentences.

Enumerates every segmentation of the source into contiguous spans, every
translation option per span and every translation order, scoring each full
derivation with its own straight-line arithmetic. Exponential, so capped at
a small sentence length; used to certify that beam search is search-error
free when unconstrained.
"""

from __future__ import annotations

import math
from itertools import permutations

from smtkit.decoder.phrase import DecodeError, PhraseModels, Step, build_options
from smtkit.decoder.weights import FeatureWeights
from smtkit.phrasetab import MSD, MSLR

_SCORES = ("phi_s_given_t", "lex_s_given_t", "phi_t_given_s", "lex_t_given_s")


def _segmentations(n: int):
    """All partitions of 0..n-1 into contiguous spans (as (i, j) lists)."""
    if n == 0:
        yield []
        return
    for first_end in range(1, n + 1):
        for rest in _segmentations(n - first_end):
            yield [(0, first_end)] + [(i + first_end, j + first_end) for i, j in rest]


def _orientation(prev_start, prev_end, start, end, orientations):
    if prev_end == start:
        return "monotone"
    if end == prev_start:
        return "swap"
    if len(orientations) == 3:
        return "discontinuous"
    return "disc-left" if start >= prev_end else "disc-right"


def _score_sequence(
    ordered: list[Step], models: PhraseModels, entries: dict, weights: FeatureWeights, n: int
) -> float:
    score = 0.0
    tokens: list[str] = []
    last_start, last_end = 0, 0
    prev_key = None
    for step in ordered:
        for name, value in step.features:
            score += weights.get(name) * value
        score += weights.distortion * -abs(step.start - last_end)
        if models.reordering:
            entry = entries.get(step.entry_key)
            orients = MSLR if entry is not None and len(entry.forward) == 4 else MSD
            orient = _orientation(last_start, last_end, step.start, step.end, orients)
            if entry is not None:
                score += weights.reordering * math.log10(max(entry.forward[orient], 1e-30))
            if prev_key is not None:
                prev_entry = entries.get(prev_key)
                if prev_entry is not None:
                    back_orients = MSD if len(prev_entry.backward) == 3 else MSLR
                    back = _orientation(step.start, step.end, last_start, last_end, back_orients)
                    score += weights.reordering * math.log10(
                        max(prev_entry.backward[back], 1e-30)
                    )
        tokens.extend(step.tgt)
        last_start, last_end = step.start, step.end
        prev_key = step.entry_key
    if models.reordering and prev_key is not None:
        prev_entry = entries.get(prev_key)
        if prev_entry is not None:
            back_orients = MSD if len(prev_entry.backward) == 3 else MSLR
            back = _orientation(n, n + 1, last_start, last_end, back_orients)
            score += weights.reordering * math.log10(max(prev_entry.backward[back], 1e-30))
    lm_total, _ = models.lm.score_sentence(tokens)
    score += weights.lm * lm_total
    return score


def decode_oracle(
    sentence: list[str],
    models: PhraseModels,
    weights: FeatureWeights | None = None,
    max_len: int = 4,
) -> tuple[tuple[str, ...], float]:
    """Exact argmax over all derivations; ties go to the smaller target."""
    weights = weights or FeatureWeights()
    if not sentence:
        raise DecodeError("cannot decode an empty sentence")
    if len(sentence) > max_len:
        raise DecodeError(
            f"oracle decoding is capped at {max_len} words, got {len(sentence)}"
        )
    options = build_options(sentence, models)
    # each (source, target) pair's reordering entry, the last one for a pair listed twice
    entries = {(e.src, e.tgt): e for e in models.reordering or ()}
    n = len(sentence)
    best_tokens: tuple[str, ...] | None = None
    best_score = -math.inf
    for segmentation in _segmentations(n):
        usable = [options.get((i, j), []) for i, j in segmentation]
        if any(not opts for opts in usable):
            continue
        for order in permutations(range(len(segmentation))):
            choice = [0] * len(segmentation)
            while True:
                ordered = [usable[idx][choice[idx]] for idx in order]
                score = _score_sequence(ordered, models, entries, weights, n)
                tokens = tuple(t for step in ordered for t in step.tgt)
                if score > best_score + 1e-12 or (
                    abs(score - best_score) <= 1e-12
                    and (best_tokens is None or tokens < best_tokens)
                ):
                    best_score = score
                    best_tokens = tokens
                # advance the mixed-radix option counter
                pos = 0
                while pos < len(choice):
                    choice[pos] += 1
                    if choice[pos] < len(usable[pos]):
                        break
                    choice[pos] = 0
                    pos += 1
                else:
                    break
    if best_tokens is None:
        raise DecodeError("no derivation covers the sentence")
    return best_tokens, best_score
