"""Stack-based beam search for phrase models.

Hypotheses are organized into stacks by the number of covered source words.
Recombination keys on (coverage, LM state, end of last phrase, reordering
id). The LM state is the hypothesis's LM context as a state of the models'
shared `lm.LmStates` memo, which scores every LM query. With a lexicalized
reordering model the reordering id names the (src, tgt) entry of the last
phrase, because the pending backward orientation depends on it; without one
it is the same for every hypothesis. With an unlimited stack and no distortion
limit the search is exhaustive dynamic programming, which is what the
oracle-equivalence tests rely on.

A hypothesis points back to its parent and to the option it applied; its
output tokens are built only once it survives its stack's beam, and the
steps of a derivation only for the returned n-best.

The spans a hypothesis may take are listed once per (coverage, end of last
phrase) and shared by the hypotheses with that pair. With a limited beam
each stack has an exact floor, and an extension is checked against it
twice: first on an optimistic total that bounds its LM score by per-word
ceilings, before any LM query, then on its real total. A span's options are
visited best first by their context-free estimate, so the first option
whose optimistic bound over the rest of the span fails the floor ends the
span. The checks drop only what the beam would drop, and exact ties go as
they would in table order (see `decode_phrase`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heapreplace
from operator import attrgetter

from ..gcpause import paused_gc
from ..lm import LmMemo, LmStates, NGramModel
from ..phrasetab import PhraseEntry, ReorderingEntry
from .weights import FeatureWeights, add_features

SCORE_NAMES = ("phi_s_given_t", "lex_s_given_t", "phi_t_given_s", "lex_t_given_s")
OOV_FEATURES = {"oov": -1.0, "word_penalty": -1.0}  # one verbatim-copied unknown word


class DecodeError(ValueError):
    """Raised for unusable decoder input or missing models."""


@dataclass
class PhraseModels(LmMemo):
    phrase_table: list[PhraseEntry]
    lm: NGramModel
    reordering: list[ReorderingEntry] | None = None

    def __post_init__(self):
        options: dict[tuple[str, ...], list[PhraseEntry]] = {}
        for entry in self.phrase_table:
            options.setdefault(entry.src, []).append(entry)
        self._options = options
        self.max_src_len = max(1, max(map(len, options), default=1))
        for entries in options.values():
            if len(entries) > 1:
                entries.sort(key=lambda e: (e.tgt, e.scores))
        self._reorder: dict[tuple[tuple[str, ...], tuple[str, ...]], ReorderingEntry] = {
            (entry.src, entry.tgt): entry for entry in self.reordering or ()
        }
        # filled on first use, so loading a model stays as cheap as indexing it
        self._reorder_logs: dict[tuple | None, tuple[dict[str, float], dict[str, float]] | None] = {}
        self._log_tables: dict[tuple, dict[str, float]] = {}  # per distinct distribution
        self._ceilings: tuple[NGramModel, list[float] | None] | None = None
        self._translations: tuple[NGramModel, dict, dict] | None = None

    def lm_ceilings(self) -> list[float] | None:
        """Per LM word id, the most its LM score can be
        (`NGramModel.word_ceilings`); None when the LM gives no such bound or
        an orientation probability is above 1 (or NaN), whose log10 could
        raise a score. Computed on first use, as the reordering logs are, and
        kept while `lm` is the same model."""
        if self._ceilings is None or self._ceilings[0] is not self.lm:
            ceilings = self.lm.word_ceilings()
            # a read table holds each distinct distribution once
            distributions = {
                id(probs): probs
                for entry in self.reordering or ()
                for probs in (entry.forward, entry.backward)
            }
            if not all(p <= 1.0 for probs in distributions.values() for p in probs.values()):
                ceilings = None
            self._ceilings = (self.lm, ceilings)
        return self._ceilings[1]

    def translations(self, src: tuple[str, ...]) -> list[tuple]:
        """Per phrase entry of `src`, sorted by (target side, scores): its
        target side, its `translation_features` items, its `entry_key` and
        the LM ids of its target side. Computed on first use per source
        side, as the ceilings are, and kept while `lm` is the same model;
        equal (name, value) items are one object."""
        entries = self._options.get(src)
        if entries is None:
            return []
        if self._translations is None or self._translations[0] is not self.lm:
            self._translations = (self.lm, {}, {})
        _, known, items = self._translations
        found = known.get(src)
        if found is None:
            id_of = self.lm.vocab.id_of
            found = known[src] = [
                (e.tgt, tuple(items.setdefault(item, item)
                              for item in translation_features(e.scores, e.tgt).items()),
                 (e.src, e.tgt), tuple(id_of(w) for w in e.tgt))
                for e in entries
            ]
        return found

    def reordering_logs(
        self, key: tuple | None
    ) -> tuple[dict[str, float], dict[str, float]] | None:
        """log10 forward and backward orientation scores of one phrase entry.

        `key` is a step's `entry_key`; None (an OOV step) or an entry without
        reordering statistics gives None. Memoized per entry; entries with
        equal distributions share one log table.
        """
        if key not in self._reorder_logs:
            entry = self._reorder.get(key) if key is not None else None
            self._reorder_logs[key] = None if entry is None else tuple(
                self._log_tables.setdefault(tuple(probs.items()), _log_scores(probs))
                for probs in (entry.forward, entry.backward)
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


def rank_best(items, key, score, limit: int) -> list:
    """The ranking step of the chart and tree decoders: the best item of the
    list `items` per `key(item)` (the first of equals), sorted by (-score,
    tokens) and cut to `limit`; a lone item needs neither step."""
    if len(items) == 1:
        return items[:limit]
    best: dict = {}
    for item in items:
        value, slot = score(item), key(item)
        if slot not in best or value > best[slot][0]:
            best[slot] = (value, item)
    ranked = sorted(best.values(), key=lambda pair: (-pair[0], pair[1].tokens))
    return [item for _, item in ranked[:limit]]


def rank_nbest(
    items, lm_states: LmStates, weights: FeatureWeights, nbest: int
) -> list[DecodedHypothesis]:
    """The n-best tail of the chart and tree decoders: `items` (with `tokens`,
    LM-free `features` and `rules`) ranked after rescoring the LM with
    sentence boundaries, each distinct output with its best derivation."""
    hyps = []
    for item in items:
        features = {**item.features, "lm": lm_states.sentence(item.tokens)}
        hyps.append(DecodedHypothesis(item.tokens, weights.dot(features), features, item.rules))
    return rank_best(hyps, attrgetter("tokens"), attrgetter("score"), max(nbest, 1))


def build_options(
    sentence: list[str], models: PhraseModels
) -> dict[tuple[int, int], list[Step]]:
    """Translation options per source span, with OOV pass-through filling."""
    options = _options_with_ids(sentence, models)
    return {span: [step for step, _ in found] for span, found in options.items()}


def _options_with_ids(
    sentence: list[str], models: PhraseModels
) -> dict[tuple[int, int], list[tuple[Step, tuple[int, ...]]]]:
    """`build_options` with the LM ids of each option's target side."""
    n = len(sentence)
    options: dict[tuple[int, int], list[tuple[Step, tuple[int, ...]]]] = {}
    covered = [False] * n
    for i in range(n):
        for j in range(i + 1, min(i + models.max_src_len, n) + 1):
            found = models.translations(tuple(sentence[i:j]))
            if found:
                options[(i, j)] = [
                    (Step(i, j, tgt, features, key), ids) for tgt, features, key, ids in found
                ]
                for k in range(i, j):
                    covered[k] = True
    for i in range(n):
        if not covered[i]:
            options.setdefault((i, i + 1), []).append((
                Step(i, i + 1, (sentence[i],), tuple(OOV_FEATURES.items()), None),
                (models.lm.vocab.id_of(sentence[i]),),
            ))
    return options


def future_cost_table(
    n: int, estimates: dict[tuple[int, int], list[float]]
) -> dict[tuple[int, int], float]:
    """Best-case span scores: the best option estimate of a span (its
    phrase-local score plus its context-free LM score), or the best split of
    the span in two."""
    table: dict[tuple[int, int], float] = {}
    for width in range(1, n + 1):
        for i in range(0, n - width + 1):
            j = i + width
            best = -math.inf
            for score in estimates.get((i, j), ()):
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


def _top(values: list[float]) -> float:
    """The largest of `values`, or +inf when one is NaN: a NaN bound drops
    nothing, and neither may the bound of its span."""
    return math.inf if any(v != v for v in values) else max(values)


def _orientation_name(prev_start: int, prev_end: int, start: int, end: int) -> str:
    """Four-way orientation of [start, end) against [prev_start, prev_end)."""
    if prev_end == start:
        return "monotone"
    if end == prev_start:
        return "swap"
    return "disc-left" if start >= prev_end else "disc-right"


def _orientation_log(models: PhraseModels, step: Step, side: int, start: int, end: int) -> float:
    """log10 forward (side 0) score of `step` after the phrase [start, end),
    or backward (side 1) score before it; 0.0 when its entry has no
    reordering statistics."""
    logs = models.reordering_logs(step.entry_key)
    if logs is None:
        return 0.0
    return logs[side][_orientation_name(start, end, step.start, step.end)]


# A search hypothesis is a list [total, score, coverage, last_end, state,
# parent, option, tokens]: `total` is `score` plus the future cost of the
# uncovered words, `state` the interned LM context, `parent` the hypothesis
# it extends by `option` (an index into the decode's options), and `tokens`
# its output, None until it survives a stack's beam.
_TOTAL, _SCORE, _COVERAGE, _LAST_END, _STATE, _PARENT, _OPTION, _TOKENS = range(8)


def _survivors(stack: dict, beam_width: int | None, steps: list[Step]) -> list[list]:
    """The hypotheses of a stack that its beam keeps, best first.

    Equal to sorting the whole stack by the key (-total, tokens, coverage,
    last_end, option) and keeping `beam_width`. The key is a total order:
    two recombination keys that tie on the first four differ in the entry
    of their last phrase, so in their last option; the result therefore
    does not depend on the order in which the stack was filled. A
    hypothesis whose total is below the beam's worst total cannot make the
    cut, so output tokens are built and compared only for the rest.
    """
    hyps = list(stack.values())
    if beam_width is not None and len(hyps) > beam_width:
        cut = sorted([hyp[_TOTAL] for hyp in hyps], reverse=True)[beam_width - 1]
        hyps = [hyp for hyp in hyps if hyp[_TOTAL] >= cut]
    for hyp in hyps:
        if hyp[_TOKENS] is None:
            hyp[_TOKENS] = hyp[_PARENT][_TOKENS] + steps[hyp[_OPTION]].tgt
    hyps.sort(
        key=lambda hyp: (-hyp[_TOTAL], hyp[_TOKENS], hyp[_COVERAGE], hyp[_LAST_END], hyp[_OPTION])
    )
    return hyps[:beam_width]


def _derivation_steps(hyp: list, option: int, steps: list[Step]) -> tuple[Step, ...]:
    """The steps of the derivation that applies `option` to `hyp`."""
    derivation = [steps[option]]
    while hyp[_PARENT] is not None:
        derivation.append(steps[hyp[_OPTION]])
        hyp = hyp[_PARENT]
    return tuple(reversed(derivation))


@paused_gc()
def decode_phrase(
    sentence: list[str],
    models: PhraseModels,
    weights: FeatureWeights | None = None,
    config: DecodeConfig | None = None,
) -> list[DecodedHypothesis]:
    """Beam-search decode; returns up to nbest hypotheses, best first.

    Recombination keeps a single survivor per key (coverage, LM state, end
    of the last phrase, reordering id); n-best variety comes from widening
    the per-stack beam to at least 2*nbest keys and from every distinct
    completed derivation encountered along the way. The reordering id is
    the interned `entry_key` of the last phrase when a reordering model is
    loaded (its pending backward orientation depends on the entry) and the
    same for every option otherwise.

    A hypothesis may take each span it has not covered whose start lies
    within the distortion limit of its last end. Those spans, with their
    weighted distortion, new coverage and future cost, depend on the
    coverage and the last end alone, so they are listed once per (coverage,
    last end) and the list is shared by every hypothesis with that pair.

    With a limited beam each stack has a floor: a min-heap of the highest
    first totals of `beam_width` distinct keys that entered the stack, -inf
    until that many have. A key's total only rises, so the floor never
    exceeds the total the beam finally cuts at, and a candidate strictly
    below it is dropped before its recombination key is built: neither it
    nor any entry it would replace can survive the beam, so the survivors
    are those of the search without a floor. With an unlimited beam the
    floor stays -inf.

    A candidate that does not complete the sentence meets the floor first
    on an optimistic total, before its LM transition and reordering scores
    are looked up: ((base + local) + lmc) + future, where base is the
    hypothesis's score with the distortion term, local the option's
    weighted phrase-local score, and lmc the LM weight times the sum of the
    ceilings of its target words (`NGramModel.word_ceilings`), added in the
    order `LmStates.advance` adds their scores. Its real total is
    (((base + local) + lm) + reordering) + future. When the LM and
    reordering weights are not negative, no back-off weight is positive and
    no orientation log is above 0, lm is at most lmc and the reordering term
    is at most 0. Rounded addition, and rounded multiplication by a weight
    that is not negative, are monotone, so the optimistic total is never
    below the real one: a candidate it drops would fail the floor test on
    its real total too. Otherwise (a negative or non-finite LM or
    reordering weight, a positive back-off weight, an orientation
    probability above 1) every ceiling is +inf and nothing is dropped
    before the LM query. Completions have no floor and no such check.

    A span's options are visited best first by their estimate, the
    context-free score the future costs take (the option's local score plus
    its LM score without context), in a stable sort: equal estimates keep
    table order, and a span with a NaN estimate, which orders nothing, keeps
    table order whole. The order is the same with and without ceilings.
    Each option also holds the largest local and the largest lmc over
    itself and the options after it (+inf when one is NaN, `_top`). When an
    option fails the optimistic test, ((base + rest local) + rest lmc) +
    future bounds the optimistic total of every option after it, by the
    same monotonicity; when it is below the floor too, which only rises,
    the rest of the span is skipped. The bound of the first option,
    ((base + largest local) + largest lmc) + future, skips a span whole.
    The two maxima are taken apart because a pre-summed local + lmc can
    round above the real sum.

    So the search tries every candidate the search without these checks
    keeps, and only their order within a span changed. That order decides
    nothing but exact ties, which are broken as table order breaks them:
    on an equal score a stack keeps the entry from the earlier survivor,
    and between two options of one survivor the lower option index (table
    order) wins; the best derivation of a completed output likewise. Two
    spans of one survivor never reach one key, as their new coverages
    differ, and survivors are expanded in the same order. A candidate that
    ties for a key that survives is never dropped: its total is the key's
    final total, which the floor never exceeds. A NaN score, which no
    comparison orders, meets the other candidates of its span in table
    order. The survivors, n-bests and bytes are those of the search
    without the checks.

    LM contexts are states of the models' `LmStates` memo, which every
    decode with them shares, so `NGramModel.score_ids` runs once per
    distinct (context, word) per loaded model; the `translation_features`
    and LM ids of each phrase entry are also computed once per loaded model
    (`PhraseModels.translations`). Everything else is computed per decode
    and dropped when it returns. The weighted phrase-local score, estimate,
    LM ceiling and reordering scores of every option are computed once.
    Each state the search reaches gets a row of (LM delta, next state) per
    distinct option target side, so extending a hypothesis costs one list
    lookup. Future costs are memoized by coverage. An expansion's
    orientation names follow from the previous phrase's span and the new
    span alone, so they are resolved once per (previous span, span). A
    hypothesis holds a back-pointer to its parent and the option it
    applied: output tokens are built only for the hypotheses that survive a
    stack's beam and for completions, the derivation's steps and full
    feature vector only for the returned n-best.
    """
    weights = weights or FeatureWeights()
    config = config or DecodeConfig()
    if not sentence:
        raise DecodeError("cannot decode an empty sentence")
    if models.lm is None or models.phrase_table is None:
        raise DecodeError("phrase decoding needs a phrase table and a language model")

    n = len(sentence)
    lm_states = models.lm_states()
    track_reorder = bool(models.reordering)
    distortion_weight = weights.distortion
    lm_weight = weights.lm
    reordering_weight = weights.reordering
    limit = config.distortion_limit
    beam_width = config.stack_size
    if beam_width is not None and config.nbest > 1:
        beam_width = max(beam_width, 2 * config.nbest)

    ceilings = None
    if 0.0 <= lm_weight < math.inf and 0.0 <= reordering_weight < math.inf:
        ceilings = models.lm_ceilings()

    # per option, indexed across all spans in table order: its step and its
    # reordering log-scores; per span: its index, start, end, coverage mask,
    # width, options best first and their largest local score and LM ceiling.
    # An option of a span is (its index, its step, its weighted phrase-local
    # score, its weighted LM ceiling (+inf without ceilings), the largest of
    # both over it and the options after it, the index of its LM ids among
    # the distinct target sides, its reordering log-scores, its reordering id,
    # its weighted backward score against the sentence end)
    steps: list[Step] = []
    option_logs: list = []
    target_ids: dict[tuple[int, ...], int] = {}
    span_options = []
    estimates: dict[tuple[int, int], list[float]] = {}
    reorder_ids: dict[tuple | None, int] = {}
    for (i, j), span_steps in sorted(_options_with_ids(sentence, models).items()):
        scored = []
        span_estimates = estimates[(i, j)] = []
        for step, ids in span_steps:
            local = sum(weights.get(name) * v for name, v in step.features)
            estimate = local
            estimate += lm_weight * lm_states.advance(lm_states.empty, ids)[0]
            span_estimates.append(estimate)
            lmc = math.inf
            if ceilings is not None:
                ceiling = 0.0
                for wid in ids:  # in the order of `LmStates.advance`
                    ceiling += ceilings[wid]
                lmc = lm_weight * ceiling
            reorder_logs = models.reordering_logs(step.entry_key)
            final = 0.0
            reorder_id = 0
            if track_reorder:
                reorder_id = reorder_ids.setdefault(step.entry_key, len(reorder_ids))
                if reorder_logs is not None:
                    final = reordering_weight * reorder_logs[1][_orientation_name(n, n + 1, i, j)]
            target = target_ids.setdefault(ids, len(target_ids))
            scored.append((len(steps), step, local, lmc, target, reorder_logs, reorder_id, final))
            steps.append(step)
            option_logs.append(reorder_logs)
        # best first by estimate, ties in table order; a NaN estimate, which
        # orders nothing, keeps the whole span in table order
        order = range(len(scored))
        if all(e == e for e in span_estimates):
            order = sorted(order, key=span_estimates.__getitem__, reverse=True)
        ranked = []
        rest_local = rest_lmc = -math.inf
        for k in reversed(order):
            option, step, local, lmc, *rest = scored[k]
            rest_local, rest_lmc = _top([rest_local, local]), _top([rest_lmc, lmc])
            ranked.append((option, step, local, lmc, rest_local, rest_lmc, *rest))
        ranked.reverse()
        span_options.append((
            len(span_options), i, j, ((1 << (j - i)) - 1) << i, j - i, ranked, rest_local, rest_lmc,
        ))
    target_count = len(target_ids)
    ids_of = list(target_ids)

    future = future_cost_table(n, estimates)
    future_cache: dict[int, float] = {}
    # per previous phrase (start, end), the (forward, backward) orientation
    # names of every span after it
    orientation_rows: dict[tuple[int, int], list[tuple[str, str]]] = {}

    # per reached state, its (LM delta, next state) per distinct target side
    rows: dict[int, list] = {}
    advance = lm_states.advance
    end = lm_states.end
    stacks: list[dict[tuple, list]] = [dict() for _ in range(n + 1)]
    bounded = beam_width is not None
    if bounded:
        floors = [[-math.inf] * beam_width for _ in range(n + 1)]
    else:
        floors = [[-math.inf]] * (n + 1)
    no_floor = [-math.inf]  # a completion is never dropped
    first = [_uncovered_future(0, n, future), 0.0, 0, 0, lm_states.bos, None, None, ()]
    stacks[0][(0, lm_states.bos, 0, None)] = first
    # best (score, hypothesis, last option) per distinct output
    completed: dict[tuple[str, ...], tuple[float, list, int]] = {}
    full_mask = (1 << n) - 1

    # per start, its spans by end: a span that overlaps the coverage is
    # followed by wider ones that do too
    spans_from: list[list[tuple]] = [[] for _ in range(n)]
    for span in span_options:
        spans_from[span[1]].append(span)

    def legal_moves(count: int, coverage: int, last_end: int) -> list[tuple]:
        """Each span a hypothesis with this coverage and last end may take,
        by (start, end): its index, end, options, largest local score and LM
        ceiling, weighted distortion, new coverage, future cost, and the
        stack and floor it goes to (None and no floor for a completion)."""
        moves = []
        lo, hi = 0, n  # the starts within the distortion limit
        if limit is not None:
            lo, hi = max(0, last_end - limit), min(n, last_end + limit + 1)
        for i in range(lo, hi):
            if coverage >> i & 1:
                continue
            distortion = distortion_weight * -float(i - last_end if i >= last_end else last_end - i)
            for index, _, j, mask, width, scored, top_local, top_lmc in spans_from[i]:
                if coverage & mask:
                    break
                new_coverage = coverage | mask
                if new_coverage == full_mask:
                    target_stack, floor, new_future = None, no_floor, 0.0
                else:
                    target_stack, floor = stacks[count + width], floors[count + width]
                    new_future = future_cache.get(new_coverage)
                    if new_future is None:
                        new_future = future_cache[new_coverage] = _uncovered_future(
                            new_coverage, n, future
                        )
                moves.append((
                    index, j, scored, top_local, top_lmc, distortion,
                    new_coverage, new_future, target_stack, floor,
                ))
        return moves

    # per (coverage, end of the last phrase), its legal moves
    moves_of: dict[tuple[int, int], list[tuple]] = {}
    for count in range(n):
        stack = stacks[count]
        if not stack:
            continue
        for hyp in _survivors(stack, beam_width, steps):
            _, score, coverage, last_end, state, _, prev, tokens = hyp
            moves = moves_of.get((coverage, last_end))
            if moves is None:
                moves = moves_of[(coverage, last_end)] = legal_moves(count, coverage, last_end)
            row = rows.get(state)
            if row is None:
                row = rows[state] = [None] * target_count
            prev_start = 0
            prev_logs = None
            if prev is not None:
                prev_start = steps[prev].start
                prev_logs = option_logs[prev]
            if track_reorder:
                # a span fixes both orientations: the new phrase's forward
                # one and the previous phrase's backward one
                orientations = orientation_rows.get((prev_start, last_end))
                if orientations is None:
                    orientations = orientation_rows[(prev_start, last_end)] = [
                        (
                            _orientation_name(prev_start, last_end, span[1], span[2]),
                            _orientation_name(span[1], span[2], prev_start, last_end),
                        )
                        for span in span_options
                    ]
            for (
                index, j, scored, top_local, top_lmc, distortion,
                new_coverage, new_future, target_stack, floor,
            ) in moves:
                base = score + distortion
                if ((base + top_local) + top_lmc) + new_future < floor[0]:
                    continue
                if track_reorder:
                    forward_orient, backward_orient = orientations[index]
                    backward = 0.0 if prev_logs is None else prev_logs[1][backward_orient]
                for (
                    option, step, local, lmc, rest_local, rest_lmc,
                    target, reorder_logs, reorder_id, final,
                ) in scored:
                    inc = base + local
                    if (inc + lmc) + new_future < floor[0]:
                        if ((base + rest_local) + rest_lmc) + new_future < floor[0]:
                            break  # so would every option after this one
                        continue
                    transition = row[target]
                    if transition is None:
                        transition = row[target] = advance(state, ids_of[target])
                    delta, next_state = transition
                    inc += lm_weight * delta
                    if track_reorder:
                        forward = reorder_logs[0][forward_orient] if reorder_logs else 0.0
                        inc += reordering_weight * (forward + backward)
                    if target_stack is None:
                        done = inc + lm_weight * end(next_state)
                        if track_reorder:
                            done += final
                        output = tokens + step.tgt
                        existing = completed.get(output)
                        if (
                            existing is None
                            or done > existing[0]
                            or done == existing[0] and existing[1] is hyp and option < existing[2]
                        ):
                            completed[output] = (done, hyp, option)
                        continue
                    total = inc + new_future
                    if total < floor[0]:
                        continue
                    key = (new_coverage, next_state, j, reorder_id)
                    other = target_stack.get(key)
                    if other is None:
                        if bounded and total > floor[0]:
                            heapreplace(floor, total)
                    elif other[_SCORE] > inc or other[_SCORE] == inc and (
                        other[_PARENT] is not hyp or other[_OPTION] < option
                    ):
                        continue
                    target_stack[key] = [
                        total, inc, new_coverage, j, next_state, hyp, option, None
                    ]

    if not completed:
        if config.distortion_limit == 0:
            raise DecodeError("monotone search failed to complete any hypothesis")
        fallback = DecodeConfig(stack_size=config.stack_size, distortion_limit=0, nbest=config.nbest)
        return decode_phrase(sentence, models, weights, fallback)

    ranked = sorted(completed.items(), key=lambda item: (-item[1][0], item[0]))
    results = []
    for tokens, (score, hyp, option) in ranked[: max(config.nbest, 1)]:
        derivation = _derivation_steps(hyp, option, steps)
        features = derivation_features(derivation, models, n)
        results.append(DecodedHypothesis(tokens, score, features, derivation))
    return results


def derivation_features(
    steps: tuple[Step, ...], models: PhraseModels, n: int
) -> dict[str, float]:
    """Recompute the full feature vector of a derivation from scratch."""
    features: dict[str, float] = {}
    last_start, last_end = 0, 0
    prev: Step | None = None
    distortion = 0.0
    reorder = 0.0
    for step in steps:
        add_features(features, dict(step.features))
        distortion += abs(step.start - last_end)
        if models.reordering:
            reorder += _orientation_log(models, step, 0, last_start, last_end)
            if prev is not None:
                reorder += _orientation_log(models, prev, 1, step.start, step.end)
        last_start, last_end = step.start, step.end
        prev = step
    if models.reordering and prev is not None:
        reorder += _orientation_log(models, prev, 1, n, n + 1)
    features["distortion"] = -distortion
    if models.reordering:
        features["reordering"] = reorder
    features["lm"] = models.lm_states().sentence([w for step in steps for w in step.tgt])
    return features


def score_derivation(
    steps: tuple[Step, ...],
    models: PhraseModels,
    weights: FeatureWeights,
    n: int,
) -> float:
    return weights.dot(derivation_features(steps, models, n))
