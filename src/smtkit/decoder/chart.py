"""CKY-style chart decoding over a hierarchical rule table with glue rules,
and the scored derivation item that the chart and tree decoders share.

An `Item` is LM-integrated (Huang & Chiang 2007, "Forest Rescoring"): it
carries its score, the LM score of its words without boundaries, the part of
it that its first order-1 words contribute, and the `lm.LmStates` state its
words reach. `ItemFactory.compose` builds an item from a rule's target side
and the items that fill its variables, rescoring only the junction words
from the end state each sub-item carries, so an item costs O(LM order) LM
queries per sub-item to combine. Each rule's own features are computed once,
when the models are built.

Before the cell loop the rules are filtered per sentence (Lopez 2007,
"Hierarchical Phrase-Based Translation with Suffix Arrays"): only those
whose source terminals occur in the sentence in order can match a cell. An
index on each rule's first source terminal finds those without a scan of
all of them. A cell tries the kept rules that start with its first word and
the kept NT-initial rules, each group in table order.

Chart items are keyed per cell by (lhs, boundary words); each cell keeps a
beam. A rule is composed with every combination of the best sub-items of its
gaps (one `itertools.product`, which cube pruning would replace), and one
ranking step, `phrase.rank_best`, recombines each cell and cuts it to the
beam. Glue derivations are left-anchored: S covers a prefix and grows
monotonically to the right. Sentences that fail to parse fall back to
glue-concatenating the best per-word lexical rules, which cannot fail thanks
to verbatim pass-through for uncovered words.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product
from operator import attrgetter

from ..gcpause import paused_gc
from ..lm import LmMemo, LmStates, NGramModel
from ..ruletab import NT, RuleEntry
from .phrase import (
    OOV_FEATURES,
    DecodeError,
    DecodedHypothesis,
    rank_best,
    rank_nbest,
    translation_features,
)
from .weights import FeatureWeights, add_features


@dataclass
class ChartModels(LmMemo):
    rule_table: list[RuleEntry]
    lm: NGramModel

    def __post_init__(self):
        # (table position, rule, its translation features) of each rule but
        # the glue ones, by the rule's first source terminal (None: it has
        # none), so a sentence looks up only the rules its words can start
        self.by_first_terminal: dict[str | None, list[tuple[int, RuleEntry, dict[str, float]]]] = {}
        has_glue = False
        for position, rule in enumerate(self.rule_table):
            if rule.lhs == "S":
                has_glue = True
                continue  # glue applications are built in, not matched
            first = next((s for s in rule.src_rhs if not isinstance(s, NT)), None)
            self.by_first_terminal.setdefault(first, []).append(
                (position, rule, translation_features(rule.scores, rule.tgt_rhs))
            )
        if not has_glue:
            raise DecodeError("rule table is missing the glue rules")

    def candidates(self, sentence: list[str]) -> list[list[tuple[RuleEntry, dict[str, float]]]]:
        """Per start position of `sentence`, the rules whose source terminals
        occur in `sentence` in order (the only ones that can match any of its
        spans): those that start with the word there, then the NT-initial
        ones, each group in table order."""
        kept = sorted(
            entry
            for first in {None, *sentence}
            for entry in self.by_first_terminal.get(first, ())
            if _terminals_in(entry[1], sentence)
        )
        starting: dict[str, list[tuple[RuleEntry, dict[str, float]]]] = {word: [] for word in sentence}
        nt_initial = []
        for _, rule, features in kept:
            first = rule.src_rhs[0]
            (nt_initial if isinstance(first, NT) else starting[first]).append((rule, features))
        return [starting[word] + nt_initial for word in sentence]


def _terminals_in(rule: RuleEntry, sentence: list[str]) -> bool:
    """Whether the rule's source terminals occur in `sentence` in order, as
    they must for the rule to match any span of it."""
    words = iter(sentence)  # each `in` resumes after the last match
    return all(s in words for s in rule.src_rhs if not isinstance(s, NT))


@dataclass
class ChartConfig:
    cell_beam: int = 100
    nbest: int = 1


@dataclass
class Item:
    lhs: str  # the chart's nonterminal, or the tree node's label
    tokens: tuple[str, ...]
    features: dict[str, float]  # without lm
    rules: tuple  # the applied rules, in derivation order
    prefix_lm: float = 0.0  # boundary-free log10 LM score of tokens
    head_lm: float = 0.0  # portion contributed by the first order-1 words
    score: float = 0.0  # weights.dot(features) + lm weight * prefix_lm
    state: int = 0  # the LmStates state that tokens reach from the empty one


class ItemFactory:
    """Builds scored items, rescoring only junction words on composition."""

    def __init__(self, lm_states: LmStates, weights: FeatureWeights):
        self.lm_states = lm_states
        self.weights = weights

    def compose(
        self, lhs: str, target: tuple, base_features: dict, applied_rules: tuple, subs: dict
    ) -> Item:
        """The item of `target`, whose `str` symbols are words and whose
        variables (`NT` or `Var`) stand for `subs[variable.index]`.
        `base_features` are the applied rule's own features and
        `applied_rules` its part of the derivation."""
        parts = [s if isinstance(s, str) else subs[s.index] for s in target]
        features = dict(base_features)
        rules = applied_rules
        for sub in parts:
            if not isinstance(sub, str):
                add_features(features, sub.features)
                rules += sub.rules
        return self._build(lhs, parts, features, rules)

    def _build(self, lhs: str, parts: list, features: dict[str, float], rules: tuple) -> Item:
        word = self.lm_states.word
        id_of = self.lm_states.lm.vocab.id_of
        cut = self.lm_states.cut
        tokens: tuple[str, ...] = ()
        state = self.lm_states.empty
        total = 0.0
        head = 0.0
        for part in parts:
            if isinstance(part, str):
                delta, state = word(state, id_of(part))
                if len(tokens) < cut:
                    head += delta
                total += delta
                tokens += (part,)
            else:
                rescored = 0.0
                for position, token in enumerate(part.tokens[:cut], len(tokens)):
                    delta, state = word(state, id_of(token))
                    if position < cut:
                        head += delta
                    rescored += delta
                total += part.prefix_lm - part.head_lm + rescored
                if len(part.tokens) >= cut:
                    state = part.state
                tokens += part.tokens
        score = self.weights.dot(features) + self.weights.lm * total
        return Item(lhs, tokens, features, rules, total, head, score, state)

    def glue_join(self, left: Item, right: Item) -> Item:
        features = dict(left.features)
        add_features(features, right.features)
        features["glue"] = features.get("glue", 0.0) - 1.0
        return self._build("S", [left, right], features, left.rules + right.rules)

    def oov(self, word: str) -> Item:
        return self.compose("X", (word,), OOV_FEATURES, (), {})

    def as_glue(self, item: Item) -> Item:
        features = dict(item.features)
        features["glue"] = features.get("glue", 0.0) - 1.0
        score = item.score + self.weights.glue * -1.0
        return replace(item, lhs="S", features=features, score=score)


def _match_positions(
    pattern: tuple, sentence: list[str], i: int, j: int, p: int = 0, spans: tuple = ()
):
    """Yield NT span assignments matching pattern to sentence[i:j]; inside,
    those of pattern[p:] after `spans`, the assignment of pattern[:p]. (A
    recursive closure would make a reference cycle per call, which the
    paused collector would not free.)"""
    if p == len(pattern):
        if i == j:
            yield spans
        return
    symbol = pattern[p]
    if isinstance(symbol, NT):
        remaining = len(pattern) - p - 1
        for end in range(i + 1, j - remaining + 1):
            yield from _match_positions(pattern, sentence, end, j, p + 1, spans + ((i, end),))
    elif i < j and sentence[i] == symbol:
        yield from _match_positions(pattern, sentence, i + 1, j, p + 1, spans)


@paused_gc()
def decode_chart(
    sentence: list[str],
    models: ChartModels,
    weights: FeatureWeights | None = None,
    config: ChartConfig | None = None,
) -> list[DecodedHypothesis]:
    weights = weights or FeatureWeights()
    config = config or ChartConfig()
    if not sentence:
        raise DecodeError("cannot decode an empty sentence")
    n = len(sentence)
    lm_states = models.lm_states()
    factory = ItemFactory(lm_states, weights)
    cut = lm_states.cut

    def boundary(item: Item) -> tuple:  # items that share it recombine
        return (item.lhs, item.tokens[:cut], item.tokens[-cut:] if cut else ())

    starting_at = models.candidates(sentence)
    cells: dict[tuple[int, int], dict[str, list[Item]]] = {}
    glue: dict[int, list[Item]] = {}  # S items over [0, j)
    # sub-items tried per nonterminal when composing; keeps two-gap rules
    # from multiplying whole cell beams together
    compose_beam = max(int(config.cell_beam ** 0.5), 1)

    for width in range(1, n + 1):
        for i in range(0, n - width + 1):
            j = i + width
            found: list[Item] = []
            for rule, features in starting_at[i]:
                if len(rule.src_rhs) > width:
                    continue
                nts = [s for s in rule.src_rhs if isinstance(s, NT)]
                for spans in _match_positions(rule.src_rhs, sentence, i, j):
                    sub_lists = [
                        cells.get(span, {}).get(nt.label, [])[:compose_beam]
                        for nt, span in zip(nts, spans)
                    ]
                    for combo in product(*sub_lists):
                        subs = {nt.index: sub for nt, sub in zip(nts, combo)}
                        found.append(factory.compose(rule.lhs, rule.tgt_rhs, features, (rule,), subs))
            if width == 1 and not any(item.lhs == "X" for item in found):
                found.append(factory.oov(sentence[i]))
            if found:
                pruned = rank_best(found, boundary, attrgetter("score"), config.cell_beam)
                by_label: dict[str, list[Item]] = {}
                for item in pruned:
                    by_label.setdefault(item.lhs, []).append(item)
                cells[(i, j)] = by_label

    # left-anchored glue pass: S(0,j) = X(0,j) | S(0,k) + X(k,j)
    for j in range(1, n + 1):
        candidates = [factory.as_glue(item) for item in cells.get((0, j), {}).get("X", [])]
        for k in range(1, j):
            pairs = product(glue.get(k, []), cells.get((k, j), {}).get("X", []))
            candidates += [factory.glue_join(left, right) for left, right in pairs]
        if candidates:
            glue[j] = rank_best(candidates, boundary, attrgetter("score"), config.cell_beam)

    finals = glue.get(n) or [_fallback(sentence, models, factory)]
    return rank_nbest(finals, lm_states, weights, config.nbest)


def _fallback(sentence: list[str], models: ChartModels, factory: ItemFactory) -> Item:
    """Monotone concatenation of the best purely lexical rule per word."""
    item = None
    for word in sentence:
        best: Item | None = None
        for _, rule, features in models.by_first_terminal.get(word, []):
            if rule.src_rhs == (word,) and not any(isinstance(s, NT) for s in rule.tgt_rhs):
                candidate = factory.compose(rule.lhs, rule.tgt_rhs, features, (rule,), {})
                if best is None or candidate.score > best.score:
                    best = candidate
        if best is None:
            best = factory.oov(word)
        best = factory.as_glue(best)
        item = best if item is None else factory.glue_join(item, best)
    assert item is not None
    return item
