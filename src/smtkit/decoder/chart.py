"""CKY-style chart decoding over a hierarchical rule table with glue rules,
and the forest-node fill and scored derivation item that the chart and tree
decoders share.

Both decoders build the hypergraph of Huang & Chiang 2007 ("Forest
Rescoring"). A node's incoming edges each name a builder, its fixed
arguments and the item lists of its tails, and `fill` turns them into the
node's ranked items: one item per combination of one item from each tail
(one `itertools.product`, which cube pruning would replace), then one
ranking step, `phrase.rank_best`, that recombines and cuts to the beam.

An `Item` is LM-integrated: it carries its score, the LM score of its words
without boundaries, the part of it that its first order-1 words contribute,
and the `lm.LmStates` state its words reach. `ItemFactory.compose` builds an
item from a rule's target side and the items that fill its variables,
rescoring only the junction words from the end state each sub-item carries,
so an item costs O(LM order) LM queries per sub-item to combine. Each rule's
own features are computed once, when the models are built.

Before the cell loop the rules are filtered per sentence (Lopez 2007,
"Hierarchical Phrase-Based Translation with Suffix Arrays"): only those
whose source terminals occur in the sentence in order can match a cell. An
index on each rule's first source terminal finds those without a scan of
all of them. A cell tries the kept rules that start with its first word and
the kept NT-initial rules, each group in table order.

The table holds X rules with X gaps and the two glue rules, so each chart
cell is one node: its edges are the rule matches over its span, and its
items are keyed by their boundary words. A width-1 cell that builds no item
holds its word passed through verbatim. Glue derivations are left-anchored:
the node S(0, j) takes X(0, j) as it is and joins every S(0, k) to X(k, j),
so every sentence has a derivation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product
from operator import attrgetter

from ..corpus import UNK_ID
from ..gcpause import paused_gc
from ..lm import LmMemo, LmStates, NGramModel
from ..ruletab import NT, RuleEntry, format_rule, glue_rules
from .phrase import (
    OOV_FEATURES,
    DecodeError,
    DecodedHypothesis,
    rank_best,
    rank_nbest,
    translation_features,
)
from .weights import FeatureWeights, add_features

GLUE_KEYS = {rule.key() for rule in glue_rules()}


@dataclass
class ChartModels(LmMemo):
    rule_table: list[RuleEntry]
    lm: NGramModel

    def __post_init__(self):
        # (table position, rule, its edges' fixed `compose` arguments) of
        # each rule but the glue ones, by the rule's first source terminal
        # (None: it has none), so a sentence looks up only the rules its
        # words can start
        self.by_first_terminal: dict[str | None, list[tuple[int, RuleEntry, tuple]]] = {}
        has_glue = False
        for position, rule in enumerate(self.rule_table):
            if rule.key() in GLUE_KEYS:
                has_glue = True
                continue  # glue applications are built in, not matched
            if rule.lhs != "X" or any(
                isinstance(s, NT) and s.label != "X" for s in rule.src_rhs + rule.tgt_rhs
            ):
                raise DecodeError(
                    "only X rules with X gaps and the glue rules can be decoded: "
                    f"{format_rule(rule)!r}"
                )
            # the target with each gap as the position of its tail, in source order
            gaps = [s.index for s in rule.src_rhs if isinstance(s, NT)]
            target = tuple(s if isinstance(s, str) else gaps.index(s.index) for s in rule.tgt_rhs)
            first = next((s for s in rule.src_rhs if not isinstance(s, NT)), None)
            self.by_first_terminal.setdefault(first, []).append(
                (position, rule, (target, translation_features(rule.scores, rule.tgt_rhs), (rule,)))
            )
        if not has_glue:
            raise DecodeError("rule table is missing the glue rules")

    def candidates(self, sentence: list[str]) -> list[list[tuple[RuleEntry, tuple]]]:
        """Per start position of `sentence`, the rules whose source terminals
        occur in `sentence` in order (the only ones that can match any of its
        spans), each with its edges' fixed `compose` arguments: those that
        start with the word there, then the NT-initial ones, each group in
        table order."""
        kept = sorted(
            entry
            for first in {None, *sentence}
            for entry in self.by_first_terminal.get(first, ())
            if _terminals_in(entry[1], sentence)
        )
        starting: dict[str, list[tuple[RuleEntry, tuple]]] = {word: [] for word in sentence}
        nt_initial = []
        for _, rule, args in kept:
            first = rule.src_rhs[0]
            (nt_initial if isinstance(first, NT) else starting[first]).append((rule, args))
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


@dataclass(slots=True)
class Item:
    tokens: tuple[str, ...]
    features: dict[str, float]  # without lm
    rules: tuple  # the applied rules, in derivation order
    prefix_lm: float = 0.0  # boundary-free log10 LM score of tokens
    head_lm: float = 0.0  # portion contributed by the first order-1 words
    score: float = 0.0  # weights.dot(features) + lm weight * prefix_lm
    state: int = 0  # the LmStates state that tokens reach from the empty one


def fill(edges, key, beam: int) -> list[Item]:
    """A forest node's items: for each incoming edge `(build, args, tails)`,
    `build(*args, *subs)` for every combination `subs` of one item from each
    of its tails' item lists, the last tail varying fastest; then the best
    item per `key(item)`, sorted by score and cut to `beam` (at least 1)."""
    items = [build(*args, *subs) for build, args, tails in edges for subs in product(*tails)]
    return rank_best(items, key, attrgetter("score"), max(beam, 1))


class ItemFactory:
    """Builds scored items, rescoring only junction words on composition."""

    def __init__(self, lm_states: LmStates, weights: FeatureWeights):
        self.lm_states = lm_states
        self.weights = weights
        # `Vocabulary.id_of` as one lookup in the vocabulary's dict
        self.word_id = lm_states.lm.vocab._str_to_id.get

    def compose(
        self, target: tuple, base_features: dict, applied_rules: tuple, *subs: Item
    ) -> Item:
        """The item of `target`, whose `str` symbols are words and whose
        other symbols are positions in `subs`, the items that fill its
        variables. `base_features` are the applied rule's own features and
        `applied_rules` its part of the derivation."""
        parts = [s if isinstance(s, str) else subs[s] for s in target]
        features = dict(base_features)
        rules = applied_rules
        get = features.get
        for sub in parts:
            if not isinstance(sub, str):
                for name, value in sub.features.items():  # `add_features` without a call
                    features[name] = get(name, 0.0) + value
                rules += sub.rules
        return self._build(parts, features, rules)

    def _build(self, parts: list, features: dict[str, float], rules: tuple) -> Item:
        lm_states = self.lm_states
        transitions = lm_states.transitions
        word = lm_states.word
        word_id = self.word_id
        cut = lm_states.cut
        tokens: tuple[str, ...] = ()
        state = lm_states.empty
        total = 0.0
        head = 0.0
        for part in parts:
            if isinstance(part, str):
                wid = word_id(part, UNK_ID)
                delta, state = transitions.get((state, wid)) or word(state, wid)
                if len(tokens) < cut:
                    head += delta
                total += delta
                tokens += (part,)
            else:
                rescored = 0.0
                for position, token in enumerate(part.tokens[:cut], len(tokens)):
                    wid = word_id(token, UNK_ID)
                    delta, state = transitions.get((state, wid)) or word(state, wid)
                    if position < cut:
                        head += delta
                    rescored += delta
                total += part.prefix_lm - part.head_lm + rescored
                if len(part.tokens) >= cut:
                    state = part.state
                tokens += part.tokens
        score = self.weights.dot(features) + self.weights.lm * total
        return Item(tokens, features, rules, total, head, score, state)

    def glue_join(self, left: Item, right: Item) -> Item:
        features = dict(left.features)
        add_features(features, right.features)
        features["glue"] = features.get("glue", 0.0) - 1.0
        return self._build([left, right], features, left.rules + right.rules)

    def as_glue(self, item: Item) -> Item:
        features = dict(item.features)
        features["glue"] = features.get("glue", 0.0) - 1.0
        return replace(item, features=features, score=item.score + self.weights.glue * -1.0)


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
    compose = factory.compose
    cut = lm_states.cut
    beam = config.cell_beam
    # sub-items tried per gap when composing; keeps two-gap rules from
    # multiplying whole cell beams together
    compose_beam = int(max(beam, 1) ** 0.5)

    def boundary(item: Item) -> tuple:  # items that share it recombine
        return (item.tokens[:cut], item.tokens[-cut:] if cut else ())

    starting_at = models.candidates(sentence)
    cells: dict[tuple[int, int], list[Item]] = {}  # X items per span
    for width in range(1, n + 1):
        for i in range(0, n - width + 1):
            j = i + width
            # a unary rule's tail is this cell, not yet filled: it builds nothing
            edges = [
                (compose, args, [cells.get(span, [])[:compose_beam] for span in spans])
                for rule, args in starting_at[i]
                if len(rule.src_rhs) <= width
                for spans in _match_positions(rule.src_rhs, sentence, i, j)
            ]
            items = fill(edges, boundary, beam)
            if width == 1 and not items:
                items = [compose((sentence[i],), OOV_FEATURES, ())]
            cells[(i, j)] = items

    glue: list[list[Item]] = [[]]  # S items over [0, j)
    for j in range(1, n + 1):
        edges = [(factory.as_glue, (), [cells[(0, j)]])]
        edges += [(factory.glue_join, (), [glue[k], cells[(k, j)]]) for k in range(1, j)]
        glue.append(fill(edges, boundary, beam))
    return rank_nbest(glue[n], lm_states, weights, config.nbest)
