"""Bottom-up dependency tree-to-string decoding.

Each node of a projective source tree is decoded with the k best
derivations of its subtree: tree rules whose fragments match the local
structure compose child derivations into target strings; nodes without a
matching rule fall back to a synthesized pass-through rule that copies the
head word and keeps the children in surface order.

Both kinds of rule are composed by one step, `compose`, which builds the
full product of the k-best lists of the rule's variables. One ranking step,
`phrase.rank_best`, keeps each node's k best distinct strings; a lazy k-best
combiner would replace the product.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import attrgetter

from ..deptree import DepSentence, DepToken, is_projective
from ..lm import NGramModel
from ..ruletab import Fragment, TreeRule, Var, _node_label
from .phrase import (
    OOV_FEATURES,
    DecodeError,
    DecodedHypothesis,
    lm_prefix_score,
    rank_best,
    rank_nbest,
    translation_features,
)
from .weights import FeatureWeights, add_features


@dataclass
class TreeModels:
    tree_rules: list[TreeRule]
    lm: NGramModel

    def __post_init__(self):
        self.by_label: dict[str, list[TreeRule]] = {}
        for rule in self.tree_rules:
            self.by_label.setdefault(rule.fragment.label, []).append(rule)


@dataclass
class TreeConfig:
    k_best_per_node: int = 50
    nbest: int = 1


@dataclass
class TreeItem:
    tokens: tuple[str, ...]
    features: dict[str, float]  # without lm
    rules: tuple[TreeRule, ...]


def _match_fragment(
    sent: DepSentence,
    constituents: dict[int, list[DepToken]],
    fragment: Fragment,
    tok_id: int,
) -> dict[int, int] | None:
    """Match a rule fragment at a node; returns variable -> token id."""
    if fragment.label != _node_label(sent, tok_id):
        return None
    here = constituents[tok_id]
    if len(fragment.items) != len(here):
        return None
    binding: dict[int, int] = {}
    for item, constituent in zip(fragment.items, here):
        if isinstance(item, str):
            if constituent.id != tok_id or item != constituent.form:
                return None
        elif constituent.id == tok_id:
            return None
        elif isinstance(item, Var):
            if item.label != _node_label(sent, constituent.id):
                return None
            binding[item.index] = constituent.id
        else:
            sub = _match_fragment(sent, constituents, item, constituent.id)
            if sub is None:
                return None
            binding.update(sub)
    return binding


def decode_tree(
    sent: DepSentence,
    models: TreeModels,
    weights: FeatureWeights | None = None,
    config: TreeConfig | None = None,
) -> list[DecodedHypothesis]:
    weights = weights or FeatureWeights()
    config = config or TreeConfig()
    if not sent.tokens:
        raise DecodeError("cannot decode an empty tree")
    if not is_projective(sent):
        raise DecodeError(
            f"sentence {sent.sent_id or '<unknown>'} is non-projective"
        )

    lm = models.lm
    k = max(config.k_best_per_node, 1)
    constituents = sent.constituents()
    best: dict[int, list[TreeItem]] = {}

    def compose(rule: TreeRule, binding: dict[int, int], base: dict, applied: tuple):
        """Yield an item per combination of the k-best lists of the rule's
        variables, the last varying fastest. `base` holds the rule's own
        features and `applied` its part of the derivation."""
        slots = [t.index for t in rule.target if isinstance(t, Var)]
        for combo in product(*(decode_node(binding[index]) for index in slots)):
            subs = dict(zip(slots, combo))
            tokens: list[str] = []
            features = dict(base)
            rules = applied
            for t in rule.target:
                if isinstance(t, Var):
                    sub = subs[t.index]
                    tokens.extend(sub.tokens)
                    add_features(features, sub.features)
                    rules = rules + sub.rules
                else:
                    tokens.append(t)
            yield TreeItem(tuple(tokens), features, rules)

    def decode_node(tok_id: int) -> list[TreeItem]:
        if tok_id in best:
            return best[tok_id]
        label = _node_label(sent, tok_id)
        candidates: list[TreeItem] = []
        for rule in models.by_label.get(label, []):
            binding = _match_fragment(sent, constituents, rule.fragment, tok_id)
            if binding is not None:
                base = translation_features(rule.scores, rule.target)
                candidates += compose(rule, binding, base, (rule,))
        if not candidates:
            # pass-through: a synthesized rule, not part of the derivation,
            # that copies the head word among its children, each a variable
            # named by its token id
            items = tuple(
                t.form if t.id == tok_id else Var(t.id, _node_label(sent, t.id))
                for t in constituents[tok_id]
            )
            binding = {t.id: t.id for t in constituents[tok_id]}
            candidates += compose(TreeRule(Fragment(label, items), items), binding, OOV_FEATURES, ())
        best[tok_id] = rank_best(
            candidates,
            attrgetter("tokens"),
            lambda it: weights.dot(it.features) + weights.lm * lm_prefix_score(lm, it.tokens),
            k,
        )
        return best[tok_id]

    root_items = decode_node(sent.root().id)
    return rank_nbest(root_items, lm, weights, config.nbest)
