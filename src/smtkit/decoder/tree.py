"""Bottom-up dependency tree-to-string decoding.

Each node of a projective source tree is decoded with the k best
derivations of its subtree: tree rules whose fragments match the local
structure compose child derivations into target strings; nodes without a
matching rule fall back to a synthesized pass-through rule that copies the
head word and keeps the children in surface order.

Nodes are decoded bottom-up without recursion, only those that a rule
variable or the pass-through reaches. Both kinds of rule are composed by one
step, `compose`, which builds the full product of the k-best lists of the
rule's variables. One ranking step, `phrase.rank_best`, keeps each node's k
best distinct strings by their LM score from the models' shared
`lm.LmStates` memo; a lazy k-best combiner would replace the product.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import attrgetter

from ..deptree import DepSentence, DepToken, is_projective
from ..gcpause import paused_gc
from ..lm import LmMemo, NGramModel
from ..ruletab import Fragment, TreeRule, Var, _node_label
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
class TreeModels(LmMemo):
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


@paused_gc()
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
        raise DecodeError(f"sentence {sent.sent_id or '<unknown>'} is non-projective")

    lm_states = models.lm_states()
    empty, id_of = lm_states.empty, models.lm.vocab.id_of
    k = max(config.k_best_per_node, 1)
    constituents = sent.constituents()
    root = sent.root().id

    # breadth first, so top-down: at each node that a rule variable or the
    # pass-through reaches from the root, what to compose (target side, its
    # own features, its part of the derivation, the node of each variable)
    order = [root]
    plans: dict[int, list[tuple]] = {root: []}
    for tok_id in order:
        order += [t.id for t in constituents[tok_id] if t.id != tok_id]
        plan = plans.get(tok_id)
        if plan is None:
            continue
        for rule in models.by_label.get(_node_label(sent, tok_id), []):
            binding = _match_fragment(sent, constituents, rule.fragment, tok_id)
            if binding is not None:
                features = translation_features(rule.scores, rule.target)
                nodes = [binding[t.index] for t in rule.target if isinstance(t, Var)]
                plan.append((rule.target, features, (rule,), nodes))
        if not plan:
            # pass-through, not part of the derivation: the head word among
            # its children, each a variable
            here = constituents[tok_id]
            target = tuple(t.form if t.id == tok_id else Var(t.id, "") for t in here)
            plan.append((target, OOV_FEATURES, (), [t.id for t in here if t.id != tok_id]))
        for *_, nodes in plan:
            for node in nodes:
                plans.setdefault(node, [])

    best: dict[int, list[TreeItem]] = {}

    def compose(target: tuple, base: dict, applied: tuple, nodes: list[int]):
        """Yield an item per combination of the k-best lists of `nodes`, the
        last varying fastest. `base` holds the rule's own features and
        `applied` its part of the derivation."""
        for combo in product(*(best[node] for node in nodes)):
            subs = iter(combo)
            tokens: list[str] = []
            features = dict(base)
            rules = applied
            for t in target:
                if isinstance(t, Var):
                    sub = next(subs)
                    tokens.extend(sub.tokens)
                    add_features(features, sub.features)
                    rules = rules + sub.rules
                else:
                    tokens.append(t)
            yield TreeItem(tuple(tokens), features, rules)

    # bottom-up, the k best distinct strings of each reached node
    for tok_id in reversed(order):
        if tok_id in plans:
            best[tok_id] = rank_best(
                [item for entry in plans[tok_id] for item in compose(*entry)],
                attrgetter("tokens"),
                lambda it: weights.dot(it.features)
                + weights.lm * lm_states.advance(empty, tuple(map(id_of, it.tokens)))[0],
                k,
            )
    return rank_nbest(best[root], lm_states, weights, config.nbest)
