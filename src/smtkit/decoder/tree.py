"""Bottom-up dependency tree-to-string decoding.

Each node of a projective source tree is decoded with the k best
derivations of its subtree: tree rules whose fragments match the local
structure compose child derivations into target strings; nodes without a
matching rule fall back to a synthesized pass-through rule that copies the
head word and keeps the children in surface order.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..deptree import DepSentence, is_projective
from ..lm import NGramModel
from ..ruletab import Fragment, TreeRule, Var, _node_label
from .phrase import (
    OOV_FEATURES,
    DecodeError,
    DecodedHypothesis,
    lm_prefix_score,
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
    sent: DepSentence, fragment: Fragment, tok_id: int
) -> dict[int, int] | None:
    """Match a rule fragment at a node; returns variable -> token id."""
    if fragment.label != _node_label(sent, tok_id):
        return None
    tok = sent.tokens[tok_id - 1]
    constituents = sorted(sent.children(tok_id) + [tok], key=lambda t: t.id)
    if len(fragment.items) != len(constituents):
        return None
    binding: dict[int, int] = {}
    for item, constituent in zip(fragment.items, constituents):
        if isinstance(item, Var):
            if constituent.id == tok_id:
                return None
            if item.label != _node_label(sent, constituent.id):
                return None
            binding[item.index] = constituent.id
        elif isinstance(item, Fragment):
            if constituent.id == tok_id:
                return None
            sub = _match_fragment(sent, item, constituent.id)
            if sub is None:
                return None
            binding.update(sub)
        else:
            if constituent.id != tok_id or item != tok.form:
                return None
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
    best: dict[int, list[TreeItem]] = {}

    def rank(items: list[TreeItem]) -> list[TreeItem]:
        scored: dict[tuple[str, ...], tuple[float, TreeItem]] = {}
        for item in items:
            score = weights.dot(item.features) + weights.lm * lm_prefix_score(lm, item.tokens)
            other = scored.get(item.tokens)
            if other is None or score > other[0]:
                scored[item.tokens] = (score, item)
        ordered = sorted(scored.items(), key=lambda kv: (-kv[1][0], kv[0]))
        return [item for _, (_, item) in ordered][:k]

    def decode_node(tok_id: int) -> list[TreeItem]:
        cached = best.get(tok_id)
        if cached is not None:
            return cached
        candidates: list[TreeItem] = []
        for rule in models.by_label.get(_node_label(sent, tok_id), []):
            binding = _match_fragment(sent, rule.fragment, tok_id)
            if binding is None:
                continue
            slots = [t.index for t in rule.target if isinstance(t, Var)]
            combos: list[dict[int, TreeItem]] = [{}]
            for index in slots:
                sub_items = decode_node(binding[index])
                combos = [
                    {**combo, index: item} for combo in combos for item in sub_items
                ]
            for combo in combos:
                tokens: list[str] = []
                features = translation_features(rule.scores, rule.target)
                rules: tuple[TreeRule, ...] = (rule,)
                for t in rule.target:
                    if isinstance(t, Var):
                        tokens.extend(combo[t.index].tokens)
                        add_features(features, combo[t.index].features)
                        rules = rules + combo[t.index].rules
                    else:
                        tokens.append(t)
                candidates.append(TreeItem(tuple(tokens), features, rules))
        if not candidates:
            # pass-through: children in surface order around the copied head
            tok = sent.tokens[tok_id - 1]
            constituents = sorted(sent.children(tok_id) + [tok], key=lambda t: t.id)
            combos: list[tuple[tuple[str, ...], dict[str, float], tuple]] = [((), dict(OOV_FEATURES), ())]
            for c in constituents:
                if c.id == tok_id:
                    combos = [(t + (tok.form,), f, r) for t, f, r in combos]
                else:
                    new_combos = []
                    for t, f, r in combos:
                        for item in decode_node(c.id):
                            merged = dict(f)
                            add_features(merged, item.features)
                            new_combos.append((t + item.tokens, merged, r + item.rules))
                    combos = new_combos
            candidates = [TreeItem(t, f, r) for t, f, r in combos]
        ranked = rank(candidates)
        best[tok_id] = ranked
        return ranked

    root_items = decode_node(sent.root().id)
    return rank_nbest(root_items, lm, weights, config.nbest)
