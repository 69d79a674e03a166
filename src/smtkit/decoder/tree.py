"""Bottom-up dependency tree-to-string decoding.

Each node of a projective source tree is decoded with the k best
derivations of its subtree: tree rules whose fragments match the local
structure compose child derivations into target strings; nodes without a
matching rule fall back to a synthesized pass-through rule that copies the
head word and keeps the children in surface order.

The tree's walk, projectivity and node labels come from `deptree`, as in
rule extraction. A fragment matches only at a node whose form is its one
top-level word, so `TreeModels` indexes the rules by (fragment label, head
word), and a node tries only the rules under its own label and form, in
table order.

The tree is the chart decoder's hypergraph with one node per reached tree
node. A top-down pass finds the nodes that a rule variable or the
pass-through reaches from the root, and each node's incoming edges: a
matching rule, or the pass-through, with the nodes of its variables as
tails. A bottom-up pass then fills each node with `chart.fill`, building
the chart decoder's items (`chart.Item`) with `chart.ItemFactory.compose`
and keeping the k best distinct strings by item score.

A leaf, a reached node without children, is a hypergraph node whose items
depend on nothing outside it (Huang & Chiang 2007): only on its label and
form, the rules, the LM memo whose state ids the items hold, the weights and
k. So `TreeModels` keeps each leaf's items by (label, form), and a decode
takes a cached leaf's items as they are, without matching rules or filling
it. The cache is built on first use and begins anew whenever the LM memo
(`LmMemo.lm_states`), a weight's value or k differs from the decode that
filled it. Nothing larger than a leaf is cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

from ..deptree import DepSentence, DepToken, node_label, tree_walk, yields_contiguous
from ..gcpause import paused_gc
from ..lm import LmMemo, LmStates, NGramModel
from ..ruletab import Fragment, TreeRule, Var
from .chart import Item, ItemFactory, fill
from .phrase import OOV_FEATURES, DecodeError, DecodedHypothesis, rank_nbest, translation_features
from .weights import FeatureWeights


@dataclass
class TreeModels(LmMemo):
    tree_rules: list[TreeRule]
    lm: NGramModel

    def __post_init__(self):
        # (rule, its edges' fixed `compose` arguments, its target's
        # variables in order) per (fragment label, head word), in table
        # order. A fragment matches only at a node whose form is its one
        # top-level word, so a fragment with no such word or with two is left
        # out: it can never match.
        self.by_head: dict[tuple[str, str], list[tuple[TreeRule, tuple, list[int]]]] = {}
        for rule in self.tree_rules:
            words = [item for item in rule.fragment.items if isinstance(item, str)]
            if len(words) == 1:
                variables = [t.index for t in rule.target if isinstance(t, Var)]
                slots = [t if isinstance(t, str) else variables.index(t.index) for t in rule.target]
                args = (tuple(slots), translation_features(rule.scores, rule.target), (rule,))
                key = (rule.fragment.label, words[0])
                self.by_head.setdefault(key, []).append((rule, args, variables))
        self._leaves: tuple[LmStates, dict[str, float], int, dict] | None = None

    def leaf_items(
        self, lm_states: LmStates, weights: FeatureWeights, k: int
    ) -> dict[tuple[str, str], list[Item]]:
        """The leaf cache: the items of each leaf decoded with this memo,
        these weight values and this k, by (node label, form), read only,
        since every decode shares them. Begins anew when any of the three
        differs from the last decode's, so it is dropped with the memo whose
        states its items hold."""
        leaves = self._leaves
        values = vars(weights)
        if leaves is None or leaves[0] is not lm_states or leaves[1] != values or leaves[2] != k:
            leaves = self._leaves = (lm_states, dict(values), k, {})
        return leaves[3]


@dataclass
class TreeConfig:
    k_best_per_node: int = 50
    nbest: int = 1


def _match_fragment(
    tokens: list[DepToken],
    labels: list[str],
    constituents: list[list[int]],
    fragment: Fragment,
    tok_id: int,
) -> dict[int, int] | None:
    """Match a rule fragment at a node, given each token's label and its
    constituents (itself and its children, in surface order); returns
    variable -> token id."""
    if fragment.label != labels[tok_id]:
        return None
    here = constituents[tok_id]
    if len(fragment.items) != len(here):
        return None
    binding: dict[int, int] = {}
    for item, constituent in zip(fragment.items, here):
        if isinstance(item, str):
            if constituent != tok_id or item != tokens[tok_id - 1].form:
                return None
        elif constituent == tok_id:
            return None
        elif isinstance(item, Var):
            if item.label != labels[constituent]:
                return None
            binding[item.index] = constituent
        else:
            sub = _match_fragment(tokens, labels, constituents, item, constituent)
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
    walk = tree_walk(sent)
    if walk is None or not yields_contiguous(sent, walk[1]):
        raise DecodeError(f"sentence {sent.sent_id or '<unknown>'} is non-projective")

    lm_states = models.lm_states()
    factory = ItemFactory(lm_states, weights)
    leaves = models.leaf_items(lm_states, weights, config.k_best_per_node)
    children, order = walk
    tokens = sent.tokens
    constituents = [sorted(below + [tok_id]) for tok_id, below in enumerate(children)]
    labels = [""] + [node_label(tok) for tok in tokens]
    root = order[0]

    # top-down: the incoming edges of each node that a rule variable or the
    # pass-through reaches from the root, as (fixed `compose` arguments,
    # the node of each target variable); a cached leaf has its items instead
    plans: dict[int, list[tuple]] = {root: []}
    best: dict[int, list[Item]] = {}
    for tok_id in order:
        plan = plans.get(tok_id)
        if plan is None:
            continue
        head = (labels[tok_id], tokens[tok_id - 1].form)
        if not children[tok_id] and head in leaves:
            best[tok_id] = leaves[head]
            continue
        for rule, args, variables in models.by_head.get(head, []):
            binding = _match_fragment(tokens, labels, constituents, rule.fragment, tok_id)
            if binding is not None:
                plan.append((args, [binding[v] for v in variables]))
        if not plan:
            # pass-through, not part of the derivation: the head word among
            # its children, each a variable
            here = constituents[tok_id]
            nodes = [t for t in here if t != tok_id]
            target = tuple(tokens[t - 1].form if t == tok_id else nodes.index(t) for t in here)
            plan.append(((target, OOV_FEATURES, ()), nodes))
        for _, nodes in plan:
            for node in nodes:
                plans.setdefault(node, [])

    # bottom-up, the k best distinct strings of each other reached node
    compose = factory.compose
    tokens_of = attrgetter("tokens")
    for tok_id in reversed(order):
        plan = plans.get(tok_id)
        if plan is not None and tok_id not in best:
            edges = [(compose, args, [best[node] for node in nodes]) for args, nodes in plan]
            best[tok_id] = fill(edges, tokens_of, config.k_best_per_node)
            if not children[tok_id]:
                leaves[labels[tok_id], tokens[tok_id - 1].form] = best[tok_id]
    return rank_nbest(best[root], lm_states, weights, config.nbest)
