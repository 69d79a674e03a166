"""Deterministic synthetic parallel corpus for experiments and tests.

A tiny hand-built synchronous grammar emits English-like source sentences
with verb-final, noun-adjective-flipped target counterparts, so alignment,
phrase extraction and reordering all have signal to learn. One source word
is deliberately ambiguous between two translations at a 70/30 rate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .corpus import SentencePair
from .deptree import DepSentence, DepToken, write_conllu

_ADJ = [("red", "lal"), ("big", "bada"), ("old", "purana"), ("small", "chhota")]
_NOUN = [
    ("dog", "kutta"),
    ("house", "ghar"),
    ("tree", "ped"),
    ("boy", "ladka"),
    ("river", "nadi"),
    ("bird", "chidiya"),
]
_VERB = [("sees", "dekhela"), ("builds", "banavela"), ("likes", "pasand"), ("leaves", "chhodela")]
_ADV = [("today", "aaju"), ("slowly", "dhire")]
# "good" maps to two targets, chosen 70/30
_AMBIGUOUS = ("good", ("nik", "accha"))


@dataclass
class SyntheticCorpus:
    sources: list[list[str]]
    targets: list[list[str]]
    mono_target: list[list[str]]

    def pairs(self) -> list[SentencePair]:
        return [SentencePair(s, t) for s, t in zip(self.sources, self.targets)]


def _noun_phrase(rng: random.Random) -> tuple[list[str], list[str]]:
    src = ["the"]
    tgt = ["ek"]
    if rng.random() < 0.5:
        if rng.random() < 0.3:
            adj_src = _AMBIGUOUS[0]
            adj_tgt = _AMBIGUOUS[1][0] if rng.random() < 0.7 else _AMBIGUOUS[1][1]
        else:
            adj_src, adj_tgt = rng.choice(_ADJ)
        noun_src, noun_tgt = rng.choice(_NOUN)
        # adjective follows the noun on the target side
        src += [adj_src, noun_src]
        tgt += [noun_tgt, adj_tgt]
    else:
        noun_src, noun_tgt = rng.choice(_NOUN)
        src.append(noun_src)
        tgt.append(noun_tgt)
    return src, tgt


def _sentence(rng: random.Random) -> tuple[list[str], list[str]]:
    subj_src, subj_tgt = _noun_phrase(rng)
    obj_src, obj_tgt = _noun_phrase(rng)
    verb_src, verb_tgt = rng.choice(_VERB)
    src = subj_src + [verb_src] + obj_src
    tgt = subj_tgt + obj_tgt + [verb_tgt]  # verb-final target order
    if rng.random() < 0.4:
        adv_src, adv_tgt = rng.choice(_ADV)
        src.append(adv_src)
        tgt.insert(len(tgt) - 1, adv_tgt)
    src.append(".")
    tgt.append("।")
    return src, tgt


def make_corpus(n_pairs: int, seed: int = 1, n_mono: int | None = None) -> SyntheticCorpus:
    rng = random.Random(seed)
    sources = []
    targets = []
    for _ in range(n_pairs):
        src, tgt = _sentence(rng)
        sources.append(src)
        targets.append(tgt)
    mono = [_sentence(rng)[1] for _ in range(n_mono if n_mono is not None else n_pairs)]
    return SyntheticCorpus(sources, targets, mono)


_ADJ_WORDS = {w for w, _ in _ADJ} | {_AMBIGUOUS[0]}
_NOUN_WORDS = {w for w, _ in _NOUN}
_VERB_WORDS = {w for w, _ in _VERB}
_ADV_WORDS = {w for w, _ in _ADV}


def source_tree(sentence: list[str], sent_id: str) -> DepSentence:
    """Dependency analysis of one generated source sentence.

    The grammar is rigid (subject NP, verb, object NP, optional adverb,
    final period), so heads are recoverable from the lexicon alone.
    """
    noun_positions = [i for i, w in enumerate(sentence) if w in _NOUN_WORDS]
    verb_position = next(i for i, w in enumerate(sentence) if w in _VERB_WORDS)
    tokens = []
    for i, word in enumerate(sentence):
        if word in _VERB_WORDS:
            head, deprel, xpos = 0, "root", "VB"
        elif word in _NOUN_WORDS:
            head = verb_position + 1
            deprel = "nsubj" if i < verb_position else "obj"
            xpos = "NN"
        elif word == "the":
            noun = next(p for p in noun_positions if p > i)
            head, deprel, xpos = noun + 1, "det", "DT"
        elif word in _ADJ_WORDS:
            noun = next(p for p in noun_positions if p > i)
            head, deprel, xpos = noun + 1, "amod", "JJ"
        elif word in _ADV_WORDS:
            head, deprel, xpos = verb_position + 1, "advmod", "RB"
        else:  # sentence-final period
            head, deprel, xpos = verb_position + 1, "punct", "."
        tokens.append(DepToken(i + 1, word, lemma=word, xpos=xpos, head=head, deprel=deprel))
    return DepSentence(sent_id, tokens, [f"# sent_id = {sent_id}", f"# text = {' '.join(sentence)}"])


def write_trees(path: str, sentences: list[list[str]], prefix: str) -> None:
    """`write_conllu` of the sentences' trees, written one tree at a time, so
    that the trees of a split never exist at once."""
    with open(path, "w", encoding="utf-8") as fh:
        if not sentences:
            fh.write(write_conllu([]))
        for i, sent in enumerate(sentences):
            # write_conllu parts blocks by a blank line
            fh.write(("\n" if i else "") + write_conllu([source_tree(sent, f"{prefix}-{i}")]))


def write_lines(path: str, sentences: list[list[str]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for sent in sentences:
            fh.write(" ".join(sent) + "\n")


def write_fixture_tree(
    train: int = 1000, dev: int = 50, test: int = 100, seed: int = 1, root: str = "."
) -> dict[str, str]:
    """Write train/dev/test splits plus a monolingual file; returns paths."""
    import os

    corpus = make_corpus(train + dev + test, seed=seed, n_mono=train)
    paths = {}
    splits = {
        "train": (0, train),
        "dev": (train, train + dev),
        "test": (train + dev, train + dev + test),
    }
    os.makedirs(root, exist_ok=True)
    for name, (lo, hi) in splits.items():
        src_path = os.path.join(root, f"{name}.src")
        tgt_path = os.path.join(root, f"{name}.tgt")
        tree_path = os.path.join(root, f"{name}.conllu")
        write_lines(src_path, corpus.sources[lo:hi])
        write_lines(tgt_path, corpus.targets[lo:hi])
        write_trees(tree_path, corpus.sources[lo:hi], name)
        paths[f"{name}.src"] = src_path
        paths[f"{name}.tgt"] = tgt_path
        paths[f"{name}.conllu"] = tree_path
    mono_path = os.path.join(root, "mono.tgt")
    write_lines(mono_path, corpus.mono_target)
    paths["mono.tgt"] = mono_path
    return paths
