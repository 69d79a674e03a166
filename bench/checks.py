"""Output checks computed apart from smtkit's own code.

Each check raises CheckFailed when the output is wrong. Nothing here imports
smtkit: BLEU, the weights dot product and ARPA back-off scoring are written
out again, so a fault in the package cannot hide itself from its check.
"""

from __future__ import annotations

import hashlib
import math
import os
from collections import Counter


class CheckFailed(Exception):
    def __init__(self, check: str, message: str):
        super().__init__(f"check {check} failed: {message}")
        self.check = check


def read_lines(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


def read_tokens(path: str) -> list[list[str]]:
    return [line.split() for line in read_lines(path)]


# -- (a) and (d): BLEU -------------------------------------------------------


def corpus_bleu(hyps: list[list[str]], refs: list[list[str]]) -> float:
    """Corpus BLEU-4: clipped n-gram precisions, geometric mean, brevity penalty."""
    if len(hyps) != len(refs):
        raise CheckFailed("a", f"{len(hyps)} hypotheses for {len(refs)} references")
    matched = [0, 0, 0, 0]
    possible = [0, 0, 0, 0]
    hyp_words = sum(len(h) for h in hyps)
    ref_words = sum(len(r) for r in refs)
    for hyp, ref in zip(hyps, refs):
        for n in range(1, 5):
            ref_grams = Counter(zip(*(ref[k:] for k in range(n))))
            hyp_grams = Counter(zip(*(hyp[k:] for k in range(n))))
            matched[n - 1] += sum(min(count, ref_grams[g]) for g, count in hyp_grams.items())
            possible[n - 1] += sum(hyp_grams.values())
    if hyp_words == 0 or 0 in matched:
        return 0.0
    log_precision = math.fsum(math.log(m / p) for m, p in zip(matched, possible)) / 4
    brevity = 0.0 if hyp_words >= ref_words else 1.0 - ref_words / hyp_words
    return math.exp(log_precision + brevity)


def report_value(model_dir: str, key: str) -> float:
    for line in read_lines(os.path.join(model_dir, "report.txt")):
        name, _, value = line.partition("\t")
        if name == key:
            return float(value)
    raise CheckFailed("a", f"report.txt has no {key!r} line")


def check_report_bleu(model_dir: str, refs: list[list[str]]) -> float:
    """(a) BLEU recomputed from test.hyp equals the report's 6-decimal value."""
    own = corpus_bleu(read_tokens(os.path.join(model_dir, "test.hyp")), refs)
    reported = report_value(model_dir, "bleu")
    if abs(own - reported) > 5.000001e-7:
        raise CheckFailed("a", f"report.txt says bleu {reported}, recomputed {own!r}")
    return own


def check_bleu_floor(value: float, floor: float) -> None:
    """(d) the fixture's grammar is learnable; BLEU under the floor is a fault."""
    if not value >= floor:
        raise CheckFailed("d", f"test BLEU {value:.6f} is under the floor {floor}")


# -- (b): n-best scores ------------------------------------------------------


def read_weights(path: str) -> dict[str, float]:
    weights = {}
    for line in read_lines(path):
        line = line.strip()
        if line and not line.startswith("#"):
            name, value = line.split("\t")
            weights[name] = float(value)
    return weights


def check_nbest_scores(model_dir: str) -> int:
    """(b) every n-best score is weights . features, within 1e-9."""
    weights = read_weights(os.path.join(model_dir, "weights.txt"))
    lines = read_lines(os.path.join(model_dir, "test.nbest"))
    for lineno, line in enumerate(lines, start=1):
        fields = line.split(" ||| ")
        if len(fields) != 4:
            raise CheckFailed("b", f"test.nbest line {lineno} has {len(fields)} fields")
        terms = []
        for pair in fields[2].split():
            name, _, value = pair.partition("=")
            if name not in weights:
                raise CheckFailed("b", f"test.nbest line {lineno}: no weight for {name!r}")
            terms.append(weights[name] * float(value))
        score = float(fields[3])
        expected = math.fsum(terms)
        if abs(score - expected) > 1e-9 * max(1.0, abs(expected)):
            raise CheckFailed(
                "b", f"test.nbest line {lineno}: score {score!r}, weights . features {expected!r}"
            )
    if not lines:
        raise CheckFailed("b", "test.nbest is empty")
    return len(lines)


# -- (c): translate phase against the pipeline ------------------------------


def check_translations(decoded: list[str | None], model_dir: str) -> None:
    """(c) the reloaded model's 1-best lines equal the first lines of test.hyp.

    None marks a sentence whose decode failed; it is counted as failed, not here.
    """
    expected = read_lines(os.path.join(model_dir, "test.hyp"))[: len(decoded)]
    if len(expected) != len(decoded):
        raise CheckFailed("c", f"{len(decoded)} translations, test.hyp has {len(expected)}")
    for index, (got, want) in enumerate(zip(decoded, expected)):
        if got is not None and got != want:
            raise CheckFailed(
                "c", f"sentence {index}: translate gave {got!r}, test.hyp {want!r}"
            )


# -- (e): language model normalization and EM likelihoods -------------------


class ArpaModel:
    """Back-off scoring straight from the ARPA text (log10)."""

    def __init__(self, path: str):
        self.prob: dict[tuple[str, ...], float] = {}
        self.bow: dict[tuple[str, ...], float] = {}
        self.order = 0
        section = 0
        for line in read_lines(path):
            line = line.strip()
            if not line or line in ("\\data\\", "\\end\\") or line.startswith("ngram "):
                continue
            if line.startswith("\\") and line.endswith("-grams:"):
                section = int(line[1:-len("-grams:")])
                self.order = max(self.order, section)
                continue
            cols = line.split("\t")
            gram = tuple(cols[1].split(" "))
            self.prob[gram] = float(cols[0])
            if len(cols) == 3:
                self.bow[gram] = float(cols[2])
        self.unigrams = sorted(g[0] for g in self.prob if len(g) == 1)

    def logp(self, history: tuple[str, ...], word: str) -> float:
        history = history[-(self.order - 1):] if self.order > 1 else ()
        back_off = 0.0
        while True:
            gram = history + (word,)
            if gram in self.prob:
                return back_off + self.prob[gram]
            if not history:
                return back_off + self.prob[("<unk>",)]
            back_off += self.bow.get(history, 0.0)
            history = history[1:]


def lm_histories(refs: list[list[str]], order: int, limit: int = 40) -> list[tuple[str, ...]]:
    """A fixed sample: the contexts of the first reference sentences, plus an unseen word."""
    seen: list[tuple[str, ...]] = []
    for ref in refs:
        padded = ["<s>"] + ref
        for i in range(1, len(padded) + 1):
            history = tuple(padded[max(0, i - order + 1):i])
            if history not in seen:
                seen.append(history)
    return seen[:limit] + [("<s>", "qqq-unseen")[: order - 1]]


def check_lm_normalized(arpa_path: str, refs: list[list[str]]) -> int:
    """(e) sum over the vocabulary and </s> of p(w|h) is 1 within 1e-6."""
    model = ArpaModel(arpa_path)
    words = [w for w in model.unigrams if w != "<s>"]
    histories = lm_histories(refs, model.order)
    for history in histories:
        total = math.fsum(10.0 ** model.logp(history, w) for w in words)
        if abs(total - 1.0) > 1e-6:
            raise CheckFailed("e", f"sum of p(w | {' '.join(history)}) is {total!r}")
    return len(histories)


def check_em_monotone(runs: list[tuple[str, list[float]]]) -> None:
    """(e) EM never lowers the training log-likelihood."""
    if not runs:
        raise CheckFailed("e", "no EM run was recorded")
    for name, likelihoods in runs:
        for k in range(1, len(likelihoods)):
            before, after = likelihoods[k - 1], likelihoods[k]
            if after < before - 1e-9 * abs(before):
                raise CheckFailed("e", f"{name} log-likelihood fell from {before!r} to {after!r}")


# -- (f): artifact hashes ----------------------------------------------------


def artifact_hashes(model_dir: str) -> dict[str, str]:
    out = {}
    for name in sorted(os.listdir(model_dir)):
        with open(os.path.join(model_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def check_same_hashes(first: dict[str, str], second: dict[str, str]) -> None:
    """(f) two runs of one workload and seed wrote byte-identical artifacts."""
    if first != second:
        differ = sorted(k for k in set(first) | set(second) if first.get(k) != second.get(k))
        raise CheckFailed("f", f"artifacts differ between runs: {', '.join(differ)}")
