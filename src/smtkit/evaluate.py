"""Automatic MT evaluation: precision/recall/F, WER, BLEU, METEOR-lite,
two-system comparison reports and human fluency/adequacy aggregation."""

from __future__ import annotations

import math
import unicodedata
from collections import Counter
from dataclasses import dataclass, field

from .corpus import DANDA, DOUBLE_DANDA


class EvalError(ValueError):
    """Raised for mismatched corpora or out-of-range scores."""


def _is_punct(token: str) -> bool:
    return all(unicodedata.category(ch).startswith("P") or ch in (DANDA, DOUBLE_DANDA) for ch in token)


def correct_tokens(hyp: list[str], ref: list[str]) -> int:
    """Clipped bag-of-words matches; punctuation must also match its position.

    The positional requirement on punctuation-only tokens reproduces the
    worked single-reference percentages this metric is checked against.
    """
    hyp_words = Counter(t for t in hyp if not _is_punct(t))
    ref_words = Counter(t for t in ref if not _is_punct(t))
    correct = sum(min(c, ref_words[w]) for w, c in hyp_words.items())
    for pos, tok in enumerate(hyp):
        if _is_punct(tok) and pos < len(ref) and ref[pos] == tok:
            correct += 1
    return correct


def precision_recall_f(hyp: list[str], ref: list[str]) -> tuple[float, float, float]:
    correct = correct_tokens(hyp, ref)
    p = correct / len(hyp) if hyp else 0.0
    r = correct / len(ref) if ref else 0.0
    f = 2 * p * r / (p + r) if p + r > 0 else 0.0
    return p, r, f


def wer(hyp: list[str], ref: list[str]) -> float:
    """Levenshtein distance over the reference length; may exceed 1."""
    if not ref:
        raise EvalError("WER needs a non-empty reference")
    prev = list(range(len(hyp) + 1))
    for i, ref_tok in enumerate(ref, start=1):
        cur = [i] + [0] * len(hyp)
        for j, hyp_tok in enumerate(hyp, start=1):
            cur[j] = min(
                prev[j] + 1,  # deletion
                cur[j - 1] + 1,  # insertion
                prev[j - 1] + (ref_tok != hyp_tok),  # substitution
            )
        prev = cur
    return prev[len(hyp)] / len(ref)


@dataclass
class BleuResult:
    score: float
    precisions: list[float]
    brevity_penalty: float
    hyp_length: int
    ref_length: int


def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu_stats(hyp: list[str], ref: list[str], max_n: int = 4) -> tuple[int, ...]:
    """BLEU sufficient statistics of one sentence pair.

    (hyp length, ref length, clipped n-gram matches for n = 1..max_n,
    hypothesis n-gram totals for n = 1..max_n). A corpus's statistics are
    the element-wise sum over its sentences.
    """
    matches = []
    totals = []
    for n in range(1, max_n + 1):
        hyp_counts = _ngrams(hyp, n)
        ref_counts = _ngrams(ref, n)
        matches.append(sum(min(c, ref_counts[g]) for g, c in hyp_counts.items()))
        totals.append(max(len(hyp) - n + 1, 0))
    return (len(hyp), len(ref), *matches, *totals)


def bleu_from_stats(stats, mode: str = "corpus") -> BleuResult:
    """BLEU of summed `bleu_stats`.

    Sentence mode adds +1 smoothing to numerator and denominator for
    n >= 2, the usual convention for per-sentence tables.
    """
    max_n = (len(stats) - 2) // 2
    hyp_len, ref_len = stats[0], stats[1]
    precisions = []
    for n in range(1, max_n + 1):
        num, den = stats[1 + n], stats[1 + max_n + n]
        if mode == "sentence" and n >= 2:
            num, den = num + 1, den + 1
        precisions.append(num / den if den > 0 else 0.0)
    if all(p > 0 for p in precisions):
        geo = math.exp(sum(math.log(p) for p in precisions) / max_n)
    else:
        geo = 0.0
    bp = min(1.0, math.exp(1.0 - ref_len / hyp_len)) if hyp_len > 0 else 0.0
    return BleuResult(geo * bp, precisions, bp, hyp_len, ref_len)


def bleu(
    hyps: list[list[str]],
    refs: list[list[str]],
    max_n: int = 4,
    mode: str = "corpus",
) -> BleuResult:
    """Modified n-gram precision BLEU with brevity penalty.

    Corpus mode aggregates clipped counts over the corpus; sentence mode
    smooths as `bleu_from_stats` describes.
    """
    if len(hyps) != len(refs):
        raise EvalError(f"corpus length mismatch: {len(hyps)} hyps vs {len(refs)} refs")
    if mode not in ("corpus", "sentence"):
        raise EvalError(f"unknown BLEU mode: {mode!r}")
    totals = [0] * (2 + 2 * max_n)
    for hyp, ref in zip(hyps, refs):
        for k, value in enumerate(bleu_stats(hyp, ref, max_n)):
            totals[k] += value
    return bleu_from_stats(totals, mode)


@dataclass
class MeteorResult:
    score: float
    precision: float
    recall: float
    fragmentation: float
    matches: int
    chunks: int


def _match_chunks(hyp: list[str], ref: list[str]) -> tuple[int, int]:
    """Maximum exact unigram matching with greedily minimized chunk count.

    Repeatedly aligns the longest common fragment of still-unmatched
    positions, so contiguous runs come out as single chunks.
    """
    hyp_free = [True] * len(hyp)
    ref_free = [True] * len(ref)
    budget = Counter(t for t in hyp) & Counter(t for t in ref)
    total = sum(budget.values())
    chunks = 0
    matched = 0
    while matched < total:
        best_len = 0
        best = None
        for i in range(len(hyp)):
            if not hyp_free[i]:
                continue
            for j in range(len(ref)):
                if not ref_free[j] or hyp[i] != ref[j]:
                    continue
                length = 0
                while (
                    i + length < len(hyp)
                    and j + length < len(ref)
                    and hyp_free[i + length]
                    and ref_free[j + length]
                    and hyp[i + length] == ref[j + length]
                ):
                    length += 1
                if length > best_len:
                    best_len = length
                    best = (i, j)
        if best is None:
            break
        i, j = best
        for k in range(best_len):
            hyp_free[i + k] = False
            ref_free[j + k] = False
        matched += best_len
        chunks += 1
    return matched, chunks


def meteor_lite(
    hyp: list[str],
    ref: list[str],
    alpha: float = 0.9,
    beta: float = 3.0,
    gamma: float = 0.5,
) -> MeteorResult:
    """Exact-match METEOR: F-mean with a fragmentation penalty."""
    m, chunks = _match_chunks(hyp, ref)
    if m == 0:
        return MeteorResult(0.0, 0.0, 0.0, 0.0, 0, 0)
    p = m / len(hyp)
    r = m / len(ref)
    fmean = p * r / (alpha * p + (1 - alpha) * r)
    frag = chunks / m
    penalty = gamma * frag**beta
    return MeteorResult(fmean * (1 - penalty), p, r, frag, m, chunks)


METEOR_LENGTH_BUCKETS = ((1, 10), (11, 25), (26, 50), (51, math.inf))


@dataclass
class SentenceComparison:
    index: int
    bleu_a: float
    bleu_b: float
    p_a: float
    p_b: float
    r_a: float
    r_b: float
    f_a: float
    f_b: float
    bp_a: float
    bp_b: float


@dataclass
class NgramDiff:
    ngram: tuple[str, ...]
    count_a: int
    count_b: int

    @property
    def diff(self) -> int:
        return self.count_a - self.count_b

    def formatted(self) -> str:
        return f"{' '.join(self.ngram)} {self.count_a} - {self.count_b} = {self.diff}"


@dataclass
class ComparisonReport:
    sentences: list[SentenceComparison]
    confirmed: dict[int, tuple[list[NgramDiff], list[NgramDiff]]]  # n -> (A wins, B wins)
    unconfirmed: dict[int, tuple[list[NgramDiff], list[NgramDiff]]]
    meteor_by_length: dict[tuple, tuple[float, float]]  # bucket -> (mean A, mean B)


def _confirmed_counts(hyps, refs, n) -> tuple[Counter, Counter]:
    confirmed: Counter = Counter()
    unconfirmed: Counter = Counter()
    for hyp, ref in zip(hyps, refs):
        hyp_counts = _ngrams(hyp, n)
        ref_counts = _ngrams(ref, n)
        for gram, count in hyp_counts.items():
            ok = min(count, ref_counts[gram])
            confirmed[gram] += ok
            unconfirmed[gram] += count - ok
    return confirmed, unconfirmed


def _diff_tables(counts_a: Counter, counts_b: Counter, top_k: int):
    grams = set(counts_a) | set(counts_b)
    diffs = [NgramDiff(g, counts_a[g], counts_b[g]) for g in grams]
    a_wins = sorted((d for d in diffs if d.diff > 0), key=lambda d: (-d.diff, d.ngram))
    b_wins = sorted((d for d in diffs if d.diff < 0), key=lambda d: (d.diff, d.ngram))
    return a_wins[:top_k], b_wins[:top_k]


def compare_systems(
    hyps_a: list[list[str]],
    hyps_b: list[list[str]],
    refs: list[list[str]],
    max_n: int = 4,
    top_k: int = 10,
) -> ComparisonReport:
    if not len(hyps_a) == len(hyps_b) == len(refs):
        raise EvalError("system outputs and references must be line-aligned")
    sentences = []
    for idx, (a, b, ref) in enumerate(zip(hyps_a, hyps_b, refs)):
        bleu_a = bleu([a], [ref], mode="sentence")
        bleu_b = bleu([b], [ref], mode="sentence")
        pa, ra, fa = precision_recall_f(a, ref)
        pb, rb, fb = precision_recall_f(b, ref)
        sentences.append(
            SentenceComparison(
                idx, bleu_a.score, bleu_b.score, pa, pb, ra, rb, fa, fb,
                bleu_a.brevity_penalty, bleu_b.brevity_penalty,
            )
        )
    confirmed = {}
    unconfirmed = {}
    for n in range(1, max_n + 1):
        conf_a, unconf_a = _confirmed_counts(hyps_a, refs, n)
        conf_b, unconf_b = _confirmed_counts(hyps_b, refs, n)
        confirmed[n] = _diff_tables(conf_a, conf_b, top_k)
        unconfirmed[n] = _diff_tables(unconf_a, unconf_b, top_k)
    meteor_by_length = {}
    for lo, hi in METEOR_LENGTH_BUCKETS:
        scores_a = []
        scores_b = []
        for a, b, ref in zip(hyps_a, hyps_b, refs):
            if lo <= len(ref) <= hi:
                scores_a.append(meteor_lite(a, ref).score)
                scores_b.append(meteor_lite(b, ref).score)
        if scores_a:
            meteor_by_length[(lo, hi)] = (
                sum(scores_a) / len(scores_a),
                sum(scores_b) / len(scores_b),
            )
    return ComparisonReport(sentences, confirmed, unconfirmed, meteor_by_length)


def format_comparison(report: ComparisonReport) -> str:
    lines = ["sent\tBLEU-A\tBLEU-B\tP-A\tP-B\tR-A\tR-B\tF-A\tF-B\tBP-A\tBP-B"]
    for s in report.sentences:
        lines.append(
            f"{s.index}\t{s.bleu_a:.4f}\t{s.bleu_b:.4f}\t{s.p_a:.4f}\t{s.p_b:.4f}"
            f"\t{s.r_a:.4f}\t{s.r_b:.4f}\t{s.f_a:.4f}\t{s.f_b:.4f}"
            f"\t{s.bp_a:.4f}\t{s.bp_b:.4f}"
        )
    for title, tables in (("confirmed", report.confirmed), ("unconfirmed", report.unconfirmed)):
        for n, (a_wins, b_wins) in sorted(tables.items()):
            lines.append(f"# {title} {n}-grams: system A wins")
            lines.extend(d.formatted() for d in a_wins)
            lines.append(f"# {title} {n}-grams: system B wins")
            lines.extend(d.formatted() for d in b_wins)
    lines.append("# METEOR by reference length")
    for (lo, hi), (mean_a, mean_b) in sorted(report.meteor_by_length.items()):
        label = f"{lo}-{hi}" if hi != math.inf else f"{lo}+"
        lines.append(f"{label}\t{mean_a:.4f}\t{mean_b:.4f}")
    return "\n".join(lines) + "\n"


@dataclass
class HumanScoreTable:
    rows: list[tuple[str, int, int]] = field(default_factory=list)  # (sent id, fluency, adequacy)


@dataclass
class HumanSummary:
    fluency_mean: float
    adequacy_mean: float
    fluency_dist: dict[int, float]
    adequacy_dist: dict[int, float]
    fluency_pct: float
    adequacy_pct: float


def parse_human_scores(text: str) -> HumanScoreTable:
    """Comma- or tab-separated rows: sentence_id, fluency, adequacy."""
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in (line.split("\t") if "\t" in line else line.split(","))]
        if len(parts) != 3:
            raise EvalError(f"line {lineno}: expected sentence_id, fluency, adequacy")
        try:
            rows.append((parts[0], int(parts[1]), int(parts[2])))
        except ValueError:
            raise EvalError(f"line {lineno}: non-integer score in {line!r}") from None
    return HumanScoreTable(rows)


def aggregate_human(table: HumanScoreTable) -> HumanSummary:
    if not table.rows:
        raise EvalError("no human scores to aggregate")
    for sent_id, fluency, adequacy in table.rows:
        if not (1 <= fluency <= 5 and 1 <= adequacy <= 5):
            raise EvalError(f"sentence {sent_id}: scores must be in 1..5")
    n = len(table.rows)
    fluency_mean = sum(f for _, f, _ in table.rows) / n
    adequacy_mean = sum(a for _, _, a in table.rows) / n
    fluency_dist = {s: sum(1 for _, f, _ in table.rows if f == s) / n for s in range(1, 6)}
    adequacy_dist = {s: sum(1 for _, _, a in table.rows if a == s) / n for s in range(1, 6)}
    return HumanSummary(
        fluency_mean,
        adequacy_mean,
        {s: v for s, v in fluency_dist.items() if v > 0},
        {s: v for s, v in adequacy_dist.items() if v > 0},
        fluency_mean / 5.0,
        adequacy_mean / 5.0,
    )
