"""Interpolated modified Kneser-Ney n-gram language models.

Probabilities and backoff weights are log10 throughout, matching the ARPA
text format. The model is exactly normalized: for every stored history h,
summing p(w|h) over the full vocabulary (through backoff) gives 1.
The decoders query a model through `LmStates`: its contexts interned as
small ints and its (context, word) scores memoized. A decoder's models keep
one such memo for their LM (`LmMemo`), shared by every decode with them, so
a sentence reuses what earlier sentences asked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .corpus import BOS, EOS, NULL, UNK, UNK_ID, Vocabulary

LOG10_ZERO = -99.0  # conventional ARPA stand-in for log10(0)


class LmError(ValueError):
    """Raised for invalid training input or malformed ARPA data."""


@dataclass
class Discounts:
    d1: float
    d2: float
    d3plus: float

    def for_count(self, count: float) -> float:
        if count >= 3:
            return self.d3plus
        if count >= 2:
            return self.d2
        return self.d1


def _closed_form_discounts(counts_of_counts: dict[int, int]) -> Discounts | None:
    """Standard closed-form discounts from n1..n4; None when undefined."""
    n1 = counts_of_counts.get(1, 0)
    n2 = counts_of_counts.get(2, 0)
    n3 = counts_of_counts.get(3, 0)
    n4 = counts_of_counts.get(4, 0)
    if min(n1, n2, n3, n4) == 0:
        return None
    y = n1 / (n1 + 2.0 * n2)
    d = Discounts(1.0 - 2.0 * y * n2 / n1, 2.0 - 3.0 * y * n3 / n2, 3.0 - 4.0 * y * n4 / n3)
    for bound, value in ((1.0, d.d1), (2.0, d.d2), (3.0, d.d3plus)):
        if not 0.0 < value <= bound:
            return None
    return d


@dataclass
class NGramModel:
    """n-gram tables keyed by token-id tuples holding (log10 p, log10 bow)."""

    order: int
    vocab: Vocabulary
    # tables[k] maps k-gram id tuples to log10 probability, for k = 1..order
    probs: list[dict[tuple[int, ...], float]] = field(default_factory=list)
    # backoffs[k] maps k-gram histories to log10 backoff weight, k = 1..order-1
    backoffs: list[dict[tuple[int, ...], float]] = field(default_factory=list)

    def __post_init__(self):
        if not self.probs:
            self.probs = [{} for _ in range(self.order + 1)]
        if not self.backoffs:
            self.backoffs = [{} for _ in range(self.order)]

    @property
    def unk_logprob(self) -> float:
        """log10 p(<unk>); LOG10_ZERO for a closed-vocabulary model, one
        with no <unk> unigram."""
        return self.probs[1].get((self.vocab.id_of(UNK),), LOG10_ZERO)

    def ngram_counts(self) -> list[int]:
        return [len(self.probs[k]) for k in range(1, self.order + 1)]

    def _ids(self, tokens: list[str] | tuple[str, ...]) -> tuple[int, ...]:
        # `Vocabulary.id_of` as one lookup per token in the vocabulary's dict
        get = self.vocab._str_to_id.get
        return tuple([get(t, UNK_ID) for t in tokens])

    def score_ids(self, history: tuple[int, ...], word: int) -> float:
        """log10 p(word | history) with interpolated-model backoff.

        The back-off weights met on the way down are added innermost first,
        bow1 + (bow2 + p), the grouping of the recursive definition.
        """
        hist = history[-(self.order - 1):] if self.order > 1 else ()
        probs = self.probs
        stored = probs[len(hist) + 1].get(hist + (word,))
        if stored is not None:
            return stored
        bows: list[float] = []
        while hist:
            bow = self.backoffs[len(hist)].get(hist)
            if bow:
                bows.append(bow)
            hist = hist[1:]
            stored = probs[len(hist) + 1].get(hist + (word,))
            if stored is not None:
                break
        else:
            stored = self.unk_logprob
        for bow in reversed(bows):
            stored = bow + stored
        return stored

    def word_ceilings(self) -> list[float] | None:
        """Per word id, an upper bound on `score_ids(h, id)` over every history
        h: the larger of `unk_logprob` and the largest stored log10 p of an
        n-gram ending in the word.

        `score_ids` returns one of those values plus the back-off weights met
        on the way down, added one at a time; rounded addition is monotone, so
        adding a weight that is not positive never raises the value. None when
        that argument fails: a back-off weight is positive, or a stored value
        is not finite.
        """
        for table in self.backoffs:
            for bow in table.values():
                if not (bow <= 0.0 and math.isfinite(bow)):
                    return None
        ceilings = [self.unk_logprob] * len(self.vocab)
        for table in self.probs:
            for gram, logp in table.items():
                if not math.isfinite(logp):
                    return None
                if logp > ceilings[gram[-1]]:
                    ceilings[gram[-1]] = logp
        return ceilings

    def score_word(self, history: list[str] | tuple[str, ...], word: str) -> float:
        return self.score_ids(self._ids(history), self.vocab.id_of(word))

    def score_sentence(self, tokens: list[str]) -> tuple[float, float]:
        """Total log10 probability including </s>, and perplexity."""
        bos = self.vocab.id_of(BOS)
        eos = self.vocab.id_of(EOS)
        ctx: tuple[int, ...] = (bos,)
        total = 0.0
        for tok in tokens:
            wid = self.vocab.id_of(tok)
            total += self.score_ids(ctx, wid)
            ctx = (ctx + (wid,))[-(self.order - 1):] if self.order > 1 else ()
        total += self.score_ids(ctx, eos)
        ppl = 10.0 ** (-total / (len(tokens) + 1))
        return total, ppl

    def items(self, k: int) -> list[tuple[tuple[str, ...], float, float | None]]:
        """(words, log10 p, log10 bow or None) for order k, sorted by words."""
        out = []
        for gram, logp in self.probs[k].items():
            words = tuple(self.vocab.string_of(i) for i in gram)
            bow = self.backoffs[k].get(gram) if k < self.order else None
            out.append((words, logp, bow))
        out.sort(key=lambda item: item[0])
        return out


class LmStates:
    """LM contexts as small ints, with memoized transitions.

    Each distinct context tuple is interned once; `word` scores a word after
    a state once per distinct (state, word) pair and returns the state it
    leads to. A memo value is `NGramModel.score_ids` of its context and
    word, the same float whichever decode asked first, so one instance can
    serve every decode with one model (`LmMemo`). `empty` is the state of
    the empty context and `bos` that of <s>.
    """

    def __init__(self, lm: NGramModel):
        self.lm = lm
        self.cut = lm.order - 1
        self.eos_id = lm.vocab.id_of(EOS)
        self.contexts: list[tuple[int, ...]] = []
        self.ids: dict[tuple[int, ...], int] = {}
        self.transitions: dict[tuple[int, int], tuple[float, int]] = {}
        self.eos: list[float | None] = []
        self.empty = self.state(())
        self.bos = self.state((lm.vocab.id_of(BOS),))

    def state(self, ctx: tuple[int, ...]) -> int:
        state = self.ids.get(ctx)
        if state is None:
            state = self.ids[ctx] = len(self.contexts)
            self.contexts.append(ctx)
            self.eos.append(None)
        return state

    def word(self, state: int, wid: int) -> tuple[float, int]:
        """log10 p(wid | state) and the state after it."""
        key = (state, wid)
        hit = self.transitions.get(key)
        if hit is None:
            ctx = self.contexts[state]
            hit = self.transitions[key] = (
                self.lm.score_ids(ctx, wid),
                self.state((ctx + (wid,))[-self.cut:] if self.cut else ()),
            )
        return hit

    def advance(self, state: int, ids: tuple[int, ...]) -> tuple[float, int]:
        """Summed log10 score of `ids` after `state`, and the state they reach."""
        transitions = self.transitions
        total = 0.0
        for wid in ids:
            score, state = transitions.get((state, wid)) or self.word(state, wid)
            total += score
        return total, state

    def end(self, state: int) -> float:
        """log10 p(</s> | state)."""
        score = self.eos[state]
        if score is None:
            score = self.eos[state] = self.word(state, self.eos_id)[0]
        return score

    def sentence(self, tokens) -> float:
        """log10 score of `tokens` between <s> and </s>, summed in the order
        of `NGramModel.score_sentence`, so the same float."""
        total, state = self.advance(self.bos, self.lm._ids(tokens))
        return total + self.end(state)


# Transitions an `LmMemo` memo may hold when a decode starts; past it the
# decode begins a fresh memo. A transition takes about 175 bytes with its
# share of the interned contexts (tracemalloc, order-3 and order-4 models,
# Python 3.11), so this keeps a memo under ~50 MB.
MEMO_TRANSITIONS = 250_000


class LmMemo:
    """The one `LmStates` memo of a decoder's models, which hold their LM as
    `lm`; mixed into `PhraseModels`, `ChartModels` and `TreeModels`.

    Built on the first decode, not with the models, and kept while `lm` is
    the same model and it holds at most `MEMO_TRANSITIONS` transitions when
    a decode starts. The models hold the memo and the memo the LM, so
    dropping the models frees both at once.
    """

    _lm_states: LmStates | None = None

    def lm_states(self) -> LmStates:
        memo = self._lm_states
        if memo is None or memo.lm is not self.lm or len(memo.transitions) > MEMO_TRANSITIONS:
            memo = self._lm_states = LmStates(self.lm)
        return memo


DISCOUNT_MODES = ("counts_of_counts", "fixed")


def train_lm(
    corpus: list[list[str]],
    order: int = 3,
    discount_mode: str = "counts_of_counts",
    fixed_discount: float = 0.75,
) -> NGramModel:
    """Estimate an interpolated modified Kneser-Ney model.

    The highest order uses raw counts; lower orders use continuation counts
    (number of distinct predecessors), except n-grams starting with <s>,
    which keep raw counts because nothing can precede <s>. Three discounts
    per order come from counts-of-counts, falling back to the fixed discount
    whenever the closed form is undefined on a tiny corpus.
    """
    if order < 2:
        raise LmError(f"order must be >= 2, got {order}")
    if discount_mode not in DISCOUNT_MODES:
        raise LmError(f"unknown discount mode: {discount_mode!r}")
    if not 0.0 < fixed_discount <= 1.0:
        raise LmError(f"fixed discount must be in (0, 1], got {fixed_discount}")
    sentences = [s for s in corpus if s]
    if not sentences:
        raise LmError("training corpus has zero tokens")

    vocab = Vocabulary()
    padded: list[list[int]] = []
    bos = vocab.id_of(BOS)
    unk_id = vocab.id_of(UNK)
    for sent in sentences:
        padded.append([bos] + [vocab.add(t) for t in sent] + [vocab.id_of(EOS)])

    # raw counts per order
    raw: list[dict[tuple[int, ...], int]] = [dict() for _ in range(order + 1)]
    for ids in padded:
        for k in range(1, order + 1):
            table = raw[k]
            for i in range(len(ids) - k + 1):
                gram = tuple(ids[i : i + k])
                table[gram] = table.get(gram, 0) + 1

    # adjusted counts: raw at the top, continuation below (raw for <s>-initial)
    adjusted: list[dict[tuple[int, ...], int]] = [dict() for _ in range(order + 1)]
    adjusted[order] = dict(raw[order])
    for k in range(order - 1, 0, -1):
        table: dict[tuple[int, ...], int] = {}
        for gram in raw[k + 1]:
            suffix = gram[1:]
            table[suffix] = table.get(suffix, 0) + 1
        for gram, count in raw[k].items():
            if gram[0] == bos:
                table[gram] = count
        table.pop((bos,), None)  # <s> is never predicted
        adjusted[k] = table

    discounts: list[Discounts] = [Discounts(0, 0, 0)]
    for k in range(1, order + 1):
        if discount_mode == "fixed":
            discounts.append(Discounts(fixed_discount, fixed_discount, fixed_discount))
            continue
        coc: dict[int, int] = {}
        for count in adjusted[k].values():
            if count <= 4:
                coc[count] = coc.get(count, 0) + 1
        d = _closed_form_discounts(coc)
        if d is None:
            d = Discounts(fixed_discount, fixed_discount, fixed_discount)
        discounts.append(d)

    # group each level by history
    model = NGramModel(order=order, vocab=vocab)
    prob: list[dict[tuple[int, ...], float]] = [dict() for _ in range(order + 1)]

    # predictable vocabulary: everything except <s> and NULL, plus <unk>
    vocab_size = sum(1 for t in vocab.strings() if t not in (BOS, NULL))

    for k in range(1, order + 1):
        by_history: dict[tuple[int, ...], list[tuple[int, int]]] = {}
        for gram, count in adjusted[k].items():
            by_history.setdefault(gram[:-1], []).append((gram[-1], count))
        d = discounts[k]
        for history, continuations in by_history.items():
            denom = float(sum(c for _, c in continuations))
            n_by_level = [0, 0, 0]
            for _, c in continuations:
                n_by_level[min(c, 3) - 1] += 1
            gamma = (
                d.d1 * n_by_level[0] + d.d2 * n_by_level[1] + d.d3plus * n_by_level[2]
            ) / denom
            for word, count in continuations:
                u = (count - d.for_count(count)) / denom
                if k == 1:
                    p = u + gamma / vocab_size
                else:
                    p = u + gamma * prob[k - 1][history[1:] + (word,)]
                prob[k][history + (word,)] = p
            if k == 1:
                # leftover unigram mass is spread uniformly; <unk> gets its share
                prob[1][(unk_id,)] = gamma / vocab_size
            else:
                model.backoffs[k - 1][history] = math.log10(gamma)

    for k in range(1, order + 1):
        for gram, p in prob[k].items():
            model.probs[k][gram] = math.log10(p) if p > 0 else LOG10_ZERO
    # <s> appears as context but is never predicted
    model.probs[1][(bos,)] = LOG10_ZERO
    model.backoffs[1].setdefault((bos,), 0.0)
    return model


def _fmt(value: float) -> str:
    return repr(round(value, 12))


def write_arpa(model: NGramModel) -> str:
    lines = ["\\data\\"]
    for k in range(1, model.order + 1):
        lines.append(f"ngram {k}={len(model.probs[k])}")
    for k in range(1, model.order + 1):
        lines.append("")
        lines.append(f"\\{k}-grams:")
        for words, logp, bow in model.items(k):
            gram = " ".join(words)
            if k < model.order:
                lines.append(f"{_fmt(logp)}\t{gram}\t{_fmt(bow or 0.0)}")
            else:
                lines.append(f"{_fmt(logp)}\t{gram}")
    lines.append("")
    lines.append("\\end\\")
    return "\n".join(lines) + "\n"


def read_arpa(text: str) -> NGramModel:
    """The model in ARPA `text`: one pass over the lines after `\\data\\`,
    which first reads the count lines, up to the first blank one, then the
    sections; every error but a missing header or an empty `\\data\\`
    names a line: a count mismatch its count line, a missing `\\end\\` the
    last line."""
    lines = text.splitlines()
    start = next((i for i, line in enumerate(lines) if line.strip()), len(lines))
    if start == len(lines):
        raise LmError("missing \\data\\ header")
    if lines[start].strip() != "\\data\\":
        raise LmError(f"line {start + 1}: expected \\data\\ header")
    vocab = Vocabulary()
    known, add, inf = vocab._str_to_id.__getitem__, vocab.add, math.inf
    declared: dict[int, tuple[int, int]] = {}  # size -> (count, its line)
    model = probs = bows = None
    k = n = expect = 0  # the section, its lines so far, and its field count
    for lineno, line in enumerate(lines[start + 1:], start + 2):
        line = line.strip()
        if probs is None or not line or line[0] == "\\":
            if model is None:  # a count line, or the blank line that ends them
                if line:
                    k_str, _, count_str = line[len("ngram "):].partition("=")
                    try:
                        size, count = int(k_str), int(count_str)
                    except ValueError:
                        size = count = -1
                    if not line.startswith("ngram ") or size < 1 or count < 0:
                        raise LmError(f"line {lineno}: malformed count line {line!r}")
                    declared[size] = count, lineno
                    continue
                if not declared:
                    raise LmError("empty \\data\\ section")
                model = NGramModel(order=max(declared), vocab=vocab)
                seen = [0] * (model.order + 1)
                continue
            if not line:
                continue
            if line == "\\end\\":
                break
            if line[0] == "\\" and line.endswith("-grams:"):
                seen[k] += n
                k_str = line[1:-len("-grams:")]
                k, n = int(k_str) if k_str.isdecimal() else -1, 0
                if k not in declared:
                    raise LmError(f"line {lineno}: undeclared section {line!r}")
                probs = model.probs[k]
                bows = model.backoffs[k] if k < model.order else None
                expect = 2 if bows is None else 3
                continue
            if probs is None:
                raise LmError(f"line {lineno}: data outside any n-gram section")
        cols = line.split("\t")
        if len(cols) != expect:
            raise LmError(f"line {lineno}: {k}-gram line has {len(cols)} fields, expected {expect}")
        words = cols[1].split(" ")
        if len(words) != k:
            raise LmError(f"line {lineno}: expected {k} tokens in {cols[1]!r}")
        try:
            logp = float(cols[0])
            bow = 0.0 if bows is None else float(cols[2])
        except ValueError:
            raise LmError(f"line {lineno}: non-numeric probability or back-off in {line!r}") from None
        if not (-inf < logp <= 0.0 and -inf < bow < inf):
            if not (math.isfinite(logp) and math.isfinite(bow)):
                number = cols[0] if not math.isfinite(logp) else cols[2]
                raise LmError(f"line {lineno}: non-finite number {number!r}")
            # a back-off weight may take any finite value
            raise LmError(f"line {lineno}: log10 probability {cols[0]!r} lies above 0")
        try:
            gram = tuple(map(known, words))
        except KeyError:  # a word this model has not met: ids in first-appearance order
            gram = tuple(map(add, words))
        probs[gram] = logp
        if bow:
            bows[gram] = bow
        n += 1
    else:
        if not declared:
            raise LmError("empty \\data\\ section")
        raise LmError(f"line {len(lines)}: missing \\end\\ terminator")
    seen[k] += n
    for k, (count, lineno) in declared.items():
        if seen[k] != count:
            raise LmError(
                f"line {lineno}: \\{k}-grams: section declares {count} entries but contains {seen[k]}"
            )
    return model
