"""The line-by-line ARPA reader that `smtkit.lm.read_arpa` replaced, kept
as an exact-order reference: verbatim but for the messages of a count
mismatch and a missing `\\end\\`, which now name a line as the reader's
do.

`smtkit.lm.read_arpa` must return the same model as this function: the same
`probs` and `backoffs` in the same insertion order and the same vocabulary
ids. On malformed text it must raise the same `LmError` message, naming the
same line, for the first error this reader meets.
"""

from __future__ import annotations

import math

from smtkit.corpus import Vocabulary
from smtkit.lm import LmError, NGramModel


def read_arpa(text: str) -> NGramModel:
    lines = text.splitlines()
    pos = 0
    while pos < len(lines) and lines[pos].strip() != "\\data\\":
        if lines[pos].strip():
            raise LmError(f"line {pos + 1}: expected \\data\\ header")
        pos += 1
    if pos == len(lines):
        raise LmError("missing \\data\\ header")
    pos += 1
    declared: dict[int, int] = {}
    count_line: dict[int, int] = {}
    while pos < len(lines) and lines[pos].strip():
        part = lines[pos].strip()
        if not part.startswith("ngram "):
            raise LmError(f"line {pos + 1}: malformed count line {part!r}")
        k_str, _, count_str = part[len("ngram "):].partition("=")
        try:
            k, count = int(k_str), int(count_str)
        except ValueError:
            k = count = -1
        if k < 1 or count < 0:
            raise LmError(f"line {pos + 1}: malformed count line {part!r}")
        declared[k] = count
        count_line[k] = pos + 1
        pos += 1
    if not declared:
        raise LmError("empty \\data\\ section")
    order = max(declared)

    vocab = Vocabulary()
    model = NGramModel(order=order, vocab=vocab)
    seen: dict[int, int] = {k: 0 for k in declared}
    current_k = 0
    for lineno in range(pos, len(lines)):
        line = lines[lineno].strip()
        if not line:
            continue
        if line == "\\end\\":
            break
        if line.startswith("\\") and line.endswith("-grams:"):
            k_str = line[1:-len("-grams:")]
            current_k = int(k_str) if k_str.isdecimal() else -1
            if current_k not in declared:
                raise LmError(f"line {lineno + 1}: undeclared section {line!r}")
            continue
        if current_k == 0:
            raise LmError(f"line {lineno + 1}: data outside any n-gram section")
        cols = line.split("\t")
        expect = 2 if current_k == order else 3
        if len(cols) != expect:
            raise LmError(
                f"line {lineno + 1}: {current_k}-gram line has {len(cols)} fields, expected {expect}"
            )
        words = tuple(cols[1].split(" "))
        if len(words) != current_k:
            raise LmError(f"line {lineno + 1}: expected {current_k} tokens in {cols[1]!r}")
        try:
            logp = float(cols[0])
            bow = float(cols[2]) if current_k < order else 0.0
        except ValueError:
            raise LmError(
                f"line {lineno + 1}: non-numeric probability or back-off in {line!r}"
            ) from None
        if not (math.isfinite(logp) and math.isfinite(bow)):
            number = cols[0] if not math.isfinite(logp) else cols[2]
            raise LmError(f"line {lineno + 1}: non-finite number {number!r}")
        if logp > 0.0:  # a back-off weight may take any finite value
            raise LmError(f"line {lineno + 1}: log10 probability {cols[0]!r} lies above 0")
        gram = tuple(vocab.add(w) for w in words)
        model.probs[current_k][gram] = logp
        if bow != 0.0:
            model.backoffs[current_k][gram] = bow
        seen[current_k] += 1
    else:
        raise LmError(f"line {len(lines)}: missing \\end\\ terminator")
    for k, count in declared.items():
        if seen[k] != count:
            raise LmError(
                f"line {count_line[k]}: \\{k}-grams: section declares {count} entries "
                f"but contains {seen[k]}"
            )
    return model

