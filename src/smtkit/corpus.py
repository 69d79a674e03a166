"""Text ingestion, tokenization, cleaning and vocabulary."""

from __future__ import annotations

import string
from dataclasses import dataclass

DANDA = "।"
DOUBLE_DANDA = "॥"
AVAGRAHA = "ऽ"

# Characters split off as standalone tokens. Avagraha is word-internal in
# Bhojpuri orthography (e.g. करऽ, हऽ) and is never split.
_SPLIT_PUNCT = set(string.punctuation) | {DANDA, DOUBLE_DANDA}

# Sentence-closing punctuation re-attached to the preceding token.
_CLOSING_PUNCT = {".", "?", "!", ",", DANDA, DOUBLE_DANDA}

NULL_ID = 0
BOS_ID = 1
EOS_ID = 2
UNK_ID = 3

NULL = "<null>"
BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"


class CorpusError(ValueError):
    """Raised for malformed corpus data (encodings, line counts, settings)."""


@dataclass(slots=True)
class SentencePair:
    """A parallel sentence with an optional source-side dependency tree, kept
    as a `deptree.TreeShape` for rule extraction."""

    source: list[str]
    target: list[str]
    source_tree: object | None = None


class Vocabulary:
    """Bijective string <-> dense id map with reserved ids 0..3.

    Id 0 is the NULL alignment token, 1/2 the sentence boundary markers and
    3 the unknown word. Ids are assigned in registration order, so identical
    insertion order gives identical ids.
    """

    def __init__(self):
        self._str_to_id: dict[str, int] = {}
        self._id_to_str: list[str] = []
        for reserved in (NULL, BOS, EOS, UNK):
            self.add(reserved)

    def __len__(self) -> int:
        return len(self._id_to_str)

    def __contains__(self, token: str) -> bool:
        return token in self._str_to_id

    def add(self, token: str) -> int:
        existing = self._str_to_id.get(token)
        if existing is not None:
            return existing
        idx = len(self._id_to_str)
        self._str_to_id[token] = idx
        self._id_to_str.append(token)
        return idx

    def id_of(self, token: str) -> int:
        idx = self._str_to_id.get(token)
        return UNK_ID if idx is None else idx

    def string_of(self, idx: int) -> str:
        return self._id_to_str[idx]

    def strings(self) -> list[str]:
        return list(self._id_to_str)


def _split_punct(word: str) -> list[str]:
    """Split punctuation characters out of a whitespace token."""
    parts: list[str] = []
    buf: list[str] = []
    for ch in word:
        if ch in _SPLIT_PUNCT:
            if buf:
                parts.append("".join(buf))
                buf = []
            parts.append(ch)
        else:
            buf.append(ch)
    if buf:
        parts.append("".join(buf))
    return parts


LANG_PROFILES = ("english", "devanagari")


def tokenize_line(line: str, lang_profile: str = "english") -> list[str]:
    """Tokenize a single sentence.

    Splits on whitespace, then separates punctuation (ASCII classes plus
    danda and double danda) into standalone tokens. The english profile
    lowercases as a deterministic stand-in for truecasing.
    """
    if lang_profile not in LANG_PROFILES:
        raise CorpusError(f"unknown language profile: {lang_profile!r}")
    if lang_profile == "english":
        line = line.lower()
    tokens: list[str] = []
    for word in line.split():
        tokens.extend(_split_punct(word))
    return tokens


def tokenize(text: str, lang_profile: str = "english") -> list[list[str]]:
    """Tokenize raw text, one token sequence per input line. Equal tokens
    share one string object, so a corpus keeps each distinct word once."""
    share = {}.setdefault  # a token -> its first equal string
    lines = (tokenize_line(line, lang_profile) for line in text.splitlines())
    return [[*map(share, tokens, tokens)] for tokens in lines]


def detokenize(tokens: list[str], lang_profile: str = "english") -> str:
    """Join tokens with spaces and re-attach closing punctuation."""
    out: list[str] = []
    for tok in tokens:
        if out and tok in _CLOSING_PUNCT:
            out[-1] += tok
        else:
            out.append(tok)
    return " ".join(out)


def clean(pairs: list[SentencePair], max_len: int = 80) -> list[SentencePair]:
    """Drop pairs with an empty side or a side longer than max_len."""
    if max_len < 1:
        raise CorpusError(f"max_len must be >= 1, got {max_len}")
    return [
        p
        for p in pairs
        if p.source and p.target and len(p.source) <= max_len and len(p.target) <= max_len
    ]


def read_text(path: str) -> str:
    """Read a UTF-8 text file, reporting the byte offset of any bad byte; a
    file that cannot be read (missing, a directory, unreadable) is a
    CorpusError naming it."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CorpusError(f"{path}: cannot read: {exc.strerror}") from exc
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorpusError(f"{path}: invalid UTF-8 at byte offset {exc.start}") from exc


def read_sentences(path: str, lang_profile: str = "english") -> list[list[str]]:
    return tokenize(read_text(path), lang_profile)


def read_parallel(
    source_path: str,
    target_path: str,
    source_profile: str = "english",
    target_profile: str = "devanagari",
) -> list[SentencePair]:
    """Read a parallel corpus from two line-aligned files."""
    src = read_sentences(source_path, source_profile)
    tgt = read_sentences(target_path, target_profile)
    if len(src) != len(tgt):
        raise CorpusError(
            f"parallel corpus line count mismatch: {source_path} has {len(src)}, "
            f"{target_path} has {len(tgt)}"
        )
    return [SentencePair(s, t) for s, t in zip(src, tgt)]
