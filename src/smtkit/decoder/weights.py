"""Log-linear feature weights and feature-vector helpers.

Feature vectors are name -> value dicts; the model score of a hypothesis is
the dot product with the weights. Feature semantics:

  lm             log10 probability of the full output (with boundaries)
  phi_*, lex_*   sums of log10 translation scores of applied entries
  phrase_penalty minus the number of applied translation entries
  word_penalty   minus the number of emitted target words
  distortion     minus the summed jump distances |start_i - end_{i-1} - 1|
  reordering     summed log10 orientation probabilities
  glue           minus the number of glue rule applications
  oov            minus the number of verbatim-copied unknown words
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from operator import mul


FEATURE_FORMAT_VERSION = 1


class WeightsError(ValueError):
    """Raised for a malformed feature-weights file."""


@dataclass
class FeatureWeights:
    lm: float = 0.5
    phi_s_given_t: float = 0.2
    lex_s_given_t: float = 0.2
    phi_t_given_s: float = 0.2
    lex_t_given_s: float = 0.2
    phrase_penalty: float = 0.2
    word_penalty: float = 0.0
    distortion: float = 0.3
    reordering: float = 0.3
    glue: float = 0.3
    oov: float = 10.0

    @classmethod
    def names(cls) -> list[str]:
        return [f.name for f in fields(cls)]

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in self.names()}

    def get(self, name: str) -> float:
        return getattr(self, name)

    def replaced(self, name: str, value: float) -> "FeatureWeights":
        data = self.as_dict()
        data[name] = value
        return FeatureWeights(**data)

    def dot(self, features: dict[str, float]) -> float:
        # the same products in the features' order as a loop over
        # self.get(name) * value, without a Python call per feature
        return sum(map(mul, map(vars(self).__getitem__, features), features.values()))

    def l1_normalized(self) -> "FeatureWeights":
        scale = sum(abs(v) for v in self.as_dict().values())
        if scale == 0.0:
            return self
        return FeatureWeights(**{k: v / scale for k, v in self.as_dict().items()})


def add_features(total: dict[str, float], increment: dict[str, float]) -> None:
    for name, value in increment.items():
        total[name] = total.get(name, 0.0) + value


def format_weights(weights: FeatureWeights, history: list[str] | None = None) -> str:
    lines = [f"# feature weights, format v{FEATURE_FORMAT_VERSION}"]
    for note in history or []:
        lines.append(f"# {note}")
    for name in weights.names():
        lines.append(f"{name}\t{weights.get(name)!r}")
    return "\n".join(lines) + "\n"


def parse_weights(text: str) -> FeatureWeights:
    values: dict[str, float] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, value = line.partition("\t")
        if name not in FeatureWeights.names():
            raise WeightsError(f"line {lineno}: unknown feature weight name: {name!r}")
        if name in values:
            raise WeightsError(f"line {lineno}: feature weight {name!r} given twice")
        try:
            values[name] = float(value)
        except ValueError:
            raise WeightsError(f"line {lineno}: non-numeric weight {value!r}") from None
        if not math.isfinite(values[name]):
            raise WeightsError(f"line {lineno}: non-finite weight {value!r}")
    return FeatureWeights(**values)
