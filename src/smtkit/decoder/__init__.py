"""Log-linear decoders: stack beam search, CKY chart and tree-to-string.

The exhaustive reference decoder that certifies the beam search lives with
the tests (`tests/decoder_oracle.py`), apart from the code it checks.
"""

from .chart import ChartConfig, ChartModels, decode_chart
from .phrase import (
    DecodeConfig,
    DecodeError,
    DecodedHypothesis,
    PhraseModels,
    Step,
    decode_phrase,
    derivation_features,
    score_derivation,
)
from .tree import TreeConfig, TreeModels, decode_tree
from .weights import FeatureWeights, format_weights, parse_weights

__all__ = [
    "ChartConfig",
    "ChartModels",
    "DecodeConfig",
    "DecodeError",
    "DecodedHypothesis",
    "FeatureWeights",
    "PhraseModels",
    "Step",
    "TreeConfig",
    "TreeModels",
    "decode_chart",
    "decode_phrase",
    "decode_tree",
    "derivation_features",
    "format_weights",
    "parse_weights",
    "score_derivation",
]
