"""Spans around calls into smtkit's modules, recorded from outside the package.

`install` replaces module attributes with timing wrappers for the life of the
process that calls it; the package's own files are not changed. Spans stay in
memory and are written out once, after the run.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    ident: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1].ident if self._stack else None
        span = Span(len(self.spans), name, parent, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def wrap(self, owner, attr: str, name: str, on_return=None) -> None:
        """Time every call of owner.attr; on_return(span, args, result) may annotate."""
        inner = getattr(owner, attr)

        @functools.wraps(inner)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = inner(*args, **kwargs)
            finally:
                self.close(span)
            if on_return is not None:
                on_return(span, args, result)
            return result

        setattr(owner, attr, traced)

    def write(self, path: str) -> None:
        rows = [
            {"id": s.ident, "name": s.name, "parent": s.parent,
             "start": s.start, "end": s.end, **({"attrs": s.attrs} if s.attrs else {})}
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)

    # -- aggregation ---------------------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, *names: str) -> float:
        return sum(s.duration for s in self.spans if s.name in names)

    def layer_self_times(self) -> dict[str, float]:
        """Per layer: time in its spans not covered by their child spans."""
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
        out: dict[str, float] = {}
        for s in self.spans:
            out[s.layer] = out.get(s.layer, 0.0) + s.duration - child_time.get(s.ident, 0.0)
        return out

    def under(self, span: Span, ancestor_name: str) -> bool:
        parent = span.parent
        while parent is not None:
            if self.spans[parent].name == ancestor_name:
                return True
            parent = self.spans[parent].parent
        return False


def install(tracer: Tracer) -> dict:
    """Wrap the public functions the pipeline calls; returns captured values.

    The wrappers sit where the caller looks the name up: module attributes
    for `module.function` calls, and the names `cli` imported from
    `smtkit.decoder`.
    """
    from smtkit import align, cli, corpus, deptree, evaluate, lm, phrasetab, ruletab, tune

    captured: dict = {"em": [], "pool_size": 0}

    def keep_len(span, args, result):
        span.attrs["n"] = len(result)

    def keep_em(span, args, result):
        captured["em"].append((span.name, list(result[-1])))
        span.attrs["iterations"] = len(result[-1])

    def keep_table(span, args, result):
        table = result[0] if isinstance(result, tuple) else result
        span.attrs["n"] = len(table)
        span.attrs["pairs"] = len(args[0])

    def keep_ngrams(span, args, result):
        span.attrs["n"] = sum(result.ngram_counts())

    def keep_pool(span, args, result):
        captured["pool_size"] = args[0].size()

    for name in ("read_text", "tokenize"):
        tracer.wrap(corpus, name, f"corpus.{name}")
    tracer.wrap(corpus, "clean", "corpus.clean", keep_len)
    tracer.wrap(deptree, "parse_conllu", "deptree.parse_conllu")
    tracer.wrap(lm, "train_lm", "lm.train_lm", keep_ngrams)
    tracer.wrap(lm, "write_arpa", "lm.write_arpa")
    tracer.wrap(align, "train_ibm1", "align.train_ibm1", keep_em)
    tracer.wrap(align, "train_ibm2", "align.train_ibm2", keep_em)
    for name in ("viterbi_align", "symmetrize", "format_links", "write_ttable"):
        tracer.wrap(align, name, f"align.{name}")
    tracer.wrap(phrasetab, "build_phrase_table", "phrasetab.build_phrase_table", keep_table)
    tracer.wrap(phrasetab, "extract_reordering", "phrasetab.extract_reordering", keep_table)
    for name in ("write_phrase_table", "write_reordering_table"):
        tracer.wrap(phrasetab, name, f"phrasetab.{name}")
    tracer.wrap(ruletab, "build_tree_rule_table", "ruletab.build_tree_rule_table", keep_table)
    tracer.wrap(ruletab, "write_tree_rule_table", "ruletab.write_tree_rule_table")
    for name in ("decode_phrase", "decode_tree", "PhraseModels", "TreeModels"):
        tracer.wrap(cli, name, f"decoder.{name}")
    tracer.wrap(tune, "mert", "tune.mert")
    tracer.wrap(tune, "optimize_pool", "tune.optimize_pool", keep_pool)
    for name in ("line_search", "pool_bleu"):
        tracer.wrap(tune, name, f"tune.{name}")
    for name in ("bleu", "wer", "precision_recall_f", "meteor_lite"):
        tracer.wrap(evaluate, name, f"evaluate.{name}")
    return captured


def install_load(tracer: Tracer) -> list:
    """Wrap the calls of cli's model loading path; returns the models it builds.

    Only the loaders are wrapped, not the decoders, so decoding runs untraced.
    """
    from smtkit import cli, lm, phrasetab, ruletab

    built: list = []

    def keep_models(span, args, result):
        built.append(result)

    tracer.wrap(lm, "read_arpa", "lm.read_arpa")
    for name in ("read_phrase_table", "read_reordering_table"):
        tracer.wrap(phrasetab, name, f"phrasetab.{name}")
    tracer.wrap(ruletab, "read_tree_rule_table", "ruletab.read_tree_rule_table")
    for name in ("PhraseModels", "TreeModels"):
        tracer.wrap(cli, name, f"decoder.{name}", keep_models)
    return built


def load_metrics(load_spans: list[Span]) -> dict[str, float]:
    """The set-up parts of one model load, from its spans."""

    def total(*names):
        return sum(s.duration for s in load_spans if s.name in names)

    return {
        "lm.arpa_read_s": total("lm.read_arpa"),
        "phrasetab.read_s": total("phrasetab.read_phrase_table", "phrasetab.read_reordering_table"),
        "ruletab.read_s": total("ruletab.read_tree_rule_table"),
        "decoder.models_s": total("decoder.PhraseModels", "decoder.TreeModels"),
    }


DECODE_SPANS = ("decoder.decode_phrase", "decoder.decode_tree")


def layer_metrics(tracer: Tracer, captured: dict) -> dict[str, float]:
    """The per-layer metrics of one traced pipeline call."""
    self_times = tracer.layer_self_times()
    decodes = [s for s in tracer.spans if s.name in DECODE_SPANS]
    mert_decodes = [s for s in decodes if tracer.under(s, "tune.mert")]
    test_decodes = [s for s in decodes if not tracer.under(s, "tune.mert")]
    ibm1 = tracer.named("align.train_ibm1")
    ibm1_iterations = sum(s.attrs["iterations"] for s in ibm1)
    phrase_spans = tracer.named("phrasetab.build_phrase_table")
    rule_spans = tracer.named("ruletab.build_tree_rule_table")
    line_searches = tracer.named("tune.line_search")
    extract_s = tracer.total("phrasetab.build_phrase_table")

    def mean_ms(spans):
        return 1000.0 * sum(s.duration for s in spans) / len(spans) if spans else 0.0

    return {
        "decoder.test_ms_per_sent": mean_ms(test_decodes),
        "decoder.mert_ms_per_call": mean_ms(mert_decodes),
        "decoder.calls": len(decodes),
        "align.ibm1_s": tracer.total("align.train_ibm1"),
        "align.ibm2_s": tracer.total("align.train_ibm2"),
        "align.em_iterations": sum(len(ll) for _, ll in captured["em"]),
        "align.em_iteration_ms": (
            1000.0 * tracer.total("align.train_ibm1") / ibm1_iterations if ibm1_iterations else 0.0
        ),
        "align.viterbi_s": tracer.total("align.viterbi_align"),
        "align.symmetrize_s": tracer.total("align.symmetrize"),
        "ruletab.extract_s": sum(s.duration for s in rule_spans),
        "ruletab.rules": sum(s.attrs["n"] for s in rule_spans),
        "phrasetab.extract_s": extract_s,
        "phrasetab.reorder_s": tracer.total("phrasetab.extract_reordering"),
        "phrasetab.entries": sum(s.attrs["n"] for s in phrase_spans),
        "phrasetab.pairs_per_s": (
            sum(s.attrs["pairs"] for s in phrase_spans) / extract_s if extract_s else 0.0
        ),
        "lm.train_s": tracer.total("lm.train_lm"),
        "lm.ngrams": sum(s.attrs["n"] for s in tracer.named("lm.train_lm")),
        "lm.arpa_write_s": tracer.total("lm.write_arpa"),
        "corpus.tokenize_s": tracer.total("corpus.tokenize"),
        "corpus.clean_s": tracer.total("corpus.clean"),
        "corpus.pairs_kept": sum(s.attrs["n"] for s in tracer.named("corpus.clean")),
        "deptree.parse_s": tracer.total("deptree.parse_conllu"),
        "tune.mert_s": self_times.get("tune", 0.0),
        "tune.optimize_s": tracer.total("tune.optimize_pool"),
        "tune.line_search_calls": len(line_searches),
        "tune.line_search_ms": mean_ms(line_searches),
        "tune.pool_size": captured["pool_size"],
        "tune.iterations": len(tracer.named("tune.optimize_pool")),
        "evaluate.s": self_times.get("evaluate", 0.0),
        "cli.self_s": self_times.get("cli", 0.0),
    }
