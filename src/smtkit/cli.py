"""Command-line surface: per-stage subcommands plus an end-to-end pipeline.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal invariant
violation. All stochastic choices run off a single --seed. --jobs N spreads
independent work over N processes (`_fork_map`): the two alignment
directions, and the sentences of the pipeline's test and MERT decodes and of
`decode`, `translate` and `tune`. No output byte depends on --jobs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import marshal
import math
import os
import signal
import sys
from dataclasses import dataclass
from typing import Callable

from . import __version__, align, corpus, deptree, evaluate, lm, phrasetab, ruletab, tune
from .decoder import (
    ChartConfig,
    ChartModels,
    DecodeConfig,
    DecodeError,
    FeatureWeights,
    PhraseModels,
    TreeConfig,
    TreeModels,
    decode_chart,
    decode_phrase,
    decode_tree,
    format_weights,
    parse_weights,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class DataError(Exception):
    """A malformed input file, reported with its path."""


DATA_ERRORS = (
    corpus.CorpusError,
    deptree.ConlluError,
    lm.LmError,
    align.AlignError,
    phrasetab.PhraseError,
    evaluate.EvalError,
    DecodeError,
    DataError,
    FileNotFoundError,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        raise UsageError(message)


class UsageError(Exception):
    pass


def _read(path: str | None) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    return corpus.read_text(path)


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _split_lines(text: str) -> list[list[str]]:
    return [line.split() for line in text.splitlines()]


def _read_tokenized(path: str) -> list[list[str]]:
    return _split_lines(corpus.read_text(path))


def _read_file(reader, path: str):
    """Parse the file at `path` with `reader`; a parse error names the file."""
    text = corpus.read_text(path)
    try:
        return reader(text)
    except ValueError as exc:  # every reader's own error is a ValueError
        raise DataError(f"{path}: {exc}") from None


def _read_pairs(args, with_alignments: bool = True):
    """Whitespace-tokenized --source/--target pairs and, optionally, their
    --alignments; every file must have one line per sentence pair."""
    src = _read_tokenized(args.source)
    tgt = _read_tokenized(args.target)
    counts = {args.source: len(src), args.target: len(tgt)}
    links = None
    if with_alignments:
        links = _read_file(align.read_links, args.alignments)
        counts[args.alignments] = len(links)
    if len(set(counts.values())) > 1:
        found = ", ".join(f"{path} has {n}" for path, n in counts.items())
        raise corpus.CorpusError(f"line count mismatch: {found}")
    return [corpus.SentencePair(s, t) for s, t in zip(src, tgt)], links


def _require(args, *options: str) -> None:
    """A usage error naming the options (attribute names) that `--kind` needs but lacks."""
    missing = ["--" + name.replace("_", "-") for name in options if not getattr(args, name)]
    if missing:
        raise UsageError(f"--kind {args.kind} needs {' and '.join(missing)}")


def _format_sentences(sentences: list[list[str]]) -> str:
    return "".join(" ".join(s) + "\n" for s in sentences)


# ---------------------------------------------------------------------------
# pipeline configuration
# ---------------------------------------------------------------------------


@dataclass
class PipelineConfig:
    train_source: str = ""
    train_target: str = ""
    dev_source: str = ""
    dev_target: str = ""
    test_source: str = ""
    test_target: str = ""
    mono_target: str = ""
    train_trees: str = ""
    dev_trees: str = ""
    test_trees: str = ""
    model_dir: str = "model"
    source_profile: str = "english"
    target_profile: str = "devanagari"
    max_len: int = 80
    lm_order: int = 3
    lm_discount_mode: str = "counts_of_counts"
    align_iterations: int = 5
    align_model: int = 1
    align_symmetrization: str = "grow-diag-final-and"
    phrase_max_len: int = 7
    reorder_enabled: bool = False
    reorder_orientation_set: str = "msd"
    decoder_kind: str = "phrase"
    decoder_stack_size: int = 100
    decoder_distortion_limit: int = 6
    decoder_nbest: int = 1
    tune_enabled: bool = True
    tune_iterations: int = 2
    tune_nbest: int = 50
    eval_metrics: str = "bleu,wer,prf,meteor"

    _KEYS = {
        "paths.train_source": ("train_source", str),
        "paths.train_target": ("train_target", str),
        "paths.dev_source": ("dev_source", str),
        "paths.dev_target": ("dev_target", str),
        "paths.test_source": ("test_source", str),
        "paths.test_target": ("test_target", str),
        "paths.mono_target": ("mono_target", str),
        "paths.train_trees": ("train_trees", str),
        "paths.dev_trees": ("dev_trees", str),
        "paths.test_trees": ("test_trees", str),
        "paths.model_dir": ("model_dir", str),
        "corpus.source_profile": ("source_profile", str),
        "corpus.target_profile": ("target_profile", str),
        "corpus.max_len": ("max_len", int),
        "lm.order": ("lm_order", int),
        "lm.discount_mode": ("lm_discount_mode", str),
        "align.iterations": ("align_iterations", int),
        "align.model": ("align_model", int),
        "align.symmetrization": ("align_symmetrization", str),
        "phrase.max_len": ("phrase_max_len", int),
        "reorder.enabled": ("reorder_enabled", bool),
        "reorder.orientation_set": ("reorder_orientation_set", str),
        "decoder.kind": ("decoder_kind", str),
        "decoder.stack_size": ("decoder_stack_size", int),
        "decoder.distortion_limit": ("decoder_distortion_limit", int),
        "decoder.nbest": ("decoder_nbest", int),
        "tune.enabled": ("tune_enabled", bool),
        "tune.iterations": ("tune_iterations", int),
        "tune.nbest": ("tune_nbest", int),
        "eval.metrics": ("eval_metrics", str),
    }

    @classmethod
    def parse(cls, text: str) -> "PipelineConfig":
        config = cls()
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise corpus.CorpusError(f"config line {lineno}: expected 'section.key = value'")
            key, _, value = (part.strip() for part in line.partition("="))
            if key not in cls._KEYS:
                raise corpus.CorpusError(f"config line {lineno}: unknown key {key!r}")
            attr, kind = cls._KEYS[key]
            if kind is bool:
                if value.lower() not in ("true", "false", "0", "1", "yes", "no"):
                    raise corpus.CorpusError(f"config line {lineno}: bad boolean {value!r}")
                parsed = value.lower() in ("true", "1", "yes")
            elif kind is int:
                parsed = int(value)
            else:
                parsed = value
            setattr(config, attr, parsed)
        config.validate()
        return config

    def validate(self) -> None:
        closed = {
            "lm_discount_mode": ("counts_of_counts", "fixed"),
            "align_symmetrization": ("intersection", "union", "grow-diag-final-and"),
            "reorder_orientation_set": ("msd", "mslr"),
            "decoder_kind": ("phrase", "hier", "tree"),
            "source_profile": ("english", "devanagari"),
            "target_profile": ("english", "devanagari"),
        }
        for attr, values in closed.items():
            if getattr(self, attr) not in values:
                raise corpus.CorpusError(f"config: {attr} must be one of {values}")
        for attr in ("train_source", "train_target", "dev_source", "dev_target",
                     "test_source", "test_target", "mono_target", "train_trees",
                     "dev_trees", "test_trees"):
            path = getattr(self, attr)
            if path and not os.path.exists(path):
                raise corpus.CorpusError(f"config: {attr} path does not exist: {path}")
        if self.decoder_kind == "tree":
            if not (self.train_trees and self.test_trees):
                raise corpus.CorpusError("config: tree decoding needs train_trees and test_trees")
            if self.tune_enabled and not self.dev_trees:
                raise corpus.CorpusError("config: tuning a tree decoder needs dev_trees")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_tokenize(args) -> int:
    sentences = corpus.tokenize(_read(args.input), args.lang)
    _write(args.output, _format_sentences(sentences))
    return EXIT_OK


def cmd_clean(args) -> int:
    pairs, _ = _read_pairs(args, with_alignments=False)
    pairs = corpus.clean(pairs, args.max_len)
    _write(args.out_source, _format_sentences([p.source for p in pairs]))
    _write(args.out_target, _format_sentences([p.target for p in pairs]))
    return EXIT_OK


def cmd_train_lm(args) -> int:
    sentences = _read_tokenized(args.input)
    model = lm.train_lm(sentences, order=args.order, discount_mode=args.discount_mode)
    _write(args.output, lm.write_arpa(model))
    return EXIT_OK


def _train_directional(pairs, iterations, model_kind):
    t1, _ = align.train_ibm1(pairs, iterations=iterations)
    if model_kind == 2:
        t2, dist, _ = align.train_ibm2(pairs, t1, iterations=iterations)
        return t2, dist
    return t1, None


def _viterbi_rows(table, dist, pairs) -> list[tuple[int, ...]]:
    """Each pair's Viterbi alignment as the source position of each target
    word (-1 where unlinked). Held until symmetrization, a set of link
    tuples per pair would take ~1 KB a pair."""
    rows = []
    for pair in pairs:
        row = [-1] * len(pair.target)
        for i, j in align.viterbi_align(table, pair, dist):
            row[j] = i
        rows.append(tuple(row))
    return rows


def _direction(pairs, iterations, model_kind, backward: bool):
    """One direction's trained table rows and its Viterbi alignments; the
    backward direction trains on the swapped pairs."""
    if backward:
        pairs = [corpus.SentencePair(p.target, p.source) for p in pairs]
    table, dist = _train_directional(pairs, iterations, model_kind)
    return table.table, _viterbi_rows(table, dist, pairs)


def _apply(fn, items) -> tuple[list, Exception | None]:
    """fn over items in order up to the first that raises: the results
    before it and its exception (None when every item succeeded)."""
    results = []
    try:
        for item in items:
            results.append(fn(item))
    except Exception as exc:  # handed to _fork_map, which re-raises it
        return results, exc
    return results, None


def _child(fn, items, write_fd: int) -> None:
    """A forked worker's whole life: _apply fn to its items, send the
    results and the pickled exception (or None) through the pipe, and leave
    without unwinding the parent's stack."""
    status = 1
    try:
        results, failure = _apply(fn, items)
        if failure is not None:
            import pickle  # only a failure needs it; importing it costs ~0.4 MB

            failure = pickle.dumps(failure)
        with os.fdopen(write_fd, "wb") as fh:
            fh.write(marshal.dumps((results, failure)))
        status = 0
    finally:
        os._exit(status)


def _receive(reader) -> tuple[list, Exception | None]:
    """A child's (results, exception or None), read to the end of its pipe."""
    try:
        results, failure = marshal.loads(reader.read())
    except (EOFError, ValueError, TypeError):
        raise RuntimeError("a child process ended without a result") from None
    if failure is not None:
        import pickle

        failure = pickle.loads(failure)
    return results, failure


def _first_failure(outcomes: list, workers: int) -> tuple[float, Exception | None]:
    """The lowest index of a failing item among the outcomes of workers 0,
    1, ... and its exception; (inf, None) when none failed."""
    failures = [
        (worker + len(results) * workers, failure)
        for worker, (results, failure) in enumerate(outcomes)
        if failure is not None
    ]
    return min(failures, key=lambda f: f[0], default=(math.inf, None))


def _fork_map(jobs: int, fn, items: list) -> list:
    """[fn(item) for item in items], computed over min(jobs, len(items))
    processes and returned in input order.

    Worker w computes items[w::workers]: round robin, so that long and short
    items spread evenly. This process is worker 0, so its results never
    cross a pipe; every other worker is a forked child that sends its
    results back with `marshal`, so they must be built of numbers, strings,
    tuples, lists and dicts. Without os.fork, or with one worker, the loop
    runs here. If items raise, the exception of the lowest-index failing
    item is re-raised, as the serial loop would raise it. Every child is
    reaped before this returns; one whose results can no longer matter, or
    that is still running when this process fails, is killed first.
    """
    workers = min(jobs, len(items)) if hasattr(os, "fork") else 1
    if workers < 2:
        return [fn(item) for item in items]
    children: list[tuple[int, object]] = []  # (pid, pipe reader) of workers 1, 2, ...
    received = 0
    try:
        for worker in range(1, workers):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                _child(fn, items[worker::workers], write_fd)
            os.close(write_fd)
            children.append((pid, os.fdopen(read_fd, "rb")))
        outcomes = [_apply(fn, items[0::workers])]
        for worker, (_, reader) in enumerate(children, start=1):
            if worker > _first_failure(outcomes, workers)[0]:
                break  # each of this worker's items comes after a failing one
            outcomes.append(_receive(reader))
            received += 1
        failure = _first_failure(outcomes, workers)[1]
        if failure is not None:
            raise failure
        ordered = [None] * len(items)
        for worker, (results, _) in enumerate(outcomes):
            ordered[worker::workers] = results
        return ordered
    finally:
        for worker, (pid, reader) in enumerate(children, start=1):
            reader.close()
            if worker > received:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _alignments_for(pairs, iterations, model_kind, heuristic, jobs=1):
    """Both directions' tables and the symmetrized links; with jobs >= 2 the
    backward direction trains in a child while this process does the forward."""
    (fwd_rows, fwd_viterbi), (bwd_rows, bwd_viterbi) = _fork_map(
        jobs, lambda backward: _direction(pairs, iterations, model_kind, backward), [False, True]
    )
    # a backward row is indexed by source position and holds target positions
    links = [
        align.symmetrize(
            {(i, j) for j, i in enumerate(f) if i >= 0},
            {(i, j) for i, j in enumerate(b) if j >= 0},
            heuristic,
        )
        for f, b in zip(fwd_viterbi, bwd_viterbi)
    ]
    return align.TTable(fwd_rows), align.TTable(bwd_rows), links


def cmd_train_align(args) -> int:
    pairs, _ = _read_pairs(args, with_alignments=False)
    fwd, bwd, links = _alignments_for(
        pairs, args.iterations, args.model, args.symmetrization, args.jobs
    )
    _write(args.output, "".join(align.format_links(l) + "\n" for l in links))
    if args.ttable_fwd:
        _write(args.ttable_fwd, align.write_ttable(fwd))
    if args.ttable_bwd:
        _write(args.ttable_bwd, align.write_ttable(bwd))
    return EXIT_OK


def cmd_extract_phrases(args) -> int:
    pairs, links = _read_pairs(args)
    fwd = _read_file(align.read_ttable, args.ttable_fwd)
    bwd = _read_file(align.read_ttable, args.ttable_bwd)
    entries = phrasetab.build_phrase_table(pairs, links, fwd, bwd, args.max_phrase_len)
    _write(args.output, phrasetab.write_phrase_table(entries))
    return EXIT_OK


def _attach_trees(pairs, path: str) -> None:
    """Give each sentence pair its source tree from the CoNLL-U file at `path`."""
    trees = _read_file(deptree.parse_conllu, path)
    if len(trees) != len(pairs):
        raise deptree.ConlluError(f"{path}: {len(trees)} trees for {len(pairs)} sentence pairs")
    for pair, tree in zip(pairs, trees):
        pair.source_tree = tree


def cmd_extract_rules(args) -> int:
    _require(args, *(("ttable_fwd", "ttable_bwd") if args.kind == "hier" else ("trees",)))
    pairs, links = _read_pairs(args)
    if args.kind == "hier":
        fwd = _read_file(align.read_ttable, args.ttable_fwd)
        bwd = _read_file(align.read_ttable, args.ttable_bwd)
        table = ruletab.build_rule_table(pairs, links, fwd, bwd)
        _write(args.output, ruletab.write_rule_table(table))
    else:
        _attach_trees(pairs, args.trees)
        table, skipped = ruletab.build_tree_rule_table(pairs, links)
        if skipped:
            print(f"warning: skipped {skipped} non-projective sentences", file=sys.stderr)
        _write(args.output, ruletab.write_tree_rule_table(table))
    return EXIT_OK


def cmd_train_reorder(args) -> int:
    pairs, links = _read_pairs(args)
    entries = phrasetab.extract_reordering(
        pairs, links, args.orientation_set, args.sigma, args.max_phrase_len
    )
    _write(args.output, phrasetab.write_reordering_table(entries))
    return EXIT_OK


def _load_weights(path: str | None) -> FeatureWeights:
    if not path:
        return FeatureWeights()
    return _read_file(parse_weights, path)


def _parse_trees(text: str) -> list:
    if text.lstrip().startswith("<tree"):
        return deptree.parse_nested_tree_file(text)
    return deptree.parse_conllu(text)


@dataclass(frozen=True)
class _Backend:
    """How the CLI loads, configures and runs one decoder kind.

    The callables look smtkit's readers, model classes and decoders up when
    they run, not when this table is built.
    """

    table_option: str  # attribute of the required translation-table option
    read_table: Callable  # table file text -> entries
    models: Callable  # (table, lm, reordering or None) -> decoder models
    config: Callable  # (stack_size, distortion_limit, nbest) -> decoder config
    decode: Callable  # (source, models, weights, config) -> n-best hypotheses
    reads_trees: bool  # sources are dependency trees, not token lines


_BACKENDS = {
    "phrase": _Backend(
        "phrase_table",
        lambda text: phrasetab.read_phrase_table(text),
        lambda table, lm_model, reordering: PhraseModels(table, lm_model, reordering),
        lambda stack, distortion, nbest: DecodeConfig(stack, distortion, nbest),
        lambda *call: decode_phrase(*call),
        False,
    ),
    "hier": _Backend(
        "rule_table",
        lambda text: ruletab.read_rule_table(text),
        lambda table, lm_model, reordering: ChartModels(table, lm_model),
        lambda stack, distortion, nbest: ChartConfig(cell_beam=stack, nbest=nbest),
        lambda *call: decode_chart(*call),
        False,
    ),
    "tree": _Backend(
        "rule_table",
        lambda text: ruletab.read_tree_rule_table(text),
        lambda table, lm_model, reordering: TreeModels(table, lm_model),
        lambda stack, distortion, nbest: TreeConfig(k_best_per_node=stack, nbest=nbest),
        lambda *call: decode_tree(*call),
        True,
    ),
}


def _read_sources(kind: str, text: str, read_lines) -> list:
    """Decoder inputs: trees for a tree decoder, else `read_lines(text)`."""
    return _parse_trees(text) if _BACKENDS[kind].reads_trees else read_lines(text)


def _load_decoder(args):
    """decode(source, weights, nbest) over the LM, table and reordering files in args."""
    backend = _BACKENDS[args.kind]
    _require(args, backend.table_option)
    table = _read_file(backend.read_table, getattr(args, backend.table_option))
    model = _read_file(lm.read_arpa, args.lm)
    reordering = None
    if getattr(args, "reordering", None):
        reordering = _read_file(phrasetab.read_reordering_table, args.reordering)
    models = backend.models(table, model, reordering)
    return _decoder(backend, models, args.stack_size, args.distortion_limit)


def _decoder(backend: _Backend, models, stack_size: int, distortion_limit: int):
    """decode(source, weights, nbest) -> n-best, for one backend and its models.

    A hypothesis is a (tokens, score, features) tuple, the features in the
    decoder's order (line_search sums in it), so that it crosses a pipe
    unchanged and reads the same whichever process decoded it.
    """

    def decode(source, weights, nbest):
        config = backend.config(stack_size, distortion_limit, nbest)
        return [
            (h.tokens, h.score, h.features) for h in backend.decode(source, models, weights, config)
        ]

    return decode


def _decode_all(decode, jobs: int, sources: list, weights, nbest: int) -> list[list]:
    """Each source's n-best, decoded across `jobs` processes, in input order."""
    return _fork_map(jobs, lambda source: decode(source, weights, nbest), sources)


def _mert_decoder(decode, jobs: int):
    """`decode` as tune.mert's batch decoder, across `jobs` processes: a dev
    sentence that fails raises tune.SentenceError naming it."""

    def decode_batch(sources, weights, nbest):
        def decode_dev(item):
            index, source = item
            try:
                return decode(source, weights, nbest)
            except Exception as exc:
                raise tune.SentenceError(index, str(exc)) from exc

        return _fork_map(jobs, decode_dev, list(enumerate(sources)))

    return decode_batch


def _decode_sentences(sentences, args, weights, nbest) -> list[list]:
    """Load the models args name, then decode each source to its n-best
    across --jobs processes."""
    return _decode_all(_load_decoder(args), args.jobs, sentences, weights, nbest)


def _format_nbest(results) -> str:
    """One `index ||| tokens ||| name=value ... ||| score` line per hypothesis."""
    lines = []
    for index, hyps in enumerate(results):
        for tokens, score, feats in hyps:
            features = " ".join(f"{k}={feats[k]!r}" for k in sorted(feats))
            lines.append(f"{index} ||| {' '.join(tokens)} ||| {features} ||| {score!r}\n")
    return "".join(lines)


def _decode_inputs(args) -> list:
    return _read_sources(args.kind, _read(args.input), _split_lines)


def cmd_decode(args) -> int:
    sentences = _decode_inputs(args)
    weights = _load_weights(args.weights)
    _write(args.output, _format_nbest(_decode_sentences(sentences, args, weights, args.nbest)))
    return EXIT_OK


def cmd_translate(args) -> int:
    text = _read(args.input)
    if not text.strip():
        _write(args.output, "")
        return EXIT_OK
    sentences = _read_sources(args.kind, text, lambda t: corpus.tokenize(t, args.lang))
    weights = _load_weights(args.weights)
    out_lines = [
        corpus.detokenize(list(hyps[0][0]), args.target_lang)
        for hyps in _decode_sentences(sentences, args, weights, 1)
    ]
    _write(args.output, "\n".join(out_lines) + "\n")
    return EXIT_OK


def cmd_tune(args) -> int:
    dev_refs = _read_tokenized(args.dev_target)
    weights = _load_weights(args.weights)
    config = tune.MertConfig(
        nbest=args.nbest,
        max_iterations=args.iterations,
        seed=args.seed,
    )
    dev_sources = _read_sources(args.kind, corpus.read_text(args.dev_source), _split_lines)
    decode = _mert_decoder(_load_decoder(args), args.jobs)
    result = tune.mert(dev_sources, dev_refs, decode, weights, config)
    _write(args.output, format_weights(result.weights, result.history))
    return EXIT_OK


def cmd_evaluate(args) -> int:
    lines = []
    if args.human_scores:
        table = evaluate.parse_human_scores(corpus.read_text(args.human_scores))
        summary = evaluate.aggregate_human(table)
        lines.append(f"fluency_mean\t{summary.fluency_mean:.6f}")
        lines.append(f"adequacy_mean\t{summary.adequacy_mean:.6f}")
        lines.append(f"fluency_pct\t{summary.fluency_pct:.6f}")
        lines.append(f"adequacy_pct\t{summary.adequacy_pct:.6f}")
        for name, dist in (("fluency", summary.fluency_dist), ("adequacy", summary.adequacy_dist)):
            for score in sorted(dist):
                lines.append(f"{name}_share_{score}\t{dist[score]:.6f}")
        _write(args.output, "\n".join(lines) + "\n")
        return EXIT_OK
    hyps = _read_tokenized(args.hyp)
    refs = _read_tokenized(args.ref)
    if len(hyps) != len(refs):
        raise evaluate.EvalError(f"{args.hyp}: {len(hyps)} lines vs {args.ref}: {len(refs)}")
    if not hyps:
        raise evaluate.EvalError(f"{args.hyp} and {args.ref}: no sentences to score")
    metrics = [m.strip() for m in args.metrics.split(",") if m.strip()]
    lines.extend(_metric_lines(hyps, refs, metrics))
    _write(args.output, "\n".join(lines) + "\n")
    return EXIT_OK


def _metric_lines(hyps, refs, metrics) -> list[str]:
    lines = []
    for metric in metrics:
        if metric == "bleu":
            result = evaluate.bleu(hyps, refs)
            lines.append(f"bleu\t{result.score:.6f}")
            lines.append(f"brevity_penalty\t{result.brevity_penalty:.6f}")
            for n, p in enumerate(result.precisions, start=1):
                lines.append(f"bleu_p{n}\t{p:.6f}")
        elif metric == "wer":
            rates = [evaluate.wer(h, r) for h, r in zip(hyps, refs) if r]
            if not rates:
                raise evaluate.EvalError("wer: every reference is empty")
            lines.append(f"wer\t{sum(rates) / len(rates):.6f}")
        elif metric == "prf":
            scored = [evaluate.precision_recall_f(h, r) for h, r in zip(hyps, refs)]
            n = len(scored)
            lines.append(f"precision\t{sum(s[0] for s in scored) / n:.6f}")
            lines.append(f"recall\t{sum(s[1] for s in scored) / n:.6f}")
            lines.append(f"f_measure\t{sum(s[2] for s in scored) / n:.6f}")
        elif metric == "meteor":
            scores = [evaluate.meteor_lite(h, r).score for h, r in zip(hyps, refs)]
            lines.append(f"meteor\t{sum(scores) / len(scores):.6f}")
        else:
            raise evaluate.EvalError(f"unknown metric {metric!r}")
    return lines


def cmd_compare(args) -> int:
    hyps_a = _read_tokenized(args.hyp_a)
    hyps_b = _read_tokenized(args.hyp_b)
    refs = _read_tokenized(args.ref)
    report = evaluate.compare_systems(hyps_a, hyps_b, refs, top_k=args.top_k)
    _write(args.output, evaluate.format_comparison(report))
    return EXIT_OK


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


def cmd_pipeline(args) -> int:
    config_text = corpus.read_text(args.config)
    config = PipelineConfig.parse(config_text)
    model_dir = config.model_dir
    os.makedirs(model_dir, exist_ok=True)

    def out(name: str) -> str:
        return os.path.join(model_dir, name)

    # corpus preparation; trees attach before cleaning so filtering keeps
    # pairs and their parses aligned
    raw_pairs = corpus.read_parallel(
        config.train_source, config.train_target, config.source_profile, config.target_profile
    )
    if config.decoder_kind == "tree":
        _attach_trees(raw_pairs, config.train_trees)
    pairs = corpus.clean(raw_pairs, config.max_len)
    artifacts: dict[str, str] = {}

    # language model over target side plus optional monolingual data
    lm_corpus = [p.target for p in pairs]
    if config.mono_target:
        lm_corpus += corpus.read_sentences(config.mono_target, config.target_profile)
    model = lm.train_lm(lm_corpus, order=config.lm_order, discount_mode=config.lm_discount_mode)
    arpa = lm.write_arpa(model)
    _write(out("lm.arpa"), arpa)
    artifacts["lm"] = "lm.arpa"

    # word alignment
    fwd, bwd, links = _alignments_for(
        pairs, config.align_iterations, config.align_model, config.align_symmetrization, args.jobs
    )
    _write(out("alignments.txt"), "".join(align.format_links(l) + "\n" for l in links))
    _write(out("ttable-fwd.txt"), align.write_ttable(fwd))
    _write(out("ttable-bwd.txt"), align.write_ttable(bwd))
    artifacts["alignments"] = "alignments.txt"

    # translation model
    reordering = None
    if config.decoder_kind == "phrase":
        table = phrasetab.build_phrase_table(pairs, links, fwd, bwd, config.phrase_max_len)
        _write(out("phrase-table.txt"), phrasetab.write_phrase_table(table))
        artifacts["phrase_table"] = "phrase-table.txt"
        reordering = _pipeline_reordering(config, pairs, links, out, artifacts)
    elif config.decoder_kind == "hier":
        table = ruletab.build_rule_table(pairs, links, fwd, bwd)
        _write(out("rule-table.txt"), ruletab.write_rule_table(table))
        artifacts["rule_table"] = "rule-table.txt"
    else:
        table, skipped = ruletab.build_tree_rule_table(pairs, links)
        if skipped:
            print(f"warning: skipped {skipped} non-projective sentences", file=sys.stderr)
        _write(out("tree-rule-table.txt"), ruletab.write_tree_rule_table(table))
        artifacts["rule_table"] = "tree-rule-table.txt"
    backend = _BACKENDS[config.decoder_kind]
    models = backend.models(table, model, reordering)
    decode = _decoder(backend, models, config.decoder_stack_size, config.decoder_distortion_limit)

    def sources(trees_path: str, text_path: str) -> list:
        if backend.reads_trees:
            return _parse_trees(corpus.read_text(trees_path))
        return corpus.read_sentences(text_path, config.source_profile)

    # tuning
    weights = FeatureWeights()
    if config.tune_enabled:
        result = tune.mert(
            sources(config.dev_trees, config.dev_source),
            corpus.read_sentences(config.dev_target, config.target_profile),
            _mert_decoder(decode, args.jobs),
            weights,
            tune.MertConfig(
                nbest=config.tune_nbest,
                max_iterations=config.tune_iterations,
                seed=args.seed,
            ),
        )
        weights = result.weights
        _write(out("weights.txt"), format_weights(weights, result.history))
    else:
        _write(out("weights.txt"), format_weights(weights, ["untuned defaults"]))
    artifacts["weights"] = "weights.txt"

    # decode the test split
    test_sources = sources(config.test_trees, config.test_source)
    test_refs = corpus.read_sentences(config.test_target, config.target_profile)
    results = _decode_all(decode, args.jobs, test_sources, weights, config.decoder_nbest)
    hyps = [list(nbest[0][0]) for nbest in results]
    _write(out("test.nbest"), _format_nbest(results))
    _write(out("test.hyp"), _format_sentences(hyps))
    _write(
        out("test.detok"),
        "".join(corpus.detokenize(h, config.target_profile) + "\n" for h in hyps),
    )
    artifacts["translations"] = "test.hyp"

    # evaluation report
    metrics = [m.strip() for m in config.eval_metrics.split(",") if m.strip()]
    report = _metric_lines(hyps, test_refs, metrics)
    _write(out("report.txt"), "\n".join(report) + "\n")
    artifacts["report"] = "report.txt"

    manifest = {
        "format_version": 1,
        "toolkit_version": __version__,
        "config_sha256": hashlib.sha256(config_text.encode("utf-8")).hexdigest(),
        "seed": args.seed,
        "artifacts": {k: artifacts[k] for k in sorted(artifacts)},
    }
    _write(out("manifest.json"), json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def _pipeline_reordering(config, pairs, links, out, artifacts):
    if not config.reorder_enabled:
        return None
    entries = phrasetab.extract_reordering(
        pairs, links, config.reorder_orientation_set, max_phrase_len=config.phrase_max_len
    )
    _write(out("reordering-table.txt"), phrasetab.write_reordering_table(entries))
    artifacts["reordering"] = "reordering-table.txt"
    return entries


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def _add_decoder_args(parser, kinds=("phrase", "hier", "tree")):
    parser.add_argument("--kind", choices=kinds, default="phrase")
    parser.add_argument("--phrase-table")
    parser.add_argument("--rule-table")
    parser.add_argument("--reordering")
    parser.add_argument("--lm", required=True)
    parser.add_argument("--weights")
    parser.add_argument("--stack-size", type=int, default=100)
    parser.add_argument("--distortion-limit", type=int, default=6)


def build_parser() -> _Parser:
    parser = _Parser(prog="smtkit", description=__doc__)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="processes; 2 or more train the two alignment directions side by side "
        "and split every batch of sentences to decode (outputs never depend on it)",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("tokenize", help="tokenize raw text, one sentence per line")
    p.add_argument("--lang", choices=("english", "devanagari"), default="english")
    p.add_argument("--input")
    p.add_argument("--output")
    p.set_defaults(func=cmd_tokenize)

    p = sub.add_parser("clean", help="drop empty or over-long sentence pairs")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--max-len", type=int, default=80)
    p.add_argument("--out-source", required=True)
    p.add_argument("--out-target", required=True)
    p.set_defaults(func=cmd_clean)

    p = sub.add_parser("train-lm", help="train a Kneser-Ney n-gram model, ARPA output")
    p.add_argument("--input", required=True)
    p.add_argument("--order", type=int, default=3, choices=(2, 3, 4, 5))
    p.add_argument("--discount-mode", choices=("counts_of_counts", "fixed"), default="counts_of_counts")
    p.add_argument("--output")
    p.set_defaults(func=cmd_train_lm)

    p = sub.add_parser("train-align", help="IBM 1/2 EM + symmetrized alignments")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--iterations", type=int, default=5)
    p.add_argument("--model", type=int, choices=(1, 2), default=1)
    p.add_argument("--symmetrization", choices=("intersection", "union", "grow-diag-final-and"),
                   default="grow-diag-final-and")
    p.add_argument("--output")
    p.add_argument("--ttable-fwd")
    p.add_argument("--ttable-bwd")
    p.set_defaults(func=cmd_train_align)

    p = sub.add_parser("extract-phrases", help="consistent phrase pairs with scores")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--alignments", required=True)
    p.add_argument("--ttable-fwd", required=True)
    p.add_argument("--ttable-bwd", required=True)
    p.add_argument("--max-phrase-len", type=int, default=7)
    p.add_argument("--output")
    p.set_defaults(func=cmd_extract_phrases)

    p = sub.add_parser("extract-rules", help="hierarchical or tree-to-string rules")
    p.add_argument("--kind", choices=("hier", "tree"), default="hier")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--alignments", required=True)
    p.add_argument("--ttable-fwd")
    p.add_argument("--ttable-bwd")
    p.add_argument("--trees", help="CoNLL-U source trees (tree kind)")
    p.add_argument("--output")
    p.set_defaults(func=cmd_extract_rules)

    p = sub.add_parser("train-reorder", help="lexicalized reordering model")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--alignments", required=True)
    p.add_argument("--orientation-set", choices=("msd", "mslr"), default="msd")
    p.add_argument("--sigma", type=float, default=0.5)
    p.add_argument("--max-phrase-len", type=int, default=7)
    p.add_argument("--output")
    p.set_defaults(func=cmd_train_reorder)

    p = sub.add_parser("decode", help="decode tokenized input to the n-best format")
    _add_decoder_args(p)
    p.add_argument("--input")
    p.add_argument("--nbest", type=int, default=1)
    p.add_argument("--output")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("translate", help="translate raw text to detokenized output")
    _add_decoder_args(p)
    p.add_argument("--lang", choices=("english", "devanagari"), default="english")
    p.add_argument("--target-lang", choices=("english", "devanagari"), default="devanagari")
    p.add_argument("--input")
    p.add_argument("--output")
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("tune", help="minimum-error-rate training of feature weights")
    _add_decoder_args(p)
    p.add_argument("--dev-source", required=True)
    p.add_argument("--dev-target", required=True)
    p.add_argument("--iterations", type=int, default=10)
    p.add_argument("--nbest", type=int, default=100)
    p.add_argument("--output")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("evaluate", help="score hypotheses against references")
    p.add_argument("--hyp")
    p.add_argument("--ref")
    p.add_argument("--metrics", default="bleu,wer,prf,meteor")
    p.add_argument("--human-scores", help="sentence_id,fluency,adequacy file instead")
    p.add_argument("--output")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare", help="two-system comparison report")
    p.add_argument("--hyp-a", required=True)
    p.add_argument("--hyp-b", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--top-k", type=int, default=10)
    p.add_argument("--output")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("pipeline", help="end-to-end train/tune/decode/evaluate run")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        if args.jobs < 1:
            raise UsageError(f"--jobs must be >= 1, got {args.jobs}")
        return args.func(args)
    except UsageError as exc:
        print(f"smtkit: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DATA_ERRORS as exc:
        print(f"smtkit: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # internal invariant violations
        print(f"smtkit: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
