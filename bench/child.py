"""One measured phase of a benchmark run, in a fresh Python process.

    child.py pipeline  [--trace]   run `smtkit pipeline` once in the current
                                   directory and report its wall time, the
                                   host's speed during it (hostspeed.py,
                                   untraced calls only) and peak resident
                                   memory
    child.py translate ...         decode the decode set in whole passes with
                                   the written model, reloading it at even
                                   intervals to time set-up, and probing the
                                   host's speed between stretches of decoding

Each prints one JSON object as its last line of standard output. smtkit is
imported from the `src` directory of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import hostspeed  # noqa: E402


def _import_smtkit() -> None:
    import smtkit

    expected = os.path.join(ROOT, "src", "smtkit")
    if os.path.dirname(os.path.abspath(smtkit.__file__)) != expected:
        raise SystemExit(f"smtkit was imported from {smtkit.__file__}, not {expected}")


def run_pipeline(args) -> dict:
    _import_smtkit()
    from smtkit import cli

    tracer = captured = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        captured = spans.install(tracer)
    argv = ["--seed", str(args.seed), "--jobs", str(args.jobs), "pipeline", "--config", "pipeline.cfg"]
    start = time.perf_counter()
    if tracer is not None:
        # the spans would take in the probes' time, so a traced call has none
        root = tracer.open("cli.pipeline")
        code = cli.main(argv)
        tracer.close(root)
        elapsed = time.perf_counter() - start
        probes = []
    else:
        with hostspeed.Interrupts() as host:
            code = cli.main(argv)
        elapsed = time.perf_counter() - start - host.probe_s
        probes = host.probes
    result = {
        "exit_code": code,
        "pipeline_s": elapsed,  # wall time without the probes'
        "probes": probes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.write("trace.json")
        result["layers"] = spans.layer_metrics(tracer, captured)
        result["em"] = captured["em"]
        result["layers"]["lm.score_word_per_s"] = score_word_rate(args.lm_queries)
    return result


def score_word_rate(query_file: str, min_seconds: float = 0.5) -> float:
    """LM `score_word` lookups per second over a fixed query list."""
    from smtkit import corpus, lm

    model = lm.read_arpa(corpus.read_text("model/lm.arpa"))
    queries = []
    for line in corpus.read_text(query_file).splitlines():
        padded = ["<s>"] + line.split() + ["</s>"]
        for i in range(1, len(padded)):
            queries.append((tuple(padded[max(0, i - model.order + 1):i]), padded[i]))
    calls = 0
    start = time.perf_counter()
    while True:
        for history, word in queries:
            model.score_word(history, word)
        calls += len(queries)
        elapsed = time.perf_counter() - start
        if elapsed >= min_seconds:
            return calls / elapsed


def decode_args(kind: str, model_dir: str, input_path: str):
    """`smtkit decode` arguments for the written model, parsed by smtkit's parser."""
    from smtkit import cli

    def path(name):
        return os.path.join(model_dir, name)

    argv = ["decode", "--kind", kind, "--lm", path("lm.arpa"),
            "--weights", path("weights.txt"), "--input", input_path]
    if kind == "phrase":
        argv += ["--phrase-table", path("phrase-table.txt")]
        if os.path.exists(path("reordering-table.txt")):
            argv += ["--reordering", path("reordering-table.txt")]
    else:
        argv += ["--rule-table", path("tree-rule-table.txt")]
    return cli.build_parser().parse_args(argv)


def run_translate(args) -> dict:
    _import_smtkit()
    import spans
    from smtkit import cli

    decode = decode_args(args.kind, args.model_dir, args.input)
    # the decode set is input, not model: read once, outside the timed loads
    sources = cli._decode_inputs(decode)[: args.count]

    # a load is what `smtkit decode` does before its first sentence: read the
    # weights, then cli's own loading path (`_decode_sentences` on no
    # sentences reads the LM and table files and builds the models). The
    # tracer times its parts and hands back the models it built.
    tracer = spans.Tracer()
    built = spans.install_load(tracer)
    samples: dict[str, list[float]] = {}
    current: list = []

    def reload() -> None:
        current.clear()
        built.clear()
        gc.collect()
        first_span = len(tracer.spans)
        start = time.perf_counter()
        weights = cli._load_weights(decode.weights)
        cli._decode_sentences([], decode, weights, 1)
        setup_s = time.perf_counter() - start
        current.extend((built[-1], weights))
        times = spans.load_metrics(tracer.spans[first_span:])
        times["setup_s"] = setup_s
        for name, value in times.items():
            samples.setdefault(name, []).append(value)

    # the decoder settings `_decode_sentences` derives from the decode arguments
    if args.kind == "phrase":
        config = cli.DecodeConfig(decode.stack_size, decode.distortion_limit, 1)

        def decode_one(source):
            return cli.decode_phrase(source, *current, config)
    else:
        config = cli.TreeConfig(k_best_per_node=decode.stack_size, nbest=1)

        def decode_one(source):
            return cli.decode_tree(source, *current, config)

    # set-up samples are spread over the phase, one load each time another
    # 1/loads of --seconds of decode time has passed, so a slow spell of the
    # host cannot fall on all of them; a pass longer than --seconds takes no
    # more loads than a shorter one
    reload()
    load_interval = args.seconds / args.loads
    since_load = 0.0
    decoding = hostspeed.Stretches()
    sentence_s = [0.0] * len(sources)  # each sentence's decode time over all passes
    outputs: list[list[str | None]] = []
    failed = 0
    while not outputs or decoding.raw_s < args.seconds:
        lines: list[str | None] = []
        for i, source in enumerate(sources):
            if since_load >= load_interval and len(samples["setup_s"]) < args.loads:
                reload()
                since_load = 0.0
            start = time.perf_counter()
            try:
                lines.append(" ".join(decode_one(source)[0].tokens))
            except Exception as exc:  # counted as a failed operation, reported below
                print(f"decode failed: {exc!r}", file=sys.stderr)
                lines.append(None)
                failed += 1
            took = time.perf_counter() - start
            sentence_s[i] += took
            decoding.add(took)
            since_load += took
        outputs.append(lines)
    while len(samples["setup_s"]) < args.loads:
        reload()
    return {
        "setup_samples": samples,
        "decode_s": decoding.raw_s,
        "sentence_s": sentence_s,
        "passes": len(outputs),
        "probes": decoding.probes,
        "sentences": len(sources) * len(outputs),
        "failed": failed,
        "translations": outputs[0],
        "stable": all(lines == outputs[0] for lines in outputs),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="phase", required=True)
    p = sub.add_parser("pipeline")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--jobs", type=int, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--lm-queries", help="text whose sentences make the LM query list")
    p = sub.add_parser("translate")
    p.add_argument("--kind", choices=("phrase", "tree"), required=True)
    p.add_argument("--model-dir", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--loads", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()
    result = run_pipeline(args) if args.phase == "pipeline" else run_translate(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
