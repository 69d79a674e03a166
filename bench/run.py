#!/usr/bin/env python3
"""smtkit benchmark: the real pipeline on a synthetic fixture, then translation.

    python3 bench/run.py --workload phrase-msd --seed 1 --seconds 4 --trace 0

Run from the root of a checkout; smtkit is imported from its `src`
directory. One run is a few rounds. Each round makes a fixture from --seed
and the round's number, runs `smtkit pipeline` on it in a fresh process, and
then, in another fresh process, decodes the start of its test split with the
written model in whole passes, reloading the model at even intervals, until
its share of --seconds of decoding has passed. Times are scaled to the
reference machine's speed by a probe timed during the work (hostspeed.py).
pipeline_s is the mean over the rounds, set-up time the median of all loads
and the decode rate is weighted by sentence length (length_mix_rate). Every
run checks the outputs (see checks.py). With
--trace 1 it also runs the pipeline once with spans around each module's
functions and reports the per-layer metrics instead of the end-to-end ones.
See README.md.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
Generated files go under bench/work/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(BENCH, "work")
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import hostspeed  # noqa: E402
from workloads import WORKLOADS, pipeline_config  # noqa: E402

RUN_BUDGET_S = 170.0  # a run must end within 180 s
SETUP_LOADS_PER_ROUND = 6  # set-up time is the median of all rounds' loads

class RunFailed(Exception):
    pass


def metric_units(kind: str) -> dict[str, str]:
    """Names and units of the metrics BENCHMARK.json lists under `kind`."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def run_child(args: list[str], cwd: str, deadline: float) -> dict:
    """Run child.py to completion (killed at the deadline); its last stdout line."""
    command = [sys.executable, os.path.join(BENCH, "child.py"), *args]
    try:
        done = subprocess.run(
            command, cwd=cwd, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"child {args[0]} ran past the run's time budget") from exc
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RunFailed(f"child {args[0]} exited with code {done.returncode}")
    return json.loads(lines[-1])


def run_pipeline(workdir: str, name: str, config: str, seed: int, trace: bool,
                 deadline: float) -> dict:
    run_dir = os.path.join(workdir, name)
    os.makedirs(run_dir)
    with open(os.path.join(run_dir, "pipeline.cfg"), "w", encoding="utf-8") as fh:
        fh.write(config)
    args = ["pipeline", "--seed", str(seed), "--jobs", str(len(os.sched_getaffinity(0)))]
    if trace:
        args += ["--trace", "--lm-queries", "../fixture/test.tgt"]
    result = run_child(args, run_dir, deadline)
    if result["exit_code"] != 0:
        raise RunFailed(f"smtkit pipeline exited with code {result['exit_code']}")
    result["model_dir"] = os.path.join(run_dir, "model")
    return result


def source_digest(workload, config: str) -> str:
    """sha256 of what the artifacts depend on: the workload, its config text
    and every file of the smtkit package."""
    digest = hashlib.sha256(repr(workload).encode("utf-8"))
    digest.update(config.encode("utf-8"))
    package = os.path.join(ROOT, "src", "smtkit")
    for folder, dirs, files in os.walk(package):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, package).encode("utf-8"))
            with open(path, "rb") as fh:
                digest.update(hashlib.sha256(fh.read()).digest())
    return digest.hexdigest()[:16]


def check_against_registry(key: str, hashes: dict[str, str]) -> None:
    """(f) across runs: the first run of a key records its artifacts' hashes.

    The key names the smtkit source and the config, so a change to either
    starts a new entry instead of failing against the old one.
    """
    path = os.path.join(WORK, "hashes.json")
    registry = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            registry = json.load(fh)
    if key in registry:
        checks.check_same_hashes(registry[key], hashes)
        return
    registry[key] = hashes
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(registry, fh, indent=1, sort_keys=True)


def length_mix_rate(rounds: list[dict]) -> float:
    """Sentences decoded per second, on the training sentences' mix of lengths.

    A sentence's decode time grows fast with its length, so the mean time of
    the decoded sentences of each source length, at the reference speed, is
    weighted by that length's share of the rounds' training sentences. A
    decode set that happens to hold many long sentences then does not read
    as a slow decoder. Lengths no decoded sentence has are left out.
    """
    seconds: dict[int, float] = defaultdict(float)
    decodes: Counter = Counter()
    train: Counter = Counter()
    for timed in rounds:
        translate = timed["translate"]
        for length, took in zip(timed["decode_lengths"], translate["sentence_s"]):
            seconds[length] += took * translate["to_reference"]
            decodes[length] += translate["passes"]
        train += timed["train_lengths"]
    shares = {length: train[length] for length in decodes}
    mean_s = sum(shares[n] * seconds[n] / decodes[n] for n in shares) / sum(shares.values())
    return 1.0 / mean_s


def benchmark(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    workload = WORKLOADS[workload_name]
    from smtkit.synthdata import write_fixture_tree

    workdir = os.path.join(WORK, workload.name, f"seed-{seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    config = pipeline_config(workload, "../fixture", "model")
    digest = source_digest(workload, config)

    # rounds of (pipeline call, translate slice): every metric samples the
    # whole run, so a slow spell of the host is shared out among them. Each
    # round has its own fixture, drawn from --seed, so that a run's medians
    # rest on several fixtures rather than on one.
    test_input = "test.conllu" if workload.kind == "tree" else "test.src"
    rounds = []
    traced = None
    for k in range(workload.rounds):
        round_seed = workload.rounds * seed + k
        round_dir = os.path.join(workdir, f"round-{k}")
        fixture = os.path.join(round_dir, "fixture")
        write_fixture_tree(workload.train, workload.dev, workload.test, round_seed, fixture)
        timed = run_pipeline(round_dir, "run", config, round_seed, False, deadline)
        if trace and k == 0:
            # next to an untraced call, so that host drift adds little to the overhead
            traced = run_pipeline(round_dir, "trace-run", config, round_seed, True, deadline)
        timed["translate"] = run_child(
            ["translate", "--kind", workload.kind, "--model-dir", timed["model_dir"],
             "--input", os.path.join(fixture, test_input),
             "--count", str(workload.decode_count), "--loads", str(SETUP_LOADS_PER_ROUND),
             "--seconds", str(seconds / workload.rounds)],
            round_dir, deadline,
        )
        translate = timed["translate"]
        # times at the reference machine's speed (hostspeed.py)
        timed["pipeline_ref_s"] = timed["pipeline_s"] * hostspeed.to_reference(timed["probes"])
        translate["to_reference"] = hostspeed.to_reference(translate["probes"])
        print(f"round {k}: seed {round_seed}, pipeline {timed['pipeline_s']:.3f} s as timed, "
              f"{timed['pipeline_ref_s']:.3f} s at the reference speed; "
              f"{translate['sentences'] / translate['decode_s']:.4g} sentences/s as timed, "
              f"{translate['sentences'] / translate['decode_s'] / translate['to_reference']:.4g} "
              f"at the reference speed", file=sys.stderr)
        timed["refs"] = checks.read_tokens(os.path.join(fixture, "test.tgt"))
        timed["decode_lengths"] = [
            len(words) for words in checks.read_tokens(os.path.join(fixture, "test.src"))
        ][: workload.decode_count]
        timed["train_lengths"] = Counter(
            len(words) for words in checks.read_tokens(os.path.join(fixture, "train.src"))
        )
        timed["key"] = f"{workload.name}/{digest}/seed-{round_seed}"
        rounds.append(timed)

    hyps, refs = [], []
    for timed in rounds:
        model_dir = timed["model_dir"]
        bleu = checks.check_report_bleu(model_dir, timed["refs"])
        checks.check_nbest_scores(model_dir)
        checks.check_bleu_floor(bleu, workload.bleu_floor)
        checks.check_lm_normalized(os.path.join(model_dir, "lm.arpa"), timed["refs"])
        hashes = checks.artifact_hashes(model_dir)
        check_against_registry(timed["key"], hashes)
        if timed is rounds[0] and traced is not None:
            checks.check_same_hashes(hashes, checks.artifact_hashes(traced["model_dir"]))
        if not timed["translate"]["stable"]:
            raise checks.CheckFailed("c", "decode passes over the same input disagree")
        checks.check_translations(timed["translate"]["translations"], model_dir)
        hyps += checks.read_tokens(os.path.join(model_dir, "test.hyp"))
        refs += timed["refs"]

    translates = [timed["translate"] for timed in rounds]
    if traced is None:
        metrics = {
            # the mean: the rounds' fixtures differ by a tenth or so, and three
            # calls' mean varies less between seeds than their median
            "pipeline_s": statistics.fmean(timed["pipeline_ref_s"] for timed in rounds),
            "setup_s": statistics.median(
                v * t["to_reference"] for t in translates for v in t["setup_samples"]["setup_s"]
            ),
            "decode_sent_per_s": length_mix_rate(rounds),
            # corpus BLEU over every round's test translations
            "bleu": checks.corpus_bleu(hyps, refs),
            "peak_rss_mb": statistics.median(timed["peak_rss_mb"] for timed in rounds),
        }
        units = metric_units("end_to_end")
    else:
        checks.check_em_monotone(traced["em"])
        metrics = dict(traced["layers"])
        # the set-up parts, as timed (per-layer times are not scaled)
        for name in translates[0]["setup_samples"]:
            if name != "setup_s":
                metrics[name] = statistics.median(
                    v for t in translates for v in t["setup_samples"][name]
                )
        metrics["trace.overhead_s"] = traced["pipeline_s"] - rounds[0]["pipeline_s"]
        units = metric_units("per_layer")
    return {
        "correct": True,
        "attempted": len(rounds) + bool(traced) + sum(t["sentences"] for t in translates),
        "failed": sum(t["failed"] for t in translates),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    package = os.path.join(ROOT, "src", "smtkit", "__init__.py")
    if not os.path.isfile(package):
        print(f"no smtkit source at {package}: run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except checks.CheckFailed as exc:
        print(exc, file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1
    except RunFailed as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
