"""The benchmark's workloads: fixture sizes, pipeline config and decode set.

Every workload is the real `smtkit pipeline` on a synthetic fixture from
`smtkit.synthdata.write_fixture_tree`, followed by a translate phase that
reloads the written model. The sizes here are recorded in README.md; change
them only together with it.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # decoder.kind: phrase | tree
    train: int
    dev: int
    test: int
    config: tuple[str, ...]  # pipeline config lines beyond the paths and decoder.kind
    rounds: int  # (pipeline call, translate slice) rounds per run, each on its own fixture
    decode_count: int  # test sentences decoded per translate pass
    bleu_floor: float  # check (d): test BLEU may not fall below this


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="phrase-msd",
            kind="phrase",
            train=1000,
            dev=40,
            test=100,
            config=(
                "lm.order = 3",
                "align.model = 1",
                "align.iterations = 4",
                "reorder.enabled = true",
                "reorder.orientation_set = msd",
                "tune.enabled = false",
            ),
            rounds=3,
            decode_count=40,
            bleu_floor=0.30,
        ),
        Workload(
            name="tree-ibm2",
            kind="tree",
            train=6000,
            dev=40,
            test=400,
            config=(
                "lm.order = 4",
                "align.model = 2",
                "align.iterations = 4",
                "tune.enabled = true",
                "tune.iterations = 2",
                "tune.nbest = 20",
            ),
            rounds=3,
            decode_count=400,
            bleu_floor=0.80,
        ),
    )
}


def pipeline_config(workload: Workload, fixture: str, model_dir: str) -> str:
    """Config text with paths relative to the directory the pipeline runs in."""
    lines = [
        f"paths.train_source = {fixture}/train.src",
        f"paths.train_target = {fixture}/train.tgt",
        f"paths.dev_source = {fixture}/dev.src",
        f"paths.dev_target = {fixture}/dev.tgt",
        f"paths.test_source = {fixture}/test.src",
        f"paths.test_target = {fixture}/test.tgt",
        f"paths.mono_target = {fixture}/mono.tgt",
    ]
    if workload.kind == "tree":
        lines += [
            f"paths.train_trees = {fixture}/train.conllu",
            f"paths.dev_trees = {fixture}/dev.conllu",
            f"paths.test_trees = {fixture}/test.conllu",
        ]
    lines.append(f"paths.model_dir = {model_dir}")
    lines.append(f"decoder.kind = {workload.kind}")
    lines += workload.config
    return "\n".join(lines) + "\n"
