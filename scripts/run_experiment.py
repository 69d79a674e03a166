#!/usr/bin/env python3
"""End-to-end experiment on the synthetic fixture: train, tune, decode,
evaluate, and print the report. A minimal reproduction of the full flow
without having to hand-write a config.
"""

import argparse
import os
import sys

from smtkit.cli import main as smtkit_main
from smtkit.synthdata import write_fixture_tree

CONFIG_TEMPLATE = """\
paths.train_source = {root}/train.src
paths.train_target = {root}/train.tgt
paths.dev_source = {root}/dev.src
paths.dev_target = {root}/dev.tgt
paths.test_source = {root}/test.src
paths.test_target = {root}/test.tgt
paths.mono_target = {root}/mono.tgt
paths.train_trees = {root}/train.conllu
paths.dev_trees = {root}/dev.conllu
paths.test_trees = {root}/test.conllu
paths.model_dir = {root}/model
lm.order = {order}
align.iterations = {align_iterations}
decoder.kind = {kind}
tune.enabled = {tune}
tune.iterations = {tune_iterations}
tune.nbest = 20
"""


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", default="experiment")
    parser.add_argument("--train", type=int, default=1000)
    parser.add_argument("--dev", type=int, default=40)
    parser.add_argument("--test", type=int, default=100)
    parser.add_argument("--order", type=int, default=3)
    parser.add_argument("--align-iterations", type=int, default=4)
    parser.add_argument("--kind", choices=("phrase", "hier", "tree"), default="phrase")
    parser.add_argument("--no-tune", action="store_true")
    parser.add_argument("--tune-iterations", type=int, default=2)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    os.makedirs(args.workdir, exist_ok=True)
    write_fixture_tree(args.train, args.dev, args.test, args.seed, args.workdir)
    config_path = os.path.join(args.workdir, "pipeline.cfg")
    with open(config_path, "w", encoding="utf-8") as fh:
        fh.write(
            CONFIG_TEMPLATE.format(
                root=args.workdir,
                order=args.order,
                align_iterations=args.align_iterations,
                kind=args.kind,
                tune="false" if args.no_tune else "true",
                tune_iterations=args.tune_iterations,
            )
        )
    code = smtkit_main(["--seed", str(args.seed), "pipeline", "--config", config_path])
    if code != 0:
        return code
    report = os.path.join(args.workdir, "model", "report.txt")
    with open(report, encoding="utf-8") as fh:
        print(fh.read(), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
