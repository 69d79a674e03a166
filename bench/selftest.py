#!/usr/bin/env python3
"""Self-test of the benchmark's output checks: each must reject a corrupted output.

    python3 bench/selftest.py

Runs `smtkit pipeline` once on a tiny fixture (a few seconds), shows that
every check in checks.py passes on its output, then corrupts one output at a
time (a swapped hypothesis line, a perturbed weight, an edited report, a
skewed LM probability, a falling EM likelihood, a changed artifact byte) and
shows that the matching check rejects it. It also checks that BENCHMARK.json
names the workloads defined in workloads.py, that the host-speed probes run
inside a call, and how the decode rate weights sentence lengths.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
import unittest
from collections import Counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
from workloads import WORKLOADS, Workload, pipeline_config  # noqa: E402

TINY = Workload(
    name="tiny", kind="phrase", train=60, dev=5, test=6,
    config=("lm.order = 3", "align.iterations = 4", "reorder.enabled = true",
            "tune.enabled = true", "tune.iterations = 1", "tune.nbest = 5"),
    rounds=1, decode_count=6, bleu_floor=0.3,
)


class ChecksRejectCorruption(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        from smtkit.cli import main
        from smtkit.synthdata import write_fixture_tree

        cls.tmp = os.path.join(BENCH, "work", "selftest")
        shutil.rmtree(cls.tmp, ignore_errors=True)
        os.makedirs(cls.tmp)
        fixture = os.path.join(cls.tmp, "fixture")
        write_fixture_tree(TINY.train, TINY.dev, TINY.test, 7, fixture)
        config = os.path.join(cls.tmp, "pipeline.cfg")
        with open(config, "w", encoding="utf-8") as fh:
            fh.write(pipeline_config(TINY, fixture, os.path.join(cls.tmp, "model")))
        if main(["--seed", "7", "pipeline", "--config", config]) != 0:
            raise RuntimeError("smtkit pipeline failed on the self-test fixture")
        cls.model = os.path.join(cls.tmp, "model")
        cls.refs = checks.read_tokens(os.path.join(fixture, "test.tgt"))

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def corrupted_copy(self, name: str, edit) -> str:
        """A copy of the model directory with one file passed through edit(text)."""
        copy = tempfile.mkdtemp(dir=self.tmp)
        shutil.rmtree(copy)
        shutil.copytree(self.model, copy)
        path = os.path.join(copy, name)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        changed = edit(text)
        self.assertNotEqual(changed, text, f"the corruption of {name} changed nothing")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(changed)
        return copy

    def assertRejects(self, check: str, call, *args):
        with self.assertRaises(checks.CheckFailed) as caught:
            call(*args)
        self.assertEqual(caught.exception.check, check)

    def test_clean_output_passes_every_check(self):
        bleu = checks.check_report_bleu(self.model, self.refs)
        self.assertGreater(checks.check_nbest_scores(self.model), 0)
        checks.check_translations(checks.read_lines(os.path.join(self.model, "test.hyp")), self.model)
        checks.check_bleu_floor(bleu, TINY.bleu_floor)
        self.assertGreater(checks.check_lm_normalized(os.path.join(self.model, "lm.arpa"), self.refs), 1)
        checks.check_em_monotone([("align.train_ibm1", [-30.0, -20.0, -19.5])])
        checks.check_same_hashes(checks.artifact_hashes(self.model), checks.artifact_hashes(self.model))

    def test_a_rejects_edited_report(self):
        def edit(text):
            lines = text.splitlines(keepends=True)
            name, value = lines[0].rstrip("\n").split("\t")
            lines[0] = f"{name}\t{float(value) - 0.01:.6f}\n"
            return "".join(lines)

        self.assertRejects("a", checks.check_report_bleu, self.corrupted_copy("report.txt", edit), self.refs)

    def test_a_rejects_swapped_hypothesis_against_report(self):
        def swap_words(text):
            lines = text.splitlines(keepends=True)
            words = lines[0].split()
            words[0], words[-1] = words[-1], words[0]
            lines[0] = " ".join(words) + "\n"
            return "".join(lines)

        self.assertRejects("a", checks.check_report_bleu, self.corrupted_copy("test.hyp", swap_words), self.refs)

    def test_b_rejects_perturbed_weight(self):
        def edit(text):
            lines = text.splitlines(keepends=True)
            index = next(i for i, l in enumerate(lines) if l.startswith("lm\t"))
            value = float(lines[index].split("\t")[1])
            lines[index] = f"lm\t{value + 1e-6!r}\n"
            return "".join(lines)

        self.assertRejects("b", checks.check_nbest_scores, self.corrupted_copy("weights.txt", edit))

    def test_c_rejects_swapped_hypothesis_line(self):
        lines = checks.read_lines(os.path.join(self.model, "test.hyp"))
        first = next(i for i in range(1, len(lines)) if lines[i] != lines[0])
        lines[0], lines[first] = lines[first], lines[0]
        self.assertRejects("c", checks.check_translations, lines, self.model)

    def test_c_translate_phase_reproduces_test_hyp(self):
        import child

        args = argparse.Namespace(
            kind="phrase", model_dir=self.model, input=os.path.join(self.tmp, "fixture", "test.src"),
            count=TINY.test, loads=2, seconds=0.0,
        )
        result = child.run_translate(args)
        checks.check_translations(result["translations"], self.model)
        samples = result["setup_samples"]
        self.assertGreaterEqual(len(samples["setup_s"]), 2)
        for part in ("lm.arpa_read_s", "phrasetab.read_s", "decoder.models_s"):
            self.assertGreater(min(samples[part]), 0.0, part)

    def test_d_rejects_bleu_under_floor(self):
        hyps = [list(reversed(ref)) for ref in self.refs]
        self.assertRejects("d", checks.check_bleu_floor, checks.corpus_bleu(hyps, self.refs), TINY.bleu_floor)

    def test_e_rejects_unnormalized_lm(self):
        def edit(text):
            lines = text.splitlines(keepends=True)
            index = next(i for i, l in enumerate(lines) if "\t</s>\t" in l)
            logp, rest = lines[index].split("\t", 1)
            lines[index] = f"{float(logp) + 0.1!r}\t{rest}"
            return "".join(lines)

        copy = self.corrupted_copy("lm.arpa", edit)
        self.assertRejects("e", checks.check_lm_normalized, os.path.join(copy, "lm.arpa"), self.refs)

    def test_e_rejects_falling_em_likelihood(self):
        self.assertRejects("e", checks.check_em_monotone, [("align.train_ibm2", [-30.0, -20.0, -20.5])])

    def test_f_rejects_changed_artifact(self):
        copy = self.corrupted_copy("phrase-table.txt", lambda text: text.replace("|||", "||| ", 1))
        self.assertRejects(
            "f", checks.check_same_hashes, checks.artifact_hashes(self.model), checks.artifact_hashes(copy)
        )

    def test_own_bleu_matches_the_package_on_clean_output(self):
        from smtkit.evaluate import bleu

        hyps = checks.read_tokens(os.path.join(self.model, "test.hyp"))
        self.assertAlmostEqual(checks.corpus_bleu(hyps, self.refs), bleu(hyps, self.refs).score, places=12)


class BenchmarkFileMatchesWorkloads(unittest.TestCase):
    def test_workload_names(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(WORKLOADS))

    def test_hash_registry_key_follows_the_config(self):
        import run

        config = pipeline_config(TINY, "fixture", "model")
        self.assertEqual(run.source_digest(TINY, config), run.source_digest(TINY, config))
        self.assertNotEqual(run.source_digest(TINY, config), run.source_digest(TINY, config + "lm.order = 4\n"))


class Scaling(unittest.TestCase):
    def test_interrupts_probe_inside_a_call_and_time_the_probes(self):
        import hostspeed

        with hostspeed.Interrupts() as host:
            end = time.perf_counter() + 2.2 * hostspeed.INTERRUPT_S
            while time.perf_counter() < end:
                pass
        self.assertGreaterEqual(len(host.probes), 2)
        self.assertAlmostEqual(host.probe_s, sum(host.probes))
        self.assertGreater(hostspeed.to_reference(host.probes), 0.0)

    def test_length_mix_rate_weights_lengths_by_training_share(self):
        import run

        # 6-word sentences take 1 s, 9-word ones 3 s; training holds 3 : 1
        rounds = [{
            "translate": {"sentence_s": [2.0, 2.0, 6.0], "passes": 2, "to_reference": 0.5},
            "decode_lengths": [6, 6, 9],
            "train_lengths": Counter({6: 30, 9: 10, 12: 5}),
        }]
        self.assertAlmostEqual(run.length_mix_rate(rounds), 1.0 / (0.75 * 0.5 + 0.25 * 1.5))


if __name__ == "__main__":
    unittest.main()
