import io
import os
import time

import pytest

from smtkit import align, cli, lm, phrasetab, ruletab, tune
from smtkit.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, PipelineConfig, main
from smtkit.deptree import parse_conllu, to_nested_tree, write_conllu
from smtkit.synthdata import write_fixture_tree
from test_deptree import chain_sentence
from test_readers import BAD_RULE_LINES, BAD_TREE_RULE_LINES


def run(argv, stdin=""):
    import sys

    old_in, old_out, old_err = sys.stdin, sys.stdout, sys.stderr
    sys.stdin = io.StringIO(stdin)
    sys.stdout = io.StringIO()
    sys.stderr = io.StringIO()
    try:
        code = main(argv)
        return code, sys.stdout.getvalue(), sys.stderr.getvalue()
    finally:
        sys.stdin, sys.stdout, sys.stderr = old_in, old_out, old_err


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    write_fixture_tree(train=120, dev=12, test=15, seed=1, root=str(root))
    return root


@pytest.fixture(scope="module")
def trained(fixture_dir, tmp_path_factory):
    """A small trained model directory shared by the decode-style tests."""
    model = tmp_path_factory.mktemp("model")
    config = model / "pipeline.cfg"
    config.write_text(
        f"""
paths.train_source = {fixture_dir}/train.src
paths.train_target = {fixture_dir}/train.tgt
paths.dev_source = {fixture_dir}/dev.src
paths.dev_target = {fixture_dir}/dev.tgt
paths.test_source = {fixture_dir}/test.src
paths.test_target = {fixture_dir}/test.tgt
paths.model_dir = {model}/out
align.iterations = 3
tune.enabled = false
""",
        encoding="utf-8",
    )
    code, _, err = run(["pipeline", "--config", str(config)])
    assert code == EXIT_OK, err
    return model / "out"


class TestBasicCommands:
    def test_python_m_smtkit_help(self):
        import subprocess
        import sys

        src = os.path.dirname(os.path.dirname(cli.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        done = subprocess.run([sys.executable, "-m", "smtkit", "--help"], capture_output=True,
                              text=True, env=env, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage: smtkit ") and "pipeline" in done.stdout

    def test_unknown_subcommand_usage_error(self):
        code, _, err = run(["frobnicate"])
        assert code == EXIT_USAGE

    def test_no_subcommand_usage_error(self):
        code, _, _ = run([])
        assert code == EXIT_USAGE

    def test_tokenize_stdin_stdout(self):
        code, out, _ = run(["tokenize", "--lang", "english"], stdin="Hello, World!\n")
        assert code == EXIT_OK
        assert out == "hello , world !\n"

    def test_tokenize_missing_file_is_data_error(self):
        code, _, err = run(["tokenize", "--input", "/nonexistent/file.txt"])
        assert code == EXIT_DATA

    def test_clean(self, tmp_path):
        (tmp_path / "s.txt").write_text("a b\n\nc\n", encoding="utf-8")
        (tmp_path / "t.txt").write_text("x\ny\nz\n", encoding="utf-8")
        code, _, _ = run(
            [
                "clean",
                "--source", str(tmp_path / "s.txt"),
                "--target", str(tmp_path / "t.txt"),
                "--out-source", str(tmp_path / "s.out"),
                "--out-target", str(tmp_path / "t.out"),
            ]
        )
        assert code == EXIT_OK
        assert (tmp_path / "s.out").read_text(encoding="utf-8") == "a b\nc\n"
        assert (tmp_path / "t.out").read_text(encoding="utf-8") == "x\nz\n"

    def test_evaluate(self, tmp_path):
        (tmp_path / "h.txt").write_text("a b c d\n", encoding="utf-8")
        (tmp_path / "r.txt").write_text("a b c d\n", encoding="utf-8")
        code, out, _ = run(
            ["evaluate", "--hyp", str(tmp_path / "h.txt"), "--ref", str(tmp_path / "r.txt")]
        )
        assert code == EXIT_OK
        assert "bleu\t1.000000" in out
        assert "wer\t0.000000" in out

    def test_evaluate_human_scores(self, tmp_path):
        (tmp_path / "scores.csv").write_text("1, 4, 5\n2, 2, 3\n", encoding="utf-8")
        code, out, _ = run(["evaluate", "--human-scores", str(tmp_path / "scores.csv")])
        assert code == EXIT_OK
        assert "fluency_mean\t3.000000" in out
        assert "adequacy_mean\t4.000000" in out

    def test_compare(self, tmp_path):
        (tmp_path / "a.txt").write_text("a b c d\n", encoding="utf-8")
        (tmp_path / "b.txt").write_text("a z z z\n", encoding="utf-8")
        (tmp_path / "r.txt").write_text("a b c d\n", encoding="utf-8")
        code, out, _ = run(
            [
                "compare",
                "--hyp-a", str(tmp_path / "a.txt"),
                "--hyp-b", str(tmp_path / "b.txt"),
                "--ref", str(tmp_path / "r.txt"),
            ]
        )
        assert code == EXIT_OK
        assert "BLEU-A" in out


class TestStageCommands:
    def test_train_lm(self, fixture_dir, tmp_path):
        out = tmp_path / "lm.arpa"
        code, _, _ = run(
            ["train-lm", "--input", f"{fixture_dir}/mono.tgt", "--order", "3", "--output", str(out)]
        )
        assert code == EXIT_OK
        assert out.read_text(encoding="utf-8").startswith("\\data\\")

    def test_align_then_phrases_then_reorder(self, fixture_dir, tmp_path):
        alignments = tmp_path / "al.txt"
        fwd = tmp_path / "fwd.txt"
        bwd = tmp_path / "bwd.txt"
        code, _, _ = run(
            [
                "train-align",
                "--source", f"{fixture_dir}/train.src",
                "--target", f"{fixture_dir}/train.tgt",
                "--iterations", "3",
                "--output", str(alignments),
                "--ttable-fwd", str(fwd),
                "--ttable-bwd", str(bwd),
            ]
        )
        assert code == EXIT_OK
        assert alignments.read_text(encoding="utf-8").splitlines()
        table = tmp_path / "pt.txt"
        code, _, _ = run(
            [
                "extract-phrases",
                "--source", f"{fixture_dir}/train.src",
                "--target", f"{fixture_dir}/train.tgt",
                "--alignments", str(alignments),
                "--ttable-fwd", str(fwd),
                "--ttable-bwd", str(bwd),
                "--output", str(table),
            ]
        )
        assert code == EXIT_OK
        assert " ||| " in table.read_text(encoding="utf-8").splitlines()[0]
        reorder = tmp_path / "ro.txt"
        code, _, _ = run(
            [
                "train-reorder",
                "--source", f"{fixture_dir}/train.src",
                "--target", f"{fixture_dir}/train.tgt",
                "--alignments", str(alignments),
                "--output", str(reorder),
            ]
        )
        assert code == EXIT_OK

    def test_extract_hier_rules(self, fixture_dir, tmp_path, trained):
        out = tmp_path / "rules.txt"
        code, _, _ = run(
            [
                "extract-rules",
                "--kind", "hier",
                "--source", f"{fixture_dir}/train.src",
                "--target", f"{fixture_dir}/train.tgt",
                "--alignments", str(trained / "alignments.txt"),
                "--ttable-fwd", str(trained / "ttable-fwd.txt"),
                "--ttable-bwd", str(trained / "ttable-bwd.txt"),
                "--output", str(out),
            ]
        )
        assert code == EXIT_OK
        assert "[X]" in out.read_text(encoding="utf-8")


class TestTune:
    def test_tune_writes_weights_with_history(self, fixture_dir, trained, tmp_path):
        out = tmp_path / "tuned.txt"
        code, _, err = run(
            [
                "tune",
                "--phrase-table", str(trained / "phrase-table.txt"),
                "--lm", str(trained / "lm.arpa"),
                "--dev-source", f"{fixture_dir}/dev.src",
                "--dev-target", f"{fixture_dir}/dev.tgt",
                "--iterations", "1",
                "--nbest", "5",
                "--output", str(out),
            ]
        )
        assert code == EXIT_OK, err
        text = out.read_text(encoding="utf-8")
        assert "iteration 0" in text
        from smtkit.decoder import parse_weights

        parse_weights(text)


class TestTranslate:
    def test_empty_stdin_empty_output(self, trained):
        code, out, _ = run(
            [
                "translate",
                "--phrase-table", str(trained / "phrase-table.txt"),
                "--lm", str(trained / "lm.arpa"),
            ],
            stdin="",
        )
        assert code == EXIT_OK
        assert out == ""

    def test_translates_detokenized(self, trained):
        code, out, _ = run(
            [
                "translate",
                "--phrase-table", str(trained / "phrase-table.txt"),
                "--lm", str(trained / "lm.arpa"),
                "--weights", str(trained / "weights.txt"),
            ],
            stdin="The dog sees the house.\n",
        )
        assert code == EXIT_OK
        assert out.strip().endswith("।")

    def test_decode_nbest_format(self, trained, tmp_path):
        src = tmp_path / "in.txt"
        src.write_text("the dog sees the house .\n", encoding="utf-8")
        code, out, _ = run(
            [
                "decode",
                "--phrase-table", str(trained / "phrase-table.txt"),
                "--lm", str(trained / "lm.arpa"),
                "--input", str(src),
                "--nbest", "3",
            ]
        )
        assert code == EXIT_OK
        for line in out.splitlines():
            fields = line.split(" ||| ")
            assert len(fields) == 4
            assert fields[0] == "0"
            assert "lm=" in fields[2]


MALFORMED_ARPA = {
    "count-line": ("\\data\\\nngram 1=x\n\n\\1-grams:\n-1.0\ta\n\\end\\\n", "line 2:"),
    "probability": ("\\data\\\nngram 1=1\n\n\\1-grams:\nabc\ta\n\\end\\\n", "line 5:"),
    "back-off": (
        "\\data\\\nngram 1=1\nngram 2=1\n\n\\1-grams:\n-1.0\ta\txyz\n\n\\2-grams:\n-1.0\ta a\n\\end\\\n",
        "line 6:",
    ),
    "nan-probability": ("\\data\\\nngram 1=1\n\n\\1-grams:\nnan\ta\n\\end\\\n", "line 5: non-finite"),
    "inf-back-off": (
        "\\data\\\nngram 1=1\nngram 2=1\n\n\\1-grams:\n-1.0\ta\t-inf\n\n\\2-grams:\n-1.0\ta a\n\\end\\\n",
        "line 6: non-finite",
    ),
}


class TestDataErrorExitCodes:
    @pytest.mark.parametrize("case", sorted(MALFORMED_ARPA))
    def test_malformed_arpa_is_data_error(self, trained, tmp_path, case):
        text, where = MALFORMED_ARPA[case]
        bad_lm = tmp_path / "bad.arpa"
        bad_lm.write_text(text, encoding="utf-8")
        src = tmp_path / "in.txt"
        src.write_text("the dog sees the house .\n", encoding="utf-8")
        code, _, err = run(
            [
                "decode",
                "--phrase-table", str(trained / "phrase-table.txt"),
                "--lm", str(bad_lm),
                "--input", str(src),
            ]
        )
        assert code == EXIT_DATA, err
        assert where in err
        assert str(bad_lm) in err

    def test_evaluate_empty_files_is_data_error(self, tmp_path):
        (tmp_path / "empty.hyp").write_text("", encoding="utf-8")
        (tmp_path / "empty.ref").write_text("", encoding="utf-8")
        code, _, err = run(
            ["evaluate", "--hyp", str(tmp_path / "empty.hyp"), "--ref", str(tmp_path / "empty.ref")]
        )
        assert code == EXIT_DATA, err
        assert "empty.hyp" in err and "empty.ref" in err


class TestPipelineConfig:
    def test_parse_and_defaults(self, fixture_dir):
        text = f"""
# comment
paths.train_source = {fixture_dir}/train.src
paths.train_target = {fixture_dir}/train.tgt
paths.test_source = {fixture_dir}/test.src
paths.test_target = {fixture_dir}/test.tgt
lm.order = 4
tune.enabled = false
"""
        config = PipelineConfig.parse(text)
        assert config.lm_order == 4
        assert config.tune_enabled is False
        assert config.max_len == 80

    def test_unknown_key_rejected(self):
        with pytest.raises(Exception, match="unknown key"):
            PipelineConfig.parse("bogus.key = 1\n")

    def test_missing_path_rejected(self):
        with pytest.raises(Exception, match="does not exist"):
            PipelineConfig.parse("paths.train_source = /no/such/file\n")

    def test_bad_enum_rejected(self, fixture_dir):
        with pytest.raises(Exception, match="one of"):
            PipelineConfig.parse("decoder.kind = quantum\n")


class TestPipelineArtifacts:
    def test_artifacts_consumable_by_stage_commands(self, trained, tmp_path):
        # every file the pipeline wrote parses back through its reader
        from smtkit import align, lm, phrasetab
        from smtkit.corpus import read_text
        from smtkit.decoder import parse_weights

        lm.read_arpa(read_text(str(trained / "lm.arpa")))
        phrasetab.read_phrase_table(read_text(str(trained / "phrase-table.txt")))
        align.read_ttable(read_text(str(trained / "ttable-fwd.txt")))
        parse_weights(read_text(str(trained / "weights.txt")))
        for line in read_text(str(trained / "alignments.txt")).splitlines():
            align.parse_links(line)

    def test_manifest_lists_artifacts(self, trained):
        import json

        manifest = json.loads((trained / "manifest.json").read_text(encoding="utf-8"))
        for name in manifest["artifacts"].values():
            assert (trained / name).exists()
        assert manifest["config_sha256"]


@pytest.fixture(scope="module")
def tiny_fixture(tmp_path_factory):
    root = tmp_path_factory.mktemp("tinycorpus")
    write_fixture_tree(train=40, dev=6, test=5, seed=2, root=str(root))
    return root


class TestPipelineOtherDecoders:
    def test_hier_pipeline(self, tiny_fixture, tmp_path):
        config = tmp_path / "hier.cfg"
        config.write_text(
            f"""
paths.train_source = {tiny_fixture}/train.src
paths.train_target = {tiny_fixture}/train.tgt
paths.test_source = {tiny_fixture}/test.src
paths.test_target = {tiny_fixture}/test.tgt
paths.model_dir = {tmp_path}/hier-out
align.iterations = 3
decoder.kind = hier
tune.enabled = false
""",
            encoding="utf-8",
        )
        code, _, err = run(["pipeline", "--config", str(config)])
        assert code == EXIT_OK, err
        out = tmp_path / "hier-out"
        assert (out / "rule-table.txt").exists()
        report = (out / "report.txt").read_text(encoding="utf-8")
        assert "bleu\t" in report

    def test_tree_pipeline(self, tiny_fixture, tmp_path):
        config = tmp_path / "tree.cfg"
        config.write_text(
            f"""
paths.train_source = {tiny_fixture}/train.src
paths.train_target = {tiny_fixture}/train.tgt
paths.dev_source = {tiny_fixture}/dev.src
paths.dev_target = {tiny_fixture}/dev.tgt
paths.test_source = {tiny_fixture}/test.src
paths.test_target = {tiny_fixture}/test.tgt
paths.train_trees = {tiny_fixture}/train.conllu
paths.dev_trees = {tiny_fixture}/dev.conllu
paths.test_trees = {tiny_fixture}/test.conllu
paths.model_dir = {tmp_path}/tree-out
align.iterations = 3
decoder.kind = tree
tune.enabled = true
tune.iterations = 1
tune.nbest = 5
""",
            encoding="utf-8",
        )
        code, _, err = run(["pipeline", "--config", str(config)])
        assert code == EXIT_OK, err
        out = tmp_path / "tree-out"
        assert (out / "tree-rule-table.txt").exists()
        report = (out / "report.txt").read_text(encoding="utf-8")
        assert "bleu\t" in report

    def test_tree_pipeline_requires_trees(self, tiny_fixture):
        with pytest.raises(Exception, match="tree decoding needs"):
            PipelineConfig.parse(
                f"""
paths.train_source = {tiny_fixture}/train.src
paths.train_target = {tiny_fixture}/train.tgt
decoder.kind = tree
"""
            )

    def test_extract_tree_rules_cli(self, tiny_fixture, tmp_path):
        alignments = tmp_path / "al.txt"
        code, _, _ = run(
            [
                "train-align",
                "--source", f"{tiny_fixture}/train.src",
                "--target", f"{tiny_fixture}/train.tgt",
                "--iterations", "2",
                "--output", str(alignments),
            ]
        )
        assert code == EXIT_OK
        out = tmp_path / "trules.txt"
        code, _, err = run(
            [
                "extract-rules",
                "--kind", "tree",
                "--source", f"{tiny_fixture}/train.src",
                "--target", f"{tiny_fixture}/train.tgt",
                "--alignments", str(alignments),
                "--trees", f"{tiny_fixture}/train.conllu",
                "--output", str(out),
            ]
        )
        assert code == EXIT_OK, err
        assert "(root" in out.read_text(encoding="utf-8")


@pytest.mark.parametrize("orientation_set", ["msd", "mslr"])
def test_pipeline_tables_equal_the_commands_tables(tiny_fixture, tmp_path, orientation_set):
    """The pipeline counts phrase pairs once for both of its tables;
    `extract-phrases` and `train-reorder` (`build_phrase_table` and
    `extract_reordering`) count for one table each. On the pipeline's own
    alignments and t-tables they write the same bytes."""
    config = write_pipeline_config(
        tmp_path / "pipeline.cfg", tiny_fixture, tmp_path / "model", "phrase",
        "tune.enabled = false", "reorder.enabled = true", f"reorder.orientation_set = {orientation_set}",
    )
    code, _, err = run(["pipeline", "--config", str(config)])
    assert code == EXIT_OK, err
    model = tmp_path / "model"
    corpus_args = ["--source", f"{tiny_fixture}/train.src", "--target", f"{tiny_fixture}/train.tgt",
                   "--alignments", str(model / "alignments.txt")]
    for name, argv in (
        ("phrase-table.txt", ["extract-phrases", *corpus_args, "--ttable-fwd", str(model / "ttable-fwd.txt"),
                              "--ttable-bwd", str(model / "ttable-bwd.txt")]),
        ("reordering-table.txt", ["train-reorder", *corpus_args, "--orientation-set", orientation_set]),
    ):
        out = tmp_path / f"command-{name}"
        code, _, err = run([*argv, "--output", str(out)])
        assert code == EXIT_OK, err
        assert out.read_bytes() == (model / name).read_bytes()


def write_pipeline_config(path, fixture, model_dir, kind, *extra):
    lines = [
        f"paths.train_source = {fixture}/train.src",
        f"paths.train_target = {fixture}/train.tgt",
        f"paths.dev_source = {fixture}/dev.src",
        f"paths.dev_target = {fixture}/dev.tgt",
        f"paths.test_source = {fixture}/test.src",
        f"paths.test_target = {fixture}/test.tgt",
        f"paths.model_dir = {model_dir}",
        "align.iterations = 3",
        f"decoder.kind = {kind}",
    ]
    if kind == "tree":
        lines += [f"paths.{split}_trees = {fixture}/{split}.conllu" for split in ("train", "dev", "test")]
    path.write_text("\n".join(lines + list(extra)) + "\n", encoding="utf-8")
    return path


def decode_argv(kind, model, fixture, *extra):
    """`smtkit decode` arguments for the model files a pipeline wrote."""
    argv = ["decode", "--kind", kind, "--lm", str(model / "lm.arpa"),
            "--weights", str(model / "weights.txt")]
    if kind == "phrase":
        argv += ["--phrase-table", str(model / "phrase-table.txt"),
                 "--input", f"{fixture}/test.src"]
        if (model / "reordering-table.txt").exists():
            argv += ["--reordering", str(model / "reordering-table.txt")]
    else:
        table = "rule-table.txt" if kind == "hier" else "tree-rule-table.txt"
        source = "test.src" if kind == "hier" else "test.conllu"
        argv += ["--rule-table", str(model / table), "--input", f"{fixture}/{source}"]
    return argv + list(extra)


class TestDecoderSettings:
    def test_pipeline_stack_size_reaches_tree_decoder(self, tiny_fixture, tmp_path):
        config = write_pipeline_config(
            tmp_path / "tree.cfg", tiny_fixture, tmp_path / "out", "tree",
            "tune.enabled = false", "decoder.stack_size = 1", "decoder.nbest = 3",
        )
        code, _, err = run(["pipeline", "--config", str(config)])
        assert code == EXIT_OK, err
        lines = (tmp_path / "out" / "test.nbest").read_text(encoding="utf-8").splitlines()
        assert [line.split(" ||| ")[0] for line in lines] == [str(i) for i in range(5)]

    @pytest.mark.parametrize("kind", ["phrase", "hier", "tree"])
    def test_decode_reproduces_pipeline_nbest(self, tiny_fixture, tmp_path, kind):
        config = write_pipeline_config(
            tmp_path / "p.cfg", tiny_fixture, tmp_path / "out", kind,
            "tune.enabled = false", "decoder.stack_size = 4", "decoder.nbest = 3",
        )
        code, _, err = run(["pipeline", "--config", str(config)])
        assert code == EXIT_OK, err
        model = tmp_path / "out"
        code, out, err = run(decode_argv(kind, model, tiny_fixture, "--stack-size", "4", "--nbest", "3"))
        assert code == EXIT_OK, err
        # the model files store rounded scores, so scores agree to 1e-9 rather
        # than bitwise, and a derivation tied with another at that precision
        # may show the other's features
        expected = (model / "test.nbest").read_text(encoding="utf-8").splitlines()
        assert len(out.splitlines()) == len(expected) > 5
        for line, want in zip(out.splitlines(), expected):
            got, want = line.split(" ||| "), want.split(" ||| ")
            assert got[:2] == want[:2]
            assert float(got[3]) == pytest.approx(float(want[3]), abs=1e-9)

    def test_nested_tree_input_decodes_like_its_conllu(self, tiny_fixture, tmp_path):
        config = write_pipeline_config(
            tmp_path / "tree.cfg", tiny_fixture, tmp_path / "out", "tree", "tune.enabled = false"
        )
        code, _, err = run(["pipeline", "--config", str(config)])
        assert code == EXIT_OK, err
        trees = parse_conllu((tiny_fixture / "test.conllu").read_text(encoding="utf-8"))
        nested = tmp_path / "test.nested"
        nested.write_text("".join(to_nested_tree(tree) + "\n" for tree in trees), encoding="utf-8")
        argv = decode_argv("tree", tmp_path / "out", tiny_fixture, "--nbest", "3")
        code, from_conllu, err = run(argv)
        assert code == EXIT_OK, err
        # the last --input wins
        code, from_nested, err = run(argv + ["--input", str(nested)])
        assert code == EXIT_OK, err
        assert len(from_conllu.splitlines()) > len(trees)
        assert from_nested == from_conllu

    def test_tune_reads_each_model_file_once(self, fixture_dir, trained, tmp_path, monkeypatch):
        calls = {"read_arpa": 0, "read_phrase_table": 0}
        for module, name in ((lm, "read_arpa"), (phrasetab, "read_phrase_table")):
            def counted(text, _real=getattr(module, name), _name=name):
                calls[_name] += 1
                return _real(text)

            monkeypatch.setattr(module, name, counted)
        code, _, err = run(
            [
                "tune",
                "--phrase-table", str(trained / "phrase-table.txt"),
                "--lm", str(trained / "lm.arpa"),
                "--dev-source", f"{fixture_dir}/dev.src",
                "--dev-target", f"{fixture_dir}/dev.tgt",
                "--iterations", "2",
                "--nbest", "5",
                "--output", str(tmp_path / "tuned.txt"),
            ]
        )
        assert code == EXIT_OK, err
        assert calls == {"read_arpa": 1, "read_phrase_table": 1}


def _exit_code_cases():
    """(name, argv builder, expected exit code, texts stderr must contain)."""
    cases = []
    for command in ("decode", "translate", "tune"):
        for kind, flag in (("phrase", "--phrase-table"), ("hier", "--rule-table"), ("tree", "--rule-table")):
            def argv(paths, command=command, kind=kind):
                source = paths["trees" if kind == "tree" else "in"]
                extra = {
                    "decode": ["--input", source],
                    "translate": ["--input", source],
                    "tune": ["--dev-source", source, "--dev-target", paths["in"]],
                }[command]
                return [command, "--kind", kind, "--lm", paths["lm"]] + extra

            cases.append((f"{command}-{kind}-no-table", argv, EXIT_USAGE, [flag]))
    cases.append((
        "non-numeric-weight",
        lambda p: ["decode", "--phrase-table", p["table"], "--lm", p["lm"], "--input", p["in"],
                   "--weights", p["bad_weights"]],
        EXIT_DATA, ["bad.weights", "line 2", "'abc'"],
    ))
    cases.append((
        "decode-weight-given-twice",
        lambda p: ["decode", "--phrase-table", p["table"], "--lm", p["lm"], "--input", p["in"],
                   "--weights", p["twice_weights"]],
        EXIT_DATA, ["twice.weights: line 3:", "feature weight 'lm' given twice"],
    ))
    cases.append((
        "non-numeric-phrase-score",
        lambda p: ["decode", "--phrase-table", p["bad_table"], "--lm", p["lm"], "--input", p["in"]],
        EXIT_DATA, ["bad-table.txt"],
    ))
    # each table reader names the line of a non-numeric score
    for name, argv, texts in (
        ("phrase-table", lambda p: ["--phrase-table", p["bad_phrases"], "--input", p["in"]],
         ["bad-phrases.txt: line 3:", "'abc'"]),
        ("reordering-table", lambda p: ["--phrase-table", p["table"], "--reordering",
                                        p["bad_reordering"], "--input", p["in"]],
         ["bad-reordering.txt: line 2:", "'abc'"]),
        ("rule-table", lambda p: ["--kind", "hier", "--rule-table", p["bad_rules"],
                                  "--input", p["in"]],
         ["bad-rules.txt: line 2:", "'abc'"]),
        ("tree-rule-table", lambda p: ["--kind", "tree", "--rule-table", p["bad_tree_rules"],
                                       "--input", p["trees"]],
         ["bad-tree-rules.txt: line 2:", "'abc'"]),
    ):
        cases.append((
            f"non-numeric-{name}-line",
            lambda p, argv=argv: ["decode", "--lm", p["lm"], *argv(p)],
            EXIT_DATA, texts,
        ))
    # ... and of a number that is not finite
    for name, argv, texts in (
        ("phrase-table", lambda p: ["--phrase-table", p["nan_phrases"], "--input", p["in"]],
         ["nan-phrases.txt: line 3:", "non-finite number 'nan'"]),
        ("reordering-table", lambda p: ["--phrase-table", p["table"], "--reordering",
                                        p["inf_reordering"], "--input", p["in"]],
         ["inf-reordering.txt: line 2:", "non-finite number 'inf'"]),
        ("rule-table", lambda p: ["--kind", "hier", "--rule-table", p["inf_rules"],
                                  "--input", p["in"]],
         ["inf-rules.txt: line 2:", "non-finite number '-inf'"]),
        ("tree-rule-table", lambda p: ["--kind", "tree", "--rule-table", p["nan_tree_rules"],
                                       "--input", p["trees"]],
         ["nan-tree-rules.txt: line 2:", "non-finite number 'NaN'"]),
        ("weights", lambda p: ["--phrase-table", p["table"], "--input", p["in"],
                               "--weights", p["inf_weights"]],
         ["inf.weights: line 2:", "non-finite weight 'inf'"]),
    ):
        cases.append((
            f"non-finite-{name}-line",
            lambda p, argv=argv: ["decode", "--lm", p["lm"], *argv(p)],
            EXIT_DATA, texts,
        ))
    # ... and of a probability outside its range; zeros are probabilities
    # of a reordering table, which `train-reorder --sigma 0` writes
    for name, argv, code, texts in (
        ("phrase-table", lambda p: ["--phrase-table", p["negative_phrases"], "--input", p["in"]],
         EXIT_DATA, ["negative-phrases.txt: line 3:", "probability '-0.5' lies outside (0, 1]"]),
        ("reordering-table", lambda p: ["--phrase-table", p["table"], "--reordering",
                                        p["seven_reordering"], "--input", p["in"]],
         EXIT_DATA, ["seven-reordering.txt: line 2:", "probability '7.0' lies outside [0, 1]"]),
        ("zero-reordering-table", lambda p: ["--phrase-table", p["table"], "--reordering",
                                             p["zero_reordering"], "--input", p["in"]],
         EXIT_OK, []),
        ("rule-table", lambda p: ["--kind", "hier", "--rule-table", p["over_rules"],
                                  "--input", p["in"]],
         EXIT_DATA, ["over-rules.txt: line 2:", "probability '1.5' lies outside (0, 1]"]),
        ("tree-rule-table", lambda p: ["--kind", "tree", "--rule-table", p["negative_tree_rules"],
                                       "--input", p["trees"]],
         EXIT_DATA, ["negative-tree-rules.txt: line 2:", "probability '-0.25' lies outside (0, 1]"]),
    ):
        cases.append((
            f"{'range-' if code == EXIT_DATA else ''}{name}-line",
            lambda p, argv=argv: ["decode", "--lm", p["lm"], *argv(p)],
            code, texts,
        ))
    # ... and an ARPA log10 probability above 0
    cases.append((
        "range-lm-line",
        lambda p: ["decode", "--lm", p["positive_lm"], "--phrase-table", p["table"],
                   "--input", p["in"]],
        EXIT_DATA, ["positive.arpa: line 7:", "log10 probability '2.0' lies above 0"],
    ))
    cases.append((
        "extract-phrases-negative-ttable",
        lambda p: ["extract-phrases", "--source", p["train_src"], "--target", p["train_tgt"],
                   "--alignments", p["links"], "--ttable-fwd", p["ttable"],
                   "--ttable-bwd", p["negative_ttable"], "--output", p["out"]],
        EXIT_DATA, ["negative-tt.txt: line 2:", "probability '-3' lies outside (0, 1]"],
    ))
    # a tree deeper than Python's recursion limit, passed through at every node
    cases.append((
        "decode-tree-deep-chain",
        lambda p: ["decode", "--lm", p["lm"], "--kind", "tree", "--rule-table", p["tree_rules"],
                   "--input", p["chain"]],
        EXIT_OK, [],
    ))
    # a rule line after a first one and before the glue rules, so that
    # decoding "a a" reaches it
    for name, (_, text) in BAD_RULE_LINES.items():
        cases.append((
            f"decode-hier-rule-{name}",
            lambda p, name=name: ["decode", "--lm", p["lm"], "--kind", "hier", "--rule-table",
                                  p[name], "--input", p["a_a"]],
            EXIT_DATA, [f"{name}.txt: line 2: {text}"],
        ))
    # ... and a tree-rule line whose variables do not pair one to one, which
    # the trees of obj.conllu would reach
    for name, (_, text) in BAD_TREE_RULE_LINES.items():
        cases.append((
            f"decode-tree-rule-{name}",
            lambda p, name=name: ["decode", "--lm", p["lm"], "--kind", "tree", "--rule-table",
                                  p[name], "--input", p["obj_trees"]],
            EXIT_DATA, [f"{name}.txt: line 2: {text}"],
        ))
    cases.append((
        "unterminated-tree-rule-fragment",
        lambda p: ["decode", "--lm", p["lm"], "--kind", "tree", "--rule-table", p["cut_tree_rules"],
                   "--input", p["trees"]],
        EXIT_DATA, ["cut-tree-rules.txt: line 2:", "unterminated fragment"],
    ))
    cases.append((
        "train-align-short-target",
        lambda p: ["train-align", "--source", p["train_src"], "--target", p["short_tgt"],
                   "--iterations", "1", "--output", p["out"]],
        EXIT_DATA, ["train.src has 40", "short.tgt has 20"],
    ))
    cases.append((
        "extract-phrases-short-alignments",
        lambda p: ["extract-phrases", "--source", p["train_src"], "--target", p["train_tgt"],
                   "--alignments", p["short_links"], "--ttable-fwd", p["ttable"],
                   "--ttable-bwd", p["ttable"], "--output", p["out"]],
        EXIT_DATA, ["short.links has 20"],
    ))
    cases.append((
        "pipeline-short-target",
        lambda p: ["pipeline", "--config", p["short_config"]],
        EXIT_DATA, ["train.src has 40", "short.tgt has 20"],
    ))
    for name, links, texts in (
        ("non-numeric-link", "bad_links", ["bad.links: line 2:", "'1-x'"]),
        ("dashless-link", "dashless_links", ["dashless.links: line 1:", "'3'"]),
    ):
        cases.append((
            f"extract-phrases-{name}",
            lambda p, links=links: [
                "extract-phrases", "--source", p["train_src"], "--target", p["train_tgt"],
                "--alignments", p[links], "--ttable-fwd", p["ttable"], "--ttable-bwd", p["ttable"],
                "--output", p["out"]],
            EXIT_DATA, texts,
        ))
    cases.append((
        "extract-phrases-non-numeric-ttable",
        lambda p: ["extract-phrases", "--source", p["train_src"], "--target", p["train_tgt"],
                   "--alignments", p["links"], "--ttable-fwd", p["ttable"],
                   "--ttable-bwd", p["bad_ttable"], "--output", p["out"]],
        EXIT_DATA, ["bad-tt.txt: line 2:", "'zz'"],
    ))
    # ... or not finite, which once reached phrase and rule scoring
    for command, value, name in (("extract-phrases", "nan", "nan"), ("extract-rules", "-inf", "inf")):
        cases.append((
            f"{command}-non-finite-ttable",
            lambda p, command=command, name=name: [
                command, *(["--kind", "hier"] if command == "extract-rules" else []),
                "--source", p["train_src"], "--target", p["train_tgt"], "--alignments", p["links"],
                "--ttable-fwd", p["ttable"], "--ttable-bwd", p[f"{name}_ttable"], "--output", p["out"]],
            EXIT_DATA, [f"{name}-tt.txt: line 2:", f"non-finite number '{value}'"],
        ))
    for side in ("source", "target"):
        cases.append((
            f"train-align-blank-{side}-line",
            lambda p, side=side: [
                "train-align", "--source", p["blank_src" if side == "source" else "train_src"],
                "--target", p["blank_tgt" if side == "target" else "train_tgt"],
                "--iterations", "1", "--output", p["out"]],
            EXIT_DATA, ["sentence pair 3 has an empty side", "smtkit clean"],
        ))
    for name, kind, given, missing in (
        ("no-ttables", "hier", [], "--ttable-fwd and --ttable-bwd"),
        ("no-ttable-bwd", "hier", ["--ttable-fwd"], "--ttable-bwd"),
        ("no-trees", "tree", [], "--trees"),
    ):
        cases.append((
            f"extract-rules-{kind}-{name}",
            lambda p, kind=kind, given=given: [
                "extract-rules", "--kind", kind, "--source", p["train_src"],
                "--target", p["train_tgt"], "--alignments", p["links"], "--output", p["out"],
                *[arg for flag in given for arg in (flag, p["ttable"])]],
            EXIT_USAGE, [f"--kind {kind} needs {missing}"],
        ))
    # a malformed decoder input names its file and line
    for command, source in (("decode", "--input"), ("translate", "--input"), ("tune", "--dev-source")):
        cases.append((
            f"{command}-nested-tree-stray-tag",
            lambda p, command=command, source=source: [
                command, "--lm", p["lm"], "--kind", "tree", "--rule-table", p["tree_rules"],
                source, p["stray_nested"], *(["--dev-target", p["in"]] if command == "tune" else [])],
            EXIT_DATA, ["stray.nested: line 1: expected </tree> at offset"],
        ))
    # ... and so does a nested tree with a word beside subtrees, which would
    # lose words if read
    cases.append((
        "decode-nested-tree-word-beside-subtrees",
        lambda p: ["decode", "--lm", p["lm"], "--kind", "tree", "--rule-table", p["tree_rules"],
                   "--input", p["lossy_nested"]],
        EXIT_DATA, ["lossy.nested: line 1: node 'VB' holds a word and subtrees at offset"],
    ))
    cases.append((
        "decode-conllu-id-gap",
        lambda p: ["decode", "--lm", p["lm"], "--kind", "tree", "--rule-table", p["tree_rules"],
                   "--input", p["gap_trees"]],
        EXIT_DATA, ["gap.conllu: sentence gap, line 3:"],
    ))
    cases.append((
        "extract-rules-tree-length-mismatch",
        lambda p: ["extract-rules", "--kind", "tree", "--source", p["len_src"],
                   "--target", p["len_tgt"], "--alignments", p["len_links"],
                   "--trees", p["len_trees"], "--output", p["out"]],
        EXIT_DATA, ["len.conllu: sentence s2 has 2 tokens, but source sentence 2 has 3 words"],
    ))
    cases.append((
        "extract-rules-link-outside-pair",
        lambda p: ["extract-rules", "--kind", "tree", "--source", p["len_src"],
                   "--target", p["len_tgt"], "--alignments", p["outside_links"],
                   "--trees", p["len_trees"], "--output", p["out"]],
        EXIT_DATA, ["outside.links: line 2: link 1-3 lies outside the sentence pair "
                    "of 3 source and 3 target words"],
    ))
    cases.append((
        "extract-rules-tree-id-gap",
        lambda p: ["extract-rules", "--kind", "tree", "--source", p["train_src"],
                   "--target", p["train_tgt"], "--alignments", p["links"],
                   "--trees", p["gap_trees"], "--output", p["out"]],
        EXIT_DATA, ["gap.conllu: sentence gap, line 3:", "token id 5 where 2 was expected"],
    ))
    cases.append((
        "evaluate-non-integer-human-score",
        lambda p: ["evaluate", "--human-scores", p["bad_scores"]],
        EXIT_DATA, ["bad-scores.csv: line 2:", "'2, x, 3'"],
    ))
    cases.append((
        "pipeline-non-integer-config-value",
        lambda p: ["pipeline", "--config", p["bad_int_config"]],
        EXIT_DATA, ["bad-int.cfg: config line 2:", "'abc'"],
    ))
    # a closed-vocabulary LM, one without an <unk> unigram, scores the
    # unknown word "zz" as log10 0 instead of failing
    for kind, flag, table, source in (
        ("phrase", "--phrase-table", "a_table", "a_zz"), ("tree", "--rule-table", "tree_rules", "a_zz_tree"),
    ):
        cases.append((
            f"decode-{kind}-lm-without-unk",
            lambda p, kind=kind, flag=flag, table=table, source=source: [
                "decode", "--lm", p["closed_lm"], "--kind", kind, flag, p[table], "--input", p[source]],
            EXIT_OK, [],
        ))
    # a stack size below 1 is the user's fault: a usage error for the flag,
    # a config error in a pipeline config
    for kind, flag, table, size in (
        ("phrase", "--phrase-table", "table", "-1"), ("phrase", "--phrase-table", "table", "0"),
        ("hier", "--rule-table", "a_rules", "-1"), ("tree", "--rule-table", "tree_rules", "-1"),
    ):
        cases.append((
            f"decode-{kind}-stack-size-{size}",
            lambda p, kind=kind, flag=flag, table=table, size=size: [
                "decode", "--lm", p["lm"], "--kind", kind, flag, p[table],
                "--input", p["trees" if kind == "tree" else "in"], "--stack-size", size],
            EXIT_USAGE, [f"--stack-size must be >= 1, got {size}"],
        ))
    cases.append((
        "pipeline-stack-size-below-one",
        lambda p: ["pipeline", "--config", p["stack_config"]],
        EXIT_DATA, ["stack.cfg: config: decoder_stack_size must be >= 1, got -1"],
    ))
    # so is an n-best size or a tuning iteration count below 1, or a
    # distortion limit below 0
    for kind, flag, table, option, value, low in (
        ("phrase", "--phrase-table", "table", "--nbest", "0", 1),
        ("phrase", "--phrase-table", "table", "--nbest", "-2", 1),
        ("tree", "--rule-table", "tree_rules", "--nbest", "0", 1),
        ("phrase", "--phrase-table", "table", "--distortion-limit", "-1", 0),
    ):
        cases.append((
            f"decode-{kind}-{option[2:]}-{value}",
            lambda p, kind=kind, flag=flag, table=table, option=option, value=value: [
                "decode", "--lm", p["lm"], "--kind", kind, flag, p[table],
                "--input", p["trees" if kind == "tree" else "in"], option, value],
            EXIT_USAGE, [f"{option} must be >= {low}, got {value}"],
        ))
    for option in ("--iterations", "--nbest"):
        cases.append((
            f"tune-{option[2:]}-0",
            lambda p, option=option: [
                "tune", "--lm", p["lm"], "--phrase-table", p["table"], "--dev-source", p["in"],
                "--dev-target", p["in"], option, "0"],
            EXIT_USAGE, [f"{option} must be >= 1, got 0"],
        ))
    for key, value, low in (
        ("decoder.nbest", "0", 1), ("tune.nbest", "-1", 1),
        ("decoder.distortion_limit", "-3", 0), ("tune.iterations", "0", 1),
    ):
        attr = key.replace(".", "_")
        cases.append((
            f"pipeline-{key}-{value}",
            lambda p, attr=attr: ["pipeline", "--config", p[f"{attr}_config"]],
            EXIT_DATA, [f"{attr}.cfg: config: {attr} must be >= {low}, got {value}"],
        ))
    cases.append((
        "pipeline-unknown-align-model",
        lambda p: ["pipeline", "--config", p["model7_config"]],
        EXIT_DATA, ["model7.cfg: config: align_model must be one of (1, 2)"],
    ))
    # a rule table the chart decoder cannot use names its file
    for name, texts in (
        ("y_rules", ["y-rules.txt: only X rules with X gaps and the glue rules can be decoded",
                     "[Y][Y] a [X]"]),
        ("no_glue_rules", ["no-glue-rules.txt: rule table is missing the glue rules"]),
    ):
        cases.append((
            f"decode-hier-{name.replace('_', '-')}",
            lambda p, name=name: ["decode", "--lm", p["lm"], "--kind", "hier", "--rule-table", p[name],
                                  "--input", p["a_a"]],
            EXIT_DATA, texts,
        ))
    # so does a blank decoder input line, with its line
    for command, kind, flag, table in (
        ("decode", "phrase", "--phrase-table", "table"), ("translate", "hier", "--rule-table", "a_rules"),
    ):
        cases.append((
            f"{command}-{kind}-blank-line",
            lambda p, command=command, kind=kind, flag=flag, table=table: [
                command, "--lm", p["lm"], "--kind", kind, flag, p[table], "--input", p["blank_line"]],
            EXIT_DATA, ["blank-line.txt: line 2: cannot decode an empty sentence"],
        ))
    cases.append((
        "jobs-below-one",
        lambda p: ["--jobs", "0", "train-align", "--source", p["train_src"],
                   "--target", p["train_tgt"], "--output", p["out"]],
        EXIT_USAGE, ["--jobs must be >= 1"],
    ))
    return cases


EXIT_CODE_CASES = _exit_code_cases()


class TestExitCodeTable:
    @pytest.fixture(scope="class")
    def paths(self, tiny_fixture, trained, tmp_path_factory):
        root = tmp_path_factory.mktemp("exit-codes")
        table = (trained / "phrase-table.txt").read_text(encoding="utf-8")
        first, _, rest = table.partition("\n")
        fields = first.split(" ||| ")
        fields[2] = "abc " + fields[2].split(" ", 1)[1]
        (root / "bad-table.txt").write_text(" ||| ".join(fields) + "\n" + rest, encoding="utf-8")
        (root / "bad.weights").write_text("# weights\nlm\tabc\n", encoding="utf-8")
        (root / "twice.weights").write_text("lm\t0.5\nglue\t0.1\nlm\t7.0\n", encoding="utf-8")
        lines = table.splitlines()
        fields = lines[2].split(" ||| ")
        fields[2] = "abc " + fields[2].split(" ", 1)[1]
        lines[2] = " ||| ".join(fields)
        (root / "bad-phrases.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        (root / "bad-reordering.txt").write_text(
            "a ||| b ||| 0.5 0.25 0.25 0.5 0.25 0.25\nc ||| d ||| 0.5 abc 0.25 0.5 0.25 0.25\n",
            encoding="utf-8",
        )
        (root / "bad-rules.txt").write_text(
            "a [X] ||| b [X] ||| 0.5 0.5 0.5 0.5 ||| 0-0 ||| 1 1 1\n"
            "c [X] ||| d [X] ||| 0.5 abc 0.5 0.5 ||| 0-0 ||| 1 1 1\n",
            encoding="utf-8",
        )
        (root / "bad-tree-rules.txt").write_text(
            "(root w:a) ||| b ||| 0.5 0.5 ||| 1 1\n(root w:c) ||| d ||| abc 0.5 ||| 1 1\n",
            encoding="utf-8",
        )
        for bad, value, name in (
            ("bad-phrases.txt", "nan", "nan-phrases.txt"),
            ("bad-reordering.txt", "inf", "inf-reordering.txt"),
            ("bad-rules.txt", "-inf", "inf-rules.txt"),
            ("bad-tree-rules.txt", "NaN", "nan-tree-rules.txt"),
            ("bad.weights", "inf", "inf.weights"),
            ("bad-phrases.txt", "-0.5", "negative-phrases.txt"),
            ("bad-reordering.txt", "7.0", "seven-reordering.txt"),
            ("bad-reordering.txt", "0", "zero-reordering.txt"),
            ("bad-rules.txt", "1.5", "over-rules.txt"),
            ("bad-tree-rules.txt", "-0.25", "negative-tree-rules.txt"),
        ):
            text = (root / bad).read_text(encoding="utf-8")
            (root / name).write_text(text.replace("abc", value), encoding="utf-8")
        (root / "chain.conllu").write_text(write_conllu([chain_sentence(2000)]), encoding="utf-8")
        (root / "cut-tree-rules.txt").write_text(
            "(root w:a) ||| b ||| 0.5 0.5 ||| 1 1\n(root ||| b ||| 0.5 ||| 1\n", encoding="utf-8"
        )
        # token ids 1 and 5: token 1's head 2 is in range but names no token
        (root / "gap.conllu").write_text(
            "# sent_id = gap\n1\ta\t_\t_\t_\t_\t2\tdep\t_\t_\n"
            "5\tb\t_\t_\t_\t_\t0\troot\t_\t_\n\n",
            encoding="utf-8",
        )
        (root / "tree-rules.txt").write_text("(root w:a) ||| b ||| 0.5 0.5 ||| 1 1\n", encoding="utf-8")
        # an unknown tag inside a nested tree, which once made the reader loop forever
        (root / "stray.nested").write_text(
            '<tree label="sent"><tree label="root"><x></tree></tree>\n', encoding="utf-8"
        )
        (root / "lossy.nested").write_text(
            '<tree label="sent"><tree label="root"><tree label="VB">go<tree label="obj">'
            '<tree label="NN">home</tree></tree></tree></tree></tree>\n',
            encoding="utf-8",
        )
        (root / "in.txt").write_text("the dog sees the house .\n", encoding="utf-8")
        (root / "closed.arpa").write_text(
            "\\data\\\nngram 1=3\n\n\\1-grams:\n-99\t<s>\n-0.3\t</s>\n-0.3\tb\n\n\\end\\\n",
            encoding="utf-8",
        )
        (root / "positive.arpa").write_text(
            "\\data\\\nngram 1=3\n\n\\1-grams:\n-99\t<s>\n-0.3\t</s>\n2.0\tb\n\n\\end\\\n",
            encoding="utf-8",
        )
        (root / "a-table.txt").write_text("a ||| b ||| 0.5 0.5 0.5 0.5 ||| 0-0 ||| 1 1 1\n", encoding="utf-8")
        (root / "a-zz.txt").write_text("a zz\n", encoding="utf-8")
        (root / "a-a.txt").write_text("a a\n", encoding="utf-8")
        glue = ruletab.write_rule_table(ruletab.glue_rules())
        for name, (rule, _) in BAD_RULE_LINES.items():
            (root / f"{name}.txt").write_text(
                "a [X] ||| b [X] ||| 1 1 1 1 ||| 0-0 ||| 1 1 1\n" + rule + "\n" + glue, encoding="utf-8"
            )
        for name, (rule, _) in BAD_TREE_RULE_LINES.items():
            (root / f"{name}.txt").write_text(
                "(root w:a) ||| b ||| 0.5 0.5 ||| 1 1\n" + rule + "\n", encoding="utf-8"
            )
        # "y a" with y the object of a, and "a y z" with two objects
        (root / "obj.conllu").write_text(
            "1\ty\t_\t_\t_\t_\t2\tobj\t_\t_\n2\ta\t_\t_\t_\t_\t0\troot\t_\t_\n\n"
            "1\ta\t_\t_\t_\t_\t0\troot\t_\t_\n2\ty\t_\t_\t_\t_\t1\tobj\t_\t_\n"
            "3\tz\t_\t_\t_\t_\t1\tobj\t_\t_\n\n",
            encoding="utf-8",
        )
        (root / "a-zz.conllu").write_text(
            "1\ta\t_\t_\t_\t_\t0\troot\t_\t_\n2\tzz\t_\t_\t_\t_\t1\tdep\t_\t_\n\n", encoding="utf-8"
        )
        # the second tree has one token fewer than its source sentence
        (root / "len.src").write_text("a b\na b c\n", encoding="utf-8")
        (root / "len.tgt").write_text("x y\nx y z\n", encoding="utf-8")
        (root / "len.links").write_text("0-0 1-1\n0-0 1-1 2-2\n", encoding="utf-8")
        (root / "outside.links").write_text("0-0 1-1\n0-0 1-3\n", encoding="utf-8")
        two_tokens = "1\ta\t_\t_\t_\t_\t2\tnsubj\t_\t_\n2\tb\t_\t_\t_\t_\t0\troot\t_\t_\n"
        (root / "len.conllu").write_text(
            f"# sent_id = s1\n{two_tokens}\n# sent_id = s2\n{two_tokens}\n", encoding="utf-8"
        )
        train_tgt = (tiny_fixture / "train.tgt").read_text(encoding="utf-8").splitlines()
        (root / "short.tgt").write_text("\n".join(train_tgt[:20]) + "\n", encoding="utf-8")
        (root / "short.links").write_text("0-0\n" * 20, encoding="utf-8")
        (root / "all.links").write_text("0-0\n" * 40, encoding="utf-8")
        (root / "bad.links").write_text("0-0\n0-0 1-x\n", encoding="utf-8")
        (root / "dashless.links").write_text("3\n", encoding="utf-8")
        ttable = (trained / "ttable-fwd.txt").read_text(encoding="utf-8").splitlines()
        ttable[1] = ttable[1].rsplit("\t", 1)[0] + "\tzz"
        (root / "bad-tt.txt").write_text("\n".join(ttable) + "\n", encoding="utf-8")
        for value, name in (("nan", "nan-tt.txt"), ("-inf", "inf-tt.txt"), ("-3", "negative-tt.txt")):
            (root / name).write_text("\n".join(ttable).replace("\tzz", f"\t{value}") + "\n",
                                     encoding="utf-8")
        for side in ("src", "tgt"):
            lines = (tiny_fixture / f"train.{side}").read_text(encoding="utf-8").splitlines()
            lines[2] = ""
            (root / f"blank.{side}").write_text("\n".join(lines) + "\n", encoding="utf-8")
        write_pipeline_config(root / "pipeline.cfg", tiny_fixture, root / "model", "phrase",
                              "tune.enabled = false")
        text = (root / "pipeline.cfg").read_text(encoding="utf-8")
        (root / "short.cfg").write_text(
            text.replace(f"{tiny_fixture}/train.tgt", str(root / "short.tgt")), encoding="utf-8"
        )
        (root / "bad-int.cfg").write_text(
            "decoder.kind = phrase\ndecoder.stack_size = abc\n", encoding="utf-8"
        )
        (root / "stack.cfg").write_text("decoder.kind = phrase\ndecoder.stack_size = -1\n", encoding="utf-8")
        (root / "model7.cfg").write_text("align.model = 7\n", encoding="utf-8")
        below = {"decoder.nbest": "0", "tune.nbest": "-1", "decoder.distortion_limit": "-3",
                 "tune.iterations": "0"}
        for key, value in below.items():
            (root / f"{key.replace('.', '_')}.cfg").write_text(f"{key} = {value}\n", encoding="utf-8")
        (root / "a-rules.txt").write_text(
            "a [X] ||| b [X] ||| 1 1 1 1 ||| 0-0 ||| 1 1 1\n" + glue, encoding="utf-8"
        )
        (root / "y-rules.txt").write_text(
            "a [X] ||| b [X] ||| 1 1 1 1 ||| 0-0 ||| 1 1 1\n"
            "[Y][Y] a [X] ||| [Y][Y] b [X] ||| 1 1 1 1 ||| 0-0 1-1 ||| 1 1 1\n" + glue, encoding="utf-8"
        )
        (root / "no-glue-rules.txt").write_text(
            "a [X] ||| b [X] ||| 1 1 1 1 ||| 0-0 ||| 1 1 1\n", encoding="utf-8"
        )
        (root / "blank-line.txt").write_text("a\n\na\n", encoding="utf-8")
        (root / "bad-scores.csv").write_text("1, 4, 5\n2, x, 3\n", encoding="utf-8")
        return {
            "lm": str(trained / "lm.arpa"),
            "table": str(trained / "phrase-table.txt"),
            "ttable": str(trained / "ttable-fwd.txt"),
            "bad_table": str(root / "bad-table.txt"),
            "bad_weights": str(root / "bad.weights"),
            "bad_phrases": str(root / "bad-phrases.txt"),
            "bad_reordering": str(root / "bad-reordering.txt"),
            "bad_rules": str(root / "bad-rules.txt"),
            "bad_tree_rules": str(root / "bad-tree-rules.txt"),
            "cut_tree_rules": str(root / "cut-tree-rules.txt"),
            "nan_phrases": str(root / "nan-phrases.txt"),
            "inf_reordering": str(root / "inf-reordering.txt"),
            "inf_rules": str(root / "inf-rules.txt"),
            "nan_tree_rules": str(root / "nan-tree-rules.txt"),
            "inf_weights": str(root / "inf.weights"),
            "negative_phrases": str(root / "negative-phrases.txt"),
            "seven_reordering": str(root / "seven-reordering.txt"),
            "zero_reordering": str(root / "zero-reordering.txt"),
            "over_rules": str(root / "over-rules.txt"),
            "negative_tree_rules": str(root / "negative-tree-rules.txt"),
            "positive_lm": str(root / "positive.arpa"),
            "twice_weights": str(root / "twice.weights"),
            "chain": str(root / "chain.conllu"),
            "in": str(root / "in.txt"),
            "closed_lm": str(root / "closed.arpa"),
            "a_table": str(root / "a-table.txt"),
            "a_zz": str(root / "a-zz.txt"),
            "a_a": str(root / "a-a.txt"),
            **{name: str(root / f"{name}.txt") for name in BAD_RULE_LINES},
            **{name: str(root / f"{name}.txt") for name in BAD_TREE_RULE_LINES},
            "obj_trees": str(root / "obj.conllu"),
            "a_zz_tree": str(root / "a-zz.conllu"),
            "trees": f"{tiny_fixture}/test.conllu",
            "gap_trees": str(root / "gap.conllu"),
            "tree_rules": str(root / "tree-rules.txt"),
            "stray_nested": str(root / "stray.nested"),
            "lossy_nested": str(root / "lossy.nested"),
            "train_src": f"{tiny_fixture}/train.src",
            "train_tgt": f"{tiny_fixture}/train.tgt",
            "short_tgt": str(root / "short.tgt"),
            "short_links": str(root / "short.links"),
            "short_config": str(root / "short.cfg"),
            "bad_int_config": str(root / "bad-int.cfg"),
            "stack_config": str(root / "stack.cfg"),
            "model7_config": str(root / "model7.cfg"),
            **{f"{key.replace('.', '_')}_config": str(root / f"{key.replace('.', '_')}.cfg")
               for key in below},
            "a_rules": str(root / "a-rules.txt"),
            "y_rules": str(root / "y-rules.txt"),
            "no_glue_rules": str(root / "no-glue-rules.txt"),
            "blank_line": str(root / "blank-line.txt"),
            "bad_scores": str(root / "bad-scores.csv"),
            "links": str(root / "all.links"),
            "bad_links": str(root / "bad.links"),
            "dashless_links": str(root / "dashless.links"),
            "bad_ttable": str(root / "bad-tt.txt"),
            "nan_ttable": str(root / "nan-tt.txt"),
            "inf_ttable": str(root / "inf-tt.txt"),
            "negative_ttable": str(root / "negative-tt.txt"),
            "blank_src": str(root / "blank.src"),
            "blank_tgt": str(root / "blank.tgt"),
            "len_src": str(root / "len.src"),
            "len_tgt": str(root / "len.tgt"),
            "len_links": str(root / "len.links"),
            "len_trees": str(root / "len.conllu"),
            "outside_links": str(root / "outside.links"),
            "out": str(root / "out.txt"),
        }

    @pytest.mark.parametrize(
        "argv,expected,texts",
        [case[1:] for case in EXIT_CODE_CASES],
        ids=[case[0] for case in EXIT_CODE_CASES],
    )
    def test_exit_code(self, paths, argv, expected, texts):
        code, _, err = run(argv(paths))
        assert code == expected, err
        for text in texts:
            assert text in err


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="--jobs 2 runs inline without os.fork")
class TestAlignJobs:
    """With --jobs 2 the backward alignment direction trains in a forked
    child. Nothing written may depend on --jobs, a failure on either side
    reads as with --jobs 1, and no child outlives the call."""

    def train_align(self, jobs, source, target, out, *extra):
        argv = ["--jobs", jobs, "train-align", "--source", str(source), "--target", str(target),
                "--output", f"{out}.links", "--ttable-fwd", f"{out}.fwd",
                "--ttable-bwd", f"{out}.bwd", *extra]
        result = run(argv)
        assert_no_child_left()
        return result

    @pytest.mark.parametrize("model", ["1", "2"])
    def test_jobs_do_not_change_bytes(self, tiny_fixture, tmp_path, model):
        written = {}
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            code, _, err = self.train_align(
                jobs, tiny_fixture / "train.src", tiny_fixture / "train.tgt", out,
                "--model", model, "--iterations", "3",
            )
            assert code == EXIT_OK, err
            written[jobs] = [(tmp_path / f"jobs{jobs}.{ext}").read_bytes() for ext in ("links", "fwd", "bwd")]
        assert written["1"] == written["2"]
        links, fwd, bwd = written["2"]
        assert links.count(b"\n") == 40 and b"-" in links and fwd != bwd

    @pytest.mark.parametrize("case", ["zero-iterations", "blank-source-line"])
    def test_failure_reads_as_serial(self, tiny_fixture, tmp_path, case):
        """zero-iterations fails in both processes (the parent first, so the
        child is killed); a blank source line fails only the backward
        direction, so the child's error crosses the pipe."""
        source = tiny_fixture / "train.src"
        extra = ["--iterations", "1"]
        if case == "zero-iterations":
            extra = ["--iterations", "0"]
        else:
            lines = source.read_text(encoding="utf-8").splitlines()
            lines[2] = ""
            source = tmp_path / "blank.src"
            source.write_text("\n".join(lines) + "\n", encoding="utf-8")
        results = [
            self.train_align(jobs, source, tiny_fixture / "train.tgt", tmp_path / "out", *extra)
            for jobs in ("1", "2")
        ]
        assert results[0] == results[1]
        code, _, err = results[1]
        assert code == EXIT_DATA and err.startswith("smtkit: data error: ")

    def test_child_outcome_crosses_the_pipe(self):
        # item 0 is this process's, item 1 the child's
        assert cli._fork_map(2, sorted, [[3, 1, 2], [5, 4]]) == [[1, 2, 3], [4, 5]]
        with pytest.raises(ValueError, match="invalid literal for int"):
            cli._fork_map(2, int, ["1", "x"])
        with pytest.raises(RuntimeError, match="ended without a result"):
            cli._fork_map(2, lambda item: os._exit(0) if item else item, [0, 1])

        def parent_fails(item):
            if item == 0:
                raise KeyError("parent")
            time.sleep(60)

        started = time.monotonic()
        with pytest.raises(KeyError):  # no child item precedes item 0: the child is killed
            cli._fork_map(2, parent_fails, [0, 1])
        assert time.monotonic() - started < 30
        assert_no_child_left()


class Interrupted(BaseException):
    """Not an Exception, so _fork_map does not hold it for a lower-index failure."""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="--jobs 2 runs inline without os.fork")
class TestForkMap:
    """`cli._fork_map` spreads items round robin over --jobs processes. What
    it returns or raises may not depend on --jobs, and no child outlives it."""

    @pytest.mark.parametrize("failing", [(), (0,), (3, 5), (5, 3), (4, 6), (1, 2), (6,)])
    def test_lowest_failing_index_wins(self, failing):
        def fn(item):
            if item in failing:
                raise ValueError(f"item {item}")
            return [item, str(item), {"square": item * item}]

        for jobs in (1, 2, 3, 4, 9):
            if failing:
                with pytest.raises(ValueError, match=f"^item {min(failing)}$"):
                    cli._fork_map(jobs, fn, list(range(7)))
            else:
                assert cli._fork_map(jobs, fn, list(range(7))) == [fn(i) for i in range(7)]
            assert_no_child_left()

    def test_forks_at_most_one_less_than_items(self, monkeypatch):
        forks = []
        real_fork = os.fork

        def counted_fork():
            forks.append(1)
            return real_fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        for jobs, items, expected in ((8, [1, -2, 3], 2), (8, [-5], 0), (1, [1, -2, 3], 0),
                                      (2, list(range(-9, 0)), 1), (8, [], 0)):
            forks.clear()
            assert cli._fork_map(jobs, abs, items) == [abs(i) for i in items]
            assert len(forks) == expected, (jobs, items)
        assert_no_child_left()

    def test_interrupted_parent_kills_children(self):
        def fn(item):
            if item == 2:
                raise Interrupted()
            if item == 1:
                time.sleep(60)
            return item

        started = time.monotonic()
        with pytest.raises(Interrupted):  # item 2 is this process's; the child sleeps on item 1
            cli._fork_map(2, fn, [0, 1, 2, 3])
        assert time.monotonic() - started < 30
        assert_no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="--jobs 2 runs inline without os.fork")
class TestDecodeJobs:
    """Test, MERT and decode/translate/tune batches decode across --jobs
    processes; every byte written and every error must read as with
    --jobs 1, and no child outlives a call."""

    JOBS = ("1", "2", "3")

    def run_jobs(self, argv, jobs):
        result = run(["--jobs", jobs, *argv])
        assert_no_child_left()
        return result

    def written(self, directory):
        return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}

    @pytest.mark.parametrize("kind,extra", [
        ("phrase", ("reorder.enabled = true", "reorder.orientation_set = msd",
                    "tune.iterations = 2", "tune.nbest = 10", "decoder.nbest = 3")),
        ("tree", ("tune.iterations = 2", "tune.nbest = 5", "decoder.nbest = 3")),
        ("hier", ("tune.enabled = false", "decoder.stack_size = 10", "decoder.nbest = 3")),
    ], ids=["phrase-msd-tuned", "tree-tuned", "hier"])
    def test_pipeline_bytes_do_not_depend_on_jobs(self, tiny_fixture, tmp_path, kind, extra):
        model = tmp_path / "model"
        config = write_pipeline_config(tmp_path / "p.cfg", tiny_fixture, model, kind, *extra)
        outputs = {}
        for jobs in self.JOBS:
            code, _, err = self.run_jobs(["pipeline", "--config", str(config)], jobs)
            assert code == EXIT_OK, err
            outputs[jobs] = self.written(model)
            for path in model.iterdir():
                path.unlink()
        assert outputs["1"] == outputs["2"] == outputs["3"]
        assert outputs["1"]["test.nbest"].count(b"\n") > 5  # an n-best list, not one line each
        if kind == "tree":
            assert outputs["1"]["tree-rule-table.txt"].count(b"\n") > 5

    @pytest.mark.parametrize("kind", ["hier", "tree"])
    def test_rule_extraction_bytes_do_not_depend_on_jobs(self, fixture_dir, tmp_path, kind):
        links = tmp_path / "train.links"
        ttables = ["--ttable-fwd", str(tmp_path / "fwd.txt"), "--ttable-bwd", str(tmp_path / "bwd.txt")]
        code, _, err = run(["train-align", "--source", f"{fixture_dir}/train.src",
                            "--target", f"{fixture_dir}/train.tgt", "--iterations", "2",
                            "--output", str(links), *ttables])
        assert code == EXIT_OK, err
        inputs = ttables if kind == "hier" else ["--trees", f"{fixture_dir}/train.conllu"]
        outputs = []
        for jobs in self.JOBS:
            out = tmp_path / f"rules-{jobs}.txt"
            code, _, err = self.run_jobs([
                "extract-rules", "--kind", kind, "--source", f"{fixture_dir}/train.src",
                "--target", f"{fixture_dir}/train.tgt", "--alignments", str(links),
                *inputs, "--output", str(out)], jobs)
            assert code == EXIT_OK, err
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
        assert outputs[0].count(b"\n") > 10
        assert (b" [X][X] " if kind == "hier" else b"(root ") in outputs[0]

    def test_decode_translate_tune_bytes_do_not_depend_on_jobs(self, trained, fixture_dir, tmp_path):
        model = ["--lm", str(trained / "lm.arpa"), "--phrase-table", str(trained / "phrase-table.txt")]
        commands = {
            "decode": ["decode", *model, "--weights", str(trained / "weights.txt"), "--nbest", "5",
                       "--input", f"{fixture_dir}/test.src"],
            "translate": ["translate", *model, "--input", f"{fixture_dir}/test.src"],
            "tune": ["tune", *model, "--dev-source", f"{fixture_dir}/dev.src",
                     "--dev-target", f"{fixture_dir}/dev.tgt", "--iterations", "2", "--nbest", "10"],
        }
        for name, argv in commands.items():
            outputs = []
            for jobs in self.JOBS:
                out = tmp_path / f"{name}-{jobs}.txt"
                code, _, err = self.run_jobs([*argv, "--output", str(out)], jobs)
                assert code == EXIT_OK, err
                outputs.append(out.read_bytes())
            assert outputs[0] == outputs[1] == outputs[2], name
            assert outputs[0].count(b"\n") >= 10, name

    @pytest.mark.parametrize("blank", [(1, 2), (2, 3)], ids=["child-first", "parent-first"])
    def test_failing_sentence_reads_as_serial(self, trained, fixture_dir, tmp_path, blank):
        """A blank line cannot be decoded, and each command names the file and
        the first blank line at every --jobs. With --jobs 2, sentence 1 and 3
        are the child's and 2 the parent's, so the lowest failing sentence is
        the child's in one case and the parent's in the other."""
        lines = (fixture_dir / "dev.src").read_text(encoding="utf-8").splitlines()
        for index in blank:
            lines[index] = ""
        source = tmp_path / "blank.src"
        source.write_text("\n".join(lines) + "\n", encoding="utf-8")
        model = ["--lm", str(trained / "lm.arpa"), "--phrase-table", str(trained / "phrase-table.txt")]
        pipeline = tmp_path / "tuned.cfg"
        write_pipeline_config(pipeline, fixture_dir, tmp_path / "model", "phrase",
                              f"paths.dev_source = {source}", "align.iterations = 1",
                              "tune.iterations = 1", "tune.nbest = 2")
        commands = {
            "decode": ["decode", *model, "--input", str(source), "--output", str(tmp_path / "out")],
            "tune": ["tune", *model, "--dev-source", str(source),
                     "--dev-target", f"{fixture_dir}/dev.tgt", "--output", str(tmp_path / "out")],
            "pipeline": ["pipeline", "--config", str(pipeline)],
        }
        for name, argv in commands.items():
            results = [self.run_jobs(argv, jobs) for jobs in self.JOBS]
            assert results[0] == results[1] == results[2], name
            code, _, err = results[0]
            assert code == EXIT_DATA and "cannot decode an empty sentence" in err, (name, err)
            assert f"{source}: line {blank[0] + 1}: cannot decode" in err, (name, err)


class TestBenchmarkHooks:
    """The benchmark in `bench/` reaches into `cli` by name: it builds models
    through `cli._decode_sentences([], ...)` and keeps what `cli.PhraseModels`
    or `cli.TreeModels` returned, times the decoders through `cli.decode_phrase`
    and `cli.decode_tree`, and times the file readers, tree-rule extraction
    and MERT steps as module attributes. Each of those names must be looked
    up when it is called."""

    def _count(self, monkeypatch, module, names):
        calls = dict.fromkeys(names, 0)
        built = []
        for name in names:
            def counted(*args, _real=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                result = _real(*args, **kwargs)
                built.append(result)
                return result

            monkeypatch.setattr(module, name, counted)
        return calls, built

    def test_hooks_are_hit(self, tiny_fixture, tmp_path, monkeypatch):
        for name in ("_decode_inputs", "_load_weights", "build_parser", "DecodeConfig", "TreeConfig"):
            assert callable(getattr(cli, name))
        model_calls, built = self._count(monkeypatch, cli, ["PhraseModels", "TreeModels"])
        decode_calls, _ = self._count(monkeypatch, cli, ["decode_phrase", "decode_tree"])
        reader_calls, _ = self._count(monkeypatch, lm, ["read_arpa"])
        table_calls, _ = self._count(
            monkeypatch, phrasetab, ["read_phrase_table", "read_reordering_table"]
        )
        tree_table_calls, _ = self._count(
            monkeypatch, ruletab, ["read_tree_rule_table", "build_tree_rule_table"]
        )
        tune_calls, _ = self._count(monkeypatch, tune, ["line_search", "pool_bleu", "optimize_pool"])

        for kind, extra in (("phrase", ["reorder.enabled = true"]),
                            ("tree", ["tune.iterations = 1", "tune.nbest = 5"])):
            model = tmp_path / kind
            config = write_pipeline_config(
                tmp_path / f"{kind}.cfg", tiny_fixture, model, kind,
                "tune.enabled = " + ("true" if kind == "tree" else "false"), *extra,
            )
            code, _, err = run(["pipeline", "--config", str(config)])
            assert code == EXIT_OK, err
            args = cli.build_parser().parse_args(decode_argv(kind, model, tiny_fixture))
            weights = cli._load_weights(args.weights)
            assert cli._decode_sentences([], args, weights, 1) == []
            assert type(built[-1]).__name__ == ("PhraseModels" if kind == "phrase" else "TreeModels")
            assert cli._decode_inputs(args)

        assert all(model_calls.values()), model_calls
        assert all(decode_calls.values()), decode_calls
        assert all(reader_calls.values()) and all(table_calls.values()), (reader_calls, table_calls)
        assert all(tree_table_calls.values()), tree_table_calls
        assert all(tune_calls.values()), tune_calls

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="--jobs 2 runs inline without os.fork")
    def test_decoder_hooks_seen_in_parent(self, tiny_fixture, tmp_path, monkeypatch):
        """bench/spans.py times decoding by wrapping `cli.decode_phrase` and
        `cli.decode_tree`; with --jobs 2 the parent decodes sentences 0, 2
        and 4 of the five test sentences itself, through those names."""
        calls, _ = self._count(monkeypatch, cli, ["decode_phrase", "decode_tree"])
        for kind in ("phrase", "tree"):
            config = write_pipeline_config(
                tmp_path / f"{kind}.cfg", tiny_fixture, tmp_path / kind, kind, "tune.enabled = false",
            )
            code, _, err = run(["--jobs", "2", "pipeline", "--config", str(config)])
            assert code == EXIT_OK, err
        assert calls == {"decode_phrase": 3, "decode_tree": 3}, calls

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="--jobs 2 runs inline without os.fork")
    def test_alignment_hooks_seen_in_parent(self, tiny_fixture, tmp_path, monkeypatch):
        """bench/spans.py times the alignment layer by wrapping these `align`
        functions; with --jobs 2 the parent's direction still calls each,
        and the backward direction's training calls happen in the child."""
        calls, _ = self._count(monkeypatch, align, [
            "train_ibm1", "train_ibm2", "viterbi_align", "symmetrize", "format_links", "write_ttable",
        ])
        code, _, err = run([
            "--jobs", "2", "train-align", "--source", f"{tiny_fixture}/train.src",
            "--target", f"{tiny_fixture}/train.tgt", "--model", "2", "--iterations", "2",
            "--output", str(tmp_path / "out.links"), "--ttable-fwd", str(tmp_path / "fwd"),
            "--ttable-bwd", str(tmp_path / "bwd"),
        ])
        assert code == EXIT_OK, err
        assert calls["train_ibm1"] == calls["train_ibm2"] == 1, calls
        assert calls["viterbi_align"] == calls["symmetrize"] == calls["format_links"] == 40, calls
        assert calls["write_ttable"] == 2, calls
