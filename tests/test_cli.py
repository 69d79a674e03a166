import io

import pytest

from smtkit.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, PipelineConfig, main
from smtkit.synthdata import write_fixture_tree


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
