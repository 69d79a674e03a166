"""The cyclic garbage collector is paused inside the decoders, IBM EM and the
CoNLL-U readers, and restored to what it was when they return or raise. The
pause rests on those functions making no reference cycles, which
`test_leaves_no_cycles` pins."""

import gc
from pathlib import Path

import pytest

from smtkit import align, deptree
from smtkit.cli import _alignments_for
from smtkit.corpus import read_parallel, read_sentences
from smtkit.decoder import (
    ChartConfig,
    ChartModels,
    DecodeConfig,
    DecodeError,
    PhraseModels,
    TreeConfig,
    TreeModels,
    decode_chart,
    decode_phrase,
    decode_tree,
)
from smtkit.gcpause import paused_gc
from smtkit.lm import NGramModel, train_lm
from smtkit.phrasetab import build_phrase_table
from smtkit.ruletab import build_rule_table, build_tree_rule_table
from smtkit.synthdata import write_fixture_tree


@pytest.fixture(scope="module")
def system(tmp_path_factory):
    """A small trained system: its training pairs, tree text, tables and test
    inputs."""
    paths = write_fixture_tree(40, 2, 4, seed=5, root=str(tmp_path_factory.mktemp("gc")))
    pairs = read_parallel(paths["train.src"], paths["train.tgt"])
    conllu = Path(paths["train.conllu"]).read_text(encoding="utf-8")
    for pair, tree in zip(pairs, deptree.read_tree_shapes(conllu)):
        pair.source_tree = tree
    fwd, bwd, links = _alignments_for(pairs, 3, 1, "grow-diag-final-and")
    lm = train_lm([p.target for p in pairs] + read_sentences(paths["mono.tgt"]), order=3)
    test_conllu = Path(paths["test.conllu"]).read_text(encoding="utf-8")
    return {
        "pairs": pairs,
        "conllu": conllu,
        "ibm1": align.train_ibm1(pairs, 3)[0],
        "lm": lm,
        "phrases": build_phrase_table(pairs, links, fwd, bwd),
        "rules": build_rule_table(pairs, links, fwd, bwd),
        "tree_rules": build_tree_rule_table(pairs, links)[0],
        "test": read_sentences(paths["test.src"]),
        "test_trees": deptree.parse_conllu(test_conllu),
    }


def calls(system):
    """Per paused function: a call that returns, and one that raises."""
    pairs, lm = system["pairs"], system["lm"]
    sentence, tree = system["test"][0], system["test_trees"][0]
    # fresh models each time, so that each call builds its LM memo too
    return {
        "decode_phrase": (
            lambda: decode_phrase(sentence, PhraseModels(system["phrases"], lm),
                                  config=DecodeConfig(nbest=5)),
            lambda: decode_phrase([], PhraseModels(system["phrases"], lm)),
        ),
        "decode_chart": (
            lambda: decode_chart(sentence, ChartModels(system["rules"], lm),
                                 config=ChartConfig(cell_beam=10, nbest=5)),
            lambda: decode_chart([], ChartModels(system["rules"], lm)),
        ),
        "decode_tree": (
            lambda: decode_tree(tree, TreeModels(system["tree_rules"], lm),
                                config=TreeConfig(k_best_per_node=10, nbest=5)),
            lambda: decode_tree(deptree.DepSentence(), TreeModels(system["tree_rules"], lm)),
        ),
        "train_ibm1": (
            lambda: align.train_ibm1(pairs, 3),
            lambda: align.train_ibm1([], 3),
        ),
        "train_ibm2": (
            lambda: align.train_ibm2(pairs, system["ibm1"], 3),
            lambda: align.train_ibm2(pairs, align.TTable({}), 3),
        ),
        "parse_conllu": (
            lambda: deptree.parse_conllu(system["conllu"]),
            lambda: deptree.parse_conllu("1\tw\n"),
        ),
        "read_tree_shapes": (
            lambda: deptree.read_tree_shapes(system["conllu"]),
            lambda: deptree.read_tree_shapes(system["conllu"] + "\n1\tw\t_\t_\t_\t_\t1\tdep\t_\t_\n"),
        ),
    }


# a function each paused one calls from inside its loop
PROBES = {
    "decode_phrase": (NGramModel, "score_ids"),
    "decode_chart": (NGramModel, "score_ids"),
    "decode_tree": (NGramModel, "score_ids"),
    "train_ibm1": (align, "_normalize_rows"),
    "train_ibm2": (align, "_normalize_rows"),
    "parse_conllu": (deptree, "_validate_tree"),
    "read_tree_shapes": (deptree, "_validate_tree"),
}
ERRORS = (DecodeError, align.AlignError, deptree.ConlluError)


@pytest.fixture
def restore_gc():
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("name", sorted(PROBES))
@pytest.mark.parametrize("enabled", [True, False])
def test_state_restored_on_return_and_raise(name, enabled, system, restore_gc):
    ok, failing = calls(system)[name]
    (gc.enable if enabled else gc.disable)()
    ok()
    assert gc.isenabled() is enabled
    with pytest.raises(ERRORS):
        failing()
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("name", sorted(PROBES))
def test_collector_is_off_inside(name, system, restore_gc, monkeypatch):
    ok, _ = calls(system)[name]
    owner, attr = PROBES[name]
    inner = getattr(owner, attr)
    seen = []

    def probe(*args):
        seen.append(gc.isenabled())
        return inner(*args)

    monkeypatch.setattr(owner, attr, probe)
    gc.enable()
    ok()
    assert seen and not any(seen)
    assert gc.isenabled()


@pytest.mark.parametrize("name", sorted(PROBES))
def test_leaves_no_cycles(name, system, restore_gc):
    ok, _ = calls(system)[name]
    gc.disable()
    gc.collect()
    ok()
    assert gc.collect() == 0


def test_pause_nests_and_restores_after_an_exception(restore_gc):
    gc.enable()
    with pytest.raises(KeyError):
        with paused_gc():
            with paused_gc():
                assert not gc.isenabled()
            assert not gc.isenabled()
            raise KeyError("x")
    assert gc.isenabled()
