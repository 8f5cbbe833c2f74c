# Fuzzing of the five file loaders and the CLI commands that read them. On
# any text a loader either parses it or raises its module's error, and the
# CLI exits 0 or 1, never 2. Inputs are arbitrary text, token soup, and
# valid files with a few lines dropped, repeated or given a foreign token,
# a leading byte-order mark or an indented comment line.
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from modbe import cli
from modbe.dataset import DatasetError, load_dataset_csv
from modbe.evaluation import CONFIG_KEYS, EvalError, chain_classes, chain_mdp, parse_config
from modbe.funcclass import (FiniteClass, FunctionClassError, NestedSequence,
                             load_sequence, save_sequence)
from modbe.mdp import MDPError, load_mdp, save_mdp

FUZZ = settings(max_examples=60, deadline=None)

NUMBERS = ["0", "1", "2", "3", "4", "5", "-1", "0.5", "1.5", "nan", "inf", "1e400",
           "99999999999999999999", "x", ""]
SEQUENCE_WORDS = ["classes", "class", "finite", "abstraction", "linear", "members",
                  "blocks", "dim"]
# "cb" is left out: a cb cell draws 10 000 evaluation contexts (160 MB).
CONFIG_VALUES = ["chain", "holdout_bias", "nope", "5", "6", "5, 6", "0", "0, 1", "0, 0",
                 "-1", "abc", "1.5", "modbe", "holdout, oracle", "fixed", "fixed-2",
                 "fixed-9", "practical", "theoretical", "magic", "0.1", "0.9", "nan",
                 "out.csv", "missing/out.csv", ".", "", "out.csv/"]


def variants(valid: str, sep: str, tokens: list[str]):
    """Arbitrary text, token soup, or (half the draws) valid with one to
    three line mutations."""
    soup = st.lists(st.lists(st.sampled_from(tokens), max_size=7).map(sep.join),
                    max_size=8).map("\n".join)

    @st.composite
    def mutated(draw):
        lines = valid.splitlines()
        for _ in range(draw(st.integers(1, 3))):
            if not lines:
                break
            i = draw(st.integers(0, len(lines) - 1))
            kind = draw(st.sampled_from(["drop", "repeat", "token", "token", "bom", "comment"]))
            if kind == "drop":
                del lines[i]
            elif kind == "repeat":
                lines.insert(i, lines[i])
            elif kind == "bom":
                lines[0] = "\ufeff" + lines[0]
            elif kind == "comment":
                lines.insert(i, "  # note")
            else:
                parts = lines[i].split(sep)
                parts[draw(st.integers(0, len(parts) - 1))] = draw(st.sampled_from(tokens))
                lines[i] = sep.join(parts)
        return "\n".join(lines) + "\n"

    return st.one_of(st.text(max_size=120), soup, mutated(), mutated())


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    paths = {name: str(root / name) for name in ("chain.mdp", "chain.cls", "data.csv")}
    save_mdp(chain_mdp(), paths["chain.mdp"])
    save_sequence(chain_classes(), paths["chain.cls"])
    assert cli.main(["gen-data", "--mdp", paths["chain.mdp"], "--n", "5",
                     "--out", paths["data.csv"]]) == 0
    paths["zero.cls"] = str(root / "zero.cls")      # one member: diagnose stays cheap
    save_sequence(NestedSequence((FiniteClass((np.zeros((4, 2)),)),)), paths["zero.cls"])
    paths["root"] = root
    return paths


def fuzz_file(files, name: str, text: str) -> str:
    path = files["root"] / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def loads_or_raises(load, error, path: str) -> None:
    try:
        load(path)
    except error:
        pass


@pytest.fixture(scope="module")
def valid(files):
    return {"mdp": Path(files["chain.mdp"]).read_text(),
            "cls": Path(files["chain.cls"]).read_text(),
            "csv": Path(files["data.csv"]).read_text(),
            "cfg": "instance = chain\nn_list = 5\nseeds = 0\nmethods = modbe, holdout, fixed\n"
                   "output = out.csv\n",
            "beh": "0.25 0.75\n" * 16}


class TestLoaderFuzz:
    @FUZZ
    @given(data=st.data())
    def test_load_mdp(self, files, valid, data):
        path = fuzz_file(files, "fuzz.mdp", data.draw(variants(valid["mdp"], " ", NUMBERS)))
        loads_or_raises(load_mdp, MDPError, path)
        out = str(files["root"] / "gen.csv")
        assert cli.main(["gen-data", "--mdp", path, "--n", "5", "--out", out]) in (0, 1)
        assert cli.main(["diagnose", "--mdp", path, "--classes", files["zero.cls"]]) in (0, 1)

    @FUZZ
    @given(data=st.data())
    def test_load_sequence(self, files, valid, data):
        text = data.draw(variants(valid["cls"], " ", NUMBERS + SEQUENCE_WORDS))
        path = fuzz_file(files, "fuzz.cls", text)
        loads_or_raises(load_sequence, FunctionClassError, path)
        for argv in (["run-modbe", "--data", files["data.csv"]],
                     ["diagnose", "--mdp", files["chain.mdp"]]):
            assert cli.main(argv + ["--classes", path]) in (0, 1)

    @FUZZ
    @given(data=st.data())
    def test_load_dataset_csv(self, files, valid, data):
        path = fuzz_file(files, "fuzz.csv", data.draw(variants(valid["csv"], ",", NUMBERS)))
        loads_or_raises(load_dataset_csv, DatasetError, path)
        for command in ("run-fqi", "run-modbe", "run-holdout"):
            assert cli.main([command, "--data", path, "--classes", files["chain.cls"]]) in (0, 1)

    @FUZZ
    @given(data=st.data())
    def test_probability_file(self, files, valid, data):
        path = fuzz_file(files, "fuzz.txt", data.draw(variants(valid["beh"], " ", NUMBERS)))
        out = str(files["root"] / "gen.csv")
        assert cli.main(["gen-data", "--mdp", files["chain.mdp"], "--n", "5", "--out", out,
                         "--behavior", path]) in (0, 1)
        assert cli.main(["diagnose", "--mdp", files["chain.mdp"], "--classes", files["zero.cls"],
                         "--mu", path]) in (0, 1)

    @settings(FUZZ, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_parse_config(self, files, valid, monkeypatch, data):
        monkeypatch.chdir(files["root"])       # a parsed config writes its output here
        line = st.tuples(st.sampled_from(CONFIG_KEYS + ("bogus",)),
                         st.sampled_from(CONFIG_VALUES)).map(" = ".join)
        text = data.draw(st.one_of(variants(valid["cfg"], " = ", CONFIG_VALUES),
                                   st.lists(line, max_size=8).map("\n".join)))
        path = fuzz_file(files, "fuzz.cfg", text)
        loads_or_raises(parse_config, EvalError, path)
        assert cli.main(["bench", "--config", path, "--no-runtime"]) in (0, 1)
