# End-to-end checks of the command-line driver: every subcommand runs
# in-process via cli.main(argv) so exit codes and printed output are exact.
import errno
import os
import subprocess
import sys
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from modbe import cli
from modbe import dataset as ds
from modbe import evaluation as ev
from modbe.basealg import BaseAlgError
from modbe.dataset import MAX_SAMPLES, DatasetError, load_dataset_csv
from modbe.evaluation import EvalError, chain_classes, chain_mdp
from modbe.funcclass import FiniteClass, FunctionClassError, NestedSequence, save_sequence
from modbe.mdp import MDPError, save_mdp
from modbe.selection import SelectionError


@pytest.fixture
def chain_files(tmp_path):
    mdp_path = tmp_path / "chain.mdp"
    cls_path = tmp_path / "chain.classes"
    save_mdp(chain_mdp(), str(mdp_path))
    save_sequence(chain_classes(), str(cls_path))
    return str(mdp_path), str(cls_path)


@pytest.fixture
def chain_data(chain_files, tmp_path):
    mdp_path, cls_path = chain_files
    data_path = str(tmp_path / "data.csv")
    rc = cli.main(["gen-data", "--mdp", mdp_path, "--n", "200",
                   "--seed", "7", "--out", data_path])
    assert rc == 0
    return mdp_path, cls_path, data_path


def _no_cell(*_args, **_kwargs):
    raise AssertionError("a cell ran")


class TestGenData:
    def test_writes_loadable_csv(self, chain_files, tmp_path, capsys):
        mdp_path, _ = chain_files
        data_path = str(tmp_path / "d.csv")
        assert cli.main(["gen-data", "--mdp", mdp_path, "--n", "200",
                         "--seed", "7", "--out", data_path]) == 0
        assert "wrote 4 x 200 transitions" in capsys.readouterr().out
        data = load_dataset_csv(data_path)
        assert data.horizon == 4 and data.n == 200

    def test_same_seed_identical_bytes(self, chain_files, tmp_path):
        mdp_path, _ = chain_files
        outs = []
        for name in ("a.csv", "b.csv"):
            path = str(tmp_path / name)
            assert cli.main(["gen-data", "--mdp", mdp_path, "--n", "50",
                             "--seed", "3", "--out", path]) == 0
            outs.append(Path(path).read_bytes())
        assert outs[0] == outs[1]

    def test_missing_mdp_is_usage_error(self, tmp_path, capsys):
        rc = cli.main(["gen-data", "--mdp", str(tmp_path / "nope.mdp"),
                       "--n", "50", "--out", str(tmp_path / "o.csv")])
        assert rc == 1
        assert "error: --mdp:" in capsys.readouterr().err

    def test_malformed_mdp_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.mdp"
        bad.write_text("not a header\n")
        rc = cli.main(["gen-data", "--mdp", str(bad), "--n", "50",
                       "--out", str(tmp_path / "o.csv")])
        assert rc == 1
        assert "error: --mdp:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["gen-data", "diagnose"])
    def test_nan_reward_mdp_is_usage_error(self, tmp_path, capsys, command):
        mdp_path = tmp_path / "nan.mdp"
        mdp_path.write_text("1 1 2\n1.0\n1.0\n1.0\nnan\n")   # S A H, rho, P_1, P_2, r
        cls_path = tmp_path / "one.classes"
        cls_path.write_text("classes 1\nclass abstraction 1 1 blocks 1\n0\n")
        args = {"gen-data": ["--n", "5", "--out", str(tmp_path / "o.csv")],
                "diagnose": ["--classes", str(cls_path)]}[command]
        assert cli.main([command, "--mdp", str(mdp_path)] + args) == 1
        assert "error: --mdp:" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()


class TestRunFQI:
    def test_prints_per_step_losses(self, chain_data, capsys):
        _, cls_path, data_path = chain_data
        rc = cli.main(["run-fqi", "--data", data_path, "--classes", cls_path,
                       "--k", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fqi: class 3, horizon 4" in out
        assert out.count("validation_loss=") == 4

    def test_out_writes_q_tables(self, chain_data, tmp_path):
        _, cls_path, data_path = chain_data
        q_path = str(tmp_path / "q.txt")
        assert cli.main(["run-fqi", "--data", data_path, "--classes", cls_path,
                         "--k", "2", "--out", q_path]) == 0
        with open(q_path) as fh:
            rows = [np.fromstring(l, sep=" ") for l in fh]
        assert len(rows) == 4 and all(len(r) == 8 for r in rows)  # H rows of S*A
        assert all(np.all((r >= 0) & (r <= 4)) for r in rows)

    def test_bad_class_index(self, chain_data, capsys):
        _, cls_path, data_path = chain_data
        rc = cli.main(["run-fqi", "--data", data_path, "--classes", cls_path,
                       "--k", "9"])
        assert rc == 1
        assert "outside [1, 3]" in capsys.readouterr().err

    def test_malformed_dataset(self, chain_data, tmp_path, capsys):
        _, cls_path, _ = chain_data
        bad = tmp_path / "bad.csv"
        bad.write_text("h,i,x,a,r,x_next\n1,0,0,zap,0.0,1\n")
        rc = cli.main(["run-fqi", "--data", str(bad), "--classes", cls_path])
        assert rc == 1
        assert "error: --data:" in capsys.readouterr().err


class TestRunModBE:
    def test_selects_and_reports_budget(self, chain_data, capsys):
        _, cls_path, data_path = chain_data
        rc = cli.main(["run-modbe", "--data", data_path, "--classes", cls_path,
                       "--schedule", "practical", "--seed", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "selected class:" in out and "of 3" in out
        assert "base calls:" in out and "erm calls:" in out

    def test_trace_is_deterministic(self, chain_data, tmp_path):
        _, cls_path, data_path = chain_data
        traces = []
        for name in ("t1.txt", "t2.txt"):
            path = str(tmp_path / name)
            assert cli.main(["run-modbe", "--data", data_path,
                             "--classes", cls_path, "--schedule", "practical",
                             "--seed", "5", "--trace", path]) == 0
            traces.append(Path(path).read_bytes())
        assert traces[0] == traces[1] and len(traces[0]) > 0

    def test_single_class_skips_tests(self, chain_data, tmp_path, capsys):
        _, _, data_path = chain_data
        solo = tmp_path / "solo.classes"
        zero = np.zeros((4, 2))
        save_sequence(NestedSequence((FiniteClass((zero, zero + 1.0), clip_high=4.0),)),
                      str(solo))
        rc = cli.main(["run-modbe", "--data", data_path, "--classes", str(solo)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "selected class: 1 of 1" in out
        assert "test events: 0" in out

    def test_rejects_bad_schedule(self, chain_data):
        _, cls_path, data_path = chain_data
        rc = cli.main(["run-modbe", "--data", data_path, "--classes", cls_path,
                       "--schedule", "psychic"])
        assert rc == 1


    def test_delta_out_of_range_is_usage_error(self, chain_data, capsys):
        _, cls_path, data_path = chain_data
        rc = cli.main(["run-modbe", "--data", data_path, "--classes", cls_path,
                       "--delta", "0.9"])
        assert rc == 1
        assert "error: delta must lie in (0, 1/e]" in capsys.readouterr().err


class TestRunHoldout:
    def test_prints_all_scores(self, chain_data, capsys):
        _, cls_path, data_path = chain_data
        rc = cli.main(["run-holdout", "--data", data_path, "--classes", cls_path])
        assert rc == 0
        out = capsys.readouterr().out
        assert "selected class:" in out
        assert out.count("validation loss") == 3

    def test_byte_order_mark_dataset(self, chain_data, tmp_path, capsys):
        _, cls_path, data_path = chain_data
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + Path(data_path).read_bytes())
        assert cli.main(["run-holdout", "--data", data_path, "--classes", cls_path]) == 0
        plain_out = capsys.readouterr().out
        assert cli.main(["run-holdout", "--data", str(marked), "--classes", cls_path]) == 0
        assert capsys.readouterr().out == plain_out


class TestNegativeZeroRewards:
    """FQI's last step regresses onto the rewards as loaded, so a reward
    written -0.0 reaches its ERM as -0.0; the outputs stay those of 0.0."""

    def test_q_tables_and_traces_equal_those_of_positive_zero(self, chain_data, tmp_path):
        _, cls_path, data_path = chain_data
        head, body = Path(data_path).read_text().split("h,x,a,r,x_next\n")
        rows = [row.split(",") for row in body.splitlines()]
        signed = tmp_path / "signed.csv"
        signed.write_text(head + "h,x,a,r,x_next\n" + "".join(
            ",".join(f[:3] + ["-0.0" if float(f[3]) == 0.0 else f[3]] + f[4:]) + "\n"
            for f in rows))
        rewards = np.concatenate([s.r for s in load_dataset_csv(str(signed)).steps])
        assert np.signbit(rewards).any()        # the loader keeps the sign
        outputs = {}
        for data in (data_path, str(signed)):
            files = []
            for argv in ([["run-fqi", "--k", str(k), "--out"] for k in (1, 2, 3)]
                         + [["run-modbe", "--schedule", s, "--trace"]
                            for s in ("practical", "theoretical")]):
                out = tmp_path / "out.txt"
                assert cli.main([argv[0], "--data", data, "--classes", cls_path,
                                 *argv[1:], str(out)]) == 0
                files.append(out.read_bytes())
            outputs[data] = files
        assert outputs[str(signed)] == outputs[data_path]


class TestDiagnose:
    def test_chain_report(self, chain_files, capsys):
        mdp_path, cls_path = chain_files
        rc = cli.main(["diagnose", "--mdp", mdp_path, "--classes", cls_path])
        assert rc == 0
        out = capsys.readouterr().out
        assert "concentrability" in out and "class 3" in out

    def test_concentrability_line_is_a_plain_float(self, chain_files, capsys):
        # the same line under any numpy major version, never np.float64(8.0)
        mdp_path, cls_path = chain_files
        rc = cli.main(["diagnose", "--mdp", mdp_path, "--classes", cls_path, "--mu", "uniform"])
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[0] == "concentrability 8.0"

    def test_bad_mu_file(self, chain_files, tmp_path, capsys):
        mdp_path, cls_path = chain_files
        mu = tmp_path / "mu.txt"
        mu.write_text("0.5 0.5\n")
        rc = cli.main(["diagnose", "--mdp", mdp_path, "--classes", cls_path,
                       "--mu", str(mu)])
        assert rc == 1
        assert "error: --mu:" in capsys.readouterr().err


class TestBench:
    def _config(self, tmp_path, out_name, extra=""):
        # each "key = value" line of extra replaces that key's default
        values = {"instance": "chain", "n_list": "40", "seeds": "0, 1",
                  "methods": "modbe, holdout", "schedule": "practical",
                  "output": str(tmp_path / out_name)}
        for line in extra.splitlines():
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        return str(cfg)

    def test_runs_and_writes_csv(self, tmp_path, capsys):
        cfg = self._config(tmp_path, "res.csv")
        rc = cli.main(["bench", "--config", cfg, "--no-runtime"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "wrote 4 rows" in out and "mean_regret" in out
        lines = (tmp_path / "res.csv").read_text().splitlines()
        assert lines[0] == "n,seed,method,selected_k,regret,runtime_ms"
        assert len(lines) == 5 and all(l.endswith(",") for l in lines[1:])

    def test_jobs_do_not_change_output(self, tmp_path):
        c1 = self._config(tmp_path, "r1.csv")
        assert cli.main(["bench", "--config", c1, "--no-runtime"]) == 0
        c2 = self._config(tmp_path, "r2.csv")
        assert cli.main(["bench", "--config", c2, "--no-runtime", "--jobs", "2"]) == 0
        assert (tmp_path / "r1.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes()

    def test_unknown_instance(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("instance = lava\nn_list = 40\nseeds = 0\nmethods = modbe\n"
                       f"output = {tmp_path / 'x.csv'}\n")
        rc = cli.main(["bench", "--config", str(cfg)])
        assert rc == 1
        assert capsys.readouterr().err == "error: --config: unknown instance family 'lava'\n"

    def test_unknown_method(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(ev, "run_rl_cell", _no_cell)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("instance = chain\nn_list = 40\nseeds = 0\nmethods = bogus\n"
                       f"output = {tmp_path / 'x.csv'}\n")
        rc = cli.main(["bench", "--config", str(cfg)])
        assert rc == 1
        assert capsys.readouterr().err == "error: --config: unknown method 'bogus'\n"
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("lines, message", [
        ("methods = modbe\nseeds = 0, 1, 2\nseeds = 5\n",
         "bad.cfg:5: config key 'seeds' repeats line 4"),
        ("methods = holdout, holdout\nseeds = 0\n", "method(s) given twice: holdout"),
        ("methods = fixed, fixed-2\nseeds = 0\n", "method(s) given twice: fixed-2")],
        ids=["repeated-key", "repeated-method", "fixed-repeats-fixed-K"])
    def test_repeat_rejected_before_any_cell(self, tmp_path, capsys, monkeypatch, lines,
                                             message):
        monkeypatch.setattr(ev, "run_rl_cell", _no_cell)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"instance = chain\nn_list = 40\n{lines}output = {tmp_path / 'x.csv'}\n")
        rc = cli.main(["bench", "--config", str(cfg), "--no-runtime"])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_bad_fixed_index(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("instance = chain\nn_list = 40\nseeds = 0\nmethods = modbe, fixed-9\n"
                       f"output = {tmp_path / 'x.csv'}\n")
        rc = cli.main(["bench", "--config", str(cfg)])
        assert rc == 1
        assert capsys.readouterr().err == ("error: --config: method 'fixed-9': "
                                           "class index outside [1, 3]\n")
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("key, text", [
        ("n_list", "abc"), ("seeds", "1.5"), ("delta", "x")])
    def test_malformed_number(self, tmp_path, capsys, key, text):
        values = {"instance": "chain", "n_list": "40", "seeds": "0", "methods": "modbe",
                  "output": str(tmp_path / "x.csv"), key: text}
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        rc = cli.main(["bench", "--config", str(cfg)])
        assert rc == 1
        assert f"config key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("lines, message", [
        ("instance = cb\nmethods = modbe\ndelta = 0.9\n", "delta must"),
        ("instance = chain\nmethods = holdout\nschedule = magic\n", "schedule must"),
        ("instance = chain\nmethods = modbe\ndelta = nan\n", "delta must")])
    def test_bad_schedule_or_delta_rejected_before_any_cell(self, tmp_path, capsys,
                                                            monkeypatch, lines, message):
        monkeypatch.setattr(ev, "run_rl_cell", _no_cell)
        monkeypatch.setattr(ev, "run_cb_cell", _no_cell)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"n_list = 200\nseeds = 0\noutput = {tmp_path / 'x.csv'}\n" + lines)
        rc = cli.main(["bench", "--config", str(cfg), "--no-runtime"])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_cb_n_beyond_feature_buffer_rejected_before_any_cell(self, tmp_path, capsys,
                                                                 monkeypatch):
        monkeypatch.setattr(ev, "run_cb_cell", _no_cell)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("instance = cb\nn_list = 200, 10000000\nseeds = 0\nmethods = modbe\n"
                       f"output = {tmp_path / 'x.csv'}\n")
        rc = cli.main(["bench", "--config", str(cfg), "--no-runtime"])
        assert rc == 1
        assert "cb n = 10000000 needs a 160000000000-byte feature buffer" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_rejected(self, tmp_path, capsys, monkeypatch, jobs):
        monkeypatch.setattr(ev, "run_experiment", _no_cell)
        rc = cli.main(["bench", "--config", self._config(tmp_path, "x.csv"), "--jobs", jobs])
        assert rc == 1
        assert "argument --jobs: must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_missing_output_directory_rejected_before_any_cell(self, tmp_path, capsys,
                                                               monkeypatch):
        monkeypatch.setattr(ev, "run_rl_cell", _no_cell)
        monkeypatch.setattr(ev, "run_cb_cell", _no_cell)
        cfg = self._config(tmp_path, "nonexistent/dir/out.csv")
        rc = cli.main(["bench", "--config", cfg, "--no-runtime"])
        assert rc == 1
        assert "output directory" in capsys.readouterr().err

    @pytest.mark.parametrize("lines, message", [
        ("seeds = 0, -1\n", "seeds must be distinct and non-negative"),
        ("output = \n", "does not name a file"),
        ("output = {tmp}\n", "does not name a file"),
        ("output = {tmp}/\n", "does not name a file"),
        ("output = {tmp}/a\0b.csv\n", "--config: output '{tmp}/a\\x00b.csv' holds a NUL byte"),
        ("output = {tmp}/" + "x" * 300 + ".csv\n", "File name too long"),
        ("output = {tmp}/" + "x" * 300 + "/x.csv\n",
         "--config: output directory '{tmp}/" + "x" * 300 + "': File name too long"),
        ("output = {tmp}/bench.cfg/x.csv\n",
         "--config: output directory '{tmp}/bench.cfg': Not a directory"),
        ("n_list = 40, 99999999999999999999\n", "n values must lie in"),
        ("n_list = 100, 100\n", "n values must be distinct")],
        ids=["negative-seed", "empty-output", "output-is-directory", "output-ends-in-slash",
             "output-nul-byte", "output-name-too-long", "output-dir-name-too-long",
             "output-dir-is-a-file", "n-beyond-bound", "repeated-n"])
    def test_bad_seeds_or_output_rejected_before_any_cell(self, tmp_path, capsys,
                                                          monkeypatch, lines, message):
        monkeypatch.setattr(ev, "run_rl_cell", _no_cell)
        cfg = self._config(tmp_path, "x.csv", lines.format(tmp=tmp_path))
        rc = cli.main(["bench", "--config", cfg, "--no-runtime"])
        assert rc == 1
        assert message.format(tmp=tmp_path) in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_missing_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n_list = 40\nseeds = 0\nmethods = modbe\n")
        rc = cli.main(["bench", "--config", str(cfg)])
        assert rc == 1
        assert "missing config key" in capsys.readouterr().err


class TestInputMismatch:
    """Inputs that disagree with each other, or are not text, exit 1."""

    @pytest.mark.parametrize("command", ["run-fqi", "run-modbe", "run-holdout"])
    @pytest.mark.parametrize("field, value", [
        (1, "99"), (1, "-1"), (2, "2"), (2, "-1"), (4, "4"), (1, "99999999999999999999")],
        ids=["x=99", "x=-1", "a=2", "a=-1", "x_next=4", "x-beyond-int64"])
    def test_dataset_index_outside_classes(self, chain_data, tmp_path, capsys,
                                           command, field, value):
        _, cls_path, data_path = chain_data
        lines = Path(data_path).read_text().splitlines()
        i = lines.index("h,x,a,r,x_next") + 1
        row = lines[i].split(",")
        row[field] = value
        lines[i] = ",".join(row)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert cli.main([command, "--data", str(bad), "--classes", cls_path]) == 1
        assert "error: --data:" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "classes 1\nclass abstraction 4 2 blocks 1\n0 0 1 1\n",
        "classes 1\nclass abstraction 4 2 blocks 1\n0 99999999999999999999 0 0\n",
        "classes 1\nclass abstraction 4 99999999999999999999 blocks 1\n0 0 0 0\n",
        "classes 2\nclass abstraction 3 2 blocks 1\n0 0 0\n"
        "class abstraction 4 2 blocks 4\n0 1 2 3\n",
        "classes 1\nclass abstraction 3 2 blocks 1\n0 0 0\n",
        "classes 1\nclass abstraction 4 1 blocks 1\n0 0 0 0\n"],
        ids=["block-id-beyond-declared", "block-id-beyond-int64", "actions-beyond-int64",
             "nested-shapes-differ", "fewer-states-than-data", "fewer-actions-than-data"])
    def test_bad_or_mismatched_class_file(self, chain_data, tmp_path, capsys, text):
        _, _, data_path = chain_data
        cls = tmp_path / "bad.classes"
        cls.write_text(text)
        assert cli.main(["run-modbe", "--data", data_path, "--classes", str(cls)]) == 1
        assert "error: --" in capsys.readouterr().err

    @pytest.mark.parametrize("shape", [(3, 2), (4, 3)])
    def test_diagnose_class_shape_must_match_mdp(self, chain_files, tmp_path, capsys, shape):
        mdp_path, _ = chain_files
        cls = tmp_path / "other.classes"
        save_sequence(NestedSequence((FiniteClass((np.zeros(shape),)),)), str(cls))
        assert cli.main(["diagnose", "--mdp", mdp_path, "--classes", str(cls)]) == 1
        assert "do not match the MDP's (S, A) = (4, 2)" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--mdp", "--classes", "--data", "--config"])
    def test_binary_file(self, chain_data, tmp_path, capsys, flag):
        mdp_path, cls_path, data_path = chain_data
        binary = tmp_path / "binary"
        binary.write_bytes(bytes(range(128, 256)))
        argv = {"--mdp": ["diagnose", "--mdp", str(binary), "--classes", cls_path],
                "--classes": ["run-modbe", "--data", data_path, "--classes", str(binary)],
                "--data": ["run-modbe", "--data", str(binary), "--classes", cls_path],
                "--config": ["bench", "--config", str(binary)]}[flag]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == (f"error: {flag}: 'utf-8' codec can't decode byte 0x80 "
                                           "in position 0: invalid start byte (line 1)\n")


    @pytest.mark.parametrize("command", ["run-modbe", "diagnose"])
    def test_class_file_with_data_after_its_classes(self, chain_data, tmp_path, capsys,
                                                    command):
        mdp_path, _, data_path = chain_data
        cls = tmp_path / "extra.classes"
        cls.write_text("classes 1\nclass abstraction 4 2 blocks 1\n0 0 0 0\n"
                       "class abstraction 4 2 blocks 4\n0 1 2 3\n")
        first = {"run-modbe": ["--data", data_path], "diagnose": ["--mdp", mdp_path]}[command]
        assert cli.main([command, *first, "--classes", str(cls)]) == 1
        assert capsys.readouterr().err == (f"error: --classes: {cls}:4: expected end of file "
                                           f"after 1 classes\n")

    @staticmethod
    def argv_reading(flag, name, chain_data, tmp_path):
        """A command whose input flag names `name`; every other input is valid."""
        mdp_path, cls_path, data_path = chain_data
        return {"--mdp": ["diagnose", "--mdp", name, "--classes", cls_path],
                "--classes": ["run-modbe", "--data", data_path, "--classes", name],
                "--data": ["run-holdout", "--data", name, "--classes", cls_path],
                "--config": ["bench", "--config", name],
                "--behavior": ["gen-data", "--mdp", mdp_path, "--behavior", name, "--n", "5",
                               "--out", str(tmp_path / "out.csv")],
                "--mu": ["diagnose", "--mdp", mdp_path, "--classes", cls_path, "--mu", name]}[flag]

    @pytest.mark.parametrize("flag", ["--mdp", "--classes", "--data", "--config", "--behavior",
                                      "--mu"])
    def test_directory(self, chain_data, tmp_path, capsys, flag):
        assert cli.main(self.argv_reading(flag, str(tmp_path), chain_data, tmp_path)) == 1
        assert capsys.readouterr().err.startswith(f"error: {flag}: ")

    @pytest.mark.parametrize("flag", ["--mdp", "--classes", "--data", "--config", "--behavior",
                                      "--mu"])
    def test_nul_byte_in_name(self, chain_data, tmp_path, capsys, flag):
        # open() raises a plain ValueError for such a name, which used to exit 2
        name = str(tmp_path / "a\0b")
        assert cli.main(self.argv_reading(flag, name, chain_data, tmp_path)) == 1
        assert capsys.readouterr().err == f"error: {flag}: file name {name!r} holds a NUL byte\n"
        assert not (tmp_path / "out.csv").exists()


class TestProbabilityFile:
    """--behavior and --mu read a file of H*S*A probabilities from disk, even
    under a name that looks like a URL."""

    # (argv up to the flag, one non-uniform file for the chain MDP: H = 4, S = 4, A = 2)
    CASES = {"--behavior": (["gen-data", "--mdp", "chain.mdp", "--n", "50", "--out", "data.csv"],
                            "0.25 0.75\n" * 16),
             "--mu": (["diagnose", "--mdp", "chain.mdp", "--classes", "chain.classes"],
                      "0.0625 0.1875 0.0625 0.1875 0.0625 0.1875 0.0625 0.1875\n" * 4)}

    @pytest.fixture
    def chain_dir(self, chain_files, tmp_path, monkeypatch):
        def no_network(*args, **kwargs):
            raise AssertionError("a URL was opened")

        monkeypatch.setattr(urllib.request, "urlopen", no_network)
        monkeypatch.chdir(tmp_path)
        return tmp_path

    def run(self, flag, spec, chain_dir):
        argv, _ = self.CASES[flag]
        rc = cli.main([*argv, flag, spec])
        data = chain_dir / "data.csv"
        return rc, data.read_bytes() if data.exists() else None

    @pytest.mark.parametrize("flag", ["--behavior", "--mu"])
    def test_url_like_path_is_read_from_disk(self, chain_dir, capsys, flag):
        text = self.CASES[flag][1]
        (chain_dir / "p.txt").write_text(text)
        (chain_dir / "http:" / "host").mkdir(parents=True)
        (chain_dir / "http:" / "host" / "p.txt").write_text(text)
        plain = self.run(flag, "p.txt", chain_dir), capsys.readouterr()
        url_like = self.run(flag, "http://host/p.txt", chain_dir), capsys.readouterr()
        assert plain[0][0] == 0, plain[1].err
        assert url_like == plain

    @pytest.mark.parametrize("flag", ["--behavior", "--mu"])
    def test_any_line_layout_reads_alike(self, chain_dir, capsys, flag):
        values = self.CASES[flag][1].split()
        (chain_dir / "p.txt").write_text(self.CASES[flag][1])
        regular = self.run(flag, "p.txt", chain_dir), capsys.readouterr()
        (chain_dir / "p.txt").write_text(" ".join(values[:3]) + "\n# note\n\n"
                                         + " ".join(values[3:]) + "\n")
        rewrapped = self.run(flag, "p.txt", chain_dir), capsys.readouterr()
        assert regular[0][0] == 0, regular[1].err
        assert rewrapped == regular

    @pytest.mark.parametrize("flag", ["--behavior", "--mu"])
    def test_bad_value_names_its_file_line(self, chain_dir, capsys, flag):
        values = self.CASES[flag][1].split()
        (chain_dir / "p.txt").write_text("# note\n\n" + " ".join(values[:3]) + "\nabc "
                                         + " ".join(values[3:]) + "\n")
        assert self.run(flag, "p.txt", chain_dir) == (1, None)
        assert capsys.readouterr().err.startswith(
            f"error: {flag}: p.txt:4: expected probabilities: ")

    @pytest.mark.parametrize("spec", ["missing.txt", "http://host/missing.txt", "nul\0.txt"])
    @pytest.mark.parametrize("flag", ["--behavior", "--mu"])
    def test_missing_file_is_usage_error(self, chain_dir, capsys, flag, spec):
        assert self.run(flag, spec, chain_dir) == (1, None)
        assert capsys.readouterr().err.startswith(f"error: {flag}: ")

    @pytest.mark.filterwarnings("error")     # a numpy warning must not reach stderr
    @pytest.mark.parametrize("text, found", [("", 0), ("# no values\n\n  # none here\n", 0),
                                             ("0.5 0.5 0.5\n" * 10, 30)],
                             ids=["empty", "comment-only", "30-values"])
    @pytest.mark.parametrize("flag", ["--behavior", "--mu"])
    def test_wrong_value_count_names_both_counts(self, chain_dir, capsys, flag, text, found):
        (chain_dir / "p.txt").write_text(text)
        assert self.run(flag, "p.txt", chain_dir) == (1, None)
        assert capsys.readouterr().err == (f"error: {flag}: expected H*S*A = 32 probabilities, "
                                           f"found {found}\n")

    @pytest.mark.filterwarnings("error")     # a numpy warning must not reach stderr
    @pytest.mark.parametrize("flag", ["--behavior", "--mu", "--mdp"])
    def test_huge_probabilities_rejected_without_overflow(self, chain_dir, capsys, flag):
        # each row's sum overflows to inf: 32 values of 1e308, or two in one transition row
        (chain_dir / "p.txt").write_text("1e308\n" * 32)
        lines = (chain_dir / "chain.mdp").read_text().splitlines()
        lines[2] = "1e308 1e308 0.0 0.0"        # P_1(. | x = 0, a = 0)
        (chain_dir / "huge.mdp").write_text("\n".join(lines) + "\n")
        if flag == "--mdp":
            argv = ["diagnose", "--mdp", "huge.mdp", "--classes", "chain.classes"]
            assert (cli.main(argv), None) == (1, None)
        else:
            assert self.run(flag, "p.txt", chain_dir) == (1, None)
        name = {"--behavior": "policy", "--mu": "data distribution",
                "--mdp": "transition table"}[flag]
        assert capsys.readouterr().err == (f"error: {flag}: {name} rows do not sum to 1 "
                                           "(max dev inf)\n")


class TestExitCodes:
    """Each module's error class exits 1 with 'error: ...'; any other
    exception is a runtime failure and exits 2."""

    @staticmethod
    def run_raising(monkeypatch, exc):
        def fail(_args):
            raise exc

        monkeypatch.setattr(cli, "cmd_diagnose", fail)
        return cli.main(["diagnose", "--mdp", "chain.mdp", "--classes", "chain.classes"])

    @pytest.mark.parametrize("error", [cli.CLIError, MDPError, DatasetError, FunctionClassError,
                                       EvalError, SelectionError, BaseAlgError],
                             ids=lambda error: error.__name__)
    def test_input_error_exits_1(self, monkeypatch, capsys, error):
        assert self.run_raising(monkeypatch, error("bad input")) == cli.EXIT_USAGE == 1
        assert capsys.readouterr().err == "error: bad input\n"

    def test_other_exception_exits_2(self, monkeypatch, capsys):
        assert self.run_raising(monkeypatch, RuntimeError("broken")) == cli.EXIT_RUNTIME == 2
        assert capsys.readouterr().err == "runtime failure: broken\n"


class TestNonAsciiText:
    """Every text file is read and written as UTF-8, whatever the locale."""

    # the C locale without UTF-8 mode makes open() default to ASCII
    ASCII_ENV = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
                     PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    COMMENT = "# r\u00e9sum\u00e9 \u2014 \u00fcber\n"

    def run(self, tmp_path, *argv):
        return subprocess.run([sys.executable, *argv], cwd=tmp_path, env=self.ASCII_ENV,
                              capture_output=True, text=True, encoding="utf-8")

    def test_bench_config_with_non_ascii_comment(self, tmp_path):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(self.COMMENT + "instance = chain\nn_list = 40\nseeds = 0\n"
                       "methods = modbe, holdout\nschedule = practical\n"
                       "output = res.csv\n", encoding="utf-8")
        proc = self.run(tmp_path, "-m", "modbe.cli", "bench", "--config", str(cfg),
                        "--no-runtime")
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "res.csv").read_text().count("\n") == 3

    def test_commands_on_non_ascii_files(self, tmp_path):
        # an .mdp, a .classes and a --behavior file with non-ASCII comments
        code = (
            "import numpy as np\n"
            "from modbe import evaluation as ev, funcclass, mdp\n"
            f"comment = {self.COMMENT!a}\n"
            "mdp.save_mdp(ev.chain_mdp(), 'chain.mdp')\n"
            "funcclass.save_sequence(ev.chain_classes(), 'chain.classes')\n"
            "for name in ('chain.mdp', 'chain.classes'):\n"
            "    with open(name, encoding='utf-8') as fh:\n"
            "        text = fh.read()\n"
            "    with open(name, 'w', encoding='utf-8') as fh:\n"
            "        fh.write(comment + text)\n"
            "loaded = mdp.load_mdp('chain.mdp')\n"
            "assert np.array_equal(loaded.transitions, ev.chain_mdp().transitions)\n"
            "assert np.array_equal(loaded.rewards, ev.chain_mdp().rewards)\n"
            "blocks = [c.blocks.tolist() for c in funcclass.load_sequence('chain.classes')]\n"
            "assert blocks == [c.blocks.tolist() for c in ev.chain_classes()]\n"
            "with open('behavior.txt', 'w', encoding='utf-8') as fh:\n"
            "    fh.write(comment + '0.5 0.5\\n' * 16)\n")
        proc = self.run(tmp_path, "-c", code)
        assert proc.returncode == 0, proc.stderr
        for argv in (
                ["gen-data", "--mdp", "chain.mdp", "--behavior", "behavior.txt", "--n", "200",
                 "--seed", "1", "--out", "data.csv"],
                ["run-modbe", "--data", "data.csv", "--classes", "chain.classes",
                 "--trace", "trace.txt"],
                ["run-fqi", "--data", "data.csv", "--classes", "chain.classes", "--k", "3",
                 "--out", "q.txt"]):
            proc = self.run(tmp_path, "-m", "modbe.cli", *argv)
            assert proc.returncode == 0, proc.stderr
        assert "selected_k" in (tmp_path / "trace.txt").read_text()


class TestUsage:
    def test_no_arguments(self, capsys):
        assert cli.main([]) == 1
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert cli.main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("argv, flag, low", [
        (["gen-data", "--mdp", "{mdp}", "--n", "50", "--seed", "-1", "--out", "{out}"],
         "--seed", 0),
        (["run-fqi", "--data", "{data}", "--classes", "{cls}", "--seed", "-1"], "--seed", 0),
        (["run-modbe", "--data", "{data}", "--classes", "{cls}", "--seed", "-2"], "--seed", 0),
        (["run-holdout", "--data", "{data}", "--classes", "{cls}", "--seed", "-1"], "--seed", 0),
        (["gen-data", "--mdp", "{mdp}", "--n", "4", "--out", "{out}"], "--n", 5),
        (["gen-data", "--mdp", "{mdp}", "--n", "0", "--out", "{out}"], "--n", 5)],
        ids=["gen-data-seed", "run-fqi-seed", "run-modbe-seed", "run-holdout-seed",
             "gen-data-n4", "gen-data-n0"])
    def test_out_of_range_flag(self, chain_data, tmp_path, capsys, argv, flag, low):
        mdp_path, cls_path, data_path = chain_data
        out = tmp_path / "out.csv"
        argv = [a.format(mdp=mdp_path, cls=cls_path, data=data_path, out=out) for a in argv]
        assert cli.main(argv) == 1
        assert f"argument {flag}: must be at least {low}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n", [str(MAX_SAMPLES + 1), "99999999999999999999"])
    def test_sample_count_above_bound(self, chain_files, tmp_path, capsys, n):
        out = tmp_path / "out.csv"
        assert cli.main(["gen-data", "--mdp", chain_files[0], "--n", n, "--out", str(out)]) == 1
        assert f"argument --n: must be at most {MAX_SAMPLES}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, flag", [
        ("gen-data", "--out"), ("run-fqi", "--out"), ("run-modbe", "--trace")])
    @pytest.mark.parametrize("target, message", [
        ("missing/dir/file.txt", "output directory {dir} does not exist"),
        ("", "does not name a file"), (".", "does not name a file"),
        ("sub/", "does not name a file"), ("a\0b.txt", "holds a NUL byte"),
        ("x" * 300 + ".txt", "File name too long"),
        ("x" * 300 + "/file.txt", "output directory {dir}: File name too long"),
        ("chain.mdp/file.txt", "output directory {dir}: Not a directory")],
        ids=["missing-dir", "empty", "directory", "trailing-slash", "nul-byte", "name-too-long",
             "dir-name-too-long", "dir-is-a-file"])
    def test_output_path_rejected_before_any_work(self, chain_data, tmp_path, capsys,
                                                  monkeypatch, command, flag, target, message):
        for name in ("cmd_gen_data", "cmd_run_fqi", "cmd_run_modbe"):
            monkeypatch.setattr(cli, name, _no_cell)
        (tmp_path / "sub").mkdir()
        mdp_path, cls_path, data_path = chain_data
        inputs = (["--mdp", mdp_path, "--n", "50"] if command == "gen-data"
                  else ["--data", data_path, "--classes", cls_path])
        path = str(tmp_path / target) if target else ""
        assert cli.main([command, *inputs, flag, path]) == 1
        err = capsys.readouterr().err
        message = message.format(dir=repr(os.path.dirname(path)))
        assert f"argument {flag}: output " in err and message in err

    @pytest.mark.parametrize("argv, flag", [
        (["gen-data", "--mdp", "{mdp}", "--n", "50", "--out", "{out}"], "--out"),
        (["run-fqi", "--data", "{data}", "--classes", "{cls}", "--out", "{out}"], "--out"),
        (["run-modbe", "--data", "{data}", "--classes", "{cls}", "--trace", "{out}"], "--trace"),
        (["bench", "--config", "{cfg}"], "--config")],
        ids=["gen-data", "run-fqi", "run-modbe", "bench"])
    def test_failed_write_exits_1(self, chain_data, tmp_path, capsys, monkeypatch, argv, flag):
        def full_disk(_path, *_parts):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        for module in (cli, ds, ev):
            monkeypatch.setattr(module, "write_lines", full_disk)
        mdp_path, cls_path, data_path = chain_data
        out, cfg = tmp_path / "out.txt", tmp_path / "bench.cfg"
        cfg.write_text(f"instance = chain\nn_list = 40\nseeds = 0\nmethods = fixed-1\n"
                       f"output = {out}\n")
        argv = [a.format(mdp=mdp_path, cls=cls_path, data=data_path, out=out, cfg=cfg)
                for a in argv]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: {flag}: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
