"""The benchmark's four workloads: set-up, one timed pass, and the output check.

A workload's inputs come only from the workload seed: it shifts the seed list
of the committed sweep config, or the gen-data and split seeds of the CLI
pipeline. Every artifact is written under a temporary directory that the
caller owns, never next to the sources.
"""
from __future__ import annotations

import hashlib
import io
import math
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("chain_sweep", "cb_sweep", "cb_sweep_jobs2", "cli_pipeline")
DEFAULT_SEED = 0          # the seed whose reference digests are committed
SEED_STRIDE = 1000        # workload seed s runs config seed c as c + SEED_STRIDE * s
# cb.cfg at full size takes about 50 s a pass. The benchmark keeps all five n
# values and the first two seeds, so one pass fits a run and the share of
# evaluation-set draws that are distinct (seeds / cells = 1/5) is unchanged.
CB_SEEDS = 2
CLI_N = 20_000            # samples per step: 80 000 dataset rows
REGRET_FLOOR = -1e-12
REFERENCE = Path(__file__).with_name("reference.json")


@dataclass
class Op:
    """Outcome of one operation: a sweep cell or a CLI command."""

    key: str
    ok: bool
    digest: str = ""
    why: str = ""


@dataclass
class Sweep:
    cfg: object               # modbe.evaluation.ExperimentConfig
    jobs: int
    num_classes: int


@dataclass
class Pipeline:
    tmp: Path
    commands: list = field(default_factory=list)   # (op key, argv, output file or None)
    jobs: int = 1


def load_modbe(root: Path):
    """Import modbe from the checkout's own sources, never an installed copy."""
    src = root / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import modbe.cli
    if src.resolve() not in Path(modbe.cli.__file__).resolve().parents:
        raise RuntimeError(f"modbe imported from {modbe.cli.__file__}, not from {src}")
    return modbe


def setup(workload: str, seed: int, root: Path, tmp: Path):
    """Everything before the timed work: import modbe, parse the config or write
    the CLI input files. Returns the workload's state."""
    modbe = load_modbe(root)
    ev = modbe.evaluation
    if workload == "cli_pipeline":
        mdp_path, classes_path, data = tmp / "chain.mdp", tmp / "chain.classes", tmp / "data.csv"
        modbe.mdp.save_mdp(ev.chain_mdp(), str(mdp_path))
        modbe.funcclass.save_sequence(ev.chain_classes(), str(classes_path))
        common = ["--data", str(data), "--classes", str(classes_path), "--seed", str(seed)]
        trace, qtable = tmp / "trace.txt", tmp / "qtables.txt"
        return Pipeline(tmp, [
            ("gen-data", ["gen-data", "--mdp", str(mdp_path), "--n", str(CLI_N),
                          "--seed", str(seed), "--out", str(data)], data),
            ("run-modbe-practical", ["run-modbe", *common, "--schedule", "practical",
                                     "--trace", str(trace)], trace),
            ("run-modbe-theoretical", ["run-modbe", *common, "--schedule", "theoretical"], None),
            ("run-holdout", ["run-holdout", *common], None),
            ("run-fqi", ["run-fqi", *common, "--k", "3", "--out", str(qtable)], qtable),
        ])
    is_cb = workload.startswith("cb_")
    cfg = ev.parse_config(str(root / "configs" / ("cb.cfg" if is_cb else "chain.cfg")))
    seeds = cfg.seeds[:CB_SEEDS] if is_cb else cfg.seeds
    cfg.seeds = [s + SEED_STRIDE * seed for s in seeds]
    cfg.output = str(tmp / Path(cfg.output).name)
    num_classes = len(ev.CB_DIMS) if is_cb else len(ev.chain_classes())
    return Sweep(cfg, 2 if workload == "cb_sweep_jobs2" else 1, num_classes)


def probe_setup(workload: str, seed: int, root: str, tmp: str) -> None:
    """Run in a fresh interpreter: print the import and whole set-up seconds."""
    t0 = time.perf_counter()
    load_modbe(Path(root))
    t1 = time.perf_counter()
    setup(workload, seed, Path(root), Path(tmp))
    t2 = time.perf_counter()
    print(f"{t1 - t0!r} {t2 - t0!r}")


def run_pass(state, jobs: int | None = None):
    """The timed work of one pass. Returns what check() needs."""
    import modbe.cli
    ev = modbe.evaluation
    if isinstance(state, Sweep):
        rows = ev.run_experiment(state.cfg, jobs=jobs or state.jobs, record_runtime=False)
        ev.write_results_csv(rows, state.cfg.output)
        return None
    results = []
    for key, argv, out in state.commands:
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = modbe.cli.main(argv)
        results.append((key, code, buf.getvalue(), out))
    return results


def expected_keys(state) -> list[str]:
    if isinstance(state, Sweep):
        return [f"{n},{s}" for n in state.cfg.n_list for s in state.cfg.seeds]
    return [key for key, _argv, _out in state.commands]


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()


def _selected_ok(stdout: str) -> str:
    """Why the printed 'selected class: k of M' lines are out of range, or ''."""
    for line in stdout.splitlines():
        if line.startswith("selected class:"):
            k, _of, m = line.split(":", 1)[1].split()
            if not 1 <= int(k) <= int(m):
                return f"selected class {k} outside [1, {m}]"
    return ""


def check(state, produced) -> list[Op]:
    """Turn one pass's outputs into per-operation outcomes, checking the
    invariants that hold for every seed."""
    if isinstance(state, Pipeline):
        ops = []
        for key, code, stdout, out in produced:
            body = stdout.replace(str(state.tmp), "<tmp>").encode()
            extra = out.read_bytes() if out is not None and out.exists() else b""
            why = f"exit code {code}" if code != 0 else _selected_ok(stdout)
            ops.append(Op(key, not why, _digest(body, extra), why))
        return ops
    lines = Path(state.cfg.output).read_text().splitlines()
    if not lines or lines[0] != "n,seed,method,selected_k,regret,runtime_ms":
        return [Op(k, False, why="bad CSV header") for k in expected_keys(state)]
    cells: dict[str, list[str]] = {}
    for line in lines[1:]:
        n, seed, _rest = line.split(",", 2)
        cells.setdefault(f"{n},{seed}", []).append(line)
    ops = []
    for key in expected_keys(state):
        rows = cells.get(key)
        if not rows:
            ops.append(Op(key, False, why="no rows"))
            continue
        why = ""
        for row in rows:
            _n, _s, method, k, reg, _ms = row.split(",")
            if not 1 <= int(k) <= state.num_classes:
                why = f"{method}: selected_k {k} outside [1, {state.num_classes}]"
            elif not (math.isfinite(float(reg)) and float(reg) >= REGRET_FLOOR):
                why = f"{method}: regret {reg}"
        ops.append(Op(key, not why, _digest("\n".join(rows).encode()), why))
    return ops


def reference_key(workload: str) -> str:
    """cb_sweep_jobs2 must reproduce cb_sweep's CSV byte for byte."""
    return "cb_sweep" if workload == "cb_sweep_jobs2" else workload


def compare(ops: list[Op], expected: dict[str, str], what: str) -> None:
    """Mark every operation whose digest differs from `expected` as failed."""
    for op in ops:
        if op.ok and expected.get(op.key) != op.digest:
            op.ok, op.why = False, f"output differs from {what}"
