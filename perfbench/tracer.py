"""Per-layer trace taken from outside the program.

The Tracer wraps the public functions of each modbe module, patching every
module-level binding of each one (the modules import names directly, so
`split_dataset` alone is bound in dataset, selection, evaluation and the
package). Totals and counters stay in memory and are read once the traced
pass has ended.
"""
from __future__ import annotations

import functools
import os
import statistics
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (name, unit) of every per-layer metric, in BENCHMARK.json order.
PER_LAYER = (
    ("evaluation.sample_features.s", "s"),
    ("evaluation.sample_features.calls", "count"),
    ("evaluation.sample_features.bytes_computed", "bytes"),
    ("evaluation.eval_set.draws", "count"),
    ("evaluation.eval_set.distinct_ratio", "ratio"),
    ("evaluation.cell.calls", "count"),
    ("evaluation.cell.setup_s", "s"),
    ("evaluation.cell.method_s", "s"),
    ("evaluation.cell.ms_p50", "ms"),
    ("evaluation.cell.ms_p80", "ms"),
    ("evaluation.holdout_select.s", "s"),
    ("evaluation.oracle_select.s", "s"),
    ("basealg.fqi.s", "s"),
    ("basealg.fqi.calls", "count"),
    ("basealg.fqi.distinct_ratio", "ratio"),
    ("funcclass.erm.abstraction.s", "s"),
    ("funcclass.erm.abstraction.calls", "count"),
    ("funcclass.erm.linear.s", "s"),
    ("funcclass.erm.linear.calls", "count"),
    ("funcclass.greedy_policy.s", "s"),
    ("funcclass.greedy_policy.calls", "count"),
    ("mdp.regret.s", "s"),
    ("mdp.regret.calls", "count"),
    ("dataset.generate_from_mu.s", "s"),
    ("dataset.generate_from_mu.calls", "count"),
    ("dataset.split_dataset.s", "s"),
    ("dataset.split_dataset.calls", "count"),
    ("dataset.load_dataset_csv.s", "s"),
    ("dataset.load_dataset_csv.calls", "count"),
    ("dataset.load_dataset_csv.bytes", "bytes"),
    ("dataset.save_dataset_csv.s", "s"),
    ("dataset.save_dataset_csv.calls", "count"),
    ("dataset.save_dataset_csv.bytes", "bytes"),
    ("selection.modbe.s", "s"),
    ("selection.modbe.calls", "count"),
    ("selection.modbe_discounted.s", "s"),
    ("selection.modbe_discounted.calls", "count"),
    ("selection.validation_loss.s", "s"),
    ("selection.validation_loss.calls", "count"),
    ("selection.erm_calls", "count"),
    ("selection.base_calls", "count"),
    ("cli.main.gen-data.s", "s"),
    ("cli.main.run-modbe.s", "s"),
    ("cli.main.run-holdout.s", "s"),
    ("cli.main.run-fqi.s", "s"),
    ("cli.import_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead", "ratio"),
)

# Layers that must report calls on each traced workload; zero calls there
# means a wrapper missed a binding.
EXPECTED = {
    "chain_sweep": ("evaluation.run_rl_cell", "dataset.generate_from_mu",
                    "dataset.split_dataset", "basealg.fqi", "funcclass.erm.abstraction",
                    "funcclass.greedy_policy", "mdp.regret", "selection.modbe",
                    "selection.validation_loss", "evaluation.holdout_select",
                    "evaluation.oracle_select"),
    "cb_sweep": ("evaluation.run_cb_cell", "evaluation.sample_features",
                 "funcclass.erm.linear", "selection.modbe_discounted",
                 "basealg.fitted_q_discounted", "dataset.split_dataset"),
    "cli_pipeline": ("cli.main.gen-data", "cli.main.run-modbe", "cli.main.run-holdout",
                     "cli.main.run-fqi", "dataset.generate_from_mu", "dataset.save_dataset_csv",
                     "dataset.load_dataset_csv", "dataset.split_dataset", "basealg.fqi",
                     "funcclass.erm.abstraction", "selection.modbe",
                     "selection.validation_loss", "evaluation.holdout_select"),
}
EXPECTED["cb_sweep_jobs2"] = EXPECTED["cb_sweep"]

_SELECTORS = ("selection.modbe", "selection.modbe_discounted")
_BASE_FITS = ("basealg.fqi", "basealg.fitted_q_discounted")




def _class_key(fclass) -> tuple:
    if fclass.variant == "abstraction":
        return ("abstraction", fclass.blocks.tobytes(), fclass.num_actions, fclass.clip_high)
    return (fclass.variant, repr(fclass))


class Tracer:
    """Context manager that wraps modbe's layers while it is active."""

    def __init__(self, modbe):
        self._modbe = modbe
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.bytes: Counter = Counter()
        self.cell_s: list[float] = []
        self.cell_method_s = 0.0
        self.eval_sets: set = set()
        self.eval_draws = 0
        self.fits: set = set()
        self._weights = np.zeros(0)
        self.trace_erm = self.trace_base = 0        # summed from returned traces
        self.seen_erm = self.seen_base = 0          # counted by the wrappers
        self._stack: list[str] = []
        self._patched: list = []

    # -- patching ---------------------------------------------------------

    def _modules(self):
        return [m for name, m in sys.modules.items()
                if m is not None and (name == "modbe" or name.startswith("modbe."))]

    def _patch_function(self, name, module, attr, after=None, before=None):
        orig = getattr(module, attr)
        wrapper = self._wrap(name, orig, after, before)
        bound = 0
        for mod in self._modules():
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._patched.append((mod, key, orig))
                    setattr(mod, key, wrapper)
                    bound += 1
        if bound == 0:
            raise RuntimeError(f"no module binds {name}")

    def _patch_method(self, name, cls, attr, after=None, before=None):
        orig = cls.__dict__[attr]
        self._patched.append((cls, attr, orig))
        setattr(cls, attr, self._wrap(name, orig, after, before))

    def __enter__(self):
        m = self._modbe
        ev, ds, fc = m.evaluation, m.dataset, m.funcclass
        self._patch_function("mdp.regret", m.mdp, "regret")
        self._patch_function("dataset.generate_from_mu", ds, "generate_from_mu")
        self._patch_function("dataset.split_dataset", ds, "split_dataset")
        self._patch_function("dataset.load_dataset_csv", ds, "load_dataset_csv",
                             before=lambda path: self._add_bytes("dataset.load_dataset_csv", path))
        self._patch_function("dataset.save_dataset_csv", ds, "save_dataset_csv",
                             after=lambda _r, _dt, _ds, path: self._add_bytes(
                                 "dataset.save_dataset_csv", path))
        self._patch_method("funcclass.erm.abstraction", fc.AbstractionClass, "erm",
                           before=self._on_erm)
        self._patch_method("funcclass.erm.linear", fc.LinearClass, "erm", before=self._on_erm)
        self._patch_function("funcclass.greedy_policy", fc, "greedy_policy")
        self._patch_function("basealg.fqi", m.basealg, "fqi", before=self._on_fqi)
        self._patch_function("basealg.fitted_q_discounted", m.basealg, "fitted_q_discounted",
                             before=self._on_base_fit)
        self._patch_function("selection.modbe", m.selection, "modbe", after=self._on_trace)
        self._patch_function("selection.modbe_discounted", m.selection, "modbe_discounted",
                             after=self._on_trace)
        self._patch_function("selection.validation_loss", m.selection, "validation_loss")
        self._patch_method("evaluation.sample_features", ev.CBInstance, "sample_features",
                           after=self._on_features)
        self._patch_function("evaluation.holdout_select", ev, "holdout_select")
        self._patch_function("evaluation.oracle_select", ev, "oracle_select")
        self._patch_function("evaluation.run_rl_cell", ev, "run_rl_cell", after=self._on_cell)
        self._patch_function("evaluation.run_cb_cell", ev, "run_cb_cell", after=self._on_cell)
        self._patch_function("cli.main", m.cli, "main")
        return self

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()
        return False

    def _wrap(self, name, fn, after, before):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # the hooks run outside the timed region
            if before is not None:
                before(*args, **kwargs)
            label = f"{name}.{args[0][0]}" if name == "cli.main" and args[0] else name
            self._stack.append(label)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
            self.seconds[label] += dt
            self.calls[label] += 1
            if after is not None:
                after(result, dt, *args, **kwargs)
            return result
        return wrapper

    # -- hooks ------------------------------------------------------------

    def _innermost(self, names) -> str | None:
        for label in reversed(self._stack):
            if label in names:
                return label
        return None

    def _on_erm(self, *_args, **_kwargs):
        # modbe's erm_calls count the ERMs it runs itself, not those in its base fits
        if self._innermost(_SELECTORS + _BASE_FITS) in _SELECTORS:
            self.seen_erm += 1

    def _on_base_fit(self, *_args, **_kwargs):
        if self._innermost(_SELECTORS + _BASE_FITS) in _SELECTORS:
            self.seen_base += 1

    def _on_fqi(self, train_steps, fclass):
        self._on_base_fit()
        self.fits.add((self._steps_key(train_steps), _class_key(fclass)))

    def _steps_key(self, steps) -> tuple:
        """Content key of a training split: per step, its length and the dot
        product of each column with fixed random weights. Hashing the bytes
        instead costs more than the fits it counts."""
        n = max(len(s) for s in steps)
        if len(self._weights) < n:
            self._weights = np.random.default_rng(0).random(n)
        w = self._weights
        return tuple((len(s), *(float(col @ w[: len(s)]) for col in (s.x, s.a, s.r, s.x_next)))
                     for s in steps)

    def _on_trace(self, trace, _dt, *_args, **_kwargs):
        self.trace_erm += trace.erm_calls
        self.trace_base += trace.base_calls

    def _on_features(self, feats, _dt, _inst, n, _rng):
        self.bytes["evaluation.sample_features"] += feats.nbytes
        if n == self._modbe.evaluation.CB_EVAL_CONTEXTS:
            self.eval_draws += 1
            self.eval_sets.add(feats[:1].tobytes())

    def _on_cell(self, rows, dt, *_args, **_kwargs):
        self.cell_s.append(dt)
        self.cell_method_s += sum(row[5] for row in rows) / 1000.0

    def _add_bytes(self, name, path):
        self.bytes[name] += os.path.getsize(path)

    # -- results ----------------------------------------------------------

    def errors(self, workload: str) -> list[str]:
        """Self-checks: expected layers were reached and the call budgets agree."""
        errs = [f"layer {name} reported zero calls"
                for name in EXPECTED[workload] if self.calls[name] == 0]
        if self.seen_erm != self.trace_erm:
            errs.append(f"selection.erm_calls {self.trace_erm} from the traces, "
                        f"{self.seen_erm} seen by the wrappers")
        if self.seen_base != self.trace_base:
            errs.append(f"selection.base_calls {self.trace_base} from the traces, "
                        f"{self.seen_base} seen by the wrappers")
        return errs

    def metrics(self, import_s: float, wall_s: float, untraced_wall_s: float) -> dict:
        cell_ms = sorted(1000.0 * s for s in self.cell_s)
        cell_s = sum(cell_ms) / 1000.0
        values = {
            "evaluation.sample_features.bytes_computed": self.bytes["evaluation.sample_features"],
            "evaluation.eval_set.draws": self.eval_draws,
            "evaluation.eval_set.distinct_ratio": _ratio(len(self.eval_sets), self.eval_draws),
            "evaluation.cell.calls": len(cell_ms),
            "evaluation.cell.setup_s": cell_s - self.cell_method_s,
            "evaluation.cell.method_s": self.cell_method_s,
            "evaluation.cell.ms_p50": statistics.median(cell_ms) if cell_ms else 0.0,
            "evaluation.cell.ms_p80": _p80(cell_ms),
            "basealg.fqi.distinct_ratio": _ratio(len(self.fits), self.calls["basealg.fqi"]),
            "dataset.load_dataset_csv.bytes": self.bytes["dataset.load_dataset_csv"],
            "dataset.save_dataset_csv.bytes": self.bytes["dataset.save_dataset_csv"],
            "selection.erm_calls": self.trace_erm,
            "selection.base_calls": self.trace_base,
            "cli.import_s": import_s,
            "trace.wall_s": wall_s,
            "trace.overhead": wall_s / untraced_wall_s,
        }
        out = {}
        for name, unit in PER_LAYER:
            if name in values:
                value = values[name]
            elif name.endswith(".s"):
                value = self.seconds[name[:-2]]
            else:
                value = self.calls[name[: -len(".calls")]]
            out[name] = {"value": value, "unit": unit}
        return out


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def _p80(sorted_values: list[float]) -> float:
    if len(sorted_values) < 2:
        return sorted_values[0] if sorted_values else 0.0
    return statistics.quantiles(sorted_values, n=5)[3]
