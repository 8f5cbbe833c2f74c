"""Mutation check: run tier-1 against a fixed list of one-line mutants.

    python3 tools/mutants.py

Each mutant replaces one exact string, which must occur exactly once in the
files under src/, by another. For the unmutated tree and then for each
mutant, the tool copies the repository (without .git and caches) into a
temporary directory, applies the replacement there, and runs
`python -m pytest -x -q` in the copy with the copy's src/ first on the path.
The unmutated copy must pass. A mutant is killed when pytest reports a
failing test or a collection error, and survives when every test passes.
The tool prints one line per mutant and the survivors, and exits 1 if any
mutant survived (2 if the list or the unmutated tree is broken).

A survivor costs a full tier-1 run, so the tool is not part of tier-1.
"""
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                 ".ci_*", ".perfbench_tmp", "*.egg-info")

# (name, target, replacement): one-line faults tier-1 must catch
MUTANTS = (
    ("generalization test rejects on an exact tie",
     "return loss_g < loss_f - tol", "return loss_g <= loss_f - tol"),
    ("the generalization test never rejects",
     "return loss_g < loss_f - tol", "return False"),
    ("ridge lambda 1e-5 * n",
     "RIDGE_SCALE = 1e-6", "RIDGE_SCALE = 1e-5"),
    ("abstraction partitions need not refine",
     "if len(coarse) > 1:", "if False:"),
    ("linear classes need not share a feature map",
     "if self.feature_fn is not larger.feature_fn:", "if False:"),
    ("a nested sequence may mix class variants",
     "if len(variants) > 1:", "if False:"),
    ("practical Tol over n_train",
     "complexity / (self.n_train + self.n_valid)", "complexity / self.n_train"),
    ("omega at horizon 1 whatever the data's horizon",
     "self.classes[k], self.horizon)", "self.classes[k], 1)"),
    ("M instead of M^2 in zeta",
     "16.0 * num_classes ** 2 * horizon", "16.0 * num_classes * horizon"),
    ("M instead of M^2 in alpha",
     "8.0 * m ** 2 * self.horizon", "8.0 * m * self.horizon"),
    ("omega(F_k') in place of omega(F_k) in the theoretical Tol",
     "2.0 * self.zeta_value + self._omega_at(k)", "2.0 * self.zeta_value + self._omega_at(k_prime)"),
    ("delta / 2M in place of delta / 4M",
     "self.delta / (4 * len(self.classes))", "self.delta / (2 * len(self.classes))"),
    ("split trains on floor(0.8 n)",
     "n_train = math.ceil(0.8 * n)", "n_train = math.floor(0.8 * n)"),
    ("hold-out breaks ties to the largest k",
     "return int(np.argmin(scores)) + 1, scores",
     "return len(scores) - int(np.argmin(scores[::-1])), scores"),
    ("a (k, k') pair decides on its last step only",
     "rejected = rejected or rej", "rejected = rej"),
    ("a config checks its methods but keeps them unexpanded",
     "self.methods = _expand_methods(self.methods, len(classes))",
     "_expand_methods(self.methods, len(classes))"),
    ("linear feature prefixes may shrink",
     "if self.dim > larger.dim:", "if self.dim < larger.dim:"),
    ("a sweep's regrets keyed on step 1's greedy table only",
     "key = np.stack([f.clipped for f in fseq.funcs]).argmax(axis=2).tobytes()",
     "key = fseq.funcs[0].clipped.argmax(axis=1).tobytes()"),
    ("the shared regret memo never stores a regret",
     "memo[key] = regret(mdp, greedy_policy(fseq.funcs))",
     "memo = {key: regret(mdp, greedy_policy(fseq.funcs))}"),
    ("pool groups skip seeds",
     "cfg.seeds[i::workers]", "cfg.seeds[i::workers + 1]"),
    ("hold-out reads ModBE's loss_g in place of loss_f",
     "losses.setdefault(e.k, []).append(e.loss_f)", "losses.setdefault(e.k, []).append(e.loss_g)"),
    # str(float) is repr(float), so the mutant a float line can fail by is a lossy format
    ("a float line keeps 15 significant digits",
     'return " ".join(repr(float(v)) for v in values)',
     'return " ".join(f"{float(v):.15g}" for v in values)'),
    ("delta = 1/e is rejected",
     "if not 0.0 < delta <= DELTA_MAX:", "if not 0.0 < delta < DELTA_MAX:"),
    ("a seeded stream reads its key in reverse",
     "np.random.SeedSequence(key)", "np.random.SeedSequence(key[::-1])"),
    ("FQI fits its last step on slot 1's data",
     "fitted_q_discounted(train_steps[H - 1], fclass)",
     "fitted_q_discounted(train_steps[0], fclass)"),
    ("the CB scorer drops each fit's last weight",
     "row[:len(w)] = w", "row[:len(w) - 1] = w[:-1]"),
    ("the numpy row check lets a reward above 1 through",
     "r.min() >= 0.0 and r.max() <= 1.0", "r.min() >= 0.0"),
    ("the numpy row check drops the equal slot sizes",
     "if np.any(counts != counts[0]):", "if False:"),
    ("the vertex set drops the zero vertex",
     "np.arange(2 ** self.num_blocks if high else 1)",
     "np.arange(1, 2 ** self.num_blocks if high else 1)"),
    ("an unclipped class's vertex is the bound plus 1",
     "high = bound if self.clip_high is None", "high = bound + 1 if self.clip_high is None"),
    ("a clipped class's vertex ignores its clip",
     "else min(bound, self.clip_high)", "else bound"),
    ("step H backs up members",
     "outer.extreme_members(mdp.horizon - h)", "outer.extreme_members(mdp.horizon - h + 1)"),
    ("a finite member above the range is backed up",
     "in_range = (c.min(axis=(1, 2)) >= 0) & (c.max(axis=(1, 2)) <= bound)",
     "in_range = c.min(axis=(1, 2)) >= 0"),
    ("the last partial chunk is dropped",
     "range(0, len(rows), step)", "range(0, len(rows) - len(rows) % step, step)"),
    ("Approx(F_M) read from the wrong entry of xi",
     "for c in classes.classes[:-1]] + xi[-1:]", "for c in classes.classes[:-1]] + xi[:1]"),
    ("population_erm weighs every cell alike",
     "counts = np.bincount(cell, weights=np.ravel(weights))", "counts = np.bincount(cell)"),
    ("the block mean divides an empty cell's zero sum by its zero count",
     "out=np.zeros_like(sums), where=counts > 0)", "out=np.zeros_like(sums), where=counts >= 0)"),
    ("ERM's block mean divides an empty cell's zero sum by its zero count",
     "out=np.zeros(B * A), where=counts > 0)", "out=np.zeros(B * A), where=counts >= 0)"),
    ("ERM's block cell ignores the action",
     "cell = self.blocks[np.asarray(xs, dtype=int)] * A + np.asarray(as_, dtype=int)",
     "cell = self.blocks[np.asarray(xs, dtype=int)] * A"),
    ("the probability reader skips the last data line",
     "for i in range(len(rows))\n", "for i in range(len(rows) - 1)\n"),
    ("a wrong-length line of a fixed count is accepted",
     "if count is not None and len(vals) != count:", "if False:"),
    ("the reused count arrays are not zeroed",
     "xs[:] = as_[:] = xn[:] = 0", "pass"),
    ("the validation slice starts one row off",
     "row[n_train:n] for row in rows", "row[n_train + 1:n] for row in rows"),
)


def locate(target: str) -> Path:
    """The one file under src/ that holds target, which occurs there once."""
    hits = [(path, path.read_text(encoding="utf-8").count(target))
            for path in sorted((ROOT / "src").rglob("*.py"))]
    hits = [(path, count) for path, count in hits if count]
    if len(hits) != 1 or hits[0][1] != 1:
        where = ", ".join(f"{p.relative_to(ROOT)} x{c}" for p, c in hits) or "nowhere"
        print(f"mutant target {target!r} must occur exactly once under src/: {where}")
        sys.exit(2)
    return hits[0][0].relative_to(ROOT)


def run_tests(edit: tuple[Path, str, str] | None = None) -> tuple[int, float]:
    """pytest's exit code and wall seconds on a copy of the tree, with
    edit = (path, target, replacement) applied when given."""
    with tempfile.TemporaryDirectory(prefix="modbe_mutant_") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=IGNORED)
        if edit is not None:
            path, target, replacement = edit
            mutated = tree / path
            mutated.write_text(mutated.read_text(encoding="utf-8").replace(target, replacement),
                               encoding="utf-8")
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tree / "src"),
                                                          env.get("PYTHONPATH")]))
        start = time.perf_counter()
        code = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
                              cwd=tree, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL).returncode
        return code, time.perf_counter() - start


def main() -> int:
    edits = [(locate(target), target, replacement) for _, target, replacement in MUTANTS]
    start = time.perf_counter()
    code, seconds = run_tests()
    if code != 0:
        print(f"the unmutated tree fails tier-1 (pytest exit {code})")
        return 2
    print(f"unmutated tree passes ({seconds:.1f} s)", flush=True)
    survivors = []
    for (name, _, _), edit in zip(MUTANTS, edits):
        code, seconds = run_tests(edit)
        if code not in (0, 1, 2):       # 2: pytest stopped on a collection error
            print(f"pytest exit {code} on mutant {name!r}: the run itself is broken")
            return 2
        verdict = "survived" if code == 0 else "killed"
        print(f"{verdict:8}  {edit[0]}: {name} ({seconds:.1f} s)", flush=True)
        if code == 0:
            survivors.append(name)
    print(f"{len(MUTANTS)} mutants: {len(MUTANTS) - len(survivors)} killed, "
          f"{len(survivors)} survived, {time.perf_counter() - start:.0f} s wall")
    for name in survivors:
        print(f"survivor: {name}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
