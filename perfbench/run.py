"""Benchmark for modbe: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from anywhere inside a checkout; it imports modbe from the checkout's
`src`, reads `configs/`, and writes only under `.perfbench_tmp/`, which it
removes before it exits.

--trace 0 repeats the workload's fixed input for up to --seconds (at least
one pass) and reports the end-to-end metrics: median wall and CPU seconds per
pass, peak RSS, median set-up seconds over fresh interpreters, and the share
of operations that succeeded.

The host is shared, and its speed drifts by tens of percent over seconds.
So every timed pass and set-up sits between two runs of reference_loop(),
fixed code that does not touch modbe. On the interpreter-bound workloads of
SCALED_WORKLOADS, whose passes take about a second, wall_s and cpu_s are
reported at the reference speed: each pass is scaled by REF_S / the mean of
the two reference times around it, i.e. read as on a host where
reference_loop() takes REF_S seconds. A change to modbe moves them as it moves
raw time. The CB workloads report raw seconds: their BLAS-bound passes of
about 11 s barely move with the drift, and a reference of 0.04 s on either
side says little about the 11 s between. setup_s is raw everywhere; scaling
did not steady it. Both the raw and the scaled medians are printed on their
own lines.

--trace 1 runs one untraced and one traced pass and reports the per-layer
metrics of tracer.PER_LAYER.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Exit code 0 means a result was printed; a
correctness failure shows as "correct": false. --write-reference (default
seed only) stores the digests of the first pass as the committed reference.
"""
import os

# numpy here links a multi-threaded OpenBLAS; jobs 2 on two cores would run
# 2 x N BLAS threads. Pin before anything imports numpy.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

# Fresh interpreters timed per run at the least: half before the timed passes,
# one after each pass, and the rest after the last, so that setup_s, their
# median, samples the whole run.
SETUP_SAMPLES = 8
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"), ("ok_share", "ratio"))
PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); import workloads; "
         "workloads.probe_setup(sys.argv[2], int(sys.argv[3]), sys.argv[4], sys.argv[5])")


# Nominal seconds of one reference_loop(). On 2 vCPUs of a shared 2.0 GHz Xeon
# it took 0.035 to 0.08 s, about 0.04 s when the host was quiet.
REF_S = 0.04
SCALED_WORKLOADS = ("chain_sweep", "cli_pipeline")


def reference_loop() -> float:
    """Fixed work in the mix modbe runs: format and parse CSV text, count into
    a dict, then small numpy products. It runs in chunks of 1000 rows, so that
    it adds under 1 MB to the peak RSS."""
    import numpy as np
    counts: dict[tuple[int, int], float] = {}
    total = 0.0
    for chunk in range(12):
        text = "\n".join(f"{i % 7},{i % 3},{(i * 13) % 101},{i * 0.37:.6f}"
                         for i in range(chunk * 1000, (chunk + 1) * 1000))
        rows = []
        for line in text.splitlines():
            h, a, s, r = line.split(",")
            key = (int(h), int(s))
            counts[key] = counts.get(key, 0.0) + float(r)
            rows.append((float(h), float(a), float(s), float(r)))
        m = np.array(rows)
        g = m.T @ m
        for _ in range(4):
            g = np.tanh(g * 1e-6 + 0.1) @ g
        total += float(g.sum())
    return sum(counts.values()) + total


def reference_time() -> tuple[float, float]:
    """(wall s, CPU s) of one reference_loop()."""
    w0, c0 = time.perf_counter(), time.process_time()
    reference_loop()
    return time.perf_counter() - w0, time.process_time() - c0


class Scaled:
    """Samples timed between reference loops, by kind, with their values at the
    reference speed."""

    def __init__(self):
        self.last = reference_time()
        self.raw: dict[str, list[tuple[float, float]]] = {}
        self.scaled: dict[str, list[tuple[float, float]]] = {}

    def add(self, kind: str, wall: float, cpu: float = 0.0) -> None:
        """Record a sample that ended just now; wall is scaled by the reference
        wall time around it, cpu by the reference CPU time."""
        before, self.last = self.last, reference_time()
        ref_wall = (before[0] + self.last[0]) / 2
        ref_cpu = (before[1] + self.last[1]) / 2
        self.raw.setdefault(kind, []).append((wall, cpu))
        self.scaled.setdefault(kind, []).append((wall * REF_S / ref_wall, cpu * REF_S / ref_cpu))

    def count(self, kind: str) -> int:
        return len(self.raw.get(kind, ()))

    def median(self, kind: str, which: int = 0, raw: bool = False) -> float:
        return statistics.median(s[which] for s in (self.raw if raw else self.scaled)[kind])


def probe_setups(workload: str, seed: int, tmp: Path, count: int,
                 scaled: Scaled | None = None) -> list[float]:
    """Import seconds of `count` fresh interpreters; their whole set-up seconds
    go to `scaled` as kind "setup"."""
    imports = []
    for _ in range(count):
        d = Path(tempfile.mkdtemp(dir=tmp))
        out = subprocess.run([sys.executable, "-c", PROBE, str(HERE), workload, str(seed),
                              str(ROOT), str(d)],
                             check=True, capture_output=True, text=True, timeout=120).stdout
        imp, total = map(float, out.split())
        imports.append(imp)
        if scaled is not None:
            scaled.add("setup", total)
    return imports


def cpu_seconds(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def one_pass(state, jobs=None):
    """Run one pass; returns (wall s, self CPU s, children CPU s, ops)."""
    s0 = resource.getrusage(resource.RUSAGE_SELF)
    c0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    try:
        produced = wl.run_pass(state, jobs)
        failed = None
    except Exception:  # noqa: BLE001 - a raising pass is a counted failure
        failed = traceback.format_exc()
    wall = time.perf_counter() - t0
    s1 = resource.getrusage(resource.RUSAGE_SELF)
    c1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    if failed is None:
        ops = wl.check(state, produced)
    else:
        print(failed, file=sys.stderr)
        ops = [wl.Op(k, False, why="raised") for k in wl.expected_keys(state)]
    return wall, cpu_seconds(s1) - cpu_seconds(s0), cpu_seconds(c1) - cpu_seconds(c0), ops


def load_reference() -> dict:
    return json.loads(wl.REFERENCE.read_text()) if wl.REFERENCE.exists() else {}


def check_reference(ops, key: str, seed: int) -> None:
    if seed == wl.DEFAULT_SEED:
        wl.compare(ops, load_reference().get(key, {}), "the committed reference")


def end_to_end(args, state, tmp: Path):
    timed, passes = Scaled(), []
    probe_setups(args.workload, args.seed, tmp, SETUP_SAMPLES // 2, timed)
    start = time.perf_counter()
    # stop before a pass that would end past --seconds, so a run's length does
    # not grow by up to one pass of the long CB grid
    while not passes or (time.perf_counter() - start + timed.median("pass", raw=True)
                         + timed.median("setup", raw=True) <= args.seconds):
        wall, cpu_self, cpu_children, ops = one_pass(state)
        # jobs 2: the work runs in pool workers, whose usage only the
        # children's counters see
        timed.add("pass", wall, cpu_children if state.jobs > 1 else cpu_self + cpu_children)
        passes.append(ops)
        probe_setups(args.workload, args.seed, tmp, 1, timed)
    probe_setups(args.workload, args.seed, tmp,
                 max(0, SETUP_SAMPLES - timed.count("setup")), timed)
    key = wl.reference_key(args.workload)
    if args.write_reference:
        ref = load_reference()
        ref[key] = {op.key: op.digest for op in passes[0]}
        wl.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    for ops in passes:
        check_reference(ops, key, args.seed)
    if state.jobs > 1:
        *_, serial = one_pass(state, jobs=1)
        for ops in passes:
            wl.compare(ops, {op.key: op.digest for op in serial}, "the jobs-1 run")
    # jobs 1 starts no children besides the set-up probes
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN if state.jobs > 1
                                 else resource.RUSAGE_SELF).ru_maxrss
    ops = [op for p in passes for op in p]
    ok = sum(op.ok for op in ops)
    raw = args.workload not in SCALED_WORKLOADS
    values = {"wall_s": timed.median("pass", raw=raw), "cpu_s": timed.median("pass", 1, raw=raw),
              "peak_rss_mb": peak_kb / 1024.0, "ok_share": ok / len(ops),
              "setup_s": timed.median("setup", raw=True)}
    print(f"passes {len(passes)}; set-up samples {timed.count('setup')}; "
          f"wall_s per pass {[round(w, 4) for w, _c in timed.raw['pass']]}")
    for kind in ("raw", "reference-speed"):
        r = kind == "raw"
        print(f"{kind} medians: wall_s {timed.median('pass', raw=r)} "
              f"cpu_s {timed.median('pass', 1, raw=r)} setup_s {timed.median('setup', raw=r)}")
    return ops, {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def traced(args, state, tmp: Path):
    import_s = statistics.median(probe_setups(args.workload, args.seed, tmp, SETUP_SAMPLES // 2))
    if args.workload == "cb_sweep_jobs2":
        print("note: counters set in forked pool workers never return to the parent, so "
              "cb_sweep_jobs2 reports cb_sweep's per-layer numbers, traced at jobs 1")
    untraced_wall, _, _, reference = one_pass(state, jobs=1)
    with Tracer(wl.load_modbe(ROOT)) as tracer:
        wall, _, _, ops = one_pass(state, jobs=1)
    wl.compare(ops, {op.key: op.digest for op in reference}, "the untraced run")
    check_reference(ops, wl.reference_key(args.workload), args.seed)
    errors = tracer.errors(args.workload)
    for err in errors:
        print(f"trace check failed: {err}", file=sys.stderr)
        for op in ops:
            op.ok, op.why = False, "trace check failed"
    return ops, tracer.metrics(import_s, wall, untraced_wall)


def environment(args) -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if args.write_reference and (args.seed != wl.DEFAULT_SEED or args.trace):
        p.error("--write-reference needs the default seed and --trace 0")
    for needed in (ROOT / "src" / "modbe", ROOT / "configs"):
        if not needed.is_dir():
            print(f"error: {needed} not found; run from a full checkout", file=sys.stderr)
            return 1

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    try:
        state = wl.setup("cb_sweep" if args.trace and args.workload == "cb_sweep_jobs2"
                         else args.workload, args.seed, ROOT, tmp)
        ops, metrics = (traced if args.trace else end_to_end)(args, state, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass                # another run still owns a directory there
    failed = [op for op in ops if not op.ok]
    for op in failed[:10]:
        print(f"failed: {op.key}: {op.why}", file=sys.stderr)
    print(f"env {json.dumps(environment(args))}")
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps({"correct": not failed, "attempted": len(ops), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
