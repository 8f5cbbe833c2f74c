"""Record the end-to-end numbers of a base and a head checkout as BENCH_*.json.

    python3 tools/record_bench.py --base DIR --head DIR \\
        --out-base BENCH_baseline.json --out-head BENCH_csv_io.json \\
        --pairs cli_pipeline=10 --pairs chain_sweep=5 [--first-seed 21]

Each checkout needs src/, configs/, tests/, perfbench/ and BENCHMARK.json.
For each workload named by --pairs, `perfbench/run.py --workload W --trace 0
--seconds S`, with S the head's BENCHMARK.json `run_seconds`, runs COUNT
times in each tree, alternating between the trees: pair i uses workload seed
first-seed + i in both, and its base run goes first in even pairs and second
in odd ones. Each side records the median and quartiles of every
end-to-end metric, with the per-pair values.

Then, once per side, it runs every configs/*.cfg sweep with
`modbe bench --no-runtime` at --jobs 1 and --jobs 2 (wall seconds, the peak
RSS of the largest process of the run and the minor page faults of all its
processes), and the tier-1 suite (wall seconds and pytest's summary line).
BLAS is pinned to one thread, as in perfbench/run.py. The lines printed last
compare the two sides per workload and metric.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

END_TO_END = ("wall_s", "cpu_s", "peak_rss_mb", "setup_s", "ok_share")
HIGHER_IS_BETTER = ("ok_share",)
ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")


def perfbench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                         cwd=tree, env=ENV, capture_output=True, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    values = {m: result["metrics"][m]["value"] for m in END_TO_END}
    values["correct"] = result["correct"]
    return values


def run_child(argv: list, cwd, tree: Path) -> tuple[float, float, int, str]:
    """Wall seconds, peak RSS in MB of the largest process, minor page faults,
    and the last line of standard output of one command run with the tree's
    src on the path."""
    env = dict(ENV, PYTHONPATH=str(tree / "src"))
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE, text=True)
    out = proc.stdout.read()
    # wait4 returns the child's usage; it also covers the child's waited-for
    # children (the pool workers): ru_maxrss as the largest of them, ru_minflt
    # as the sum
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"{argv} in {cwd} exited {proc.returncode}")
    lines = out.strip().splitlines()
    return wall, usage.ru_maxrss / 1024.0, usage.ru_minflt, lines[-1] if lines else ""


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--base", type=Path, required=True)
    p.add_argument("--head", type=Path, required=True)
    p.add_argument("--out-base", type=Path, required=True)
    p.add_argument("--out-head", type=Path, required=True)
    p.add_argument("--pairs", action="append", required=True, metavar="WORKLOAD=COUNT")
    p.add_argument("--first-seed", type=int, default=21)
    args = p.parse_args(argv)
    pairs = {}
    for spec in args.pairs:
        name, _, count = spec.partition("=")
        if not count.isdigit() or int(count) < 2:
            p.error(f"--pairs {spec}: expected WORKLOAD=COUNT with COUNT >= 2")
        pairs[name] = int(count)
    trees = {"base": args.base.resolve(), "head": args.head.resolve()}
    seconds = json.loads((trees["head"] / "BENCHMARK.json").read_text())["run_seconds"]
    records = {side: {"commit": subprocess.run(["git", "rev-parse", "HEAD"], cwd=tree,
                                               capture_output=True, text=True).stdout.strip(),
                      "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                               "machine": platform.machine(), "blas_threads": 1},
                      "workloads": {}, "sweeps": {}, "tier1": {}}
               for side, tree in trees.items()}

    for workload, count in pairs.items():
        runs = {"base": [], "head": []}
        seeds = [args.first_seed + i for i in range(count)]
        for i, seed in enumerate(seeds):
            for side in ("base", "head") if i % 2 == 0 else ("head", "base"):
                runs[side].append(perfbench(trees[side], workload, seed, seconds))
                print(f"{workload} seed {seed} {side}: {runs[side][-1]}", flush=True)
        for side, rs in runs.items():
            records[side]["workloads"][workload] = {
                "seeds": seeds, "seconds": seconds,
                "correct": all(r["correct"] for r in rs),
                "metrics": {m: summary([r[m] for r in rs]) for m in END_TO_END}}

    with tempfile.TemporaryDirectory() as tmp:
        for cfg in sorted(path.name for path in (trees["head"] / "configs").glob("*.cfg")):
            for jobs in (1, 2):
                for side, tree in trees.items():
                    cwd = Path(tmp) / f"{side}-{cfg}-{jobs}"
                    cwd.mkdir()
                    wall, rss, faults, _ = run_child(
                        [sys.executable, "-m", "modbe.cli", "bench", "--config",
                         str(tree / "configs" / cfg), "--jobs", str(jobs), "--no-runtime"],
                        cwd, tree)
                    records[side]["sweeps"][f"{cfg} --jobs {jobs}"] = {
                        "wall_s": round(wall, 3), "peak_rss_mb": round(rss, 1),
                        "minor_faults": faults}
                    print(f"{cfg} --jobs {jobs} {side}: {wall:.2f} s, {rss:.1f} MB, "
                          f"{faults} minor faults", flush=True)
    for side, tree in trees.items():
        wall, _, _, last = run_child([sys.executable, "-m", "pytest", "-q", "-p",
                                      "no:cacheprovider", "--continue-on-collection-errors"],
                                     tree, tree)
        records[side]["tier1"] = {"wall_s": round(wall, 2), "summary": last}
        print(f"tier-1 {side}: {wall:.1f} s, {last}", flush=True)

    for side, out in (("base", args.out_base), ("head", args.out_head)):
        out.write_text(json.dumps(records[side], indent=1) + "\n")
    for workload in pairs:
        base = records["base"]["workloads"][workload]["metrics"]
        head = records["head"]["workloads"][workload]["metrics"]
        for m in END_TO_END:
            sign = -1 if m in HIGHER_IS_BETTER else 1
            wins = sum(sign * h < sign * b for b, h in zip(base[m]["values"], head[m]["values"]))
            print(f"{workload} {m}: median {base[m]['median']:.4g} -> {head[m]['median']:.4g}, "
                  f"base IQR {base[m]['q3'] - base[m]['q1']:.3g}, head better in "
                  f"{wins}/{len(base[m]['values'])} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
