"""Write every byte-stable output of a modbe tree into OUT, which must not exist.

    python3 tools/stable_outputs.py TREE OUT

Imports modbe from TREE/src and runs each command as `python -m modbe.cli` with
PYTHONPATH=TREE/src in OUT. OUT gets the sweep CSVs at --jobs 2, the generated
inputs and datasets, the command outputs, fail_NAME.txt (stderr, then `exit N`)
per failing command, and acceptance.txt (TREE's acceptance verdict lines). Exits 1
if a CSV at --jobs 1 differs from --jobs 2 or a failing command exits other than 1.
Two trees give the same results when `diff -r` finds their OUTs equal.
"""
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path


# configs bench must reject before any cell runs: (name, key, value)
BAD_CONFIGS = (("lava", "instance", "lava"), ("bogus_method", "methods", "bogus"),
               ("fixed_9", "methods", "modbe, fixed-9"), ("empty_n_list", "n_list", ""))


def write_inputs(out: Path):
    from modbe import evaluation as ev, funcclass, mdp, textfile
    mdp.save_mdp(ev.chain_mdp(), str(out / "chain.mdp"))
    funcclass.save_sequence(ev.chain_classes(), str(out / "chain.classes"))
    # the holdout_bias instance with its own data distribution, for diagnose
    bias_mdp, bias_classes, bias_mu = ev.holdout_bias_instance()
    mdp.save_mdp(bias_mdp, str(out / "bias.mdp"))
    funcclass.save_sequence(bias_classes, str(out / "bias.classes"))
    (out / "bias_mu.txt").write_text("".join(textfile.float_line(m.ravel()) for m in bias_mu))
    # a nested finite sequence: the zero table, each Q*_h and each Q*_h / 2, all in [0, 4]
    q = mdp.optimal_q(ev.chain_mdp())
    tabs = [0 * q[0]] + [q[h] for h in range(4)] + [q[h] / 2 for h in range(4)]
    funcclass.save_sequence(funcclass.NestedSequence(tuple(
        funcclass.FiniteClass(tuple(tabs[:m])) for m in (3, 5, 9))), str(out / "finite.classes"))
    # a non-uniform behavior policy: P(a = 0 | h, x) = (1 + (h + x) % 3) / 4
    probs = [(1 + (h + x) % 3) / 4 for h in range(4) for x in range(4)]
    (out / "behavior.txt").write_text("".join(f"{p!r} {1 - p!r}\n" for p in probs))
    # a non-uniform data distribution: mu_h(x, a) proportional to 1 + (h + 2 x + a) % 5
    ws = [[1 + (h + i) % 5 for i in range(8)] for h in range(4)]
    (out / "mu.txt").write_text("".join(" ".join(repr(v / sum(w)) for v in w) + "\n" for w in ws))
    # a behavior policy that never takes action 0: half the pairs of every mu_h have zero mass
    (out / "always1.txt").write_text("0.0 1.0\n" * 16)
    # inputs every command must reject: not UTF-8, bad configs, 30 probabilities
    (out / "binary").write_bytes(bytes(range(128, 256)))
    (out / "unknown_key.cfg").write_text("instance = chain\nbogus = 1\n")
    for name, key, value in BAD_CONFIGS:
        values = {"instance": "chain", "n_list": "40", "seeds": "0", "methods": "modbe", key: value}
        (out / f"{name}.cfg").write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    (out / "values30.txt").write_text("0.5 0.5 0.5\n" * 10)


def main(tree: Path, out: Path):
    src = tree / "src"
    sys.path.insert(0, str(src))
    import modbe
    if src not in Path(modbe.__file__).resolve().parents:
        sys.exit(f"modbe imported from {modbe.__file__}, not from {src}")
    env = dict(os.environ, PYTHONPATH=str(src))

    def cli(*args, stdout=None, cwd=out, fail=None):
        """Run one modbe command with its stdout to out/stdout, or discarded. It must
        succeed, unless fail names it: then its stderr and exit code go to fail_{fail}.txt."""
        with open(out / stdout if stdout else os.devnull, "wb") as fh:
            done = subprocess.run([sys.executable, "-m", "modbe.cli", *args], cwd=cwd, env=env,
                                  stdout=fh, stderr=subprocess.PIPE if fail else None)
        if fail:
            (out / f"fail_{fail}.txt").write_bytes(done.stderr + b"exit %d\n" % done.returncode)
        elif done.returncode:
            sys.exit(f"modbe {' '.join(args)}: exit {done.returncode}")

    out.mkdir(parents=True)
    with tempfile.TemporaryDirectory(prefix="modbe_jobs1_") as jobs1:
        for cfg in sorted((tree / "configs").glob("*.cfg")):
            cli("bench", "--config", str(cfg), "--jobs", "2", "--no-runtime")
            cli("bench", "--config", str(cfg), "--jobs", "1", "--no-runtime", cwd=jobs1)
        faults = [f"{csv.name} differs between --jobs 1 and --jobs 2"
                  for csv in sorted(Path(jobs1).iterdir())
                  if csv.read_bytes() != (out / csv.name).read_bytes()]
    write_inputs(out)
    gen = ("gen-data", "--mdp", "chain.mdp", "--n")
    cli(*gen, "2000", "--seed", "0", "--out", "data.csv")
    # the smallest dataset, and a large one from a non-uniform behavior policy
    cli(*gen, "5", "--seed", "0", "--out", "data_n5.csv")
    cli(*gen, "20000", "--behavior", "behavior.txt", "--seed", "1", "--out", "data_behavior.csv")
    cli(*gen, "2000", "--behavior", "always1.txt", "--seed", "2", "--out", "data_always1.csv")
    chain = ("--classes", "chain.classes", "--seed", "0")
    for name in ("n5", "behavior", "always1"):
        cli("run-holdout", "--data", f"data_{name}.csv", *chain, stdout=f"holdout_{name}.txt")
    for schedule in ("practical", "theoretical"):
        cli("run-modbe", "--data", "data.csv", *chain, "--schedule", schedule,
            "--trace", f"trace_{schedule}.txt")
    # every command that loads data.csv, so the loader is compared too
    cli("run-holdout", "--data", "data.csv", *chain, stdout="holdout.txt")
    cli("run-fqi", "--data", "data.csv", *chain, "--k", "3", "--out", "qtables.txt",
        stdout="fqi.txt")
    diag = ("diagnose", "--mdp", "chain.mdp", "--classes")
    for mu in ("uniform", "mu.txt"):
        cli(*diag, "chain.classes", "--mu", mu, stdout=f"diagnose_{mu.removesuffix('.txt')}.txt")
    # the finite class reads its members through other code than the chain classes
    finite = ("--data", "data.csv", "--classes", "finite.classes", "--seed", "0")
    cli(*diag, "finite.classes", stdout="diagnose_finite.txt")
    cli("diagnose", "--mdp", "bias.mdp", "--classes", "bias.classes", "--mu", "bias_mu.txt",
        stdout="diagnose_bias.txt")
    cli("run-fqi", *finite, "--k", "2", "--out", "qtables_finite.txt", stdout="fqi_finite.txt")
    cli("run-modbe", *finite, "--schedule", "practical", "--trace", "trace_finite.txt",
        stdout="modbe_finite.txt")
    lines = (out / "data.csv").read_text().splitlines()
    i = lines.index("h,x,a,r,x_next") + 1

    def data_copy(name: str, *rows: str):
        """data.csv with its first row replaced by rows, written to out/name."""
        (out / name).write_text("\n".join(lines[:i] + list(rows) + lines[i + 1:]) + "\n")

    first = lines[i].split(",")
    data_copy("data_x99.csv", ",".join(first[:1] + ["99"] + first[2:]))
    # valid copies the loader reads by other routes: a comment line after the
    # header, a name numpy would decompress, and a spelling only int() reads
    data_copy("data_note.csv", "# note", lines[i])
    data_copy("data_copy.csv.gz", lines[i])
    data_copy("data_underscore.csv", ",".join(first[:1] + ["0_" + first[1]] + first[2:]))
    for data, holdout in (("data_note.csv", "holdout_note.txt"),
                          ("data_copy.csv.gz", "holdout_gz.txt"),
                          ("data_underscore.csv", "holdout_underscore.txt")):
        cli("run-holdout", "--data", data, *chain, stdout=holdout)
    # failing commands, but no argparse usage error: a parser refactor may reorder its options
    data_copy("data_trailing_comment.csv", lines[i] + " # note")
    for bad in ("missing", "binary"):
        cli("gen-data", "--mdp", bad, "--n", "5", "--out", "out.csv", fail=f"mdp_{bad}")
        cli(*gen, "5", "--behavior", bad, "--out", "out.csv", fail=f"behavior_{bad}")
        cli("run-modbe", "--data", "data.csv", "--classes", bad, fail=f"classes_{bad}")
        cli("run-holdout", "--data", bad, "--classes", "chain.classes", fail=f"data_{bad}")
        cli(*diag, "chain.classes", "--mu", bad, fail=f"mu_{bad}")
        cli("bench", "--config", bad, fail=f"config_{bad}")
    for name in ("unknown_key", *(name for name, _, _ in BAD_CONFIGS)):
        cli("bench", "--config", f"{name}.cfg", fail=f"config_{name}")
    cli(*gen, "5", "--behavior", "values30.txt", "--out", "out.csv", fail="behavior_30_values")
    cli("run-fqi", "--data", "data_x99.csv", "--classes", "chain.classes", fail="data_x99")
    cli("run-holdout", "--data", "data_trailing_comment.csv", *chain, fail="data_trailing_comment")
    faults += [f"{f.name}: the command must exit 1" for f in sorted(out.glob("fail_*.txt"))
               if f.read_bytes().splitlines()[-1] != b"exit 1"]
    # the verdict lines; pytest's progress dots may precede a line's "[acceptance]"
    tests = subprocess.run([sys.executable, "-m", "pytest", "-q", "--tb=no", "-rN", "-p",
                            "no:cacheprovider", "tests/test_acceptance.py"],
                           cwd=tree, env=env, stdout=subprocess.PIPE)
    (out / "acceptance.txt").write_bytes(b"".join(re.findall(rb"\[acceptance\].*\n", tests.stdout)))
    sys.exit("\n".join(faults) or None)


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    main(*(Path(arg).resolve() for arg in sys.argv[1:]))
