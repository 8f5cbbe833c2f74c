# Command-line driver. Every subcommand is a thin adapter over the library:
# no numerical logic lives here. All randomness flows from explicit --seed
# flags; machine-readable artifacts go only to --out/--trace paths.
from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import basealg, dataset as ds, evaluation as ev, funcclass as fc, mdp as mdp_mod
from .selection import SCHEDULES, SelectionError, modbe, validation_losses
from .textfile import float_line, read_lines, write_lines

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2


class CLIError(Exception):
    """Input-validation failure: bad flag value or malformed file."""


# bad input: main() exits 1 on each, and _file names the flag whose file raised it
INPUT_ERRORS = (CLIError, mdp_mod.MDPError, ds.DatasetError, fc.FunctionClassError,
                ev.EvalError, SelectionError, basealg.BaseAlgError)


def _int_in(low: int, high: int | None = None):
    """argparse type: an integer no smaller than low and, if given, no larger than high."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value
    parse.__name__ = "int"      # argparse names the type in its "invalid int value" message
    return parse


def _output_file(path: str) -> str:
    """argparse type: a path in an existing directory that names a file."""
    if "\0" in path:
        raise argparse.ArgumentTypeError(f"output {path!r} holds a NUL byte")
    out_dir = os.path.dirname(path) or "."
    try:
        os.stat(os.path.join(out_dir, ""))      # the trailing separator fails on a file
    except FileNotFoundError:
        raise argparse.ArgumentTypeError(f"output directory {out_dir!r} does not exist") from None
    except OSError as exc:      # such as a name too long, or a file on the path
        raise argparse.ArgumentTypeError(f"output directory {out_dir!r}: {exc.strerror}") from exc
    if not os.path.basename(path) or os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"output {path!r} does not name a file")
    try:
        os.stat(path)
    except FileNotFoundError:
        pass
    except OSError as exc:      # such as a name too long for the file system
        raise argparse.ArgumentTypeError(f"output {path!r}: {exc.strerror}") from exc
    return path


def _file(flag: str, use, path: str, *args):
    """use(path, *args); a file that cannot be named, opened, decoded, parsed
    or written exits 1 with an error named by flag."""
    try:
        if "\0" in path:
            raise CLIError(f"file name {path!r} holds a NUL byte")
        return use(path, *args)
    except (OSError, UnicodeDecodeError, *INPUT_ERRORS) as exc:
        raise CLIError(f"{flag}: {exc}") from exc


def _load_data_and_classes(args) -> tuple[ds.OfflineDataset, fc.NestedSequence]:
    """The --data dataset and the --classes sequence clipped to its horizon,
    with every x and x_next in [0, S) and every a in [0, A) of the classes."""
    data = _file("--data", ds.load_dataset_csv, args.data)
    classes = _file("--classes", fc.load_sequence, args.classes, float(data.horizon))
    S, A = classes[len(classes)].shape
    for h, step in enumerate(data.steps, start=1):
        for name, col, size in (("x", step.x, S), ("a", step.a, A), ("x_next", step.x_next, S)):
            if col.max() >= size:
                raise CLIError(f"--data: step {h} has {name} = {col.max()}, outside [0, {size}) "
                               f"of the --classes tables")
    return data, classes


def _probabilities(spec: str, mdp: mdp_mod.TabularMDP, uniform, check):
    """uniform when spec is 'uniform'; otherwise check(the H*S*A probabilities
    in the file spec, shaped (H, S, A))."""
    if spec == "uniform":
        return uniform
    H, S, A = mdp.horizon, mdp.num_states, mdp.num_actions
    try:        # numpy raises a plain ValueError
        lines = [text for _, text in read_lines(spec)[1]]
        probs = np.loadtxt(lines).ravel() if lines else np.zeros(0)
    except ValueError as exc:
        raise CLIError(str(exc)) from exc
    if probs.size != H * S * A:
        raise CLIError(f"expected H*S*A = {H * S * A} probabilities, found {probs.size}")
    return check(probs.reshape(H, S, A))


def cmd_gen_data(args) -> int:
    mdp = _file("--mdp", mdp_mod.load_mdp, args.mdp)
    pol = _file("--behavior", _probabilities, args.behavior, mdp,
                mdp_mod.Policy.uniform(mdp.horizon, mdp.num_states, mdp.num_actions),
                mdp_mod.Policy)
    data, _mu = ds.generate_from_behavior(mdp, pol, args.n, args.seed)
    _file("--out", lambda path: ds.save_dataset_csv(data, path), args.out)
    print(f"wrote {data.horizon} x {data.n} transitions to {args.out}")
    return EXIT_OK


def cmd_run_fqi(args) -> int:
    data, classes = _load_data_and_classes(args)
    if not 1 <= args.k <= len(classes):
        raise CLIError(f"--k: class index {args.k} outside [1, {len(classes)}]")
    split = ds.split_dataset(data, args.seed)
    fseq = basealg.fqi(split.train.steps, classes[args.k])
    print(f"fqi: class {args.k}, horizon {data.horizon}, n_train {split.train.n}")
    for h, loss in enumerate(validation_losses(fseq, split.valid.steps), start=1):
        print(f"  h={h} validation_loss={loss:.6g}")
    if args.out:
        _file("--out", write_lines, args.out, (float_line(f.clipped.ravel()) for f in fseq.funcs))
        print(f"wrote Q tables to {args.out}")
    return EXIT_OK


def cmd_run_modbe(args) -> int:
    data, classes = _load_data_and_classes(args)
    trace = modbe(data, basealg.make_fqi(), classes, args.delta, args.schedule, args.seed)
    if args.trace:
        _file("--trace", write_lines, args.trace, [trace.to_text()])
    print(f"selected class: {trace.k_hat} of {len(classes)}")
    print(f"test events: {len(trace.events)} "
          f"(rejections: {sum(e.reject for e in trace.events)})")
    print(f"base calls: {trace.base_calls}, erm calls: {trace.erm_calls}")
    return EXIT_OK


def cmd_run_holdout(args) -> int:
    data, classes = _load_data_and_classes(args)
    split = ds.split_dataset(data, args.seed)
    k, scores = ev.holdout_select([validation_losses(basealg.fqi(split.train.steps, classes[k]),
                                                     split.valid.steps)
                                   for k in range(1, len(classes) + 1)])
    print(f"selected class: {k} of {len(classes)}")
    for i, s in enumerate(scores, start=1):
        print(f"  class {i} validation loss {s:.6g}")
    return EXIT_OK


def cmd_diagnose(args) -> int:
    mdp = _file("--mdp", mdp_mod.load_mdp, args.mdp)
    classes = _file("--classes", fc.load_sequence, args.classes, float(mdp.horizon))
    shape = classes[len(classes)].shape
    if shape != (mdp.num_states, mdp.num_actions):
        raise CLIError(f"--classes: tables of shape {shape} do not match the MDP's "
                       f"(S, A) = {(mdp.num_states, mdp.num_actions)}")
    mu = _file("--mu", _probabilities, args.mu, mdp, ev.uniform_mu(mdp),
               lambda probs: mdp_mod.check_data_distribution(mdp, probs))
    report = ev.diagnose(classes, mdp, mu)
    print(report.to_text(), end="")
    return EXIT_OK


def cmd_bench(args) -> int:
    cfg = _file("--config", ev.parse_config, args.config)
    try:
        _output_file(cfg.output)
    except argparse.ArgumentTypeError as exc:
        raise CLIError(f"--config: {exc}") from exc
    rows = ev.run_experiment(cfg, jobs=args.jobs, record_runtime=not args.no_runtime)
    _file("--config", lambda path: ev.write_results_csv(rows, path), cfg.output)
    print(ev.summarize(rows), end="")
    print(f"wrote {len(rows)} rows to {cfg.output}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="modbe",
        description="Offline RL model selection benchmark harness.")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate an offline dataset from a behavior policy")
    g.add_argument("--mdp", required=True, help="MDP file (plain-text format)")
    g.add_argument("--behavior", default="uniform",
                   help="'uniform' or a whitespace policy file of H*S*A probabilities")
    g.add_argument("--n", type=_int_in(ds.MIN_SAMPLES, ds.MAX_SAMPLES), required=True,
                   help=f"samples per step ({ds.MIN_SAMPLES} to {ds.MAX_SAMPLES})")
    g.add_argument("--seed", type=_int_in(0), default=0, help="generation seed (>= 0)")
    g.add_argument("--out", type=_output_file, required=True, help="output dataset CSV path")
    g.set_defaults(func=cmd_gen_data)

    split = argparse.ArgumentParser(add_help=False)     # the inputs of the three split commands
    split.add_argument("--data", required=True, help="dataset CSV")
    split.add_argument("--classes", required=True, help="nested-sequence description file")
    split.add_argument("--seed", type=_int_in(0), default=0, help="split seed (>= 0)")

    f = sub.add_parser("run-fqi", parents=[split], help="run fitted Q-iteration with one class")
    f.add_argument("--k", type=int, default=1, help="1-based class index (default: 1)")
    f.add_argument("--out", type=_output_file, default=None,
                   help="optional output path for Q tables")
    f.set_defaults(func=cmd_run_fqi)

    m = sub.add_parser("run-modbe", parents=[split],
                       help="run the selection loop over nested classes")
    m.add_argument("--delta", type=float, default=0.1, help="failure probability (<= 1/e)")
    m.add_argument("--schedule", choices=SCHEDULES,
                   default="theoretical", help="tolerance schedule (default: theoretical)")
    m.add_argument("--trace", type=_output_file, default=None,
                   help="optional output path for the full trace")
    m.set_defaults(func=cmd_run_modbe)

    h = sub.add_parser("run-holdout", parents=[split], help="hold-out baseline selection")
    h.set_defaults(func=cmd_run_holdout)

    d = sub.add_parser("diagnose", help="ground-truth diagnostics for an instance")
    d.add_argument("--mdp", required=True, help="MDP file")
    d.add_argument("--classes", required=True, help="nested-sequence description file")
    d.add_argument("--mu", default="uniform",
                   help="'uniform' or a file of H*S*A probabilities (default: uniform)")
    d.set_defaults(func=cmd_diagnose)

    b = sub.add_parser("bench", help="run a benchmark sweep from a config file")
    b.add_argument("--config", required=True, help="plain-text key=value config file")
    b.add_argument("--jobs", type=_int_in(1), default=1,
                   help="parallel workers (>= 1), one seed each (default: 1)")
    b.add_argument("--no-runtime", action="store_true",
                   help="leave runtime_ms empty for byte-stable output")
    b.set_defaults(func=cmd_bench)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
