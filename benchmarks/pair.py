"""Paired end-to-end runs of two revisions, with a verdict per metric.

    python3 benchmarks/pair.py --parent HEAD                   # working tree vs HEAD
    python3 benchmarks/pair.py --parent main --change HEAD --workload serve_hot_20k
    python3 benchmarks/pair.py --parent HEAD --change HEAD --pairs 1 \\
        --scale tiny --seconds 0 --workload serve_hot_20k     # smoke
    python3 benchmarks/pair.py --parent HEAD \\
        --bench benchmarks/bench_table04_cc.py                # a paper bench

Each side runs from a ``git archive`` copy of its revision (``--change``
defaults to the working tree's tracked files, staged new files included,
as ``git stash create`` records them).  Pair ``i`` runs
``benchmarks/e2e/run.py --workload W --trace 0 --seed i`` once per side,
the parent first on even pairs and the change first on odd ones, so a
drift in the machine's load falls on both sides alike.

For every end-to-end metric ``BENCHMARK.json`` declares it prints each
side's median and quartiles, how many pairs the change won (ties count
for neither side) and one verdict:

- *better beyond the parent's IQR*: the change won at least 9 in 10 of
  the pairs and its median beats the parent's by more than the parent's
  quartile spread (IQR);
- *worse beyond bound*: the change's median is worse than the parent's
  by more than the metric's bound (a share of the parent's median), and
  the parent won at least 9 in 10 of the pairs;
- *within bound*: no worse than the bound, and the parent's IQR is no
  wider than the bound (or every change run beats every parent run);
- *unresolved*: anything else: worse than the bound but not
  consistently, or the parent's runs spread too widely to tell.

``--bench FILE`` (repeatable) runs paper benches instead of workloads:
one pytest session over the named files per side, the parent first,
each timed body once (``--benchmark-disable``, as CI runs them).  It
prints each side's wall time and, for every ``results/`` file either
side's session wrote, whether the two are identical, with a unified diff
where they are not.  ``--pairs``, ``--scale`` and ``--seconds`` apply to
workloads only.

The exit code is 1 when any run failed or answered wrongly, else 0: the
verdicts and the diffs inform, they do not gate.
"""

from __future__ import annotations

import argparse
import difflib
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
#: Share of the pairs a side must win for a consistent verdict.
CONSISTENT = 0.9


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def resolve(rev: str | None) -> str:
    """``rev`` as a commit id; ``None`` is the working tree."""
    if rev is None:
        return git("stash", "create") or git("rev-parse", "HEAD")
    return git("rev-parse", "--verify", f"{rev}^{{commit}}")


def checkout(commit: str, into: Path) -> Path:
    into.mkdir()
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT,
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into


def run_once(copy: Path, workload: str, seed: int, scale: str,
             seconds: float) -> dict | None:
    """One untraced run's end-to-end values, or ``None`` (with the
    run's output tail on stderr) when it failed or answered wrongly."""
    command = [sys.executable, "benchmarks/e2e/run.py", "--workload",
               workload, "--trace", "0", "--seed", str(seed), "--scale",
               scale, "--seconds", str(seconds)]
    done = subprocess.run(command, cwd=copy, capture_output=True,
                          text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if done.returncode or result is None or not result["correct"]:
        tail = (done.stdout + done.stderr).splitlines()[-20:]
        print(f"FAILED ({copy.name}, {workload}, seed {seed}, exit "
              f"{done.returncode}):\n  " + "\n  ".join(tail),
              file=sys.stderr)
        return None
    return {name: metric["value"]
            for name, metric in result["metrics"].items()}


def run_bench(copy: Path, benches: list[str]) -> tuple[float, bool, dict]:
    """One pytest session over ``benches`` in ``copy``: its wall time,
    whether it passed (else its output tail goes to stderr), and the
    ``results/`` files it wrote, by name."""

    def contents() -> dict[str, str]:
        return {path.name: path.read_text(errors="replace")
                for path in sorted((copy / "results").glob("*"))
                if path.is_file()}

    before = contents()
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:randomly",
               "-p", "no:cacheprovider", "--benchmark-disable", *benches]
    started = time.perf_counter()
    done = subprocess.run(command, cwd=copy, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": "src"})
    wall = time.perf_counter() - started
    if done.returncode:
        tail = (done.stdout + done.stderr).splitlines()[-20:]
        print(f"FAILED ({copy.name}, exit {done.returncode}):\n  "
              + "\n  ".join(tail), file=sys.stderr)
    written = {name: text for name, text in contents().items()
               if before.get(name) != text}
    return wall, done.returncode == 0, written


def compare_results(parent: dict, change: dict) -> list[str]:
    """One line per file either side wrote, each difference followed by
    its unified diff (parent → change)."""
    lines = []
    for name in sorted(parent.keys() | change.keys()):
        if name not in parent or name not in change:
            side = "change" if name in change else "parent"
            lines.append(f"results/{name}  written by the {side} only")
        elif parent[name] == change[name]:
            lines.append(f"results/{name}  identical")
        else:
            lines.append(f"results/{name}  differs:")
            lines.extend("  " + line.rstrip("\n") for line in
                         difflib.unified_diff(
                             parent[name].splitlines(True),
                             change[name].splitlines(True),
                             f"parent/results/{name}",
                             f"change/results/{name}"))
    return lines


def bench_pair(copies: dict, benches: list[str]) -> bool:
    """Run ``benches`` on both sides and print the comparison; whether
    both sessions passed."""
    runs = {side: run_bench(copies[side], benches) for side in SIDES}
    print(f"\n== {' '.join(benches)} ==")
    for side in SIDES:
        wall, passed, _written = runs[side]
        print(f"{side:<8}{wall:>8.1f} s  {'passed' if passed else 'FAILED'}")
    parent_s, change_s = runs["parent"][0], runs["change"][0]
    print(f"change {change_s - parent_s:+.1f} s "
          f"({(change_s - parent_s) / parent_s:+.1%})")
    print("\n".join(compare_results(runs["parent"][2], runs["change"][2])))
    return all(passed for _wall, passed, _written in runs.values())


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def verdict(metric: dict, parent: list[float], change: list[float]) -> dict:
    """The row :func:`main` prints for one metric over the pairs both
    sides completed."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    gains = [sign * (p - c) for p, c in zip(parent, change)]
    wins = sum(gain > 0 for gain in gains)
    losses = sum(gain < 0 for gain in gains)
    needed = math.ceil(CONSISTENT * len(gains))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, p_q3 = quartiles(parent)
    gain = sign * (p_med - c_med)
    limit = metric["bound"] * abs(p_med)
    if wins >= needed and gain > p_q3 - p_q1:
        text = "better beyond the parent's IQR"
    elif -gain > limit:
        text = "worse beyond bound" if losses >= needed else "unresolved"
    elif (p_q3 - p_q1 <= limit
          or min(sign * p for p in parent) > max(sign * c for c in change)):
        text = "within bound"
    else:
        text = "unresolved"
    return {"parent": (p_med, p_q1, p_q3),
            "change": (c_med, *quartiles(change)),
            "delta": (c_med - p_med) / p_med if p_med else 0.0,
            "wins": wins, "verdict": text}


def show(workload: str, metrics: list[dict], runs: dict, n: int) -> None:
    done = [i for i in range(n)
            if all(runs[side][i] is not None for side in SIDES)]
    print(f"\n== {workload}: {len(done)} of {n} pairs complete ==")
    if not done:
        return
    print(f"{'metric':<14}{'unit':<7}{'parent median [q1, q3]':<30}"
          f"{'change median [q1, q3]':<30}{'change':>9}{'wins':>7}  verdict")
    for metric in metrics:
        name = metric["name"]
        parent, change = ([runs[side][i][name] for i in done]
                          for side in SIDES)
        row = verdict(metric, parent, change)
        cells = ["{:.4g} [{:.4g}, {:.4g}]".format(*row[side])
                 for side in SIDES]
        print(f"{name:<14}{metric['unit']:<7}{cells[0]:<30}{cells[1]:<30}"
              f"{row['delta']:>+9.1%}{row['wins']:>4}/{len(done):<2}  "
              f"{row['verdict']}")


def main(argv: list[str] | None = None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision")
    parser.add_argument("--change", default=None,
                        help="git revision (default: the working tree)")
    target = parser.add_mutually_exclusive_group()
    target.add_argument("--workload", action="append",
                        choices=[w["name"] for w in declared["workloads"]],
                        help="repeatable (default: every workload)")
    target.add_argument("--bench", action="append", metavar="FILE",
                        help="a paper bench, benchmarks/bench_*.py, run "
                             "once per side instead of the workloads; "
                             "repeatable (one pytest session)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--seconds", type=float,
                        default=declared["run_seconds"],
                        help="measured time per run")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    benches = []
    for bench in args.bench or ():
        path = Path(bench).resolve()
        if not path.is_file() or not path.is_relative_to(ROOT):
            parser.error(f"--bench {bench}: not a file under {ROOT}")
        benches.append(str(path.relative_to(ROOT)))
    workloads = args.workload or [w["name"] for w in declared["workloads"]]
    commits = {}
    for side in SIDES:
        rev = getattr(args, side)
        try:
            commits[side] = resolve(rev)
        except subprocess.CalledProcessError:
            parser.error(f"--{side} {rev}: not a git revision")
    print("  ".join(f"{side} {commit[:12]}"
                    for side, commit in commits.items()))
    with tempfile.TemporaryDirectory(prefix="pair-") as tmp:
        copies = {side: checkout(commit, Path(tmp) / side)
                  for side, commit in commits.items()}
        if benches:
            return 0 if bench_pair(copies, benches) else 1
        runs = {w: {side: [] for side in SIDES} for w in workloads}
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for workload in workloads:
                for side in order:
                    result = run_once(copies[side], workload, i,
                                      args.scale, args.seconds)
                    runs[workload][side].append(result)
                    print(f"pair {i + 1}/{args.pairs} {workload} {side}: "
                          f"{'ok' if result else 'FAILED'}",
                          file=sys.stderr, flush=True)
    for workload in workloads:
        show(workload, declared["end_to_end"], runs[workload], args.pairs)
    failed = any(result is None for per_side in runs.values()
                 for results in per_side.values() for result in results)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
