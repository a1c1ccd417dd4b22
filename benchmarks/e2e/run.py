"""End-to-end benchmark of the retrieval stack: one command, four
workloads, every metric by name and unit, answers verified.

    python3 benchmarks/e2e/run.py                      # all four, untraced
    python3 benchmarks/e2e/run.py --trace              # + per-layer numbers
    python3 benchmarks/e2e/run.py --workload serve_hot_20k --seed 3
    python3 benchmarks/e2e/run.py --selfcheck          # A/A run -> AA.md

The last line of standard output is one JSON object.  With
``--workload`` it is the driver's shape — ``correct``, ``attempted``,
``failed``, ``metrics`` (end-to-end metrics, or with ``--trace 1`` the
per-layer ones); without, it maps each workload to that object.  The
exit code is non-zero when any answer was wrong or a workload did not
stress what it claims to.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from metrics import (END_TO_END, PER_LAYER, UNITS, WORKLOADS as WHY,  # noqa: E402
                     as_metrics, median)
from procs import PINNED_ENV, Children  # noqa: E402
from tracing import Tracer, self_times, write_spans  # noqa: E402
from workloads import TRACED_ROUNDS, WORKLOADS, summarize  # noqa: E402

OUT = HERE / "out"
DEFAULT_SECONDS = 24
MIN_ROUNDS = 3
clock = time.perf_counter


def measure(workload, seconds: float) -> list:
    """Fixed-count rounds until the next one would overrun ``seconds``
    (at least ``MIN_ROUNDS``) or the workload's inputs run out.  What a
    workload does between rounds is not charged to ``seconds``."""
    rounds = []
    deadline = clock() + seconds
    while True:
        started = clock()
        workload.before_round(len(rounds))
        deadline += clock() - started
        started = clock()
        result = workload.round()
        if result is None:
            break
        rounds.append(result)
        if (len(rounds) >= MIN_ROUNDS
                and clock() + (clock() - started) > deadline):
            break
    return rounds


def check_claims(name: str, end_to_end: dict, layer: dict,
                 traced: bool) -> list[str]:
    """Each workload stresses what it claims to; a run that does not is
    not a measurement of that workload."""
    broken = []

    def claim(ok: bool, text: str) -> None:
        if not ok:
            broken.append(f"{name}: {text}")

    claim(0.3 < end_to_end["map_at_10"] < 0.99,
          f"map_at_10 {end_to_end['map_at_10']:.3f} cannot move")
    claim(layer["client.cpu_util"] < 0.5,
          f"load generator used {layer['client.cpu_util']:.2f} of a core")
    if name == "serve_fresh_100k":
        claim(layer["cache.exact_hit_share"] == 0,
              "never-repeated queries hit the cache")
        if traced:
            claim(layer["retrieval.lsh.rank_us"] >= 0.5 * 1000.0
                  * layer["serve.server.cpu_ms_per_query"],
                  "ranking is under half of server CPU per query")
    if name == "serve_hot_20k":
        claim(layer["cache.exact_hit_share"] >= 0.7,
              f"exact hit share {layer['cache.exact_hit_share']:.2f} < 0.7")
    return broken


def check_spans(spans: list[dict]) -> list[str]:
    broken = []
    if any(own < -1e-9 for own in self_times(spans)):
        broken.append("a span has negative self time")
    for span in spans:
        parent = span["parent"]
        if parent is not None and spans[parent]["request"] != span["request"]:
            broken.append(f"span {span['name']} and its parent belong to "
                          f"different requests")
            break
    return broken


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 scale: str) -> dict:
    """One run of one workload: one set-up, warm-up, rounds for
    ``seconds``.  Traced: untraced rounds for half the time (they give
    the end-to-end numbers printed beside the per-layer ones),
    ``TRACED_ROUNDS`` rounds with spans, then the layer replay in the
    worker child."""
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    children = Children()
    workload = None
    load_start = os.getloadavg()[0]
    try:
        started = clock()
        workload = WORKLOADS[name](seed, scale, tmp, children)
        workload.prepare()
        workload.setup()
        setup_s = clock() - started
        workload.warmup()
        rounds = measure(workload, seconds / 2 if traced else seconds)
        summary = summarize(rounds)
        workload.build_layers()
        workload.server_layers(rounds)
        layer = workload.layer
        layer["index.open_mmap_ms"] = median(workload.opens_ms)
        if traced:
            tracer = Tracer()
            traced_rounds = [workload.round(tracer)
                             for _ in range(TRACED_ROUNDS)]
            workload.trace_layers(tracer, summary["p50_ms"])
            plain = median(r.wall_s for r in rounds)
            layer["trace.overhead_share"] = (
                median(r.wall_s for r in traced_rounds) - plain) / plain
            write_spans(OUT / f"trace-{name}.json", tracer.spans)
        layer.update({key: summary[key] for key in
                      ("client.p99_ms", "client.max_ms", "client.cpu_util")})
        quality = workload.finish()     # also the offline comparison
        failed = summary["failed"] + workload.mismatches
        end_to_end = {"setup_s": setup_s,
                      "ok_share": 1.0 - failed / summary["attempted"],
                      **{key: summary[key]
                         for key in ("qps", "p50_ms", "p95_ms")},
                      **quality}
        problems = [] if scale == "tiny" else check_claims(
            name, end_to_end, layer, traced)
        if traced:
            problems += check_spans(tracer.spans)
        if failed:
            problems.append(f"{name}: {failed} of {summary['attempted']} "
                            f"answers were wrong")
        return {
            "workload": name, "seed": seed, "traced": traced,
            "end_to_end": {metric: end_to_end[metric]
                           for metric, *_rest in END_TO_END},
            # Only the layers this workload entered.
            "per_layer": {metric: float(layer[metric])
                          for metric, *_rest in PER_LAYER if metric in layer},
            "attempted": summary["attempted"], "failed": failed,
            "problems": problems,
            "rounds": len(rounds),
            "samples_per_round": summary["samples_per_round"],
            "per_round": summary["per_round"],
            "opens": len(workload.opens_ms),
            "load_avg_1m": [load_start, os.getloadavg()[0]],
        }
    finally:
        try:
            if workload is not None:
                workload.teardown()
        finally:
            children.close()
            shutil.rmtree(tmp, ignore_errors=True)


def driver_object(result: dict) -> dict:
    """The driver reads every declared metric on every workload, so a
    layer the workload never enters is sent as 0."""
    if result["traced"]:
        shown = {metric: result["per_layer"].get(metric, 0.0)
                 for metric, *_rest in PER_LAYER}
    else:
        shown = result["end_to_end"]
    return {"correct": not result["problems"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": as_metrics(shown)}


def environment() -> dict:
    model = "unknown"
    with open("/proc/cpuinfo") as handle:
        for line in handle:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    head = ROOT / ".git" / "HEAD"
    commit = "not a git checkout"
    if head.is_file():
        commit = head.read_text().strip()
        if commit.startswith("ref: "):
            ref = ROOT / ".git" / commit[5:]
            commit = ref.read_text().strip() if ref.is_file() else commit
    return {"nproc": os.cpu_count(), "cpu": model,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "commit": commit,
            "child_env": PINNED_ENV}


def show(result: dict) -> None:
    print(f"\n== {result['workload']} (seed {result['seed']}, "
          f"{result['rounds']} rounds x {result['samples_per_round']} "
          f"samples, {result['opens']} opens, "
          f"load avg {result['load_avg_1m'][0]:.2f} -> "
          f"{result['load_avg_1m'][1]:.2f}) ==")
    print(f"  ops_attempted {result['attempted']}  "
          f"ops_failed {result['failed']}  failed_share "
          f"{result['failed'] / result['attempted']:.4f}")
    for name, value in result["end_to_end"].items():
        print(f"  {name:<34} {value:>14.4f} {UNITS[name]}")
    for name, values in result["per_round"].items():
        print(f"  per round {name:<24} "
              + " ".join(f"{v:.3f}" for v in values))
    if result["traced"]:
        print("  -- per layer (traced run; end-to-end above is its "
              "untraced half) --")
        for name, value in result["per_layer"].items():
            print(f"  {name:<34} {value:>14.4f} {UNITS[name]}")
    for problem in result["problems"]:
        print(f"  PROBLEM: {problem}")


def selfcheck(args) -> int:
    """A/A: the whole benchmark as two interleaved sets of the same
    code.  A metric whose two set medians differ by more than its bound
    cannot resolve a change of that size; the exit code says whether
    every gap stayed within its declared bound, the table also whether
    it met the target ISSUE 13 set."""
    pairs = 3
    sets: dict[str, list[list[dict]]] = {name: [[], []] for name in WORKLOADS}
    for i in range(2 * pairs):
        for name in WORKLOADS:
            result = run_workload(name, args.seed + i // 2, args.seconds,
                                  False, args.scale)
            show(result)
            if result["problems"]:
                return 1
            sets[name][i % 2].append(result["end_to_end"])
    lines = ["| workload | metric | unit | median A | median B | gap | "
             "bound | within bound | target | meets target |",
             "|---|---|---|---|---|---|---|---|---|---|"]
    over_bound = over_target = 0
    for name in WORKLOADS:
        for metric, unit, _better, bound, target in END_TO_END:
            a = median(run[metric] for run in sets[name][0])
            b = median(run[metric] for run in sets[name][1])
            gap = abs(a - b) / a
            over_bound += gap > bound
            over_target += gap > target
            lines.append(
                f"| {name} | {metric} | {unit} | {a:.4f} | {b:.4f} "
                f"| {gap:.2%} | {bound:.0%} | {'yes' if gap <= bound else 'NO'} "
                f"| {target:.0%} | {'yes' if gap <= target else 'NO'} |")
    text = "\n".join([
        "# A/A self-check", "",
        f"Two interleaved sets (A,B,A,B,A,B) of {pairs} runs each, same code, "
        f"seeds {args.seed}..{args.seed + pairs - 1} in both sets, `--seconds "
        f"{args.seconds}`, scale `{args.scale}`.  Gap = |median A - median B| "
        f"/ median A.  Bound = what `BENCHMARK.json` declares; target = what "
        f"ISSUE 13 asked for.", "",
        f"**{over_bound} gaps over their bound, {over_target} over their "
        f"target** (of {len(lines) - 2}).", "",
        f"Environment: `{json.dumps(environment())}`", "", *lines]) + "\n"
    print(text)
    (HERE / "AA.md").write_text(text)
    return 1 if over_bound else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measured time per workload run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)
    print(f"environment: {json.dumps(environment())}")
    if args.selfcheck:
        return selfcheck(args)
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = []
    for name in names:
        print(f"# {name}: {WHY[name]}")
        results.append(run_workload(name, args.seed, args.seconds,
                                    bool(args.trace), args.scale))
        show(results[-1])
    objects = {r["workload"]: driver_object(r) for r in results}
    print(json.dumps(objects[args.workload] if args.workload else objects))
    return 1 if any(r["problems"] for r in results) else 0


if __name__ == "__main__":
    raise SystemExit(main())
