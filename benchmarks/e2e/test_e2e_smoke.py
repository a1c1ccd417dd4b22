"""Smoke test of the end-to-end benchmark at ``--scale tiny``.

Checks shape and repeatability only — never a timing value: every
workload emits every metric ``BENCHMARK.json`` names, finite and with
its unit; quality and disk size are the same under every seed (fixed
corpora, fixed graded sample), the program's own counts repeat under
one seed and move under another; the span files are well formed; a
corrupted answer fails the run.
"""

from __future__ import annotations

import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import procs  # noqa: E402
import run  # noqa: E402
import verify  # noqa: E402

FIXED = ("recall_at_10", "map_at_10", "mrr_at_10", "disk_mb", "ok_share")
#: Counts the program makes that repeat exactly under one seed on the
#: one-connection tiny run (a second connection would let arrival
#: order, and so the cache's hit counts, vary).
EXACT_LAYERS = ("cache.exact_hit_share", "cache.semantic_hit_share",
                "cache.miss_share", "cache.evictions",
                "retrieval.lsh.candidates_per_query",
                "index.brute_fallback_share",
                "index.quantized.resident_ratio",
                "cluster.payload_bytes_per_row",
                "index.store.sequences_per_batch",
                "index.store.cache_hit_share")


@pytest.fixture(scope="module")
def results() -> dict:
    """Three traced tiny runs per workload — seed 0 twice, seed 1 once.
    ``seconds=0`` pins every run to the minimum number of rounds, so
    counters cover the same requests."""
    jobs = [(name, seed, repeat) for name in run.WORKLOADS
            for seed, repeat in ((0, "a"), (0, "b"), (1, "a"))]
    with ThreadPoolExecutor(max_workers=3) as pool:
        done = pool.map(lambda job: run.run_workload(
            job[0], job[1], 0, True, "tiny"), jobs)
        return dict(zip(jobs, done))


def test_benchmark_json_names_what_the_harness_reports():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(declared) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert declared["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in declared["end_to_end"]] == [
        entry[:4] for entry in metrics.END_TO_END]
    assert [(m["name"], m["unit"], m["better"])
            for m in declared["per_layer"]] == [
        entry[:3] for entry in metrics.PER_LAYER]
    assert "setup_s" in {m["name"] for m in declared["end_to_end"]}


def test_every_workload_emits_every_metric(results):
    for (name, _seed, _repeat), result in results.items():
        assert not result["problems"], (name, result["problems"])
        assert result["failed"] == 0 and result["attempted"] > 0
        assert result["opens"] >= 3
        for shown, declared in (
                (result["end_to_end"], metrics.END_TO_END),
                (run.driver_object(result)["metrics"], metrics.PER_LAYER)):
            assert list(shown) == [entry[0] for entry in declared]
        for group in ("end_to_end", "per_layer"):
            for metric, entry in metrics.as_metrics(result[group]).items():
                assert math.isfinite(entry["value"])
                assert entry["unit"] == metrics.UNITS[metric]
        assert all(value > 0 for value in result["end_to_end"].values()), name


def test_exact_metrics_repeat_and_counts_follow_the_seed(results):
    for name in run.WORKLOADS:
        first, again = results[name, 0, "a"], results[name, 0, "b"]
        other = results[name, 1, "a"]
        for metric in FIXED:
            assert (first["end_to_end"][metric] == again["end_to_end"][metric]
                    == other["end_to_end"][metric]), (name, metric)
        counts = [m for m in EXACT_LAYERS if m in first["per_layer"]]
        for metric in counts:
            assert first["per_layer"][metric] == again["per_layer"][metric], (
                name, metric)
        assert any(first["per_layer"][m] != other["per_layer"][m]
                   for m in counts), name


def test_span_files_are_well_formed(results):
    for name in run.WORKLOADS:
        spans = json.loads((run.OUT / f"trace-{name}.json").read_text())
        assert spans and not run.check_spans(spans)
        by_request: dict[str, set] = {}
        for span in spans:
            assert span["end"] >= span["start"] and span["self_s"] > -1e-9
            assert span["parent"] is None or 0 <= span["parent"] < len(spans)
            by_request.setdefault(span["request"], set()).add(span["name"])
        if name.startswith("serve"):
            # A replayed request carries the client's span and the
            # layer spans under one id.
            assert any({"client.request", "replay.request",
                        "index.query_many"} <= names
                       for names in by_request.values())
        assert "trace.overhead_share" in results[name, 0, "a"]["per_layer"]


def test_a_corrupted_answer_is_a_failure(monkeypatch, capsys):
    ranking = [(f"k{i:06d}", 1.0 - i / 100) for i in range(verify.K)]
    body = json.dumps({"hits": [{"key": key, "score": score, "meta": {}}
                                for key, score in ranking]}).encode()
    assert verify.parse_reply(200, body) == ranking
    assert verify.parse_reply(503, body) is None
    assert verify.parse_reply(200, body[:-9]) is None            # truncated
    swapped = [ranking[1], ranking[0]] + ranking[2:]             # misordered
    assert not verify.well_formed(swapped)
    assert not verify.well_formed(ranking[:-1])                  # k - 1 hits
    assert not verify.well_formed(ranking[:-1] + [ranking[0]])   # duplicate
    # Well formed but not the offline answer: caught by the sample check.
    wrong = ranking[:-1] + [("k999999", ranking[-1][1])]
    assert verify.count_mismatches([ranking, wrong], [ranking, ranking]) == 1

    # And a run whose served answers differ from the offline ones counts
    # them as failed and exits non-zero.
    call = procs.Worker.call

    def other_offline_answers(self, op, **kwargs):
        answer = call(self, op, **kwargs)
        if op == "offline_rankings":
            answer[0] = answer[0][:-1] + [("k000000", answer[0][-1][1])]
        return answer

    monkeypatch.setattr(procs.Worker, "call", other_offline_answers)
    assert run.main(["--workload", "serve_hot_20k", "--scale", "tiny",
                     "--seconds", "0"]) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] >= 1
    assert last["metrics"]["ok_share"]["value"] < 1.0
