"""The verdicts of ``benchmarks/pair.py`` over hand-made pairs, and its
``--bench`` session over a stand-in bench."""

import importlib.util
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "pair.py"
spec = importlib.util.spec_from_file_location("pair", PATH)
pair = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pair)

LOWER = {"name": "p95_ms", "unit": "ms", "better": "lower", "bound": 0.25}
HIGHER = {"name": "qps", "unit": "1/s", "better": "higher", "bound": 0.25}
PARENT = [10.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.3, 9.7, 10.0]


@pytest.mark.parametrize("metric, change, expected, wins", [
    (LOWER, [x * 0.7 for x in PARENT], "better beyond the parent's IQR", 10),
    (HIGHER, [x * 1.3 for x in PARENT], "better beyond the parent's IQR",
     10),
    (LOWER, list(PARENT), "within bound", 0),
    (LOWER, [x * 1.1 for x in PARENT], "within bound", 0),
    (LOWER, [x * 1.5 for x in PARENT], "worse beyond bound", 0),
    (HIGHER, [x * 0.5 for x in PARENT], "worse beyond bound", 0),
    # Worse beyond the bound on the median, but the parent won only
    # 6 of the 10 pairs.
    (LOWER, [x * 1.5 for x in PARENT[:6]] + [x * 0.9 for x in PARENT[6:]],
     "unresolved", 4),
], ids=["lower-better", "higher-better", "identical", "worse-within-bound",
        "lower-worse", "higher-worse", "inconsistently-worse"])
def test_verdict(metric, change, expected, wins):
    row = pair.verdict(metric, PARENT, change)
    assert (row["verdict"], row["wins"]) == (expected, wins)


def test_parent_spread_wider_than_the_bound_is_unresolved():
    parent = [1.0, 2.0, 1.0, 2.0, 1.5, 1.5, 1.0, 2.0]   # IQR 1.0 of 1.5
    row = pair.verdict(LOWER, parent, [x * 1.05 for x in parent])
    assert row["verdict"] == "unresolved"


def test_a_single_pair_has_no_spread():
    row = pair.verdict(LOWER, [4.0], [6.0])
    assert row["parent"] == (4.0, 4.0, 4.0)
    assert row["verdict"] == "worse beyond bound"


BENCH = """
from pathlib import Path

def test_writes_a_table():
    Path("results/table.md").write_text("| model | MAP |\\n| a | 0.50 |\\n")
    Path("results/kept.md").write_text("kept")
"""


def test_a_bench_session_reports_the_files_it_wrote(tmp_path):
    (tmp_path / "results").mkdir()
    (tmp_path / "results" / "kept.md").write_text("kept")
    (tmp_path / "bench_stand_in.py").write_text(BENCH)
    wall, passed, written = pair.run_bench(tmp_path, ["bench_stand_in.py"])
    assert passed and wall > 0
    # kept.md was rewritten with the same text: nothing to compare.
    assert written == {"table.md": "| model | MAP |\n| a | 0.50 |\n"}


def test_a_failing_bench_session_is_reported(tmp_path):
    (tmp_path / "bench_stand_in.py").write_text(
        "def test_fails():\n    assert False\n")
    _wall, passed, written = pair.run_bench(tmp_path, ["bench_stand_in.py"])
    assert not passed and written == {}


def test_compare_results_diffs_what_differs():
    parent = {"same.md": "x\n", "moved.md": "| a | 0.50 |\n", "old.md": ""}
    change = {"same.md": "x\n", "moved.md": "| a | 0.51 |\n", "new.md": ""}
    assert pair.compare_results(parent, change) == [
        "results/moved.md  differs:",
        "  --- parent/results/moved.md",
        "  +++ change/results/moved.md",
        "  @@ -1 +1 @@",
        "  -| a | 0.50 |",
        "  +| a | 0.51 |",
        "results/new.md  written by the change only",
        "results/old.md  written by the parent only",
        "results/same.md  identical",
    ]
