"""The paper-bench records stay in step with the benches.

``EXPERIMENTS.md`` judges every paper table against its claim, one row
per ``benchmarks/bench_table*.py`` / ``bench_ext_*.py`` file, and CI
names every ``benchmarks/bench_*.py``.  A bench added or deleted without
its row or its CI line fails here.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _shape_table_benches() -> list[str]:
    text = (ROOT / "EXPERIMENTS.md").read_text()
    section = text.split("## Does the paper's shape hold?", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.findall(r"^\| `(bench_\w+)` \|", section, flags=re.MULTILINE)


def test_records_name_every_bench_once():
    benches = ROOT / "benchmarks"
    table_benches = sorted(path.stem for pattern in ("bench_table*.py",
                                                     "bench_ext_*.py")
                           for path in benches.glob(pattern))
    rows = _shape_table_benches()
    assert sorted(rows) == table_benches, (
        "EXPERIMENTS.md's shape table and the paper benches differ")

    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    in_ci = sorted(set(re.findall(r"benchmarks/(bench_\w+)\.py", ci)))
    assert in_ci == sorted(path.stem
                           for path in benches.glob("bench_*.py")), (
        "ci.yml's bench lines and benchmarks/bench_*.py differ")
