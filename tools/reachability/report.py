"""Classify every function under ``src/repro`` by what reaches it.

    python tools/reachability/report.py OUT_ROOT [--tests tier1] [--src src/repro]

``OUT_ROOT`` holds one sub-directory per run, each filled by the
``sitecustomize.py`` hook beside this file (``REPRO_REACH_DIR``).  The
run named by ``--tests`` is the test suite; every other run is a use
of the program.  Each ``def`` (methods and nested functions included)
lands in one class:

    used        -- some non-test run calls it
    tests only  -- only the test suite calls it
    nothing     -- no run calls it

Prints the per-class function and line counts, then one
``module | function | lines`` row per function in the last two classes.
"""

from __future__ import annotations

import argparse
import ast
from pathlib import Path


def functions(src: Path) -> dict:
    """``path:first-line:name`` -> (qualified name, lines) for every
    def; the first line is the first decorator's, as in ``co_firstlineno``."""
    found = {}

    def walk(node, path, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                qual = ".".join(scope + [child.name])
                found[f"{path}:{first}:{child.name}"] = (
                    qual, child.end_lineno - first + 1)
                walk(child, path, scope + [child.name])
            elif isinstance(child, ast.ClassDef):
                walk(child, path, scope + [child.name])
            else:
                walk(child, path, scope)

    for file in sorted(src.rglob("*.py")):
        path = file.relative_to(src).as_posix()
        walk(ast.parse(file.read_text()), path, [])
    return found


def reached(run: Path) -> set:
    keys = set()
    for dump in run.glob("*.txt"):
        keys.update(line for line in dump.read_text().splitlines() if line)
    return keys


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("out_root", type=Path)
    parser.add_argument("--tests", default="tier1")
    parser.add_argument("--src", type=Path,
                        default=Path(__file__).resolve().parents[2]
                        / "src" / "repro")
    args = parser.parse_args()

    defs = functions(args.src)
    runs = {run.name: reached(run)
            for run in sorted(args.out_root.iterdir()) if run.is_dir()}
    tests = runs.pop(args.tests)
    used = set().union(*runs.values())
    classes = {"used": [], "tests only": [], "nothing": []}
    for key in defs:
        name = ("used" if key in used
                else "tests only" if key in tests else "nothing")
        classes[name].append(key)

    print(f"runs: {args.tests} (tests), " + ", ".join(runs))
    print("\n| class | functions | lines |\n| --- | ---: | ---: |")
    for name, keys in classes.items():
        print(f"| {name} | {len(keys)} | "
              f"{sum(defs[key][1] for key in keys)} |")
    for name in ("nothing", "tests only"):
        print(f"\n## {name}\n\n| module | function | lines |\n| --- | --- | ---: |")
        for key in sorted(classes[name]):
            qual, lines = defs[key]
            print(f"| {key.split(':')[0]} | `{qual}` | {lines} |")


if __name__ == "__main__":
    main()
