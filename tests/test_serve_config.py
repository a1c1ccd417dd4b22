"""``ServeConfig``: every serve knob validated once, in one place.

The table below is the whole rule set — each bad value is refused at
construction with a line naming its field — so the server, the catalog
handle and the dispatcher need no checks of their own, and
``test_serve_knobs_live_once`` keeps it that way.  Nothing here boots a
server.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser
from repro.cli.serving import _serve_config
from repro.serve import ServeConfig

# (field, bad keywords, the flag wording the error line carries)
BAD = [
    ("max_batch", {"max_batch": 0}, "--max-batch must be at least 1"),
    ("max_batch", {"max_batch": -4}, "--max-batch must be at least 1"),
    ("max_wait_ms", {"max_wait_ms": -1.0}, "--max-wait-ms must be >= 0"),
    ("jobs", {"jobs": 0}, "--jobs must be positive"),
    ("max_backlog", {"max_backlog": 0}, "--max-backlog must be at least 1"),
    ("max_backlog", {"max_backlog": -1}, "--max-backlog must be at least 1"),
    ("cache_size", {"cache_size": -1}, "--cache-size must be >= 0"),
    ("cache_size", {"cache_size": True}, "--cache-size must be >= 0"),
    ("cache_size", {"cache_size": 2.5}, "--cache-size must be >= 0"),
    ("cache_ttl", {"cache_ttl": 0}, "--cache-ttl must be a positive"),
    ("cache_ttl", {"cache_ttl": -1.0}, "--cache-ttl must be a positive"),
    ("cache_ttl", {"cache_ttl": True}, "--cache-ttl must be a positive"),
    ("max_open", {"max_open": 0}, "--max-open must be at least 1"),
]


@pytest.mark.parametrize("field,kwargs,wording", BAD, ids=[
    ",".join(f"{key}={value}" for key, value in kwargs.items())
    for _field, kwargs, _wording in BAD])
def test_bad_value_is_refused_naming_its_field(field, kwargs, wording):
    with pytest.raises(ValueError) as excinfo:
        ServeConfig(**kwargs)
    message = str(excinfo.value)
    assert f"({field}=" in message
    assert wording in message
    assert len(message.splitlines()) == 1


def test_every_bad_field_is_reported_in_one_error():
    with pytest.raises(ValueError) as excinfo:
        ServeConfig(max_batch=0, jobs=0, cache_ttl=0, max_open=0,
                    max_backlog=0)
    lines = str(excinfo.value).splitlines()
    assert len(lines) == 5
    for field in ("max_batch", "jobs", "cache_ttl", "max_open",
                  "max_backlog"):
        assert sum(f"({field}=" in line for line in lines) == 1, field


def test_boundary_values_are_accepted():
    config = ServeConfig(max_batch=1, max_wait_ms=0, jobs=1, max_backlog=1,
                         cache_size=0, cache_ttl=0.5, max_open=1,
                         quantized=True)
    assert config.cache_size == 0 and config.quantized


def test_config_is_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        ServeConfig().max_batch = 0


def test_serve_flag_defaults_are_the_config_defaults():
    args = build_parser().parse_args(["serve", "x"])
    assert _serve_config(args) == ServeConfig()


#: The serve knobs only ServeConfig may take as parameters.
KNOBS = {"max_batch", "max_wait_ms", "max_backlog", "cache_size",
         "cache_ttl", "max_open"}


def _knob_parameters(tree: ast.AST) -> list[str]:
    """``function(param)`` for every def outside ``ServeConfig`` with a
    serve knob among its parameters."""
    found = []

    def visit(node):
        if isinstance(node, ast.ClassDef) and node.name == "ServeConfig":
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            names = {arg.arg for arg in (*args.posonlyargs, *args.args,
                                         *args.kwonlyargs)}
            found.extend(f"{node.name}({name})"
                         for name in sorted(names & KNOBS))
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return found


def test_serve_knobs_live_once():
    """The knobs travel as one ``ServeConfig`` from the CLI through the
    server and the catalog handle to the dispatcher: no function in
    those packages takes them one by one again."""
    package = Path(repro.__file__).parent
    offenders = [f"{path.relative_to(package)}: {found}"
                 for name in ("serve", "catalog", "cache")
                 for path in sorted((package / name).rglob("*.py"))
                 for found in _knob_parameters(ast.parse(path.read_text()))]
    assert offenders == []
