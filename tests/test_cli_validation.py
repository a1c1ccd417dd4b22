"""Every count-flag exit-2 path in one parametrized table.

The positivity checks for ``--jobs``/``--workers``/``--shards``/``-k``
and friends used to be copy-pasted per subcommand; they now flow
through one ``_validate_counts`` helper in ``repro.cli``, so a new
flag (like ``serve --workers``) cannot drift in wording or exit code.
This table is the contract: flag, subcommand, message — all covered in
one place, including the several-bad-flags-at-once behaviour (every
message prints, one exit)."""

from __future__ import annotations

import pytest

from repro.cli import main

# Each case: (argv, expected stderr fragment).  Paths that do not
# exist are fine — count validation runs before any target is opened.
CASES = [
    # index build
    (["index", "build", "webtables", "--out", "x", "--workers", "0"],
     "--workers must be positive"),
    (["index", "build", "webtables", "--out", "x", "--workers", "-3"],
     "--workers must be positive"),
    (["index", "build", "webtables", "--out", "x", "--shards", "0"],
     "--shards must be at least 1"),
    (["index", "build", "webtables", "--out", "x", "--batch-size", "0"],
     "--batch-size must be at least 1"),
    # evaluate
    (["evaluate", "webtables", "--k", "0"], "-k/--k must be at least 1"),
    (["evaluate", "webtables", "--max-queries", "0"],
     "--max-queries must be at least 1"),
    # index query
    (["index", "query", "webtables", "--index", "x", "--k", "0"],
     "-k/--k must be at least 1"),
    (["index", "query", "webtables", "--index", "x", "--k", "-1"],
     "-k/--k must be at least 1"),
    (["index", "query", "webtables", "--index", "x", "--jobs", "0"],
     "--jobs must be positive"),
    (["index", "query", "webtables", "--index", "x", "--chunk", "0"],
     "--chunk must be at least 1"),
    # serve
    (["serve", "x", "--workers", "0"], "--workers must be positive"),
    (["serve", "x", "--workers", "-2"], "--workers must be positive"),
    (["serve", "x", "--jobs", "0"], "--jobs must be positive"),
    (["serve", "x", "--max-batch", "0"], "--max-batch must be at least 1"),
    (["serve", "x", "--max-open", "0"], "--max-open must be at least 1"),
    (["serve", "x", "--max-backlog", "0"],
     "--max-backlog must be at least 1"),
    (["serve", "x", "--quantized", "--overfetch", "0"],
     "--overfetch must be at least 1"),
    (["serve", "x", "--quantized", "--overfetch", "-2"],
     "--overfetch must be at least 1"),
    (["serve", "x", "--quantized", "--margin", "-1"],
     "--margin must be at least 0"),
]


@pytest.mark.parametrize("argv,fragment", CASES,
                         ids=[" ".join(argv) for argv, _ in CASES])
def test_count_flag_rejected_with_exit_2(argv, fragment, capsys):
    assert main(argv) == 2
    assert fragment in capsys.readouterr().err


def test_all_bad_flags_reported_in_one_pass(capsys):
    """Several bad counts on one command line: every message prints
    (an operator fixes them all in one edit), still one exit 2."""
    assert main(["serve", "x", "--workers", "0", "--jobs", "0",
                 "--max-batch", "0"]) == 2
    err = capsys.readouterr().err
    assert "--workers must be positive" in err
    assert "--jobs must be positive" in err
    assert "--max-batch must be at least 1" in err


def test_margin_zero_is_valid(tmp_path, capsys):
    """--margin floors at 0, not 1 (no extra shortlist slack is a
    legitimate setting): validation passes and the command fails later
    on the missing target, not the flag."""
    assert main(["serve", str(tmp_path / "missing.npz"),
                 "--quantized", "--margin", "0"]) == 2
    err = capsys.readouterr().err
    assert "--margin" not in err


def test_overfetch_without_quantized_is_rejected(capsys):
    assert main(["serve", "x", "--overfetch", "2"]) == 2
    assert "require --quantized" in capsys.readouterr().err


def test_valid_counts_pass_validation(tmp_path, capsys):
    """A positive count sails through validation and fails later (or
    not at all) for target reasons, proving the helper only rejects
    what it should — here the missing index path, not the flags."""
    assert main(["serve", str(tmp_path / "missing.npz"),
                 "--workers", "2", "--jobs", "1",
                 "--max-batch", "4"]) == 2
    err = capsys.readouterr().err
    assert "must be" not in err
    assert "no index" in err or "missing" in err
