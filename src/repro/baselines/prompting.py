"""Chain-of-Table-style iterative prompting (the paper's future work).

Section 4.7 closes with: "Alternative methods of more advanced prompting
algorithms [72, 82] for complex tables could potentially enhance LLMs
performance.  This is one of the current directions of our further
research."  [82] is Chain-of-Table, which lets an LLM iteratively apply
table operations before answering.

This module implements that direction on top of the simulated LLMs: a
multi-round ranking loop where each round the "LLM" applies one focus
operation — restrict to metadata, restrict to values, restrict to
numeric shape — re-scores the surviving candidates, and prunes the pool.
Each round sees a *smaller, more focused* candidate set, which is
exactly the mechanism Chain-of-Table exploits; it measurably improves
the plain LLM's deep ranking (MAP) while keeping its top-1 behaviour.
"""

from __future__ import annotations

import re

import numpy as np

from .llm_rag import SimulatedLLM, TfidfIndex

_NUMBERY = re.compile(r"\d")


def _metadata_view(text: str) -> str:
    """Keep header-ish tokens: words, drop numbers and units-of-values."""
    return " ".join(t for t in text.split() if not _NUMBERY.search(t))


def _value_view(text: str) -> str:
    """Keep value-ish tokens: numbers and short tokens near them."""
    return " ".join(t for t in text.split() if _NUMBERY.search(t)) or text


def _shape_view(text: str) -> str:
    """A crude numeric-shape sketch: count of numbers, ranges, percents."""
    numbers = len(re.findall(r"\d+(?:\.\d+)?", text))
    ranges = len(re.findall(r"\d\s*-\s*\d", text))
    percents = text.count("%")
    return f"numbers{min(numbers, 9)} ranges{min(ranges, 9)} pct{min(percents, 9)}"


#: The operation chain, in application order.
OPERATIONS = (
    ("focus-metadata", _metadata_view),
    ("focus-values", _value_view),
    ("focus-shape", _shape_view),
)


class ChainOfTableLLM:
    """Iterative table-reasoning wrapper around a :class:`SimulatedLLM`.

    Parameters
    ----------
    llm:
        The base simulated model that scores candidates each round.
    keep_fraction:
        Fraction of the pool surviving each pruning round.
    min_pool:
        Stop pruning below this pool size.
    """

    def __init__(self, llm: SimulatedLLM, keep_fraction: float = 0.5,
                 min_pool: int = 8):
        if not 0.0 < keep_fraction <= 1.0:
            raise ValueError("keep_fraction must be in (0, 1]")
        self.llm = llm
        self.keep_fraction = keep_fraction
        self.min_pool = min_pool

    @property
    def name(self) -> str:
        return f"{self.llm.name}+CoT"

    def rank(self, query: str, candidates: list[str]) -> list[int]:
        """Rank via the operation chain; returns candidate indices.

        Pruned candidates are appended after the final pool in the order
        they were dropped (latest drops first — they survived longer).
        """
        pool = list(range(len(candidates)))
        dropped: list[int] = []
        scores = np.zeros(len(candidates))

        for _op_name, view in OPERATIONS:
            if len(pool) <= self.min_pool:
                break
            view_query = view(query)
            view_candidates = [view(candidates[i]) for i in pool]
            if not view_query.strip() or all(not v.strip() for v in view_candidates):
                continue
            index = TfidfIndex(
                [v if v.strip() else "empty" for v in view_candidates],
                char_ngrams=self.llm.profile.use_char_ngrams,
            )
            round_scores = index.scores(view_query)
            for local, global_idx in enumerate(pool):
                scores[global_idx] += round_scores[local]
            keep = max(int(len(pool) * self.keep_fraction), self.min_pool)
            order = np.argsort(-round_scores, kind="stable")
            survivors = [pool[i] for i in order[:keep]]
            dropped = [pool[i] for i in order[keep:]][::-1] + dropped
            pool = survivors

        # Final round: the base LLM ranks the focused pool verbatim.
        final_order = self.llm.rank(query, [candidates[i] for i in pool])
        ranked = [pool[i] for i in final_order]
        return ranked + dropped
