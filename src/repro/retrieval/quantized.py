"""Symmetric int8 quantization kernels for the candidate shortlist tier.

The quantized tier trades nothing for its speed: candidates are scored
with an integer GEMM over an int8 copy of the vectors, cut to an
over-fetched shortlist, and the shortlist is then reranked against the
exact fp vectors through the same einsum kernels every other query path
uses — so final rankings are bit-identical to the unquantized path
whenever the shortlist contains the true top-k (the recall contract the
equivalence suite and its recall monitor pin).

Determinism is load-bearing, exactly as it is for the LSH hashing
kernels: the same vector must quantize to the same ``(int8 row, scale,
norm)`` no matter whether it arrived through a bulk build, an
incremental ``add``, or a reload — duplicate vectors (the repo's only
source of exact score ties) must stay byte-identical twins in the int8
domain too, so a tie-inclusive shortlist cut keeps or drops them
*together* and the exact rerank's key tie-break sees the same
membership the unquantized path would.  Every kernel here is therefore
elementwise or an exact integer reduction:

- per-vector scale ``max(|v|) / 127`` (elementwise abs + exact max),
- ``round(v / scale)`` clipped to [-127, 127] (elementwise),
- int8·int8 dot products accumulated exactly (every product and every
  partial sum is an integer far below 2**53, so float64 accumulation
  never rounds and the order cannot matter — see ``approx_scores``),
- the approximate cosine ``scale_i * dot_i / ‖v_i‖`` in float32
  elementwise ops (per-*query* constants — the query's own scale and
  norm — are dropped: they rescale every candidate identically and so
  cannot change the per-query order).

Accumulation bounds: one product is at most ``127 * 127``, so a dot
over ``dim`` terms stays below ``2**31`` for ``dim < 133000`` and below
``2**53`` for any conceivable dimensionality — far beyond anything
this repo produces.
"""

from __future__ import annotations

import numpy as np

#: Over-fetch multiplier: the shortlist keeps at least
#: ``k * OVERFETCH`` candidates for the exact rerank.
OVERFETCH = 4

#: Additive margin: the shortlist never drops below
#: ``k + MARGIN`` candidates, so small-``k`` queries are not starved of
#: rerank headroom (and corpora at or below the margin are reranked in
#: full, making quantized ≡ unquantized *unconditional* there).
MARGIN = 32


def shortlist_size(k: int) -> int:
    """How many candidates survive the integer prefilter for a top-``k``
    query: ``max(k * OVERFETCH, k + MARGIN)``."""
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    return max(k * OVERFETCH, k + MARGIN)


def quantize_rows(matrix: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Symmetric per-vector int8 quantization of an ``(N, dim)`` matrix:
    ``(q8, scales, norms)`` with ``q8[i] ≈ matrix[i] / scales[i]``.

    ``scales`` is ``max(|row|) / 127`` rounded to float32 — the *stored*
    float32 value is what the rows divide by, so dequantization uses
    exactly the persisted scale.  ``norms`` is the row's exact fp L2
    norm in float32, computed from the fp vectors at quantize time (the
    quantized cosine divides by the true candidate norm; only the
    query-side constants are dropped).  An all-zero row gets scale 0,
    an all-zero int8 row and norm 0 — its approximate score is 0 for
    every query, matching the exact path's zero-norm convention.

    Every step is elementwise (or an exact max reduction along the
    row), so bulk and single-row quantization are bit-identical — pass
    a single vector as a ``(1, dim)`` matrix.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValueError(f"expected an (N, dim) matrix, got {matrix.shape}")
    absmax = np.abs(matrix).max(axis=1) if matrix.shape[0] else \
        np.zeros(0, dtype=float)
    scales = (absmax / 127.0).astype(np.float32)
    # Divide by the float32 scale the archive will store (promoted back
    # to float64 elementwise), so a save/load round trip reproduces the
    # identical int8 rows.  Zero-scale rows divide by 1 and stay zero.
    divisor = np.where(scales > 0, scales, np.float32(1.0)).astype(float)
    q8 = np.clip(np.round(matrix / divisor[:, None]), -127, 127) \
        .astype(np.int8)
    norms = np.sqrt(np.einsum("nd,nd->n", matrix, matrix)) \
        .astype(np.float32)
    return q8, scales, norms


def approx_scores(q8: np.ndarray, scales: np.ndarray, norms: np.ndarray,
                  queries_q8: np.ndarray) -> np.ndarray:
    """Approximate cosine scores, shape ``(C, Q)``: int8 candidate rows
    against int8 query rows, accumulated exactly, dequantized by the
    candidate-side constants only.

    Per query, the true quantized cosine differs from this value by the
    constant factor ``query_scale / ‖query‖`` — identical for every
    candidate, so the per-query *order* (all the shortlist cut reads)
    is unaffected.

    The integer GEMM runs as a float64 BLAS matmul over the int8
    values.  Unlike the fp vector kernels (where BLAS blocking causes
    1-ulp drift, hence the repo-wide einsum discipline), this is exact
    *and* order-independent: every product and every partial sum is an
    integer below ``2**53``, exactly representable in float64, so no
    addition ever rounds and no blocking strategy can change the
    result.  float64 BLAS is also ~10x faster than numpy's unblocked
    int32 matmul — the whole point of scoring candidates in int8.
    Duplicate candidate rows therefore score bit-equal for every query
    no matter the batch shape.
    """
    dots = q8.astype(np.float64) @ queries_q8.astype(np.float64).T
    dots = dots.astype(np.int32)
    scaled = scales.astype(np.float32)[:, None] * dots.astype(np.float32)
    denom = norms.astype(np.float32)[:, None]
    return np.divide(scaled, denom, out=np.zeros_like(scaled),
                     where=denom != 0.0)


def tie_inclusive_cut(scores: np.ndarray, m: int) -> np.ndarray:
    """Boolean keep-mask for a shortlist of *at least* ``m`` of the
    highest ``scores``: every entry scoring at or above the m-th best
    value survives.

    Tie-inclusive on purpose: candidates with equal approximate scores
    — in particular byte-identical duplicate vectors, whose int8 rows
    and dequantization constants are equal by construction — are kept
    or dropped as a block, so the exact rerank's key tie-break works on
    the same membership the unquantized path would see.
    """
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    if len(scores) <= m:
        return np.ones(len(scores), dtype=bool)
    cutoff = np.partition(scores, len(scores) - m)[len(scores) - m]
    return scores >= cutoff
