"""Cached queries through the real serving dispatcher, no server.

:func:`dispatch` is how the cache and cluster suites (and the oracle's
``cached`` mode) run a batch against a result cache: the very
:class:`~repro.serve.MicroBatchDispatcher` a server runs per index —
lookup at submit, one ``query_many`` per tick for the misses, store at
demux — on a private event loop, so what they pin is the code that
serves.  One dispatcher (from :func:`cached`) keeps its cache across
:func:`dispatch` calls.
"""

import asyncio
from dataclasses import replace

import numpy as np

from repro.serve import MicroBatchDispatcher, ServeConfig

#: Ticks fire on the next loop iteration: a batch never waits.
NO_WAIT = ServeConfig(max_wait_ms=0)


def cached(index, cache_size):
    """A never-waiting dispatcher over ``index`` whose result cache
    holds ``cache_size`` entries."""
    return MicroBatchDispatcher(index, replace(NO_WAIT,
                                               cache_size=cache_size))


def dispatch(dispatcher, matrix, k, excludes=None, no_cache=False):
    """The served rankings of ``matrix``'s rows through ``dispatcher``;
    its ticks are drained before this returns."""
    matrix = np.asarray(matrix, float)
    if excludes is None:
        excludes = [None] * len(matrix)

    async def run():
        try:
            return await dispatcher.submit_many(matrix, k, excludes,
                                                no_cache=no_cache)
        finally:
            await dispatcher.drain()

    return asyncio.run(run())
