"""Cached queries through the real serving dispatcher, no server.

:func:`dispatch` is how the cache and cluster suites (and the oracle's
``cached`` mode) run a batch against a result cache: the very
:class:`~repro.serve.MicroBatchDispatcher` a server runs per index —
lookup at submit, one ``query_many`` per tick for the misses, store at
demux — on a private event loop, so what they pin is the code that
serves.
"""

import asyncio

import numpy as np

from repro.serve import MicroBatchDispatcher, ServeConfig

#: Ticks fire on the next loop iteration: a batch never waits.
NO_WAIT = ServeConfig(max_wait_ms=0)


def dispatch(engine, matrix, k, excludes=None, no_cache=False):
    """The served rankings of ``matrix``'s rows through a dispatcher
    with ``engine`` (a :class:`~repro.cache.CachedQueryEngine`)
    attached."""
    matrix = np.asarray(matrix, float)
    if excludes is None:
        excludes = [None] * len(matrix)

    async def run():
        dispatcher = MicroBatchDispatcher(engine.index, NO_WAIT,
                                          engine=engine)
        return await dispatcher.submit_many(matrix, k, excludes,
                                            no_cache=no_cache)

    return asyncio.run(run())
