"""Distributed shard tier: scatter-gather retrieval across machines.

The horizontal path past one box's ~600 QPS ceiling: shard servers
(:mod:`repro.cluster.shard_server`) each hold a slice of the corpus
and expose the per-shard half of the fan-out contract
(``POST /partial_query`` / ``POST /brute_query`` — candidate counts
plus partial rankings) over the transport the retrieval server runs on
(:mod:`repro.serve.transport`), and a coordinator
(:class:`RemoteShardedIndex`, :mod:`repro.cluster.coordinator`)
scatters each micro-batch tick to every server concurrently and hands
the replies to the very same
:func:`~repro.index.index.gather_top_k` a local
:class:`~repro.index.sharded.ShardedIndex` uses — the brute-force
fallback is decided on the **global** candidate total and the merge is
the local merge, so distributed rankings are bit-identical to local
ones by construction (property-tested in ``tests/cluster/``).

The coordinator is an :class:`~repro.index.index.IndexSurface` like
both local layouts, so the serving stack composes unchanged:
micro-batching dispatcher, result cache
(invalidated by generations propagated from the shard servers),
catalog wrapping, graceful drain.  Boot a cluster with ``repro
serve-shard`` per shard box plus ``repro serve --cluster
topology.json`` on the coordinator, or in-process with
:class:`ClusterHarness`.
"""

from .coordinator import RemoteShard, RemoteShardedIndex
from .errors import (
    ClusterError,
    ShardProtocolError,
    ShardUnavailable,
    TopologyError,
)
from .harness import ClusterHarness, split_layout
from .shard_server import ShardServer, ShardServerThread
from .topology import ShardAddress, Topology

__all__ = [
    "RemoteShardedIndex", "RemoteShard",
    "ShardServer", "ShardServerThread",
    "Topology", "ShardAddress",
    "ClusterHarness", "split_layout",
    "ClusterError", "ShardUnavailable", "ShardProtocolError",
    "TopologyError",
]
