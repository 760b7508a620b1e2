"""repro.cluster — sharded, async multi-process analysis service.

An asyncio frontend multiplexes JSON-lines client connections onto a
pool of analysis worker processes over length-prefixed framed links; a
consistent-hash ring pins program names to workers (warm caches stay
local, worker death reshards minimally), and one shared
:class:`~repro.util.store.BlobStore` directory lets cold workers
warm-start from their siblings' persisted query results. See
:mod:`repro.cluster.frontend` for the full protocol and
failure-handling story.
"""

from repro.cluster.frontend import ClusterConfig, ClusterServer, render_stats
from repro.cluster.protocol import (
    MAX_FRAME,
    FrameDecodeError,
    ProtocolError,
    frame_bytes,
    read_frame,
    recv_frame,
    send_frame,
)
from repro.cluster.router import HashRing, routing_key
from repro.cluster.worker import (
    WorkerLoop,
    run_worker,
    spawn_worker,
    worker_main,
)

__all__ = [
    "MAX_FRAME",
    "ClusterConfig",
    "ClusterServer",
    "FrameDecodeError",
    "HashRing",
    "ProtocolError",
    "WorkerLoop",
    "frame_bytes",
    "read_frame",
    "recv_frame",
    "render_stats",
    "routing_key",
    "run_worker",
    "send_frame",
    "spawn_worker",
    "worker_main",
]
