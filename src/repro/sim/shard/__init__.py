"""Sharded multi-timeline simulation with conservative lookahead.

Three execution modes, one observable timeline (DESIGN.md §8):

* ``shards=1`` — :class:`~repro.sim.engine.Simulator` construction is
  untouched: the plain single-timeline engine, byte-identical code path.
* **inline** (``REPRO_SIM_SHARDS=N`` in one process) —
  :class:`ShardedSimulator` runs N heap timelines under the
  deterministic ``(timestamp, shard)`` merge, pushing every cut-edge
  message through the real struct codec and lookahead assertions.  This
  is the verification mode the fig-scenario A/B suite runs.
* **multi-process** — :func:`run_partitioned` executes one worker
  process per shard under the conservative-window protocol
  (:mod:`repro.sim.shard.coordinator`), exchanging struct-packed cell
  batches and EOT null messages over pipes.

Select with ``REPRO_SIM_SHARDS=N`` (or
:func:`repro.sim.engine.set_shards` / ``use_shards``); partitioned
scenarios call :func:`run_partitioned` directly.
"""

from repro.sim.shard.channel import (
    BufferedChannel,
    Channel,
    DirectChannel,
    InletRegistry,
    InlineChannel,
    RemoteStub,
    decode_batch,
    decode_records,
    encode_batch,
    encode_cell,
    encode_train,
    stub_shard,
)
from repro.sim.shard.coordinator import ShardContext, run_partitioned
from repro.sim.shard.errors import (
    CrossShardAccessError,
    ShardCrashError,
    ShardError,
)
from repro.sim.shard.plan import CutEdge, ShardPlan, block_owner
from repro.sim.shard.sharded import ShardedSimulator

__all__ = [
    "BufferedChannel",
    "Channel",
    "CrossShardAccessError",
    "CutEdge",
    "DirectChannel",
    "InletRegistry",
    "InlineChannel",
    "RemoteStub",
    "ShardContext",
    "ShardCrashError",
    "ShardError",
    "ShardPlan",
    "ShardedSimulator",
    "block_owner",
    "decode_batch",
    "decode_records",
    "encode_batch",
    "encode_cell",
    "encode_train",
    "run_partitioned",
    "stub_shard",
]
