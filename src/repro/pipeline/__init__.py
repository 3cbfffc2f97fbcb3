"""Staged dataplane: the batched trace-path pipeline.

The per-event reference loop, :meth:`repro.soc.loop.LoopDataplane.run`,
is re-expressed here as a chain of composable *stages*:

- :class:`~repro.pipeline.stage.Stage` — the protocol every stage
  implements (``process(batch) -> batch`` plus ``flush()``),
- :class:`~repro.pipeline.pipeline.Pipeline` — the assembler that
  slices the event stream into chunks, runs each chunk straight
  through the stages in order, and checks every chunk's integrity
  tag at each stage boundary,
- :mod:`~repro.pipeline.stages` — the concrete trace-path stages
  (PTM encode, TPIU framing, PTM-FIFO batching, IGM map+encode,
  delivery), rewritten to operate on numpy *batches* of events.

The batched stages are **behaviour-preserving**: every simulated
timestamp, byte count, and counter matches the per-event reference
loop bit-for-bit (``tests/test_golden_trace.py`` and
``tests/test_pipeline_equivalence.py`` pin this down), while the
vectorized internals run an order of magnitude faster on long traces.
"""

from repro.pipeline.batch import EventBatch, FifoFlush, TraceBatch
from repro.pipeline.pipeline import Pipeline, build_trace_pipeline
from repro.pipeline.stage import Stage, StageBase
from repro.pipeline.stages import (
    DeliverStage,
    IgmStage,
    PtmEncodeStage,
    PtmFifoStage,
    TpiuFrameStage,
)

__all__ = [
    "DeliverStage",
    "EventBatch",
    "FifoFlush",
    "IgmStage",
    "Pipeline",
    "PtmEncodeStage",
    "PtmFifoStage",
    "Stage",
    "StageBase",
    "TpiuFrameStage",
    "TraceBatch",
    "build_trace_pipeline",
]
