"""The trace-frontend contract: what a branch-trace grammar provides.

The paper's pipeline (branch trace -> IGM vectors -> ML-MIAOW
inference) is ISA-agnostic: nothing downstream of the trace port cares
*which* grammar compressed the branch stream, only how many bytes each
event produced (FIFO timing) and which targets were taken (IGM
mapping).  A :class:`TraceFrontend` packages everything that *is*
grammar-specific behind one object:

- ``create_driver`` — the kernel-driver-style encoder facade
  (enable/disable lifecycle, per-event ``trace``, ``flush``,
  ``set_context_id``, checkpoint export/restore).
- ``build_encode_stages`` — the batched-dataplane stages that model
  the encoder + link framer at the byte-accounting level
  (:class:`repro.pipeline.stages.PtmEncodeStage` and friends).
- ``new_deframer`` / ``new_decoder`` — receiver-side factories, with
  ``resync_hunt`` fault recovery for the chaos harness.
- Counter-namespace metadata so observability surfaces (``repro.eval
  metrics``) can enumerate a frontend's resync/truncation counters
  without knowing the grammar.

See ``docs/FRONTENDS.md`` for the full contract, including the driver
protocol and the resync semantics each implementation must honour.
"""

from __future__ import annotations

import abc
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Protocol,
    Tuple,
    runtime_checkable,
)

from repro.errors import SocConfigError
from repro.obs import MetricsRegistry
from repro.workloads.cfg import BranchEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pipeline.stage import Stage


@runtime_checkable
class TraceDriver(Protocol):
    """What every frontend's encoder driver must expose.

    The session lifecycle is explicit: a freshly created driver is
    *disabled* and refuses to trace; ``enable`` powers up a fresh
    encoder + link framer, ``disable`` tears them down.  Callers that
    own sessions (:class:`repro.soc.loop.LoopDataplane`) enable at
    session start, so a frontend is never traced before the session
    begins.
    """

    enabled: bool

    def enable(self) -> None: ...
    def disable(self) -> None: ...
    def set_context_id(self, context_id: int) -> None: ...
    def trace(self, event: BranchEvent) -> bytes: ...
    def flush(self) -> bytes: ...
    def trace_all(self, events: Iterable[BranchEvent]) -> bytes: ...
    def export_state(self) -> dict: ...
    def restore_state(self, state: dict) -> None: ...


class TraceFrontend(abc.ABC):
    """One branch-trace grammar: encoder, link layer, and receivers."""

    #: Registry key (``RtadConfig.frontend`` selector value).
    name: str = "abstract"
    #: Prefix of the encoder-side observability counters
    #: (``ptm.*``/``tpiu.*`` for CoreSight, ``etrace.*`` for E-Trace).
    counter_namespace: str = ""
    #: Receiver-side resync/loss counters this grammar maintains,
    #: surfaced by ``repro.eval metrics`` robustness tables.
    decoder_counters: Tuple[str, ...] = ()
    deframer_counters: Tuple[str, ...] = ()

    @abc.abstractmethod
    def create_driver(
        self, metrics: Optional[MetricsRegistry] = None
    ) -> TraceDriver:
        """Build the (disabled) encoder driver for one trace session
        owner.  Configuration objects are shared with the stages built
        by :meth:`build_encode_stages`, so control-plane changes (e.g.
        ``set_context_id``) are visible to both dataplanes."""

    @abc.abstractmethod
    def build_encode_stages(
        self, metrics: Optional[MetricsRegistry] = None
    ) -> List["Stage"]:
        """Batched-dataplane stages modelling encoder + link framer.

        Returned in pipeline order; the assembler appends the shared
        grammar-neutral FIFO/IGM/deliver stages after them.  Byte
        counts must match the driver produced by :meth:`create_driver`
        bit-for-bit (the dataplane-equivalence tests pin this).
        """

    @abc.abstractmethod
    def new_deframer(
        self,
        resync_hunt: bool = False,
        metrics: Optional[MetricsRegistry] = None,
    ):
        """Link-layer receiver: framed stream -> trace packet bytes."""

    @abc.abstractmethod
    def new_decoder(
        self,
        strict: bool = True,
        resync_hunt: bool = False,
        metrics: Optional[MetricsRegistry] = None,
    ):
        """Packet-grammar receiver: trace bytes -> decoded packets."""


_REGISTRY: Dict[str, Callable[[], TraceFrontend]] = {}


def register_frontend(
    name: str, factory: Callable[[], TraceFrontend]
) -> None:
    """Register a frontend factory under ``name`` (last one wins)."""
    _REGISTRY[name] = factory


def frontend_names() -> Tuple[str, ...]:
    """The selectable frontend names (``RtadConfig.frontend`` values)."""
    _ensure_builtins()
    return tuple(sorted(_REGISTRY))


def get_frontend(name: str, **kwargs) -> TraceFrontend:
    """Instantiate a registered frontend by name.

    ``kwargs`` are forwarded to the frontend constructor, so callers
    can pass grammar-specific configuration (``ptm_config=...`` for
    CoreSight, ``etrace_config=...`` for E-Trace).
    """
    _ensure_builtins()
    factory = _REGISTRY.get(name)
    if factory is None:
        raise SocConfigError(
            f"unknown trace frontend {name!r} "
            f"(have: {', '.join(sorted(_REGISTRY))})"
        )
    return factory(**kwargs)  # type: ignore[call-arg]


def make_frontend(
    name: str, ptm_config=None, **kwargs
) -> TraceFrontend:
    """Resolve a frontend selector plus optional legacy PTM config.

    ``Deployment.ptm_config`` predates the frontend interface; it only
    makes sense for the CoreSight grammar, so passing it alongside any
    other frontend is a configuration error rather than a silent drop.
    """
    if ptm_config is not None:
        if name != "coresight":
            raise SocConfigError(
                f"ptm_config is CoreSight-specific (frontend={name!r})"
            )
        return get_frontend(name, ptm_config=ptm_config, **kwargs)
    return get_frontend(name, **kwargs)


def _ensure_builtins() -> None:
    """Late-register the built-in frontends (avoids import cycles)."""
    if "coresight" not in _REGISTRY:
        from repro.frontends.coresight import CoreSightFrontend

        _REGISTRY.setdefault("coresight", CoreSightFrontend)
    if "etrace" not in _REGISTRY:
        from repro.frontends.etrace import EtraceFrontend

        _REGISTRY.setdefault("etrace", EtraceFrontend)
