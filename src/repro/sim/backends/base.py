"""The ``SimBackend`` protocol, registry, and the per-run dispatcher.

A backend executes barrier rounds for a scope.  The contract mirrors
:meth:`repro.sync.scope.BarrierScope.run_rounds`: given a scope, a round
count and the member ids, produce the :class:`~repro.sync.scope.ScopeRun`
trace *and* leave the scope in the same observable state the engine
would (advanced clock, counter op counts, released rounds) — so code
downstream of a simulation cannot tell which backend produced it.

Dispatch is by name:

* ``"engine"`` — always run the discrete-event engine.
* ``"analytic"`` — run the closed forms when the workload is eligible
  (see :meth:`SimBackend.ineligible_reason`); ineligible workloads fall
  back to the engine with a single warning per (scope type, reason).
* ``"auto"`` — analytic when eligible, engine otherwise, silently.

Unknown names raise, listing the valid set — the same loud-failure
contract as scenario overrides.
"""

from __future__ import annotations

import warnings
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Optional,
    Protocol,
    Sequence,
    Set,
    Tuple,
    runtime_checkable,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sync.scope import BarrierScope, ScopeRun

__all__ = [
    "BACKEND_KINDS",
    "BACKEND_CHOICES",
    "BACKENDS",
    "SimBackend",
    "dispatch",
    "get_backend",
    "register_backend",
    "reset_fallback_warnings",
    "resolve",
]

#: Concrete backend implementations, in preference order.
BACKEND_KINDS: Tuple[str, ...] = ("engine", "analytic")

#: Names the ``backend`` knob accepts (``auto`` = analytic when eligible).
BACKEND_CHOICES: Tuple[str, ...] = ("engine", "analytic", "auto")


@runtime_checkable
class SimBackend(Protocol):
    """Structural interface of one execution backend."""

    #: Registry name (``"engine"``, ``"analytic"``, ...).
    name: str

    def ineligible_reason(
        self, scope: "BarrierScope", n_syncs: int, members: Sequence[int]
    ) -> Optional[str]:
        """``None`` when this backend can run the workload exactly;
        otherwise a human-readable reason for the dispatcher's fallback."""
        ...

    def run_rounds(
        self,
        scope: "BarrierScope",
        n_syncs: int,
        members: Tuple[int, ...],
        collect_trace: bool = True,
    ) -> "ScopeRun":
        ...


BACKENDS: Dict[str, SimBackend] = {}


def register_backend(backend: SimBackend) -> SimBackend:
    """Add a backend to the registry (last registration of a name wins)."""
    BACKENDS[backend.name] = backend
    return backend


def get_backend(name: str) -> SimBackend:
    """Look up a concrete backend by name; unknown names fail loudly."""
    try:
        return BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; available: "
            f"{', '.join(BACKEND_CHOICES)}"
        ) from None


# One fallback warning per (scope type, reason) per process: a heat-map
# sweep that is ineligible for one structural reason should say so once,
# not once per cell.  Tests reset this via reset_fallback_warnings().
_FALLBACK_WARNED: Set[Tuple[str, str]] = set()


def reset_fallback_warnings() -> None:
    """Forget which fallback warnings were already emitted (test hook)."""
    _FALLBACK_WARNED.clear()


def resolve(
    choice: str, ineligible_reason: Callable[[], Optional[str]], subject: str
) -> str:
    """Name of the concrete backend that runs one workload under ``choice``.

    ``ineligible_reason`` is only consulted for ``analytic``/``auto``;
    ``subject`` names the workload in the once-per-(subject, reason)
    fallback warning that ``analytic`` emits.
    """
    if choice == "engine":
        return "engine"
    if choice not in BACKEND_CHOICES:
        raise ValueError(
            f"unknown backend {choice!r}; available: "
            f"{', '.join(BACKEND_CHOICES)}"
        )
    reason = ineligible_reason()
    if reason is None:
        return "analytic"
    if choice == "analytic":
        key = (subject, reason)
        if key not in _FALLBACK_WARNED:
            _FALLBACK_WARNED.add(key)
            warnings.warn(
                f"analytic backend cannot run {subject} "
                f"({reason}); falling back to the event-precise engine",
                RuntimeWarning,
                stacklevel=4,
            )
    return "engine"


def dispatch(
    scope: "BarrierScope",
    n_syncs: int,
    members: Tuple[int, ...],
    choice: str,
    collect_trace: bool = True,
) -> "ScopeRun":
    """Resolve a backend choice for one run and execute it.

    ``choice`` is a name from :data:`BACKEND_CHOICES` or a ready-made
    :class:`SimBackend` instance (runs unconditionally, no fallback).
    """
    if not isinstance(choice, str):
        return choice.run_rounds(scope, n_syncs, members, collect_trace)
    name = resolve(
        choice,
        lambda: BACKENDS["analytic"].ineligible_reason(scope, n_syncs, members),
        type(scope).__name__,
    )
    return BACKENDS[name].run_rounds(scope, n_syncs, members, collect_trace)
