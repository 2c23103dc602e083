"""Simulation execution backends behind one dispatcher.

A :class:`~repro.sim.backends.base.SimBackend` turns a barrier scope and
a round count into a :class:`~repro.sync.scope.ScopeRun`.  Two
implementations ship:

* ``engine`` — the event-precise discrete-event engine (the default;
  byte-identical to the pre-backend pipeline), and
* ``analytic`` — numpy-vectorized closed forms for uniform barrier
  ladders and the SM-level sync models, bit-identical to the engine
  wherever it is eligible.

Dispatch rules, the eligibility matrix and the closed-form derivations
are documented in ``docs/backends.md``.
"""

from repro.sim.backends.analytic import AnalyticBackend
from repro.sim.backends.base import (
    BACKEND_CHOICES,
    BACKEND_KINDS,
    BACKENDS,
    SimBackend,
    dispatch,
    get_backend,
    register_backend,
    reset_fallback_warnings,
    resolve,
)
from repro.sim.backends.engine import EngineBackend

__all__ = [
    "BACKEND_CHOICES",
    "BACKEND_KINDS",
    "BACKENDS",
    "SimBackend",
    "EngineBackend",
    "AnalyticBackend",
    "dispatch",
    "get_backend",
    "register_backend",
    "reset_fallback_warnings",
    "resolve",
]
