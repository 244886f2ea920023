"""Engine selection: route a (protocol, topology, model) onto the
fastest engine that simulates it, and say which law each route samples.

The repo grew one engine per execution model (synchronous rounds,
sequential ticks, Poisson clocks) plus counts-level fast paths that are
only valid on ``K_n``.  :func:`fastest_engine` encodes the routing
table so benchmarks, the CLI and library users pick up new fast paths
automatically instead of hard-coding engine classes:

==================  =======================  ===============================
model               on ``K_n``               elsewhere / with delays
==================  =======================  ===============================
``"synchronous"``   CountsEngine (counts     SynchronousEngine
                    protocols) else
                    SynchronousEngine
``"sequential"``    CountsSequentialEngine   footprint protocols: Sparse-
                    when the protocol has a  SequentialEngine from
                    counts-level tick law    ``n >= 30_000``, the zip-apply
                                             SequentialEngine below (see the
                                             crossover note); else
                                             SequentialEngine
``"continuous"``    CountsContinuousEngine   zero-delay: SparseContinuous-
                    when zero-delay and a    Engine when a tick footprint is
                    counts-level tick law    declared, else ContinuousEngine;
                                             a real delay model always forces
                                             ContinuousEngine
==================  =======================  ===============================

Crossover note (sequential model, off ``K_n``)
    The hazard-batched sparse engine amortises its per-block scan work
    over ``~sqrt(n)``-wide chunks, so it wins for large ``n`` (1.4x at
    ``n = 10^5`` on a torus) but *loses* to the fixed-batch zip-apply
    hooks path in the mixed phase at ``n ~ 10^4`` (0.77x, BENCH_sparse)
    — blocks are too short to amortise.  ``fastest_engine`` therefore
    routes by size: :data:`SPARSE_SEQUENTIAL_CROSSOVER` (30k nodes) and
    up go to the sparse engine, below stays on
    :class:`~repro.engine.sequential.SequentialEngine`.  A compiled
    tick kernel (``REPRO_KERNEL`` — :mod:`repro.core.hazard_kernel`)
    accelerates *both* routes through the shared
    :func:`~repro.core.hazard.apply_hazard_free` entry point, and both
    engines remain law-exact, so the crossover only tunes the numpy
    fallback's constant factors.  The continuous model keeps the sparse
    engine at every ``n``: its alternative is the per-event queue of
    :class:`~repro.engine.continuous.ContinuousEngine`, which is slower
    at any size.

When *n_reps* asks for more than one replication, the counts-level
rows of the table are additionally lifted to their ensemble twins
(:mod:`repro.engine.ensemble`), which advance all replications per
numpy batch and expose ``run_ensemble`` instead of ``run``; rows with
no exact ensemble form return the single-run engine and the caller
loops (see :func:`repro.engine.ensemble.run_replicated`).

Law sampled by each route:

* ``CountsEngine`` and its ensemble twin sample the exact round chain.
* The counts tick engines (``CountsSequentialEngine``,
  ``CountsContinuousEngine`` and their ensemble twins) resolve a batch
  size ``B = max(1, round(n / 256))``.  For ``B = 1``, i.e.
  ``n <= 383``, they run the **scalar exact one-tick chain**: one
  pure-Python tick at a time through the protocol's ``tick_rule``,
  law-exact.  Above that they are a frozen-rate tau-leap over batches
  of ``B`` ticks with ``O(B / n)`` relative error (DESIGN.md section
  2.1).

An ensemble twin samples each replication from the same law as its
single-run engine (see :mod:`repro.engine.ensemble`).
"""

from __future__ import annotations

from typing import Optional, Union

from ..core.exceptions import ConfigurationError
from ..graphs.topology import DynamicTopology, Topology
from ..protocols.base import (
    CountsProtocol,
    EnsembleCountsProtocol,
    SequentialCountsProtocol,
    SequentialProtocol,
    SynchronousProtocol,
)
from .continuous import ContinuousEngine
from .counts import CountsEngine
from .counts_async import CountsContinuousEngine, CountsSequentialEngine
from .delays import DelayModel
from .ensemble import (
    EnsembleCountsContinuousEngine,
    EnsembleCountsEngine,
    EnsembleCountsSequentialEngine,
)
from .sequential import SequentialEngine
from .sparse_async import SparseContinuousEngine, SparseSequentialEngine
from .synchronous import SynchronousEngine

__all__ = ["fastest_engine", "SPARSE_SEQUENTIAL_CROSSOVER"]

AnyProtocol = Union[SynchronousProtocol, CountsProtocol, SequentialProtocol, SequentialCountsProtocol]

#: node count from which the hazard-batched sparse engine beats the
#: zip-apply hooks path in the sequential model (see the crossover note
#: above; calibrated by benchmarks/bench_sparse.py's mixed-phase rows).
SPARSE_SEQUENTIAL_CROSSOVER = 30_000


def fastest_engine(
    protocol: AnyProtocol,
    topology: Topology,
    model: str = "sequential",
    delay_model: Optional[DelayModel] = None,
    n_reps: int = 1,
):
    """Build the fastest engine for *protocol* on *topology*.

    The counts tick routes run the scalar exact one-tick chain for
    ``n <= 383`` and a frozen-rate tau-leap above (see the module
    docstring).

    Parameters
    ----------
    protocol:
        Any protocol object of the four interface families.
    topology:
        Where the protocol runs; counts-level fast paths require
        ``topology.is_complete()``.
    model:
        ``"sequential"`` (tick-based asynchronous, the default),
        ``"continuous"`` (Poisson clocks) or ``"synchronous"``
        (round-based).
    delay_model:
        Response delays for the continuous model; a non-zero delay
        model forces the event-queue engine.
    n_reps:
        How many independent replications the caller wants.  With
        ``n_reps > 1`` the counts-level routes return the
        ensemble-vectorised engines (``run_ensemble`` instead of
        ``run``) when an exact ensemble form exists; otherwise the
        single-run engine is returned and the caller loops — use
        :func:`repro.engine.ensemble.run_replicated` to not care which.

    Returns
    -------
    An engine instance whose ``run(initial, ..., seed=...)`` (or
    ``run_ensemble(initial, n_reps, ..., seed=...)``) draws each
    replication from the law listed for its route in the module
    docstring.
    Counts-level engines require a
    :class:`~repro.core.colors.ColorConfiguration` initial state.
    """
    if n_reps < 1:
        raise ConfigurationError(f"n_reps must be positive, got {n_reps}")
    if isinstance(topology, DynamicTopology) and model != "sequential":
        # The epoch clock is defined in sequential ticks; neither the
        # round-based nor the Poisson-clock engines cut their work at
        # epoch boundaries, so routing them would silently break the
        # constant-graph-per-block exactness contract.
        raise ConfigurationError(
            f"dynamic topologies advance on a tick-epoch clock; the {model!r} "
            "model is not supported (use model='sequential')"
        )
    ensemble = n_reps > 1
    on_complete = topology.is_complete()

    if model == "synchronous":
        if delay_model is not None and not delay_model.is_zero():
            raise ConfigurationError("delay models only apply to the continuous model")
        if isinstance(protocol, CountsProtocol):
            if not on_complete:
                raise ConfigurationError(f"{protocol.name} is counts-level and needs K_n")
            if ensemble and isinstance(protocol, EnsembleCountsProtocol):
                return EnsembleCountsEngine(protocol)
            return CountsEngine(protocol)
        if isinstance(protocol, SynchronousProtocol):
            return SynchronousEngine(protocol, topology)
        raise ConfigurationError(f"{protocol.name} does not implement the synchronous model")

    if model not in ("sequential", "continuous"):
        raise ConfigurationError(
            f"unknown model {model!r}; expected 'sequential', 'continuous' or 'synchronous'"
        )

    zero_delay = delay_model is None or delay_model.is_zero()
    if model == "sequential" and not zero_delay:
        raise ConfigurationError("response delays require the continuous model")
    if ensemble:
        counts_engine = (
            EnsembleCountsSequentialEngine if model == "sequential" else EnsembleCountsContinuousEngine
        )
    else:
        counts_engine = CountsSequentialEngine if model == "sequential" else CountsContinuousEngine

    if isinstance(protocol, SequentialCountsProtocol):
        if not on_complete:
            raise ConfigurationError(f"{protocol.name} is counts-level and needs K_n")
        if not zero_delay:
            raise ConfigurationError("counts-level tick protocols cannot simulate response delays")
        return counts_engine(protocol)

    if not isinstance(protocol, SequentialProtocol):
        raise ConfigurationError(f"{protocol.name} does not implement the {model} model")

    if zero_delay and on_complete:
        companion = protocol.as_sequential_counts()
        if companion is not None:
            return counts_engine(companion)

    footprint = protocol.tick_footprint
    if zero_delay and not on_complete and footprint is not None and footprint.writes_self_only:
        # Off K_n with presampleable self-writing ticks: the hazard-
        # batched engines (law-exact, see repro.engine.sparse_async).
        # They have no ensemble form; run_replicated reuses their
        # scratch buffers across replications.
        if model == "continuous":
            return SparseContinuousEngine(protocol, topology)
        if topology.n >= SPARSE_SEQUENTIAL_CROSSOVER:
            return SparseSequentialEngine(protocol, topology)
        # Below the crossover the zip-apply hooks path is faster in the
        # mixed phase (see the crossover note above); it shares the
        # hazard/kernel core, so exactness is unaffected.

    if model == "continuous":
        return ContinuousEngine(protocol, topology, delay_model=delay_model)
    return SequentialEngine(protocol, topology)
