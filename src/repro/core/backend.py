"""Name of the array library the ensemble count engines run on.

The ensemble engines (:mod:`repro.engine.ensemble`) call numpy
directly.  :func:`active_backend_name` exists so benchmark records name
the array library their numbers were measured with, and so records from
two checkouts can be refused as incomparable when that name differs.
"""

from __future__ import annotations

__all__ = ["active_backend_name"]


def active_backend_name() -> str:
    """Name of the array library the ensemble engines use: ``"numpy"``."""
    return "numpy"
