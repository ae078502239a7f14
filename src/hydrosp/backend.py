"""Name of the LP backend, for run records.

The name lives in ``lp.SOLVER``.  This module remains only because the
benchmark runner (``bench/run.py``) imports ``backend_choice`` for its
environment block; it goes once the runner reads ``lp.SOLVER`` instead
(ROADMAP item 1).
"""

from .lp import SOLVER


def backend_choice() -> str:
    """The LP backend in use: ``lp.SOLVER``."""
    return SOLVER
