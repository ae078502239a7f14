"""Name of the LP backend, for run records.

hydrosp has one LP path, the numpy simplex in ``_simplex.py``, so
there is nothing to select.  This module remains only because the
benchmark runner (``bench/run.py``) imports ``backend_choice`` for its
environment block; it goes once the runner reads the solver name from the
program instead (ROADMAP item 1).
"""


def backend_choice() -> str:
    """The LP backend in use: always ``"numpy"``."""
    return "numpy"
