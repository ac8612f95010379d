"""Abstract solver interface and helpers shared by the backends."""

from __future__ import annotations

import abc
import warnings
from typing import Mapping

from repro.milp.model import Model
from repro.milp.solution import Solution


class Solver(abc.ABC):
    """Interface implemented by all MILP solver backends.

    A solver is stateless between calls; per-solve options (time limit, gap)
    are constructor arguments so that a configured solver instance can be
    shared across an experiment.
    """

    #: Registry name of the backend (e.g. ``"highs"``).
    name: str = "abstract"

    def __init__(self, *, time_limit: float | None = None, mip_gap: float = 1e-6) -> None:
        self.time_limit = time_limit
        self.mip_gap = mip_gap

    @abc.abstractmethod
    def solve(self, model: Model) -> Solution:
        """Solve ``model`` (minimization) and return a :class:`Solution`."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(time_limit={self.time_limit}, mip_gap={self.mip_gap})"


def finalize_solution_values(
    model: Model,
    raw_values: Mapping[str, float],
    *,
    tolerance: float = 1e-5,
) -> tuple[dict[str, float], str]:
    """Round integral variables and validate the rounded point.

    A relaxation accepted within the integrality tolerance can, once rounded,
    violate a constraint the fractional point satisfied (big-M rows amplify
    sub-tolerance drift).  The rounded assignment is therefore checked with
    ``model.check_assignment``; when it fails, the unrounded incumbent is
    returned instead, with a warning message the caller should surface.
    """
    rounded = {
        variable.name: (
            float(round(raw_values[variable.name]))
            if variable.is_integral
            else float(raw_values[variable.name])
        )
        for variable in model.variables
    }
    unrounded = {variable.name: float(raw_values[variable.name]) for variable in model.variables}
    if rounded == unrounded:
        return rounded, ""
    if not model.check_assignment(rounded, tolerance=tolerance):
        return rounded, ""
    message = (
        "rounded integral values violate the model constraints; "
        "falling back to the unrounded incumbent"
    )
    warnings.warn(message, stacklevel=3)
    return unrounded, message
