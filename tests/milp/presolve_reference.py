"""Reference presolve: the ``scipy.sparse`` implementation, kept for tests only.

:func:`repro.milp.presolve.presolve` works on the CSR ``indptr`` /
``indices`` / ``data`` arrays directly.  This module keeps the earlier
implementation, which built a new ``scipy.sparse`` matrix at every step
(row slicing, fixed-column folding through ``A @ sparse.diags(...)``,
activity bounds through sparse products), so tests can assert that the two
return byte-identical :class:`~repro.milp.presolve.PresolveResult` objects.

Its stored entry order is part of what it computes: the fold's sparse
product writes each row's surviving entries back in reverse order, and the
big-M tightening walks each row in stored order, so the tightened
coefficients depend on how many folds came before.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.milp.presolve import _EQUILIBRATION_THRESHOLD, _TOLERANCE, PresolveResult


def reference_presolve(matrices: dict[str, object], *, max_passes: int = 4) -> PresolveResult:
    """Tighten bounds, eliminate fixed variables, and screen feasibility.

    ``matrices`` is the dict produced by ``Model.to_matrices()`` (sparse
    ``A``).  The input is not mutated.
    """
    A = matrices["A"].tocsr(copy=True)
    A.eliminate_zeros()
    lb_con = np.array(matrices["lb_con"], dtype=float)
    ub_con = np.array(matrices["ub_con"], dtype=float)
    lb_var = np.array(matrices["lb_var"], dtype=float)
    ub_var = np.array(matrices["ub_var"], dtype=float)
    integrality = np.asarray(matrices["integrality"])
    c = np.asarray(matrices["c"], dtype=float)
    n = len(c)
    bigm_rows = matrices.get("bigm_rows")
    if bigm_rows is not None:
        bigm_rows = np.array(bigm_rows, dtype=float)

    stats: dict[str, float] = {
        "rows_before": float(A.shape[0]),
        "singleton_rows": 0.0,
        "fixed_variables": 0.0,
        "bounds_tightened": 0.0,
        "passes": 0.0,
        "bigm_tightened": 0.0,
        "bigm_scaled_rows": 0.0,
        "bigm_redundant_rows": 0.0,
    }
    if bigm_rows is not None:
        declared = bigm_rows[np.isfinite(bigm_rows)]
        stats["bigm_declared_rows"] = float(declared.size)
        if declared.size:
            stats["bigm_declared_max"] = float(np.max(np.abs(declared)))
    rowmax_pair: list["np.ndarray | None"] = [None, None]

    def _result(infeasible: bool = False, reason: str = "") -> PresolveResult:
        stats["rows_after"] = float(A.shape[0])
        out = {
            "c": c,
            "A": A,
            "lb_con": lb_con,
            "ub_con": ub_con,
            "lb_var": lb_var,
            "ub_var": ub_var,
            "integrality": integrality,
        }
        if bigm_rows is not None:
            out["bigm_rows"] = bigm_rows
        return PresolveResult(
            out,
            infeasible=infeasible,
            reason=reason,
            stats=stats,
            bigm_rowmax_before=rowmax_pair[0],
            bigm_rowmax_after=rowmax_pair[1],
        )

    integral = integrality == 1
    tightened = _round_integral_bounds(lb_var, ub_var, integral)
    stats["bounds_tightened"] += tightened
    if np.any(lb_var > ub_var + _TOLERANCE):
        return _result(True, "variable bounds cross after integral rounding")

    folded = np.zeros(n, dtype=bool)
    for pass_index in range(max_passes):
        stats["passes"] = float(pass_index + 1)
        changed = False

        row_nnz = np.diff(A.indptr)

        # Constant rows: the (possibly shifted) activity window must contain 0.
        empty = row_nnz == 0
        if np.any(empty & ((lb_con > _TOLERANCE) | (ub_con < -_TOLERANCE))):
            return _result(True, "constant constraint is violated (e.g. 0 == 1)")

        # Singleton rows become variable bounds.
        for row in np.flatnonzero(row_nnz == 1):
            pointer = A.indptr[row]
            column = int(A.indices[pointer])
            coefficient = float(A.data[pointer])
            lower, upper = lb_con[row], ub_con[row]
            if coefficient > 0:
                implied_lower, implied_upper = lower / coefficient, upper / coefficient
            else:
                implied_lower, implied_upper = upper / coefficient, lower / coefficient
            if implied_lower > lb_var[column] + _TOLERANCE:
                lb_var[column] = implied_lower
                stats["bounds_tightened"] += 1
                changed = True
            if implied_upper < ub_var[column] - _TOLERANCE:
                ub_var[column] = implied_upper
                stats["bounds_tightened"] += 1
                changed = True
            stats["singleton_rows"] += 1

        stats["bounds_tightened"] += _round_integral_bounds(lb_var, ub_var, integral)
        if np.any(lb_var > ub_var + _TOLERANCE):
            return _result(True, "variable bounds cross after singleton tightening")

        # Drop rows that are now fully absorbed into the bounds.
        keep_rows = row_nnz > 1
        if not keep_rows.all():
            A = A[keep_rows]
            lb_con = lb_con[keep_rows]
            ub_con = ub_con[keep_rows]
            if bigm_rows is not None:
                bigm_rows = bigm_rows[keep_rows]
            changed = True

        # Fold fixed variables out of the remaining rows.
        fixed = (ub_var - lb_var <= _TOLERANCE) & ~folded
        if fixed.any():
            values = np.where(fixed, (lb_var + ub_var) / 2.0, 0.0)
            contribution = A @ values
            # -inf/+inf row bounds survive the shift unchanged.
            lb_con = lb_con - contribution
            ub_con = ub_con - contribution
            keep_columns = sparse.diags((~fixed).astype(float))
            A = (A @ keep_columns).tocsr()
            A.eliminate_zeros()
            folded |= fixed
            stats["fixed_variables"] = float(folded.sum())
            changed = True

        if not changed:
            break

    # Big-M passes run once, on the fixed point: coefficient tightening uses
    # the final (tightest) variable bounds, then equilibration rescales any
    # row the tightening could not bring down to a tame magnitude.
    A = A.tocsr()
    rowmax_pair[0] = _row_max_abs(A)
    tightened, redundant = _tighten_big_m(A, lb_con, ub_con, lb_var, ub_var, integral)
    stats["bigm_tightened"] = float(tightened)
    stats["bigm_redundant_rows"] = float(redundant)
    stats["bigm_scaled_rows"] = float(_equilibrate_rows(A, lb_con, ub_con))
    A.eliminate_zeros()
    rowmax_pair[1] = _row_max_abs(A)

    return _result()


def _row_max_abs(A: "sparse.csr_matrix") -> np.ndarray:
    """Largest absolute coefficient of each row (0 for empty rows)."""
    m = A.shape[0]
    row_max = np.zeros(m)
    if A.nnz:
        row_index = np.repeat(np.arange(m), np.diff(A.indptr))
        np.maximum.at(row_max, row_index, np.abs(A.data))
    return row_max


def _row_activity_bounds(
    A: "sparse.csr_matrix", lb_var: np.ndarray, ub_var: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row activity bounds ``[minact, maxact]`` over the variable box.

    Rows touching an unbounded variable on the relevant side get an infinite
    activity bound, which makes every tightening test on them a no-op.
    """
    positive = A.copy()
    positive.data = np.maximum(positive.data, 0.0)
    negative = A.copy()
    negative.data = np.minimum(negative.data, 0.0)
    lb_finite = np.where(np.isfinite(lb_var), lb_var, 0.0)
    ub_finite = np.where(np.isfinite(ub_var), ub_var, 0.0)
    maxact = positive @ ub_finite + negative @ lb_finite
    minact = positive @ lb_finite + negative @ ub_finite
    ub_open = (~np.isfinite(ub_var)).astype(float)
    lb_open = (~np.isfinite(lb_var)).astype(float)
    max_open = (positive @ ub_open) + (-negative @ lb_open)
    min_open = (positive @ lb_open) + (-negative @ ub_open)
    maxact = np.where(max_open > 0, np.inf, maxact)
    minact = np.where(min_open > 0, -np.inf, minact)
    return minact, maxact


def _tighten_big_m(
    A: "sparse.csr_matrix",
    lb_con: np.ndarray,
    ub_con: np.ndarray,
    lb_var: np.ndarray,
    ub_var: np.ndarray,
    integral: np.ndarray,
) -> tuple[int, int]:
    """Shrink binary coefficients in one-sided rows to their max-activity size.

    Classic MIP coefficient tightening, applied in place: for a row
    ``a^T x <= u`` and a binary ``x_j`` with ``a_j > 0``, when the row cannot
    be tight with ``x_j = 0`` (``maxact - a_j < u``) both the coefficient and
    the right-hand side shrink by ``u - (maxact - a_j)``; for ``a_j < 0``,
    when the row is slack with ``x_j = 1`` the coefficient relaxes toward 0.
    ``>=`` rows go through the same rules with the row negated.  The integer
    feasible set is unchanged (the constraint is equivalent at ``x_j`` in
    {0, 1}); only the LP relaxation tightens.  Rows that can never bind are
    dropped to an unbounded row.  Returns ``(coefficients_changed,
    rows_made_redundant)``.
    """
    m = A.shape[0]
    if m == 0 or A.nnz == 0:
        return 0, 0
    # The rules below assume the full {0, 1} box; partially-fixed binaries
    # (possible when max_passes cuts the fold loop short) are left alone.
    binary = (
        (integral == 1)
        & (np.abs(lb_var) <= _TOLERANCE)
        & (np.abs(ub_var - 1.0) <= _TOLERANCE)
    )
    if not binary.any():
        return 0, 0
    minact, maxact = _row_activity_bounds(A, lb_var, ub_var)
    finite_ub = np.isfinite(ub_con)
    finite_lb = np.isfinite(lb_con)
    tightened = 0
    redundant = 0
    for sign, candidates, activity in (
        (1.0, np.flatnonzero(finite_ub & ~finite_lb), maxact),
        (-1.0, np.flatnonzero(finite_lb & ~finite_ub), -minact),
    ):
        for row in candidates:
            begin, end = A.indptr[row], A.indptr[row + 1]
            if end - begin == 0:
                continue
            act = float(activity[row])
            if not np.isfinite(act):
                continue
            # Work on the row as sign * a^T x <= u.
            u = float(ub_con[row]) if sign > 0 else -float(lb_con[row])
            if act <= u + _TOLERANCE:
                # The row can never bind: it is redundant, not a constraint.
                lb_con[row], ub_con[row] = -np.inf, np.inf
                redundant += 1
                continue
            for pointer in range(begin, end):
                column = int(A.indices[pointer])
                if not binary[column]:
                    continue
                coefficient = sign * float(A.data[pointer])
                if coefficient > _TOLERANCE:
                    without = act - coefficient  # activity bound at x_j = 0
                    if without < u - _TOLERANCE:
                        # The row can never bind with x_j = 0, so coefficient
                        # and rhs both shrink by the slack u - without; the
                        # x_j = 1 face is untouched.
                        new_coefficient = act - u  # = coefficient - slack > 0
                        A.data[pointer] = sign * new_coefficient
                        u = without
                        act = without + new_coefficient
                        tightened += 1
                elif coefficient < -_TOLERANCE:
                    if act + coefficient < u - _TOLERANCE:
                        # Slack even at x_j = 1: relax the coefficient to the
                        # largest value that keeps x_j = 1 redundant.  The
                        # activity bound is unchanged (a negative binary
                        # coefficient contributes 0 to it either way).
                        new_coefficient = min(u - act, 0.0)
                        A.data[pointer] = sign * new_coefficient
                        tightened += 1
            if sign > 0:
                ub_con[row] = u
            else:
                lb_con[row] = -u
    return tightened, redundant


def _equilibrate_rows(
    A: "sparse.csr_matrix", lb_con: np.ndarray, ub_con: np.ndarray
) -> int:
    """Rescale rows whose largest coefficient exceeds the big-M threshold.

    Row scaling is an exact reformulation (both sides divide by the same
    positive factor) but it is what actually keeps HiGHS healthy: residuals
    that were amplified to just past the absolute feasibility tolerance by a
    ~2e5 coefficient shrink with the row, so an optimal solve no longer gets
    reported as a solve error.  Returns the number of rows rescaled.
    """
    if A.shape[0] == 0 or A.nnz == 0:
        return 0
    row_max = _row_max_abs(A)
    scaled = row_max > _EQUILIBRATION_THRESHOLD
    if not scaled.any():
        return 0
    factor = np.where(scaled, 1.0 / np.maximum(row_max, 1.0), 1.0)
    row_index = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    A.data *= factor[row_index]
    lb_con *= factor  # ±inf bounds survive the positive scaling unchanged
    ub_con *= factor
    return int(np.count_nonzero(scaled))


def _round_integral_bounds(
    lb_var: np.ndarray, ub_var: np.ndarray, integral: np.ndarray
) -> int:
    """Round integral-variable bounds inward, in place; return the change count."""
    if not integral.any():
        return 0
    new_lower = np.where(integral, np.ceil(lb_var - _TOLERANCE), lb_var)
    new_upper = np.where(integral, np.floor(ub_var + _TOLERANCE), ub_var)
    changed = int(np.count_nonzero(new_lower != lb_var) + np.count_nonzero(new_upper != ub_var))
    lb_var[:] = new_lower
    ub_var[:] = new_upper
    return changed
