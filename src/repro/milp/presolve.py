"""Cheap matrix-level presolve applied before any MILP backend runs.

The QFix encodings carry a lot of structure that a solver would otherwise
rediscover node by node: integral variables with fractional domain bounds,
singleton rows (``a * x <= b``) that are really variable bounds in disguise,
final-state equality rows that pin a variable outright, and the encoder's
explicit contradiction rows (``0 == 1``) for trivially infeasible targets.
:func:`presolve` normalizes all of that once, on the CSR arrays
(``indptr`` / ``indices`` / ``data``) of the sparse matrix form, building
one ``scipy.sparse`` matrix for the result only, in three passes that run
until a fixed point:

* **bound tightening** — singleton rows are folded into the variable bounds
  and dropped; integral variables get their bounds rounded inward.
* **fixed-variable elimination** — a variable whose bounds coincide has its
  column folded into the row activity bounds and zeroed, so every remaining
  row gets sparser (the variable itself stays in the export with a pinned
  bound, which keeps solution decoding index-stable).
* **feasibility screening** — crossed variable bounds and constant rows whose
  activity window excludes zero are reported as infeasible immediately,
  without ever invoking an LP.
* **big-M tightening** — after the fixed point, coefficients of binary
  variables in one-sided rows are shrunk to their max-activity values and
  rows whose largest coefficient still dwarfs the rest of the matrix are
  rescaled to unit magnitude (see :func:`_tighten_big_m` /
  :func:`_equilibrate_rows`).  This is the root-cause fix for the HiGHS
  "Status 4" failures on wide-domain indicator encodings: a big-M
  coefficient of ~2e5 amplifies sub-tolerance primal drift past HiGHS's
  absolute 1e-6 feasibility tolerance, making an optimal solve report a
  solve *error*.  With the constants tamed the solver never enters that
  regime, so the backend's presolve-off retry becomes a pure fallback.

The transformation is exact: it never cuts off an integer-feasible point and
never changes the objective value of any feasible assignment.

Entry order within a row is part of the result: the big-M tightening walks
each row in stored order and its coefficients depend on that order.  The
invariant kept here is the order a ``scipy.sparse`` implementation of the
same passes produces — dropping rows keeps each row's order, and every
fixed-column fold writes each row's surviving entries back in *reverse*
order (what ``A @ sparse.diags(keep)`` does) — so the tightened matrix is
the same, byte for byte, as that implementation's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

#: Slack used when comparing bounds (absorbs division round-off).
_TOLERANCE = 1e-9

#: Rows whose largest absolute coefficient exceeds this are rescaled so that
#: their largest coefficient becomes 1.  The threshold is far above anything a
#: well-scaled encoding produces and far below the big-M constants that push
#: HiGHS past its absolute feasibility tolerance.
_EQUILIBRATION_THRESHOLD = 1e3


@dataclass
class PresolveResult:
    """Outcome of :func:`presolve`.

    ``matrices`` has the same keys and variable order as the input, so a
    solution of the presolved problem decodes exactly like one of the
    original.  When ``infeasible`` is set the matrices are unusable and
    ``reason`` explains which reduction proved infeasibility.

    ``bigm_rowmax_before`` / ``bigm_rowmax_after`` hold the per-row largest
    absolute coefficient before and after the big-M passes (index-aligned
    with the surviving rows) — the raw data behind the benchmark's before /
    after big-M histogram.
    """

    matrices: dict[str, object]
    infeasible: bool = False
    reason: str = ""
    stats: dict[str, float] = field(default_factory=dict)
    bigm_rowmax_before: "np.ndarray | None" = None
    bigm_rowmax_after: "np.ndarray | None" = None


class _Rows:
    """A CSR matrix as three arrays: ``indptr`` (int64), ``indices``, ``data``."""

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, data: np.ndarray) -> None:
        self.set(indptr, indices, data)

    def set(self, indptr: np.ndarray, indices: np.ndarray, data: np.ndarray) -> None:
        self.indptr = indptr
        self.indices = indices
        self.data = data
        self.count = len(indptr) - 1
        self._row_index: np.ndarray | None = None

    def row_index(self) -> np.ndarray:
        """The row of every stored entry."""
        if self._row_index is None:
            self._row_index = np.repeat(np.arange(self.count), np.diff(self.indptr))
        return self._row_index

    def keep_entries(self, keep: np.ndarray) -> None:
        """Drop the entries where ``keep`` is False; rows keep their order."""
        counts = np.bincount(self.row_index()[keep], minlength=self.count)
        self.set(_indptr(counts), self.indices[keep], self.data[keep])

    def keep_rows(self, keep: np.ndarray) -> None:
        """Drop the rows where ``keep`` is False."""
        counts = np.diff(self.indptr)
        entries = np.repeat(keep, counts)
        self.set(_indptr(counts[keep]), self.indices[entries], self.data[entries])

    def matvec(self, weights: np.ndarray) -> np.ndarray:
        """Per-row sums of ``weights`` (one per entry), added in stored order.

        ``np.bincount`` adds each weight into its row one after another from
        0.0, the float operations of ``csr_matvec`` for ``A @ x``.
        """
        return np.bincount(self.row_index(), weights=weights, minlength=self.count)

    def row_max_abs(self) -> np.ndarray:
        """Largest absolute coefficient of each row (0 for empty rows)."""
        row_max = np.zeros(self.count)
        if len(self.data):
            np.maximum.at(row_max, self.row_index(), np.abs(self.data))
        return row_max

    def to_csr(self, columns: int, index_dtype: np.dtype) -> sparse.csr_matrix:
        return sparse.csr_matrix(
            (self.data, self.indices.astype(index_dtype), self.indptr.astype(index_dtype)),
            shape=(self.count, columns),
        )


def _indptr(counts: np.ndarray) -> np.ndarray:
    indptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr


def presolve(matrices: dict[str, object], *, max_passes: int = 4) -> PresolveResult:
    """Tighten bounds, eliminate fixed variables, and screen feasibility.

    ``matrices`` is the dict produced by ``Model.to_matrices()`` (sparse
    ``A``).  The input is not mutated.
    """
    source = matrices["A"].tocsr()
    columns, index_dtype = source.shape[1], source.indices.dtype
    rows = _Rows(
        source.indptr.astype(np.int64),
        source.indices.copy(),
        np.array(source.data, dtype=float),
    )
    nonzero = rows.data != 0
    if not nonzero.all():
        rows.keep_entries(nonzero)
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
        "rows_before": float(rows.count),
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
        stats["rows_after"] = float(rows.count)
        out = {
            "c": c,
            "A": rows.to_csr(columns, index_dtype),
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

        row_nnz = np.diff(rows.indptr)

        # Constant rows: the (possibly shifted) activity window must contain 0.
        empty = row_nnz == 0
        if np.any(empty & ((lb_con > _TOLERANCE) | (ub_con < -_TOLERANCE))):
            return _result(True, "constant constraint is violated (e.g. 0 == 1)")

        # Singleton rows become variable bounds, applied row by row (a column
        # bounded by several rows is tightened against its current bound).
        singles = np.flatnonzero(row_nnz == 1)
        moved = 0
        if singles.size:
            pointers = rows.indptr[singles]
            coefficients = rows.data[pointers]
            lower, upper = lb_con[singles], ub_con[singles]
            positive = coefficients > 0
            implied_lowers = np.where(positive, lower / coefficients, upper / coefficients)
            implied_uppers = np.where(positive, upper / coefficients, lower / coefficients)
            lowers, uppers = lb_var.tolist(), ub_var.tolist()
            for column, implied_lower, implied_upper in zip(
                rows.indices[pointers].tolist(), implied_lowers.tolist(), implied_uppers.tolist()
            ):
                if implied_lower > lowers[column] + _TOLERANCE:
                    lowers[column] = implied_lower
                    moved += 1
                if implied_upper < uppers[column] - _TOLERANCE:
                    uppers[column] = implied_upper
                    moved += 1
            if moved:
                lb_var[:] = lowers
                ub_var[:] = uppers
                stats["bounds_tightened"] += moved
                changed = True
            stats["singleton_rows"] += singles.size

        # Rounding is idempotent, so bounds no singleton moved need no second
        # rounding (nor a second crossing check).
        if moved:
            stats["bounds_tightened"] += _round_integral_bounds(lb_var, ub_var, integral)
            if np.any(lb_var > ub_var + _TOLERANCE):
                return _result(True, "variable bounds cross after singleton tightening")

        # Drop rows that are now fully absorbed into the bounds.
        keep_rows = row_nnz > 1
        if not keep_rows.all():
            rows.keep_rows(keep_rows)
            lb_con = lb_con[keep_rows]
            ub_con = ub_con[keep_rows]
            if bigm_rows is not None:
                bigm_rows = bigm_rows[keep_rows]
            changed = True

        # Fold fixed variables out of the remaining rows.
        fixed = (ub_var - lb_var <= _TOLERANCE) & ~folded
        if fixed.any():
            values = np.where(fixed, (lb_var + ub_var) / 2.0, 0.0)
            contribution = rows.matvec(rows.data * values[rows.indices])
            # -inf/+inf row bounds survive the shift unchanged.
            lb_con = lb_con - contribution
            ub_con = ub_con - contribution
            _drop_columns(rows, fixed)
            folded |= fixed
            stats["fixed_variables"] = float(folded.sum())
            changed = True

        if not changed:
            break

    # Big-M passes run once, on the fixed point: coefficient tightening uses
    # the final (tightest) variable bounds, then equilibration rescales any
    # row the tightening could not bring down to a tame magnitude.
    rowmax_pair[0] = rows.row_max_abs()
    tightened, redundant = _tighten_big_m(rows, lb_con, ub_con, lb_var, ub_var, integral)
    stats["bigm_tightened"] = float(tightened)
    stats["bigm_redundant_rows"] = float(redundant)
    stats["bigm_scaled_rows"] = float(_equilibrate_rows(rows, lb_con, ub_con))
    nonzero = rows.data != 0
    if not nonzero.all():
        rows.keep_entries(nonzero)
    rowmax_pair[1] = rows.row_max_abs()

    return _result()


def _drop_columns(rows: _Rows, fixed: np.ndarray) -> None:
    """Remove the entries of ``fixed`` columns, reversing each row's survivors.

    The reversal is the stored-order invariant of the module docstring: the
    sparse product ``A @ diags(~fixed)`` emits a row's entries in reverse
    order of first appearance, and :func:`_tighten_big_m` sees that order.
    """
    row_index = rows.row_index()
    survivors = np.flatnonzero(~fixed[rows.indices])[::-1]
    order = survivors[np.argsort(row_index[survivors], kind="stable")]
    counts = np.bincount(row_index[survivors], minlength=rows.count)
    rows.set(_indptr(counts), rows.indices[order], rows.data[order])


def _row_activity_bounds(
    rows: _Rows, lb_var: np.ndarray, ub_var: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row activity bounds ``[minact, maxact]`` over the variable box.

    Rows touching an unbounded variable on the relevant side get an infinite
    activity bound, which makes every tightening test on them a no-op.  The
    sums are those of ``A+ @ ub + A- @ lb`` (and the mirror) over the
    positive / negative parts of ``A``.
    """
    indices = rows.indices
    positive = np.maximum(rows.data, 0.0)
    negative = np.minimum(rows.data, 0.0)
    lb_finite = np.where(np.isfinite(lb_var), lb_var, 0.0)[indices]
    ub_finite = np.where(np.isfinite(ub_var), ub_var, 0.0)[indices]
    maxact = rows.matvec(positive * ub_finite) + rows.matvec(negative * lb_finite)
    minact = rows.matvec(positive * lb_finite) + rows.matvec(negative * ub_finite)
    ub_open = (~np.isfinite(ub_var))[indices]
    lb_open = (~np.isfinite(lb_var))[indices]
    max_open = rows.matvec(((positive > 0) & ub_open) | ((negative < 0) & lb_open))
    min_open = rows.matvec(((positive > 0) & lb_open) | ((negative < 0) & ub_open))
    maxact = np.where(max_open > 0, np.inf, maxact)
    minact = np.where(min_open > 0, -np.inf, minact)
    return minact, maxact


def _tighten_big_m(
    rows: _Rows,
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

    Each row's entries are visited in stored order, and a tightening changes
    the activity bound the row's later entries are tested against, so the
    result depends on that order (see the module docstring).
    """
    if rows.count == 0 or len(rows.data) == 0:
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
    minact, maxact = _row_activity_bounds(rows, lb_var, ub_var)
    finite_ub = np.isfinite(ub_con)
    finite_lb = np.isfinite(lb_con)
    is_binary = binary.tolist()
    starts = rows.indptr.tolist()
    columns = rows.indices.tolist()
    data = rows.data.tolist()
    lower = lb_con.tolist()
    upper = ub_con.tolist()
    tightened = 0
    redundant = 0
    for sign, candidates, activity in (
        (1.0, np.flatnonzero(finite_ub & ~finite_lb), maxact),
        (-1.0, np.flatnonzero(finite_lb & ~finite_ub), -minact),
    ):
        activity = activity.tolist()
        for row in candidates.tolist():
            begin, end = starts[row], starts[row + 1]
            if end - begin == 0:
                continue
            act = activity[row]
            if not math.isfinite(act):
                continue
            # Work on the row as sign * a^T x <= u.
            u = upper[row] if sign > 0 else -lower[row]
            if act <= u + _TOLERANCE:
                # The row can never bind: it is redundant, not a constraint.
                lower[row], upper[row] = -math.inf, math.inf
                redundant += 1
                continue
            for pointer in range(begin, end):
                if not is_binary[columns[pointer]]:
                    continue
                coefficient = sign * data[pointer]
                if coefficient > _TOLERANCE:
                    without = act - coefficient  # activity bound at x_j = 0
                    if without < u - _TOLERANCE:
                        # The row can never bind with x_j = 0, so coefficient
                        # and rhs both shrink by the slack u - without; the
                        # x_j = 1 face is untouched.
                        new_coefficient = act - u  # = coefficient - slack > 0
                        data[pointer] = sign * new_coefficient
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
                        data[pointer] = sign * new_coefficient
                        tightened += 1
            if sign > 0:
                upper[row] = u
            else:
                lower[row] = -u
    rows.data[:] = data
    lb_con[:] = lower
    ub_con[:] = upper
    return tightened, redundant


def _equilibrate_rows(rows: _Rows, lb_con: np.ndarray, ub_con: np.ndarray) -> int:
    """Rescale rows whose largest coefficient exceeds the big-M threshold.

    Row scaling is an exact reformulation (both sides divide by the same
    positive factor) but it is what actually keeps HiGHS healthy: residuals
    that were amplified to just past the absolute feasibility tolerance by a
    ~2e5 coefficient shrink with the row, so an optimal solve no longer gets
    reported as a solve error.  Returns the number of rows rescaled.
    """
    if rows.count == 0 or len(rows.data) == 0:
        return 0
    row_max = rows.row_max_abs()
    scaled = row_max > _EQUILIBRATION_THRESHOLD
    if not scaled.any():
        return 0
    factor = np.where(scaled, 1.0 / np.maximum(row_max, 1.0), 1.0)
    rows.data *= factor[rows.row_index()]
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
