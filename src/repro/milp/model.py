"""The MILP model: variables, constraints, and an objective.

Constraint rows are stored flat, in the arrays the solvers read: row ``i``
is the column indices ``cols[indptr[i]:indptr[i + 1]]`` with coefficients
``vals[...]`` in insertion order, plus a sense code, a right-hand side, a
name and an optional big-M tag.  Every row is normalized when it is added —
variable terms on the left, a number on the right — with exactly the float
operations of ``LinExpr`` subtraction (:func:`difference`), so a row written
by a linearization helper is the row :meth:`Model.add_constraint` would have
stored for the same expressions.  :class:`Constraint` objects are built on
demand as views of these rows.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np
from scipy import sparse

from repro.exceptions import ModelError
from repro.milp.constraints import Constraint, Sense
from repro.milp.expr import LinExpr, accumulate, as_linexpr
from repro.milp.solution import Solution
from repro.milp.variables import Variable, VarType

#: Default bound used for unbounded continuous helper variables.
DEFAULT_BOUND = 1e9

#: Sense codes of the flat row buffers.
LE, GE, EQ = 0, 1, 2
_SENSES = (Sense.LE, Sense.GE, Sense.EQ)
_CODES = {Sense.LE: LE, Sense.GE: GE, Sense.EQ: EQ}


@dataclass(frozen=True)
class Rows:
    """Array copies of a model's rows (see :meth:`Model.rows`)."""

    #: Row ``i`` is ``cols[indptr[i]:indptr[i + 1]]`` / ``vals[...]``, in
    #: insertion order.
    indptr: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    #: Sense codes (:data:`LE` / :data:`GE` / :data:`EQ`) and right-hand sides.
    senses: np.ndarray
    rhs: np.ndarray
    names: tuple[str, ...]


def difference(
    left: Mapping[Variable, float],
    left_constant: float,
    right: Mapping[Variable, float],
    right_constant: float,
) -> tuple[dict[Variable, float], float]:
    """Normalize ``left SENSE right`` into ``terms SENSE rhs``.

    Returns the terms of ``left - right`` and the right-hand side
    ``-(left_constant + right_constant * -1.0)``: the float operations of
    ``LinExpr`` subtraction, in the same order, so the signs of zero
    coefficients and right-hand sides match (``0.0 + -0.0`` is ``0.0``, whose
    negation is the ``-0.0`` many rows carry).
    """
    terms = dict(left)
    accumulate(terms, right, -1.0)
    return terms, -(left_constant + right_constant * -1.0)


class Model:
    """A mixed-integer linear program under construction.

    The model collects variables and constraints, owns the (minimization)
    objective, and can export itself as dense/sparse matrices for the solver
    backends.  Variable names must be unique within a model.
    """

    def __init__(self, name: str = "model") -> None:
        self.name = name
        self._variables: list[Variable] = []
        self._by_name: dict[str, Variable] = {}
        self._integral_count = 0
        self._objective: LinExpr = LinExpr()
        self._constraint_counter = 0
        # The rows (see the module docstring).
        self._indptr = array("q", [0])
        self._cols = array("q")
        self._vals = array("d")
        self._senses = array("b")
        self._rhs = array("d")
        self._row_names: list[str] = []
        #: big-M metadata for tightenable rows, keyed by row index.
        self._big_m: dict[int, float] = {}

    # -- variables --------------------------------------------------------------

    def add_variable(
        self,
        name: str,
        *,
        lower: float = -DEFAULT_BOUND,
        upper: float = DEFAULT_BOUND,
        var_type: VarType = VarType.CONTINUOUS,
    ) -> Variable:
        """Create and register a new decision variable."""
        if name in self._by_name:
            raise ModelError(f"duplicate variable name '{name}'")
        variable = Variable(name, len(self._variables), float(lower), float(upper), var_type)
        self._variables.append(variable)
        self._by_name[name] = variable
        if variable.is_integral:
            self._integral_count += 1
        return variable

    def add_continuous(self, name: str, lower: float = -DEFAULT_BOUND, upper: float = DEFAULT_BOUND) -> Variable:
        """Shorthand for a continuous variable."""
        return self.add_variable(name, lower=lower, upper=upper, var_type=VarType.CONTINUOUS)

    def add_binary(self, name: str) -> Variable:
        """Shorthand for a binary variable."""
        return self.add_variable(name, lower=0.0, upper=1.0, var_type=VarType.BINARY)

    def add_integer(self, name: str, lower: float = 0.0, upper: float = DEFAULT_BOUND) -> Variable:
        """Shorthand for a general integer variable."""
        return self.add_variable(name, lower=lower, upper=upper, var_type=VarType.INTEGER)

    def get_variable(self, name: str) -> Variable:
        """Look up a variable by name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise ModelError(f"unknown variable '{name}'") from None

    def has_variable(self, name: str) -> bool:
        """Whether a variable with ``name`` exists."""
        return name in self._by_name

    @property
    def variables(self) -> tuple[Variable, ...]:
        """All variables in creation order."""
        return tuple(self._variables)

    @property
    def num_variables(self) -> int:
        return len(self._variables)

    @property
    def num_integer_variables(self) -> int:
        """Number of binary/integer variables (problem-difficulty metric)."""
        return self._integral_count

    # -- constraints ------------------------------------------------------------

    def add_constraint(
        self,
        expr: "LinExpr | Variable | float",
        sense: "Sense | str",
        rhs: "LinExpr | Variable | float",
        name: str | None = None,
    ) -> Constraint:
        """Add the constraint ``expr SENSE rhs``.

        Both sides may be expressions; the constraint is normalized so all
        variable terms move to the left and the right-hand side is a number.
        """
        if isinstance(sense, str):
            sense = Sense(sense)
        left = as_linexpr(expr)
        right = as_linexpr(rhs)
        terms, value = difference(left.terms, left.constant, right.terms, right.constant)
        row = self._add_row(terms, _CODES[sense], value, name)
        return Constraint(
            self._row_names[row], LinExpr._of(terms, -value + value), sense, value, row
        )

    def add_equal(self, lhs, rhs, name: str | None = None) -> Constraint:  # type: ignore[no-untyped-def]
        """Shorthand for an equality constraint."""
        return self.add_constraint(lhs, Sense.EQ, rhs, name)

    def add_le(self, lhs, rhs, name: str | None = None) -> Constraint:  # type: ignore[no-untyped-def]
        """Shorthand for a ``<=`` constraint."""
        return self.add_constraint(lhs, Sense.LE, rhs, name)

    def add_ge(self, lhs, rhs, name: str | None = None) -> Constraint:  # type: ignore[no-untyped-def]
        """Shorthand for a ``>=`` constraint."""
        return self.add_constraint(lhs, Sense.GE, rhs, name)

    def _add_row(
        self,
        terms: Mapping[Variable, float],
        sense: int,
        rhs: float,
        name: str | None,
        big_m: float | None = None,
    ) -> int:
        """Append the normalized row ``terms SENSE rhs``; return its index.

        ``terms`` is stored in its iteration order; ``sense`` is one of
        :data:`LE` / :data:`GE` / :data:`EQ`; ``big_m`` tags an indicator row
        (see :meth:`mark_big_m`).
        """
        if name is None:
            name = f"c{self._constraint_counter}"
        self._constraint_counter += 1
        variables = self._variables
        count = len(variables)
        columns = []
        for variable in terms:
            index = variable.index
            if not (0 <= index < count and variables[index] is variable):
                raise ModelError(
                    f"constraint '{name}' references variable "
                    f"'{variable.name}' that does not belong to this model"
                )
            columns.append(index)
        row = len(self._rhs)
        self._cols.extend(columns)
        self._vals.extend(terms.values())
        self._indptr.append(len(self._cols))
        self._senses.append(sense)
        self._rhs.append(rhs)
        self._row_names.append(name)
        if big_m is not None:
            self._big_m[row] = float(big_m)
        return row

    def _row_terms(self, row: int) -> dict[Variable, float]:
        begin, end = self._indptr[row], self._indptr[row + 1]
        variables = self._variables
        return {
            variables[column]: coeff
            for column, coeff in zip(self._cols[begin:end], self._vals[begin:end])
        }

    def _constraint(self, row: int) -> Constraint:
        """The :class:`Constraint` view of one row."""
        rhs = self._rhs[row]
        # ``add_constraint`` left the normalized expression's constant at
        # ``c + -c`` for ``c = -rhs``: 0.0, or NaN for an infinite rhs.
        return Constraint(
            self._row_names[row],
            LinExpr._of(self._row_terms(row), -rhs + rhs),
            _SENSES[self._senses[row]],
            rhs,
            row,
        )

    def mark_big_m(self, constraint: Constraint, big_m: float) -> None:
        """Tag ``constraint`` as a big-M row built with constant ``big_m``.

        The linearization helpers tag every indicator row they emit; the tag
        flows into the matrix export (``bigm_rows``) so the presolve can
        report how many declared big-M rows it tightened.
        """
        if not 0 <= constraint.row < self.num_constraints:
            raise ModelError(f"constraint '{constraint.name}' is not a row of this model")
        self._big_m[constraint.row] = float(big_m)

    def big_m_of(self, constraint: Constraint) -> float | None:
        """The declared big-M constant of a row, or None when untagged."""
        return self._big_m.get(constraint.row)

    @property
    def num_big_m_constraints(self) -> int:
        """Number of rows tagged as big-M indicator rows."""
        return len(self._big_m)

    def rows(self) -> Rows:
        """The rows as arrays, each row's terms in insertion order."""
        return Rows(
            np.array(self._indptr, dtype=np.int64),
            np.array(self._cols, dtype=np.int64),
            np.array(self._vals, dtype=float),
            np.array(self._senses, dtype=np.int8),
            np.array(self._rhs, dtype=float),
            tuple(self._row_names),
        )

    @property
    def constraints(self) -> tuple[Constraint, ...]:
        """All constraints in insertion order (views of the rows)."""
        return tuple(self._constraint(row) for row in range(self.num_constraints))

    @property
    def num_constraints(self) -> int:
        return len(self._rhs)

    # -- objective ----------------------------------------------------------------

    def set_objective(self, expr: "LinExpr | Variable | float") -> None:
        """Set the (minimization) objective."""
        objective = as_linexpr(expr)
        for variable in objective.variables():
            if self._by_name.get(variable.name) is not variable:
                raise ModelError(
                    f"objective references variable '{variable.name}' "
                    "that does not belong to this model"
                )
        self._objective = objective

    def add_to_objective(self, expr: "LinExpr | Variable | float") -> None:
        """Add a term to the existing objective."""
        self.set_objective(self._objective + as_linexpr(expr))

    @property
    def objective(self) -> LinExpr:
        return self._objective

    # -- matrix export -------------------------------------------------------------

    def to_matrices(self) -> dict[str, object]:
        """Export the model with a ``scipy.sparse`` CSR constraint matrix.

        Returns a dict with keys ``c`` (objective coefficients), ``A``
        (constraint matrix, CSR — the QFix encoding is overwhelmingly sparse,
        so the dense form is never materialized), ``lb_con`` / ``ub_con``
        (constraint bounds), ``lb_var`` / ``ub_var`` (variable bounds), and
        ``integrality`` (1 for integral variables, 0 otherwise), and
        ``bigm_rows`` (per-row declared big-M constant, NaN for rows that are
        not tagged indicator rows).

        ``A`` holds the row buffers with each row's entries sorted by column
        (canonical CSR, ``int32`` indices), which is what assembling the same
        rows from COO triplets gives.
        """
        arrays = self._vector_arrays()
        m = len(self._rhs)
        indptr = np.array(self._indptr, dtype=np.int64)
        cols = np.array(self._cols, dtype=np.int64)
        data = np.array(self._vals, dtype=float)
        order = np.lexsort((cols, np.repeat(np.arange(m), np.diff(indptr))))
        index_dtype = np.int32 if max(m, len(cols), len(arrays["c"])) < 2**31 - 1 else np.int64
        A = sparse.csr_matrix(
            (data[order], cols[order].astype(index_dtype), indptr.astype(index_dtype)),
            shape=(m, len(arrays["c"])),
        )
        return {
            "c": arrays["c"],
            "A": A,
            "lb_con": arrays["lb_con"],
            "ub_con": arrays["ub_con"],
            "lb_var": arrays["lb_var"],
            "ub_var": arrays["ub_var"],
            "integrality": arrays["integrality"],
            "bigm_rows": arrays["bigm_rows"],
        }

    def to_sparse_arrays(self) -> dict[str, object]:
        """Export objective/bounds as dense vectors and constraints as COO triplets.

        The triplets list each row's terms in insertion order; callers that
        want to assemble their own sparse matrix (or ship the triplets across
        a process boundary) can consume them directly.
        """
        arrays = self._vector_arrays()
        indptr = np.array(self._indptr, dtype=np.int64)
        return {
            "c": arrays["c"],
            "rows": np.repeat(np.arange(len(self._rhs), dtype=np.int64), np.diff(indptr)),
            "cols": np.array(self._cols, dtype=np.int64),
            "data": np.array(self._vals, dtype=float),
            "n_constraints": len(self._rhs),
            "lb_con": arrays["lb_con"],
            "ub_con": arrays["ub_con"],
            "lb_var": arrays["lb_var"],
            "ub_var": arrays["ub_var"],
            "integrality": arrays["integrality"],
            "bigm_rows": arrays["bigm_rows"],
        }

    def _vector_arrays(self) -> dict[str, np.ndarray]:
        """The dense vectors of both exports."""
        c = np.zeros(len(self._variables))
        for variable, coeff in self._objective.terms.items():
            c[variable.index] = coeff
        senses = np.array(self._senses, dtype=np.int8)
        rhs = np.array(self._rhs, dtype=float)
        bigm_rows = np.full(len(rhs), np.nan)
        if self._big_m:
            bigm_rows[list(self._big_m)] = list(self._big_m.values())
        return {
            "c": c,
            "lb_con": np.where(senses == LE, -np.inf, rhs),
            "ub_con": np.where(senses == GE, np.inf, rhs),
            "lb_var": np.array([variable.lower for variable in self._variables]),
            "ub_var": np.array([variable.upper for variable in self._variables]),
            "integrality": np.array(
                [1 if variable.is_integral else 0 for variable in self._variables]
            ),
            "bigm_rows": bigm_rows,
        }

    # -- verification ---------------------------------------------------------------

    def check_assignment(
        self,
        assignment: Mapping[str, float],
        *,
        tolerance: float = 1e-5,
    ) -> list[Constraint]:
        """Return the constraints violated by ``assignment`` (empty when feasible)."""
        value_of = self._value_lookup(assignment)
        return [
            self._constraint(row)
            for row in range(self.num_constraints)
            if not self._row_satisfied(row, value_of, tolerance)
        ]

    def _value_lookup(self, assignment: Mapping[str, float]):  # type: ignore[no-untyped-def]
        """Column index -> assigned value, resolved as :meth:`LinExpr.evaluate` does."""
        named = dict(assignment)
        variables = self._variables
        resolved: dict[int, float] = {}

        def value_of(column: int) -> float:
            value = resolved.get(column)
            if value is None:
                variable = variables[column]
                if variable in named:
                    value = named[variable]  # type: ignore[index]
                elif variable.name in named:
                    value = named[variable.name]
                else:
                    raise ModelError(f"assignment missing variable '{variable.name}'")
                value = resolved[column] = float(value)
            return value

        return value_of

    def _row_satisfied(self, row: int, value_of, tolerance: float) -> bool:  # type: ignore[no-untyped-def]
        """:meth:`Constraint.satisfied_by` of one row, on the flat buffers."""
        rhs = self._rhs[row]
        total = -rhs + rhs
        begin, end = self._indptr[row], self._indptr[row + 1]
        for column, coeff in zip(self._cols[begin:end], self._vals[begin:end]):
            total += coeff * value_of(column)
        sense = self._senses[row]
        if sense == LE:
            return total <= rhs + tolerance
        if sense == GE:
            return total >= rhs - tolerance
        return abs(total - rhs) <= tolerance

    def objective_value(self, assignment: Mapping[str, float]) -> float:
        """Evaluate the objective under a (named) assignment."""
        return self._objective.evaluate(assignment)

    def evaluate_solution(self, solution: Solution, *, tolerance: float = 1e-5) -> bool:
        """Whether a solver solution satisfies every constraint."""
        if not solution:
            return False
        return not self.check_assignment(solution.values, tolerance=tolerance)

    # -- misc -----------------------------------------------------------------------

    def summary(self) -> dict[str, int]:
        """Size statistics used by the experiment reports."""
        return {
            "variables": self.num_variables,
            "integer_variables": self.num_integer_variables,
            "constraints": self.num_constraints,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Model({self.name!r}, vars={self.num_variables}, "
            f"int={self.num_integer_variables}, cons={self.num_constraints})"
        )


def variable_names(variables: Iterable[Variable]) -> list[str]:
    """Names of an iterable of variables (helper for tests)."""
    return [variable.name for variable in variables]
