"""The direct HiGHS call against ``scipy.optimize.milp`` with the same options.

``HighsSolver`` hands each presolved model to SciPy's HiGHS binding
(``scipy.optimize._highspy._core``) row-wise itself instead of calling
``scipy.optimize.milp``, which wraps the same binding.  Given the same options
(relative gap, time limit, HiGHS presolve, and the feasibility-jump heuristic
off, which ``milp`` forwards verbatim with a ``RuntimeWarning``) both must
report the same status, message, objective and assignment, bit for bit.  The
status is compared through the translation the backend applied to ``milp``'s
result before it called the binding directly (:func:`_milp_status`).

Inputs: hypothesis-drawn models (integer and LP-only, with and without rows,
feasible, infeasible and unbounded), hand-built edge cases, and every
presolved encode of the golden encoder grid of
``tests/core/test_encoder_matrices.py``.

Only SciPy 1.17.1 is verified.  Another SciPy may move the binding or rename
the option; :func:`test_binding_and_options_exist` says which.
"""

from __future__ import annotations

import importlib.util
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize, sparse

from repro.core.config import EncodingConfig, QFixConfig
from repro.milp import Model
from repro.milp.presolve import presolve
from repro.milp.solution import SolveStatus
from repro.milp.solvers import scipy_backend
from repro.milp.solvers.scipy_backend import FEASIBILITY_JUMP, HighsRun, HighsSolver, run_highs

_highs = scipy_backend._highs
MIP_GAP = 1e-6


def _milp(matrices, *, time_limit=None, presolve=True):
    """``scipy.optimize.milp`` on ``matrices`` with the backend's options."""
    A = matrices["A"]
    options = {"mip_rel_gap": MIP_GAP, FEASIBILITY_JUMP: False}
    if time_limit is not None:
        options["time_limit"] = time_limit
    if not presolve:
        options["presolve"] = False
    constraints = None
    if A.shape[0] > 0:
        constraints = optimize.LinearConstraint(A, matrices["lb_con"], matrices["ub_con"])
    with warnings.catch_warnings():
        # milp warns that it passes the feasibility-jump option on verbatim.
        warnings.filterwarnings("ignore", "Unrecognized options", RuntimeWarning)
        return optimize.milp(
            c=matrices["c"],
            constraints=constraints,
            bounds=optimize.Bounds(matrices["lb_var"], matrices["ub_var"]),
            integrality=matrices["integrality"],
            options=options,
        )


def _milp_status(code: int, has_x: bool) -> SolveStatus:
    """The backend's translation of ``milp``'s status code, before the direct call."""
    if code == 0:
        return SolveStatus.OPTIMAL
    if code == 1:
        return SolveStatus.FEASIBLE if has_x else SolveStatus.TIME_LIMIT
    if code == 2:
        return SolveStatus.INFEASIBLE
    if code == 3:
        return SolveStatus.UNBOUNDED
    return SolveStatus.ERROR


def _bits(value) -> bytes:
    return np.asarray(value, dtype=np.float64).tobytes()


def assert_same_as_milp(matrices, *, time_limit=None, presolve=True) -> HighsRun:
    run = run_highs(matrices, mip_gap=MIP_GAP, time_limit=time_limit, presolve=presolve)
    reference = _milp(matrices, time_limit=time_limit, presolve=presolve)
    assert run.message == reference.message
    assert run.status is _milp_status(reference.status, reference.x is not None)
    assert (run.x is None) == (reference.x is None), (run.message, reference.message)
    if reference.x is not None:
        assert _bits(run.x) == _bits(reference.x)
    assert (run.objective is None) == (reference.fun is None)
    if reference.fun is not None:
        assert _bits(run.objective) == _bits(reference.fun)
    return run


def _matrices(dense, c, lb_var, ub_var, lb_con, ub_con, integrality):
    dense = np.asarray(dense, dtype=float).reshape(len(lb_con), len(c))
    return {
        "c": np.asarray(c, dtype=float),
        "A": sparse.csr_matrix(dense),
        "lb_con": np.asarray(lb_con, dtype=float),
        "ub_con": np.asarray(ub_con, dtype=float),
        "lb_var": np.asarray(lb_var, dtype=float),
        "ub_var": np.asarray(ub_var, dtype=float),
        "integrality": np.asarray(integrality, dtype=np.int64),
    }


# -- the binding ---------------------------------------------------------------------------


def test_binding_and_options_exist():
    highs = _highs._Highs()
    for name in ("output_flag", "mip_rel_gap", "time_limit", "presolve", FEASIBILITY_JUMP):
        status, _ = highs.getOptionType(name)
        assert status == _highs.HighsStatus.kOk, (
            f"the HiGHS of SciPy {scipy.__version__} has no option {name!r}; "
            "HighsSolver sets it on every solve (verified with SciPy 1.17.1 only)"
        )


# -- the status table ------------------------------------------------------------------------


@pytest.mark.parametrize(
    "model_status", list(_highs.HighsModelStatus.__members__.values()), ids=str
)
def test_status_table_matches_milp_translation(model_status):
    from scipy.optimize._linprog_highs import _highs_to_scipy_status_message

    code, message = _highs_to_scipy_status_message(model_status, "detail")
    without = HighsRun(model_status, "detail")
    holding = HighsRun(model_status, "detail", x=[0.0], objective=0.0)
    assert without.message == holding.message == message
    assert without.status is _milp_status(code, False)
    assert holding.status is _milp_status(code, True)


# -- models ------------------------------------------------------------------------------------

INF = np.inf

EDGE_CASES = {
    # x + y >= 1, x, y in [0, 5] integral: optimal.
    "integer": _matrices([[1, 1]], [1, 2], [0, 0], [5, 5], [1], [INF], [1, 1]),
    # The same model without integrality.
    "lp-only": _matrices([[1, 1]], [1, 2], [0, 0], [5, 5], [1], [INF], [0, 0]),
    "zero-rows": _matrices([], [1, -1], [0, -3], [2, 3], [], [], [1, 0]),
    "zero-rows-unbounded": _matrices([], [-1], [0], [INF], [], [], [0]),
    "zero-rows-unbounded-integer": _matrices([], [-1], [0], [INF], [], [], [1]),
    # x >= 2 and x <= 1.
    "infeasible": _matrices([[1], [1]], [1], [-INF], [INF], [2, -INF], [INF, 1], [0]),
    # 2x == 1 with x integral.
    "infeasible-integer": _matrices([[2]], [1], [-10], [10], [1], [1], [1]),
    # min -x - y subject to x - y <= 1, both unbounded above.
    "unbounded": _matrices([[1, -1]], [-1, -1], [0, 0], [INF, INF], [-INF], [1], [0, 0]),
    "unbounded-integer": _matrices([[1, -1]], [-1, -1], [0, 0], [INF, INF], [-INF], [1], [1, 0]),
}


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
@pytest.mark.parametrize("presolve_on", [True, False], ids=["presolve", "no-presolve"])
def test_edge_cases_match_milp(case, presolve_on):
    assert_same_as_milp(EDGE_CASES[case], time_limit=60.0, presolve=presolve_on)


def test_edge_cases_cover_every_outcome():
    statuses = {
        run_highs(matrices, mip_gap=MIP_GAP).model_status for matrices in EDGE_CASES.values()
    }
    model = _highs.HighsModelStatus
    assert {model.kOptimal, model.kInfeasible, model.kUnbounded} <= statuses


_COEFFICIENTS = st.sampled_from([0.0, 0.0, -3.0, -1.0, -0.5, 0.5, 1.0, 2.0, 3.5])


@st.composite
def models(draw):
    n = draw(st.integers(1, 6))
    m = draw(st.integers(0, 6))
    integer = draw(st.booleans())
    dense = [[draw(_COEFFICIENTS) for _ in range(n)] for _ in range(m)]
    c = [draw(st.sampled_from([-2.0, -1.0, 0.0, 0.5, 1.0, 3.0])) for _ in range(n)]
    lb_var, ub_var = [], []
    for _ in range(n):
        lower = draw(st.sampled_from([-INF, -5.0, -1.5, 0.0]))
        upper = draw(st.sampled_from([0.0, 2.5, 6.0, INF]))
        lb_var.append(min(lower, upper))
        ub_var.append(max(lower, upper))
    lb_con, ub_con = [], []
    for _ in range(m):
        kind = draw(st.sampled_from(["le", "ge", "eq", "range"]))
        value = draw(st.sampled_from([-4.0, -1.0, 0.0, 1.0, 2.5, 7.0]))
        if kind == "le":
            lb_con.append(-INF), ub_con.append(value)
        elif kind == "ge":
            lb_con.append(value), ub_con.append(INF)
        elif kind == "eq":
            lb_con.append(value), ub_con.append(value)
        else:
            lb_con.append(value), ub_con.append(value + draw(st.sampled_from([0.5, 3.0])))
    integrality = [int(integer and draw(st.booleans())) for _ in range(n)]
    return _matrices(dense, c, lb_var, ub_var, lb_con, ub_con, integrality)


@settings(max_examples=300, deadline=None)
@given(matrices=models(), presolve_on=st.booleans(), limited=st.booleans())
def test_drawn_models_match_milp(matrices, presolve_on, limited):
    assert_same_as_milp(
        matrices, time_limit=60.0 if limited else None, presolve=presolve_on
    )


# -- the encoder grid -------------------------------------------------------------------------


def _encoder_grid():
    """``tests/core/test_encoder_matrices.py``, loaded under a private name."""
    path = Path(__file__).resolve().parents[1] / "core" / "test_encoder_matrices.py"
    spec = importlib.util.spec_from_file_location("_encoder_matrices_grid", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GRID = _encoder_grid()

#: One case per distinct golden digest: cases whose delete encodings digest
#: alike encode identical models.
GRID_CASES = sorted({digest: case for case, digest in sorted(GRID.EXPECTED.items())}.values())


def _slow(case: str, matrices) -> bool:
    """The whole-log TATP encode (2,912 rows after presolve) takes about 30 s
    per solve on a 2-core machine; it is compared under ``-m slow``."""
    return case == "tatp" and matrices["A"].shape[0] > 2000


def _grid_models(case: str, delete_encoding: str):
    """The presolved encodes of one golden-grid case that presolve does not reject."""
    scenario = GRID._scenario(case)
    config = QFixConfig(encoding=EncodingConfig(delete_encoding=delete_encoding))
    for encoder in GRID._encoders(scenario, config):
        matrices = encoder.encode().model.to_matrices()
        if len(matrices["c"]) == 0:
            continue
        reduction = presolve(matrices)
        if not reduction.infeasible:
            yield reduction.matrices


@pytest.mark.parametrize("case,delete_encoding", GRID_CASES)
def test_encoder_grid_matches_milp(case, delete_encoding):
    models = [m for m in _grid_models(case, delete_encoding) if not _slow(case, m)]
    assert models
    for matrices in models:
        assert_same_as_milp(matrices, time_limit=60.0)


@pytest.mark.slow
def test_whole_log_tatp_encode_matches_milp():
    (case, delete_encoding), = [key for key in GRID_CASES if key[0] == "tatp"]
    models = [m for m in _grid_models(case, delete_encoding) if _slow(case, m)]
    assert models
    for matrices in models:
        assert_same_as_milp(matrices)


# -- what every solve runs with -----------------------------------------------------------


class _Recording(_highs._Highs):
    """A HiGHS instance that records its options when it runs."""

    runs: list[dict[str, object]] = []

    def run(self):
        self.runs.append(
            {
                name: self.getOptionValue(name)[1]
                for name in (FEASIBILITY_JUMP, "output_flag", "presolve", "mip_rel_gap")
            }
        )
        return super().run()


def _small_model() -> Model:
    model = Model("reference")
    x = model.add_integer("x", lower=0, upper=10)
    y = model.add_continuous("y", lower=0, upper=10)
    model.add_ge(x + y, 3.5, "cover")
    model.add_le(x - y, 2.0, "spread")
    model.set_objective(2 * x + y)
    return model


@pytest.fixture()
def recording(monkeypatch):
    runs: list[dict[str, object]] = []
    monkeypatch.setattr(_Recording, "runs", runs)
    monkeypatch.setattr(_highs, "_Highs", _Recording)
    return runs


def test_every_solve_runs_without_feasibility_jump_and_prints_nothing(recording, capfd):
    solution = HighsSolver(time_limit=60.0).solve(_small_model())
    assert solution.status is SolveStatus.OPTIMAL, solution.message
    assert recording == [
        {FEASIBILITY_JUMP: False, "output_flag": False, "presolve": "choose", "mip_rel_gap": MIP_GAP}
    ]
    out, err = capfd.readouterr()
    assert out == "" and err == ""


def test_presolve_off_retry_keeps_feasibility_jump_off(recording, monkeypatch, capfd):
    class _FailFirst(_Recording):
        def getModelStatus(self):
            if len(self.runs) == 1:
                return _highs.HighsModelStatus.kSolveError
            return super().getModelStatus()

    monkeypatch.setattr(_highs, "_Highs", _FailFirst)
    solution = HighsSolver(time_limit=60.0).solve(_small_model())
    assert solution.status is SolveStatus.OPTIMAL, solution.message
    assert solution.stats["highs_presolve_retry"] == 1.0
    assert [run["presolve"] for run in recording] == ["choose", "off"]
    assert all(run[FEASIBILITY_JUMP] is False for run in recording)
    assert all(run["output_flag"] is False for run in recording)
    out, err = capfd.readouterr()
    assert out == "" and err == ""
