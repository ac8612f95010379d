"""Golden digests of the encoder's matrices.

Every encode of a fixed, seeded set of problems is exported with
``Model.to_matrices()`` and hashed byte for byte: the objective ``c``, the CSR
``data``/``indices``/``indptr`` arrays in stored order, the COO triplets of
``to_sparse_arrays()`` (each row's terms in insertion order), the row and column
bounds, ``integrality`` and ``bigm_rows``, plus every variable and constraint
name.  The expected digests were recorded from the object-per-term model
builder this encoder replaced, so they pin the flat row buffers to exactly
the floats (including the sign of every zero, e.g. a right-hand side of
``-(c + k * -1.0)`` that comes out as ``-0.0``), the term order and the names
that builder produced.  Nothing is solved: the digests depend on the encoder
and the model export only.

Cases cover every registered scenario family, a mixed UPDATE/INSERT/DELETE
synthetic log, and both delete encodings.  Each case encodes single-query
windows with tuple slicing (the incremental diagnoser), a two-query window
with an attribute subset and query candidates, the whole log (the basic
diagnoser), and a refinement-style encode with soft rows on non-complaint
tuples.

The digests are computed in a child interpreter with ``PYTHONHASHSEED=0``:
the sentinel DELETE encoding walks the encoded attributes in ``frozenset``
order, so the variables it creates come out in an order that depends on the
string hash seed, and a digest is only reproducible under a fixed one.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core.config import EncodingConfig, QFixConfig
from repro.core.encoder import LogEncoder
from repro.core.refinement import PARAM_WEIGHT
from repro.workload.scenario import build_scenario
from repro.workload.spec import ScenarioSpec, available_scenario_families, build_spec_scenario
from repro.workload.synthetic import SyntheticConfig, SyntheticWorkloadGenerator

#: Small specs per family: big enough for symbolic steps after the window,
#: small enough that encoding the whole log stays fast.
FAMILY_SPECS = {
    "synthetic": ScenarioSpec("synthetic", 24, 12, "workload", "late", seed=11),
    "synthetic-relative": ScenarioSpec("synthetic-relative", 24, 12, "workload", "late", seed=12),
    "synthetic-point": ScenarioSpec("synthetic-point", 30, 12, "workload", "early", seed=13),
    "long-log": ScenarioSpec("long-log", 16, 60, "set-clause", "late", seed=14),
    "tpcc": ScenarioSpec("tpcc", 20, 12, "workload", "early", seed=15),
    "tatp": ScenarioSpec("tatp", 20, 12, "set-clause", "late", seed=16),
}

EXPECTED = {
    ("synthetic", "sentinel"): "dd124e181baa6f672e25bda2e106e55c75c1fba31b44d2a141764d04a10d2629",
    ("synthetic", "alive"): "dd124e181baa6f672e25bda2e106e55c75c1fba31b44d2a141764d04a10d2629",
    ("synthetic-relative", "sentinel"): "9e50174ca98c59789902a578ad1cd40dfe10b301797df6c692e2d0dd8b9ec3cf",
    ("synthetic-relative", "alive"): "9e50174ca98c59789902a578ad1cd40dfe10b301797df6c692e2d0dd8b9ec3cf",
    ("synthetic-point", "sentinel"): "8322392c7bd3cfa1bcfccc4e0b6d8fe4dc237f637188bb162ce36d1d8d422b9b",
    ("synthetic-point", "alive"): "8322392c7bd3cfa1bcfccc4e0b6d8fe4dc237f637188bb162ce36d1d8d422b9b",
    ("long-log", "sentinel"): "db7c1cc9c7b6d4716c6fefc42054f736732b176cf4892e4b71aad7efabde7167",
    ("long-log", "alive"): "db7c1cc9c7b6d4716c6fefc42054f736732b176cf4892e4b71aad7efabde7167",
    ("tpcc", "sentinel"): "2e38cfbe757797b74de8eca78ab05c0439bd12e6cd5aed509a48c8c7d6fdaf71",
    ("tpcc", "alive"): "2e38cfbe757797b74de8eca78ab05c0439bd12e6cd5aed509a48c8c7d6fdaf71",
    ("tatp", "sentinel"): "5c041ab627919c1b7c870153b6d83be469b7ab173d283ec9ec486291217e61df",
    ("tatp", "alive"): "5c041ab627919c1b7c870153b6d83be469b7ab173d283ec9ec486291217e61df",
    ("mixed", "sentinel"): "d8171762d2022103f9b4a9fccc6df586dbaf1a9b7d7d5959c555e1cc86bad92c",
    ("mixed", "alive"): "de81c54146ee390caf7ddff6ce5a8cd135e2bd1bf946fc15f621b90eca06426a",
}


def _mixed_scenario():
    """A synthetic log of UPDATEs, INSERTs and DELETEs with one late corruption."""
    workload = SyntheticWorkloadGenerator(
        SyntheticConfig(
            n_tuples=16,
            n_attributes=3,
            domain_max=20,
            n_queries=14,
            query_type="mixed",
            selectivity=0.3,
            seed=5,
        )
    ).generate()
    for index in range(len(workload.log) - 2, 0, -1):
        scenario = build_scenario(workload, [index], rng=101 + index)
        if len(scenario.complaints) > 0:
            return scenario
    raise AssertionError("no corruption of the mixed log produced a complaint")


def _scenario(case: str):
    if case == "mixed":
        return _mixed_scenario()
    scenario = build_spec_scenario(FAMILY_SPECS[case])
    assert len(scenario.complaints) > 0, case
    return scenario


def _encoders(scenario, config):
    """The encodes of one case, in a fixed order."""
    schema, log = scenario.schema, scenario.corrupted_log
    complaints = scenario.complaints
    common = (schema, scenario.initial, scenario.dirty, log, complaints, config)
    size = len(log)
    complaint_rids = sorted(complaints.rids)
    for index in range(size - 1, max(size - 4, -1), -1):
        yield LogEncoder(*common, parameterized=[index], rids=complaint_rids)
    attributes = sorted(complaints.complaint_attributes(scenario.dirty))
    extra = [name for name in schema.attribute_names if name not in attributes][:1]
    yield LogEncoder(
        *common,
        parameterized=[size - 2, size - 1],
        encoded_attributes=attributes + extra,
        candidate_indices=list(range(0, size, 2)) + [size - 1],
    )
    yield LogEncoder(*common, parameterized=list(range(size)))
    others = [rid for rid in scenario.initial.rids if rid not in complaints.rids][:6]
    yield LogEncoder(
        *common,
        parameterized=[size - 2],
        rids=sorted(set(complaint_rids) | set(others)),
        soft_rids={rid: 1.0 for rid in others},
        param_objective_weight=PARAM_WEIGHT,
    )


def _update(digest, array) -> None:
    array = np.ascontiguousarray(array)
    digest.update(f"{array.dtype.str}{array.shape}".encode())
    digest.update(array.tobytes())


def _digest_model(digest, model) -> None:
    matrices = model.to_matrices()
    A = matrices["A"]
    for array in (A.data, A.indices, A.indptr):
        _update(digest, array)
    digest.update(repr(A.shape).encode())
    for key in ("c", "lb_con", "ub_con", "lb_var", "ub_var", "integrality", "bigm_rows"):
        _update(digest, matrices[key])
    # The COO triplets keep each row's terms in insertion order, which the
    # column-sorted CSR export hides.
    triplets = model.to_sparse_arrays()
    for key in ("rows", "cols", "data"):
        _update(digest, triplets[key])
    for variable in model.variables:
        digest.update(f"v {variable.name}\n".encode())
    for constraint in model.constraints:
        digest.update(f"c {constraint.name}\n".encode())


def case_digest(case: str, delete_encoding: str) -> str:
    scenario = _scenario(case)
    config = QFixConfig(encoding=EncodingConfig(delete_encoding=delete_encoding))
    digest = hashlib.sha256()
    for encoder in _encoders(scenario, config):
        _digest_model(digest, encoder.encode().model)
    return digest.hexdigest()


def all_digests() -> dict[str, str]:
    return {f"{case}/{encoding}": case_digest(case, encoding) for case, encoding in EXPECTED}


@pytest.fixture(scope="module")
def digests() -> dict[str, str]:
    env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": os.pathsep.join(sys.path)}
    completed = subprocess.run(
        [sys.executable, __file__], env=env, capture_output=True, text=True, timeout=600
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout)


def test_cases_cover_every_family():
    assert set(FAMILY_SPECS) == set(available_scenario_families())


@pytest.mark.parametrize("case,delete_encoding", sorted(EXPECTED))
def test_encoder_matrices_match_golden_digest(digests, case, delete_encoding):
    assert digests[f"{case}/{delete_encoding}"] == EXPECTED[(case, delete_encoding)]


if __name__ == "__main__":
    print(json.dumps(all_digests()))
