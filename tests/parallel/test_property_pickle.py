"""Properties the process executor depends on, plus a serial-vs-process
differential over the harness micro grid.

The process strategy ships work across a pickle boundary, so the contract it
leans on is: everything the engine accepts — requests and configs — survives
``pickle.loads(pickle.dumps(x))`` unchanged.  Hypothesis drives the config
space; requests ride on generated scenarios.

The differential closes the loop end to end: the same seeded micro grid,
swept once with the ``serial`` executor and once with real worker processes,
must produce byte-identical ``scenario_fingerprint``s and identical oracle
verdicts — parallel deployment must never change what the harness certifies.
"""

from __future__ import annotations

import json
import pickle

from hypothesis import given, settings, strategies as st

from repro.core.config import EncodingConfig, QFixConfig
from repro.harness import get_grid, run_grid
from repro.parallel import ProcessExecutor
from repro.service.engine import DiagnosisEngine
from repro.service.types import DiagnosisRequest

encoding_strategy = st.builds(
    EncodingConfig,
    epsilon=st.sampled_from([0.5, 0.25, 1e-3]),
    domain_margin_fraction=st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
    sentinel_gap=st.floats(min_value=1.0, max_value=100.0, allow_nan=False),
    delete_encoding=st.sampled_from(["sentinel", "alive"]),
    round_integral_params=st.booleans(),
)

config_strategy = st.builds(
    QFixConfig,
    tuple_slicing=st.booleans(),
    refinement=st.booleans(),
    query_slicing=st.booleans(),
    attribute_slicing=st.booleans(),
    incremental_batch=st.integers(min_value=1, max_value=4),
    single_fault=st.booleans(),
    diagnoser=st.sampled_from(["auto", "basic", "incremental", "dectree"]),
    solver=st.sampled_from(["highs", "branch-and-bound"]),
    use_presolve=st.booleans(),
    time_limit=st.one_of(st.none(), st.floats(min_value=0.1, max_value=120.0)),
    mip_gap=st.sampled_from([1e-6, 1e-4]),
    encoding=encoding_strategy,
)

@settings(max_examples=60, deadline=None)
@given(config=config_strategy)
def test_every_accepted_config_pickle_round_trips(config):
    clone = pickle.loads(pickle.dumps(config))
    assert clone == config
    # Configs are frozen, hashable values; equality must come with hash
    # equality.
    assert hash(clone) == hash(config)


@settings(max_examples=25, deadline=None)
@given(config=config_strategy, scenario_index=st.integers(min_value=0, max_value=4))
def test_every_accepted_request_pickle_round_trips(
    config, scenario_index, scenario_pool, make_request
):
    request = make_request(scenario_pool[scenario_index], f"pickle-{scenario_index}")
    request.config = config
    clone = pickle.loads(pickle.dumps(request))
    assert clone.request_id == request.request_id
    assert clone.config == request.config
    assert clone.to_dict() == request.to_dict()
    # The worker diagnoses the same log and the same complaints.
    assert clone.log.render_sql() == request.log.render_sql()

    def complaint_keys(complaints):
        return [
            (complaint.rid, complaint.target, complaint.exists_in_dirty)
            for complaint in complaints
        ]

    assert complaint_keys(clone.complaints) == complaint_keys(request.complaints)


def test_micro_grid_identical_under_serial_and_process_executors():
    """Same seed, same cells: serial and process sweeps certify identically."""
    seed = 7
    serial_engine = DiagnosisEngine(max_workers=1, executor="serial")
    serial_report = run_grid(
        get_grid("micro", seed), grid_name="micro", seed=seed, engine=serial_engine
    )

    process_engine = DiagnosisEngine(
        max_workers=2, executor=ProcessExecutor(2, force=True)
    )
    try:
        process_report = run_grid(
            get_grid("micro", seed), grid_name="micro", seed=seed, engine=process_engine
        )
    finally:
        process_engine.close()

    # Byte-identical scenario fingerprints...
    assert json.dumps(serial_report.scenario_fingerprints, sort_keys=True) == json.dumps(
        process_report.scenario_fingerprints, sort_keys=True
    )
    # ...identical oracle verdicts...
    serial_violations = sorted(
        (v.invariant, v.cell_id, v.message) for v in serial_report.violations
    )
    process_violations = sorted(
        (v.invariant, v.cell_id, v.message) for v in process_report.violations
    )
    assert serial_violations == process_violations
    # ...and cell-for-cell identical diagnoses.
    serial_cells = {cell.cell_id: cell for cell in serial_report.cells}
    process_cells = {cell.cell_id: cell for cell in process_report.cells}
    assert set(serial_cells) == set(process_cells)
    for cell_id, serial_cell in serial_cells.items():
        process_cell = process_cells[cell_id]
        assert serial_cell.ok == process_cell.ok, cell_id
        assert serial_cell.feasible == process_cell.feasible, cell_id
        assert serial_cell.status == process_cell.status, cell_id
        assert abs(serial_cell.distance - process_cell.distance) < 1e-6, cell_id
