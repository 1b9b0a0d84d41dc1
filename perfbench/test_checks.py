"""Each output check passes the program's real output and rejects a corrupted copy.

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import numpy as np
import pytest

import checks
import run


def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="module")
def capacity_outputs():
    workload = run.Capacity()
    return [workload.run(workload.inputs(rng(), i))[0] for i in range(2)]


@pytest.fixture(scope="module")
def broadcast_output():
    return run.Broadcast().run(10.2)[0]


@pytest.fixture(scope="module")
def broadcast_refs():
    return checks.full_receiver_references()


@pytest.fixture(scope="module")
def scatter_outputs():
    workload = run.Scatter()
    return [workload.run(workload.inputs(rng(), i))[0] for i in range(2)]


@pytest.fixture(scope="module")
def smearing_output():
    return run.Smearings2D().run(9.8, points=9)[0]


def test_capacity_passes(capacity_outputs):
    for output in capacity_outputs:
        assert checks.check_capacity(output, [0, 15, 29]) == []


@pytest.mark.parametrize("corrupt", ["ic", "clamp", "monotone", "top", "rows"])
def test_capacity_rejects(capacity_outputs, corrupt):
    grid, rows = capacity_outputs[1]
    rows = [list(r) for r in rows]
    if corrupt == "ic":  # found only by the brute-force sum
        rows[15][1] += 1e-7
        rows[15][2] = max(0.0, rows[15][1])
    elif corrupt == "clamp":
        rows[0][2] = rows[0][1]
    elif corrupt == "monotone":
        rows[20][1] = rows[20][2] = rows[19][2] - 1e-6
    elif corrupt == "top":
        rows[29][1] = rows[29][2] = 0.98
    else:
        del rows[3]
    assert checks.check_capacity((grid, rows), [15]) != []


def test_broadcast_passes(broadcast_output, broadcast_refs):
    assert checks.check_broadcast(broadcast_output, broadcast_refs) == []


@pytest.mark.parametrize("corrupt", ["outer_full", "inner_full", "both", "ceiling",
                                     "grid", "reference"])
def test_broadcast_rejects(broadcast_output, broadcast_refs, corrupt):
    refs = dict(broadcast_refs)
    delta, by_lambda = broadcast_output
    rows = {lam: [list(r) for r in rs] for lam, rs in by_lambda.items()}
    if corrupt == "outer_full":
        rows[1000.0][0][2] -= 1e-5
    elif corrupt == "inner_full":
        rows[10.0][-1][1] += 1e-5
    elif corrupt == "both":
        rows[10.0][1][1] = rows[10.0][1][2] = 1e-3
    elif corrupt == "ceiling":
        rows[10.0][1][2] = 0.66
    elif corrupt == "grid":
        rows[10.0][0][0] += 0.5
    else:
        refs[10.0] += 1e-5
    assert checks.check_broadcast((delta, rows), refs) != []


def test_scatter_passes(scatter_outputs):
    for output in scatter_outputs:
        assert checks.check_scatter(output) == []


@pytest.mark.parametrize("corrupt", ["reference_qubit", "range", "mismatch"])
def test_scatter_rejects(scatter_outputs, corrupt):
    rho, ic = scatter_outputs[0]
    rho = rho.copy()
    if corrupt == "reference_qubit":
        rho[0, 2] += 1e-6
        rho[2, 0] += 1e-6
    elif corrupt == "range":
        ic = 1.5
    else:
        ic += 1e-6
    assert checks.check_scatter((rho, ic)) != []


def test_smearings_pass(smearing_output):
    assert checks.check_smearings_2d(smearing_output) == []


@pytest.mark.parametrize("column, factor", [(1, 1e-8), (2, 1e-7), (3, 1e-7)])
def test_smearings_reject(smearing_output, column, factor):
    delta, rows = smearing_output
    rows = rows.copy()
    rows[4, column] += factor * np.max(np.abs(rows[:, column]))
    assert checks.check_smearings_2d((delta, rows)) != []
