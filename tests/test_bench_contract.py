"""The benchmark's workloads against the program's API.

The workloads and their independent checks in bench/ call the program by
name; these run them on one small algebra each, so that a change of those
names or signatures fails here.  The files are loaded read-only, without adding bench/ to
sys.path."""

import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_covariance_workload_on_rpq21():
    workloads, checks = _load("workloads"), _load("checks")
    seed = 3
    inputs = [row for row in workloads.setup_covariance(seed) if row[:2] == (2, 1)]
    ops = workloads.Ops()
    built = workloads.run_covariance(inputs, ops)
    # 10 F, 10 bracket N = 1, 1 bracket N = 2 and 45 Lie-bracket certificates
    assert len(ops.ids) == 66
    assert ops.failed == []
    # the check includes the wrong-weight test against vacuous certificates
    ok, detail = checks.check_covariance(inputs, built, seed)
    assert ok is True, detail


def test_main_identity_workload_on_sym2():
    workloads, checks = _load("workloads"), _load("checks")
    seed = 3
    inputs = [row for row in workloads.setup_main_identity(seed) if row[0] == "sym:2"]
    ops = workloads.Ops()
    actions = workloads.run_main_identity(inputs, ops)
    # 20 extract_Dst actions and one integer-power grid
    assert len(ops.ids) == 21
    assert ops.failed == []
    # the check reads the ParamPoly terms of det_poly, wave_poly and the actions
    pytest.importorskip("sympy")
    ok, detail = checks.check_main_identity(inputs, actions, seed)
    assert ok is True, detail


def test_zeta_workload_on_rpq21():
    workloads, checks = _load("workloads"), _load("checks")
    seed = 3
    cases, flips = workloads.setup_zeta(seed)
    # the closed-form gaussian, one odd case and every flip
    inputs = ([c for c in cases if c[0] in ("gauss-0", "odd1-0")], flips)
    ops = workloads.Ops()
    outputs = workloads.run_zeta(inputs, ops)
    # 2 functional equations, the quadric flip and 4 euclidean flips
    assert len(ops.ids) == 7
    assert ops.failed == []
    # the check compares the gaussian against its own closed-form transform
    ok, detail = checks.check_zeta(inputs, outputs, seed)
    assert ok is True, detail


def test_tracer_counts_the_grid_oracle_and_the_pairings():
    # the benchmark's tracer wraps public names only: the grid oracle must be
    # called as brute_force_wave, and a functional-equation check pairs g and
    # its transform once each
    from covjord import detpower, jordan, zeta
    from covjord.polynomials import MPoly, double_vars

    alg = jordan.algebra_from_spec("rpq:2,1")
    dvars = double_vars(alg.vars)
    f = MPoly.variable(dvars, dvars[0]) * MPoly.variable(dvars, dvars[-1]) + MPoly.constant(dvars, 2)
    s_values, t_values = (2, 3), (2,)
    tracer = _load("tracer").Tracer()
    tracer.install()
    try:
        assert detpower.dst_grid_check(alg, f, s_values, t_values)
        zeta.numeric_zeta_check(2, 1, -0.7, zeta.GaussianTest.make(3, 1))
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
    assert metrics["detpower.brute_force_wave.calls"] == len(s_values) * len(t_values)
    assert metrics["zeta.pair_power_with.calls"] == 2
