"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (visible with `pytest -s`) and
asserts the criterion at its stated tolerance.
"""
import math
import sys

import numpy as np

from cavityqft.analysis import (
    MeasurementDiag,
    NoiseBudget,
    brute_force_postselection_distance,
    max_photons,
    postselection_distance,
    preset_scenarios,
    sweep_success,
    total_distance,
    validate_bound_small_n,
)
from cavityqft.cavity import (
    OperatingPoint,
    quantum_dot_params,
    OutOfRangeError,
    ZeemanConfig,
    controlled_phase,
    default_operating_point,
    solve_stark_shift,
    zeeman_splitting,
)
from cavityqft.circuit import (
    H_ATOM,
    H_PHOTON,
    QuantumState,
    apply_gate,
    build_qft_program,
    embed_qft_output,
    ideal_qft_unitary,
    simulate_program,
)
from cavityqft.scheduler import TimingConfig, compile_timeline, timeline_to_program

QD = quantum_dot_params()
DELTA_0, DELTA_Z = default_operating_point(QD)


def report(criterion: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}", file=sys.stderr)
    assert ok, criterion


def test_criterion_01_operating_point():
    ok = abs(DELTA_0 - 8.64) <= 0.01
    report("criterion-01 operating-point detuning 8.64 GHz", ok)


def test_criterion_02_zeeman_consistency():
    split = zeeman_splitting(ZeemanConfig(g_e=0.43, g_h=0.21, B=1.93))
    ok = abs(split - 2 * DELTA_0) <= 0.005 * 2 * DELTA_0
    report("criterion-02 Zeeman splitting matches 2*delta_0 at B=1.93 T", ok)


def test_criterion_03_exact_pi_point():
    res = controlled_phase(QD, OperatingPoint(DELTA_0, DELTA_Z, 0.0))
    ok = abs(res.delta_theta - math.pi) <= 1e-9
    report("criterion-03 controlled phase is pi at zero Stark shift", ok)


def test_criterion_04_tuning_reach():
    ok = True
    for k in range(1, 15):
        try:
            s = solve_stark_shift(QD, DELTA_0, DELTA_Z, k, 1000.0)
        except OutOfRangeError:
            ok = False
            break
        if k >= 8:
            predicted = QD.kappa * QD.cooperativity * math.sqrt(2**k / (2 * math.pi))
            ok = ok and abs(s - predicted) <= 0.1 * predicted
    try:
        solve_stark_shift(QD, DELTA_0, DELTA_Z, 15, 1000.0)
        ok = False
    except OutOfRangeError:
        pass
    report("criterion-04 Stark tuning reaches k<=14 and fails at k=15", ok)


def test_criterion_05_swap_identity():
    dim = 4
    got = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        vec = np.zeros(dim, dtype=complex)
        vec[col] = 1.0
        state = QuantumState(1, vec)
        # three CR_1 reflections, each followed by Hadamards on atom and photon
        for _ in range(3):
            apply_gate(state, 1, 1, H_ATOM | H_PHOTON)
        got[:, col] = state.data
    swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
    ok = np.linalg.norm(got - swap, ord=2) < 1e-12
    report("criterion-05 reflection-Hadamard product equals SWAP", ok)


def test_criterion_06_qft_equivalence():
    ok = True
    for n in range(1, 9):
        program = build_qft_program(n, n)
        qft = ideal_qft_unitary(n)
        for x in range(2**n):
            bits = [(x >> (n - 1 - b)) & 1 for b in range(n)]
            out = simulate_program(program, QuantumState.basis(n, bits))
            if np.max(np.abs(out.data - embed_qft_output(n, qft[:, x]))) > 1e-10:
                ok = False
                break
        if not ok:
            break
    report("criterion-06 streaming program equals ideal transform for n<=8", ok)


def test_criterion_07_scheduler_equivalence():
    ok = True
    for n in range(1, 17):
        for K in range(1, n + 1):
            timeline = compile_timeline(TimingConfig.default(n), K)
            if not np.array_equal(timeline_to_program(timeline), build_qft_program(n, K)):
                ok = False
                break
        if not ok:
            break
    report("criterion-07 timeline compiles to the reference program for n<=16", ok)


def test_criterion_08_postselection_oracle():
    rng = np.random.default_rng(20260824)
    ok = True
    for dim in (2, 3, 4):
        for _ in range(50):
            lam = np.sort(rng.uniform(0.05, 1.0, dim))[::-1]
            lam /= lam[0]
            m = MeasurementDiag(tuple(lam))
            closed = postselection_distance(m)
            bare = brute_force_postselection_distance(m, trials=12, ancilla=False)
            extended = brute_force_postselection_distance(m, trials=12, ancilla=True)
            if abs(closed - bare) > 1e-4 or abs(extended - bare) > 1e-6:
                ok = False
                break
        if not ok:
            break
    report("criterion-08 closed-form distance matches brute-force oracle", ok)


def test_criterion_09_budget_crossings():
    capacity = max_photons(NoiseBudget(T2_us=5.0, p=0.01, T_cycle_ns=5.0))
    raw_50 = total_distance(50, NoiseBudget(T2_us=math.inf, p=0.01)).raw
    ok = capacity in (29, 30) and abs(raw_50) < 1e-12
    report("criterion-09 photon capacity 29-30 at T2=5us and zero bound at N=50", ok)


def test_criterion_10_cooperativity_sweep():
    scenarios, n_values = preset_scenarios("fig4")
    rows = sweep_success(n_values, scenarios)
    curves: dict[str, list[float]] = {}
    for row in rows:
        curves.setdefault(row["scenario_id"], []).append(row["P_s"])
    ok = all(a >= b for c in curves.values() for a, b in zip(c, c[1:]))
    ordered = [curves[f"C={c:g}"] for c in (57.62, 100.0, 200.0, 400.0)]
    for low, high in zip(ordered, ordered[1:]):
        ok = ok and all(a <= b + 1e-12 for a, b in zip(low, high))
    ok = ok and abs(curves["C=400"][29] - curves["ideal"][29]) < 0.01
    report("criterion-10 success curves ordered in C and saturated by C=400", ok)


def test_criterion_11_bound_validation():
    ok = True
    for n in (2, 3):
        for gates in ("ideal", QD):
            budget = NoiseBudget(T2_us=20.0, p=0.01, K=n, gates=gates)
            if gates == "ideal":
                budget = NoiseBudget(T2_us=20.0, p=0.01)
            result = validate_bound_small_n(n, budget, n_random=20)
            ok = ok and result.ok
    report("criterion-11 simulated error stays below the distance budget", ok)


def test_criterion_12_figure_tables_reproducible():
    # closed-form budget evaluation: full tables N<=50 regenerate identically
    snapshots = []
    for _ in range(2):
        chunks = []
        for preset in ("fig4", "fig5a", "fig5b"):
            scenarios, n_values = preset_scenarios(preset)
            rows = sweep_success(n_values, scenarios)
            assert len(rows) == len(scenarios) * 50
            assert all(math.isfinite(row["D"]) for row in rows)
            chunks.append(repr(rows))
        snapshots.append("".join(chunks))
    ok = snapshots[0] == snapshots[1]
    report("criterion-12 published sweep tables regenerate deterministically", ok)
