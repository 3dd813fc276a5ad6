"""Error-budget terms, distance oracles, sweeps, and bound validation."""
import dataclasses
import gc
import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cavityqft import analysis, cavity
from cavityqft.analysis import (
    DegenerateOperator,
    GateLoss,
    MeasurementDiag,
    NoiseBudget,
    Scenario,
    brute_force_postselection_distance,
    cavity_params_for_cooperativity,
    diamond_distance_kraus,
    max_photons,
    postselection_distance,
    preset_scenarios,
    scenario_from_config,
    schedule_distance,
    simulate_noisy_protocol,
    solve_gate_losses,
    sweep_success,
    term_dh,
    term_dk,
    term_dk_approx,
    term_dk_star,
    term_dp,
    total_distance,
    trace_distance,
    validate_bound_small_n,
)
from cavityqft.cavity import OperatingPoint, default_operating_point, quantum_dot_params
from cavityqft.circuit import QuantumState
from cavityqft.scheduler import (
    H_ATOM,
    REFLECT,
    TimingConfig,
    compile_timeline,
    validate_timeline,
)


# --- individual terms -----------------------------------------------------


def test_term_dp():
    assert term_dp(5.0, math.inf) == 0.0
    assert term_dp(5.0, 5.0) == pytest.approx(0.5 * (1 - math.exp(-1e-3)))


def test_term_dh_is_p():
    assert term_dh(0.01) == 0.01


def test_term_dk_star_values():
    assert term_dk_star(1) == pytest.approx(1.0)  # sin(pi/2)
    assert term_dk_star(2) == pytest.approx(math.sin(math.pi / 4))


def test_term_dk_star_asymptote():
    # approaches pi/2^k: near-identity gates are exponentially cheap to drop
    for k in (10, 15, 20):
        assert term_dk_star(k) / (math.pi / 2**k) == pytest.approx(1.0, rel=1e-4)


def test_term_dk_from_magnitudes():
    assert term_dk(1.0, 1.0) == 0.0
    assert term_dk(0.9, 0.95) == pytest.approx((1 - 0.9) / (1 + 0.9))


def test_exact_dk_near_inverse_2C():
    qd = quantum_dot_params()
    losses = solve_gate_losses(qd, 1)
    C = qd.cooperativity
    assert losses[1].dk_exact == pytest.approx(1 / (2 * C), rel=0.05)


def test_approx_dk_much_smaller_than_exact():
    # the printed small-loss estimate underestimates the exact distance by ~2C
    qd = quantum_dot_params()
    losses = solve_gate_losses(qd, 1)
    assert losses[1].dk_approx < losses[1].dk_exact / 10


# --- post-selection distance ----------------------------------------------


def test_measurement_diag_validation():
    with pytest.raises(ValueError):
        MeasurementDiag(())
    with pytest.raises(ValueError):
        MeasurementDiag((0.5, 1.0))  # not sorted descending
    with pytest.raises(ValueError):
        MeasurementDiag((1.0, -0.1))


def test_postselection_distance_closed_form():
    assert postselection_distance(MeasurementDiag((1.0, 1.0))) == 0.0
    assert postselection_distance(MeasurementDiag((1.0, 0.0))) == 1.0
    assert postselection_distance(MeasurementDiag((1.0, 0.5))) == pytest.approx(1 / 3)


def test_postselection_distance_degenerate():
    with pytest.raises(DegenerateOperator):
        postselection_distance(MeasurementDiag((0.0, 0.0)))


def test_oracle_matches_closed_form():
    rng = np.random.default_rng(17)
    for dim in (2, 3, 4):
        for _ in range(5):
            lam = np.sort(rng.uniform(0.3, 1.0, dim))[::-1]
            m = MeasurementDiag(tuple(lam))
            closed = postselection_distance(m)
            oracle = brute_force_postselection_distance(m, trials=15, seed=1)
            assert oracle == pytest.approx(closed, abs=1e-4)


def test_oracle_ancilla_modes_agree():
    m = MeasurementDiag((1.0, 0.9, 0.7))
    bare = brute_force_postselection_distance(m, trials=20, ancilla=False)
    extended = brute_force_postselection_distance(m, trials=20, ancilla=True)
    assert extended == pytest.approx(bare, abs=1e-6)


def test_oracle_dimension_cap():
    with pytest.raises(ValueError):
        brute_force_postselection_distance(MeasurementDiag((1.0,) * 7))


def _complex_cos_sq(x, weights):
    """|<psi|M psi>|^2 / (|psi|^2 |M psi|^2) in complex arithmetic, psi = a + ib."""
    d = len(weights)
    psi = x[:d] + 1j * x[d:]
    norm_sq = np.vdot(psi, psi).real
    mpsi = weights * psi
    overlap = np.vdot(psi, mpsi).real
    mnorm_sq = np.vdot(mpsi, mpsi).real
    if norm_sq < 1e-300 or mnorm_sq < 1e-300:
        return 1.0
    return overlap * overlap / (norm_sq * mnorm_sq)


@settings(max_examples=50, deadline=None)
@given(
    lam=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=6),
    extended=st.booleans(),
    data=st.data(),
)
def test_postselection_objective_gradient(lam, extended, data):
    lam = np.array(lam)
    weights = np.kron(lam, np.ones(len(lam))) if extended else lam
    weights_sq = weights * weights
    size = 2 * len(weights)
    x = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=size, max_size=size)))
    norm = np.linalg.norm(x)
    assume(norm >= 1e-3)
    f, grad = analysis._postselection_cos_sq(x, weights, weights_sq)
    assert f == pytest.approx(_complex_cos_sq(x, weights), abs=1e-14)
    # f is scale-invariant, so its gradient scales as 1/|x| and the central
    # difference error as step^2/|x|^3: step and tolerance scale with |x|.
    step = 1e-6 * norm
    central = np.empty(size)
    for i in range(size):
        e = np.zeros(size)
        e[i] = step
        f_plus, _ = analysis._postselection_cos_sq(x + e, weights, weights_sq)
        f_minus, _ = analysis._postselection_cos_sq(x - e, weights, weights_sq)
        central[i] = (f_plus - f_minus) / (2 * step)
    np.testing.assert_allclose(grad, central, rtol=0, atol=1e-6 / norm)
    f0, grad0 = analysis._postselection_cos_sq(np.zeros(size), weights, weights_sq)
    assert f0 == 1.0
    assert np.array_equal(grad0, np.zeros(size))


def test_diamond_oracle_dephasing_channel():
    p = 0.03
    ident = [np.eye(2)]
    dephase = [math.sqrt(1 - p) * np.eye(2), math.sqrt(p) * np.diag([1.0, -1.0])]
    assert diamond_distance_kraus(ident, dephase, trials=10) == pytest.approx(p, abs=1e-6)


# --- budget ---------------------------------------------------------------


@pytest.mark.parametrize(
    "field",
    [
        {"T2_us": math.nan},
        {"p": math.nan},
        {"T_cycle_ns": math.nan},
        {"T_cycle_ns": -1.0},
        {"T_cycle_ns": 0.0},
    ],
)
def test_budget_rejects_invalid_fields(field):
    with pytest.raises(ValueError):
        NoiseBudget(**{"T2_us": 20.0, "p": 0.01, **field})
    # an infinite coherence time stays a valid budget
    assert total_distance(3, NoiseBudget(T2_us=math.inf, p=0.01)).d_p == 0.0


def test_total_distance_zero_noise():
    report = total_distance(1, NoiseBudget(T2_us=math.inf, p=0.0))
    assert report.D == 0.0
    assert report.P_s == 1.0


def test_total_distance_ideal_terms():
    report = total_distance(10, NoiseBudget(T2_us=20.0, p=0.01))
    expect = 100 * term_dp(5.0, 20.0) + 20 * 0.01
    assert report.D == pytest.approx(expect)
    assert report.d_1 == 0.0 and not report.d_k and not report.d_k_star


def test_total_distance_truncation_terms():
    report = total_distance(5, NoiseBudget(T2_us=math.inf, p=0.0, K=3))
    expect = (5 - 4 + 1) * term_dk_star(4) + (5 - 5 + 1) * term_dk_star(5)
    assert report.D == pytest.approx(expect)


def test_total_distance_cavity_terms():
    qd = quantum_dot_params()
    report = total_distance(3, NoiseBudget(T2_us=math.inf, p=0.0, K=3, gates=qd))
    losses = solve_gate_losses(qd, 3)
    expect = 9 * losses[1].dk_exact + 2 * losses[2].dk_exact + 1 * losses[3].dk_exact
    assert report.D == pytest.approx(expect)


def test_gate_losses_are_fresh_and_frozen():
    qd = quantum_dot_params()
    budget = NoiseBudget(T2_us=20.0, p=0.01, K=4, gates=qd)
    before = total_distance(6, budget).D
    losses = solve_gate_losses(qd, 4)
    losses[1] = losses[4]
    assert total_distance(6, budget).D == before
    solve_gate_losses(qd, 4).clear()
    assert total_distance(6, budget).D == before
    with pytest.raises(dataclasses.FrozenInstanceError):
        losses[2].dk_exact = 0.0


def test_max_photons_solves_each_operating_point_once(monkeypatch):
    solved = []
    solve = cavity.solve_stark_shift

    def counted(params, delta_0, delta_Z, k, *args):
        solved.append(k)
        return solve(params, delta_0, delta_Z, k, *args)

    monkeypatch.setattr(cavity, "solve_stark_shift", counted)
    budget = NoiseBudget(T2_us=20.0, p=0.001, gates=cavity_params_for_cooperativity(400.0))
    assert max_photons(budget) == 60
    assert solved == list(range(1, 61))


def test_sweep_solves_each_device_and_k_once(monkeypatch):
    solved = []
    solve = cavity.solve_stark_shift

    def counted(params, delta_0, delta_Z, k, *args):
        solved.append((params, k))
        return solve(params, delta_0, delta_Z, k, *args)

    monkeypatch.setattr(cavity, "solve_stark_shift", counted)
    shared = cavity_params_for_cooperativity(80.0)
    other = cavity_params_for_cooperativity(250.0)
    scenarios = [
        Scenario("a", NoiseBudget(T2_us=20.0, p=0.01, gates=shared)),
        Scenario("b", NoiseBudget(T2_us=5.0, p=0.02, K=4, gates=shared, dk_mode="approximate")),
        Scenario("c", NoiseBudget(T2_us=20.0, p=0.01, K=6, gates=other)),
        Scenario("d", NoiseBudget(T2_us=20.0, p=0.01)),
        Scenario("e", NoiseBudget(T2_us=50.0, p=0.001, gates=cavity_params_for_cooperativity(80.0))),
    ]
    sweep_success(list(range(1, 13)), scenarios)
    expected = [(shared, k) for k in range(1, 13)] + [(other, k) for k in range(1, 7)]
    assert solved == expected
    # nothing is kept between calls
    solved.clear()
    sweep_success([3], scenarios[2:3])
    assert solved == [(other, k) for k in range(1, 4)]


def test_max_photons_keeps_no_gate_losses():
    def alive() -> int:
        gc.collect()
        return sum(isinstance(obj, GateLoss) for obj in gc.get_objects())

    before = alive()
    for i in range(200):
        budget = NoiseBudget(
            T2_us=5.0 + 0.45 * i, p=0.02, gates=cavity_params_for_cooperativity(50.0 + 1.25 * i)
        )
        assert max_photons(budget) is not None
    assert alive() == before


def test_total_distance_monotone():
    base = dict(T2_us=20.0, p=0.01)
    d = [total_distance(n, NoiseBudget(**base)).D for n in range(1, 30)]
    assert all(a < b for a, b in zip(d, d[1:]))
    assert total_distance(10, NoiseBudget(T2_us=20.0, p=0.02)).D > d[9]
    assert total_distance(10, NoiseBudget(T2_us=5.0, p=0.01)).D > d[9]
    assert total_distance(10, NoiseBudget(T2_us=20.0, p=0.01, T_cycle_ns=10.0)).D > d[9]


def test_total_distance_decreases_with_C():
    loose = NoiseBudget(T2_us=math.inf, p=0.0, K=5, gates=cavity_params_for_cooperativity(100.0))
    tight = NoiseBudget(T2_us=math.inf, p=0.0, K=5, gates=cavity_params_for_cooperativity(400.0))
    assert total_distance(5, tight).D < total_distance(5, loose).D


def test_raw_value_preserved():
    report = total_distance(60, NoiseBudget(T2_us=5.0, p=0.01))
    assert report.raw < 0.0
    assert report.P_s == 0.0
    assert report.raw == pytest.approx(1.0 - report.D)


def test_budget_coefficients_match_scheduler_counts():
    # term weights are exactly the scheduler's event counts; the N^2
    # dephasing weight upper-bounds the counted idle cycles
    n = 6
    qd = quantum_dot_params()
    report = total_distance(n, NoiseBudget(T2_us=20.0, p=0.01, K=n, gates=qd))
    tl = compile_timeline(TimingConfig.default(n), n)
    sched = validate_timeline(tl)
    reflects = tl.events[tl.events["kind"] == REFLECT]
    assert np.count_nonzero(reflects["k"] == 1) == 3 * n  # weight of d_1
    atom_h = np.count_nonzero(reflects["hadamards"] & H_ATOM)
    assert atom_h == 2 * n  # weight of d_H
    for k in range(2, n + 1):
        count = np.count_nonzero(reflects["k"] == k)
        assert count == n - k + 1  # weight of d_k
    assert sched.idle_cycles <= n * n  # weight of d_p is an upper bound


# --- crossings and sweeps -------------------------------------------------


def test_max_photons_unbounded_sentinel():
    assert max_photons(NoiseBudget(T2_us=math.inf, p=0.0), n_max=500) is None
    # a genuine crossing at the scan cap is still reported
    assert max_photons(NoiseBudget(T2_us=math.inf, p=0.01), n_max=50) == 50


def test_max_photons_known_crossings():
    assert max_photons(NoiseBudget(T2_us=5.0, p=0.01)) == 29
    assert max_photons(NoiseBudget(T2_us=math.inf, p=0.01)) == 50
    assert max_photons(NoiseBudget(T2_us=20.0, p=0.05)) <= 10


@settings(max_examples=25, deadline=None)
@given(
    C=st.floats(30.0, 400.0),
    K=st.one_of(st.none(), st.integers(1, 10)),
    dk_mode=st.sampled_from(["exact", "approximate"]),
    p=st.floats(0.008, 1.0),
)
def test_cavity_budget_monotone_and_first_crossing(C, K, dk_mode, p):
    budget = NoiseBudget(
        T2_us=20.0, p=p, K=K, gates=cavity_params_for_cooperativity(C), dk_mode=dk_mode
    )
    reports = [total_distance(n, budget) for n in range(1, 31)]
    assert all(a.D <= b.D for a, b in zip(reports, reports[1:]))
    first = next((r.N for r in reports if r.raw <= 0.0), None)
    assert max_photons(budget, n_max=30) == first


@settings(max_examples=40, deadline=None)
@given(
    C=st.tuples(st.floats(1.05, 400.0), st.floats(1.05, 400.0)).map(sorted),
    K=st.sampled_from([None, 3, 10]),
    dk_mode=st.sampled_from(["exact", "approximate"]),
)
def test_budget_non_increasing_in_cooperativity(C, K, dk_mode):
    low, high = (
        NoiseBudget(
            T2_us=20.0, p=0.01, K=K, gates=cavity_params_for_cooperativity(c), dk_mode=dk_mode
        )
        for c in C
    )
    for n in range(1, 21):
        # 1e-12 allows for rounding: cooperativities a few ulps apart
        # move D by up to about 1e-14 either way
        assert total_distance(n, high).D <= total_distance(n, low).D * (1.0 + 1e-12)


def test_preset_names():
    for name in ("fig4", "fig5a", "fig5b"):
        scenarios, n_values = preset_scenarios(name)
        assert scenarios and n_values == list(range(1, 51))
    with pytest.raises(ValueError):
        preset_scenarios("fig6")


def test_sweep_curves_non_increasing():
    scenarios, n_values = preset_scenarios("fig5a")
    rows = sweep_success(n_values, scenarios)
    by_id = {}
    for row in rows:
        by_id.setdefault(row["scenario_id"], []).append(row["P_s"])
    for curve in by_id.values():
        assert all(a >= b for a, b in zip(curve, curve[1:]))


def test_fig5a_long_T2_saturates():
    scenarios, n_values = preset_scenarios("fig5a")
    rows = sweep_success(n_values, scenarios)
    by_id = {}
    for row in rows:
        by_id.setdefault(row["scenario_id"], []).append(row["P_s"])
    t100, tinf = by_id["T2=100us"], by_id["T2=inf"]
    # the residual gap is the N^2 d_p term near the clipping point
    assert max(abs(a - b) for a, b in zip(t100, tinf)) < 0.06
    assert abs(t100[29] - tinf[29]) < 0.03


def test_fig5b_small_p_improves():
    scenarios, n_values = preset_scenarios("fig5b")
    rows = sweep_success(n_values, scenarios)
    by_id = {}
    for row in rows:
        by_id.setdefault(row["scenario_id"], []).append(row["P_s"])
    assert all(a > b for a, b in zip(by_id["p=0.001"], by_id["p=0.01"]) if b > 0)


def test_scenario_from_config():
    s = scenario_from_config(
        {"scenario_id": "custom", "T2_us": 10.0, "p": 0.02, "T_cycle_ns": 4.0, "K": 8, "cooperativity": 100.0}
    )
    assert isinstance(s, Scenario)
    assert s.budget.T2_us == 10.0
    assert s.budget.K == 8
    assert not s.budget.ideal_gates
    ideal = scenario_from_config({"scenario_id": "i", "T2_us": 10.0, "p": 0.02, "cooperativity": "ideal"})
    assert ideal.budget.ideal_gates


# --- noisy protocol and bound ---------------------------------------------


def test_trace_distance_basics():
    rho = np.diag([1.0, 0.0]).astype(complex)
    sigma = np.diag([0.5, 0.5]).astype(complex)
    assert trace_distance(rho, rho) == 0.0
    assert trace_distance(rho, sigma) == pytest.approx(0.5)


def test_noiseless_protocol_matches_ideal():
    budget = NoiseBudget(T2_us=math.inf, p=0.0)
    report = validate_bound_small_n(2, budget, n_random=5)
    assert report.D == 0.0
    assert report.max_trace_distance == pytest.approx(0.0, abs=1e-12)


def test_noisy_protocol_weight_one_for_ideal_gates():
    state = QuantumState.basis(2, [1, 0])
    out, weight = simulate_noisy_protocol(2, NoiseBudget(T2_us=20.0, p=0.01), state)
    assert weight == 1.0
    assert np.trace(out.data).real == pytest.approx(1.0)


def test_noisy_protocol_lossy_weight_below_one():
    qd = quantum_dot_params()
    state = QuantumState.basis(2, [1, 1])
    out, weight = simulate_noisy_protocol(
        2, NoiseBudget(T2_us=20.0, p=0.01, K=2, gates=qd), state
    )
    assert 0.0 < weight < 1.0
    assert np.trace(out.data).real == pytest.approx(1.0)


def _pin_budget(gates: str) -> NoiseBudget:
    if gates == "ideal":
        return NoiseBudget(T2_us=20.0, p=0.01)
    K = 2 if gates == "C=57.62 K=2" else None
    return NoiseBudget(T2_us=20.0, p=0.01, K=K, gates=cavity_params_for_cooperativity(57.62))


@pytest.mark.parametrize(
    "gates, n, digest",
    [
        ("ideal", 3, "4c51830e39785bfdf152bdb1440a687ba63aff1df35960d29fcb5841ab718cd1"),
        ("ideal", 4, "443ce14ae4f9b1f1736dd956107311275f2f53d2a144c977b5c32793a84ab446"),
        ("ideal", 5, "6de7570b926ff981f23300b0d5c616920e08d575e1c933300641ebf3d1b5d31c"),
        ("C=57.62", 3, "538ac418bd7c8726119350db313717b5071cbd8a6849a4c6b7911ac2dab84a3b"),
        ("C=57.62", 4, "60403d65604886f86d46b86bcb9897a3101d766d9e45e296c276f8ef3edaaaad"),
        ("C=57.62", 5, "8e010768029904422d4e4982d04e3b780d64a31462c27e83f6cdc09d61e7619f"),
        ("C=57.62 K=2", 3, "b52f6b212055d6b04a9e8f9edce6e2d1634a239e819f00bfd6cd7079adbcc13c"),
        ("C=57.62 K=2", 4, "4da344cc63d3e9f89413996fd288407963e2d393878aa3815d075e39219f167d"),
        ("C=57.62 K=2", 5, "1306df2c196de126a517c2e0d8c6268b61dcef2c3a63e112eb17ca892ce37b6b"),
    ],
)
def test_noisy_protocol_bits_pinned(gates, n, digest):
    # SHA-256 of the output density matrix's bytes and the weight's repr,
    # taken from the interpreter before it ran on step tables
    x = np.arange(2**n)
    amps = (x + 1) + 1j * (2**n - x)
    state = QuantumState.from_photon_state(n, amps / np.linalg.norm(amps))
    out, weight = simulate_noisy_protocol(n, _pin_budget(gates), state)
    assert hashlib.sha256(out.data.tobytes() + repr(weight).encode()).hexdigest() == digest


def test_bound_holds_small_n():
    budget = NoiseBudget(T2_us=20.0, p=0.01)
    report = validate_bound_small_n(2, budget, n_random=5)
    assert report.ok and report.margin >= 0.0
    # the paper's D is 2*2*p + 4*d_p for two photons with ideal gates
    assert report.D_paper == pytest.approx(4 * 0.01 + 4 * term_dp(5.0, 20.0))
    # D_sched dephases over the six gaps between the seven reflections
    # (three swap reflections per photon, tau_2 = 0.25 ns apart, and CR_2
    # at t = 5 ns; subroutine 2 starts at tau_1 + T_cycle = 20 ns)
    gaps = (0.25, 0.25, 4.5, 15.0, 0.25, 0.25)
    assert report.D == pytest.approx(4 * 0.01 + sum(term_dp(dt, 20.0) for dt in gaps))


@pytest.mark.parametrize(
    "T2_us, p, seed",
    [
        # validate requests of the noisy-verify benchmark, seeds 7203 and 9403
        (5.171521295577072, 0.001710015486524417, 382597902),
        (6.76873425329382, 0.0012348548644042765, 494049792),
    ],
)
def test_bound_is_checked_against_the_schedule(T2_us, p, seed):
    # the paper's D charges N^2 dephasing cycles, the schedule spans more
    report = validate_bound_small_n(4, NoiseBudget(T2_us=T2_us, p=p), seed=seed, n_random=5)
    assert report.max_trace_distance > report.D_paper
    assert report.ok and report.max_trace_distance <= report.D
    assert report.D == schedule_distance(4, NoiseBudget(T2_us=T2_us, p=p))


@pytest.mark.parametrize("K", [None, 2, 4])
@pytest.mark.parametrize("gates", ["ideal", 57.62, 400.0])
def test_schedule_distance_differs_only_in_dephasing(K, gates):
    # without dephasing the schedule counts the paper's gates: 2N atomic
    # Hadamards, 3N CR_1 and N - k + 1 of each kept or discarded CR_k
    device = gates if gates == "ideal" else cavity_params_for_cooperativity(gates)
    for n in range(1, 7):
        budget = NoiseBudget(T2_us=math.inf, p=0.003, K=K, gates=device)
        assert schedule_distance(n, budget) == pytest.approx(total_distance(n, budget).D, rel=1e-12)
        # from N = 2 the reflections span N^2 + N - 1.9 cycles, more than
        # the N^2 the paper charges (one photon's swap spans 0.1 cycle)
        if n >= 2:
            dephased = NoiseBudget(T2_us=20.0, p=0.003, K=K, gates=device)
            extra = schedule_distance(n, dephased) - schedule_distance(n, budget)
            assert extra >= total_distance(n, dephased).D - total_distance(n, budget).D


def test_bound_holds_lossy():
    qd = quantum_dot_params()
    report = validate_bound_small_n(
        2, NoiseBudget(T2_us=20.0, p=0.01, K=2, gates=qd), n_random=5
    )
    assert report.ok and report.margin > 0.0
