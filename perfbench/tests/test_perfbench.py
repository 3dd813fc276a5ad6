"""Tests of the benchmark's own code.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""
import hashlib
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from cavityqft import circuit, scheduler  # noqa: E402

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_of_nested_calls():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def leaf():
        clock.t += 0.5

    def child():
        clock.t += 1.0
        traced_leaf()
        clock.t += 2.0

    def parent():
        clock.t += 3.0
        traced_child()
        traced_child()
        clock.t += 4.0

    traced_leaf = tracer.wrap("leaf", leaf, leaf=True)
    traced_child = tracer.wrap("child", child)
    traced_parent = tracer.wrap("parent", parent)
    tracer.enabled = True
    traced_parent()

    # parent lasts 3 + 2 * 3.5 + 4 = 14 s, of which its children cover 7 s
    assert tracer.totals() == {"parent": (1, 7.0), "child": (2, 6.0), "leaf": (2, 1.0)}
    assert tracer.self_times() == [7.0, 3.0, 3.0]
    assert [span[tracing.PARENT] for span in tracer.spans] == [-1, 0, 0]


def test_disabled_tracer_records_nothing():
    tracer = tracing.Tracer()
    assert tracer.wrap("f", lambda x: x + 1)(1) == 2
    assert tracer.spans == [] and tracer.totals() == {}


def describe(req: dict) -> dict:
    """Comparable form of a request; arrays are replaced by their SHA-256."""
    return {
        key: hashlib.sha256(value.tobytes()).hexdigest() if isinstance(value, np.ndarray) else value
        for key, value in req.items()
    }


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_requests(name):
    def first_rounds(seed):
        stream = workloads.rounds(name, seed)
        return [describe(req) for _ in range(2) for req in next(stream)]

    assert first_rounds(11) == first_rounds(11)
    assert first_rounds(11) != first_rounds(12)


def test_reflect_count_matches_validated_timeline():
    for n in range(1, 9):
        for K in range(1, n + 1):
            timeline = scheduler.compile_timeline(scheduler.TimingConfig.default(n), K)
            report = scheduler.validate_timeline(timeline)
            assert report.reflect_count == workloads.reflect_count(n, K), (n, K)


def test_fft_reference_matches_the_documented_layout():
    rng = np.random.default_rng(3)
    for n in range(1, 7):
        amps = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        amps /= np.linalg.norm(amps)
        expected = circuit.embed_qft_output(n, circuit.ideal_qft_unitary(n) @ amps)
        assert np.max(np.abs(workloads.qft_reference(n, amps) - expected)) < 1e-12


@pytest.mark.parametrize("dk_mode", ["exact", "approximate"])
def test_loss_reference_matches_the_solved_operating_points(dk_mode):
    from cavityqft import analysis, cavity

    for C in (30.0, 57.62, 400.0):
        losses = analysis.solve_gate_losses(analysis.cavity_params_for_cooperativity(C), 40)
        expected = np.array([
            losses[k].dk_exact if dk_mode == "exact" else losses[k].dk_approx
            for k in range(1, 41)
        ])
        got = workloads.cr_losses(C, cavity.QD_KAPPA, 40, dk_mode)
        assert np.all(np.abs(got - expected) <= 1e-9 * expected + 1e-15), C


def _bindings():
    return {
        (name, key): value
        for name, module in sys.modules.items()
        if name == "cavityqft" or name.startswith("cavityqft.")
        for key, value in vars(module).items()
    }


def test_install_patches_every_binding_and_restore_undoes_it():
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        from cavityqft import analysis

        assert analysis.compile_timeline is scheduler.compile_timeline
        assert analysis.compile_timeline is not before[("cavityqft.scheduler", "compile_timeline")]
    finally:
        tracer.restore()
    after = _bindings()
    assert all(after[key] is value for key, value in before.items())


def test_missing_function_is_reported_absent(monkeypatch):
    monkeypatch.delattr(circuit, "apply_gate")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.restore()
    assert tracer.absent == {"circuit.apply_gate"}
    metrics = tracing.layer_metrics(tracer, 0)
    assert metrics["circuit.apply_gate.calls_pure"] == {"value": 0, "unit": "count", "absent": True}
    assert "absent" not in metrics["circuit.simulate_program.self_s"]
    assert set(metrics) == set(tracing.UNITS)


def test_stratified_blocks_cover_every_stratum_once():
    sample = workloads.Stratified(np.random.default_rng(5), d=3, m=6)
    for _ in range(3):
        block = np.array([sample() for _ in range(6)])
        for column in block.T:
            assert sorted(np.floor(column * 6).astype(int)) == list(range(6))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_reference_task_time_does_not_depend_on_the_request_before(name, tmp_path):
    # The slowdown that latencies are divided by must measure the machine,
    # not the working set a workload's requests leave behind.
    warmup = workloads.WORKLOADS[name].warmup
    kind = workloads.KINDS[warmup["kind"]]
    ctx = workloads.Context(str(tmp_path))
    idle, after_request = [], []
    for _ in range(7):
        worker.calibrate()
        idle.append(worker.calibrate())
        worker.execute(kind, warmup, ctx)
        after_request.append(worker.calibrate())
    assert min(after_request) < 1.2 * min(idle)
