"""Delay-loop event timeline: compilation, validation, export."""
import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavityqft.circuit import build_qft_program
from cavityqft.scheduler import (
    InvalidTiming,
    TimingConfig,
    compile_timeline,
    timeline_to_csv,
    timeline_to_program,
    validate_timeline,
)

KINDS = ("Inject", "Reflect", "EnterDelay1", "EnterDelay2", "SwitchSet", "Emit")


def test_config_validation():
    with pytest.raises(InvalidTiming):
        TimingConfig(T_cycle=5.0, tau_1=10.0, tau_2=0.25, n=3)  # tau_1 too short
    with pytest.raises(InvalidTiming):
        TimingConfig(T_cycle=5.0, tau_1=30.0, tau_2=2.0, n=3)  # tau_2 too long
    with pytest.raises(InvalidTiming):
        TimingConfig(T_cycle=0.0, tau_1=30.0, tau_2=0.25, n=3)
    for tau_2 in (0.0, -1.0):
        with pytest.raises(InvalidTiming, match="tau_2 must be positive"):
            TimingConfig(T_cycle=5.0, tau_1=30.0, tau_2=tau_2, n=3)
    with pytest.raises(InvalidTiming):
        TimingConfig.default(0)
    for name, value in [
        ("T_cycle", math.nan),
        ("T_cycle", math.inf),
        ("tau_1", math.nan),
        ("tau_1", math.inf),
        ("tau_2", math.nan),
        ("tau_2", -math.inf),
    ]:
        fields = {"T_cycle": 5.0, "tau_1": 30.0, "tau_2": 0.25, "n": 3, name: value}
        with pytest.raises(InvalidTiming, match=f"{name} must be finite, got {value}"):
            TimingConfig(**fields)


def test_default_config():
    cfg = TimingConfig.default(4)
    assert cfg.T_cycle == 5.0
    assert cfg.tau_1 == 25.0
    assert cfg.tau_2 == 0.25


def test_reflect_count_formula():
    # 3N swap reflections plus one CR reflection per retained pair
    for n in (1, 2, 3, 5):
        tl = compile_timeline(TimingConfig.default(n), n)
        reflects = [e for e in tl.events if e.kind == "Reflect"]
        expected = 3 * n + sum(n - k + 1 for k in range(2, n + 1))
        assert len(reflects) == expected


def test_n3_has_12_reflects():
    tl = compile_timeline(TimingConfig.default(3), 3)
    assert sum(1 for e in tl.events if e.kind == "Reflect") == 12


def test_n1_minimal_timeline():
    tl = compile_timeline(TimingConfig.default(1), 1)
    kinds = [e.kind for e in tl.events]
    assert kinds.count("Reflect") == 3
    assert kinds.count("Emit") == 1
    assert kinds.count("Inject") == 1


def test_cutoff_drops_reflections():
    full = compile_timeline(TimingConfig.default(4), 4)
    cut = compile_timeline(TimingConfig.default(4), 2)
    n_full = sum(1 for e in full.events if e.kind == "Reflect")
    n_cut = sum(1 for e in cut.events if e.kind == "Reflect")
    assert n_full - n_cut == sum(1 for k in (3, 4) for _ in range(4 - k + 1))


def test_invalid_cutoff():
    with pytest.raises(InvalidTiming):
        compile_timeline(TimingConfig.default(2), 0)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_timeline_valid(n):
    for K in range(1, n + 1):
        report = validate_timeline(compile_timeline(TimingConfig.default(n), K))
        assert report.ok, report.violations


def test_program_equivalence():
    for n in (1, 2, 4, 7):
        for K in range(1, n + 1):
            tl = compile_timeline(TimingConfig.default(n), K)
            assert timeline_to_program(tl).gates == build_qft_program(n, K).gates


def test_events_time_sorted():
    tl = compile_timeline(TimingConfig.default(5), 5)
    times = [e.time for e in tl.events]
    assert times == sorted(times)


def test_idle_cycles_bounded():
    for n in (2, 4, 8, 12):
        report = validate_timeline(compile_timeline(TimingConfig.default(n), n))
        assert 0 <= report.idle_cycles <= n * n
        assert report.total_cycles == report.active_cycles + report.idle_cycles


def test_emission_in_order():
    tl = compile_timeline(TimingConfig.default(4), 4)
    emits = [e for e in tl.events if e.kind == "Emit"]
    assert [e.photon for e in emits] == [1, 2, 3, 4]
    assert all(a.time < b.time for a, b in zip(emits, emits[1:]))


def test_csv_export():
    text = timeline_to_csv(compile_timeline(TimingConfig.default(2), 2))
    lines = text.strip().splitlines()
    assert lines[0] == "time_ns,event_kind,photon,parameter"
    assert len(lines) == 1 + len(compile_timeline(TimingConfig.default(2), 2).events)
    assert any(",Reflect,2,k=2" in line for line in lines)


def _reference_violations(timeline, tol=1e-9):
    """Violations found by rescanning all events for each photon's chain."""
    cfg = timeline.config
    violations = []
    reflects = [e for e in timeline.events if e.kind == "Reflect"]
    times = [e.time for e in reflects]
    for a, b in zip(times, times[1:]):
        if b - a <= tol:
            violations.append(f"overlapping reflections at t={a} and t={b}")
    emits = [e for e in timeline.events if e.kind == "Emit"]
    seen = [e.photon for e in emits]
    if None in seen:
        violations.append("emission multiset wrong: Emit without a photon index")
    elif sorted(set(seen)) != list(range(1, cfg.n + 1)) or len(seen) != cfg.n:
        violations.append(f"emission multiset wrong: {seen}")
    for a, b in zip(emits, emits[1:]):
        if a.photon is None or b.photon is None:
            violations.append("emission order undefined: Emit without a photon index")
        elif not (a.photon < b.photon and a.time < b.time):
            violations.append(f"emission order violated: photon {a.photon} vs {b.photon}")
    for j in range(1, cfg.n + 1):
        chain = [e for e in timeline.events if e.photon == j]
        for a, b in zip(chain, chain[1:]):
            if b.time < a.time - tol:
                violations.append(f"photon {j} chain not time-ordered")
            if a.kind == "EnterDelay2":
                if abs(b.time - (a.time + cfg.tau_2)) > tol:
                    violations.append(
                        f"photon {j} delay-2 exit at {b.time}, expected {a.time + cfg.tau_2}"
                    )
            if a.kind == "EnterDelay1":
                if abs(b.time - (a.time + cfg.tau_1)) > tol:
                    violations.append(
                        f"photon {j} delay-1 exit at {b.time}, expected {a.time + cfg.tau_1}"
                    )
        if chain and chain[-1].kind != "Emit":
            violations.append(f"photon {j} never emitted")
    return violations


def _corrupt(timeline, kind, photon, nth, changes):
    """Replace fields of the nth event of this kind and photon; drop it if no changes."""
    events = list(timeline.events)
    matches = [i for i, e in enumerate(events) if e.kind == kind and e.photon == photon]
    i = matches[nth]
    if changes:
        events[i] = dataclasses.replace(events[i], **changes)
    else:
        del events[i]
    return dataclasses.replace(timeline, events=tuple(events))


# Corruptions of the n = 4, K = 4 default schedule (T_cycle = 5, tau_1 = 25,
# tau_2 = 0.25) and the exact violations each one must produce.
CORRUPTIONS = {
    "overlapping reflections": (
        ("EnterDelay1", 2, 0, {"kind": "Reflect"}),
        ["overlapping reflections at t=5.0 and t=5.0"],
    ),
    "missing emit": (
        ("Emit", 2, 0, {}),
        ["emission multiset wrong: [1, 3, 4]", "photon 2 never emitted"],
    ),
    "emission out of order": (
        ("Emit", 2, 0, {"time": 70.0}),
        ["emission order violated: photon 2 vs 3"],
    ),
    "chain not time-ordered": (
        ("Inject", 3, 0, {"time": 12.0}),
        ["photon 3 chain not time-ordered"],
    ),
    "delay-1 exit": (
        ("EnterDelay1", 4, 1, {"time": 41.0}),
        ["photon 4 delay-1 exit at 65.0, expected 66.0"],
    ),
    "delay-2 exit": (
        ("EnterDelay2", 2, 0, {"time": 30.125}),
        ["photon 2 delay-2 exit at 30.25, expected 30.375"],
    ),
    "emit without photon": (
        ("Emit", 2, 0, {"photon": None}),
        [
            "emission multiset wrong: Emit without a photon index",
            "emission order undefined: Emit without a photon index",
            "emission order undefined: Emit without a photon index",
            "photon 2 never emitted",
        ],
    ),
    "never emitted": (
        ("SwitchSet", None, 2, {"photon": 1}),
        ["photon 1 never emitted"],
    ),
}


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_validation_reports_corruption(name):
    (kind, photon, nth, changes), expected = CORRUPTIONS[name]
    timeline = _corrupt(compile_timeline(TimingConfig.default(4), 4), kind, photon, nth, changes)
    report = validate_timeline(timeline)
    assert report.violations == expected
    assert not report.ok


@st.composite
def corrupted_timelines(draw):
    n = draw(st.integers(1, 8))
    timeline = compile_timeline(TimingConfig.default(n), draw(st.integers(1, n)))
    events = list(timeline.events)
    for _ in range(draw(st.integers(1, 4))):
        if not events:
            break
        i = draw(st.integers(0, len(events) - 1))
        action = draw(st.sampled_from(("drop", "time", "photon", "kind")))
        if action == "drop":
            del events[i]
        elif action == "time":
            shift = draw(st.sampled_from((-25.0, -5.0, -0.25, 1e-10, 0.25, 5.0, 25.0)))
            events[i] = dataclasses.replace(events[i], time=events[i].time + shift)
        elif action == "photon":
            value = draw(st.one_of(st.none(), st.integers(0, n + 1)))
            events[i] = dataclasses.replace(events[i], photon=value)
        else:
            events[i] = dataclasses.replace(events[i], kind=draw(st.sampled_from(KINDS)))
    return dataclasses.replace(timeline, events=tuple(events))


@settings(max_examples=40, deadline=None)
@given(corrupted_timelines())
def test_validation_matches_per_photon_scan(timeline):
    assert validate_timeline(timeline).violations == _reference_violations(timeline)


def _assert_schedule_facts(n, K, T_cycle):
    cfg = TimingConfig.default(n, T_cycle)
    timeline = compile_timeline(cfg, K)
    report = validate_timeline(timeline)
    assert report.ok, report.violations
    assert report.reflect_count == 3 * n + sum(n - k + 1 for k in range(2, K + 1))
    assert report.emit_count == n
    expected_makespan = (n - 1) * (cfg.tau_1 + cfg.T_cycle) + 2 * cfg.tau_2
    assert report.makespan == pytest.approx(expected_makespan, rel=1e-9)
    assert timeline_to_program(timeline).gates == build_qft_program(n, K).gates


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_random_timelines_are_valid(data):
    n = data.draw(st.integers(1, 40))
    K = data.draw(st.integers(1, n))
    T_cycle = data.draw(st.floats(0.1, 100.0))
    _assert_schedule_facts(n, K, T_cycle)


@pytest.mark.parametrize("K", [98, 10])
def test_paper_scale_timeline_is_valid(K):
    _assert_schedule_facts(98, K, 5.0)
