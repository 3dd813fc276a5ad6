"""Delay-loop event timeline: compilation, validation, export."""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavityqft.circuit import build_qft_program
from cavityqft.scheduler import (
    EMIT,
    H_ATOM,
    H_PHOTON,
    KINDS,
    NO_PHOTON,
    POSITIONS,
    REFLECT,
    InvalidTiming,
    TimelineReport,
    TimingConfig,
    compile_timeline,
    timeline_to_csv,
    timeline_to_program,
    validate_timeline,
)


def _kinds(timeline) -> list[str]:
    return [KINDS[kind] for kind in timeline.events["kind"].tolist()]


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
        expected = 3 * n + sum(n - k + 1 for k in range(2, n + 1))
        assert np.count_nonzero(tl.events["kind"] == REFLECT) == expected


def test_n3_has_12_reflects():
    tl = compile_timeline(TimingConfig.default(3), 3)
    assert _kinds(tl).count("Reflect") == 12


def test_n1_minimal_timeline():
    tl = compile_timeline(TimingConfig.default(1), 1)
    kinds = _kinds(tl)
    assert kinds.count("Reflect") == 3
    assert kinds.count("Emit") == 1
    assert kinds.count("Inject") == 1


def test_cutoff_drops_reflections():
    full = compile_timeline(TimingConfig.default(4), 4)
    cut = compile_timeline(TimingConfig.default(4), 2)
    n_full = _kinds(full).count("Reflect")
    n_cut = _kinds(cut).count("Reflect")
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
            assert np.array_equal(timeline_to_program(tl), build_qft_program(n, K))


def test_program_rejects_reflect_without_setting():
    timeline = compile_timeline(TimingConfig.default(3), 3)
    events = timeline.events.copy()
    events["k"][np.flatnonzero(events["kind"] == REFLECT)[4]] = 0
    with pytest.raises(ValueError, match="Reflect without a CR_k setting: k=0"):
        timeline_to_program(dataclasses.replace(timeline, events=events))


def test_events_time_sorted():
    tl = compile_timeline(TimingConfig.default(5), 5)
    times = tl.events["time"].tolist()
    assert times == sorted(times)


def test_idle_cycles_bounded():
    for n in (2, 4, 8, 12):
        report = validate_timeline(compile_timeline(TimingConfig.default(n), n))
        assert 0 <= report.idle_cycles <= n * n
        assert report.total_cycles == report.active_cycles + report.idle_cycles


def test_emission_in_order():
    tl = compile_timeline(TimingConfig.default(4), 4)
    emits = tl.events[tl.events["kind"] == EMIT]
    assert emits["photon"].tolist() == [1, 2, 3, 4]
    assert np.all(np.diff(emits["time"]) > 0)


def test_csv_export():
    text = timeline_to_csv(compile_timeline(TimingConfig.default(2), 2))
    lines = text.strip().splitlines()
    assert lines[0] == "time_ns,event_kind,photon,parameter"
    assert len(lines) == 1 + len(compile_timeline(TimingConfig.default(2), 2).events)
    assert any(",Reflect,2,k=2" in line for line in lines)


# --- the object-based scheduler the columnar one replaced, as the oracle -----


@dataclass(frozen=True)
class _Event:
    time: float
    kind: str
    photon: int | None = None
    k: int | None = None
    switch: str | None = None
    position: str | None = None
    hadamards: tuple[int, ...] = ()  # bit positions of the Hadamards after a Reflect


@dataclass(frozen=True)
class _ObjectTimeline:
    config: TimingConfig
    cutoff: int
    events: tuple[_Event, ...] = field(default_factory=tuple)


def _object_compile(cfg, K):
    n, T, tau_1, tau_2 = cfg.n, cfg.T_cycle, cfg.tau_1, cfg.tau_2
    events = []
    for j in range(1, n + 1):
        events.append(_Event(time=(j - 1) * T, kind="Inject", photon=j))
    for i in range(1, n + 1):
        start = (i - 1) * (tau_1 + T)
        events.append(_Event(time=start, kind="SwitchSet", switch="cavity_out", position="delay2"))
        for r in range(3):
            t = start + r * tau_2
            after = (i,) if r == 2 else (0, i)
            events.append(_Event(time=t, kind="Reflect", photon=i, k=1, hadamards=after))
            if r < 2:
                events.append(_Event(time=t, kind="EnterDelay2", photon=i))
        events.append(
            _Event(time=start + 2 * tau_2, kind="SwitchSet", switch="cavity_out", position="output")
        )
        events.append(_Event(time=start + 2 * tau_2, kind="Emit", photon=i))
        if i < n:
            events.append(
                _Event(
                    time=start + 0.5 * T, kind="SwitchSet", switch="cavity_out", position="delay1"
                )
            )
        for j in range(i + 1, n + 1):
            t = start + (j - i) * T
            k = j - i + 1
            if k <= K:
                events.append(_Event(time=t, kind="Reflect", photon=j, k=k))
            events.append(_Event(time=t, kind="EnterDelay1", photon=j))
    events.sort(key=lambda e: e.time)
    return _ObjectTimeline(config=cfg, cutoff=K, events=tuple(events))


def _object_validate(timeline, tol=1e-9):
    cfg = timeline.config
    violations = []
    reflects, emits = [], []
    chains = {j: [] for j in range(1, cfg.n + 1)}
    for e in timeline.events:
        if e.kind == "Reflect":
            reflects.append(e)
        elif e.kind == "Emit":
            emits.append(e)
        chain = chains.get(e.photon)
        if chain is not None:
            chain.append(e)
    times = [e.time for e in reflects]
    for a, b in zip(times, times[1:]):
        if b - a <= tol:
            violations.append(f"overlapping reflections at t={a} and t={b}")
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
    for j, chain in chains.items():
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
    makespan = max((e.time for e in timeline.events), default=0.0)
    total_cycles = int(math.ceil(makespan / cfg.T_cycle)) if makespan > 0 else 0
    active_cycles = cfg.n + sum(1 for e in reflects if e.k != 1)
    return TimelineReport(
        violations=violations,
        reflect_count=len(reflects),
        emit_count=len(emits),
        makespan=makespan,
        total_cycles=total_cycles,
        active_cycles=active_cycles,
        idle_cycles=max(total_cycles - active_cycles, 0),
    )


def _object_csv(timeline):
    lines = ["time_ns,event_kind,photon,parameter"]
    for e in timeline.events:
        if e.kind == "Reflect":
            parameter = f"k={e.k}"
        elif e.kind == "SwitchSet":
            parameter = f"{e.switch}={e.position}"
        else:
            parameter = ""
        lines.append(f"{e.time:.11e},{e.kind},{'' if e.photon is None else e.photon},{parameter}")
    return "\n".join(lines) + "\n"


def _as_objects(timeline):
    """The columnar timeline as the oracle's event objects.

    A corrupted row may carry the photon Hadamard flag without a valid
    photon; validation never reads the Hadamards, so that one is left out.
    """
    events = []
    for time, kind, j, k, position, flags in timeline.events.tolist():
        after = ()
        if flags & H_ATOM:
            after += (0,)
        if flags & H_PHOTON and j >= 1:
            after += (j,)
        events.append(
            _Event(
                time=time,
                kind=KINDS[kind],
                photon=None if j == NO_PHOTON else j,
                k=k or None,
                switch="cavity_out" if position else None,
                position=POSITIONS[position] or None,
                hadamards=after,
            )
        )
    return _ObjectTimeline(timeline.config, timeline.cutoff, tuple(events))


def _reflections(timeline):
    """(time, photon, k, Hadamards) of each Reflect event of an oracle timeline."""
    return [(e.time, e.photon, e.k, e.hadamards) for e in timeline.events if e.kind == "Reflect"]


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
    events = timeline.events.copy()
    matches = np.flatnonzero((events["kind"] == KINDS.index(kind)) & (events["photon"] == photon))
    i = matches[nth]
    if changes:
        for name, value in changes.items():
            events[name][i] = value
    else:
        events = np.delete(events, i)
    return dataclasses.replace(timeline, events=events)


# Corruptions of the n = 4, K = 4 default schedule (T_cycle = 5, tau_1 = 25,
# tau_2 = 0.25) and the exact violations each one must produce.
CORRUPTIONS = {
    "overlapping reflections": (
        ("EnterDelay1", 2, 0, {"kind": REFLECT}),
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
        ("Emit", 2, 0, {"photon": NO_PHOTON}),
        [
            "emission multiset wrong: Emit without a photon index",
            "emission order undefined: Emit without a photon index",
            "emission order undefined: Emit without a photon index",
            "photon 2 never emitted",
        ],
    ),
    "emit with out-of-range photon": (
        ("Emit", 2, 0, {"photon": 5}),
        [
            "emission multiset wrong: [1, 5, 3, 4]",
            "emission order violated: photon 5 vs 3",
            "photon 2 never emitted",
        ],
    ),
    "never emitted": (
        ("SwitchSet", NO_PHOTON, 2, {"photon": 1}),
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
    assert report == _object_validate(_as_objects(timeline))


@st.composite
def corrupted_timelines(draw):
    n = draw(st.integers(1, 8))
    timeline = compile_timeline(TimingConfig.default(n), draw(st.integers(1, n)))
    events = timeline.events.copy()
    for _ in range(draw(st.integers(1, 4))):
        if not events.size:
            break
        i = draw(st.integers(0, events.size - 1))
        action = draw(st.sampled_from(("drop", "time", "photon", "kind")))
        if action == "drop":
            events = np.delete(events, i)
        elif action == "time":
            shift = draw(st.sampled_from((-25.0, -5.0, -0.25, 1e-10, 0.25, 5.0, 25.0)))
            events["time"][i] += shift
        elif action == "photon":
            # NO_PHOTON (0) or an index, including the out-of-range -1 and n + 1
            events["photon"][i] = draw(st.integers(-1, n + 1))
        else:
            events["kind"][i] = draw(st.integers(0, len(KINDS) - 1))
    return dataclasses.replace(timeline, events=events)


@settings(max_examples=40, deadline=None)
@given(corrupted_timelines())
def test_validation_matches_per_photon_scan(timeline):
    report = validate_timeline(timeline)
    objects = _as_objects(timeline)
    assert report.violations == _reference_violations(objects)
    assert report == _object_validate(objects)


def _assert_schedule_facts(n, K, T_cycle):
    cfg = TimingConfig.default(n, T_cycle)
    timeline = compile_timeline(cfg, K)
    report = validate_timeline(timeline)
    assert report.ok, report.violations
    assert report.reflect_count == 3 * n + sum(n - k + 1 for k in range(2, K + 1))
    assert report.emit_count == n
    expected_makespan = (n - 1) * (cfg.tau_1 + cfg.T_cycle) + 2 * cfg.tau_2
    assert report.makespan == pytest.approx(expected_makespan, rel=1e-9)
    assert np.array_equal(timeline_to_program(timeline), build_qft_program(n, K))
    # the same schedule, bit for bit, as the object-based scheduler
    oracle = _object_compile(cfg, K)
    assert timeline_to_csv(timeline) == _object_csv(oracle)
    assert _reflections(_as_objects(timeline)) == _reflections(oracle)
    assert report == _object_validate(oracle)


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


def test_settings_beyond_one_byte():
    # photon indices and CR_k settings above 255
    _assert_schedule_facts(300, 300, 0.7)
