"""Discrete-event schedule of the delay-loop hardware.

One subroutine per photon: the active photon makes three short round
trips through delay line 2 (the swap), later photons make one reflection
each at their CR_k Stark setting and re-enter delay line 1 for the next
subroutine.  Subroutine i starts at (i-1) * (tau_1 + T_cycle); all travel
times other than the two delay lines are zero, and switch settling is
instantaneous.

The timeline is a table: one EVENT record per event, sorted by time, and
every stage (compile, validate, export) works on its columns.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tables
from .circuit import H_ATOM, H_PHOTON, STEP

# Event kinds, stored as their index in KINDS.
KINDS = ("Inject", "Reflect", "EnterDelay1", "EnterDelay2", "SwitchSet", "Emit")
INJECT, REFLECT, ENTER_DELAY1, ENTER_DELAY2, SWITCH_SET, EMIT = range(len(KINDS))
# Settings of the cavity_out switch, stored as their index; 0 on other events.
POSITIONS = ("", "delay2", "output", "delay1")
DELAY2, OUTPUT, DELAY1 = 1, 2, 3
NO_PHOTON = 0  # photon indices start at 1
# Time tolerance, in ns, of every check in `validate_timeline`.
TIME_TOL = 1e-9

EVENT = np.dtype(
    [
        ("time", np.float64),
        ("kind", np.uint8),
        ("photon", np.int64),
        ("k", np.int64),  # CR_k setting of a Reflect, 0 on other events
        ("position", np.uint8),
        ("hadamards", np.uint8),  # H_ATOM | H_PHOTON flags of a Reflect
    ]
)

# (kind, r, position, hadamards) of the first eight events of every
# subroutine, in generation order, at time start + r * tau_2.  Three CR_1
# reflections through delay line 2 implement the swap; the subroutine's
# trailing atom Hadamard cancels the atom half of the final pair, so the
# last reflection keeps only the photon half.
_SWAP = np.array(
    [
        (SWITCH_SET, 0, DELAY2, 0),
        (REFLECT, 0, 0, H_ATOM | H_PHOTON),
        (ENTER_DELAY2, 0, 0, 0),
        (REFLECT, 1, 0, H_ATOM | H_PHOTON),
        (ENTER_DELAY2, 1, 0, 0),
        (REFLECT, 2, 0, H_PHOTON),
        (SWITCH_SET, 2, OUTPUT, 0),
        (EMIT, 2, 0, 0),
    ]
).T

_KIND_TEXT = np.array([kind.encode() for kind in KINDS])
_POSITION_TEXT = [b""] + [f"cavity_out={p}".encode() for p in POSITIONS[1:]]


class InvalidTiming(ValueError):
    """Timing configuration violates the delay-line constraints."""


@dataclass(frozen=True)
class TimingConfig:
    """Operation cycle and delay-line lengths, all in ns."""

    T_cycle: float
    tau_1: float
    tau_2: float
    n: int

    def __post_init__(self) -> None:
        for name in ("T_cycle", "tau_1", "tau_2"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise InvalidTiming(f"{name} must be finite, got {value}")
        if self.n < 1:
            raise InvalidTiming(f"need at least one photon, got n={self.n}")
        if self.T_cycle <= 0.0:
            raise InvalidTiming("T_cycle must be positive")
        if self.tau_1 <= self.n * self.T_cycle:
            raise InvalidTiming(
                f"tau_1={self.tau_1} must exceed n*T_cycle={self.n * self.T_cycle}"
            )
        if self.tau_2 <= 0.0:
            raise InvalidTiming("tau_2 must be positive")
        if self.tau_2 >= self.T_cycle / 10.0:
            raise InvalidTiming(f"tau_2={self.tau_2} must be well below T_cycle")

    @classmethod
    def default(cls, n: int, T_cycle: float = 5.0) -> "TimingConfig":
        return cls(T_cycle=T_cycle, tau_1=(n + 1) * T_cycle, tau_2=T_cycle / 20.0, n=n)


@dataclass(frozen=True, eq=False)
class Timeline:
    """The event schedule: `events` is an EVENT record array sorted by time."""

    config: TimingConfig
    cutoff: int
    events: np.ndarray


@dataclass
class TimelineReport:
    violations: list[str]
    reflect_count: int
    emit_count: int
    makespan: float
    total_cycles: int
    active_cycles: int
    idle_cycles: int

    @property
    def ok(self) -> bool:
        return not self.violations


def compile_timeline(cfg: TimingConfig, K: int) -> Timeline:
    """Full event schedule for all n subroutines.

    The events are generated in closed form in this order: the n
    injections, then per subroutine i its swap events, the delay-1 switch
    setting (all but the last subroutine) and, for each later photon j,
    its CR_{j-i+1} reflection (if within the cutoff K) and its re-entry
    into delay line 1.  A stable sort by time keeps that order among ties.
    """
    if K < 1:
        raise InvalidTiming(f"cutoff must be >= 1, got {K}")
    n, T, tau_1, tau_2 = cfg.n, cfg.T_cycle, cfg.tau_1, cfg.tau_2
    kind, r, position, hadamards = _SWAP
    i = np.arange(1, n + 1)
    start = (i - 1) * (tau_1 + T)
    later = n - i
    size = kind.size + (later > 0) + later + np.minimum(later, K - 1)  # events of subroutine i
    first = n + np.cumsum(size) - size
    columns = {name: np.zeros(n + int(size.sum()), EVENT[name]) for name in EVENT.names}

    def put(rows, **values):
        for name, value in values.items():
            columns[name][rows] = value

    put(slice(0, n), time=(i - 1) * T, kind=INJECT, photon=i)
    put(
        first[:, None] + np.arange(kind.size),
        time=start[:, None] + r * tau_2,
        kind=kind,
        photon=np.where(kind == SWITCH_SET, NO_PHOTON, i[:, None]),
        k=np.where(kind == REFLECT, 1, 0),
        position=position,
        hadamards=hadamards,
    )
    put(first[:-1] + kind.size, time=start[:-1] + 0.5 * T, kind=SWITCH_SET, position=DELAY1)

    # Photon j = i + 1 + d of subroutine i takes two rows, its CR_{d+2}
    # reflection and its re-entry, while d + 2 <= K, and one row after that.
    owner = np.repeat(i, later)
    d = np.arange(owner.size) - np.repeat(np.cumsum(later) - later, later)
    j = owner + 1 + d
    t = np.repeat(start, later) + (j - owner) * T
    base = np.repeat(first + kind.size + 1, later)
    put(base + d + np.minimum(d + 1, K - 1), time=t, kind=ENTER_DELAY1, photon=j)
    cr = d + 2 <= K
    put((base + 2 * d)[cr], time=t[cr], kind=REFLECT, photon=j[cr], k=(d + 2)[cr])

    order = np.argsort(columns["time"], kind="stable")
    events = np.empty(order.size, EVENT)
    for name, column in columns.items():
        events[name] = column[order]
    return Timeline(config=cfg, cutoff=K, events=events)


def timeline_to_program(timeline: Timeline) -> np.ndarray:
    """The Reflect events (with their Hadamards) as a circuit.STEP program."""
    reflects = timeline.events[timeline.events["kind"] == REFLECT]
    if np.any(reflects["k"] < 1):
        raise ValueError(f"Reflect without a CR_k setting: k={reflects['k'].min()}")
    program = np.empty(reflects.size, STEP)
    for name in STEP.names:
        program[name] = reflects[name]
    return program


def validate_timeline(timeline: Timeline) -> TimelineReport:
    """Check cavity exclusivity, delay consistency, and emission ordering.

    Times are compared to TIME_TOL = 1e-9 ns.  Each check runs on whole
    columns, and messages are built only for the flagged rows.  A photon's
    chain is its events in timeline order; events without a photon index
    in 1..n belong to no chain, and an Emit without a photon index is
    reported as a violation.
    """
    cfg = timeline.config
    events = timeline.events
    time, kind, photons = events["time"], events["kind"], events["photon"]
    violations: list[str] = []

    reflect = kind == REFLECT
    t = time[reflect]
    for q in np.flatnonzero(t[1:] - t[:-1] <= TIME_TOL).tolist():
        a, b = t[q : q + 2].tolist()
        violations.append(f"overlapping reflections at t={a} and t={b}")

    emit = kind == EMIT
    seen, t = photons[emit], time[emit]
    if np.any(seen == NO_PHOTON):
        violations.append("emission multiset wrong: Emit without a photon index")
    elif not np.array_equal(np.sort(seen), np.arange(1, cfg.n + 1)):
        violations.append(f"emission multiset wrong: {seen.tolist()}")
    undefined = (seen[:-1] == NO_PHOTON) | (seen[1:] == NO_PHOTON)
    disordered = ~((seen[:-1] < seen[1:]) & (t[:-1] < t[1:]))
    for q in np.flatnonzero(undefined | disordered).tolist():
        if undefined[q]:
            violations.append("emission order undefined: Emit without a photon index")
        else:
            a, b = seen[q : q + 2].tolist()
            violations.append(f"emission order violated: photon {a} vs {b}")

    # The chains, one after the other: rows of photons 1..n, each photon's
    # in timeline order.  Row q and the next form a step of one chain where
    # `same` holds, and `nxt` is the time of the next row.
    rows = np.flatnonzero((photons >= 1) & (photons <= cfg.n))
    rows = rows[np.argsort(photons[rows], kind="stable")]
    j, t, step = photons[rows], time[rows], kind[rows]
    same = np.append(j[1:] == j[:-1], False)
    nxt = np.append(t[1:], np.nan)
    backwards = same & (nxt < t - TIME_TOL)
    delay = np.where(step == ENTER_DELAY2, cfg.tau_2, cfg.tau_1)
    in_delay = (step == ENTER_DELAY1) | (step == ENTER_DELAY2)
    late = same & in_delay & (np.abs(nxt - (t + delay)) > TIME_TOL)
    unemitted = ~same & (step != EMIT)
    for q in np.flatnonzero(backwards | late | unemitted).tolist():
        p = int(j[q])
        if backwards[q]:
            violations.append(f"photon {p} chain not time-ordered")
        if late[q]:
            a, b = float(t[q]), float(nxt[q])
            if step[q] == ENTER_DELAY2:
                violations.append(f"photon {p} delay-2 exit at {b}, expected {a + cfg.tau_2}")
            else:
                violations.append(f"photon {p} delay-1 exit at {b}, expected {a + cfg.tau_1}")
        if unemitted[q]:
            violations.append(f"photon {p} never emitted")

    makespan = float(time.max()) if time.size else 0.0
    total_cycles = int(math.ceil(makespan / cfg.T_cycle)) if makespan > 0 else 0
    # The three swap reflections share one cycle; every CR_k reflection
    # occupies its own cycle.
    active_cycles = cfg.n + int(np.count_nonzero(events["k"][reflect] != 1))
    return TimelineReport(
        violations=violations,
        reflect_count=int(np.count_nonzero(reflect)),
        emit_count=int(np.count_nonzero(emit)),
        makespan=makespan,
        total_cycles=total_cycles,
        active_cycles=active_cycles,
        idle_cycles=max(total_cycles - active_cycles, 0),
    )


def timeline_columns(timeline: Timeline) -> dict:
    """The event table for output: time_ns, event_kind, photon, parameter.

    The photon of an event without one is masked, and the parameter is the
    CR_k setting of a Reflect or the switch setting of a SwitchSet.
    """
    events = timeline.events
    kind = events["kind"]
    reflect = kind == REFLECT
    # one label per switch position, then one per distinct CR_k setting
    distinct, index = np.unique(events["k"][reflect], return_inverse=True)
    labels = np.array(_POSITION_TEXT + [f"k={k}".encode() for k in distinct.tolist()])
    label = np.where(kind == SWITCH_SET, events["position"], 0).astype(np.intp)
    label[reflect] = len(_POSITION_TEXT) + index
    return {
        "time_ns": events["time"],
        "event_kind": _KIND_TEXT[kind],
        "photon": np.ma.masked_equal(events["photon"], NO_PHOTON),
        "parameter": labels[label],
    }


def timeline_to_csv(timeline: Timeline) -> str:
    """Event dump: time_ns, event_kind, photon, parameter."""
    return tables.to_csv(timeline_columns(timeline))
