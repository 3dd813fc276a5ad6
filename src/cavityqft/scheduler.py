"""Discrete-event schedule of the delay-loop hardware.

One subroutine per photon: the active photon makes three short round
trips through delay line 2 (the swap), later photons make one reflection
each at their CR_k Stark setting and re-enter delay line 1 for the next
subroutine.  Subroutine i starts at (i-1) * (tau_1 + T_cycle); all travel
times other than the two delay lines are zero, and switch settling is
instantaneous.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .circuit import ATOM, CircuitProgram, GateOp, photon


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


@dataclass(frozen=True)
class TimelineEvent:
    """One timestamped hardware event.

    kind is one of Inject, Reflect, EnterDelay1, EnterDelay2, SwitchSet,
    Emit.  Reflect events carry the CR_k Stark setting and the Hadamard
    annotations applied right after the reflection.
    """

    time: float
    kind: str
    photon: int | None = None
    k: int | None = None
    switch: str | None = None
    position: str | None = None
    after_gates: tuple[GateOp, ...] = ()


@dataclass(frozen=True)
class Timeline:
    config: TimingConfig
    cutoff: int
    events: tuple[TimelineEvent, ...] = field(default_factory=tuple)


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
    """Full event schedule for all n subroutines."""
    if K < 1:
        raise InvalidTiming(f"cutoff must be >= 1, got {K}")
    n, T, tau_1, tau_2 = cfg.n, cfg.T_cycle, cfg.tau_1, cfg.tau_2
    events: list[TimelineEvent] = []

    for j in range(1, n + 1):
        events.append(TimelineEvent(time=(j - 1) * T, kind="Inject", photon=j))

    for i in range(1, n + 1):
        start = (i - 1) * (tau_1 + T)
        events.append(
            TimelineEvent(time=start, kind="SwitchSet", switch="cavity_out", position="delay2")
        )
        # Three CR_1 reflections through delay line 2 implement the swap;
        # the subroutine's trailing atom Hadamard cancels the atom half of
        # the final pair, so the last reflection keeps only the photon half.
        for r in range(3):
            t = start + r * tau_2
            if r == 2:
                after = (GateOp.hadamard(photon(i)),)
            else:
                after = (GateOp.hadamard(ATOM), GateOp.hadamard(photon(i)))
            events.append(
                TimelineEvent(time=t, kind="Reflect", photon=i, k=1, after_gates=after)
            )
            if r < 2:
                events.append(TimelineEvent(time=t, kind="EnterDelay2", photon=i))
        events.append(
            TimelineEvent(
                time=start + 2 * tau_2, kind="SwitchSet", switch="cavity_out", position="output"
            )
        )
        events.append(TimelineEvent(time=start + 2 * tau_2, kind="Emit", photon=i))
        if i < n:
            events.append(
                TimelineEvent(
                    time=start + 0.5 * T, kind="SwitchSet", switch="cavity_out", position="delay1"
                )
            )
        for j in range(i + 1, n + 1):
            t = start + (j - i) * T
            k = j - i + 1
            if k <= K:
                events.append(TimelineEvent(time=t, kind="Reflect", photon=j, k=k))
            events.append(TimelineEvent(time=t, kind="EnterDelay1", photon=j))

    events.sort(key=lambda e: e.time)
    return Timeline(config=cfg, cutoff=K, events=tuple(events))


def timeline_to_program(timeline: Timeline) -> CircuitProgram:
    """Map the Reflect events (with Hadamard annotations) to a gate sequence."""
    gates: list[GateOp] = []
    for event in timeline.events:
        if event.kind != "Reflect":
            continue
        gates.append(GateOp.controlled_phase(event.k, photon(event.photon)))
        gates.extend(event.after_gates)
    return CircuitProgram(arity=timeline.config.n, cutoff=timeline.cutoff, gates=tuple(gates))


def validate_timeline(timeline: Timeline, tol: float = 1e-9) -> TimelineReport:
    """Check cavity exclusivity, delay consistency, and emission ordering.

    One pass over the events collects the reflections, the emissions and
    each photon's chain, so the check is linear in the number of events.
    Events without a photon index in 1..n belong to no chain, and an Emit
    without a photon index is reported as a violation.
    """
    cfg = timeline.config
    violations: list[str] = []

    reflects: list[TimelineEvent] = []
    emits: list[TimelineEvent] = []
    chains: dict[int, list[TimelineEvent]] = {j: [] for j in range(1, cfg.n + 1)}
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
    # The three swap reflections share one cycle; every CR_k reflection
    # occupies its own cycle.
    active_cycles = cfg.n + sum(1 for e in reflects if e.k != 1)
    report = TimelineReport(
        violations=violations,
        reflect_count=len(reflects),
        emit_count=len(emits),
        makespan=makespan,
        total_cycles=total_cycles,
        active_cycles=active_cycles,
        idle_cycles=max(total_cycles - active_cycles, 0),
    )
    return report


def timeline_to_csv(timeline: Timeline) -> str:
    """Event dump: time_ns, event_kind, photon, parameter."""
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
