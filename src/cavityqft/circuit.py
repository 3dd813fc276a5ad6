"""Gate-level model of the n-photon + 1-atom streaming QFT circuit.

Register convention: qubit 0 is the atom and is the most significant bit
of the state index; photons 1..n follow in order.  |0>_p is horizontal
polarization, |0>_a is spin up.

Output convention of the full program on |x1..xn>_p |0>_a (fixed
empirically at n = 1, 2 and asserted for all larger n): photon 1 carries
the initial ancilla state |0>, the atom carries output bit y1, and photon
j (j >= 2) carries output bit y_{n+2-j} of the transform.

Kernel layout: gates act in place on a strided view of the flat
amplitude array (Haener & Steiger, arXiv:1704.01127).  A Hadamard on the
qubit at bit position a works on `reshape(2**a, 2, -1)` and updates the
two halves with two fused axpy-style passes; a CR_k multiplies the one
quarter of the amplitudes whose atom and photon bits are both 1.  A
density matrix over m qubits is the same array flattened to 2m qubits:
U acts on row position a and conj(U) on column position a + m, so pure
states and density matrices share one code path.  The noise channels
scale blocks of the same views.

The public functions never mutate their input: `apply_gate` and the
channels copy the state once, `simulate_program` copies it once and
then applies every gate to that copy in place.  The in-place forms
(`_apply`, `_dephase`, `_noisy_hadamard`, `_lossy_reflection`) are for
a caller that owns its state, as `analysis.simulate_noisy_protocol` does.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

MAX_PURE_QUBITS = 20
MAX_DENSITY_QUBITS = 8

_SQRT_HALF = 1.0 / math.sqrt(2.0)


class ArityMismatch(ValueError):
    """Gate refers to a qubit outside the circuit arity."""


class ZeroWeight(ArithmeticError):
    """Post-selection weight underflowed: all amplitude was lost."""


@dataclass(frozen=True)
class QubitRef:
    """Reference to the atom or to photon `index` (1-based)."""

    kind: str
    index: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("atom", "photon"):
            raise ValueError(f"unknown qubit kind {self.kind!r}")
        if self.kind == "photon" and (self.index is None or self.index < 1):
            raise ValueError(f"photon index must be >= 1, got {self.index}")
        if self.kind == "atom" and self.index is not None:
            raise ValueError("atom carries no index")

    def __str__(self) -> str:
        return "a" if self.kind == "atom" else f"p{self.index}"


ATOM = QubitRef("atom")


def photon(j: int) -> QubitRef:
    return QubitRef("photon", j)


@dataclass(frozen=True)
class GateOp:
    """One abstract gate instruction.

    name "H": Hadamard on `qubit`.
    name "CR": controlled phase diag(1,1,1,e^{i 2 pi / 2^k}) between the
        atom and photon `qubit`.
    """

    name: str
    qubit: QubitRef | None = None
    k: int | None = None

    @staticmethod
    def hadamard(q: QubitRef) -> "GateOp":
        return GateOp("H", qubit=q)

    @staticmethod
    def controlled_phase(k: int, target: QubitRef) -> "GateOp":
        if k < 1:
            raise ValueError(f"CR_k needs k >= 1, got {k}")
        if target.kind != "photon":
            raise ValueError("controlled phase targets a photon")
        return GateOp("CR", qubit=target, k=k)


@dataclass(frozen=True)
class CircuitProgram:
    """Ordered gate list for an n-photon circuit with CR cutoff K."""

    arity: int
    cutoff: int
    gates: tuple[GateOp, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.arity < 0:
            raise ValueError("arity must be nonnegative")
        if self.cutoff < 1:
            raise ValueError(f"cutoff must be >= 1, got {self.cutoff}")
        for gate in self.gates:
            if gate.qubit is not None and gate.qubit.kind == "photon":
                if gate.qubit.index > self.arity:
                    raise ArityMismatch(
                        f"gate {gate} references photon {gate.qubit.index} "
                        f"but arity is {self.arity}"
                    )
            if gate.name == "CR" and gate.k > self.cutoff:
                raise ValueError(f"CR_{gate.k} present but cutoff is {self.cutoff}")


class QuantumState:
    """Pure state vector or density matrix over n photons + 1 atom."""

    def __init__(self, n: int, data: np.ndarray, density: bool = False):
        self.n = n
        self.density = density
        m = n + 1
        dim = 2**m
        if density:
            if m > MAX_DENSITY_QUBITS:
                raise ValueError(f"density path capped at {MAX_DENSITY_QUBITS} qubits")
            if data.shape != (dim, dim):
                raise ValueError(f"expected {dim}x{dim} density matrix")
        else:
            if m > MAX_PURE_QUBITS:
                raise ValueError(f"pure path capped at {MAX_PURE_QUBITS} qubits")
            if data.shape != (dim,):
                raise ValueError(f"expected state vector of length {dim}")
        self.data = np.asarray(data, dtype=complex)

    @property
    def num_qubits(self) -> int:
        return self.n + 1

    @classmethod
    def basis(cls, n: int, photon_bits: Iterable[int] = (), atom_bit: int = 0) -> "QuantumState":
        bits = list(photon_bits)
        if len(bits) != n:
            raise ValueError(f"need {n} photon bits, got {len(bits)}")
        if any(b not in (0, 1) for b in (atom_bit, *bits)):
            raise ValueError(f"basis bits must be 0 or 1, got atom {atom_bit!r}, photons {bits}")
        index = int(atom_bit)
        for b in bits:
            index = (index << 1) | int(b)
        vec = np.zeros(2 ** (n + 1), dtype=complex)
        vec[index] = 1.0
        return cls(n, vec)

    @classmethod
    def from_photon_state(cls, n: int, photon_amps: np.ndarray, atom_bit: int = 0) -> "QuantumState":
        """Tensor an arbitrary photon-register state with an atom basis state."""
        photon_amps = np.asarray(photon_amps, dtype=complex)
        if photon_amps.shape != (2**n,):
            raise ValueError(f"expected photon state of length {2**n}")
        if atom_bit not in (0, 1):
            raise ValueError(f"atom bit must be 0 or 1, got {atom_bit!r}")
        atom = np.zeros(2, dtype=complex)
        atom[atom_bit] = 1.0
        return cls(n, np.kron(atom, photon_amps))

    def copy(self) -> "QuantumState":
        return QuantumState(self.n, self.data.copy(), self.density)

    def to_density(self) -> "QuantumState":
        if self.density:
            return self.copy()
        return QuantumState(self.n, np.outer(self.data, self.data.conj()), density=True)

    def norm(self) -> float:
        if self.density:
            return float(np.trace(self.data).real)
        return float(np.vdot(self.data, self.data).real)

    def _qubit_axis(self, q: QubitRef) -> int:
        if q.kind == "atom":
            return 0
        if q.index > self.n:
            raise ArityMismatch(f"photon {q.index} out of range for n={self.n}")
        return q.index


def _pair(data: np.ndarray, i: int, j: int) -> np.ndarray:
    """View of flat `data` whose dimensions 1 and 3 are the bits at positions i < j."""
    return data.reshape(2**i, 2, 2 ** (j - i - 1), 2, -1)


def _apply_inplace(
    data: np.ndarray, axis: int, gate: GateOp, atom: int = 0, conj: bool = False
) -> None:
    """Apply U (or conj(U)) of `gate` to the C-contiguous array `data` in place.

    `axis` is the bit position of the gate's qubit in the flattened index
    and `atom` that of the atom, which CR also acts on.
    """
    if gate.name == "H":
        halves = data.reshape(2**axis, 2, -1)
        lo, hi = halves[:, 0], halves[:, 1]
        lo += hi
        lo *= _SQRT_HALF  # (a + b) / sqrt2
        hi *= -2.0 * _SQRT_HALF
        hi += lo  # (a - b) / sqrt2
    elif gate.name == "CR":
        phase = np.exp(2j * math.pi / 2**gate.k)
        _pair(data, atom, axis)[:, 1, :, 1] *= np.conj(phase) if conj else phase
    else:
        raise ValueError(f"unknown gate {gate.name!r}")


def _apply(state: QuantumState, gate: GateOp) -> None:
    """Apply a gate unitary to `state` in place: U on the (row) index, and
    conj(U) on the column index of a density matrix."""
    axis = state._qubit_axis(gate.qubit)
    _apply_inplace(state.data, axis, gate)
    if state.density:
        m = state.num_qubits
        _apply_inplace(state.data, axis + m, gate, atom=m, conj=True)


def apply_gate(state: QuantumState, gate: GateOp) -> QuantumState:
    """Apply one gate unitary to a copy of `state`; norm/trace preserving."""
    out = state.copy()
    _apply(out, gate)
    return out


def swap_from_cr1(j: int) -> list[GateOp]:
    """Atom <-> photon-j swap as three CR_1 reflections with interleaved Hadamards.

    Time-ordered: the product H_{a,p} CR_1 H_{a,p} CR_1 H_{a,p} CR_1 equals
    the SWAP unitary exactly (H_{a,p} is a Hadamard on both atom and photon).
    """
    block = [
        GateOp.controlled_phase(1, photon(j)),
        GateOp.hadamard(ATOM),
        GateOp.hadamard(photon(j)),
    ]
    return block * 3


def build_qft_program(n: int, K: int) -> CircuitProgram:
    """Streaming QFT on n photons with CR gates above k=K discarded.

    Subroutine i swaps photon i into the atom, Hadamard-rotates the atom,
    then applies CR_{j-i+1} between the atom and each later photon j.  In
    hardware the trailing atom Hadamard merges with the atom half of the
    final swap Hadamard (H_a H_a = 1), leaving two atomic Hadamards per
    subroutine.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    photons = [photon(j) for j in range(1, n + 1)]
    h_atom = GateOp.hadamard(ATOM)
    gates: list[GateOp] = []
    for i, target in enumerate(photons, start=1):
        # swap + trailing H_a, with the cancelling H_a H_a pair removed
        # (H_a commutes with H_p): two atomic Hadamards survive.
        cr1, h = GateOp.controlled_phase(1, target), GateOp.hadamard(target)
        gates += (cr1, h_atom, h, cr1, h_atom, h, cr1, h)
        # CR_k with k >= 2 on a photon: valid by construction
        gates += [GateOp("CR", later, k) for k, later in zip(range(2, K + 1), photons[i:])]
    return CircuitProgram(arity=n, cutoff=K, gates=tuple(gates))


def ideal_qft_unitary(n: int) -> np.ndarray:
    """Matrix with entries 2^{-n/2} e^{i 2 pi x y / 2^n}."""
    if n > MAX_PURE_QUBITS:
        raise ValueError(f"n capped at {MAX_PURE_QUBITS}")
    dim = 2**n
    grid = np.outer(np.arange(dim), np.arange(dim))
    return np.exp(2j * math.pi * grid / dim) / math.sqrt(dim)


def embed_qft_output(n: int, amplitudes: np.ndarray) -> np.ndarray:
    """Map an ideal n-qubit QFT output vector onto the full register layout.

    Places output bit y1 on the atom, |0> on photon 1, and y_{n+2-j} on
    photon j, matching the documented program output convention.
    """
    amplitudes = np.asarray(amplitudes, dtype=complex)
    out = np.zeros(2 ** (n + 1), dtype=complex)
    for y in range(2**n):
        bits = [(y >> (n - 1 - b)) & 1 for b in range(n)]  # y1..yn
        index = bits[0]  # atom
        index <<= 1  # photon 1 fixed to 0
        for j in range(2, n + 1):
            index = (index << 1) | bits[n + 1 - j]
        out[index] += amplitudes[y]
    return out


def simulate_program(program: CircuitProgram, state: QuantumState) -> QuantumState:
    """Every gate of the program applied in order to a copy of `state`."""
    if state.n != program.arity:
        raise ArityMismatch(f"state has n={state.n}, program arity {program.arity}")
    out = state.copy()
    for gate in program.gates:
        _apply(out, gate)
    return out


# --- noise channels (density-matrix only) ---------------------------------


def _require_density(state: QuantumState) -> None:
    if not state.density:
        raise ValueError("noise channels act on density matrices")


def _dephase(state: QuantumState, qubit: QubitRef, factor: float) -> None:
    """Scale the coherences of `qubit` by `factor` in place: the two blocks
    where its row and column bits differ."""
    axis = state._qubit_axis(qubit)
    blocks = _pair(state.data, axis, axis + state.num_qubits)
    blocks[:, 0, :, 1] *= factor
    blocks[:, 1, :, 0] *= factor


def dephasing_channel(state: QuantumState, qubit: QubitRef, t: float, T2: float) -> QuantumState:
    """Damp the qubit's off-diagonal elements by e^{-t/T2}."""
    _require_density(state)
    if t < 0.0 or T2 <= 0.0:
        raise ValueError("need t >= 0 and T2 > 0")
    out = state.copy()
    _dephase(out, qubit, math.exp(-t / T2) if math.isfinite(T2) else 1.0)
    return out


def _noisy_hadamard(state: QuantumState, qubit: QubitRef, p: float) -> None:
    """In-place (1 - p) H rho H + p Z H rho H Z.

    Z-conjugation flips the sign of the qubit's coherences and leaves the
    rest alone, so the mixture scales the coherences by 1 - 2p.
    """
    _apply(state, GateOp.hadamard(qubit))
    _dephase(state, qubit, 1.0 - 2.0 * p)


def noisy_hadamard(state: QuantumState, qubit: QubitRef, p: float) -> QuantumState:
    """Ideal Hadamard followed by a phase flip applied with probability p."""
    _require_density(state)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    out = state.copy()
    _noisy_hadamard(out, qubit, p)
    return out


def _lossy_reflection(
    state: QuantumState, k: int, target: QubitRef, mag_up: float, mag_down: float
) -> float:
    """In-place CR_k and loss measurement on a density matrix; returns its trace weight."""
    _apply(state, GateOp.controlled_phase(k, target))
    axis = state._qubit_axis(target)
    for atom in (0, state.num_qubits):
        # photon |1> is the lossy branch; atom |0> (spin up) sees |r_up|
        lossy = _pair(state.data, atom, atom + axis)[:, :, :, 1]
        lossy[:, 0] *= mag_up
        lossy[:, 1] *= mag_down
    weight = float(np.trace(state.data).real)
    if weight < 1e-300:
        raise ZeroWeight("post-selection weight underflowed")
    return weight


def lossy_reflection(
    state: QuantumState,
    k: int,
    target: QubitRef,
    r_up: complex,
    r_down: complex,
) -> tuple[QuantumState, float]:
    """Ideal CR_k followed by the loss measurement M = diag(1, 1, |r_up|, |r_down|).

    M is diagonal in the (photon, atom) basis: vertical-polarization
    amplitudes are scaled by the spin-dependent reflection magnitude.
    Returns the unnormalized post-measurement state and its trace weight;
    the caller renormalizes after post-selection.
    """
    _require_density(state)
    mag_up, mag_down = abs(r_up), abs(r_down)
    if mag_up > 1.0 + 1e-12 or mag_down > 1.0 + 1e-12:
        raise ValueError("reflection magnitudes must not exceed 1")
    out = state.copy()
    return out, _lossy_reflection(out, k, target, mag_up, mag_down)
