"""Gate-level model of the n-photon + 1-atom streaming QFT circuit.

Register convention: qubit 0 is the atom and is the most significant bit
of the state index; photons 1..n follow in order.  |0>_p is horizontal
polarization, |0>_a is spin up.

Output convention of the full program on |x1..xn>_p |0>_a (fixed
empirically at n = 1, 2 and asserted for all larger n): photon 1 carries
the initial ancilla state |0>, the atom carries output bit y1, and photon
j (j >= 2) carries output bit y_{n+2-j} of the transform.

Program: the protocol is a stream of photon reflections off the one
atom-cavity system, so a gate program is a STEP record array with one row
per reflection: CR_k between the atom and photon `photon`, then the
Hadamards flagged in `hadamards`, the atom's first.  These are exactly the
scheduler's Reflect events.

Kernel layout: gates act in place on a strided view of the flat
amplitude array (Haener & Steiger, arXiv:1704.01127), and take the bit
position of their qubit: 0 for the atom, j for photon j in the natural
order (see below).  A Hadamard on the qubit at bit position a works on
`reshape(2**a, 2, -1)` and updates the two halves with two fused
axpy-style passes; a CR_k multiplies the one quarter of the amplitudes
whose atom and photon bits are both 1.  A density matrix over m qubits
is the same array flattened to 2m qubits: U acts on row position a and
conj(U) on column position a + m, so pure states and density matrices
share one code path.  The noise channels (`dephasing_channel`,
`noisy_hadamard`, `lossy_reflection`) act in place on a density matrix
and scale blocks of the same views.

Photon order: a kernel is fastest near the most significant bit, where
its contiguous runs are longest, and subroutine i works on photon i and
the photons after it.  So `run_steps` keeps the photons in a rotating
order: before a step that applies a photon Hadamard to photon j, unless
j already sits next to the atom (bit position 1), it moves the photons
in front of j, in order, behind the last one (`_rotate`, one transpose
copy of the row and column indices alike).  The state records the
rotation, and `apply_gate` and `lossy_reflection` find photon j's bit
position through it.  A QFT program thus rotates at the start of every
subroutine after the first, and every Hadamard runs at bit position 0 or
1.  When the program ends, or a step fails, `run_steps` rotates back to
the natural order, the only layout callers see.  Each amplitude gets the
same floating-point operations in either layout; only the lossy weight,
a sum over the diagonal, depends on order, so it is summed in the
natural order.

One interpreter: `run_steps` applies the rows in order, each through
`apply_gate`, on a state it is given to update in place (a rotation
replaces the state's `data` array, so read it after the run).
`simulate_program` runs it on a copy of its input, and
`analysis.simulate_noisy_protocol` on its own density matrix with the
protocol's noise.
"""
from __future__ import annotations

import math
from typing import Iterable

import numpy as np

MAX_PURE_QUBITS = 20
MAX_DENSITY_QUBITS = 8

# Hadamards applied right after a reflection, as bit flags; the atom's comes first.
H_ATOM, H_PHOTON = 1, 2

STEP = np.dtype([("photon", np.int64), ("k", np.int64), ("hadamards", np.uint8)])

# The three CR_1 steps that swap photon i into the atom.  The subroutine's
# trailing atom Hadamard cancels the atom half of the last pair
# (H_a H_a = 1), so the last step keeps only the photon half.
_SWAP_FLAGS = (H_ATOM | H_PHOTON, H_ATOM | H_PHOTON, H_PHOTON)

_SQRT_HALF = 1.0 / math.sqrt(2.0)


class ArityMismatch(ValueError):
    """Gate refers to a qubit outside the circuit arity."""


class ZeroWeight(ArithmeticError):
    """Post-selection weight underflowed: all amplitude was lost."""


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
        # photons 1.._shift sit behind the others: bit position 1 holds
        # photon _shift + 1 (see `_rotate`); 0 is the natural layout
        self._shift = 0

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


# --- in-place kernels and channels -----------------------------------------


def _pair(data: np.ndarray, i: int, j: int) -> np.ndarray:
    """View of flat `data` whose dimensions 1 and 3 are the bits at positions i < j."""
    return data.reshape(2**i, 2, 2 ** (j - i - 1), 2, -1)


def _h(data: np.ndarray, a: int) -> None:
    """Hadamard on the bit at position a of the flat array `data`."""
    halves = data.reshape(2**a, 2, -1)
    lo, hi = halves[:, 0], halves[:, 1]
    lo += hi
    lo *= _SQRT_HALF  # (a + b) / sqrt2
    hi *= -2.0 * _SQRT_HALF
    hi += lo  # (a - b) / sqrt2


def _hadamard(state: QuantumState, q: int) -> None:
    """Hadamard on the qubit at bit position q: on the row index, then on
    the column index of a density matrix."""
    _h(state.data, q)
    if state.density:
        _h(state.data, q + state.num_qubits)


def _controlled_phase(state: QuantumState, k: int, q: int) -> None:
    """CR_k = diag(1, 1, 1, e^{i 2 pi / 2^k}) between the atom and the photon
    at bit position q."""
    phase = np.exp(2j * math.pi / 2**k)
    _pair(state.data, 0, q)[:, 1, :, 1] *= phase
    if state.density:
        m = state.num_qubits
        _pair(state.data, m, q + m)[:, 1, :, 1] *= np.conj(phase)


def _position(state: QuantumState, j: int) -> int:
    """Bit position of photon j in the state's photon order."""
    q = j - state._shift
    return q if q >= 1 else q + state.n


def _rotate(state: QuantumState, shift: int) -> None:
    """Reorder the photons so that photon shift + 1 sits at bit position 1.

    The photons in front of it move, in order, behind the last one: one
    transpose copy of the state, on the row and the column index of a
    density matrix alike.
    """
    if shift == state._shift:
        return
    n = state.n
    t = (shift - state._shift) % n  # photons moved from the front to the back
    axes = (2, 2**t, 2 ** (n - t))
    if state.density:
        view = state.data.reshape(axes + axes).transpose(0, 2, 1, 3, 5, 4)
    else:
        view = state.data.reshape(axes).transpose(0, 2, 1)
    state.data = view.reshape(state.data.shape)
    state._shift = shift


def dephasing_channel(state: QuantumState, q: int, factor: float) -> None:
    """Scale the coherences of the qubit at bit position q by `factor`: the
    two blocks where its row and column bits differ (density matrix only)."""
    if not state.density:
        raise ValueError("dephasing acts on a density matrix")
    blocks = _pair(state.data, q, q + state.num_qubits)
    blocks[:, 0, :, 1] *= factor
    blocks[:, 1, :, 0] *= factor


def noisy_hadamard(state: QuantumState, q: int, p: float) -> None:
    """(1 - p) H rho H + p Z H rho H Z.

    Z-conjugation flips the sign of the qubit's coherences and leaves the
    rest alone, so the mixture scales the coherences by 1 - 2p.
    """
    _hadamard(state, q)
    dephasing_channel(state, q, 1.0 - 2.0 * p)


def lossy_reflection(
    state: QuantumState, k: int, j: int, mag_up: float, mag_down: float
) -> float:
    """CR_k on photon j, then the loss measurement M = diag(1, 1, |r_up|, |r_down|).

    M is diagonal in the (photon, atom) basis: vertical-polarization
    amplitudes are scaled by the spin-dependent reflection magnitude.  The
    density matrix is left unnormalized; returns its trace weight.
    """
    q = _position(state, j)
    _controlled_phase(state, k, q)
    for atom in (0, state.num_qubits):
        # photon |1> is the lossy branch; atom |0> (spin up) sees |r_up|
        lossy = _pair(state.data, atom, atom + q)[:, :, :, 1]
        lossy[:, 0] *= mag_up
        lossy[:, 1] *= mag_down
    # the trace, summed in the natural order of the diagonal whatever the
    # photon order, so that its rounding does not depend on the layout
    diagonal = np.diagonal(state.data)
    if state._shift:
        n, s = state.n, state._shift
        diagonal = diagonal.reshape(2, 2 ** (n - s), 2**s).transpose(0, 2, 1).ravel()
    weight = float(diagonal.sum().real)
    if weight < 1e-300:
        raise ZeroWeight("post-selection weight underflowed")
    return weight


# --- the step interpreter --------------------------------------------------


def apply_gate(
    state: QuantumState,
    j: int,
    k: int,
    hadamards: int,
    dephase: float | None = None,
    loss: tuple[float, float] | None = None,
    p: float | None = None,
) -> float:
    """Apply one step in place: CR_k between the atom and photon j, then the
    Hadamards flagged in `hadamards`.

    The noise arguments act on a density matrix: `dephase` scales the
    atom's coherences before the reflection, `loss` = (|r_up|, |r_down|)
    makes the reflection lossy and renormalizes after it, and p is the
    phase-flip probability of the atomic Hadamard.  Returns the step's
    post-selection weight, 1.0 without loss.
    """
    weight = 1.0
    q = _position(state, j)
    if dephase is not None:
        dephasing_channel(state, 0, dephase)
    if loss is None:
        _controlled_phase(state, k, q)
    else:
        weight = lossy_reflection(state, k, j, *loss)
        state.data /= weight
    if hadamards & H_ATOM:
        if p is None:
            _hadamard(state, 0)
        else:
            noisy_hadamard(state, 0, p)
    if hadamards & H_PHOTON:
        _hadamard(state, q)
    return weight


def run_steps(
    program: np.ndarray,
    state: QuantumState,
    dephasing: list[float | None] | None = None,
    losses: dict[int, tuple[float, float]] | None = None,
    p: float | None = None,
) -> float:
    """Apply every step of a STEP table to `state` in place, in order.

    `dephasing[s]` is the dephasing factor before step s, `losses[k]` the
    (|r_up|, |r_down|) of CR_k and p the atomic Hadamard's phase-flip
    probability (see `apply_gate`); leave them out for ideal gates.
    Returns the product of the step weights.  The photon order rotates
    while the steps run and is natural again on return (module docstring).
    """
    photons, ks = program["photon"], program["k"]
    outside = (photons < 1) | (photons > state.n)
    if np.any(outside):
        raise ArityMismatch(f"photon {photons[outside][0]} out of range for n={state.n}")
    if np.any(ks < 1):
        raise ValueError(f"CR_k needs k >= 1, got {ks.min()}")
    if dephasing is None:
        dephasing = [None] * len(program)
    elif len(dephasing) != len(program):
        raise ValueError(f"{len(dephasing)} dephasing factors for {len(program)} steps")
    weight = 1.0
    try:
        for j, k, flags, factor in zip(
            photons.tolist(), ks.tolist(), program["hadamards"].tolist(), dephasing
        ):
            if flags & H_PHOTON:
                _rotate(state, j - 1)
            loss = None if losses is None else losses[k]
            weight *= apply_gate(state, j, k, flags, factor, loss, p)
    finally:
        _rotate(state, 0)
    return weight


def simulate_program(program: np.ndarray, state: QuantumState) -> QuantumState:
    """Every step of the program applied in order to a copy of `state`."""
    out = state.copy()
    run_steps(program, out)
    return out


def build_qft_program(n: int, K: int) -> np.ndarray:
    """Streaming QFT on n photons with CR gates above k=K discarded, as a STEP table.

    Subroutine i swaps photon i into the atom, Hadamard-rotates the atom,
    then applies CR_{j-i+1} between the atom and each later photon j.  In
    hardware the trailing atom Hadamard merges with the atom half of the
    final swap Hadamard (H_a H_a = 1), leaving two atomic Hadamards per
    subroutine.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if K < 1:
        raise ValueError(f"cutoff must be >= 1, got {K}")
    subroutines = []
    for i in range(1, n + 1):
        later = np.arange(i + 1, min(n, i + K - 1) + 1)
        steps = np.zeros(3 + later.size, STEP)
        steps["photon"][:3] = i
        steps["photon"][3:] = later
        steps["k"][:3] = 1
        steps["k"][3:] = later - i + 1
        steps["hadamards"][:3] = _SWAP_FLAGS
        subroutines.append(steps)
    return np.concatenate(subroutines)


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
