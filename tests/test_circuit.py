"""Gate application, streaming-QFT construction, and noise channels."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavityqft.circuit import (
    ATOM,
    ArityMismatch,
    CircuitProgram,
    GateOp,
    QuantumState,
    QubitRef,
    apply_gate,
    build_qft_program,
    dephasing_channel,
    embed_qft_output,
    ideal_qft_unitary,
    lossy_reflection,
    noisy_hadamard,
    photon,
    simulate_program,
    swap_from_cr1,
)


def program_unitary(program: CircuitProgram) -> np.ndarray:
    """Column-by-column unitary of a program on the (atom, photons) register."""
    n = program.arity
    dim = 2 ** (n + 1)
    cols = []
    for x in range(dim):
        amps = np.zeros(dim, dtype=complex)
        amps[x] = 1.0
        state = QuantumState(n, amps)
        cols.append(simulate_program(program, state).data)
    return np.array(cols).T


def two_qubit_unitary(gates: list[GateOp]) -> np.ndarray:
    prog = CircuitProgram(arity=1, cutoff=1, gates=tuple(gates))
    return program_unitary(prog)


# --- register plumbing ----------------------------------------------------


def test_qubit_refs():
    assert str(ATOM) == "a"
    assert str(photon(3)) == "p3"
    with pytest.raises(ValueError):
        QubitRef("photon", 0)
    with pytest.raises(ValueError):
        QubitRef("laser", 1)


def test_basis_state_layout():
    state = QuantumState.basis(2, [1, 0], atom_bit=1)
    # atom is the most significant bit, photons follow in order
    assert state.data[0b110] == 1.0
    assert state.norm() == pytest.approx(1.0)


def test_basis_rejects_invalid_bits():
    with pytest.raises(ValueError):
        QuantumState.basis(2, [2, 1])
    with pytest.raises(ValueError):
        QuantumState.basis(1, [-1])
    with pytest.raises(ValueError):
        QuantumState.basis(1, [0], atom_bit=2)
    with pytest.raises(ValueError):
        QuantumState.from_photon_state(1, np.array([1.0, 0.0]), atom_bit=-1)


def test_from_photon_state():
    amps = np.array([1.0, 1.0j]) / math.sqrt(2)
    state = QuantumState.from_photon_state(1, amps)
    assert state.data[0] == pytest.approx(amps[0])
    assert state.data[1] == pytest.approx(amps[1])
    assert np.all(state.data[2:] == 0)


def test_arity_checks():
    with pytest.raises(ArityMismatch):
        CircuitProgram(arity=2, cutoff=2, gates=(GateOp.hadamard(photon(3)),))
    with pytest.raises(ValueError):
        CircuitProgram(arity=2, cutoff=2, gates=(GateOp.controlled_phase(3, photon(1)),))


# --- single gates ---------------------------------------------------------


def test_hadamard_atom():
    state = apply_gate(QuantumState.basis(1, [0]), GateOp.hadamard(ATOM))
    expect = np.array([1 / math.sqrt(2), 0, 1 / math.sqrt(2), 0])
    np.testing.assert_allclose(state.data, expect, atol=1e-15)


def test_controlled_phase_acts_on_11_only():
    phase = np.exp(2j * math.pi / 4)
    for atom_bit, photon_bit in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        state = QuantumState.basis(1, [photon_bit], atom_bit=atom_bit)
        out = apply_gate(state, GateOp.controlled_phase(2, photon(1)))
        expect = phase if atom_bit == 1 and photon_bit == 1 else 1.0
        assert out.data[(atom_bit << 1) | photon_bit] == pytest.approx(expect)


def test_swap_from_cr1_identity():
    swap = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )
    u = two_qubit_unitary(swap_from_cr1(1))
    assert np.linalg.norm(u - swap, ord=2) < 1e-12


def test_density_evolution_matches_pure():
    rng = np.random.default_rng(3)
    amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    amps /= np.linalg.norm(amps)
    state = QuantumState(2, amps)
    prog = build_qft_program(2, 2)
    pure = simulate_program(prog, state.copy())
    dens = simulate_program(prog, state.to_density())
    np.testing.assert_allclose(dens.data, np.outer(pure.data, pure.data.conj()), atol=1e-12)


# --- streaming QFT --------------------------------------------------------


def test_single_photon_qft_is_hadamard():
    out = simulate_program(build_qft_program(1, 1), QuantumState.basis(1, [0]))
    expect = embed_qft_output(1, ideal_qft_unitary(1)[:, 0])
    np.testing.assert_allclose(out.data, expect, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_qft_equivalence_all_basis_states(n):
    prog = build_qft_program(n, n)
    U = ideal_qft_unitary(n)
    for x in range(2**n):
        bits = [(x >> (n - 1 - b)) & 1 for b in range(n)]
        out = simulate_program(prog, QuantumState.basis(n, bits))
        np.testing.assert_allclose(out.data, embed_qft_output(n, U[:, x]), atol=1e-10)


def test_qft_linearity_on_superposition():
    n = 3
    rng = np.random.default_rng(11)
    amps = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    amps /= np.linalg.norm(amps)
    out = simulate_program(build_qft_program(n, n), QuantumState.from_photon_state(n, amps))
    np.testing.assert_allclose(out.data, embed_qft_output(n, ideal_qft_unitary(n) @ amps), atol=1e-10)


def test_atomic_hadamard_count():
    # two atomic Hadamards per subroutine after the merge
    for n in (1, 2, 5):
        prog = build_qft_program(n, n)
        count = sum(1 for g in prog.gates if g.name == "H" and g.qubit == ATOM)
        assert count == 2 * n


def test_truncation_drops_small_gates():
    full = build_qft_program(4, 4)
    cut = build_qft_program(4, 2)
    dropped = [g for g in full.gates if g not in cut.gates]
    assert dropped and all(g.name == "CR" and g.k > 2 for g in dropped)


# --- channels -------------------------------------------------------------


def test_dephasing_decays_coherence():
    plus = apply_gate(QuantumState.basis(1, [0]), GateOp.hadamard(ATOM)).to_density()
    out = dephasing_channel(plus, ATOM, t=5.0, T2=10.0)
    rho = out.data
    assert rho[0, 0] == pytest.approx(0.5)
    # off-diagonal in the atom index shrinks by exp(-t/T2)
    assert abs(rho[0, 2]) == pytest.approx(0.5 * math.exp(-0.5))


def test_dephasing_infinite_T2_is_identity():
    plus = apply_gate(QuantumState.basis(1, [0]), GateOp.hadamard(ATOM)).to_density()
    out = dephasing_channel(plus, ATOM, t=5.0, T2=math.inf)
    np.testing.assert_allclose(out.data, plus.data)


def test_dephasing_requires_density():
    with pytest.raises(ValueError):
        dephasing_channel(QuantumState.basis(1, [0]), ATOM, 1.0, 10.0)


def test_noisy_hadamard_trace_preserving():
    state = QuantumState.basis(1, [0], atom_bit=1).to_density()
    out = noisy_hadamard(state, ATOM, p=0.1)
    rho = out.data
    assert np.trace(rho).real == pytest.approx(1.0)
    ideal = noisy_hadamard(state, ATOM, p=0.0).data
    assert not np.allclose(out.data, ideal)


def test_lossy_reflection_weight():
    # atom in |1>, photon in |1>: amplitude scaled by |r_down|
    state = QuantumState.basis(1, [1], atom_bit=1).to_density()
    out, w = lossy_reflection(state, 1, photon(1), 0.9, 0.8)
    assert w == pytest.approx(0.8**2)
    assert np.trace(out.data).real == pytest.approx(w)


def test_lossy_reflection_unit_r_matches_ideal():
    rng = np.random.default_rng(5)
    amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    amps /= np.linalg.norm(amps)
    state = QuantumState(1, amps).to_density()
    out, w = lossy_reflection(state, 2, photon(1), 1.0, 1.0)
    ideal = apply_gate(state, GateOp.controlled_phase(2, photon(1)))
    assert w == pytest.approx(1.0)
    np.testing.assert_allclose(out.data, ideal.data, atol=1e-12)


# --- kernels and channels against dense references ------------------------

CUTOFF = 6
_I2 = np.eye(2)
_H = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
_Z = np.diag([1.0, -1.0])
_P = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]  # projectors onto |0>, |1>


def dense(n: int, ops: dict) -> np.ndarray:
    """Kronecker product over the register, ops[q] on qubit q (0 = atom)."""
    out = np.ones((1, 1))
    for q in range(n + 1):
        out = np.kron(out, ops.get(q, _I2))
    return out


def _position(q: QubitRef) -> int:
    return 0 if q == ATOM else q.index


def gate_matrix(n: int, gate: GateOp) -> np.ndarray:
    q = _position(gate.qubit)
    if gate.name == "H":
        return dense(n, {q: _H})
    assert gate.name == "CR"
    phase = np.exp(2j * math.pi / 2**gate.k)
    return np.eye(2 ** (n + 1)) + (phase - 1.0) * dense(n, {0: _P[1], q: _P[1]})


def random_states(n: int, seed: int) -> tuple[QuantumState, QuantumState]:
    """A random pure state and a random full-rank density matrix."""
    rng = np.random.default_rng(seed)
    dim = 2 ** (n + 1)
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return (
        QuantumState(n, amps / np.linalg.norm(amps)),
        QuantumState(n, rho / np.trace(rho).real, density=True),
    )


@st.composite
def circuits(draw):
    n = draw(st.integers(1, 4))
    photons = st.integers(1, n).map(photon)
    gate = st.one_of(
        st.one_of(st.just(ATOM), photons).map(GateOp.hadamard),
        st.builds(GateOp.controlled_phase, st.integers(1, CUTOFF), photons),
    )
    return n, draw(st.lists(gate, max_size=12)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=80, deadline=None)
@given(circuits())
def test_kernels_match_dense_reference(case):
    n, gates, seed = case
    u = np.eye(2 ** (n + 1))
    for gate in gates:
        u = gate_matrix(n, gate) @ u
    program = CircuitProgram(arity=n, cutoff=CUTOFF, gates=tuple(gates))
    for state in random_states(n, seed):
        before = state.data.copy()
        expect = u @ before @ u.conj().T if state.density else u @ before
        np.testing.assert_allclose(simulate_program(program, state).data, expect, rtol=0, atol=1e-12)
        stepped = state
        for gate in gates:
            stepped = apply_gate(stepped, gate)
        np.testing.assert_allclose(stepped.data, expect, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(state.data, before)


def kraus_sum(kraus: list[np.ndarray], rho: np.ndarray) -> np.ndarray:
    return sum(k @ rho @ k.conj().T for k in kraus)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 4),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
    t=st.floats(0.0, 10.0),
    T2=st.floats(0.1, 100.0),
    p=st.floats(0.0, 1.0),
    mags=st.tuples(st.floats(0.01, 1.0), st.floats(0.01, 1.0)),
    k=st.integers(1, CUTOFF),
)
def test_channels_match_kraus_sums(n, data, seed, t, T2, p, mags, k):
    qubit = data.draw(st.one_of(st.just(ATOM), st.integers(1, n).map(photon)))
    target = photon(data.draw(st.integers(1, n)))
    _, state = random_states(n, seed)
    rho = state.data.copy()
    q, j = _position(qubit), target.index
    eye = np.eye(2 ** (n + 1))

    f = math.exp(-t / T2)
    dephase = [math.sqrt((1 + f) / 2) * eye, math.sqrt((1 - f) / 2) * dense(n, {q: _Z})]
    out = dephasing_channel(state, qubit, t, T2)
    np.testing.assert_allclose(out.data, kraus_sum(dephase, rho), rtol=0, atol=1e-12)

    h = dense(n, {q: _H})
    flip = [math.sqrt(1 - p) * h, math.sqrt(p) * dense(n, {q: _Z}) @ h]
    out = noisy_hadamard(state, qubit, p)
    np.testing.assert_allclose(out.data, kraus_sum(flip, rho), rtol=0, atol=1e-12)

    mag_up, mag_down = mags
    # M = diag(1, 1, |r_up|, |r_down|) on (photon, atom): the photon |1> branch is damped
    loss = eye - (1 - mag_up) * dense(n, {0: _P[0], j: _P[1]})
    loss -= (1 - mag_down) * dense(n, {0: _P[1], j: _P[1]})
    kraus = [loss @ gate_matrix(n, GateOp.controlled_phase(k, target))]
    out, weight = lossy_reflection(state, k, target, mag_up * np.exp(1j * t), -mag_down)
    expect = kraus_sum(kraus, rho)
    np.testing.assert_allclose(out.data, expect, rtol=0, atol=1e-12)
    assert weight == pytest.approx(np.trace(expect).real, abs=1e-12)

    np.testing.assert_array_equal(state.data, rho)
