"""Dense complex linear algebra and quantum-state primitives.

Everything here operates on plain numpy arrays.  States are density
matrices (Hermitian, PSD, unit trace); validation tolerances follow the
conventions used throughout the package: 1e-12 for input validation,
1e-10 for reconstruction checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.linalg as npl

VALIDATION_TOL = 1e-12
RECONSTRUCTION_TOL = 1e-10

# Hard ceiling on dense operator dimension (d=2 up to n=12, d=3 up to n=7).
# Larger systems must go through the closed-form block formulas instead.
MAX_TENSOR_DIM = 4096


class DimensionBudgetError(ValueError):
    """Requested dense operator would exceed the configured dimension cap."""


class NumericalFailure(RuntimeError):
    """A computed quantity failed its internal sanity check."""


def tensor(*factors: np.ndarray, max_dim: int = MAX_TENSOR_DIM) -> np.ndarray:
    """Kronecker product of one or more matrices, with a dimension guard."""
    if not factors:
        raise ValueError("tensor() needs at least one factor")
    rows = cols = 1
    for f in factors:
        rows *= f.shape[0]
        cols *= f.shape[1]
    if max(rows, cols) > max_dim:
        raise DimensionBudgetError(
            f"tensor product dimension {max(rows, cols)} exceeds budget {max_dim}"
        )
    out = np.asarray(factors[0], dtype=complex)
    for f in factors[1:]:
        out = np.kron(out, f)
    return out


def hermitianize(a: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (A + A*)/2."""
    return (a + a.conj().T) / 2


def validate_density(rho: np.ndarray, tol: float = VALIDATION_TOL) -> np.ndarray:
    """Check Hermiticity, positivity and unit trace; return rho unchanged.

    Raises ValueError with a description of the first violated invariant.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    if not np.all(np.isfinite(rho)):
        raise ValueError("density matrix has non-finite entries")
    herm_res = np.max(np.abs(rho - rho.conj().T))
    if herm_res > tol:
        raise ValueError(f"not Hermitian: residual {herm_res:.3e} > {tol:.0e}")
    eigs = npl.eigvalsh(hermitianize(rho))
    # eigh on matrices up to 4096x4096 keeps errors well under 1e-12 per unit norm,
    # but the PSD check itself tolerates that same magnitude of negativity.
    if eigs[0] < -tol * max(1.0, abs(eigs[-1])) - tol:
        raise ValueError(f"not PSD: min eigenvalue {eigs[0]:.3e}")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > 1e-9:
        raise ValueError(f"trace {tr} is not 1")
    return rho


def pure_state(vec) -> np.ndarray:
    """Density matrix |v><v| of a (not necessarily normalized) state vector."""
    v = np.asarray(vec, dtype=complex).ravel()
    v = v / npl.norm(v)
    return np.outer(v, v.conj())


def psd_sqrt(m: np.ndarray, tol: float = VALIDATION_TOL) -> np.ndarray:
    """Principal square root of a Hermitian PSD matrix via eigendecomposition.

    Eigenvalues below -tol (relative to the largest) are rejected; small
    negatives from roundoff are clipped to zero.
    """
    m = np.asarray(m, dtype=complex)
    herm_res = np.max(np.abs(m - m.conj().T)) if m.size else 0.0
    if herm_res > 1e-10:
        raise ValueError(f"psd_sqrt: input not Hermitian (residual {herm_res:.3e})")
    w, v = npl.eigh(hermitianize(m))
    scale = max(1.0, abs(w[-1]))
    if w[0] < -1e-10 * scale:
        raise ValueError(f"psd_sqrt: negative eigenvalue {w[0]:.3e}")
    # Zero the near-null space: sqrt amplifies eigensolver noise at 0
    # (1e-16 -> 1e-8), which would wreck fidelities of rank-deficient states.
    w = np.where(w > abs(w[-1]) * 1e-13, w, 0.0)
    w = np.sqrt(np.clip(w, 0.0, None))
    return (v * w) @ v.conj().T


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Root fidelity Tr|sqrt(rho) sqrt(sigma)| of two density matrices.

    Computed as the sum of singular values of sqrt(rho) @ sqrt(sigma),
    which avoids one nested matrix square root.  Symmetric in its
    arguments; equals 1 iff the states coincide.  For pure states it
    reduces to |<psi|phi>|.
    """
    if rho.shape != sigma.shape:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {sigma.shape}")
    a = psd_sqrt(rho)
    b = psd_sqrt(sigma)
    sv = npl.svd(a @ b, compute_uv=False)
    return float(min(1.0, sv.sum()))


def bures(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Bures distance sqrt(1 - Tr|sqrt(rho) sqrt(sigma)|); in [0, 1]."""
    return float(np.sqrt(max(0.0, 1.0 - fidelity(rho, sigma))))


def partial_trace(state: np.ndarray, d: int, keep: int) -> np.ndarray:
    """Trace out all tensor slots except ``keep`` from a state on (C^d)^{x n}.

    ``n`` is inferred from the matrix size, which must be an exact power
    of d.  Slots are 0-indexed.  The trace of the result equals the
    trace of the input.
    """
    dim = state.shape[0]
    n = 0
    size = 1
    while size < dim:
        size *= d
        n += 1
    if size != dim or state.shape != (dim, dim):
        raise ValueError(f"state dimension {state.shape} is not a power of d={d}")
    if not 0 <= keep < n:
        raise ValueError(f"keep index {keep} out of range for n={n}")
    t = state.reshape([d] * (2 * n))
    # Contract row/column indices of every slot except `keep`.
    for slot in range(n - 1, -1, -1):
        if slot == keep:
            continue
        t = np.trace(t, axis1=slot, axis2=t.ndim // 2 + slot)
    return t


def trace_norm(a: np.ndarray) -> float:
    """Trace norm ||A||_1 (sum of singular values)."""
    return float(npl.svd(np.asarray(a, dtype=complex), compute_uv=False).sum())


@dataclass(frozen=True)
class Source:
    """A finitely supported distribution over density matrices on C^d.

    ``weights`` are the atom probabilities and ``states`` the matching
    density matrices.  The i.i.d. block source emits n-fold tensor
    products of atoms drawn independently from this distribution.
    """

    d: int
    weights: tuple[float, ...]
    states: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.weights) != len(self.states) or not self.states:
            raise ValueError("weights and states must be nonempty and equal length")
        if any(w < -VALIDATION_TOL for w in self.weights):
            raise ValueError("negative atom weight")
        if abs(sum(self.weights) - 1.0) > VALIDATION_TOL:
            raise ValueError(f"weights sum to {sum(self.weights)}, not 1")
        for rho in self.states:
            if rho.shape != (self.d, self.d):
                raise ValueError("atom dimension mismatch")
            validate_density(rho)

    @property
    def num_atoms(self) -> int:
        return len(self.weights)

    def average_state(self) -> np.ndarray:
        """The mixture sum_j w_j rho_j seen by any observer of one copy."""
        out = np.zeros((self.d, self.d), dtype=complex)
        for w, rho in zip(self.weights, self.states):
            out += w * rho
        return out


def basis_source(d: int, weights) -> Source:
    """Source whose atoms are the computational basis projectors |i><i|."""
    weights = tuple(float(w) for w in weights)
    states = tuple(np.outer(np.eye(d)[i], np.eye(d)[i]).astype(complex) for i in range(len(weights)))
    return Source(d=d, weights=weights, states=states)


def pure_source(d: int, vectors, weights) -> Source:
    """Source with pure atoms |v_j><v_j| from the given state vectors."""
    states = tuple(pure_state(np.asarray(v, dtype=complex)) for v in vectors)
    return Source(d=d, weights=tuple(float(w) for w in weights), states=states)


def joint_eigenbasis(states, tol: float = 1e-10):
    """Try to simultaneously diagonalize a family of Hermitian matrices.

    Returns (V, diagonals) where V is unitary and diagonals[j] is the
    real diagonal of V* states[j] V, or None if the family does not
    commute within ``tol``.  The basis is refined sequentially: each
    state is diagonalized inside the common eigenspaces left by its
    predecessors, so degenerate spectra are handled exactly.
    """
    states = [np.asarray(s, dtype=complex) for s in states]
    d = states[0].shape[0]
    v = np.eye(d, dtype=complex)
    groups = [list(range(d))]
    for s in states:
        refined = []
        for idx in groups:
            if len(idx) == 1:
                refined.append(idx)
                continue
            sub = v[:, idx].conj().T @ s @ v[:, idx]
            w, u = npl.eigh(hermitianize(sub))
            v[:, idx] = v[:, idx] @ u
            # split the block wherever the eigenvalues separate
            start = 0
            for i in range(1, len(idx) + 1):
                if i == len(idx) or w[i] - w[i - 1] > 1e-8 * max(1.0, abs(w[-1])):
                    refined.append([idx[j] for j in range(start, i)])
                    start = i
        groups = refined
    diags = []
    for s in states:
        rot = v.conj().T @ s @ v
        off = rot - np.diag(np.diag(rot))
        if np.max(np.abs(off)) > tol:
            return None
        diags.append(np.real(np.diag(rot)))
    return v, diags


def random_density(d: int, rng: np.random.Generator, pure: bool = False) -> np.ndarray:
    """Random density matrix: Haar pure state or normalized Wishart mixture."""
    if pure:
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        return pure_state(v)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix."""
    z = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / np.sqrt(2)
    q, r = npl.qr(z)
    phases = np.diag(r) / np.abs(np.diag(r))
    return q * phases.conj()
