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

# Ceiling on the memory one computation may hold in its arrays: one
# 4096 x 4096 complex matrix.  Larger systems must go through the
# closed-form block formulas instead.
MAX_BYTES = 2**28


class DimensionBudgetError(ValueError):
    """Requested arrays would exceed the memory budget MAX_BYTES."""


class NumericalFailure(RuntimeError):
    """A computed quantity failed its internal sanity check."""


def require_bytes(nbytes: float, what: str) -> None:
    """Raise DimensionBudgetError, before anything is allocated, if ``what``
    needs more than MAX_BYTES."""
    if nbytes > MAX_BYTES:
        raise DimensionBudgetError(
            f"{what} needs about {nbytes / 2**20:.0f} MiB, over the budget of {MAX_BYTES / 2**20:.0f} MiB"
        )


def tensor(*factors: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more matrices, within MAX_BYTES."""
    if not factors:
        raise ValueError("tensor() needs at least one factor")
    rows = cols = 1
    for f in factors:
        rows *= f.shape[0]
        cols *= f.shape[1]
    require_bytes(rows * cols * 16, f"a {rows} x {cols} tensor product")
    out = np.asarray(factors[-1], dtype=complex)
    for f in reversed(factors[:-1]):
        # np.kron(f, out) by one broadcast product, the inner loop over the big factor
        out = (f[:, None, :, None] * out[None, :, None, :]).reshape(f.shape[0] * out.shape[0], -1)
    return out


def hermitianize(a: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (A + A*)/2, of each matrix of a stack."""
    return (a + a.conj().swapaxes(-1, -2)) / 2


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


def _root_eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Square roots of the eigenvalues, and the eigenvectors, of a Hermitian
    PSD matrix or of each of a stack (leading axes broadcast).  Each is
    checked on its own: a Hermitian residual above 1e-10 or an eigenvalue
    below -1e-10 relative to its largest is rejected."""
    m = np.asarray(m, dtype=complex)
    herm_res = np.abs(m - m.conj().swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)
    if np.any(herm_res > 1e-10):
        raise ValueError(f"psd_sqrt: input not Hermitian (residual {herm_res.max():.3e})")
    w, v = npl.eigh(hermitianize(m))
    top = np.abs(w[..., -1:])
    if np.any(w[..., :1] < -1e-10 * np.maximum(1.0, top)):
        raise ValueError(f"psd_sqrt: negative eigenvalue {w[..., 0].min():.3e}")
    # Zero the near-null space: sqrt amplifies eigensolver noise at 0
    # (1e-16 -> 1e-8), which would wreck fidelities of rank-deficient states.
    return np.sqrt(np.where(w > top * 1e-13, w, 0.0)), v


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Principal square root of a Hermitian PSD matrix, or of each of a stack,
    checked and cut by ``_root_eigh``."""
    s, v = _root_eigh(m)
    return (v * s[..., None, :]) @ v.conj().swapaxes(-1, -2)


def psd_factor(m: np.ndarray) -> np.ndarray:
    """Factor V, M = V V*, of a Hermitian PSD matrix: a column per eigenvalue psd_sqrt keeps."""
    s, v = _root_eigh(m)
    return v[:, s > 0] * s[s > 0]


def fidelity(rho: np.ndarray, sigma: np.ndarray):
    """Root fidelity Tr|sqrt(rho) sqrt(sigma)| of two density matrices, or
    of each pair of two stacks (leading axes broadcast): ``factor_fidelity``
    of the square roots.  Symmetric; equals 1 iff the states coincide; for
    pure states |<psi|phi>|.  Two matrices give a float, stacks an array."""
    rho, sigma = np.asarray(rho), np.asarray(sigma)
    if rho.shape[-2:] != sigma.shape[-2:]:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {sigma.shape}")
    return factor_fidelity(psd_sqrt(rho), psd_sqrt(sigma))


def factor_fidelity(v: np.ndarray, x: np.ndarray):
    """Root fidelity of V V* and X X*, or of each pair of two stacks: the sum
    of the singular values of V* X for any factors V and X (Uhlmann 1976),
    so no matrix square root is taken and the SVD is only as wide as X."""
    sv = npl.svd(v.conj().swapaxes(-1, -2) @ x, compute_uv=False)
    f = np.minimum(1.0, sv.sum(axis=-1))
    return float(f) if f.ndim == 0 else f


def bures(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Bures distance sqrt(1 - Tr|sqrt(rho) sqrt(sigma)|); in [0, 1]."""
    return float(np.sqrt(max(0.0, 1.0 - fidelity(rho, sigma))))


def partial_trace(state: np.ndarray, d: int, keep: int) -> np.ndarray:
    """Trace out all tensor slots except ``keep`` from a state on (C^d)^{x n},
    or from each state of a stack (leading axes kept).

    ``n`` is inferred from the matrix size, which must be an exact power
    of d.  Slots are 0-indexed.  The trace of the result equals the
    trace of the input.
    """
    dim = state.shape[-1]
    n = round(np.log(dim) / np.log(d)) if d > 1 and dim > 0 else 0
    if d**n != dim or state.shape[-2:] != (dim, dim):
        raise ValueError(f"state dimension {state.shape} is not a power of d={d}")
    if not 0 <= keep < n:
        raise ValueError(f"keep index {keep} out of range for n={n}")
    # rows and columns split as (slots before, slot keep, slots after)
    split = (d**keep, d, d ** (n - keep - 1))
    return np.einsum("...aibajb->...ij", state.reshape(state.shape[:-2] + split + split))


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
        if not all(w >= -VALIDATION_TOL for w in self.weights):  # NaN fails too
            raise ValueError("atom weights must be non-negative numbers")
        if not abs(sum(self.weights) - 1.0) <= VALIDATION_TOL:
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
