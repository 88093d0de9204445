"""Mirror-symmetric-in-spirit spin chain data and its spectral theory.

A chain on sites 0..N is described by positive nearest-neighbour
couplings J_0..J_{N-1} and on-site energies h_0..h_N.  In the single
excitation sector the Hamiltonian is the (N+1) x (N+1) symmetric
tridiagonal matrix with h on the diagonal and -J (or +J) off it.  The
two off-diagonal sign conventions are unitarily equivalent through
conjugation by diag((-1)**k), so spectra and transfer amplitudes between
fixed sites agree up to that relabelling; the negative convention is the
default everywhere.

Two independent diagonalisation routes are kept deliberately separate:

* :func:`analytic_decomposition` builds eigenvectors from orthonormal
  polynomial values (see :mod:`qchain.families`), which a float spec
  computes by :func:`_twisted_vectors` at its closed-form eigenvalues,
* :func:`numeric_decomposition` hands the assembled matrix to LAPACK's
  symmetric eigensolver (``numpy.linalg.eigh``), with no reference to
  any special function.

Cross-checking one against the other is the main correctness gate for
everything downstream.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

import numpy as np

__all__ = [
    "SignConvention",
    "SpinChain",
    "SpectralDecomposition",
    "DecompositionReport",
    "assemble_matrix",
    "analytic_decomposition",
    "numeric_decomposition",
    "verify_decomposition",
]


class SignConvention(enum.Enum):
    """Sign of the off-diagonal entries of the hopping matrix."""

    POSITIVE = "pos"
    NEGATIVE = "neg"


def _frozen_array(values, dtype=float) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class SpinChain:
    """Couplings J (length N) and on-site energies h (length N+1).

    Arrays are copied and marked read-only.
    """

    couplings: np.ndarray
    fields: np.ndarray

    def __post_init__(self) -> None:
        J = _frozen_array(self.couplings)
        h = _frozen_array(self.fields)
        if J.ndim != 1 or h.ndim != 1:
            raise ValueError("couplings and fields must be one-dimensional")
        if len(h) != len(J) + 1:
            raise ValueError("need len(fields) == len(couplings) + 1")
        if np.any(J <= 0.0):
            raise ValueError("couplings must be strictly positive")
        object.__setattr__(self, "couplings", J)
        object.__setattr__(self, "fields", h)

    @property
    def n_sites(self) -> int:
        return len(self.fields)

    @property
    def last_site(self) -> int:
        return len(self.fields) - 1

    def mirror_residual(self) -> float:
        """max deviation from J_n = J_{N-1-n}, h_n = h_{N-n}."""
        J, h = self.couplings, self.fields
        rj = float(np.max(np.abs(J - J[::-1]))) if len(J) else 0.0
        rh = float(np.max(np.abs(h - h[::-1])))
        return max(rj, rh)


def assemble_matrix(
    chain: SpinChain, sign: SignConvention = SignConvention.NEGATIVE
) -> np.ndarray:
    """Single-excitation hopping matrix for the chosen sign convention."""
    h = chain.fields
    J = chain.couplings
    out = np.diag(h)
    off = -J if sign is SignConvention.NEGATIVE else J
    n = len(h)
    idx = np.arange(n - 1)
    out[idx, idx + 1] = off
    out[idx + 1, idx] = off
    return out


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending or family order) and orthonormal eigenvectors.

    ``eigenvectors[:, k]`` belongs to ``eigenvalues[k]``.  When the
    deformation parameter and family parameters are rational the exact
    eigenvalues are carried alongside as Fractions in the same order.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    exact_eigenvalues: Optional[Tuple[Fraction, ...]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "eigenvalues", _frozen_array(self.eigenvalues))
        object.__setattr__(self, "eigenvectors", _frozen_array(self.eigenvectors))

    @property
    def size(self) -> int:
        return len(self.eigenvalues)

    def reconstruction(self) -> np.ndarray:
        U = self.eigenvectors
        return (U * self.eigenvalues) @ U.T


def _twisted_vectors(
    diag: np.ndarray, off: np.ndarray, eigenvalues: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Eigenvectors of the symmetric tridiagonal matrix with diagonal
    ``diag`` and off-diagonal ``off`` (all nonzero) at the given
    eigenvalues, one column each, as (mantissa, exponent) arrays with
    entry = mantissa * 2**exponent and row 0 equal to 1.

    Each column comes from the twisted factorisation of the matrix minus
    its eigenvalue (Fernando, *SIMAX* 18 (1997); Dhillon and Parlett,
    *LAA* 387 (2004)): the pivots D+_i of the top-down and D-_i of the
    bottom-up LDL factorisations give the twist r minimising |D+_r +
    D-_r - (diag_r - eps)|, and the vector with z_r = 1 follows from
    z_i / z_{i+1} = -off_i / D+_i above r and z_{i+1} / z_i = -off_i /
    D-_{i+1} below it, in O(N) per eigenvalue.  An exactly zero pivot is
    replaced by eps_machine |off_i| of the off-diagonal it divides, as
    Dhillon and Parlett do.  The ratios z_{i+1} / z_i are multiplied
    down from row 0 with a binary exponent carried apart, so no entry
    underflows or overflows at any size.
    """
    n = len(diag)
    shifted = np.asarray(diag, dtype=float)[:, None] - np.asarray(eigenvalues, dtype=float)
    b = np.asarray(off, dtype=float)[:, None]
    tiny = np.finfo(float).eps * np.abs(b)
    plus, minus = np.empty_like(shifted), np.empty_like(shifted)
    plus[0], minus[-1] = shifted[0], shifted[-1]
    for i in range(n - 1):
        plus[i] = np.where(plus[i] == 0.0, tiny[i], plus[i])
        plus[i + 1] = shifted[i + 1] - b[i] * (b[i] / plus[i])
        j = n - 1 - i
        minus[j] = np.where(minus[j] == 0.0, tiny[j - 1], minus[j])
        minus[j - 1] = shifted[j - 1] - b[j - 1] * (b[j - 1] / minus[j])
    twist = np.argmin(np.abs(plus + minus - shifted), axis=0)
    above = np.arange(n - 1)[:, None] < twist
    steps = np.where(above, -plus[:-1] / b, -b / minus[1:])
    step_m, step_e = np.frexp(steps)
    mantissa, exponent = np.empty_like(shifted), np.empty(shifted.shape, dtype=np.int64)
    mantissa[0], exponent[0] = 0.5, 1
    for i in range(n - 1):
        m, e = np.frexp(mantissa[i] * step_m[i])
        mantissa[i + 1], exponent[i + 1] = m, e + exponent[i] + step_e[i]
    return mantissa, exponent


def _fix_column_signs(z: np.ndarray) -> np.ndarray:
    """Flip eigenvector columns so the first significant entry is positive."""
    z = z.copy()
    for k in range(z.shape[1]):
        col = z[:, k]
        scale = np.max(np.abs(col))
        lead = col[np.abs(col) > 1e-12 * scale][0]
        if lead < 0.0:
            z[:, k] = -col
    return z


def numeric_decomposition(matrix: np.ndarray) -> SpectralDecomposition:
    """Eigenvalues and orthonormal eigenvectors of a symmetric tridiagonal
    by ``numpy.linalg.eigh``.

    The input must be square, symmetric, and zero beyond the first
    off-diagonal (diagonal matrices are fine).  Output is deterministic:
    eigenvalues ascend and each eigenvector's first significant
    component is positive.  Raises numpy.linalg.LinAlgError when the
    eigensolver does not converge.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    n = a.shape[0]
    if not np.allclose(a, a.T, rtol=0.0, atol=1e-13 * max(1.0, np.abs(a).max())):
        raise ValueError("matrix must be symmetric")
    mask = ~(np.eye(n, dtype=bool) | np.eye(n, k=1, dtype=bool) | np.eye(n, k=-1, dtype=bool))
    if np.any(a[mask] != 0.0):
        raise ValueError("matrix must be tridiagonal")
    vals, vecs = np.linalg.eigh(a)
    return SpectralDecomposition(vals, _fix_column_signs(vecs))


def analytic_decomposition(data) -> SpectralDecomposition:
    """Spectral decomposition read off a spec's chain record.

    ``data`` is the spec's :class:`~qchain.families.OrthogonalityData`.
    Eigenvalues come from the family's closed eigenvalue map (exact
    Fractions carried alongside when the spec is exact) and the
    eigenvector matrix is the orthonormal polynomial table: column k of
    U is the eigenvector of eigenvalue eps_k, with U[n, k] the
    orthonormal value of degree n at grid node k.  Agrees with
    assemble_matrix(data.chain, NEGATIVE).
    """
    from . import families  # runtime import; families builds on chain

    eps = data.spectrum
    exact = eps if all(isinstance(e, Fraction) for e in eps) else None
    return SpectralDecomposition(
        np.array([float(e) for e in eps]), families.orthonormal_matrix(data), exact
    )


@dataclass(frozen=True)
class DecompositionReport:
    """Residuals of a decomposition against a matrix and the numeric oracle."""

    orthogonality_residual: float
    reconstruction_residual: float
    eigenvalue_gap: float

    def max_residual(self) -> float:
        return max(
            self.orthogonality_residual,
            self.reconstruction_residual,
            self.eigenvalue_gap,
        )


def verify_decomposition(
    dec: SpectralDecomposition, matrix: np.ndarray
) -> DecompositionReport:
    """Check U^T U = I, U diag(eps) U^T = M, and eigenvalue agreement
    with the independent :func:`numeric_decomposition` of M (both sides
    sorted)."""
    U = dec.eigenvectors
    n = dec.size
    ortho = float(np.max(np.abs(U.T @ U - np.eye(n))))
    recon = float(np.max(np.abs(dec.reconstruction() - matrix)))
    oracle = numeric_decomposition(matrix)
    gap = float(
        np.max(np.abs(np.sort(dec.eigenvalues) - oracle.eigenvalues))
    )
    return DecompositionReport(ortho, recon, gap)
