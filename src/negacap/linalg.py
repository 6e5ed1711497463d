"""Dense complex matrix kernel.

Everything downstream (channels, entangling-capacity bounds, symplectic
spectra) reduces to the operations in this module: Hermitian
eigendecomposition, Schatten norms, tensor structure and the
positive/negative split of a Hermitian operator.

Conventions frozen here and used everywhere else:

* matrices are dense ``numpy`` arrays of ``complex128`` (or real floats);
* the computational basis of a bipartite space is ``|a_i> (x) |b_j>`` with
  row index ``i * d_b + j``, matching ``numpy.kron`` ordering;
* hermiticity defects are measured entrywise (``max |M - M^dag|``);
* a Hermitian matrix whose Hermitian part has an exactly zero imaginary
  part is decomposed in real arithmetic (see ``_hermitian_part``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidP,
    NoConvergence,
    NotHermitian,
    NotPSD,
)

Array = np.ndarray

#: eigenvalues with |lam| <= ZERO_EIGENVALUE_RTOL * ||H||_inf count as zero
ZERO_EIGENVALUE_RTOL = 1e-10


def as_matrix(m: "Array | Sequence") -> Array:
    """Coerce input to a 2-D complex array (no copy if already one)."""
    a = np.asarray(m)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D matrix, got shape {a.shape}")
    if not np.issubdtype(a.dtype, np.complexfloating):
        a = a.astype(complex)
    return a


def hermiticity_defect(m: Array) -> float:
    m = np.asarray(m)
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0


@dataclass(frozen=True)
class BipartiteDims:
    """Factor dimensions (d_a, d_b) of a bipartite space."""

    d_a: int
    d_b: int

    def __post_init__(self):
        if self.d_a < 1 or self.d_b < 1:
            raise DimensionMismatch(f"factor dims must be positive, got {self}")

    @property
    def total(self) -> int:
        return self.d_a * self.d_b

    def check_side(self, side: int):
        if side != self.total:
            raise DimensionMismatch(
                f"operator side {side} != d_a*d_b = {self.total}"
            )


@dataclass(frozen=True)
class HermitianSplit:
    """Spectral split H = plus - minus with PSD parts of orthogonal range."""

    plus: Array
    minus: Array


def _hermitian_part(h: Array) -> Array:
    """``(H + H^dag)/2``, as a real array when its imaginary part is exactly zero.

    LAPACK then runs the real symmetric solver, about twice as fast as
    the complex one on the same matrix. There is no tolerance: any
    nonzero imaginary entry keeps the complex path.
    """
    a = (h + h.conj().T) / 2.0
    if not a.imag.any():
        return a.real
    return a


def eig_hermitian(h: Array, tol: float | None = None) -> Tuple[Array, Array]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, v)`` with eigenvalues ``w`` ascending and ``v`` unitary
    (columns are the eigenvectors); ``v`` is real orthogonal when the
    Hermitian part of ``H`` is real. Raises :class:`NotHermitian` when the
    entrywise hermiticity defect exceeds ``tol`` (default
    ``1e-9 * max(1, |H|_max)``) and :class:`NoConvergence` when the
    underlying QR iteration gives up.
    """
    h = as_matrix(h)
    if h.shape[0] != h.shape[1]:
        raise DimensionMismatch(f"expected square matrix, got {h.shape}")
    if tol is None:
        tol = 1e-9 * max(1.0, float(np.max(np.abs(h))) if h.size else 0.0)
    defect = hermiticity_defect(h)
    if defect > tol:
        raise NotHermitian(f"hermiticity defect {defect:.3e} exceeds {tol:.3e}")
    try:
        w, v = np.linalg.eigh(_hermitian_part(h))
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NoConvergence(str(exc)) from exc
    return w, v


def eigvals_hermitian(h: Array) -> Array:
    """Ascending eigenvalues of the Hermitian part ``(H + H^dag)/2``.

    Does no hermiticity check: callers test ``H`` against their own
    tolerance first.
    """
    try:
        return np.linalg.eigvalsh(_hermitian_part(as_matrix(h)))
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NoConvergence(str(exc)) from exc


def positive_negative_parts(h: Array, tol: float | None = None) -> HermitianSplit:
    """Split a Hermitian H into H = plus - minus by eigenvalue sign.

    Eigenvalues with ``|lam| <= tol`` (default ``1e-10 * ||H||_inf``)
    contribute to neither part, so both parts are PSD with orthogonal
    ranges and the split is the trace-minimal one.
    """
    w, v = eig_hermitian(h)
    if tol is None:
        tol = ZERO_EIGENVALUE_RTOL * (float(np.max(np.abs(w))) if w.size else 0.0)
    pos = w > tol
    neg = w < -tol
    plus = (v[:, pos] * w[pos]) @ v[:, pos].conj().T
    minus = (v[:, neg] * (-w[neg])) @ v[:, neg].conj().T
    return HermitianSplit(plus=plus, minus=minus)


def singular_values(o: Array) -> Array:
    """Singular values (descending), i.e. the root eigenvalues of O^dag O.

    Computed by a direct SVD: eigendecomposing the Gram matrix squares
    the condition number and inflates zero singular values to
    sqrt(eps) * s_max, which the 1e-9 trace-norm tolerances downstream
    cannot absorb.
    """
    o = as_matrix(o)
    return np.linalg.svd(o, compute_uv=False)


def schatten_norm(o: Array, p: float) -> float:
    """Schatten p-norm; p=1 trace norm, p=2 Hilbert-Schmidt, p=inf operator."""
    if p < 1:
        raise InvalidP(f"Schatten exponent must satisfy p >= 1, got {p}")
    s = singular_values(o)
    if s.size == 0:
        return 0.0
    if np.isinf(p):
        return float(s[0])
    return float(np.sum(s**p) ** (1.0 / p))


def trace_norm(o: Array) -> float:
    return schatten_norm(o, 1)


def operator_norm(o: Array) -> float:
    return schatten_norm(o, np.inf)


def tensor(a: Array, b: Array) -> Array:
    """Kronecker product with A-major index ordering."""
    return np.kron(as_matrix(a), as_matrix(b))


def partial_trace(o: Array, dims: BipartiteDims, keep: str) -> Array:
    """Trace out one factor of a bipartite operator; ``keep`` is 'a' or 'b'."""
    o = as_matrix(o)
    dims.check_side(o.shape[0])
    if o.shape[0] != o.shape[1]:
        raise DimensionMismatch("partial trace needs a square operator")
    t = o.reshape(dims.d_a, dims.d_b, dims.d_a, dims.d_b)
    if keep == "a":
        return np.einsum("ijkj->ik", t)
    if keep == "b":
        return np.einsum("ijil->jl", t)
    raise DimensionMismatch(f"keep must be 'a' or 'b', got {keep!r}")


def partial_transpose(o: Array, dims: BipartiteDims, side: str = "a") -> Array:
    """Transpose one factor of a bipartite operator in the product basis.

    Involutive and trace preserving; a Hilbert-Schmidt isometry.
    """
    o = as_matrix(o)
    dims.check_side(o.shape[0])
    if o.shape[0] != o.shape[1]:
        raise DimensionMismatch("partial transpose needs a square operator")
    t = o.reshape(dims.d_a, dims.d_b, dims.d_a, dims.d_b)
    if side == "a":
        t = t.transpose(2, 1, 0, 3)
    elif side == "b":
        t = t.transpose(0, 3, 2, 1)
    else:
        raise DimensionMismatch(f"side must be 'a' or 'b', got {side!r}")
    return t.reshape(o.shape)


def sqrt_psd(p: Array, tol: float | None = None) -> Array:
    """Hermitian square root of a PSD matrix.

    Raises :class:`NotPSD` if an eigenvalue falls below ``-tol``
    (default ``1e-10 * ||P||_inf``); eigenvalues in ``[-tol, 0)`` are
    clipped to zero.
    """
    w, v = eig_hermitian(p)
    if tol is None:
        tol = ZERO_EIGENVALUE_RTOL * (float(np.max(np.abs(w))) if w.size else 0.0)
    if w.size and w[0] < -tol:
        raise NotPSD(f"eigenvalue {w[0]:.3e} below -{tol:.3e}")
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
