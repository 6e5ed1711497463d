"""Linear maps on operators, represented by their Choi matrices.

A map ``L : B(H1) -> B(H2)`` is stored as the operator
``T(L) = sum_ij E_ij (x) L(E_ij)`` on ``H1 (x) H2``, with ``E_ij`` the
matrix units of the fixed computational basis. The Choi matrix is the
single source of truth; Kraus forms are derived views. Both ``H1`` and
``H2`` carry an explicit A:B bipartition so the map-level partial
transpose knows all four factor dimensions.

Key facts used throughout (and verified by the test suite):

* L is CP iff T(L) >= 0, HP iff T(L) is Hermitian;
* L is TP iff L^dag(I) = I, with L^dag(I) = tr_2 T(L)^*;
* T(L^Gamma) equals the partial transpose of T(L) over the two A factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np

from .errors import BadWeights, DimensionMismatch, NotHP
from .linalg import (
    Array,
    BipartiteDims,
    as_matrix,
    eig_hermitian,
    eigvals_hermitian,
    hermiticity_defect,
    positive_negative_parts,
)


@dataclass(frozen=True)
class Channel:
    """A linear map on operators, stored as its Choi matrix.

    ``in_dims``/``out_dims`` are the A:B bipartitions of the input space
    ``H1`` and output space ``H2``; the Choi matrix lives on ``H1 (x) H2``.
    """

    choi: Array
    in_dims: BipartiteDims
    out_dims: BipartiteDims

    def __post_init__(self):
        choi = as_matrix(self.choi)
        side = self.in_dims.total * self.out_dims.total
        if choi.shape != (side, side):
            raise DimensionMismatch(
                f"Choi matrix shape {choi.shape} != ({side}, {side})"
            )
        choi = choi.copy()
        choi.flags.writeable = False
        object.__setattr__(self, "choi", choi)

    @property
    def d_in(self) -> int:
        return self.in_dims.total

    @property
    def d_out(self) -> int:
        return self.out_dims.total


@dataclass(frozen=True)
class KrausForm:
    """Operator-sum data: L(O) = sum_i c_i V_i O V_i^dag.

    The ``operators`` are pairwise orthonormal under the Hilbert-Schmidt
    inner product; coefficients are real (negative for non-CP maps).
    """

    coefficients: Tuple[float, ...]
    operators: Tuple[Array, ...]


@dataclass(frozen=True)
class MapSplit:
    """An HP map as the difference of two CP maps, L = plus - minus."""

    plus: Channel
    minus: Channel


def _bell_vector(v: Array) -> Array:
    # (I (x) V)|Psi> with |Psi> = sum_j |a_j>|a_j>, as a flat vector
    return np.asarray(v).T.reshape(-1)


def choi_from_kraus(
    kraus: "KrausForm | Sequence[Tuple[float, Array]]",
    in_dims: BipartiteDims,
    out_dims: BipartiteDims,
) -> Channel:
    """Build a channel from operator-sum terms ``(c_i, V_i)``."""
    if isinstance(kraus, KrausForm):
        terms = list(zip(kraus.coefficients, kraus.operators))
    else:
        terms = list(kraus)
    d1, d2 = in_dims.total, out_dims.total
    choi = np.zeros((d1 * d2, d1 * d2), dtype=complex)
    for c, v in terms:
        v = as_matrix(v)
        if v.shape != (d2, d1):
            raise DimensionMismatch(
                f"Kraus operator shape {v.shape} != ({d2}, {d1})"
            )
        w = _bell_vector(v)
        choi += c * np.outer(w, w.conj())
    return Channel(choi=choi, in_dims=in_dims, out_dims=out_dims)


def channel_from_map(
    fn: Callable[[Array], Array],
    in_dims: BipartiteDims,
    out_dims: BipartiteDims,
) -> Channel:
    """Choi matrix of an arbitrary map, built entrywise on the basis E_ij."""
    d1, d2 = in_dims.total, out_dims.total
    t = np.zeros((d1, d2, d1, d2), dtype=complex)
    e = np.zeros((d1, d1), dtype=complex)
    for i in range(d1):
        for j in range(d1):
            e[i, j] = 1.0
            out = as_matrix(fn(e))
            if out.shape != (d2, d2):
                raise DimensionMismatch(
                    f"map output shape {out.shape} != ({d2}, {d2})"
                )
            t[i, :, j, :] = out
            e[i, j] = 0.0
    return Channel(choi=t.reshape(d1 * d2, d1 * d2), in_dims=in_dims, out_dims=out_dims)


def identity_channel(dims: BipartiteDims) -> Channel:
    return choi_from_kraus([(1.0, np.eye(dims.total))], dims, dims)


def unitary_channel(u: Array, dims: BipartiteDims) -> Channel:
    """Deterministic operation O -> U O U^dag on a bipartite space."""
    u = as_matrix(u)
    dims.check_side(u.shape[0])
    return choi_from_kraus([(1.0, u)], dims, dims)


def kraus_channel(
    v: Array,
    in_dims: BipartiteDims,
    out_dims: BipartiteDims,
    coefficient: float = 1.0,
) -> Channel:
    """Single-Kraus (sub-)operation O -> c V O V^dag."""
    return choi_from_kraus([(coefficient, v)], in_dims, out_dims)


def _choi_tensor(ch: Channel) -> Array:
    return ch.choi.reshape(ch.d_in, ch.d_out, ch.d_in, ch.d_out)


def apply(ch: Channel, o: Array) -> Array:
    """Apply the map to an operator: L(O) = tr_1((O^T (x) I) T(L))."""
    o = as_matrix(o)
    if o.shape != (ch.d_in, ch.d_in):
        raise DimensionMismatch(f"operator shape {o.shape} != ({ch.d_in}, {ch.d_in})")
    return np.einsum("ij,ikjl->kl", o, _choi_tensor(ch))


def adjoint_identity(ch: Channel) -> Array:
    """L^dag(I) = tr_2 T(L)^*, conjugated entrywise in the product basis.

    Equals ``sum_i c_i V_i^dag V_i`` for operator-sum channels and the
    identity for TP maps.
    """
    return np.einsum("ikjk->ij", _choi_tensor(ch)).conj()


def is_hp(ch: Channel, tol: float = 1e-9) -> bool:
    """Hermiticity preserving iff the Choi matrix is Hermitian."""
    return hermiticity_defect(ch.choi) <= tol


def is_cp(ch: Channel, tol: float = 1e-9) -> bool:
    """Completely positive iff the Choi matrix is PSD."""
    if not is_hp(ch, tol):
        return False
    return bool(eigvals_hermitian(ch.choi)[0] >= -tol)


def is_tp(ch: Channel, tol: float = 1e-9) -> bool:
    """Trace preserving iff L^dag(I) = I."""
    defect = np.abs(adjoint_identity(ch) - np.eye(ch.d_in))
    return float(np.max(defect)) <= tol


def is_cptp(ch: Channel, tol: float = 1e-9) -> bool:
    return is_cp(ch, tol) and is_tp(ch, tol)


def hp_split(ch: Channel, tol: float | None = None) -> MapSplit:
    """Canonical (spectral) split of an HP map into CP parts.

    The Choi matrices of ``plus``/``minus`` are the positive/negative
    eigenvalue parts of T(L); among all CP splits this one minimizes
    ``tr L~_-^dag(I)``.
    """
    if not is_hp(ch, tol if tol is not None else 1e-9):
        raise NotHP("hp_split needs a Hermiticity-preserving channel")
    split = positive_negative_parts(ch.choi, tol=tol)
    return MapSplit(
        plus=Channel(choi=split.plus, in_dims=ch.in_dims, out_dims=ch.out_dims),
        minus=Channel(choi=split.minus, in_dims=ch.in_dims, out_dims=ch.out_dims),
    )


def kraus_from_choi(ch: Channel, tol: float | None = None) -> KrausForm:
    """Operator-sum form from the spectral decomposition of the Choi matrix.

    Each eigenvector ``sum_jk d_jk |a_j>|b_k>`` is reshaped into
    ``V = sum_jk d_jk |b_k><a_j|``; the coefficient is the eigenvalue.
    Kraus operators are unique only up to remixing inside degenerate
    eigenspaces, so tests must compare channel action, never the lists.
    """
    if not is_hp(ch):
        raise NotHP("kraus_from_choi needs a Hermiticity-preserving channel")
    w, v = eig_hermitian(ch.choi)
    if tol is None:
        tol = 1e-12 * max(1.0, float(np.max(np.abs(w))) if w.size else 0.0)
    coeffs = []
    ops = []
    for i in range(len(w) - 1, -1, -1):  # descending by eigenvalue
        if abs(w[i]) <= tol:
            continue
        coeffs.append(float(w[i]))
        ops.append(v[:, i].reshape(ch.d_in, ch.d_out).T)
    return KrausForm(coefficients=tuple(coeffs), operators=tuple(ops))


def map_partial_transpose(ch: Channel) -> Channel:
    """The partially transposed map L^Gamma = Gamma o L o Gamma.

    Realized as the partial transpose of the Choi matrix over the two
    A factors (of H1 and H2 jointly). Involutive; preserves HP and TP.
    """
    a1, b1 = ch.in_dims.d_a, ch.in_dims.d_b
    a2, b2 = ch.out_dims.d_a, ch.out_dims.d_b
    t = ch.choi.reshape(a1, b1, a2, b2, a1, b1, a2, b2)
    t = t.transpose(4, 1, 6, 3, 0, 5, 2, 7)
    side = ch.d_in * ch.d_out
    return Channel(
        choi=t.reshape(side, side), in_dims=ch.in_dims, out_dims=ch.out_dims
    )


def mix(channels: Sequence[Channel], weights: Sequence[float]) -> Channel:
    """Convex mixture: Choi(mix) = sum_i w_i Choi_i."""
    if len(channels) != len(weights) or not channels:
        raise BadWeights("need one weight per channel")
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
        raise BadWeights(f"weights must be nonnegative and sum to 1, got {weights}")
    first = channels[0]
    for ch in channels[1:]:
        if ch.in_dims != first.in_dims or ch.out_dims != first.out_dims:
            raise DimensionMismatch("mixed channels must share dimensions")
    choi = sum(wi * ch.choi for wi, ch in zip(w, channels))
    return Channel(choi=choi, in_dims=first.in_dims, out_dims=first.out_dims)


def compose(ch2: Channel, ch1: Channel) -> Channel:
    """Composition ch2 o ch1 (apply ch1 first)."""
    if ch1.out_dims != ch2.in_dims:
        raise DimensionMismatch(
            f"cannot compose: {ch1.out_dims} feeds into {ch2.in_dims}"
        )
    t1 = _choi_tensor(ch1)
    t2 = _choi_tensor(ch2)
    out = np.einsum("kmln,ikjl->imjn", t2, t1)
    side = ch1.d_in * ch2.d_out
    return Channel(
        choi=out.reshape(side, side), in_dims=ch1.in_dims, out_dims=ch2.out_dims
    )
