"""Negativity measures and entangling-capacity bounds.

For a CPTP operation S between bipartite spaces, how much negativity it
can create is governed by the negative part of its partially transposed
map: with M = (S^Gamma)_-^dag(I),

    ||M||_1 / (d_A d_B)          <=  EC_N(S)  <=  ||M||_inf * ||rho^G||_1
    log(1 + 2||M||_1/(d_A d_B))  <=  EC_L(S)  <=  log(1 + 2||M||_inf)

with the canonical (spectral) split of S^Gamma on the left and any CP
split on the right. M vanishes exactly for PPT operations, so these
bounds measure how strongly non-PPT an operation is; ``gamma_norm``
makes the same statement as a norm on maps and states. The module also
covers the distance version of the bounds, the operator-Schmidt route
to the same witness, PPT/separability tests for unitaries and pure
states, and the saturation conditions under which lower and upper
bounds meet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from . import channel as chn
from .channel import Channel, MapSplit
from .errors import (
    BoundsOutOfOrder,
    DimensionMismatch,
    NotCPTP,
    NotDensityOperator,
    NotHermitian,
    NotHP,
    NotNormalized,
    NotTPSum,
    NotUnitary,
)
from .linalg import (
    ZERO_EIGENVALUE_RTOL,
    Array,
    BipartiteDims,
    as_matrix,
    eig_hermitian,
    eigvals_hermitian,
    hermiticity_defect,
    operator_norm,
    partial_transpose,
    schatten_norm,
    tensor,
    trace_norm,
)


def _check_density(rho: Array, tol: float) -> Array:
    rho = as_matrix(rho)
    if rho.shape[0] != rho.shape[1]:
        raise NotDensityOperator(f"density operator must be square, got {rho.shape}")
    if abs(np.trace(rho) - 1.0) > tol:
        raise NotDensityOperator(f"trace {np.trace(rho):.12g} != 1")
    w, _ = eig_hermitian(rho, tol=tol)
    if w[0] < -tol:
        raise NotDensityOperator(f"eigenvalue {w[0]:.3e} below -{tol:.3e}")
    return rho


def negativity(rho: Array, dims: BipartiteDims, tol: float = 1e-9) -> float:
    """E_N(rho) = (||rho^Gamma||_1 - 1)/2 = tr (rho^Gamma)^-."""
    rho = _check_density(rho, tol)
    dims.check_side(rho.shape[0])
    w, _ = eig_hermitian(partial_transpose(rho, dims))
    return float(-np.sum(w[w < 0.0]))


def log_negativity(
    rho: Array, dims: BipartiteDims, base: float = 2.0, tol: float = 1e-9
) -> float:
    """E_L(rho) = log_base ||rho^Gamma||_1; zero for PPT states."""
    rho = _check_density(rho, tol)
    dims.check_side(rho.shape[0])
    w, _ = eig_hermitian(partial_transpose(rho, dims))
    return max(math.log(float(np.sum(np.abs(w))), base), 0.0)


def gamma_norm(
    obj: "Array | Channel",
    p: float = 1.0,
    dims: BipartiteDims | None = None,
    normalized: bool = False,
) -> float:
    """Schatten norm after partial transposition.

    Operators: ``||O^Gamma||_p`` (needs ``dims``). Channels:
    ``||T(L^Gamma)||_p``. With ``normalized=True`` a sub-operation is
    rescaled by ``||T(S)||_1 / (d_A d_B)`` so that sub-operations and
    deterministic operations are on the same footing.
    """
    if isinstance(obj, Channel):
        value = schatten_norm(chn.map_partial_transpose(obj).choi, p)
        if normalized:
            d = obj.in_dims.total
            value /= trace_norm(obj.choi) / d
        return value
    if dims is None:
        raise DimensionMismatch("gamma_norm of an operator needs bipartite dims")
    o = as_matrix(obj)
    dims.check_side(o.shape[0])
    return schatten_norm(partial_transpose(o, dims), p)


def gamma_split(ch: Channel, tol: float | None = None) -> MapSplit:
    """Canonical CP split of the partially transposed map S^Gamma."""
    return chn.hp_split(chn.map_partial_transpose(ch), tol=tol)


def _pt_eigenpairs(ch: Channel, tol: float) -> Tuple[Array, Array]:
    """Eigenpairs of T(S^Gamma); raises NotHP when its defect exceeds ``tol``."""
    try:
        return eig_hermitian(chn.map_partial_transpose(ch).choi, tol=tol)
    except NotHermitian as exc:
        raise NotHP(f"S^Gamma is not Hermiticity preserving: {exc}") from exc


def _minus_identity(w: Array, v: Array, d_in: int, tol: float | None) -> Array:
    """M = (S^Gamma)_-^dag(I) from the eigenpairs ``(w, v)`` of T(S^Gamma).

    With each eigenvector indexed ``v_n[i, k]`` (input i, output k),
    ``M_ij = sum_kn |w_n| v_n[i, k]^* v_n[j, k]`` over the eigenvalues
    below ``-tol`` (default ``ZERO_EIGENVALUE_RTOL * max |w|``).
    """
    if tol is None:
        tol = ZERO_EIGENVALUE_RTOL * (float(np.max(np.abs(w))) if w.size else 0.0)
    neg = w < -tol
    # rows i, columns (k, n): the sum over k and n is one matrix product
    vecs = v[:, neg].reshape(d_in, -1)
    weighted = (v[:, neg] * -w[neg]).reshape(d_in, -1)
    return vecs.conj() @ weighted.T


def pt_minus_identity(ch: Channel, tol: float | None = None) -> Array:
    """The bound-driving operator M = (S^Gamma)_-^dag(I); zero iff S is PPT.

    Equals ``adjoint_identity(gamma_split(ch, tol).minus)``, contracted
    straight from the negative eigenpairs of T(S^Gamma) so that neither
    part of the split is formed. ``tol`` (default 1e-9) is the
    hermiticity tolerance of T(S^Gamma); when given it is also the
    zero-eigenvalue cut-off.
    """
    w, v = _pt_eigenpairs(ch, tol if tol is not None else 1e-9)
    return _minus_identity(w, v, ch.d_in, tol)


@dataclass(frozen=True)
class ECBounds:
    """Entangling-capacity bounds in terms of negativities.

    ``upper_n_coefficient`` multiplies ``||rho^Gamma||_1`` of the input
    state; ``upper_n_max`` substitutes its dimensional maximum
    ``min(d_A, d_B)``. Logarithms use ``log_base``.
    """

    lower_n: float
    upper_n_coefficient: float
    upper_n_max: float
    lower_l: float
    upper_l: float
    log_base: float = 2.0

    def __post_init__(self):
        if self.lower_n > self.upper_n_max + 1e-12:
            raise BoundsOutOfOrder("lower_n exceeds upper_n_max")
        if self.lower_l > self.upper_l + 1e-12:
            raise BoundsOutOfOrder("lower_l exceeds upper_l")


def _require_cptp(ch: Channel, tol: float):
    if not chn.is_cptp(ch, tol):
        raise NotCPTP("operation must be CPTP within tolerance")


def _ec_bounds(
    lower_tr: float, upper_coeff: float, dims: BipartiteDims, base: float
) -> ECBounds:
    """Deterministic bounds from ``||M||_1`` (lower) and the upper-bound norm of M."""
    d = dims.total
    return ECBounds(
        lower_n=lower_tr / d,
        upper_n_coefficient=upper_coeff,
        upper_n_max=upper_coeff * min(dims.d_a, dims.d_b),
        lower_l=math.log(1.0 + 2.0 * lower_tr / d, base),
        upper_l=math.log(1.0 + 2.0 * upper_coeff, base),
        log_base=base,
    )


def ec_bounds_deterministic(
    ch: Channel, base: float = 2.0, tol: float = 1e-9
) -> ECBounds:
    """Bounds on the entangling capacity of a deterministic operation.

    Both bounds come from the witness M of the canonical spectral split:
    the lower bounds from ``||M||_1``, which that split minimizes over CP
    splits, and the upper bounds from ``||M||_inf``, which it need not
    minimize (the Appendix-C comparison with convex splits).
    """
    _require_cptp(ch, tol)
    m = pt_minus_identity(ch)
    return _ec_bounds(trace_norm(m), operator_norm(m), ch.in_dims, base)


def _is_prop_identity(m: Array, m_operator_norm: float, tol: float) -> bool:
    """M is proportional to the identity within ``tol`` relative to ``||M||_inf``."""
    d = m.shape[0]
    defect = float(np.max(np.abs(m - np.trace(m) / d * np.eye(d))))
    return defect <= tol * max(m_operator_norm, 1e-30)


@dataclass(frozen=True)
class ChannelAnalysis:
    """Predicates, witness and norms of a channel from two spectra.

    ``hp``/``cp``/``tp`` are the Choi predicates at the ``tol`` of
    :func:`analyze_channel`. When the
    channel is HP, ``witness`` is M = (S^Gamma)_-^dag(I) as
    :func:`pt_minus_identity` returns it, ``gamma_norm_1`` is
    ``||T(S^Gamma)||_1`` and ``ppt`` says ``||M||_1 <= max(tol, 1e-9)``;
    otherwise these are ``None``.
    """

    in_dims: BipartiteDims
    hp: bool
    cp: bool
    tp: bool
    witness: Array | None = None
    gamma_norm_1: float | None = None
    witness_trace_norm: float | None = None
    witness_operator_norm: float | None = None
    ppt: bool | None = None

    def bounds(self, base: float = 2.0) -> ECBounds:
        """The bounds of :func:`ec_bounds_deterministic`."""
        if not (self.cp and self.tp):
            raise NotCPTP("operation must be CPTP within tolerance")
        return _ec_bounds(
            self.witness_trace_norm, self.witness_operator_norm, self.in_dims, base
        )

    def prop_identity(self, tol: float) -> bool:
        """M is proportional to the identity, so the bounds coincide."""
        if self.witness is None:
            raise NotHP("the witness needs a Hermiticity-preserving channel")
        return _is_prop_identity(self.witness, self.witness_operator_norm, tol)


def analyze_channel(ch: Channel, tol: float = 1e-9) -> ChannelAnalysis:
    """One spectral analysis of a channel: the Choi and PT-Choi spectra.

    Runs one eigenvalue solve of T(S), for CP, and one eigendecomposition
    of T(S^Gamma), from which M, ``||T(S^Gamma)||_1 = sum |w|`` and the
    norms of M follow. T(S^Gamma) is held to the hermiticity tolerance
    1e-9 of :func:`pt_minus_identity`.
    """
    hp = hermiticity_defect(ch.choi) <= tol
    cp = hp and bool(eigvals_hermitian(ch.choi)[0] >= -tol)
    tp = chn.is_tp(ch, tol)
    if not hp:
        return ChannelAnalysis(in_dims=ch.in_dims, hp=hp, cp=cp, tp=tp)
    w, v = _pt_eigenpairs(ch, 1e-9)
    witness = _minus_identity(w, v, ch.d_in, None)
    witness_trace_norm = trace_norm(witness)
    return ChannelAnalysis(
        in_dims=ch.in_dims,
        hp=hp,
        cp=cp,
        tp=tp,
        witness=witness,
        gamma_norm_1=float(np.sum(np.abs(w))),
        witness_trace_norm=witness_trace_norm,
        witness_operator_norm=operator_norm(witness),
        ppt=witness_trace_norm <= max(tol, 1e-9),
    )


class PerSubBounds(NamedTuple):
    """Per-sub-operation data entering the probabilistic bounds.

    ``p_i E_N_i <= E_N (plus_norm + minus_norm) + minus_norm`` bounds the
    expected negativity after the sub-operation from initial negativity
    E_N; ``lower_n``/``lower_l`` are this sub-operation's contributions
    to the overall lower bounds.
    """

    probability: float
    lower_n: float
    lower_l: float
    minus_norm: float
    plus_norm: float


@dataclass(frozen=True)
class ProbabilisticBounds:
    bounds: ECBounds
    per_sub: Tuple[PerSubBounds, ...]


def ec_bounds_probabilistic(
    subs: Sequence[Channel], base: float = 2.0, tol: float = 1e-9
) -> ProbabilisticBounds:
    """Bounds for a probabilistic operation given as CP sub-operations.

    Requires each sub-operation CP and the sum TP. Lower bounds come
    from feeding the maximally entangled state through each
    sub-operation (probability ``tr T(S_i) / (d_A d_B)``); upper bounds
    use the convex split ``sum_i (S_i^Gamma)_+-``.
    """
    if not subs:
        raise NotTPSum("need at least one sub-operation")
    d = subs[0].in_dims.total
    total = np.zeros_like(subs[0].choi)
    for sub in subs:
        if sub.in_dims != subs[0].in_dims or sub.out_dims != subs[0].out_dims:
            raise DimensionMismatch("sub-operations must share dimensions")
        if not chn.is_cp(sub, tol):
            raise NotTPSum("every sub-operation must be CP")
        total = total + sub.choi
    total_ch = Channel(choi=total, in_dims=subs[0].in_dims, out_dims=subs[0].out_dims)
    if not chn.is_tp(total_ch, tol):
        raise NotTPSum("sub-operations must sum to a TP map")

    lower_n = 0.0
    lower_l = 0.0
    m_sum = np.zeros((d, d), dtype=complex)
    records: List[PerSubBounds] = []
    for sub in subs:
        split = gamma_split(sub)
        m_minus = chn.adjoint_identity(split.minus)
        m_plus = chn.adjoint_identity(split.plus)
        prob = float(np.trace(sub.choi).real) / d
        minus_tr = trace_norm(m_minus)
        gamma_tr = minus_tr + trace_norm(m_plus)  # ||T(S_i^Gamma)||_1
        sub_lower_n = minus_tr / d
        sub_lower_l = (
            prob * math.log(gamma_tr / (prob * d), base) if prob > tol else 0.0
        )
        lower_n += sub_lower_n
        lower_l += sub_lower_l
        m_sum += m_minus
        records.append(
            PerSubBounds(
                probability=prob,
                lower_n=sub_lower_n,
                lower_l=sub_lower_l,
                minus_norm=operator_norm(m_minus),
                plus_norm=operator_norm(m_plus),
            )
        )
    upper_coeff = operator_norm(m_sum)
    da, db = subs[0].in_dims.d_a, subs[0].in_dims.d_b
    bounds = ECBounds(
        lower_n=lower_n,
        upper_n_coefficient=upper_coeff,
        upper_n_max=upper_coeff * min(da, db),
        lower_l=max(lower_l, 0.0),
        upper_l=math.log(1.0 + 2.0 * upper_coeff, base),
        log_base=base,
    )
    return ProbabilisticBounds(bounds=bounds, per_sub=tuple(records))


def distance_bounds(
    s1: Channel, s2: Channel, rho: Array, tol: float = 1e-9, p: float = np.inf
) -> Tuple[float, float, float]:
    """The three quantities of the distance bound, in proved order.

    Returns ``(lhs, mid, rhs)`` with

        lhs = D_1Gamma(S1(rho), S2(rho))
        mid = 2 ||(S2^G - S1^G)_+-^dag(I)||_p * ||rho^G||_q
        rhs = D_1Gamma(S1, S2) * ||rho^G||_1

    where q is the Hoelder conjugate of ``p`` (so mid uses the operator
    and trace norms by default), and checks that the plus and minus
    witnesses of the difference map coincide (they must, since S1, S2
    are both TP). The chain lhs <= mid <= rhs holds at the default p.
    """
    _require_cptp(s1, tol)
    _require_cptp(s2, tol)
    if s1.in_dims != s2.in_dims or s1.out_dims != s2.out_dims:
        raise DimensionMismatch("operations must share dimensions")
    rho = _check_density(rho, tol)
    diff_gamma = Channel(
        choi=chn.map_partial_transpose(s2).choi - chn.map_partial_transpose(s1).choi,
        in_dims=s1.in_dims,
        out_dims=s1.out_dims,
    )
    split = chn.hp_split(diff_gamma)
    m_plus = chn.adjoint_identity(split.plus)
    m_minus = chn.adjoint_identity(split.minus)
    if float(np.max(np.abs(m_plus - m_minus))) > max(tol, 1e-8 * operator_norm(m_plus)):
        raise NotCPTP("plus/minus witnesses differ; operations are not both TP")
    q = 1.0 if np.isinf(p) else (np.inf if p == 1.0 else p / (p - 1.0))
    out1 = chn.apply(s1, rho)
    out2 = chn.apply(s2, rho)
    lhs = gamma_norm(out1 - out2, 1.0, s1.out_dims)
    mid = 2.0 * schatten_norm(m_minus, p) * gamma_norm(rho, q, s1.in_dims)
    rhs = trace_norm(diff_gamma.choi) * gamma_norm(rho, 1.0, s1.in_dims)
    return lhs, mid, rhs


@dataclass(frozen=True)
class OperatorSchmidt:
    """Operator Schmidt data V = sum_i lam_i A_i (x) B_i.

    Coefficients are positive and descending; the A and B operator sets
    are orthonormal under the Hilbert-Schmidt inner product.
    """

    coefficients: Array
    left_ops: Tuple[Array, ...]
    right_ops: Tuple[Array, ...]

    @property
    def rank(self) -> int:
        return len(self.coefficients)


def operator_schmidt(
    v: Array, dims: BipartiteDims, tol: float = 1e-12
) -> OperatorSchmidt:
    """Operator Schmidt decomposition across the A:B cut.

    Reshuffles the operator into the d_A^2 x d_B^2 matrix of
    Hilbert-Schmidt coefficients and takes its SVD; terms with
    ``lam <= tol * lam_max`` are dropped.
    """
    v = as_matrix(v)
    dims.check_side(v.shape[0])
    if v.shape[0] != v.shape[1]:
        raise DimensionMismatch("operator Schmidt needs a square operator")
    da, db = dims.d_a, dims.d_b
    r = v.reshape(da, db, da, db).transpose(0, 2, 1, 3).reshape(da * da, db * db)
    u, s, wh = np.linalg.svd(r)
    keep = int(np.sum(s > tol * (s[0] if s.size else 0.0)))
    return OperatorSchmidt(
        coefficients=s[:keep].copy(),
        left_ops=tuple(u[:, i].reshape(da, da) for i in range(keep)),
        right_ops=tuple(wh[i].reshape(db, db) for i in range(keep)),
    )


def schmidt_gamma_witnesses(schmidt: OperatorSchmidt) -> Tuple[Array, Array]:
    """(S^Gamma)_+-^dag(I) of a single-Kraus map from its Schmidt data.

    Uses the cross operators V_ij^+- = (A_i^* (x) B_j +- A_j^* (x) B_i)/sqrt(2);
    the resulting split is exactly the canonical spectral one.
    """
    lam = schmidt.coefficients
    a = schmidt.left_ops
    b = schmidt.right_ops
    d = a[0].shape[0] * b[0].shape[0]
    minus = np.zeros((d, d), dtype=complex)
    plus = np.zeros((d, d), dtype=complex)
    for i in range(len(lam)):
        vii = tensor(a[i].conj(), b[i])
        plus += lam[i] ** 2 * vii.conj().T @ vii
        for j in range(i + 1, len(lam)):
            vp = (tensor(a[i].conj(), b[j]) + tensor(a[j].conj(), b[i])) / np.sqrt(2)
            vm = (tensor(a[i].conj(), b[j]) - tensor(a[j].conj(), b[i])) / np.sqrt(2)
            plus += lam[i] * lam[j] * vp.conj().T @ vp
            minus += lam[i] * lam[j] * vm.conj().T @ vm
    return plus, minus


def _single_kraus(sub: Channel, tol: float) -> Array:
    form = chn.kraus_from_choi(sub)
    if not form.coefficients:
        raise NotTPSum("sub-operation is zero")
    c0 = form.coefficients[0]
    if c0 <= 0 or any(abs(c) > tol * c0 for c in form.coefficients[1:]):
        raise NotTPSum("sub-operation is not of single-Kraus form")
    return np.sqrt(c0) * form.operators[0]


def campbell_check(
    subs: Sequence[Channel], tol: float = 1e-9
) -> Tuple[float, float, float]:
    """Both routes to the lower bound, plus the factored upper form.

    For S = sum_i V_i . V_i^dag (TP) returns

        lhs = 1 + 2 ||sum_i (S_i^Gamma)_-^dag(I)||_inf
        mid = ||sum_i sum_j lam_ij A*_ij^dag A*_ij (x) sum_k lam_ik B_ik^dag B_ik||_inf
        rhs = sum_i ||sum_j lam_ij A_ij^dag A_ij|| * ||sum_k lam_ik B_ik^dag B_ik||

    lhs and mid agree identically; mid <= rhs by the triangle and cross
    inequalities, so the factored bound is never tighter.
    """
    if not subs:
        raise NotTPSum("need at least one sub-operation")
    dims = subs[0].in_dims
    d = dims.total
    total = sum(sub.choi for sub in subs)
    total_ch = Channel(choi=total, in_dims=dims, out_dims=subs[0].out_dims)
    if not chn.is_tp(total_ch, max(tol, 1e-8)):
        raise NotTPSum("sub-operations must sum to a TP map")
    minus_sum = np.zeros((d, d), dtype=complex)
    mid_sum = np.zeros((d, d), dtype=complex)
    rhs = 0.0
    for sub in subs:
        v = _single_kraus(sub, max(tol, 1e-8))
        schmidt = operator_schmidt(v, dims)
        _, minus = schmidt_gamma_witnesses(schmidt)
        minus_sum += minus
        lam, aops, bops = schmidt.coefficients, schmidt.left_ops, schmidt.right_ops
        ta = sum(l * (a.conj().T @ a).conj() for l, a in zip(lam, aops))
        tb = sum(l * b.conj().T @ b for l, b in zip(lam, bops))
        mid_sum += tensor(ta, tb)
        rhs += operator_norm(ta) * operator_norm(tb)
    lhs = 1.0 + 2.0 * operator_norm(minus_sum)
    mid = operator_norm(mid_sum)
    return lhs, mid, float(rhs)


def is_ppt_unitary(u: Array, dims: BipartiteDims, tol: float = 1e-8) -> bool:
    """True iff the unitary has operator Schmidt rank 1 (is decomposable).

    Equivalently (sum_i lam_i)^2 = d_A d_B; PPT, separable and
    decomposable coincide for unitary operations.
    """
    u = as_matrix(u)
    dims.check_side(u.shape[0])
    if float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))) > tol:
        raise NotUnitary("matrix is not unitary within tolerance")
    schmidt = operator_schmidt(u, dims, tol=tol)
    return schmidt.rank == 1


def is_separable_pure(psi: Array, dims: BipartiteDims, tol: float = 1e-8) -> bool:
    """True iff the pure state has Schmidt rank 1 (equivalently is PPT)."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    dims.check_side(psi.shape[0])
    if abs(np.linalg.norm(psi) - 1.0) > tol:
        raise NotNormalized("state vector must have unit norm")
    s = np.linalg.svd(psi.reshape(dims.d_a, dims.d_b), compute_uv=False)
    return bool(np.sum(s > tol * s[0]) == 1)


@dataclass(frozen=True)
class SaturationReport:
    """Outcome of the bound-saturation test for (operation, state).

    ``prop_identity``: (S^Gamma)_-^dag(I) is proportional to the
    identity, which makes lower and upper bounds coincide.
    ``orthogonality``: the cross vectors V^+- psi^-+ are orthogonal to
    the direct ones, the condition for the upper bound to be attained.
    ``achieves_upper``: orthogonality holds and the range of rho^Gamma
    sits inside the top eigenspace of the witness.
    """

    prop_identity: bool
    orthogonality: bool
    achieves_upper: bool
    max_overlap: float
    witness_gap: float


def _kraus_vectors(part: Channel, tol: float) -> List[Array]:
    form = chn.kraus_from_choi(part)
    return [np.sqrt(c) * v for c, v in zip(form.coefficients, form.operators) if c > tol]


def _unit_rows(vectors: List[Array], dim: int) -> Array:
    """The vectors of norm at least 1e-15, normalized, as the rows of one array."""
    rows = np.array(vectors, dtype=complex).reshape(len(vectors), dim)
    norms = np.linalg.norm(rows, axis=1)
    keep = norms >= 1e-15
    return rows[keep] / norms[keep, None]


def saturation_check(
    ch: Channel, rho: Array, tol: float = 1e-8
) -> SaturationReport:
    """Check the exact-entangling-capacity conditions for a state.

    Inner products below ``tol`` times the product of the vector norms
    count as zero; subspace membership is tested against the top
    eigenspace of the witness, so degenerate eigenbases are harmless.
    """
    _require_cptp(ch, max(tol, 1e-9))
    rho = _check_density(rho, max(tol, 1e-9))
    d = ch.in_dims.total
    split = gamma_split(ch)
    m_minus = chn.adjoint_identity(split.minus)
    m_norm = operator_norm(m_minus)
    m_scale = max(m_norm, 1e-30)
    prop_identity = _is_prop_identity(m_minus, m_norm, tol)

    v_plus = _kraus_vectors(split.plus, tol=1e-12)
    v_minus = _kraus_vectors(split.minus, tol=1e-12)
    w, vecs = eig_hermitian(partial_transpose(rho, ch.in_dims))
    scale = float(np.max(np.abs(w)))
    psi_plus = [np.sqrt(w[i]) * vecs[:, i] for i in range(d) if w[i] > 1e-12 * scale]
    psi_minus = [np.sqrt(-w[i]) * vecs[:, i] for i in range(d) if w[i] < -1e-12 * scale]

    direct = [v @ p for v in v_plus for p in psi_plus]
    direct += [v @ p for v in v_minus for p in psi_minus]
    cross = [v @ p for v in v_plus for p in psi_minus]
    cross += [v @ p for v in v_minus for p in psi_plus]
    c, dv = _unit_rows(cross, ch.d_out), _unit_rows(direct, ch.d_out)
    max_overlap = float(np.max(np.abs(c.conj() @ dv.T))) if c.size and dv.size else 0.0
    orthogonality = max_overlap <= tol

    if prop_identity:
        in_top_eigenspace = True
        gap = 0.0
    else:
        # ran rho^Gamma must sit in the top eigenspace of the witness
        mw, mv = eig_hermitian(m_minus)
        top = mw >= mw[-1] - tol * m_scale
        proj = mv[:, top] @ mv[:, top].conj().T
        gap = 0.0
        for p in psi_plus + psi_minus:
            residual = p - proj @ p
            gap = max(gap, float(np.linalg.norm(residual) / np.linalg.norm(p)))
        in_top_eigenspace = gap <= tol
    return SaturationReport(
        prop_identity=bool(prop_identity),
        orthogonality=bool(orthogonality),
        achieves_upper=bool(orthogonality and in_top_eigenspace),
        max_overlap=float(max_overlap),
        witness_gap=float("nan") if prop_identity else gap,
    )


class NormEquivalence(NamedTuple):
    ratio: float
    lower: float
    upper: float
    within: bool


def norm_equivalence_check(h: Array, dims: BipartiteDims) -> NormEquivalence:
    """Ratio ||H||_1Gamma / ||H||_1 and its dimensional sandwich.

    For Hermitian H the ratio lies in [1/min(d_A,d_B), min(d_A,d_B)];
    product operators sit at 1 and maximally entangled projectors at the
    upper extreme.
    """
    h = as_matrix(h)
    dims.check_side(h.shape[0])
    base = trace_norm(h)
    ratio = gamma_norm(h, 1.0, dims) / base
    bound = float(min(dims.d_a, dims.d_b))
    within = (1.0 / bound) - 1e-12 <= ratio <= bound + 1e-12
    return NormEquivalence(ratio=float(ratio), lower=1.0 / bound, upper=bound, within=within)
