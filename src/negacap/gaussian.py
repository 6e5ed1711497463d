"""Covariance-matrix analysis of (symmetric) Gaussian states.

Phase-space ordering is (x_1, p_1, ..., x_n, p_n) throughout, with an
explicit ``hbar`` (default 1). A state is valid iff every symplectic
eigenvalue of its covariance matrix is at least hbar/2; the partial
transpose is momentum reversal of the chosen modes.

A permutation-symmetric N-mode Gaussian state reduces, up to local
unitaries, to the standard form (a, b, c) or equivalently to the global
triple (nu_D, gamma, r):

    nu_D = sqrt(sigma(u,u) sigma(Pi,Pi))     degenerate symplectic eigenvalue
    nu_N = nu_D * gamma                      nondegenerate one
    r    = sigma(X_N, X_N) / sigma(u, u)     boundary parameter

whose domain nu_D >= hbar/2, nu_D*gamma >= hbar/2, r > 0 is exactly the
set of valid states. Two blocks of n_1 and n_2 modes localize unitarily
into a two-mode state whose smaller PT symplectic eigenvalue squared is
the closed form ``f_block``; driving r to the boundary yields the exact
suprema of block negativity, which depend only on N, n_s = n_1 + n_2
and n_d = |n_1 - n_2|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence, Tuple

import numpy as np

from .errors import (
    BadIndex,
    InvalidBlocks,
    InvalidParams,
    InvalidState,
    InvalidWavefunction,
    NotPositiveDefinite,
    NotTwoMode,
)
from .linalg import Array, eig_hermitian, sqrt_psd

SYMMETRY_ATOL = 1e-12


def symplectic_form(n_modes: int) -> Array:
    """Block-diagonal Omega = diag([[0,1],[-1,0]], ...)."""
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        omega[2 * k, 2 * k + 1] = 1.0
        omega[2 * k + 1, 2 * k] = -1.0
    return omega


@dataclass(frozen=True)
class CovarianceMatrix:
    """Real symmetric positive-definite 2n x 2n second-moment matrix."""

    n_modes: int
    sigma: Array
    hbar: float = 1.0

    def __post_init__(self):
        s = np.asarray(self.sigma, dtype=float)
        if s.shape != (2 * self.n_modes, 2 * self.n_modes):
            raise NotPositiveDefinite(
                f"sigma shape {s.shape} != ({2*self.n_modes}, {2*self.n_modes})"
            )
        scale = max(1.0, float(np.max(np.abs(s))))
        if float(np.max(np.abs(s - s.T))) > SYMMETRY_ATOL * scale:
            raise NotPositiveDefinite("sigma must be symmetric")
        if self.hbar <= 0:
            raise NotPositiveDefinite("hbar must be positive")
        s = (s + s.T) / 2.0
        if np.linalg.eigvalsh(s)[0] <= 0:
            raise NotPositiveDefinite("sigma must be positive definite")
        s.flags.writeable = False
        object.__setattr__(self, "sigma", s)


def vacuum_cov(n_modes: int, hbar: float = 1.0) -> CovarianceMatrix:
    return CovarianceMatrix(n_modes, hbar / 2.0 * np.eye(2 * n_modes), hbar)


def symplectic_eigenvalues(cov: CovarianceMatrix) -> Array:
    """Williamson spectrum, ascending.

    Computed as the positive eigenvalues of the Hermitian matrix
    i sigma^(1/2) Omega sigma^(1/2), which come in exact +-nu pairs;
    a failed pairing signals a non-symmetric or non-PD input.
    """
    root = sqrt_psd(cov.sigma)
    herm = 1j * (root @ symplectic_form(cov.n_modes) @ root)
    w, _ = eig_hermitian(herm)
    n = cov.n_modes
    pos = w[::-1][:n]  # largest n, descending
    neg = -w[:n]
    if float(np.max(np.abs(pos - neg))) > 1e-9 * max(1.0, float(pos[0])):
        raise NotPositiveDefinite("symplectic spectrum failed to pair")
    return np.sort(pos)


def is_valid_state(cov: CovarianceMatrix, tol: float = 1e-10) -> bool:
    """Uncertainty relation: every symplectic eigenvalue >= hbar/2."""
    return bool(symplectic_eigenvalues(cov)[0] >= cov.hbar / 2.0 - tol)


def partial_transpose_cov(
    cov: CovarianceMatrix, modes_to_flip: Sequence[int]
) -> CovarianceMatrix:
    """Momentum reversal of the listed modes: sigma -> Lambda sigma Lambda."""
    flips = list(modes_to_flip)
    if len(set(flips)) != len(flips):
        raise BadIndex(f"repeated mode index in {modes_to_flip}")
    lam = np.ones(2 * cov.n_modes)
    for m in flips:
        if not 0 <= m < cov.n_modes:
            raise BadIndex(f"mode {m} out of range for {cov.n_modes} modes")
        lam[2 * m + 1] = -1.0
    sigma = cov.sigma * np.outer(lam, lam)
    return CovarianceMatrix(cov.n_modes, sigma, cov.hbar)


class TwoModeInvariants(NamedTuple):
    delta_tilde: float
    nu_minus: float
    nu_plus: float


def two_mode_invariants(cov: CovarianceMatrix) -> TwoModeInvariants:
    """PT invariant Delta~ and the PT symplectic eigenvalues nu~_-+.

    With sigma = [[A, C], [C^T, B]] in 2x2 blocks and mode 2 partially
    transposed, Delta~ = det A + det B - 2 det C and

        nu~_-+ = sqrt((Delta~ -+ sqrt(Delta~^2 - 4 det sigma)) / 2).

    nu~_+ >= hbar/2 always (det sigma is PT invariant), so only nu~_-
    can violate the uncertainty relation and carry entanglement.
    """
    if cov.n_modes != 2:
        raise NotTwoMode(f"need exactly 2 modes, got {cov.n_modes}")
    s = cov.sigma
    a = np.linalg.det(s[:2, :2])
    b = np.linalg.det(s[2:, 2:])
    c = np.linalg.det(s[:2, 2:])
    delta_tilde = a + b - 2.0 * c
    det_sigma = np.linalg.det(s)
    disc = max(delta_tilde**2 - 4.0 * det_sigma, 0.0)
    root = math.sqrt(disc)
    nu_minus = math.sqrt(max((delta_tilde - root) / 2.0, 0.0))
    nu_plus = math.sqrt((delta_tilde + root) / 2.0)
    return TwoModeInvariants(float(delta_tilde), nu_minus, nu_plus)


def log_negativity_gaussian(
    cov: CovarianceMatrix, partition: Sequence[int], base: float = 2.0
) -> float:
    """E_L across the cut: sum_i max(log hbar/(2 nu~_i), 0)."""
    if not is_valid_state(cov):
        raise InvalidState("covariance matrix violates the uncertainty relation")
    nus = symplectic_eigenvalues(partial_transpose_cov(cov, partition))
    return float(
        sum(max(math.log(cov.hbar / (2.0 * nu), base), 0.0) for nu in nus)
    )


def reduced_cov(cov: CovarianceMatrix, modes: Sequence[int]) -> CovarianceMatrix:
    """Restriction to a subset of modes (Gaussian partial trace)."""
    modes = list(modes)
    if len(set(modes)) != len(modes):
        raise BadIndex(f"repeated mode index in {modes}")
    idx = []
    for m in modes:
        if not 0 <= m < cov.n_modes:
            raise BadIndex(f"mode {m} out of range for {cov.n_modes} modes")
        idx += [2 * m, 2 * m + 1]
    return CovarianceMatrix(len(modes), cov.sigma[np.ix_(idx, idx)], cov.hbar)


def cov_purity(cov: CovarianceMatrix) -> float:
    """Purity of a Gaussian state, (hbar/2)^n / sqrt(det sigma)."""
    return float(
        (cov.hbar / 2.0) ** cov.n_modes / math.sqrt(np.linalg.det(cov.sigma))
    )


@dataclass(frozen=True)
class SymmetricParams:
    """Global parameters (nu_D, gamma, r) of an N-mode symmetric state."""

    n_total: int
    nu_d: float
    gamma: float
    r: float
    hbar: float = 1.0

    def __post_init__(self):
        if self.n_total < 2:
            raise InvalidParams("need at least 2 symmetric modes")
        half = self.hbar / 2.0
        if self.nu_d < half - 1e-12:
            raise InvalidParams(f"nu_D = {self.nu_d} < hbar/2")
        if self.nu_d * self.gamma < half - 1e-12:
            raise InvalidParams(f"nu_N = {self.nu_d * self.gamma} < hbar/2")
        if self.r <= 0:
            raise InvalidParams(f"r must be positive, got {self.r}")

    @property
    def nu_n(self) -> float:
        return self.nu_d * self.gamma


@dataclass(frozen=True)
class BlockSpec:
    """Two blocks of n1 and n2 modes out of N symmetric ones."""

    n_total: int
    n1: int
    n2: int

    def __post_init__(self):
        if self.n1 < 1 or self.n2 < 1:
            raise InvalidBlocks("blocks must contain at least one mode each")
        if self.n_total < self.n_s:
            raise InvalidBlocks(
                f"blocks of {self.n1}+{self.n2} modes exceed N = {self.n_total}"
            )

    @property
    def n_s(self) -> int:
        return self.n1 + self.n2

    @property
    def n_d(self) -> int:
        return abs(self.n1 - self.n2)


@dataclass(frozen=True)
class StandardForm:
    """Standard-form submatrices alpha = diag(a, a), beta = diag(b, c)."""

    a: float
    b: float
    c: float
    n_total: int
    hbar: float = 1.0

    def __post_init__(self):
        n = self.n_total
        if n < 2:
            raise InvalidParams("need at least 2 symmetric modes")
        variances = (
            self.a - self.b,
            self.a - self.c,
            self.a + (n - 1) * self.b,
            self.a + (n - 1) * self.c,
        )
        if any(v <= 0 for v in variances):
            raise InvalidParams("standard form has a nonpositive variance")
        half = self.hbar / 2.0
        nu_d = math.sqrt(variances[0] * variances[1])
        nu_n = math.sqrt(variances[2] * variances[3])
        if nu_d < half - 1e-12 or nu_n < half - 1e-12:
            raise InvalidParams("standard form violates the uncertainty relation")


def standard_to_params(sf: StandardForm) -> SymmetricParams:
    """(a, b, c) -> (nu_D, gamma, r) via the collective variances."""
    n = sf.n_total
    var_x = sf.a + (n - 1) * sf.b
    var_p = sf.a + (n - 1) * sf.c
    var_u = sf.a - sf.b
    var_pi = sf.a - sf.c
    nu_d = math.sqrt(var_u * var_pi)
    nu_n = math.sqrt(var_x * var_p)
    return SymmetricParams(
        n_total=n,
        nu_d=nu_d,
        gamma=nu_n / nu_d,
        r=var_x / var_u,
        hbar=sf.hbar,
    )


def _collective_variances(p: SymmetricParams) -> Tuple[float, float, float, float]:
    # sigma(X_N,X_N), sigma(P_N,P_N), sigma(u,u), sigma(Pi,Pi); the scale of
    # sigma(u,u) is fixed by requiring a single consistent standard form.
    n, r = p.n_total, p.r
    var_u = math.sqrt(
        (r * (n - 1) * p.nu_d**2 + p.nu_n**2) / (r * (n - 1 + r))
    )
    var_x = r * var_u
    var_pi = p.nu_d**2 / var_u
    var_p = p.nu_n**2 / var_x
    return var_x, var_p, var_u, var_pi


def params_to_standard(p: SymmetricParams) -> StandardForm:
    """(nu_D, gamma, r) -> (a, b, c); inverse of ``standard_to_params``."""
    n = p.n_total
    var_x, var_p, var_u, var_pi = _collective_variances(p)
    b = (var_x - var_u) / n
    c = (var_p - var_pi) / n
    a = var_u + b
    return StandardForm(a=a, b=b, c=c, n_total=n, hbar=p.hbar)


def symmetric_cov(sf: StandardForm) -> CovarianceMatrix:
    """Assemble the full 2N x 2N standard-form covariance matrix."""
    n = sf.n_total
    sigma = np.zeros((2 * n, 2 * n))
    for i in range(n):
        for j in range(n):
            if i == j:
                sigma[2 * i, 2 * j] = sf.a
                sigma[2 * i + 1, 2 * j + 1] = sf.a
            else:
                sigma[2 * i, 2 * j] = sf.b
                sigma[2 * i + 1, 2 * j + 1] = sf.c
    return CovarianceMatrix(n, sigma, sf.hbar)


def localize_blocks(p: SymmetricParams, blocks: BlockSpec) -> CovarianceMatrix:
    """Two-mode covariance of the unitarily localized blocks.

    Local orthogonal/symplectic transforms concentrate all inter-block
    correlation into one collective mode per block; the result is the
    diagonal-block 4x4 matrix sigma_{N:n1|n2}.
    """
    if blocks.n_total != p.n_total:
        raise InvalidBlocks(
            f"block spec is for N = {blocks.n_total}, params for N = {p.n_total}"
        )
    n = p.n_total
    var_x, var_p, var_u, var_pi = _collective_variances(p)

    def alpha(ni: int) -> Tuple[float, float]:
        return (
            (ni * var_x + (n - ni) * var_u) / n,
            (ni * var_p + (n - ni) * var_pi) / n,
        )

    x1, p1 = alpha(blocks.n1)
    x2, p2 = alpha(blocks.n2)
    root = math.sqrt(blocks.n1 * blocks.n2) / n
    cx = root * (var_x - var_u)
    cp = root * (var_p - var_pi)
    sigma = np.array(
        [
            [x1, 0.0, cx, 0.0],
            [0.0, p1, 0.0, cp],
            [cx, 0.0, x2, 0.0],
            [0.0, cp, 0.0, p2],
        ]
    )
    return CovarianceMatrix(2, sigma, p.hbar)


def f_block(p: SymmetricParams, blocks: BlockSpec) -> float:
    """Closed form for (nu~_-)^2 of the localized blocks.

    Depends on the blocks only through n_s and n_d. With
    poly = a2 r^2 + a1 r + a0 and the quartic h under the root, the
    coefficient of r^4 in h is a2^2 and that of r^0 is a0^2 (the
    existence of the r -> 0 and r -> infinity limits requires it), so

        poly - sqrt(h) = (poly^2 - h) / (poly + sqrt(h))

    has an exactly vanishing quartic and constant term in the
    numerator. Evaluating that rationalized form avoids the
    subtractive cancellation that otherwise dominates near the
    boundary (f -> 0 at n_s = N), keeping f positive and accurate to
    machine precision over the whole domain.
    """
    if blocks.n_total != p.n_total:
        raise InvalidBlocks(
            f"block spec is for N = {blocks.n_total}, params for N = {p.n_total}"
        )
    n, ns, nd = float(p.n_total), float(blocks.n_s), float(blocks.n_d)
    g, r = p.gamma, p.r
    g2 = g * g
    a2 = n * ns - nd**2
    a1 = 2 * n * n - 2 * n * ns + nd**2 * (1 + g2)
    a0 = a2 * g2
    b3 = -2.0 * nd**2 * (2 * n**2 + nd**2 * (1 + g2) - n * ns * (3 + g2))
    b2 = (
        n**2 * (4 * nd**2 * (1 + g2) - 2 * ns**2 * g2)
        + nd**4 * (g2 * g2 + 4 * g2 + 1)
        - 4 * n * ns * nd**2 * (1 + 2 * g2)
    )
    b1 = b3 * g2
    poly = a2 * r * r + a1 * r + a0
    h = a2**2 * r**4 + b3 * r**3 + b2 * r**2 + b1 * r + a0**2
    numer = (2 * a2 * a1 - b3) * r * r + (a1 * a1 + 2 * a2 * a0 - b2) * r + (
        2 * a1 * a0 - b1
    )
    denom = poly + math.sqrt(max(h, 0.0))
    return float(p.nu_d**2 / (2 * n * n) * numer / denom)


def block_log_negativity(
    p: SymmetricParams, blocks: BlockSpec, base: float = 2.0
) -> float:
    """E_L between the blocks: (1/2) log max(hbar^2 / (4 f), 1)."""
    f = f_block(p, blocks)
    if f <= 0.0:
        raise InvalidParams("f_block must be positive for a valid state")
    return max(0.5 * math.log(p.hbar**2 / (4.0 * f), base), 0.0)


class Unbounded:
    """Result variant for blocks that fill all modes (n_s = N)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Unbounded"


UNBOUNDED = Unbounded()


def sup_gap_ratio(blocks: BlockSpec) -> float:
    """K(N, n_s, n_d) = (n_s^2 - n_d^2) / (n_s (N - n_s)).

    At fixed N the maximum over block sizes is N - 1 (odd N, n_d = 0)
    or N - 1 - 1/(N - 1) (even N, n_d = 1).
    """
    if blocks.n_s >= blocks.n_total:
        raise InvalidBlocks("K is defined for n_s < N")
    ns, nd = blocks.n_s, blocks.n_d
    return float((ns**2 - nd**2) / (ns * (blocks.n_total - ns)))


def sup_block_entanglement(
    blocks: BlockSpec,
    measure: str = "logneg",
    base: float = 2.0,
    nu_d: float | None = None,
    hbar: float = 1.0,
) -> "float | Unbounded":
    """Exact supremum of block entanglement over all symmetric states.

    Returns :data:`UNBOUNDED` when the blocks fill all modes. With a
    fixed degenerate symplectic eigenvalue ``nu_d`` the supremum
    tightens and may drop to zero (separability of all such blocks).
    The suprema are approached, never attained, as r -> 0 or infinity.
    """
    if measure not in ("logneg", "neg"):
        raise InvalidParams(f"measure must be 'logneg' or 'neg', got {measure!r}")
    if blocks.n_s == blocks.n_total:
        return UNBOUNDED
    factor = 1.0 + sup_gap_ratio(blocks)
    if nu_d is None:
        if measure == "logneg":
            return 0.5 * math.log(factor, base)
        return 0.5 * (math.sqrt(factor) - 1.0)
    if nu_d < hbar / 2.0 - 1e-12:
        raise InvalidParams(f"nu_D = {nu_d} < hbar/2")
    q = hbar / (2.0 * nu_d)
    if measure == "logneg":
        return max(0.5 * math.log(q**2 * factor, base), 0.0)
    return max(0.5 * (q * math.sqrt(factor) - 1.0), 0.0)


def entanglement_vs_nd(
    p: SymmetricParams, n_total: int, n_s: int, base: float = 2.0
) -> Array:
    """Block E_L over all feasible n_d at fixed n_s, in increasing n_d.

    Feasible n_d share the parity of n_s and stop at n_s - 2 (a block
    may not be empty). The sequence is non-increasing, strictly
    decreasing while positive.
    """
    if n_total != p.n_total:
        raise InvalidParams("n_total disagrees with the parameters")
    if n_s > n_total or n_s < 2:
        raise InvalidParams(f"need 2 <= n_s <= N, got n_s = {n_s}")
    values = []
    for nd in range(n_s % 2, n_s - 1, 2):
        blocks = BlockSpec(n_total, (n_s + nd) // 2, (n_s - nd) // 2)
        values.append(block_log_negativity(p, blocks, base))
    return np.asarray(values)


class Purities(NamedTuple):
    global_purity: float
    mu1: float
    mu2: float


def purity(p: SymmetricParams) -> Purities:
    """Global, one-mode and two-mode purities of the symmetric state."""
    n = p.n_total
    half = p.hbar / 2.0
    global_purity = half**n / (p.nu_n * p.nu_d ** (n - 1))
    sf = params_to_standard(p)
    mu1 = half / sf.a
    det2 = (sf.a**2 - sf.b**2) * (sf.a**2 - sf.c**2)
    mu2 = half**2 / math.sqrt(det2)
    return Purities(float(global_purity), float(mu1), float(mu2))


def pure_state_oracle(a: float, b: float, n_total: int, base: float = 2.0) -> float:
    """E_L between two single modes of the real Gaussian pure state.

    The wavefunction is proportional to
    ``exp(-a sum_i x_i^2 + 2b sum_{i<j} x_i x_j)``; normalizability
    demands a > 0, a + b > 0 and a - (N-1) b > 0. Entirely independent
    of the covariance pipeline, which it serves as an oracle for.
    """
    if n_total < 2:
        raise InvalidWavefunction("need at least 2 modes")
    if not (a > 0 and a + b > 0 and a - (n_total - 1) * b > 0):
        raise InvalidWavefunction(
            f"(a, b, N) = ({a}, {b}, {n_total}) is not normalizable"
        )
    if b >= 0:
        d = (a + b) / (a - b)
    else:
        d = (a + b - b * n_total) / (a + 3 * b - b * n_total)
    if d <= 1.0:
        return 0.0
    return 0.5 * math.log(d, base)


def pure_symmetric_cov(
    a: float, b: float, n_total: int, hbar: float = 1.0
) -> CovarianceMatrix:
    """Covariance matrix of the same pure state, from its quadratic form.

    With A the coefficient matrix of the exponent (A_ii = 2a,
    A_ij = -2b), the position block is A^(-1)/2 and the momentum block
    hbar^2 A / 2, with no x-p correlations. Purity of the result is 1.
    """
    if n_total < 2:
        raise InvalidWavefunction("need at least 2 modes")
    if not (a > 0 and a + b > 0 and a - (n_total - 1) * b > 0):
        raise InvalidWavefunction(
            f"(a, b, N) = ({a}, {b}, {n_total}) is not normalizable"
        )
    n = n_total
    quad = 2.0 * (a + b) * np.eye(n) - 2.0 * b * np.ones((n, n))
    sigma_x = 0.5 * np.linalg.inv(quad)
    sigma_p = 0.5 * hbar**2 * quad
    sigma = np.zeros((2 * n, 2 * n))
    sigma[0::2, 0::2] = sigma_x
    sigma[1::2, 1::2] = sigma_p
    return CovarianceMatrix(n, sigma, hbar)
