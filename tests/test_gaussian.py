import math

import numpy as np
import pytest

from negacap.errors import (
    BadIndex,
    InvalidBlocks,
    InvalidParams,
    InvalidWavefunction,
    NotPositiveDefinite,
    NotTwoMode,
)
from negacap.gaussian import (
    UNBOUNDED,
    BlockSpec,
    CovarianceMatrix,
    StandardForm,
    SymmetricParams,
    block_log_negativity,
    cov_purity,
    entanglement_vs_nd,
    f_block,
    is_valid_state,
    localize_blocks,
    log_negativity_gaussian,
    params_to_standard,
    partial_transpose_cov,
    pure_state_oracle,
    pure_symmetric_cov,
    purity,
    reduced_cov,
    standard_to_params,
    sup_block_entanglement,
    sup_gap_ratio,
    symmetric_cov,
    symplectic_eigenvalues,
    symplectic_form,
    two_mode_invariants,
    vacuum_cov,
)


def random_params(rng, n_total=None, hbar=1.0):
    n = n_total or int(rng.integers(2, 9))
    nu_d = hbar / 2.0 * math.exp(rng.uniform(0.0, 1.5))
    gamma = max(hbar / (2.0 * nu_d), 1e-9) * math.exp(rng.uniform(0.0, 1.5))
    r = math.exp(rng.uniform(-5.0, 5.0))
    return SymmetricParams(n_total=n, nu_d=nu_d, gamma=gamma, r=r, hbar=hbar)


def random_blocks(rng, n_total):
    n1 = int(rng.integers(1, n_total))
    n2 = int(rng.integers(1, n_total - n1 + 1))
    return BlockSpec(n_total, n1, n2)


def random_symplectic(rng, n, steps=6):
    """Product of random one-mode squeezers, phase rotations and pair mixers."""
    s = np.eye(2 * n)
    for _ in range(steps):
        kind = rng.integers(0, 3)
        g = np.eye(2 * n)
        if kind == 0:  # squeeze one mode
            m = int(rng.integers(0, n))
            z = math.exp(rng.uniform(-0.7, 0.7))
            g[2 * m, 2 * m] = z
            g[2 * m + 1, 2 * m + 1] = 1.0 / z
        elif kind == 1:  # rotate one mode
            m = int(rng.integers(0, n))
            t = rng.uniform(0, 2 * math.pi)
            c, sn = math.cos(t), math.sin(t)
            g[2 * m : 2 * m + 2, 2 * m : 2 * m + 2] = [[c, sn], [-sn, c]]
        elif n >= 2:  # beam-split two modes
            m1, m2 = rng.choice(n, size=2, replace=False)
            t = rng.uniform(0, 2 * math.pi)
            c, sn = math.cos(t), math.sin(t)
            for k in range(2):
                g[2 * m1 + k, 2 * m1 + k] = c
                g[2 * m2 + k, 2 * m2 + k] = c
                g[2 * m1 + k, 2 * m2 + k] = sn
                g[2 * m2 + k, 2 * m1 + k] = -sn
        s = g @ s
    return s


class TestSymplecticSpectrum:
    def test_vacuum(self):
        for n in (1, 2, 4):
            nus = symplectic_eigenvalues(vacuum_cov(n))
            np.testing.assert_allclose(nus, 0.5 * np.ones(n), atol=1e-12)

    def test_single_mode_thermal(self):
        cov = CovarianceMatrix(1, np.diag([1.7, 1.7]))
        np.testing.assert_allclose(symplectic_eigenvalues(cov), [1.7], atol=1e-12)

    def test_two_mode_closed_form(self, rng):
        for _ in range(20):
            s = random_symplectic(rng, 2)
            sigma = s @ np.diag([0.6, 0.6, 1.3, 1.3]) @ s.T
            cov = CovarianceMatrix(2, sigma)
            a = np.linalg.det(sigma[:2, :2])
            b = np.linalg.det(sigma[2:, 2:])
            c = np.linalg.det(sigma[:2, 2:])
            delta = a + b + 2.0 * c
            root = math.sqrt(max(delta**2 - 4.0 * np.linalg.det(sigma), 0.0))
            expected = sorted(
                [math.sqrt((delta - root) / 2.0), math.sqrt((delta + root) / 2.0)]
            )
            np.testing.assert_allclose(
                symplectic_eigenvalues(cov), expected, rtol=1e-9
            )

    def test_symplectic_invariance(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 4))
            base = np.diag(np.repeat(0.5 * np.exp(rng.uniform(0, 1, size=n)), 2))
            s = random_symplectic(rng, n)
            cov1 = CovarianceMatrix(n, base)
            cov2 = CovarianceMatrix(n, s @ base @ s.T)
            np.testing.assert_allclose(
                symplectic_eigenvalues(cov1),
                symplectic_eigenvalues(cov2),
                atol=1e-8,
                rtol=1e-8,
            )

    def test_omega_properties(self):
        for n in (1, 3):
            omega = symplectic_form(n)
            np.testing.assert_allclose(omega @ omega.T, np.eye(2 * n))
            np.testing.assert_allclose(omega.T, -omega)

    def test_rejects_asymmetric(self):
        with pytest.raises(NotPositiveDefinite):
            CovarianceMatrix(1, np.array([[1.0, 0.2], [0.1, 1.0]]))


class TestValidity:
    def test_vacuum_valid(self):
        assert is_valid_state(vacuum_cov(3))

    def test_below_vacuum_invalid(self):
        cov = CovarianceMatrix(1, np.diag([0.25, 0.25]))
        assert not is_valid_state(cov)

    def test_squeezed_is_valid(self):
        for s in (0.5, 2.0, 5.0):
            cov = CovarianceMatrix(
                1, np.diag([0.5 * math.exp(2 * s), 0.5 * math.exp(-2 * s)])
            )
            assert is_valid_state(cov)

    def test_hbar_scaling(self):
        cov = CovarianceMatrix(1, np.diag([1.0, 1.0]), hbar=2.0)
        assert is_valid_state(cov)
        cov = CovarianceMatrix(1, np.diag([1.0, 1.0]), hbar=4.0)
        assert not is_valid_state(cov)


class TestPartialTransposeCov:
    def test_flip_nothing(self, rng):
        cov = vacuum_cov(2)
        np.testing.assert_allclose(
            partial_transpose_cov(cov, []).sigma, cov.sigma
        )

    def test_flip_all_preserves_spectrum(self, rng):
        s = random_symplectic(rng, 2)
        cov = CovarianceMatrix(2, s @ np.diag([0.7, 0.7, 0.9, 0.9]) @ s.T)
        flipped = partial_transpose_cov(cov, [0, 1])
        np.testing.assert_allclose(
            symplectic_eigenvalues(cov),
            symplectic_eigenvalues(flipped),
            rtol=1e-9,
        )

    def test_determinant_invariant(self, rng):
        s = random_symplectic(rng, 2)
        cov = CovarianceMatrix(2, s @ (0.6 * np.eye(4)) @ s.T)
        flipped = partial_transpose_cov(cov, [1])
        assert np.linalg.det(flipped.sigma) == pytest.approx(
            np.linalg.det(cov.sigma), rel=1e-9
        )

    def test_cross_block_sign_flip(self, rng):
        # Delta~ = det A + det B - 2 det C for a two-mode squeezed state
        r = 0.8
        c, sh = math.cosh(2 * r), math.sinh(2 * r)
        sigma = 0.5 * np.array(
            [
                [c, 0, sh, 0],
                [0, c, 0, -sh],
                [sh, 0, c, 0],
                [0, -sh, 0, c],
            ]
        )
        cov = CovarianceMatrix(2, sigma)
        flipped = partial_transpose_cov(cov, [1])
        a = np.linalg.det(sigma[:2, :2])
        b = np.linalg.det(sigma[2:, 2:])
        cdet = np.linalg.det(sigma[:2, 2:])
        delta_flipped = (
            np.linalg.det(flipped.sigma[:2, :2])
            + np.linalg.det(flipped.sigma[2:, 2:])
            + 2.0 * np.linalg.det(flipped.sigma[:2, 2:])
        )
        assert delta_flipped == pytest.approx(a + b - 2.0 * cdet, rel=1e-12)

    def test_bad_index(self):
        with pytest.raises(BadIndex):
            partial_transpose_cov(vacuum_cov(2), [2])
        with pytest.raises(BadIndex):
            partial_transpose_cov(vacuum_cov(2), [0, 0])


class TestTwoModeInvariants:
    def test_two_vacua(self):
        inv = two_mode_invariants(vacuum_cov(2))
        assert inv.nu_minus == pytest.approx(0.5, abs=1e-12)
        assert inv.nu_plus == pytest.approx(0.5, abs=1e-12)

    def test_nu_plus_never_below_vacuum(self, rng):
        for _ in range(50):
            p = random_params(rng)
            blocks = random_blocks(rng, p.n_total)
            inv = two_mode_invariants(localize_blocks(p, blocks))
            assert inv.nu_plus >= 0.5 - 1e-10

    def test_localized_matches_f_block(self, rng):
        for _ in range(100):
            p = random_params(rng)
            blocks = random_blocks(rng, p.n_total)
            inv = two_mode_invariants(localize_blocks(p, blocks))
            f = f_block(p, blocks)
            assert inv.nu_minus**2 == pytest.approx(f, rel=1e-8, abs=1e-12)

    def test_rejects_wrong_mode_count(self):
        with pytest.raises(NotTwoMode):
            two_mode_invariants(vacuum_cov(3))


class TestGaussianLogNegativity:
    def test_product_state_zero(self):
        cov = CovarianceMatrix(2, np.diag([0.7, 0.7, 1.1, 1.1]))
        assert log_negativity_gaussian(cov, [1]) == pytest.approx(0.0, abs=1e-12)

    def test_two_mode_squeezed(self):
        r = 0.8
        c, sh = math.cosh(2 * r), math.sinh(2 * r)
        sigma = 0.5 * np.array(
            [[c, 0, sh, 0], [0, c, 0, -sh], [sh, 0, c, 0], [0, -sh, 0, c]]
        )
        cov = CovarianceMatrix(2, sigma)
        el = log_negativity_gaussian(cov, [1], base=2)
        inv = two_mode_invariants(cov)
        assert el == pytest.approx(
            max(math.log2(0.5 / inv.nu_minus), 0.0), rel=1e-10
        )
        # two-mode squeezed: nu~_- = e^{-2r}/2, so E_L = 2r/ln2
        assert el == pytest.approx(2 * r / math.log(2.0), rel=1e-9)


class TestStandardFormParams:
    def test_uncorrelated_modes(self):
        sf = StandardForm(a=0.8, b=0.0, c=0.0, n_total=3)
        p = standard_to_params(sf)
        assert p.r == pytest.approx(1.0)
        assert p.nu_d == pytest.approx(0.8)
        assert p.gamma == pytest.approx(1.0)

    def test_worked_example(self):
        sf = StandardForm(a=1.0, b=0.3, c=-0.2, n_total=3)
        p = standard_to_params(sf)
        assert p.r == pytest.approx(16.0 / 7.0, rel=1e-12)
        assert p.nu_d == pytest.approx(math.sqrt(0.7 * 1.2), rel=1e-12)
        assert p.nu_n == pytest.approx(math.sqrt(1.6 * 0.6), rel=1e-12)

    def test_round_trip(self, rng):
        for _ in range(100):
            p = random_params(rng)
            back = standard_to_params(params_to_standard(p))
            assert back.nu_d == pytest.approx(p.nu_d, rel=1e-9)
            assert back.gamma == pytest.approx(p.gamma, rel=1e-9)
            assert back.r == pytest.approx(p.r, rel=1e-9)

    def test_assembled_matrix_is_valid_state(self, rng):
        for _ in range(20):
            p = random_params(rng, n_total=int(rng.integers(2, 6)))
            cov = symmetric_cov(params_to_standard(p))
            assert is_valid_state(cov, tol=1e-8)

    def test_rejects_invalid_domain(self):
        with pytest.raises(InvalidParams):
            SymmetricParams(n_total=3, nu_d=0.3, gamma=1.0, r=1.0)
        with pytest.raises(InvalidParams):
            SymmetricParams(n_total=3, nu_d=1.0, gamma=0.2, r=1.0)
        with pytest.raises(InvalidParams):
            SymmetricParams(n_total=3, nu_d=1.0, gamma=1.0, r=-2.0)


class TestLocalization:
    def test_equal_blocks_of_product_state(self):
        p = standard_to_params(StandardForm(a=0.9, b=0.0, c=0.0, n_total=4))
        cov = localize_blocks(p, BlockSpec(4, 2, 2))
        np.testing.assert_allclose(cov.sigma[:2, 2:], 0.0, atol=1e-12)
        assert block_log_negativity(p, BlockSpec(4, 2, 2)) == pytest.approx(0.0)

    def test_two_modes_reproduce_original_spectrum(self, rng):
        for _ in range(20):
            p = random_params(rng, n_total=2)
            full = symmetric_cov(params_to_standard(p))
            localized = localize_blocks(p, BlockSpec(2, 1, 1))
            np.testing.assert_allclose(
                symplectic_eigenvalues(full),
                symplectic_eigenvalues(localized),
                rtol=1e-8,
            )
            # and the PT spectra agree too (localization is block-local)
            np.testing.assert_allclose(
                symplectic_eigenvalues(partial_transpose_cov(full, [1])),
                symplectic_eigenvalues(partial_transpose_cov(localized, [1])),
                rtol=1e-8,
            )

    def test_localized_negativity_matches_block_formula(self, rng):
        for _ in range(50):
            p = random_params(rng)
            blocks = random_blocks(rng, p.n_total)
            via_cov = log_negativity_gaussian(localize_blocks(p, blocks), [1])
            via_formula = block_log_negativity(p, blocks)
            assert via_cov == pytest.approx(via_formula, rel=1e-8, abs=1e-10)

    def test_rejects_mismatched_n(self, rng):
        p = random_params(rng, n_total=4)
        with pytest.raises(InvalidBlocks):
            localize_blocks(p, BlockSpec(5, 1, 1))


class TestFBlock:
    def test_critical_point_is_separable(self, rng):
        # at r = gamma the entanglement vanishes for every (nu_D, gamma)
        for _ in range(200):
            nu_d = 0.5 * math.exp(rng.uniform(0, 1.5))
            gamma = max(0.5 / nu_d, 1e-9) * math.exp(rng.uniform(0, 1.5))
            n = int(rng.integers(2, 9))
            p = SymmetricParams(n, nu_d, gamma, r=gamma)
            blocks = random_blocks(rng, n)
            assert f_block(p, blocks) >= 0.25 - 1e-10
            assert block_log_negativity(p, blocks) == 0.0

    def test_boundary_limits(self, rng):
        for r in (1e-8, 1e8):
            for _ in range(50):
                n = int(rng.integers(2, 9))
                blocks = random_blocks(rng, n)
                nu_d = 0.5 * math.exp(rng.uniform(0, 1))
                gamma = max(0.5 / nu_d, 1e-9) * math.exp(rng.uniform(0, 1))
                p = SymmetricParams(n, nu_d, gamma, r=r)
                ns, nd = blocks.n_s, blocks.n_d
                limit = nu_d**2 * (n * ns - ns**2) / (n * ns - nd**2)
                assert abs(f_block(p, blocks) - limit) <= 1e-5 * nu_d**2

    def test_quoted_value(self):
        p = SymmetricParams(4, 0.5, 1.0, 1e-8)
        blocks = BlockSpec(4, 1, 1)
        assert f_block(p, blocks) == pytest.approx(0.125, abs=1e-7)
        assert block_log_negativity(p, blocks, base=2) == pytest.approx(
            0.5, abs=1e-6
        )

    def test_zero_region(self, rng):
        # r strictly between 1 and gamma^2 always gives zero negativity
        for _ in range(100):
            n = int(rng.integers(2, 7))
            nu_d = 0.5 * math.exp(rng.uniform(0, 1))
            gamma = max(0.5 / nu_d, 1e-9) * math.exp(rng.uniform(0.1, 1.5))
            lo, hi = sorted((1.0, gamma**2))
            if hi - lo < 1e-9:
                continue
            r = rng.uniform(lo + 1e-9, hi - 1e-9)
            p = SymmetricParams(n, nu_d, gamma, r)
            assert block_log_negativity(p, random_blocks(rng, n)) == 0.0


class TestSuprema:
    def test_three_mode_single_pair(self):
        assert sup_block_entanglement(BlockSpec(3, 1, 1)) == pytest.approx(
            0.5 * math.log2(3.0), abs=1e-12
        )

    def test_full_partition_unbounded(self):
        assert sup_block_entanglement(BlockSpec(4, 2, 2)) is UNBOUNDED
        assert sup_block_entanglement(BlockSpec(2, 1, 1)) is UNBOUNDED

    def test_fixed_nu_d_can_vanish(self):
        # 4 nu_D^2/hbar^2 >= K+1 forces separability
        blocks = BlockSpec(3, 1, 1)
        k = sup_gap_ratio(blocks)
        nu_d = 0.5 * math.sqrt(k + 1.0) + 1e-6
        assert sup_block_entanglement(blocks, nu_d=nu_d) == 0.0
        assert sup_block_entanglement(blocks, measure="neg", nu_d=nu_d) == 0.0

    def test_negativity_variant(self):
        blocks = BlockSpec(3, 1, 1)
        el = sup_block_entanglement(blocks, base=2.0)
        en = sup_block_entanglement(blocks, measure="neg")
        assert en == pytest.approx((2.0**el - 1.0) / 2.0, rel=1e-12)

    def test_gap_ratio_values(self):
        assert sup_gap_ratio(BlockSpec(5, 2, 2)) == pytest.approx(4.0)
        assert sup_gap_ratio(BlockSpec(4, 2, 1)) == pytest.approx(8.0 / 3.0)
        assert sup_gap_ratio(BlockSpec(10, 1, 1)) == pytest.approx(0.25)

    def test_gap_ratio_maximum_over_blocks(self):
        # odd N: K_max = N-1 at n_s = N-1, n_d = 0
        for n in (5, 7):
            best = max(
                sup_gap_ratio(BlockSpec(n, n1, n2))
                for n1 in range(1, n)
                for n2 in range(1, n - n1 + 1)
                if n1 + n2 < n
            )
            assert best == pytest.approx(n - 1.0)
        # even N: K_max = N-1-1/(N-1) at n_s = N-1, n_d = 1
        for n in (4, 6):
            best = max(
                sup_gap_ratio(BlockSpec(n, n1, n2))
                for n1 in range(1, n)
                for n2 in range(1, n - n1 + 1)
                if n1 + n2 < n
            )
            assert best == pytest.approx(n - 1.0 - 1.0 / (n - 1.0))

    def test_gap_ratio_rejects_full_partition(self):
        with pytest.raises(InvalidBlocks):
            sup_gap_ratio(BlockSpec(4, 2, 2))

    def test_soundness_and_approach(self, rng):
        blocks = BlockSpec(5, 2, 1)
        sup = sup_block_entanglement(blocks, base=2.0)
        for _ in range(2000):
            p = random_params(rng, n_total=5)
            assert block_log_negativity(p, blocks) < sup
        near = SymmetricParams(5, 0.5, 1.0, 1e-8)
        assert block_log_negativity(near, blocks) == pytest.approx(sup, abs=1e-4)

    def test_sandwich_in_natural_base(self):
        # 1/N < sup E_L^{N:1|1} (base e) < 1/(N-2)
        for n in range(3, 51):
            sup = sup_block_entanglement(BlockSpec(n, 1, 1), base=math.e)
            assert 1.0 / n < sup < 1.0 / (n - 2.0)


class TestMonotonicity:
    def test_single_entry(self, rng):
        p = random_params(rng, n_total=4)
        values = entanglement_vs_nd(p, 4, 2)
        assert values.shape == (1,)

    def test_non_increasing(self, rng):
        for _ in range(100):
            p = random_params(rng, n_total=6)
            values = entanglement_vs_nd(p, 6, 4)
            assert values.shape == (2,)  # n_d in {0, 2}
            assert values[0] >= values[1] - 1e-12
            if values[0] > 1e-6:
                assert values[0] > values[1]

    def test_zero_region_all_zero(self, rng):
        p = SymmetricParams(6, 0.6, 1.4, r=1.5)  # r inside (1, gamma^2)
        assert np.all(entanglement_vs_nd(p, 6, 4) == 0.0)


class TestPurity:
    def test_vacuum_params(self):
        p = SymmetricParams(3, 0.5, 1.0, 1.0)
        result = purity(p)
        assert result.global_purity == pytest.approx(1.0)
        assert result.mu1 == pytest.approx(1.0)
        assert result.mu2 == pytest.approx(1.0)

    def test_quoted_thermal_value(self):
        p = SymmetricParams(2, 1.0, 0.5, 1.0)  # nu_D = 1, nu_N = 1/2
        assert purity(p).global_purity == pytest.approx(0.5)

    def test_mu1_from_standard_form(self, rng):
        for _ in range(20):
            p = random_params(rng)
            sf = params_to_standard(p)
            assert purity(p).mu1 == pytest.approx(0.5 / sf.a, rel=1e-10)

    def test_matches_covariance_determinants(self, rng):
        p = random_params(rng, n_total=4)
        cov = symmetric_cov(params_to_standard(p))
        assert purity(p).global_purity == pytest.approx(
            cov_purity(cov), rel=1e-8
        )
        two = reduced_cov(cov, [0, 1])
        assert purity(p).mu2 == pytest.approx(cov_purity(two), rel=1e-8)


class TestPureStateOracle:
    def test_uncoupled_is_separable(self):
        assert pure_state_oracle(1.3, 0.0, 4) == 0.0

    def test_quoted_value(self):
        assert pure_state_oracle(2.0, 0.5, 3, base=2) == pytest.approx(
            0.5 * math.log2(5.0 / 3.0), rel=1e-12
        )

    def test_negative_b_limit_approaches_sup(self):
        # r = a/b -> -1 drives E_L to the N:1|1 supremum
        for n in (3, 4, 6):
            sup = sup_block_entanglement(BlockSpec(n, 1, 1), base=2.0)
            b = -1.0
            a = 1.0 + 1e-9  # r = a/b just above -1
            el = pure_state_oracle(a, b, n, base=2)
            assert el == pytest.approx(sup, abs=1e-6)

    def test_rejects_unnormalizable(self):
        with pytest.raises(InvalidWavefunction):
            pure_state_oracle(1.0, 0.6, 3)  # a - 2b < 0
        with pytest.raises(InvalidWavefunction):
            pure_state_oracle(1.0, -1.1, 2)  # a + b < 0

    def test_covariance_pipeline_agrees(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 7))
            while True:
                a = math.exp(rng.uniform(-1.0, 1.0))
                b = rng.uniform(-1.0, 1.0) * a
                if a + b > 0 and a - (n - 1) * b > 0:
                    break
            cov = pure_symmetric_cov(a, b, n)
            assert cov_purity(cov) == pytest.approx(1.0, abs=1e-8)
            two = reduced_cov(cov, [0, 1])
            el = max(
                math.log2(0.5 / two_mode_invariants(two).nu_minus), 0.0
            )
            assert el == pytest.approx(
                pure_state_oracle(a, b, n, base=2), abs=1e-8
            )

    def test_pure_cov_is_symmetric_standard_form(self, rng):
        # the constructed covariance really is a symmetric-state instance
        cov = pure_symmetric_cov(1.2, -0.3, 4)
        s = cov.sigma
        assert s[0, 0] == pytest.approx(s[2, 2])
        assert s[0, 2] == pytest.approx(s[0, 4])
        assert is_valid_state(cov, tol=1e-8)


class TestNumericalRobustness:
    def test_f_block_positive_at_extreme_corners(self, rng):
        # the rationalized closed form stays positive where the naive
        # difference cancels catastrophically (n_s = N, extreme r)
        for _ in range(500):
            n = int(rng.integers(2, 13))
            n1 = int(rng.integers(1, n))
            n2 = n - n1
            nu_d = 0.5 * math.exp(rng.uniform(0.0, 4.0))
            gamma = max(0.5 / nu_d, 1e-12) * math.exp(rng.uniform(0.0, 4.0))
            r = math.exp(rng.uniform(-18.4, 18.4))
            p = SymmetricParams(n, nu_d, gamma, r)
            assert f_block(p, BlockSpec(n, n1, n2)) > 0.0

    def test_full_partition_linear_slope(self):
        # N=2, gamma=1, nu_D=1/2: f = r/4 exactly in the r -> 0 limit
        for r in (1e-6, 1e-9, 1e-12):
            p = SymmetricParams(2, 0.5, 1.0, r)
            assert f_block(p, BlockSpec(2, 1, 1)) / r == pytest.approx(
                0.25, rel=1e-9
            )

    def test_symplectic_spectrum_against_direct_route(self, rng):
        # |Im eig(Omega sigma)| is an independent route to the spectrum
        for _ in range(50):
            n = int(rng.integers(1, 5))
            g = rng.normal(size=(2 * n, 2 * n))
            cov = CovarianceMatrix(n, g @ g.T + 0.1 * np.eye(2 * n))
            ev = np.linalg.eigvals(symplectic_form(n) @ cov.sigma)
            direct = np.sort(np.abs(ev.imag))[::2]  # +-i nu pairs
            np.testing.assert_allclose(
                symplectic_eigenvalues(cov), direct, rtol=1e-8
            )
