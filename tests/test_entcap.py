import math

import numpy as np
import pytest

from negacap import families
from negacap.channel import (
    Channel,
    adjoint_identity,
    apply,
    choi_from_kraus,
    is_cp,
    is_hp,
    is_tp,
    kraus_channel,
    kraus_from_choi,
    map_partial_transpose,
    mix,
    unitary_channel,
)
from negacap.entcap import (
    ECBounds,
    analyze_channel,
    campbell_check,
    distance_bounds,
    ec_bounds_deterministic,
    ec_bounds_probabilistic,
    gamma_norm,
    gamma_split,
    is_ppt_unitary,
    is_separable_pure,
    log_negativity,
    negativity,
    norm_equivalence_check,
    operator_schmidt,
    pt_minus_identity,
    saturation_check,
    schmidt_gamma_witnesses,
)
from negacap.errors import (
    NegacapError,
    NotCPTP,
    NotDensityOperator,
    NotHP,
    NotTPSum,
    NotUnitary,
)
from negacap.linalg import (
    BipartiteDims,
    eig_hermitian,
    operator_norm,
    partial_transpose,
    tensor,
    trace_norm,
)

from conftest import (
    bell_state,
    projector,
    rand_cptp,
    rand_density,
    rand_hermitian,
    rand_sub_operations,
    rand_unitary,
    rand_unitary_mixture,
)

D22 = BipartiteDims(2, 2)
D23 = BipartiteDims(2, 3)


class TestNegativity:
    def test_product_state_vanishes(self, rng):
        rho = tensor(rand_density(rng, 2), rand_density(rng, 2))
        assert negativity(rho, D22) == pytest.approx(0.0, abs=1e-12)
        assert log_negativity(rho, D22) == pytest.approx(0.0, abs=1e-12)

    def test_bell_state(self):
        rho = projector(bell_state())
        assert negativity(rho, D22) == pytest.approx(0.5, abs=1e-12)
        assert log_negativity(rho, D22, base=2) == pytest.approx(1.0, abs=1e-12)

    def test_skewed_schmidt_state(self):
        lam = np.array([math.sqrt(0.9), math.sqrt(0.1)])
        psi = np.zeros(4)
        psi[0], psi[3] = lam
        rho = projector(psi)
        tn = lam.sum() ** 2
        assert negativity(rho, D22) == pytest.approx((tn - 1.0) / 2.0, abs=1e-10)
        assert log_negativity(rho, D22, base=2) == pytest.approx(
            math.log2(tn), abs=1e-10
        )

    def test_rejects_unnormalized(self, rng):
        with pytest.raises(NotDensityOperator):
            negativity(2.0 * rand_density(rng, 4), D22)


class TestGammaNorm:
    def test_ppt_tp_channel_is_dadb(self, rng):
        u = tensor(rand_unitary(rng, 2), rand_unitary(rng, 3))
        ch = unitary_channel(u, D23)
        assert gamma_norm(ch, 1.0) == pytest.approx(6.0, rel=1e-10)

    def test_bell_projector(self):
        assert gamma_norm(projector(bell_state()), 1.0, D22) == pytest.approx(2.0)

    def test_separable_state_is_one(self, rng):
        rho = tensor(rand_density(rng, 2), rand_density(rng, 3))
        assert gamma_norm(rho, 1.0, D23) == pytest.approx(1.0, rel=1e-10)

    def test_tp_channel_identity(self, rng):
        # ||S||_1Gamma = d_A d_B + 2 ||(S^G)_-^dag(I)||_1
        for _ in range(20):
            ch = rand_cptp(rng, D22, k=int(rng.integers(1, 4)))
            lhs = gamma_norm(ch, 1.0)
            rhs = 4.0 + 2.0 * trace_norm(pt_minus_identity(ch))
            assert abs(lhs - rhs) <= 1e-9 * lhs

    def test_normalized_sub_operation(self, rng):
        v = 0.5 * rand_unitary(rng, 4)
        sub = kraus_channel(v, D22, D22)
        plain = gamma_norm(sub, 1.0)
        assert gamma_norm(sub, 1.0, normalized=True) == pytest.approx(
            plain / (trace_norm(sub.choi) / 4.0), rel=1e-12
        )


class TestDeterministicBounds:
    def test_rot22_witness(self, rng):
        for _ in range(10):
            alpha, beta = rng.uniform(0, math.pi, size=2)
            ch = families.family_channel("rot22", alpha, beta)
            m = pt_minus_identity(ch)
            target = abs(math.sin(beta - alpha)) / 2.0 * np.eye(4)
            assert np.max(np.abs(m - target)) <= 1e-10

    def test_cnot_exact_capacity(self):
        ch = unitary_channel(families.cnot_unitary(), D22)
        bounds = ec_bounds_deterministic(ch, base=2)
        assert bounds.lower_l == pytest.approx(1.0, abs=1e-10)
        assert bounds.upper_l == pytest.approx(1.0, abs=1e-10)
        assert bounds.lower_n == pytest.approx(0.5, abs=1e-10)

    def test_ppt_channel_zero_bounds(self, rng):
        u = tensor(rand_unitary(rng, 2), rand_unitary(rng, 2))
        bounds = ec_bounds_deterministic(unitary_channel(u, D22), base=2)
        assert bounds.upper_l <= 1e-8
        assert bounds.lower_n <= 1e-9

    def test_rejects_non_cptp(self, rng):
        ch = choi_from_kraus([(1.0, 0.5 * np.eye(4))], D22, D22)
        with pytest.raises(NotCPTP):
            ec_bounds_deterministic(ch)

    def test_out_of_order_bounds_raise_negacap_error(self):
        with pytest.raises(NegacapError):
            ECBounds(0.5, 0.1, 0.2, 0.1, 0.3)
        with pytest.raises(NegacapError):
            ECBounds(0.1, 0.1, 0.2, 0.5, 0.3)

    def test_ordering_on_random_channels(self, rng):
        for _ in range(50):
            ch = rand_cptp(rng, D22, k=int(rng.integers(1, 5)))
            b = ec_bounds_deterministic(ch, base=2)
            assert b.lower_n <= b.upper_n_max + 1e-12
            assert b.lower_l <= b.upper_l + 1e-12

    def test_loe_identity(self, rng):
        # 1 + 2||M||_1/(dA dB) == ||T(S^Gamma)||_1/(dA dB)
        for _ in range(200):
            ch = rand_cptp(rng, D22, k=int(rng.integers(1, 4)))
            m = pt_minus_identity(ch)
            lhs = 1.0 + 2.0 * trace_norm(m) / 4.0
            rhs = gamma_norm(ch, 1.0) / 4.0
            assert abs(lhs - rhs) <= 1e-9 * rhs

    def test_bound_soundness_on_random_states(self, rng):
        # negativity gain of an actual run never beats the bounds
        for _ in range(50):
            ch = rand_cptp(rng, D22, k=int(rng.integers(1, 4)))
            rho = rand_density(rng, 4)
            b = ec_bounds_deterministic(ch, base=2)
            gain_n = negativity(apply(ch, rho), D22) - negativity(rho, D22)
            gain_l = log_negativity(apply(ch, rho), D22) - log_negativity(rho, D22)
            assert gain_n <= b.upper_n_coefficient * gamma_norm(rho, 1.0, D22) + 1e-9
            assert gain_l <= b.upper_l + 1e-9


def _rel_close(a, b, rtol=1e-12):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.max(np.abs(a - b)) <= rtol * max(np.max(np.abs(a)), np.max(np.abs(b)))


def _bounds_tuple(b):
    return (b.lower_n, b.upper_n_coefficient, b.upper_n_max, b.lower_l, b.upper_l)


class TestRealArithmeticPath:
    """Real-valued channels are solved in real arithmetic, others in complex."""

    @pytest.mark.parametrize("family", ["rot23", "rot33"])
    def test_real_path_matches_complex_path_and_schmidt(self, rng, family):
        builder, dims = families.FAMILIES[family]
        for _ in range(3):
            alpha, beta = rng.uniform(0, math.pi, size=2)
            u = builder(alpha, beta)
            # output-side local phases: M and the bounds are unchanged
            phases = np.kron(
                np.exp(1j * rng.uniform(0, 2 * math.pi, size=dims.d_a)),
                np.exp(1j * rng.uniform(0, 2 * math.pi, size=dims.d_b)),
            )
            real_ch = unitary_channel(u, dims)
            cplx_ch = unitary_channel(phases[:, None] * u, dims)
            assert not map_partial_transpose(real_ch).choi.imag.any()
            assert map_partial_transpose(cplx_ch).choi.imag.any()

            m_real = pt_minus_identity(real_ch)
            m_cplx = pt_minus_identity(cplx_ch)
            assert m_real.dtype == np.float64
            assert m_cplx.dtype == np.complex128
            _, m_schmidt = schmidt_gamma_witnesses(operator_schmidt(u, dims))
            spectra = [np.linalg.eigvalsh(m) for m in (m_real, m_cplx, m_schmidt)]
            assert _rel_close(spectra[0], spectra[1])
            assert _rel_close(spectra[0], spectra[2])

            b_real = _bounds_tuple(ec_bounds_deterministic(real_ch))
            b_cplx = _bounds_tuple(ec_bounds_deterministic(cplx_ch))
            d = dims.total
            tr, op = np.sum(np.abs(spectra[2])), np.max(np.abs(spectra[2]))
            b_schmidt = (
                tr / d,
                op,
                op * min(dims.d_a, dims.d_b),
                math.log2(1.0 + 2.0 * tr / d),
                math.log2(1.0 + 2.0 * op),
            )
            for x, y, z in zip(b_real, b_cplx, b_schmidt):
                assert x == pytest.approx(y, rel=1e-12, abs=1e-15)
                assert x == pytest.approx(z, rel=1e-12, abs=1e-15)

    def test_minus_only_witness_matches_gamma_split(self, rng):
        for ch in (
            rand_cptp(rng, D23, k=2),
            families.family_channel("rot33", *rng.uniform(0, math.pi, size=2)),
        ):
            expected = adjoint_identity(gamma_split(ch).minus)
            assert np.max(np.abs(pt_minus_identity(ch) - expected)) <= 1e-13


class TestChannelAnalysis:
    """One Choi and one PT-Choi spectrum give what the separate routines give."""

    @pytest.mark.parametrize("da,db", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_matches_separate_routines(self, rng, da, db):
        dims = BipartiteDims(da, db)
        for ch in (
            rand_cptp(rng, dims, k=2),
            unitary_channel(rand_unitary(rng, dims.total), dims),
        ):
            analysis = analyze_channel(ch)
            assert (analysis.hp, analysis.cp, analysis.tp) == (
                is_hp(ch), is_cp(ch), is_tp(ch)
            )
            assert np.array_equal(analysis.witness, pt_minus_identity(ch))
            for base in (2.0, math.e, 10.0):
                assert analysis.bounds(base) == ec_bounds_deterministic(ch, base=base)
            assert analysis.gamma_norm_1 == pytest.approx(gamma_norm(ch, 1.0), rel=1e-12)
            assert analysis.ppt == (trace_norm(pt_minus_identity(ch)) <= 1e-9)

    def test_hp_not_cp(self, rng):
        terms = [(1.0, rand_unitary(rng, 4)), (-0.5, rand_unitary(rng, 4))]
        ch = choi_from_kraus(terms, D22, D22)
        analysis = analyze_channel(ch)
        assert analysis.hp and not analysis.cp
        assert analysis.gamma_norm_1 == pytest.approx(gamma_norm(ch, 1.0), rel=1e-12)
        with pytest.raises(NotCPTP):
            analysis.bounds()

    def test_non_hp_has_no_witness(self, rng):
        choi = 0.25 * np.eye(16, dtype=complex)
        choi[0, 5] = 1e-3j
        ch = Channel(choi=choi, in_dims=D22, out_dims=D22)
        analysis = analyze_channel(ch)
        assert not (analysis.hp or analysis.cp)
        assert analysis.witness is None and analysis.ppt is None
        with pytest.raises(NotHP):
            analysis.prop_identity(1e-8)


class TestProbabilisticBounds:
    def test_single_sub_reduces_to_deterministic(self, rng):
        ch = rand_cptp(rng, D22, k=3)
        det = ec_bounds_deterministic(ch, base=2)
        prob = ec_bounds_probabilistic([ch], base=2).bounds
        assert prob.lower_n == pytest.approx(det.lower_n, abs=1e-10)
        assert prob.lower_l == pytest.approx(det.lower_l, abs=1e-10)
        assert prob.upper_l == pytest.approx(det.upper_l, abs=1e-10)

    def test_product_basis_measurement_all_zero(self):
        subs = []
        for i in range(4):
            p = np.zeros((4, 4))
            p[i, i] = 1.0
            subs.append(kraus_channel(p, D22, D22))
        result = ec_bounds_probabilistic(subs, base=2)
        assert result.bounds.upper_l <= 1e-9
        assert result.bounds.lower_n <= 1e-12

    def test_per_sub_probabilities_sum_to_one(self, rng):
        subs = rand_sub_operations(rng, D22, k=3)
        result = ec_bounds_probabilistic(subs, base=2)
        assert sum(r.probability for r in result.per_sub) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_per_sub_expected_negativity_bound(self, rng):
        # p_i E_N_i <= E_N (plus+minus) + minus, checked on random inputs
        for _ in range(20):
            subs = rand_sub_operations(rng, D22, k=2)
            rho = rand_density(rng, 4)
            result = ec_bounds_probabilistic(subs, base=2)
            e_in = negativity(rho, D22)
            for sub, rec in zip(subs, result.per_sub):
                out = apply(sub, rho)
                p = np.trace(out).real
                if p < 1e-12:
                    continue
                e_out = negativity(out / p, D22)
                cap = e_in * (rec.plus_norm + rec.minus_norm) + rec.minus_norm
                assert p * e_out <= cap + 1e-9

    def test_rejects_non_tp_sum(self, rng):
        sub = kraus_channel(0.5 * np.eye(4), D22, D22)
        with pytest.raises(NotTPSum):
            ec_bounds_probabilistic([sub])


class TestDistanceBounds:
    def test_equal_channels_vanish(self, rng):
        ch = rand_cptp(rng, D22)
        rho = rand_density(rng, 4)
        lhs, mid, rhs = distance_bounds(ch, ch, rho)
        assert lhs == pytest.approx(0.0, abs=1e-9)
        assert mid == pytest.approx(0.0, abs=1e-9)
        assert rhs == pytest.approx(0.0, abs=1e-9)

    def test_chain_ordering(self, rng):
        rho = projector(bell_state())
        for _ in range(30):
            s1 = rand_cptp(rng, D22, k=2)
            s2 = rand_cptp(rng, D22, k=2)
            lhs, mid, rhs = distance_bounds(s1, s2, rho)
            assert lhs <= mid + 1e-9
            assert mid <= rhs + 1e-9

    def test_state_side_bound(self, rng):
        # ||S(rho1)^G - S(rho2)^G||_1 <= (1 + 2||M||) D_1Gamma(rho1, rho2)
        for _ in range(30):
            ch = rand_cptp(rng, D22, k=2)
            rho1, rho2 = rand_density(rng, 4), rand_density(rng, 4)
            m_norm = operator_norm(pt_minus_identity(ch))
            lhs = trace_norm(
                partial_transpose(apply(ch, rho1) - apply(ch, rho2), D22)
            )
            rhs = (1.0 + 2.0 * m_norm) * trace_norm(
                partial_transpose(rho1 - rho2, D22)
            )
            assert lhs <= rhs + 1e-9


class TestOperatorSchmidt:
    def test_product_unitary_rank_one(self, rng):
        u = tensor(rand_unitary(rng, 2), rand_unitary(rng, 3))
        schmidt = operator_schmidt(u, D23)
        assert schmidt.rank == 1
        assert schmidt.coefficients[0] == pytest.approx(math.sqrt(6.0), rel=1e-10)

    def test_cnot_two_equal_coefficients(self):
        schmidt = operator_schmidt(families.cnot_unitary(), D22)
        np.testing.assert_allclose(
            schmidt.coefficients, [math.sqrt(2.0)] * 2, atol=1e-12
        )
        assert np.sum(schmidt.coefficients**2) == pytest.approx(4.0)

    def test_swap_four_unit_coefficients(self):
        swap = np.eye(4)[[0, 2, 1, 3]]
        schmidt = operator_schmidt(swap, D22)
        np.testing.assert_allclose(schmidt.coefficients, np.ones(4), atol=1e-12)

    def test_reconstruction_and_orthonormality(self, rng):
        for dims in (D22, D23):
            v = rand_unitary(rng, dims.total)
            schmidt = operator_schmidt(v, dims)
            rebuilt = sum(
                l * tensor(a, b)
                for l, a, b in zip(
                    schmidt.coefficients, schmidt.left_ops, schmidt.right_ops
                )
            )
            assert np.max(np.abs(rebuilt - v)) <= 1e-9
            assert np.sum(schmidt.coefficients**2) == pytest.approx(
                np.linalg.norm(v) ** 2, rel=1e-9
            )
            for ops in (schmidt.left_ops, schmidt.right_ops):
                for i in range(len(ops)):
                    for j in range(i, len(ops)):
                        assert np.vdot(ops[i], ops[j]) == pytest.approx(
                            1.0 if i == j else 0.0, abs=1e-10
                        )

    def test_witness_construction_matches_spectral_split(self, rng):
        # the V+- route and the Choi eigendecomposition agree exactly
        for dims in (D22, D23):
            u = rand_unitary(rng, dims.total)
            _, minus = schmidt_gamma_witnesses(operator_schmidt(u, dims))
            direct = pt_minus_identity(unitary_channel(u, dims))
            assert np.max(np.abs(minus - direct)) <= 1e-9


class TestCampbell:
    def test_single_unitary_trace_identity(self, rng):
        # 1 + 2||M||_1/(dA dB) == (sum lam)^2/(dA dB)
        for dims in (D22, D23):
            d = dims.total
            u = rand_unitary(rng, d)
            m = pt_minus_identity(unitary_channel(u, dims))
            lam = operator_schmidt(u, dims).coefficients
            assert 1.0 + 2.0 * trace_norm(m) / d == pytest.approx(
                lam.sum() ** 2 / d, rel=1e-9
            )

    def test_product_unitary_all_one(self, rng):
        u = tensor(rand_unitary(rng, 2), rand_unitary(rng, 2))
        lhs, mid, rhs = campbell_check([unitary_channel(u, D22)])
        assert lhs == pytest.approx(1.0, abs=1e-9)
        assert mid == pytest.approx(1.0, abs=1e-9)
        assert rhs == pytest.approx(1.0, abs=1e-9)

    def test_cnot_lower_bound_is_one_bit(self):
        lam = operator_schmidt(families.cnot_unitary(), D22).coefficients
        assert lam.sum() ** 2 == pytest.approx(8.0, abs=1e-10)
        assert math.log2(lam.sum() ** 2 / 4.0) == pytest.approx(1.0, abs=1e-10)

    def test_mixture_identity_and_inequality(self, rng):
        for dims in (D22, D23):
            for _ in range(25):
                subs = rand_unitary_mixture(rng, dims, k=int(rng.integers(1, 4)))
                lhs, mid, rhs = campbell_check(subs)
                assert abs(lhs - mid) <= 1e-9 * max(lhs, 1.0)
                assert mid <= rhs + 1e-10

    def test_rejects_multi_kraus_sub(self, rng):
        with pytest.raises(NotTPSum):
            campbell_check([rand_cptp(rng, D22, k=3)])


class TestPptSeparability:
    def test_product_unitary_is_ppt(self, rng):
        u = tensor(rand_unitary(rng, 2), rand_unitary(rng, 3))
        assert is_ppt_unitary(u, D23)

    def test_cnot_is_not(self):
        assert not is_ppt_unitary(families.cnot_unitary(), D22)

    def test_rejects_non_unitary(self, rng):
        with pytest.raises(NotUnitary):
            is_ppt_unitary(np.ones((4, 4)), D22)

    def test_pure_states(self, rng):
        a, b = rng.normal(size=2) + 1j * rng.normal(size=2), rng.normal(
            size=2
        ) + 1j * rng.normal(size=2)
        prod = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
        assert is_separable_pure(prod, D22)
        assert not is_separable_pure(bell_state(), D22)


class TestSaturation:
    def test_cnot_with_optimal_state(self):
        ch = unitary_channel(families.cnot_unitary(), D22)
        psi = np.array([1.0, 0.0, 1.0, 0.0]) / math.sqrt(2.0)
        report = saturation_check(ch, projector(psi))
        assert report.prop_identity
        assert report.orthogonality
        assert report.achieves_upper
        out = apply(ch, projector(psi))
        assert negativity(out, D22) == pytest.approx(0.5, abs=1e-10)

    def test_rot22_solution_family(self, rng):
        # theta1 = pi/4 + n pi/2 works for every (alpha, beta)
        alpha, beta = rng.uniform(0, math.pi, size=2)
        ch = families.family_channel("rot22", alpha, beta)
        psi = np.kron([1.0, 1.0] / np.sqrt(2.0), [1.0, 0.0])
        assert saturation_check(ch, projector(psi)).achieves_upper

    def test_cnot_with_bad_state(self):
        ch = unitary_channel(families.cnot_unitary(), D22)
        psi = np.array([1.0, 0.0, 0.0, 0.0])
        report = saturation_check(ch, projector(psi))
        assert not report.orthogonality
        assert not report.achieves_upper
        out = apply(ch, projector(psi))
        assert negativity(out, D22) == pytest.approx(0.0, abs=1e-10)

    def test_ppt_channel_trivial_saturation(self, rng):
        u = tensor(rand_unitary(rng, 2), rand_unitary(rng, 2))
        ch = unitary_channel(u, D22)
        report = saturation_check(ch, projector(bell_state()))
        assert report.prop_identity  # zero witness is proportional to I
        assert report.achieves_upper


class TestNormEquivalence:
    def test_product_hermitian_ratio_one(self, rng):
        h = tensor(rand_hermitian(rng, 2), rand_hermitian(rng, 2))
        result = norm_equivalence_check(h, D22)
        assert result.ratio == pytest.approx(1.0, rel=1e-10)
        assert result.within

    def test_bell_projector_extremal(self):
        result = norm_equivalence_check(projector(bell_state()), D22)
        assert result.ratio == pytest.approx(2.0, rel=1e-10)
        assert result.within

    def test_random_sandwich(self, rng):
        for _ in range(200):
            h = rand_hermitian(rng, 6)
            result = norm_equivalence_check(h, D23)
            assert result.lower == 0.5 and result.upper == 2.0
            assert result.within


class TestAppendixCPhenomenon:
    def test_canonical_split_not_norm_minimal(self):
        # for the 2x3 pair there is a p where the joint split's witness
        # has strictly larger operator norm than the convex split's
        ch1, ch2 = families.mix_pair("rot23")
        m1, m2 = pt_minus_identity(ch1), pt_minus_identity(ch2)
        found = False
        for p in np.linspace(0.05, 0.95, 19):
            joint = operator_norm(pt_minus_identity(mix([ch1, ch2], [p, 1 - p])))
            convex = operator_norm(p * m1 + (1 - p) * m2)
            if joint > convex + 1e-9:
                found = True
                break
        assert found


class TestDistanceBoundsSchattenPairs:
    def test_conjugate_pairs_still_bound(self, rng):
        rho = rand_density(rng, 4)
        for _ in range(10):
            s1 = rand_cptp(rng, D22, k=2)
            s2 = rand_cptp(rng, D22, k=2)
            for p in (1.0, 2.0, np.inf):
                lhs, mid, _ = distance_bounds(s1, s2, rho, p=p)
                assert lhs <= mid + 1e-9


def _pairwise_max_overlap(ch, rho):
    """max |<c, d>| / (|c| |d|) over cross and direct vectors, pair by pair."""
    split = gamma_split(ch)
    v_plus, v_minus = (
        [np.sqrt(c) * v for c, v in zip(form.coefficients, form.operators) if c > 1e-12]
        for form in (kraus_from_choi(split.plus), kraus_from_choi(split.minus))
    )
    w, vecs = eig_hermitian(partial_transpose(rho, ch.in_dims))
    scale = float(np.max(np.abs(w)))
    psi_plus = [np.sqrt(x) * vecs[:, i] for i, x in enumerate(w) if x > 1e-12 * scale]
    psi_minus = [np.sqrt(-x) * vecs[:, i] for i, x in enumerate(w) if x < -1e-12 * scale]
    direct = [v @ p for v in v_plus for p in psi_plus]
    direct += [v @ p for v in v_minus for p in psi_minus]
    cross = [v @ p for v in v_plus for p in psi_minus]
    cross += [v @ p for v in v_minus for p in psi_plus]
    best = 0.0
    for c in cross:
        nc = np.linalg.norm(c)
        if nc < 1e-15:
            continue
        for dv in direct:
            nd = np.linalg.norm(dv)
            if nd < 1e-15:
                continue
            best = max(best, abs(np.vdot(c, dv)) / (nc * nd))
    return best


class TestSaturationOverlap:
    @pytest.mark.parametrize("dims", [D22, D23])
    def test_gram_product_matches_pairwise_loop(self, rng, dims):
        for _ in range(3):
            ch = unitary_channel(rand_unitary(rng, dims.total), dims)
            rho = rand_density(rng, dims.total)
            expected = _pairwise_max_overlap(ch, rho)
            assert expected > 0.0
            assert saturation_check(ch, rho).max_overlap == pytest.approx(
                expected, rel=1e-12, abs=1e-12
            )


class TestSaturationEigenspaceMembership:
    @staticmethod
    def _product_state_in_top_eigenspace(ch, da, db, rng):
        # alternating projection onto (top eigenspace) x (product manifold)
        m = pt_minus_identity(ch)
        w, v = eig_hermitian(m)
        top = w >= w[-1] - 1e-9 * max(abs(w[-1]), 1.0)
        proj = v[:, top] @ v[:, top].conj().T
        a = rng.normal(size=da) + 1j * rng.normal(size=da)
        b = rng.normal(size=db) + 1j * rng.normal(size=db)
        for _ in range(400):
            mat = (proj @ np.kron(a, b)).reshape(da, db)
            u, _, wh = np.linalg.svd(mat)
            a, b = u[:, 0], wh[0].conj()
        psi = np.kron(a, b)
        psi /= np.linalg.norm(psi)
        residual = np.linalg.norm(psi - proj @ psi)
        return psi, residual

    def test_membership_without_orthogonality(self, rng):
        # at a generic 2x3 point the witness is not proportional to the
        # identity; a product state inside its top eigenspace meets the
        # eigenspace condition yet fails the orthogonality one, so the
        # upper bound is still not attained
        ch = families.family_channel("rot23", 0.9, 0.4)
        psi, residual = self._product_state_in_top_eigenspace(ch, 2, 3, rng)
        assert residual <= 1e-10
        report = saturation_check(ch, projector(psi))
        assert not report.prop_identity
        assert report.witness_gap <= 1e-10
        assert not report.orthogonality
        assert not report.achieves_upper

    def test_state_outside_top_eigenspace(self):
        ch = families.family_channel("rot23", 0.9, 0.4)
        psi = np.kron([1.0, 0.0], [1.0, 0.0, 0.0])
        report = saturation_check(ch, projector(psi))
        assert not report.prop_identity
        assert report.witness_gap > 0.1
        assert not report.achieves_upper


class TestGencnotSolutionFamily:
    def test_family_saturates_everywhere(self, rng):
        # theta1 = pi/4 with tan(2 theta2) = -cot(alpha+beta)/cos(phi2)
        # reaches the half-unit capacity for every (alpha, beta)
        for _ in range(15):
            alpha, beta = rng.uniform(0.1, math.pi - 0.1, size=2)
            if abs(math.sin(alpha + beta)) < 1e-2:
                continue
            ch = families.family_channel("gencnot", alpha, beta)
            theta2 = 0.5 * math.atan(math.tan(alpha + beta)) + math.pi / 4.0
            psi = np.kron(
                [math.cos(math.pi / 4), math.sin(math.pi / 4)],
                [math.cos(theta2), math.sin(theta2)],
            )
            report = saturation_check(ch, projector(psi))
            assert report.prop_identity
            assert report.achieves_upper
            out = apply(ch, projector(psi))
            assert negativity(out, D22) == pytest.approx(0.5, abs=1e-9)


class TestLargerDims:
    def test_3x3_bounds_and_identity(self, rng):
        # full 81x81 Choi path: ordering and the trace-route identity
        ch = families.family_channel("rot33", 1.1, 0.4)
        b = ec_bounds_deterministic(ch, base=2)
        assert 0.0 < b.lower_l <= b.upper_l
        d33 = BipartiteDims(3, 3)
        m = pt_minus_identity(ch)
        lhs = 1.0 + 2.0 * trace_norm(m) / 9.0
        rhs = gamma_norm(ch, 1.0) / 9.0
        assert lhs == pytest.approx(rhs, rel=1e-9)
        lam = operator_schmidt(families.rot33_unitary(1.1, 0.4), d33).coefficients
        assert lhs == pytest.approx(lam.sum() ** 2 / 9.0, rel=1e-9)
