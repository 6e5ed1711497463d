import numpy as np
import pytest

from negacap.errors import DimensionMismatch, InvalidP, NotHermitian, NotPSD
from negacap.linalg import (
    BipartiteDims,
    eig_hermitian,
    eigvals_hermitian,
    partial_trace,
    partial_transpose,
    positive_negative_parts,
    schatten_norm,
    sqrt_psd,
    tensor,
    trace_norm,
    operator_norm,
)

from _jacobi import jacobi_eigh
from conftest import bell_state, projector, rand_hermitian


class TestEigHermitian:
    def test_identity(self):
        w, v = eig_hermitian(np.eye(2))
        np.testing.assert_allclose(w, [1.0, 1.0])
        np.testing.assert_allclose(v.conj().T @ v, np.eye(2), atol=1e-12)

    def test_diagonal_sorted_ascending(self):
        w, v = eig_hermitian(np.diag([2.0, -1.0]))
        np.testing.assert_allclose(w, [-1.0, 2.0])
        # standard basis columns, permuted
        np.testing.assert_allclose(np.abs(v), [[0, 1], [1, 0]], atol=1e-12)

    def test_pauli_x(self):
        w, v = eig_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(w, [-1.0, 1.0])
        for col, lam in zip(v.T, w):
            np.testing.assert_allclose(
                np.array([[0, 1], [1, 0]]) @ col, lam * col, atol=1e-12
            )

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            eig_hermitian(np.zeros((2, 3)))

    def test_residual_and_orthonormality(self, rng):
        for _ in range(50):
            h = rand_hermitian(rng, int(rng.integers(2, 10)), scale=10.0)
            w, v = eig_hermitian(h)
            norm = max(np.abs(w))
            assert np.max(np.abs(h @ v - v * w)) <= 1e-10 * max(norm, 1.0)
            assert np.max(np.abs(v.conj().T @ v - np.eye(len(w)))) <= 1e-10

    def test_matches_jacobi_oracle(self, rng):
        for n in (2, 3, 5, 8, 13):
            h = rand_hermitian(rng, n, scale=3.0)
            w, _ = eig_hermitian(h)
            w_oracle, _ = jacobi_eigh(h)
            np.testing.assert_allclose(w, w_oracle, atol=1e-10)

    def test_real_symmetric_stored_complex_takes_real_path(self, rng):
        for n in (2, 5, 9, 16):
            g = rng.normal(size=(n, n))
            h = (g + g.T).astype(complex)
            w, v = eig_hermitian(h)
            assert v.dtype == np.float64
            w_oracle, _ = jacobi_eigh(h)
            np.testing.assert_allclose(w, w_oracle, atol=1e-10)
            np.testing.assert_allclose(eigvals_hermitian(h), w_oracle, atol=1e-10)
            assert np.max(np.abs(h @ v - v * w)) <= 1e-10 * max(np.abs(w))

    def test_nearly_real_input_stays_complex(self, rng):
        g = rng.normal(size=(4, 4))
        skew = np.triu(np.ones((4, 4)), 1) - np.tril(np.ones((4, 4)), -1)
        _, v = eig_hermitian((g + g.T) + 1e-300j * skew)
        assert v.dtype == np.complex128


class TestPositiveNegativeParts:
    def test_diagonal(self):
        split = positive_negative_parts(np.diag([3.0, -2.0]))
        np.testing.assert_allclose(split.plus, np.diag([3.0, 0.0]), atol=1e-12)
        np.testing.assert_allclose(split.minus, np.diag([0.0, 2.0]), atol=1e-12)

    def test_psd_has_no_minus(self, rng):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        p = g @ g.conj().T
        split = positive_negative_parts(p)
        np.testing.assert_allclose(split.plus, p, atol=1e-10)
        assert np.max(np.abs(split.minus)) <= 1e-10

    def test_against_eigensum_oracle(self, rng):
        for _ in range(20):
            h = rand_hermitian(rng, 4)
            w, v = jacobi_eigh(h)
            plus = sum(
                w[i] * np.outer(v[:, i], v[:, i].conj()) for i in range(4) if w[i] > 0
            )
            minus = sum(
                -w[i] * np.outer(v[:, i], v[:, i].conj()) for i in range(4) if w[i] < 0
            )
            split = positive_negative_parts(h)
            np.testing.assert_allclose(split.plus, plus, atol=1e-10)
            np.testing.assert_allclose(split.minus, minus, atol=1e-10)

    def test_round_trip_and_orthogonal_ranges(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 9))
            h = rand_hermitian(rng, n, scale=5.0)
            split = positive_negative_parts(h)
            scale = operator_norm(h)
            assert np.max(np.abs(split.plus - split.minus - h)) <= 1e-9 * max(scale, 1)
            assert operator_norm(split.plus @ split.minus) <= 1e-9 * scale**2

    def test_trace_norm_identity(self, rng):
        # ||H||_1 = tr H + 2 tr H^-
        for _ in range(200):
            h = rand_hermitian(rng, int(rng.integers(2, 8)))
            split = positive_negative_parts(h)
            lhs = trace_norm(h)
            rhs = np.trace(h).real + 2.0 * np.trace(split.minus).real
            assert abs(lhs - rhs) <= 1e-9 * max(lhs, 1.0)

    def test_minimality_against_alternative_splits(self, rng):
        # any other PSD decomposition H = (H^+ + P) - (H^- + P) has larger traces
        for _ in range(50):
            n = int(rng.integers(2, 6))
            h = rand_hermitian(rng, n)
            split = positive_negative_parts(h)
            g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            extra = g @ g.conj().T
            tr_min = np.trace(split.minus).real
            assert np.trace(split.minus + extra).real >= tr_min - 1e-12


class TestSchattenNorm:
    def test_reference_values(self):
        m = np.diag([3.0, -4.0])
        assert schatten_norm(m, 1) == pytest.approx(7.0)
        assert schatten_norm(m, 2) == pytest.approx(5.0)
        assert schatten_norm(m, np.inf) == pytest.approx(4.0)

    def test_invalid_p(self):
        with pytest.raises(InvalidP):
            schatten_norm(np.eye(2), 0.5)

    def test_norm_ordering(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 7))
            z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            assert (
                operator_norm(z) - 1e-12
                <= schatten_norm(z, 2)
                <= trace_norm(z) + 1e-12
            )

    def test_rectangular(self, rng):
        z = rng.normal(size=(2, 5)) + 1j * rng.normal(size=(2, 5))
        s = np.linalg.svd(z, compute_uv=False)
        assert schatten_norm(z, 1) == pytest.approx(s.sum(), rel=1e-10)


class TestTensorStructure:
    def test_identity_tensor(self):
        np.testing.assert_allclose(tensor(np.eye(2), np.eye(3)), np.eye(6))

    def test_diag_tensor(self):
        out = tensor(np.diag([1.0, 2.0]), np.diag([1.0, 0.0]))
        np.testing.assert_allclose(out, np.diag([1.0, 0.0, 2.0, 0.0]))

    def test_mixed_product_property(self, rng):
        a, b = (rng.normal(size=(2, 2)) for _ in range(2))
        c, d = (rng.normal(size=(3, 3)) for _ in range(2))
        np.testing.assert_allclose(
            tensor(a, c) @ tensor(b, d), tensor(a @ b, c @ d), atol=1e-12
        )

    def test_operator_norm_multiplicative(self, rng):
        for _ in range(20):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            assert operator_norm(tensor(a, b)) == pytest.approx(
                operator_norm(a) * operator_norm(b), rel=1e-10
            )


class TestPartialTraceTranspose:
    dims = BipartiteDims(2, 2)

    def test_trace_out_b_of_product(self, rng):
        a = rand_hermitian(rng, 2)
        b = rand_hermitian(rng, 3)
        dims = BipartiteDims(2, 3)
        np.testing.assert_allclose(
            partial_trace(tensor(a, b), dims, keep="a"),
            np.trace(b) * a,
            atol=1e-12,
        )
        np.testing.assert_allclose(
            partial_trace(tensor(a, b), dims, keep="b"),
            np.trace(a) * b,
            atol=1e-12,
        )

    def test_trace_out_a_of_identity(self):
        np.testing.assert_allclose(
            partial_trace(np.eye(4), self.dims, keep="b"), 2.0 * np.eye(2)
        )

    def test_bell_marginals(self):
        rho = projector(bell_state())
        for keep in ("a", "b"):
            np.testing.assert_allclose(
                partial_trace(rho, self.dims, keep=keep), np.eye(2) / 2, atol=1e-12
            )

    def test_trace_preserved(self, rng):
        o = rand_hermitian(rng, 6)
        dims = BipartiteDims(2, 3)
        assert np.trace(partial_trace(o, dims, "a")) == pytest.approx(
            np.trace(o).real, rel=1e-12
        )

    def test_pt_of_product(self, rng):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        dims = BipartiteDims(2, 3)
        np.testing.assert_allclose(
            partial_transpose(tensor(a, b), dims, "a"), tensor(a.T, b), atol=1e-12
        )
        np.testing.assert_allclose(
            partial_transpose(tensor(a, b), dims, "b"), tensor(a, b.T), atol=1e-12
        )

    def test_bell_pt_spectrum(self):
        rho = projector(bell_state())
        w, _ = eig_hermitian(partial_transpose(rho, self.dims))
        np.testing.assert_allclose(w, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_pure_schmidt_pt_trace_norm(self, rng):
        # ||rho^Gamma||_1 = (sum_i lambda_i)^2 for pure Schmidt states
        for _ in range(20):
            lam = np.abs(rng.normal(size=2))
            lam /= np.linalg.norm(lam)
            psi = np.zeros(4, dtype=complex)
            psi[0], psi[3] = lam
            rho = projector(psi)
            assert trace_norm(partial_transpose(rho, self.dims)) == pytest.approx(
                lam.sum() ** 2, rel=1e-10
            )

    def test_involution_and_trace(self, rng):
        o = rand_hermitian(rng, 6)
        dims = BipartiteDims(3, 2)
        back = partial_transpose(partial_transpose(o, dims), dims)
        np.testing.assert_allclose(back, o, atol=1e-14)
        assert np.trace(partial_transpose(o, dims)) == pytest.approx(
            np.trace(o).real, rel=1e-12
        )

    def test_pt_is_hs_isometry(self, rng):
        for _ in range(200):
            o = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
            pt = partial_transpose(o, BipartiteDims(2, 3))
            assert schatten_norm(pt, 2) == pytest.approx(
                schatten_norm(o, 2), rel=1e-10
            )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            partial_trace(np.eye(5), BipartiteDims(2, 2), "a")


class TestSqrtPsd:
    def test_diagonal(self):
        np.testing.assert_allclose(
            sqrt_psd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12
        )

    def test_identity(self):
        np.testing.assert_allclose(sqrt_psd(np.eye(3)), np.eye(3), atol=1e-12)

    def test_square_back(self, rng):
        for _ in range(20):
            g = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
            p = g @ g.conj().T
            r = sqrt_psd(p)
            assert np.max(np.abs(r @ r - p)) <= 1e-9 * operator_norm(p)
            assert np.min(np.linalg.eigvalsh(r)) >= -1e-10

    def test_rejects_negative(self):
        with pytest.raises(NotPSD):
            sqrt_psd(np.diag([1.0, -1.0]))
