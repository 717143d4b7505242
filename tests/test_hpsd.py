import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frgeo.exceptions import (
    DimensionMismatchError,
    NotHermitianError,
    NotPSDError,
    SingularMatrixError,
)
from frgeo.hpsd import (
    check_hermitian,
    hermitian_part,
    logdet,
    psd_spectrum,
    psd_sqrt,
    RANK_RTOL,
    real_embedding,
    singular,
    solve_sylvester_velocity,
    spd_inverse,
    sym_product,
)
from frgeo.testing import random_hermitian, random_psd, random_spd


def cofactor_det(a):
    """Independent determinant oracle: recursive cofactor expansion (d <= 3)."""
    d = a.shape[0]
    if d == 1:
        return a[0, 0]
    total = 0.0
    for c in range(d):
        minor = np.delete(np.delete(a, 0, axis=0), c, axis=1)
        total += (-1) ** c * a[0, c] * cofactor_det(minor)
    return total


class TestPsdSqrt:
    def test_identity(self):
        assert np.allclose(psd_sqrt(np.eye(3, dtype=complex)), np.eye(3))

    def test_diagonal(self):
        s = psd_sqrt(np.diag([4.0, 9.0]).astype(complex))
        assert np.allclose(s, np.diag([2.0, 3.0]))

    def test_reconstruction_many(self, rng):
        for _ in range(200):
            d = int(rng.integers(1, 5))
            a = random_psd(rng, d)
            s = psd_sqrt(a)
            err = np.linalg.norm(s @ s - a) / max(np.linalg.norm(a), 1e-300)
            assert err <= 1e-9

    def test_result_is_psd(self, rng):
        s = psd_sqrt(random_psd(rng, 4, rank=2))
        assert np.linalg.eigvalsh(s).min() >= -1e-12

    def test_rejects_negative(self):
        with pytest.raises(NotPSDError):
            psd_sqrt(-np.eye(2, dtype=complex))

    @settings(deadline=None, max_examples=30)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 4))
    def test_reconstruction_property(self, seed, d):
        gen = np.random.default_rng(seed)
        a = random_psd(gen, d)
        s = psd_sqrt(a)
        assert np.linalg.norm(s @ s - a) <= 1e-9 * max(np.linalg.norm(a), 1e-300)


class TestLogdet:
    def test_identity(self):
        assert logdet(np.eye(3, dtype=complex)) == pytest.approx(0.0)

    def test_scalar_diagonal(self):
        assert logdet(np.diag([np.e, np.e]).astype(complex)) == pytest.approx(2.0)

    def test_against_cofactor_expansion(self, rng):
        for _ in range(50):
            d = int(rng.integers(1, 4))
            a = random_spd(rng, d)
            det = cofactor_det(a)
            assert logdet(a) == pytest.approx(np.log(np.real(det)), rel=1e-9, abs=1e-9)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            logdet(np.diag([1.0, 0.0]).astype(complex))

    def test_additive_for_commuting_pairs(self, rng):
        for _ in range(200):
            d = int(rng.integers(1, 5))
            q = np.linalg.eigh(random_hermitian(rng, d)).eigenvectors
            p1 = rng.uniform(0.2, 3.0, d)
            p2 = rng.uniform(0.2, 3.0, d)
            m1 = hermitian_part((q * p1) @ np.conj(q.T))
            m2 = hermitian_part((q * p2) @ np.conj(q.T))
            prod = hermitian_part(m1 @ m2)
            assert abs(logdet(prod) - logdet(m1) - logdet(m2)) <= 1e-9


class TestRealEmbedding:
    def test_scalar_identity(self):
        assert np.allclose(real_embedding(np.eye(1, dtype=complex)), np.eye(2))

    def test_antisymmetric_block_example(self):
        a = np.array([[0.0, 1j], [-1j, 0.0]])
        # Apply the block rule entrywise by hand: i -> [[0,-1],[1,0]].
        expected = np.array(
            [
                [0.0, 0.0, 0.0, -1.0],
                [0.0, 0.0, 1.0, 0.0],
                [0.0, 1.0, 0.0, 0.0],
                [-1.0, 0.0, 0.0, 0.0],
            ]
        )
        assert np.array_equal(real_embedding(a), expected)

    def test_trace_doubles(self, rng):
        a = random_hermitian(rng, 3)
        assert np.trace(real_embedding(a)) == pytest.approx(2 * np.real(np.trace(a)), abs=1e-12)

    def test_psd_sign_preserved(self, rng):
        for _ in range(200):
            d = int(rng.integers(1, 5))
            a = random_hermitian(rng, d)
            lo_in = np.linalg.eigvalsh(a).min()
            lo_out = np.linalg.eigvalsh(real_embedding(a)).min()
            assert lo_in * lo_out >= -1e-10

    def test_output_symmetric(self, rng):
        emb = real_embedding(random_hermitian(rng, 4))
        assert np.allclose(emb, emb.T)


class TestSolveSylvesterVelocity:
    def test_identity_base(self, rng):
        xi = random_hermitian(rng, 3)
        assert np.allclose(solve_sylvester_velocity(np.eye(3, dtype=complex), xi), xi)

    def test_diagonal_formula(self):
        u = solve_sylvester_velocity(np.diag([1.0, 3.0]).astype(complex), np.diag([2.0, 6.0]).astype(complex))
        assert np.allclose(u, np.diag([2.0, 2.0]))

    def test_round_trip(self, rng):
        for _ in range(200):
            d = int(rng.integers(1, 5))
            g = random_spd(rng, d)
            u = random_hermitian(rng, d)
            xi = sym_product(g, u)
            u_back = solve_sylvester_velocity(g, xi)
            assert np.linalg.norm(u_back - u) <= 1e-8 * max(1.0, np.linalg.norm(u))

    def test_residual(self, rng):
        g = random_spd(rng, 4)
        xi = random_hermitian(rng, 4)
        u = solve_sylvester_velocity(g, xi)
        resid = np.linalg.norm(sym_product(g, u) - xi)
        assert resid <= 1e-9 * max(np.linalg.norm(xi), 1e-300)

    def test_singular_base_rejected(self, rng):
        xi = random_hermitian(rng, 2)
        with pytest.raises(SingularMatrixError):
            solve_sylvester_velocity(np.diag([1.0, 0.0]).astype(complex), xi)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError, match=r"^incompatible shapes \(2, 2\) and \(3, 3\)$"):
            solve_sylvester_velocity(np.eye(2, dtype=complex), np.eye(3, dtype=complex))


class TestHelpers:
    def test_check_hermitian_reports_entry(self):
        a = np.eye(2, dtype=complex)
        a[0, 1] = 0.5
        with pytest.raises(NotHermitianError, match=r"\(0, 1\)|\(1, 0\)"):
            check_hermitian(a)

    def test_spd_inverse(self, rng):
        a = random_spd(rng, 3)
        assert np.allclose(spd_inverse(a) @ a, np.eye(3), atol=1e-10)


class TestRankRule:
    """One relative rank rule: whether a matrix counts as singular does not
    depend on its scale."""

    @settings(deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-3.0, 3.0))
    def test_singular_checks_scale_invariant(self, seed, log_scale):
        gen = np.random.default_rng(seed)
        q = np.linalg.eigh(random_hermitian(gen, 2)).eigenvectors
        s = 10.0**log_scale
        xi = random_hermitian(gen, 2)

        def rotated(diag):
            return hermitian_part((q * (s * np.asarray(diag))) @ np.conj(q.T))

        definite = rotated([1.0, 1e-6])
        assert logdet(definite) == pytest.approx(2.0 * np.log(s) + np.log(1e-6), abs=1e-8)
        assert np.abs(spd_inverse(definite) @ definite - np.eye(2)).max() <= 1e-8
        u = solve_sylvester_velocity(definite, xi)
        assert np.linalg.norm(sym_product(definite, u) - xi) <= 1e-8 * np.linalg.norm(xi)
        # Exactly singular, and definite but beyond condition number 1e12.
        for singular in (rotated([1.0, 0.0]), rotated([1.0, 1e-13])):
            for f in (logdet, spd_inverse, lambda a: solve_sylvester_velocity(a, xi)):
                with pytest.raises(SingularMatrixError):
                    f(singular)

    def test_singular_is_the_rank_rule(self):
        # Ascending eigenvalue rows: a negative or zero smallest eigenvalue,
        # an all-zero matrix, and the 1e-12 * lambda_max boundary on both sides.
        edge = RANK_RTOL * 3.0
        w = np.array(
            [
                [-1e-3, 1.0, 3.0],
                [0.0, 1.0, 3.0],
                [0.0, 0.0, 0.0],
                [-1.0, -0.5, -0.1],
                [edge, 1.0, 3.0],
                [np.nextafter(edge, 1.0), 1.0, 3.0],
                [1e-6, 1.0, 3.0],
            ]
        )
        expected = [True, True, True, True, True, False, False]
        assert singular(w).tolist() == expected
        assert [bool(singular(row)) for row in w] == expected
        assert singular(w.reshape(7, 1, 3)).shape == (7, 1)

    def test_spd_inverse_names_the_first_singular_atom(self):
        stack = np.stack([np.eye(2), np.diag([1.0, 0.0]), np.diag([1.0, 1e-13])]).astype(complex)
        with pytest.raises(SingularMatrixError, match="^atom at point 'b' is singular: eigenvalue"):
            spd_inverse(stack, labels=("a", "b", "c"))
        with pytest.raises(SingularMatrixError, match="^atom at point 'c' is singular"):
            spd_inverse(stack[[0, 2]][None], labels=("a", "c"))
        with pytest.raises(SingularMatrixError, match="^matrix is singular"):
            spd_inverse(stack)


class TestStacks:
    def test_stack_matches_per_matrix(self, rng):
        eye = np.eye(3)
        # Rank-deficient atoms pushed a hair below zero exercise the clamp.
        psd = np.stack([random_psd(rng, 3, rank=r) for r in (0, 1, 2, 3)]) - 1e-12 * eye
        spd = np.stack([random_spd(rng, 3) for _ in range(4)])
        xi = np.stack([random_hermitian(rng, 3) for _ in range(4)])
        for fn, args in (
            (psd_sqrt, (psd + 1e-12 * eye,)),
            (lambda a: psd_spectrum(a)[0], (psd,)),
            (spd_inverse, (spd,)),
            (solve_sylvester_velocity, (spd, xi)),
        ):
            stacked = fn(*args)
            for i in range(4):
                single = fn(*(a[i] for a in args))
                assert np.abs(stacked[i] - single).max() <= 1e-13 * max(1.0, np.abs(single).max())

    def test_errors_name_the_labelled_matrix(self):
        stack = np.stack([np.eye(2), np.diag([1.0, -1e-6]), np.eye(2)]).astype(complex)
        with pytest.raises(NotPSDError, match="atom at point 'b'"):
            psd_sqrt(stack, labels=("a", "b", "c"))
        with pytest.raises(NotPSDError, match="atom at point 'b'"):
            psd_spectrum(stack[None], labels=("a", "b", "c"))
        stack[2, 0, 1] = 0.5
        with pytest.raises(NotHermitianError, match=r"atom at point 'c' is not Hermitian: entry \(0, 1\)"):
            check_hermitian(stack, labels=("a", "b", "c"))
        # NaN fails every comparison; its eigenvalues must still fail the floor.
        stack[1] = np.eye(2)
        stack[1, 1, 1] = np.nan
        with pytest.raises(NotPSDError, match="atom at point 'b' has a non-finite eigenvalue"):
            psd_sqrt(stack, labels=("a", "b", "c"))
