import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cellstage.errors import DomainError, SingularError
from cellstage.frames import transformation_matrix, Calibration
from cellstage.linalg2 import (
    IDENTITY,
    Mat2,
    Vec2,
    determinant,
    inverse2,
    mat_mul,
    mat_vec_mul,
)

finite = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
matrices = st.builds(Mat2, finite, finite, finite, finite)
vectors = st.builds(Vec2, finite, finite)


def brute_force_mat_vec(m: Mat2, v: Vec2) -> list[float]:
    """Independent oracle: explicit row-by-column dot products over lists."""
    rows = [[m.a11, m.a12], [m.a21, m.a22]]
    col = [v.e1, v.e2]
    return [sum(r * c for r, c in zip(row, col)) for row in rows]


def as_array(m: Mat2) -> np.ndarray:
    return np.array([[m.a11, m.a12], [m.a21, m.a22]])


class TestVec2Mat2:
    def test_rejects_non_finite_components(self):
        with pytest.raises(DomainError):
            Vec2(math.nan, 0.0)
        with pytest.raises(DomainError):
            Vec2(0.0, math.inf)
        with pytest.raises(DomainError):
            Mat2(1.0, 0.0, -math.inf, 1.0)

    def test_vector_arithmetic(self):
        assert Vec2(1.0, 2.0) + Vec2(3.0, -1.0) == Vec2(4.0, 1.0)
        assert Vec2(1.0, 2.0) - Vec2(3.0, -1.0) == Vec2(-2.0, 3.0)
        assert Vec2(1.0, -2.0).scaled(-2.0) == Vec2(-2.0, 4.0)
        assert Vec2(3.0, -4.0).inf_norm() == 4.0

    def test_iteration_order(self):
        # Vec2 gives (e1, e2); Mat2 gives its entries row-major, the order
        # propcheck._max_gap pairs them in. Each pass is a fresh iterator.
        v = Vec2(1.0, -2.0)
        assert list(v) == list(v) == [1.0, -2.0]
        m = Mat2(1.0, 2.0, 3.0, 4.0)
        assert list(m) == list(m) == [1.0, 2.0, 3.0, 4.0]
        assert tuple(zip(m, Mat2(5.0, 6.0, 7.0, 8.0))) == (
            (1.0, 5.0), (2.0, 6.0), (3.0, 7.0), (4.0, 8.0)
        )


class TestMatVecMul:
    def test_identity(self):
        assert mat_vec_mul(IDENTITY, Vec2(3.0, 4.0)) == Vec2(3.0, 4.0)

    def test_zero_matrix_annihilates(self):
        zero = Mat2(0.0, 0.0, 0.0, 0.0)
        assert mat_vec_mul(zero, Vec2(3.0, 4.0)) == Vec2(0.0, 0.0)

    def test_hand_example_against_brute_force(self):
        m = Mat2(1.0, 2.0, 3.0, 4.0)
        v = Vec2(5.0, 6.0)
        got = mat_vec_mul(m, v)
        assert (got.e1, got.e2) == (17.0, 39.0)
        assert [got.e1, got.e2] == brute_force_mat_vec(m, v)

    @given(matrices, vectors)
    def test_matches_numpy(self, m, v):
        got = mat_vec_mul(m, v)
        want = as_array(m) @ np.array([v.e1, v.e2])
        np.testing.assert_allclose([got.e1, got.e2], want, rtol=1e-12, atol=1e-12)

    @given(matrices, vectors, vectors, finite, finite)
    def test_linearity(self, m, u, v, a, b):
        lhs = mat_vec_mul(m, u.scaled(a) + v.scaled(b))
        rhs = mat_vec_mul(m, u).scaled(a) + mat_vec_mul(m, v).scaled(b)
        scale = max(1.0, m.inf_norm() * (abs(a) * u.inf_norm() + abs(b) * v.inf_norm()))
        assert (lhs - rhs).inf_norm() <= 1e-12 * scale


class TestMatMul:
    def test_identity_left(self):
        b = Mat2(1.5, -2.0, 0.25, 7.0)
        assert mat_mul(IDENTITY, b) == b

    def test_quarter_turn_squared_is_half_turn(self):
        q = Mat2(0.0, 1.0, -1.0, 0.0)
        assert mat_mul(q, q) == Mat2(-1.0, 0.0, 0.0, -1.0)

    def test_times_own_inverse_adjugate_oracle(self):
        a = Mat2(2.0, 1.0, 1.0, 1.0)
        # Adjugate oracle: det = 1, so the inverse is [[1, -1], [-1, 2]].
        oracle_inverse = Mat2(1.0, -1.0, -1.0, 2.0)
        inv = inverse2(a)
        assert max(abs(x - y) for x, y in zip(inv, oracle_inverse)) <= 1e-12
        prod = mat_mul(a, inv)
        assert max(abs(x - y) for x, y in zip(prod, IDENTITY)) <= 1e-12

    @given(matrices, matrices)
    def test_matches_numpy(self, a, b):
        got = mat_mul(a, b)
        np.testing.assert_allclose(
            as_array(got), as_array(a) @ as_array(b), rtol=1e-12, atol=1e-12
        )

    @given(matrices, matrices)
    def test_det_multiplicative(self, a, b):
        da, db = determinant(a), determinant(b)
        dev = abs(determinant(mat_mul(a, b)) - da * db)
        # Relative to the entry scale the product moves through.
        assert dev <= 1e-12 * max(1.0, (a.inf_norm() * b.inf_norm()) ** 2)


class TestDeterminant:
    def test_identity(self):
        assert determinant(IDENTITY) == 1.0

    def test_diagonal(self):
        assert determinant(Mat2(2.0, 0.0, 0.0, 3.0)) == 6.0

    def test_transformation_matrix_det_is_scale_product(self):
        t = transformation_matrix(Calibration(alpha=0.7, dx=1.0, dy=1.0, fx=2.0, fy=3.0))
        assert abs(determinant(t) - 6.0) <= 1e-12 * 6.0


class TestInverse2:
    def test_identity(self):
        assert inverse2(IDENTITY) == IDENTITY

    def test_diagonal_reciprocal(self):
        assert inverse2(Mat2(2.0, 0.0, 0.0, 4.0)) == Mat2(0.5, 0.0, 0.0, 0.25)

    def test_rank_one_is_singular(self):
        with pytest.raises(SingularError):
            inverse2(Mat2(1.0, 2.0, 2.0, 4.0))

    def test_near_singular_threshold(self):
        nearly = Mat2(1.0, 0.0, 0.0, 1e-13)
        with pytest.raises(SingularError):
            inverse2(nearly)

    @given(matrices)
    def test_inverse_identity_normalized(self, m):
        det = determinant(m)
        if abs(det) < 1e-12:
            with pytest.raises(SingularError):
                inverse2(m)
            return
        prod = mat_mul(m, inverse2(m))
        dev = max(abs(x - y) for x, y in zip(prod, IDENTITY))
        assert dev <= 1e-12 * max(1.0, m.inf_norm() ** 2 / abs(det))

    @given(matrices)
    def test_matches_numpy_inverse(self, m):
        det = determinant(m)
        if abs(det) < 1e-6:
            return
        got = inverse2(m)
        np.testing.assert_allclose(
            as_array(got),
            np.linalg.inv(as_array(m)),
            rtol=1e-9,
            atol=1e-9 * m.inf_norm() / abs(det),
        )
