"""Tensor norms, sparse approximation, mixing norm and stacking."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbp.link import sigmoid_link
from mbp.tensor import (
    ParamTensor,
    concentration_constant,
    mixing_norm,
    read_tensor,
    sparse_approx,
    stack_tensor,
    tensor_norm,
    unstack_tensor,
    write_tensor,
)


class TestParamTensor:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            ParamTensor(np.array([[[np.nan]]]))
        with pytest.raises(ValueError):
            ParamTensor(np.array([[[np.inf]]]))

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            ParamTensor(np.zeros((2, 2)))

    def test_values_read_only(self):
        t = ParamTensor.zeros(2, 2, 1)
        with pytest.raises(ValueError):
            t.values[0, 0, 0] = 1.0

    def test_caller_array_stays_writable(self):
        # C-contiguous float64 input is shared with the tensor, not copied
        a = np.zeros((2, 2, 1))
        t = ParamTensor(a)
        assert a.flags.writeable and not t.values.flags.writeable
        a[0, 0, 0] = 1.0
        assert t.values[0, 0, 0] == 1.0

    def test_shape_properties(self):
        t = ParamTensor.zeros(3, 4, 2)
        assert (t.n_rows, t.n_cols, t.n_lags, t.n_entries) == (3, 4, 2, 24)
        assert not t.is_square


class TestNorms:
    def test_zero_tensor_all_kinds(self):
        z = ParamTensor.zeros(2, 3, 2)
        for kind in ("111", "inf", "frob", "211"):
            assert tensor_norm(z, kind) == 0.0

    def test_two_fiber_pythagorean(self):
        t = ParamTensor(np.array([3.0, 4.0]).reshape(2, 1, 1))
        assert tensor_norm(t, "211") == pytest.approx(5.0)

    def test_direct_summation(self):
        t = ParamTensor(np.array([3.0, -2.0, 1.0]).reshape(1, 1, 3))
        assert tensor_norm(t, "111") == pytest.approx(6.0)
        assert tensor_norm(t, "inf") == pytest.approx(3.0)
        assert tensor_norm(t, "frob") == pytest.approx(math.sqrt(14.0))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            tensor_norm(ParamTensor.zeros(1, 1, 1), "212")

    def test_211_dominated_by_scaled_111(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            t = ParamTensor(rng.standard_normal((4, 3, 2)))
            assert tensor_norm(t, "211") <= math.sqrt(4) * tensor_norm(t, "111") + 1e-12

    def test_row_confined_support_bound(self):
        # s entries spread over at most s first-index slices:
        # (sum of row l1)^2 over rows <= s * frobenius^2
        rng = np.random.default_rng(1)
        for s in (1, 2, 3):
            values = np.zeros((5, 2, 2))
            rows = rng.choice(5, size=s, replace=False)
            for r in rows:
                j, l = rng.integers(0, 2), rng.integers(0, 2)
                values[r, j, l] = rng.standard_normal()
            t = ParamTensor(values)
            assert tensor_norm(t, "211") ** 2 <= s * tensor_norm(t, "frob") ** 2 + 1e-12


class TestSparseApprox:
    def test_exactly_sparse_budget_met(self):
        values = np.zeros((3, 3, 2))
        values[0, 1, 0] = 2.0
        values[2, 2, 1] = -1.5
        rep = sparse_approx(ParamTensor(values), 2)
        assert rep.l1_residual == 0.0
        assert rep.support == {(0, 1, 0), (2, 2, 1)}

    def test_brute_force_size_one(self):
        # all 3 supports of size 1 enumerated by hand: keeping |3| is optimal
        t = ParamTensor(np.array([3.0, -2.0, 1.0]).reshape(1, 1, 3))
        rep = sparse_approx(t, 1)
        assert rep.l1_residual == pytest.approx(3.0)
        assert rep.support == {(0, 0, 0)}
        alternatives = [6.0 - abs(v) for v in (3.0, -2.0, 1.0)]
        assert rep.l1_residual == pytest.approx(min(alternatives))

    def test_empty_budget(self):
        t = ParamTensor(np.array([3.0, -2.0, 1.0]).reshape(1, 1, 3))
        rep = sparse_approx(t, 0)
        assert rep.support == frozenset()
        assert rep.l1_residual == pytest.approx(6.0)
        assert rep.tau_sq == 0.0

    def test_budget_over_size_rejected(self):
        with pytest.raises(ValueError):
            sparse_approx(ParamTensor.zeros(1, 1, 3), 4)

    def test_residual_monotone_in_budget(self):
        rng = np.random.default_rng(2)
        t = ParamTensor(rng.standard_normal((3, 3, 2)))
        residuals = [sparse_approx(t, s).l1_residual for s in range(t.n_entries + 1)]
        assert all(a >= b - 1e-12 for a, b in zip(residuals, residuals[1:]))
        assert residuals[-1] == 0.0

    def test_lexicographic_ties(self):
        t = ParamTensor(np.ones((2, 2, 2)))
        rep = sparse_approx(t, 3)
        assert rep.support == {(0, 0, 0), (0, 0, 1), (0, 1, 0)}

    def test_tau_values(self):
        t = ParamTensor(np.array([3.0, -2.0, 1.0]).reshape(1, 1, 3))
        rep = sparse_approx(t, 1)
        assert rep.tau_sq == pytest.approx(9.0)
        assert rep.tau_tilde_sq == pytest.approx(12.0)


class TestMixingNorm:
    def test_zero(self):
        link = sigmoid_link(1.0, 0.05)
        assert mixing_norm(ParamTensor.zeros(3, 3, 2), link) == 0.0

    def test_scalar_direct_evaluation(self):
        # sqrt(3 * 0.25^2 / (2 * 0.1)) * 0.4 = 0.1 * sqrt(15)
        link = sigmoid_link(1.0, 0.1)
        t = ParamTensor(np.array([[[0.4]]]))
        assert mixing_norm(t, link) == pytest.approx(0.1 * math.sqrt(15.0), rel=1e-12)

    def test_absolute_homogeneity(self):
        link = sigmoid_link(1.0, 0.05)
        rng = np.random.default_rng(3)
        t = ParamTensor(rng.standard_normal((3, 3, 2)))
        doubled = ParamTensor(2.0 * t.values)
        assert mixing_norm(doubled, link) == pytest.approx(2.0 * mixing_norm(t, link))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_triangle_inequality(self, seed):
        link = sigmoid_link(1.0, 0.05)
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((2, 2, 3))
        b = rng.standard_normal((2, 2, 3))
        lhs = mixing_norm(ParamTensor(a + b), link)
        rhs = mixing_norm(ParamTensor(a), link) + mixing_norm(ParamTensor(b), link)
        assert lhs <= rhs + 1e-10

    def test_suffix_structure(self):
        # lag-1 entries count toward every suffix, later lags toward fewer
        link = sigmoid_link(1.0, 0.05)
        early = np.zeros((1, 1, 2))
        early[0, 0, 0] = 1.0
        late = np.zeros((1, 1, 2))
        late[0, 0, 1] = 1.0
        assert mixing_norm(ParamTensor(late), link) > mixing_norm(ParamTensor(early), link)


class TestConcentrationConstant:
    def test_zero_mixing(self):
        link = sigmoid_link(1.0, 0.1)  # curvature 0.09
        value = concentration_constant(ParamTensor.zeros(2, 2, 1), link)
        assert value == pytest.approx(8.0 * 0.09**2)

    def test_direct_evaluation(self):
        link = sigmoid_link(1.0, 0.1)
        t = ParamTensor(np.array([[[0.4]]]))
        m = 0.1 * math.sqrt(15.0)
        expected = 8.0 * 0.09**2 * (1.0 + 1.0 / (1.0 / m - 1.0) ** 2)
        assert concentration_constant(t, link) == pytest.approx(expected, rel=1e-10)

    def test_diverged_flag(self):
        link = sigmoid_link(1.0, 0.05)
        t = ParamTensor(np.full((2, 2, 2), 5.0))
        assert mixing_norm(t, link) >= 1.0
        assert math.isinf(concentration_constant(t, link))


class TestStacking:
    def test_single_fiber(self):
        t = ParamTensor(np.array([1.5, -2.5]).reshape(1, 1, 2))
        assert np.array_equal(stack_tensor(t), np.array([[1.5, -2.5]]))

    def test_roundtrip(self):
        rng = np.random.default_rng(4)
        t = ParamTensor(rng.standard_normal((3, 4, 2)))
        back = unstack_tensor(stack_tensor(t), t.n_lags)
        assert np.array_equal(back.values, t.values)

    def test_frobenius_isometry(self):
        rng = np.random.default_rng(5)
        t = ParamTensor(rng.standard_normal((4, 4, 3)))
        mat = stack_tensor(t)
        assert np.linalg.norm(mat) == pytest.approx(tensor_norm(t, "frob"), rel=1e-12)

    def test_column_layout(self):
        # column (l-1)*N + j holds entry (:, j, l)
        t = ParamTensor(np.arange(12, dtype=float).reshape(2, 2, 3))
        mat = stack_tensor(t)
        for j in range(2):
            for l in range(3):
                assert np.array_equal(mat[:, l * 2 + j], t.values[:, j, l])


class TestTensorFiles:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(6)
        t = ParamTensor(rng.standard_normal((3, 2, 4)))
        fname = tmp_path / "theta.txt"
        write_tensor(t, fname)
        back = read_tensor(fname)
        assert np.array_equal(back.values, t.values)

    def test_header_format(self, tmp_path):
        t = ParamTensor.zeros(2, 2, 3)
        fname = tmp_path / "theta.txt"
        write_tensor(t, fname)
        assert fname.read_text().splitlines()[0] == "2 2 3"

    def test_truncated_file_rejected(self, tmp_path):
        fname = tmp_path / "bad.txt"
        fname.write_text("2 2 2\n1.0 2.0\n")
        with pytest.raises(ValueError):
            read_tensor(fname)
