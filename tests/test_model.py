import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mpmath

from lrplab import (
    CANONICAL_KERNEL,
    Kernel,
    ModelParams,
    connection_probabilities,
    connection_probability,
    derived_constants,
    is_nearest_neighbor,
    kernel_values,
    norm_value,
    params_from_config,
    params_to_config,
    table_kernel,
    unit_ball_volume,
)

int_vectors = st.integers(min_value=1, max_value=3).flatmap(
    lambda d: st.lists(st.integers(min_value=-50, max_value=50), min_size=d, max_size=d)
)


def admissible_params(draw_beta=True):
    def build(args):
        d, frac, beta = args
        s = d + frac * d  # in (d, 2d)
        return ModelParams(d=d, s=s, beta=beta)

    return st.tuples(
        st.integers(min_value=1, max_value=3),
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=0.01, max_value=50.0) if draw_beta else st.just(1.0),
    ).map(build)


class TestNorms:
    def test_values(self):
        v = np.array([3, -4])
        assert norm_value(v, "ell1") == 7.0
        assert norm_value(v, "ell2") == 5.0
        assert norm_value(v, "ellinf") == 4.0

    def test_vectorized_last_axis(self):
        arr = np.array([[1, 0], [3, -4], [0, 0]])
        np.testing.assert_array_equal(norm_value(arr, "ell1"), [1.0, 7.0, 0.0])

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            norm_value(np.array([1]), "ell3")

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_bit_equal_to_numpy_reductions(self, d):
        # Per-column terms combined left to right are numpy's own order for
        # these reductions; the d = 3 z_samples.csv pins rest on it.
        rng = np.random.default_rng(d)
        reference = {"ell1": lambda x: np.abs(x).sum(-1),
                     "ell2": lambda x: np.sqrt((x * x).sum(-1)),
                     "ellinf": lambda x: np.abs(x).max(-1)}
        for shape in [(d,), (0, d), (1, d), (257, d), (5, 7, d)]:
            x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-6, 6, shape)
            for kind, expected in reference.items():
                got, want = norm_value(x, kind), expected(x)
                if len(shape) == 1:
                    assert isinstance(got, float) and got == float(want), (kind, shape)
                else:
                    assert got.shape == want.shape and np.array_equal(got, want), (kind, shape)

    @given(int_vectors)
    def test_invariants(self, v):
        x = np.array(v)
        for kind in ("ell1", "ell2", "ellinf"):
            n = norm_value(x, kind)
            assert n >= 0
            assert (n == 0) == bool(np.all(x == 0))
            assert norm_value(-x, kind) == pytest.approx(n, rel=1e-15)
        assert norm_value(x, "ell1") >= norm_value(x, "ell2") - 1e-12
        assert norm_value(x, "ell2") >= norm_value(x, "ellinf") - 1e-12

    @given(int_vectors, int_vectors)
    def test_triangle_inequality(self, a, b):
        if len(a) != len(b):
            return
        x, y = np.array(a), np.array(b)
        for kind in ("ell1", "ell2", "ellinf"):
            assert norm_value(x + y, kind) <= norm_value(x, kind) + norm_value(y, kind) + 1e-9

    def test_unit_ball_volumes(self):
        assert unit_ball_volume(1, "ell1") == pytest.approx(2.0)
        assert unit_ball_volume(1, "ell2") == pytest.approx(2.0)
        assert unit_ball_volume(1, "ellinf") == pytest.approx(2.0)
        assert unit_ball_volume(2, "ell1") == pytest.approx(2.0)
        assert unit_ball_volume(2, "ell2") == pytest.approx(math.pi)
        assert unit_ball_volume(2, "ellinf") == pytest.approx(4.0)
        assert unit_ball_volume(3, "ell1") == pytest.approx(8 / 6)
        assert unit_ball_volume(3, "ell2") == pytest.approx(4 * math.pi / 3)
        assert unit_ball_volume(3, "ellinf") == pytest.approx(8.0)


class TestNearestNeighbor:
    def test_detection(self):
        assert is_nearest_neighbor(np.array([1]))
        assert is_nearest_neighbor(np.array([0, -1]))
        assert not is_nearest_neighbor(np.array([1, 1]))
        assert not is_nearest_neighbor(np.array([2]))
        assert not is_nearest_neighbor(np.array([0, 0]))

    def test_ell1_convention_regardless_of_kernel_norm(self):
        # Diagonal (1,1) has ellinf norm 1 but is NOT a nearest neighbor.
        pm = ModelParams(d=2, s=2.5, beta=1.0, norm="ellinf")
        q = kernel_values(pm, np.array([[1, 1]]))
        assert q[0] == pytest.approx(1.0)  # norm 1 -> 1**(-s) = 1, finite
        q_nn = kernel_values(pm, np.array([[1, 0]]))
        assert np.isinf(q_nn[0])


class TestModelParams:
    def test_boundary_s_rejected(self):
        with pytest.raises(ValueError):
            ModelParams(d=2, s=2.0, beta=1.0)  # s = d
        with pytest.raises(ValueError):
            ModelParams(d=2, s=4.0, beta=1.0)  # s = 2d
        with pytest.raises(ValueError):
            ModelParams(d=1, s=2.5, beta=1.0)

    def test_bad_fields(self):
        with pytest.raises(ValueError):
            ModelParams(d=0, s=0.5, beta=1.0)
        with pytest.raises(ValueError):
            ModelParams(d=1, s=1.5, beta=0.0)
        with pytest.raises(ValueError):
            ModelParams(d=1, s=1.5, beta=math.inf)
        with pytest.raises(ValueError):
            ModelParams(d=1, s=1.5, beta=1.0, norm="ell7")

    def test_derived_constants_example(self):
        pm = ModelParams(d=1, s=1.5, beta=1.0)
        gamma, delta = derived_constants(pm)
        assert gamma == pytest.approx(0.75, abs=0)
        with mpmath.workdps(40):
            delta_exact = float(1 / (mpmath.log(mpmath.mpf(4) / 3) / mpmath.log(2)))
        assert delta == pytest.approx(delta_exact, rel=1e-14)
        assert delta == pytest.approx(2.409421, abs=5e-7)

    @given(admissible_params(draw_beta=False))
    @settings(max_examples=80)
    def test_gamma_delta_identity(self, pm):
        gamma, delta = derived_constants(pm)
        assert 0.5 < gamma < 1.0
        assert delta > 1.0
        assert gamma ** (-delta) == pytest.approx(2.0, rel=1e-12)


class TestConnectionProbability:
    def test_nearest_neighbor_exactly_one(self):
        pm = ModelParams(d=1, s=1.5, beta=1.0)
        assert connection_probability(pm, np.array([1])) == 1.0
        pm3 = ModelParams(d=3, s=4.5, beta=0.001, norm="ell1")
        assert connection_probability(pm3, np.array([0, 0, -1])) == 1.0

    def test_displacement_ten_example(self):
        pm = ModelParams(d=1, s=1.5, beta=1.0)
        p = connection_probability(pm, np.array([10]))
        assert p == pytest.approx(-math.expm1(-(10.0**-1.5)), rel=1e-15)
        assert p == pytest.approx(0.031128, abs=5e-7)

    def test_beta_to_zero_monotone(self):
        pm_betas = [ModelParams(d=1, s=1.5, beta=b) for b in (1.0, 0.1, 0.01, 0.001)]
        probs = [connection_probability(pm, np.array([5])) for pm in pm_betas]
        assert all(a > b for a, b in zip(probs, probs[1:]))
        assert probs[-1] < 1e-4

    def test_monotone_in_displacement_norm(self):
        pm = ModelParams(d=2, s=3.0, beta=2.0)
        disps = np.array([[2, 0], [2, 1], [3, 0], [4, 2], [9, 9]])
        p = connection_probabilities(pm, disps)
        nrm = norm_value(disps, pm.norm)
        order = np.argsort(nrm)
        assert np.all(np.diff(p[order]) <= 1e-15)

    def test_monotone_in_beta(self):
        disp = np.array([4, -3])
        probs = [
            connection_probability(ModelParams(d=2, s=3.0, beta=b), disp)
            for b in (0.5, 1.0, 2.0, 8.0)
        ]
        assert all(b > a for a, b in zip(probs, probs[1:]))

    @given(st.integers(min_value=-30, max_value=30), st.integers(min_value=-30, max_value=30))
    def test_symmetry(self, a, b):
        if a == 0 and b == 0:
            return
        pm = ModelParams(d=2, s=2.5, beta=1.3)
        v = np.array([a, b])
        assert connection_probability(pm, v) == connection_probability(pm, -v)

    def test_zero_displacement_error(self):
        pm = ModelParams(d=2, s=2.5, beta=1.0)
        with pytest.raises(ValueError):
            connection_probability(pm, np.array([0, 0]))

    def test_canonical_kernel_exact_not_asymptotic(self):
        pm = ModelParams(d=2, s=3.0, beta=2.5)
        disps = np.array([[2, 0], [5, 1], [14, -3]])
        q = kernel_values(pm, disps)
        expected = norm_value(disps, "ell2") ** -3.0
        np.testing.assert_array_equal(q, expected)

    @given(admissible_params(), st.lists(st.integers(min_value=-20, max_value=20),
                                         min_size=1, max_size=3))
    @settings(max_examples=60)
    def test_probability_in_unit_interval(self, pm, v):
        if len(v) != pm.d or all(c == 0 for c in v):
            return
        p = connection_probability(pm, np.array(v))
        assert 0.0 <= p <= 1.0


class TestKernel:
    def test_table_override_symmetric(self):
        k = table_kernel({(3,): 0.25})
        pm = ModelParams(d=1, s=1.5, beta=1.0, kernel=k)
        q = kernel_values(pm, np.array([[3], [-3], [4]]))
        assert q[0] == 0.25 and q[1] == 0.25
        assert q[2] == pytest.approx(4.0**-1.5)

    def test_zero_tail(self):
        k = table_kernel({(2,): 1.0}, tail="zero")
        pm = ModelParams(d=1, s=1.5, beta=1.0, kernel=k)
        q = kernel_values(pm, np.array([[2], [5]]))
        assert q[0] == 1.0 and q[1] == 0.0
        assert connection_probability(pm, np.array([5])) == 0.0
        assert connection_probability(pm, np.array([1])) == 1.0  # NN still present

    def test_nn_table_entry_rejected(self):
        with pytest.raises(ValueError):
            table_kernel({(1,): 0.5})

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError):
            table_kernel({(2,): -0.5})

    def test_zero_displacement_entry_rejected(self):
        with pytest.raises(ValueError):
            table_kernel({(0, 0): 0.5})

    def test_bad_tail(self):
        with pytest.raises(ValueError):
            table_kernel({(2,): 0.5}, tail="flat")

    def test_canonical_rejects_table(self):
        with pytest.raises(ValueError):
            Kernel(kind="canonical_power_law", table=(((2,), 0.5),))


class TestConfigRoundTrip:
    def test_exact_round_trip(self):
        pm = ModelParams(d=2, s=2.7000000000000003, beta=0.1, norm="ellinf")
        cfg = params_to_config(pm)
        assert set(cfg) == {"d", "s", "beta", "norm", "kernel"}
        back = params_from_config(cfg)
        assert back == pm
        assert back.s == pm.s  # exact decimal round trip

    def test_round_trip_many(self):
        for d, s, beta, norm in [(1, 1.5, 1.0, "ell2"), (3, 4.5, 123.456, "ell1"),
                                 (2, 3.9999999, 1e-3, "ellinf")]:
            pm = ModelParams(d=d, s=s, beta=beta, norm=norm)
            assert params_from_config(params_to_config(pm)) == pm

    def test_user_table_not_serializable(self):
        pm = ModelParams(d=1, s=1.5, beta=1.0, kernel=table_kernel({(2,): 0.5}))
        with pytest.raises(ValueError):
            params_to_config(pm)

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            params_from_config({"d": "1", "s": "1.5", "beta": "1.0", "norm": "ell2",
                                "kernel": "mystery"})
