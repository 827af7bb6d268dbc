"""Tests for the Adam optimizer."""

import numpy as np
import pytest

from hcfnet.errors import ConfigError, ContractError
from hcfnet.optim import Adam
from hcfnet.tensor import Parameter

from reference import adam_naive


def make_param(values):
    return Parameter(np.asarray(values, dtype=np.float64))


class TestAdamBasics:
    def test_zero_gradient_leaves_params(self):
        p = make_param([1.0, -2.0])
        opt = Adam([("p", p)], lr=0.1)
        p.grad = np.zeros(2)
        for _ in range(3):
            opt.step()
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_none_gradient_skipped(self):
        p = make_param([1.0])
        opt = Adam([("p", p)], lr=0.1)
        opt.step()
        np.testing.assert_array_equal(p.data, [1.0])
        assert opt.step_count == 1

    def test_first_step_magnitude_is_lr(self):
        # With constant gradient, bias correction makes |m_hat/sqrt(v_hat)| = 1.
        p = make_param([5.0, -3.0, 0.25])
        opt = Adam([("p", p)], lr=0.1)
        grad = np.array([2.0, -0.5, 1e-3])
        p.grad = grad.copy()
        opt.step()
        update = np.array([5.0, -3.0, 0.25]) - p.data
        np.testing.assert_allclose(update, 0.1 * np.sign(grad), rtol=1e-4)

    def test_moments_decay_toward_zero(self):
        p = make_param([1.0])
        opt = Adam([("p", p)], lr=0.1)
        p.grad = np.array([4.0])
        opt.step()
        m_after_one = abs(opt.m["p"][0])
        p.grad = np.zeros(1)
        for _ in range(50):
            opt.step()
        assert abs(opt.m["p"][0]) < 1e-2 * m_after_one

    def test_invalid_hyperparameters_rejected(self):
        p = make_param([1.0])
        with pytest.raises(ConfigError):
            Adam([("p", p)], lr=0.0)
        with pytest.raises(ConfigError):
            Adam([("p", p)], lr=float("nan"))
        with pytest.raises(ConfigError):
            Adam([("a", p), ("a", p)])

    def test_nan_gradient_names_parameter(self):
        p = make_param([1.0])
        opt = Adam([("encoder.weight", p)], lr=0.1)
        p.grad = np.array([np.nan])
        with pytest.raises(ContractError, match="encoder.weight"):
            opt.step()


class TestAdamConvergence:
    def test_quadratic_bowl_200_steps(self):
        p = make_param([5.0, -3.0])
        opt = Adam([("x", p)], lr=0.1)
        for _ in range(200):
            p.grad = 2.0 * p.data
            opt.step()
        assert np.linalg.norm(p.data) < 0.05

    def test_matches_reference_recurrence(self):
        p = make_param([5.0, -3.0])
        opt = Adam([("x", p)], lr=0.1)
        for _ in range(200):
            p.grad = 2.0 * p.data
            opt.step()
        expected = adam_naive(np.array([5.0, -3.0]), lambda x: 2.0 * x, lr=0.1, steps=200)
        np.testing.assert_allclose(p.data, expected, atol=1e-12)

    def test_trajectory_matches_reference_stepwise(self):
        g = np.random.default_rng(0)
        p = make_param(g.normal(size=4))
        start = p.data.copy()
        opt = Adam([("x", p)], lr=0.01)
        grads = [g.normal(size=4) for _ in range(20)]
        it = iter(grads)

        def grad_fn(_):
            return next(it)

        for grad in grads:
            p.grad = grad.copy()
            opt.step()
        expected = adam_naive(start, grad_fn, lr=0.01, steps=20)
        np.testing.assert_allclose(p.data, expected, atol=1e-12)


class TestAdamState:
    def test_state_round_trip_resumes_identically(self):
        g = np.random.default_rng(1)
        pa = make_param(g.normal(size=3))
        pb = make_param(pa.data.copy())
        opt_a = Adam([("x", pa)], lr=0.05)
        grads = [g.normal(size=3) for _ in range(10)]
        for grad in grads[:5]:
            pa.grad = grad.copy()
            opt_a.step()
        state = opt_a.state_dict()

        opt_b = Adam([("x", pb)], lr=0.9)  # hyper comes from the state
        pb.data[...] = pa.data
        opt_b.load_state_dict(state)
        for grad in grads[5:]:
            pa.grad = grad.copy()
            opt_a.step()
            pb.grad = grad.copy()
            opt_b.step()
        np.testing.assert_array_equal(pa.data, pb.data)

    def test_state_dict_layout(self):
        p = make_param([1.0, 2.0])
        opt = Adam([("x", p)], lr=0.05)
        state = opt.state_dict()
        assert state["step"] == 0
        assert state["hyper"] == {"lr": 0.05, "beta1": 0.9, "beta2": 0.999, "eps": 1e-8}
        m, v = state["moments"]["x"]
        np.testing.assert_array_equal(m, np.zeros(2))
        np.testing.assert_array_equal(v, np.zeros(2))

    @pytest.mark.parametrize(
        "hyper",
        [{}, {"lr": 0.5}, {"lr": 0.5, "beta1": 0.9, "beta2": 0.999, "eps": 1e-8, "momentum": 0.1}],
        ids=["empty", "partial", "extra"],
    )
    def test_hyper_must_name_all_four(self, hyper):
        p = make_param([1.0])
        opt = Adam([("x", p)], lr=0.05)
        state = opt.state_dict()
        state["hyper"] = hyper
        with pytest.raises(ConfigError, match="exactly lr, beta1, beta2 and eps"):
            opt.load_state_dict(state)
        assert opt.lr == 0.05

    def test_load_adopts_stored_hyper(self):
        p = make_param([1.0])
        opt = Adam([("x", p)])
        hyper = {"lr": 0.5, "beta1": 0.5, "beta2": 0.9, "eps": 1e-6}
        moments = {"x": (np.zeros(1), np.zeros(1))}
        opt.load_state_dict({"step": 3, "hyper": hyper, "moments": moments})
        assert opt.hyper == hyper and opt.step_count == 3

    def test_load_adopts_moment_arrays(self):
        p = make_param([1.0, 2.0])
        opt = Adam([("x", p)])
        m, v = np.array([0.1, 0.2]), np.array([0.3, 0.4])
        opt.load_state_dict({"step": 1, "hyper": opt.state_dict()["hyper"], "moments": {"x": (m, v)}})
        assert opt.m["x"] is m and opt.v["x"] is v

    def test_mismatched_state_rejected(self):
        p = make_param([1.0])
        opt = Adam([("x", p)])
        with pytest.raises(ContractError):
            opt.load_state_dict({"step": 0, "moments": {"y": (np.zeros(1), np.zeros(1))}})
        with pytest.raises(ContractError):
            opt.load_state_dict({"step": 0, "moments": {"x": (np.zeros(2), np.zeros(2))}})
