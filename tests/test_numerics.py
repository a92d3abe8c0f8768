import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from augqual.numerics import (
    adam_step,
    bce_with_logit,
    gelu_and_cdf,
    gelu_grad_from_cdf,
    init_adam,
    sigmoid,
)
from augqual.util import ValidationError
from oracles import (
    finite_diff_grad,
    flatten_arrays,
    gelu,
    softmax,
    softmax_cross_entropy,
    unflatten_arrays,
)


class TestGelu:
    def test_zero_fixed_point(self):
        assert gelu(0.0) == 0.0

    def test_asymptote(self):
        assert abs(gelu(10.0) - 10.0) < 1e-12

    def test_unit_value(self):
        # high-precision erf oracle: 1 * Phi(1)
        assert gelu(1.0) == pytest.approx(0.8413447460685429, abs=1e-15)

    def test_matches_quadrature_oracle(self):
        # Phi via numerical integration of the normal pdf, independent of erf
        from scipy.integrate import quad

        for x in (-2.0, -0.5, 0.3, 1.7):
            phi, _ = quad(lambda t: math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi),
                          -50.0, x)
            assert gelu(x) == pytest.approx(x * phi, abs=1e-10)

    def test_one_erf_pair_is_bit_identical_to_textbook_formulas(self):
        from scipy.special import erf

        xs = np.random.default_rng(3).uniform(-6, 6, size=200)
        out, cdf = gelu_and_cdf(xs)
        erf_term = erf(xs * (1.0 / np.sqrt(2.0)))
        phi = 0.5 * (1.0 + erf_term)
        pdf = (1.0 / np.sqrt(2.0 * np.pi)) * np.exp(-0.5 * xs * xs)
        assert out.tobytes() == (xs * 0.5 * (1.0 + erf_term)).tobytes()
        assert gelu_grad_from_cdf(xs, cdf).tobytes() == (phi + xs * pdf).tobytes()

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        xs = rng.uniform(-4, 4, size=50)
        for x in xs:
            fd = (gelu(x + 1e-6) - gelu(x - 1e-6)) / 2e-6
            _, cdf = gelu_and_cdf(x)
            assert gelu_grad_from_cdf(x, cdf) == pytest.approx(fd, abs=1e-7)

    def test_vectorized(self):
        xs = np.array([-1.0, 0.0, 2.0])
        out = gelu(xs)
        assert out.shape == (3,)
        assert out[1] == 0.0


class TestSigmoid:
    def test_half_at_zero(self):
        assert sigmoid(0.0) == 0.5

    def test_extreme_negative_is_tiny_positive(self):
        v = sigmoid(-1000.0)
        assert 0.0 < v <= 1e-300
        assert math.isfinite(v)

    def test_extreme_positive_stays_below_one(self):
        v = sigmoid(1000.0)
        assert 0.0 < v < 1.0

    def test_oracle_value(self):
        assert sigmoid(2.0) == pytest.approx(0.8807970779778824, abs=1e-15)

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        for x in rng.uniform(-60, 60, size=200):
            assert abs(sigmoid(-x) - (1.0 - sigmoid(x))) <= 1e-15

    def test_no_overflow_up_to_700(self):
        xs = np.array([-700.0, 700.0, -699.5, 699.5])
        out = sigmoid(xs)
        assert np.all(np.isfinite(out))
        assert np.all((out > 0) & (out < 1))


class TestBceWithLogit:
    def test_uninformative_logit(self):
        assert bce_with_logit(0.0, 1) == pytest.approx(math.log(2.0), abs=1e-15)
        assert bce_with_logit(0.0, 0) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_confident_correct_limit(self):
        assert bce_with_logit(50.0, 1) < 1e-20
        assert bce_with_logit(-50.0, 0) < 1e-20

    def test_oracle_value(self):
        assert bce_with_logit(-3.0, 0) == pytest.approx(0.04858735157374206, abs=1e-15)

    def test_never_negative_and_stable(self):
        rng = np.random.default_rng(3)
        for l in rng.uniform(-600, 600, size=500):
            for y in (0, 1):
                v = bce_with_logit(l, y)
                assert v >= 0.0 and math.isfinite(v)

    def test_convexity_symmetry_probe(self):
        rng = np.random.default_rng(11)
        for l in rng.uniform(-30, 30, size=200):
            s = bce_with_logit(l, 1) + bce_with_logit(-l, 1)
            assert s >= 2.0 * math.log(2.0) - 1e-12
        eq = bce_with_logit(0.0, 1) + bce_with_logit(-0.0, 1)
        assert eq == pytest.approx(2.0 * math.log(2.0), abs=1e-15)


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        for v in (3, 8, 17):
            assert softmax_cross_entropy(np.zeros(v), 0) == pytest.approx(
                math.log(v), abs=1e-12)

    def test_one_hot_limit(self):
        logits = np.zeros(5)
        logits[2] = 1e3
        assert softmax_cross_entropy(logits, 2) == pytest.approx(0.0, abs=1e-12)

    def test_oracle_value(self):
        assert softmax_cross_entropy(np.array([1.0, 2.0, 3.0]), 2) == pytest.approx(
            0.4076059644443803, abs=1e-14)

    def test_invalid_target(self):
        with pytest.raises(ValidationError, match="invalid target index"):
            softmax_cross_entropy(np.zeros(4), 4)
        with pytest.raises(ValidationError, match="invalid target index"):
            softmax_cross_entropy(np.zeros(4), -1)

    def test_stability_with_huge_logits(self):
        logits = np.array([1e4, 1e4 - 2.0])
        v = softmax_cross_entropy(logits, 1)
        assert math.isfinite(v)
        assert v == pytest.approx(math.log(1 + math.exp(2.0)), abs=1e-9)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        probs = softmax(rng.normal(size=(10, 6)) * 50)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def _state_bytes(state):
    return (state.flat.tobytes(), state.m.tobytes(), state.v.tobytes(),
            state.step)


def _step(state, grads):
    """Write grads into Adam's gradient views, as a loss does, then step."""
    for k, g in grads.items():
        state.grad_views[k][...] = g
    adam_step(state)


class TestAdam:
    def test_zero_grads_leave_params_unchanged(self):
        params = {"w": np.array([1.0, -2.0]), "b": np.array(0.5)}
        state = init_adam(params, lr=0.1)
        _step(state, {k: np.zeros_like(v) for k, v in params.items()})
        for k in params:
            assert np.array_equal(state.params[k], params[k])
        assert state.params["b"].shape == ()
        assert state.step == 1

    def test_single_step_hand_computation(self):
        # p=0, g=1, lr=0.1: bias correction cancels at t=1 so p -> -lr/(1+eps)
        state = init_adam({"p": np.array(0.0)}, lr=0.1)
        _step(state, {"p": np.array(1.0)})
        assert float(state.params["p"]) == pytest.approx(-0.0999999990, abs=1e-9)

    def test_two_steps_decrease_convex_quadratic(self):
        state = init_adam({"x": np.array([3.0, -4.0])}, lr=0.05)
        x = state.params["x"]
        v0 = float(np.sum(x ** 2))
        for _ in range(2):
            _step(state, {"x": 2.0 * x})
        assert float(np.sum(x ** 2)) < v0

    def test_views_alias_one_vector_and_step_counter_advances(self):
        params = {"w": np.array([[1.0, 2.0], [3.0, 4.0]]), "b": np.array([5.0])}
        state = init_adam(params)
        for k, view in state.params.items():
            assert view.base is state.flat    # pins no optimizer buffer
            assert not np.shares_memory(view, params[k])   # init copies
            assert view.shape == params[k].shape
            assert np.shares_memory(state.grad_views[k], state.grad)
            assert state.grad_views[k].shape == params[k].shape
        assert state.flat.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert state.m.shape == state.v.shape == state.grad.shape == state.flat.shape
        grads = {"w": np.full((2, 2), 0.3), "b": np.array([-0.3])}
        for t in (1, 2):
            _step(state, grads)
            assert state.step == t
            assert np.array_equal(np.concatenate([state.params["w"].ravel(),
                                                  state.params["b"]]), state.flat)
        assert params["w"][0, 0] == 1.0 and state.params["w"][0, 0] != 1.0

    def test_allocates_m_v_grad_and_one_work_vector(self):
        """Beside the parameters, Adam holds m, v, the gradient and one work
        vector, each a vector of its own: the update's denominator reuses
        the spent gradient (numerics module docstring)."""
        n = 100_000
        params = {"w": np.ones((n - 10, 1)), "b": np.zeros(10)}
        tracemalloc.start()
        try:
            state = init_adam(params)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        arrays = {f.name for f in dataclasses.fields(state)
                  if isinstance(getattr(state, f.name), np.ndarray)}
        assert arrays == {"flat", "m", "v", "grad", "work"}
        vectors = [getattr(state, name) for name in sorted(arrays)]
        assert all(v.shape == (n,) for v in vectors)
        assert not any(np.shares_memory(a, b)
                       for a, b in itertools.combinations(vectors, 2))
        assert 5 * 8 * n <= held < 5 * 8 * n + 65536

    @staticmethod
    def _trained_state():
        """Two keys after a few steps, so m and v are nonzero."""
        state = init_adam({"x": np.zeros(3), "y": np.ones((2, 2))})
        for _ in range(3):
            _step(state, {"x": np.array([0.1, -0.2, 0.3]),
                          "y": np.full((2, 2), -0.5)})
        return state

    def test_nonfinite_grad_rejected(self):
        """A NaN or infinity the loss wrote into Adam's gradient buffer is
        refused, naming its parameter, before any state changes."""
        for value in (np.nan, np.inf, -np.inf):
            state = self._trained_state()
            before = _state_bytes(state)
            state.grad_views["x"][...] = 1.0
            state.grad_views["y"][...] = 1.0
            state.grad_views["y"][1, 0] = value
            with pytest.raises(ValidationError,
                               match="non-finite gradient for 'y'"):
                adam_step(state)
            assert _state_bytes(state) == before


def _textbook_adam(params, grads, m_in, v_in, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    """The bias-corrected update written as one expression per array."""
    new_params, new_m, new_v = {}, {}, {}
    for k, p in params.items():
        g = grads[k]
        m = b1 * m_in[k] + (1.0 - b1) * g
        v = b2 * v_in[k] + (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        new_params[k] = p - lr * m_hat / (np.sqrt(v_hat) + eps)
        new_m[k], new_v[k] = m, v
    return new_params, new_m, new_v


# head (d=64, d_t=96, t_max=4, vocab=8) and scorer (d=64, d_t=96, hidden=64)
_HEAD_SHAPES = {"in_w": (128, 224), "in_b": (128,), "out_w": (4, 8, 128),
                "out_b": (4, 8)}
_SCORER_SHAPES = {"text_proj_w": (64, 96), "text_proj_b": (64,),
                  "polarity_emb": (2, 64), "hidden_w": (64, 256),
                  "hidden_b": (64,), "out_w": (64,), "out_b": (1,)}


class TestAdamAgainstTextbook:
    @pytest.mark.parametrize("shapes", (_HEAD_SHAPES, _SCORER_SHAPES),
                             ids=("head", "scorer"))
    def test_bit_identical_over_50_steps(self, shapes):
        rng = np.random.default_rng(31)
        params = {k: rng.standard_normal(s) for k, s in shapes.items()}
        state = init_adam(params, lr=3e-3)
        ref_params = {k: v.copy() for k, v in params.items()}
        ref_m = {k: np.zeros(s) for k, s in shapes.items()}
        ref_v = {k: np.zeros(s) for k, s in shapes.items()}
        flat = lambda arrays: np.concatenate([arrays[k].ravel() for k in shapes])
        for step in range(50):
            # gradients over many magnitudes, with exact zeros mixed in
            grads = {k: rng.standard_normal(s) * 10.0 ** rng.integers(-8, 3)
                     * (rng.random(s) > 0.1) for k, s in shapes.items()}
            _step(state, grads)
            ref_params, ref_m, ref_v = _textbook_adam(
                ref_params, grads, ref_m, ref_v, step + 1, lr=3e-3)
            for k in shapes:
                assert state.params[k].tobytes() == ref_params[k].tobytes(), (step, k)
                assert state.params[k].shape == shapes[k]
            assert state.flat.tobytes() == flat(ref_params).tobytes(), step
            assert state.m.tobytes() == flat(ref_m).tobytes(), step
            assert state.v.tobytes() == flat(ref_v).tobytes(), step
        assert state.step == 50


class TestFiniteDiff:
    def test_constant_function(self):
        g = finite_diff_grad(lambda x: 7.5, np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(g, np.zeros(3))

    def test_quadratic(self):
        g = finite_diff_grad(lambda x: float(x @ x), np.array([1.0, 2.0]), h=1e-5)
        assert np.allclose(g, [2.0, 4.0], atol=1e-6)

    def test_rejects_nonpositive_h(self):
        with pytest.raises(ValidationError):
            finite_diff_grad(lambda x: 0.0, np.zeros(2), h=0.0)


class TestFlatten:
    def test_round_trip(self):
        rng = np.random.default_rng(2)
        arrays = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(5,)),
                  "c": np.array(2.5)}
        vec, layout = flatten_arrays(arrays)
        assert vec.size == 12 + 5 + 1
        back = unflatten_arrays(vec, layout)
        for k in arrays:
            assert np.array_equal(back[k], arrays[k])
