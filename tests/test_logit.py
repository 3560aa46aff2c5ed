"""Property tests for the batched logit kernels.

Each property is checked on a 1-D vector and on every row of a (K, N)
batch; a batch row must also equal the 1-D call on that row bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from headfx.core import Market, PlatformParams, StreamerParams
from headfx.logit import (
    Q_MAX,
    choice_jacobian,
    logit_slope,
    logsumexp,
    quality_best_response,
    softmax,
    utility,
)

# seed, batch rows K, streamers N, utility scale (700 is near exp overflow)
CASES = given(
    st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 40),
    st.sampled_from([1.0, 50.0, 700.0]),
)


def utilities(seed, k, n, scale):
    return np.random.default_rng(seed).uniform(-scale, scale, (k, n))


def inputs(seed, k, n):
    """Raw (K, N) arguments of utility and quality_best_response."""
    rng = np.random.default_rng(seed)
    return dict(
        alpha=rng.uniform(0.0, 2.0, n), q=rng.uniform(0.0, 3.0, (k, n)),
        prices=rng.uniform(0.0, 0.5, n), beta=float(rng.uniform(0.0, 0.1)),
        n=rng.uniform(0.0, 100.0, (k, n)), phi=float(rng.uniform(0.5, 2.0)),
        theta=rng.dirichlet(np.ones(n)), revenue=rng.uniform(0.0, 200.0, n),
        c=rng.uniform(0.1, 3.0, n), p=rng.dirichlet(np.ones(n), size=k),
    )


class TestSoftmax:
    @settings(max_examples=60, deadline=None)
    @CASES
    def test_on_simplex_and_shift_invariant(self, seed, k, n, scale):
        v = utilities(seed, k, n, scale)
        shift = np.random.default_rng(seed + 1).uniform(-1e3, 1e3)
        batch, shifted = softmax(v), softmax(v + shift)
        for p in (softmax(v[0]), *batch):
            assert np.isfinite(p).all() and np.all(p >= 0.0)
            assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(shifted, batch, rtol=1e-9, atol=1e-12)
        assert np.allclose(softmax(v[0] + shift), softmax(v[0]), rtol=1e-9, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @CASES
    def test_permutation_equivariant(self, seed, k, n, scale):
        v = utilities(seed, k, n, scale)
        perm = np.random.default_rng(seed + 2).permutation(n)
        assert np.allclose(softmax(v[:, perm]), softmax(v)[:, perm], rtol=1e-12, atol=1e-300)
        assert np.allclose(softmax(v[0][perm]), softmax(v[0])[perm], rtol=1e-12, atol=1e-300)

    @settings(max_examples=60, deadline=None)
    @CASES
    def test_batch_rows_match_vectors_bitwise(self, seed, k, n, scale):
        v = utilities(seed, k, n, scale)
        batch = softmax(v)
        for i in range(k):
            assert np.array_equal(batch[i], softmax(v[i]))


class TestLogsumexp:
    @settings(max_examples=60, deadline=None)
    @CASES
    def test_shift_adds_the_constant(self, seed, k, n, scale):
        v = utilities(seed, k, n, scale)
        c = np.random.default_rng(seed + 1).uniform(-1e3, 1e3)
        batch, shifted = logsumexp(v), logsumexp(v + c)
        assert batch.shape == (k,)
        tol = 1e-12 * (abs(c) + np.abs(batch).max() + 1.0)
        assert np.all(np.abs(shifted - (batch + c)) <= tol)
        assert abs(logsumexp(v[0] + c) - (logsumexp(v[0]) + c)) <= tol
        # the aggregate lies between the max and the max plus log N
        top = v.max(axis=1)
        assert np.all(batch >= top) and np.all(batch <= top + np.log(n) + tol)

    @settings(max_examples=60, deadline=None)
    @CASES
    def test_permutation_invariant(self, seed, k, n, scale):
        v = utilities(seed, k, n, scale)
        perm = np.random.default_rng(seed + 2).permutation(n)
        tol = 1e-12 * (scale + 1.0)
        assert np.all(np.abs(logsumexp(v[:, perm]) - logsumexp(v)) <= tol)
        assert abs(logsumexp(v[0][perm]) - logsumexp(v[0])) <= tol

    @settings(max_examples=60, deadline=None)
    @CASES
    def test_batch_rows_match_vectors_bitwise(self, seed, k, n, scale):
        v = utilities(seed, k, n, scale)
        batch = logsumexp(v)
        for i in range(k):
            assert batch[i] == logsumexp(v[i])


def network_market(beta):
    """A market whose network term weighs audiences by beta."""
    platform = PlatformParams(n_streamers=1, n_viewers=1, beta=beta)
    return Market.from_params(platform, [StreamerParams(alpha=1.0)])


class TestElementwiseKernels:
    """utility, Market.network, logit_slope and quality_best_response act
    entry by entry."""

    @staticmethod
    def evaluate(x, rows=slice(None), cols=slice(None)):
        """The kernels on rows and columns of the raw inputs x."""
        def vec(name):
            return x[name][cols]

        def mat(name):
            return x[name][rows][..., cols]

        return (
            utility(vec("alpha"), mat("q"), vec("prices"), x["beta"] * mat("n"), x["phi"],
                    vec("theta")),
            utility(vec("alpha"), mat("q"), vec("prices"), x["beta"] * mat("n"), x["phi"]),
            network_market(x["beta"]).network(mat("n")),
            logit_slope(vec("revenue"), mat("p")),
            quality_best_response(vec("revenue"), vec("c"), mat("p")),
        )

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 40))
    def test_batch_rows_match_vectors_bitwise(self, seed, k, n):
        x = inputs(seed, k, n)
        batch = self.evaluate(x)
        for i in range(k):
            for got, want in zip(batch, self.evaluate(x, rows=i)):
                assert want.shape == (n,)
                assert np.array_equal(got[i], want)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 40))
    def test_permutation_equivariant(self, seed, k, n):
        x = inputs(seed, k, n)
        perm = np.random.default_rng(seed + 2).permutation(n)
        for got, want in zip(self.evaluate(x, cols=perm), self.evaluate(x)):
            assert np.array_equal(got, want[:, perm])
        for got, want in zip(self.evaluate(x, rows=0, cols=perm), self.evaluate(x, rows=0)):
            assert np.array_equal(got, want[perm])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 40))
    def test_network_writes_into_out(self, seed, k, n):
        x = inputs(seed, k, n)
        market = network_market(x["beta"])
        out = np.full((k, n), np.nan)
        assert market.network(x["n"], out=out) is out
        assert np.array_equal(out, x["beta"] * x["n"])
        assert market.network_slope(x["n"]) == market.network_slope(0.0) == x["beta"]

    def test_hand_values(self):
        v = utility(np.array([1.0, 2.0]), np.array([0.5, 0.25]), np.array([0.1, 0.0]),
                    0.5 * np.array([2.0, 4.0]), 2.0, np.array([0.25, 0.75]))
        assert v.tolist() == [0.5 - 0.1 + 1.0 + 0.5, 0.5 + 2.0 + 1.5]
        assert logit_slope(4.0, np.array([0.5, 0.25])).tolist() == [1.0, 0.75]
        q = quality_best_response(np.array([4.0, 1e6]), np.array([0.5, 0.5]), np.array([0.5, 0.5]))
        assert q.tolist() == [1.0, Q_MAX]


class TestChoiceJacobian:
    @settings(max_examples=60, deadline=None)
    @CASES
    def test_is_diag_p_minus_outer_bitwise(self, seed, k, n, scale):
        p = softmax(utilities(seed, k, n, scale))
        batch = choice_jacobian(p)
        assert batch.shape == (k, n, n)
        for i in range(k):
            want = np.diag(p[i]) - np.outer(p[i], p[i])
            assert choice_jacobian(p[i]).tobytes() == want.tobytes()
            assert batch[i].tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None)
    @CASES
    def test_is_the_derivative_of_softmax(self, seed, k, n, scale):
        # symmetric, rows summing to 0 (a common shift leaves P alone), and
        # equal to central differences of softmax
        v = utilities(seed, 1, n, min(scale, 5.0))[0]
        jac = choice_jacobian(softmax(v))
        assert np.array_equal(jac, jac.T)
        assert np.abs(jac.sum(axis=1)).max() <= 1e-14
        h = 1e-6
        central = np.stack([(softmax(v + e) - softmax(v - e)) / (2 * h) for e in h * np.eye(n)])
        assert np.abs(jac - central).max() <= 1e-8
