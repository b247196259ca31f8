"""The encoder kernels against direct loops and hand-worked cases."""

import numpy as np
import pytest

from domaingate import kernels


rng = np.random.default_rng(0)


def test_backend_flag_is_exposed():
    # the benchmark's environment block reads this flag
    assert kernels.NUMBA_ENABLED is False


class TestNumpyReference:
    def test_conv1d_against_direct_loops(self):
        x = rng.normal(size=(8, 3))
        w = rng.normal(size=(3, 3, 2))
        b = rng.normal(size=2)
        want = np.zeros((6, 2))
        for t in range(6):
            for f in range(2):
                want[t, f] = b[f] + sum(
                    x[t + i, e] * w[i, e, f] for i in range(3) for e in range(3))
        np.testing.assert_allclose(kernels.conv1d_forward(x, w, b), want,
                                   rtol=1e-12)

    @pytest.mark.parametrize("t_len", [3, 8])
    def test_conv1d_backward_against_direct_loops(self, t_len):
        # t_len = 3 is one output step, the window length. The gradient of
        # the conv output is nonzero on the rows u only, as after a max-pool.
        x = rng.normal(size=(t_len, 3))
        w = rng.normal(size=(3, 3, 2))
        t_out = t_len - 2
        u = np.array([0, t_out - 1]) if t_out > 1 else np.array([0])
        s = rng.normal(size=(u.size, 2))
        grad = np.zeros((t_out, 2))
        grad[u] = s
        want_dx = np.zeros_like(x)
        want_dw = np.zeros_like(w)
        for t in range(t_out):
            for i in range(3):
                for e in range(3):
                    for f in range(2):
                        want_dx[t + i, e] += grad[t, f] * w[i, e, f]
                        want_dw[i, e, f] += grad[t, f] * x[t + i, e]
        dx, dw, db = kernels.conv1d_backward(x, w, u, s)
        np.testing.assert_allclose(dx, want_dx, rtol=1e-12)
        np.testing.assert_allclose(dw, want_dw, rtol=1e-12)
        np.testing.assert_allclose(db, grad.sum(axis=0), rtol=1e-12)

    def test_maxpool_tie_lowest_index(self):
        x = np.array([[1.0, 5.0], [1.0, 5.0], [0.0, 5.0]])
        peak, idx = kernels.maxpool_forward(x, np.array([0]), np.array([3]))
        np.testing.assert_array_equal(peak, [[1.0, 5.0]])
        np.testing.assert_array_equal(idx, [[0, 0]])

    @pytest.mark.parametrize("win", [1, 3])
    def test_segment_maxpool_against_direct_loops(self, win):
        # Segments of 1 to 9 windows; the rows between segments (a window
        # crossing into the next instance) hold the largest values and
        # must never be pooled.
        lengths = [win, 4, 9, 1 + win, 7]
        n_win = [n - win + 1 for n in lengths]
        lo = np.concatenate([[0], np.cumsum(lengths)[:-1]])
        hi = lo + n_win
        x = rng.integers(-3, 4, size=(sum(lengths) - win + 1, 5)).astype(float)
        for j in range(len(lengths) - 1):
            x[hi[j]:lo[j + 1]] = 100.0
        peak, idx = kernels.maxpool_forward(x, lo, hi)
        for j in range(len(lengths)):
            for f in range(5):
                col = x[lo[j]:hi[j], f]
                assert peak[j, f] == col.max()
                assert idx[j, f] == lo[j] + int(np.argmax(col))

    def test_maxpool_backward_places_the_pooled_gradient(self):
        idx = np.array([[4, 2, 4], [9, 7, 7]])
        live = np.array([[True, False, True], [True, True, True]])
        grad = rng.normal(size=(2, 3))
        u, s = kernels.maxpool_backward(grad, idx, live)
        np.testing.assert_array_equal(u, [4, 7, 9])
        want = np.zeros((10, 3))
        for j in range(2):
            for f in range(3):
                if live[j, f]:
                    want[idx[j, f], f] += grad[j, f]
        np.testing.assert_array_equal(s, want[u])

    def test_conv_pool_pools_each_instance_as_if_convolved_alone(self):
        # One convolution over a 1,272-row packed batch gives each instance
        # the pooled values of its own rows convolved alone.
        from domaingate import autodiff as ad

        lengths = [5, 300, 3, 260, 700, 4]
        starts = np.concatenate([[0], np.cumsum(lengths)])
        x0 = rng.normal(size=(starts[-1], 6))
        w0 = rng.normal(size=(3, 6, 4))
        b0 = rng.normal(size=4)
        t = ad.Tape()
        pooled = ad.conv_pool(t.param(x0, "x"), t.param(w0, "w"), t.param(b0, "b"),
                              starts).value
        for j in range(len(lengths)):
            conv = kernels.conv1d_forward(x0[starts[j]:starts[j + 1]], w0, b0)
            np.testing.assert_allclose(pooled[j], np.maximum(conv.max(axis=0), 0.0),
                                       rtol=1e-12)

    def test_embedding_backward_accumulates_repeats(self):
        grad = np.ones((3, 2))
        ids = np.array([1, 1, 0])
        out = kernels.embedding_backward(grad, ids, 3)
        np.testing.assert_array_equal(out, [[1.0, 1.0], [2.0, 2.0], [0.0, 0.0]])
