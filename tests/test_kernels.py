"""The encoder kernels against direct loops (in float64) and hand-worked
cases, and their float32 results."""

import numpy as np
import pytest

from domaingate import kernels


rng = np.random.default_rng(0)


def test_backend_flag_is_exposed():
    # the benchmark's environment block reads this flag
    assert kernels.NUMBA_ENABLED is False


def direct_conv(x, w, b, index):
    """The valid convolution of the rows x[index] with w plus b, by loops."""
    win, emb, nf = w.shape
    want = np.zeros((index.size - win + 1, nf))
    for t in range(want.shape[0]):
        for f in range(nf):
            want[t, f] = b[f] + sum(x[index[t + i], e] * w[i, e, f]
                                    for i in range(win) for e in range(emb))
    return want


def direct_conv_grads(x, w, index, u, s):
    """dx [U,E] and dw of the convolution whose output gradient is s[j, f]
    at row u[j, f] and filter f, by loops over the positions."""
    win, emb, nf = w.shape
    dx, dw = np.zeros_like(x), np.zeros_like(w)
    for (j, f), t in np.ndenumerate(u):
        for i in range(win):
            for e in range(emb):
                dx[index[t + i], e] += s[j, f] * w[i, e, f]
                dw[i, e, f] += s[j, f] * x[index[t + i], e]
    return dx, dw


class TestNumpyReference:
    def test_conv1d_against_direct_loops(self):
        # 12 positions over 4 distinct rows, for the narrowest and the
        # widest window.
        x = rng.normal(size=(4, 3))
        index = np.array([2, 0, 3, 3, 1, 0, 2, 2, 2, 1, 3, 0])
        for win in (1, 3, 5):
            w = rng.normal(size=(win, 3, 2))
            b = rng.normal(size=2)
            np.testing.assert_allclose(kernels.conv1d_forward(x, w, b, index),
                                       direct_conv(x, w, b, index), rtol=1e-12)

    def test_conv1d_over_several_blocks(self):
        # At 128 filters, 600 positions span three blocks of the forward,
        # the last partial.
        x = rng.normal(size=(4, 3))
        w = rng.normal(size=(3, 3, 128))
        b = rng.normal(size=128)
        index = rng.integers(0, 4, size=600)
        windows = np.lib.stride_tricks.sliding_window_view(x[index], 3, axis=0)
        np.testing.assert_allclose(kernels.conv1d_forward(x, w, b, index),
                                   np.einsum("tew,wef->tf", windows, w) + b, rtol=1e-12)

    @pytest.mark.parametrize("t_len", [3, 8])
    def test_conv1d_backward_against_direct_loops(self, t_len):
        # t_len = 3 has one output step at window 3. The gradient of the
        # conv output is s[j, f] at row u[j, f], as after a max-pool, and
        # zero at the dead entry (1, 0). Two distinct rows serve all
        # positions, so filter 1's two live windows, at rows 0 and
        # t_out - 1, read one distinct row at one offset.
        x = rng.normal(size=(2, 3))
        index = np.array([1, 0, 1, 1, 0, 0, 1, 1])[:t_len]
        for win in (1, 3, 5):
            if win > t_len:
                continue
            w = rng.normal(size=(win, 3, 2))
            t_out = t_len - win + 1
            u = np.array([[0, t_out - 1], [t_out - 1, 0]])
            s = rng.normal(size=(2, 2))
            s[1, 0] = 0.0
            assert any(index[i] == index[t_out - 1 + i] for i in range(win))
            want_dx, want_dw = direct_conv_grads(x, w, index, u, s)
            dx, dw, db = kernels.conv1d_backward(x, w, index, u, s)
            np.testing.assert_allclose(dx, want_dx, rtol=1e-12)
            np.testing.assert_allclose(dw, want_dw, rtol=1e-12)
            np.testing.assert_allclose(db, s.sum(axis=0), rtol=1e-12)

    @pytest.mark.parametrize("n_rows", [0, 2])
    def test_conv1d_backward_with_nothing_live(self, n_rows):
        # No pooled entry passes the relu (s is zero), or there are no
        # entries at all: every gradient is zero.
        x = rng.normal(size=(3, 4))
        w = rng.normal(size=(5, 4, 2))
        index = np.array([0, 1, 2, 1, 0, 2, 2])
        u = np.zeros((n_rows, 2), dtype=np.intp)
        dx, dw, db = kernels.conv1d_backward(x, w, index, u, np.zeros((n_rows, 2)))
        for got, like in ((dx, x), (dw, w), (db, w[0, 0])):
            np.testing.assert_array_equal(got, np.zeros_like(like))

    def test_conv1d_keeps_float32(self):
        # np.bincount sums in float64; the gradients come back in w's dtype.
        x = rng.normal(size=(3, 4)).astype(np.float32)
        w = rng.normal(size=(2, 4, 5)).astype(np.float32)
        b = np.zeros(5, dtype=np.float32)
        index = np.array([0, 2, 1, 2, 0])
        assert kernels.conv1d_forward(x, w, b, index).dtype == np.float32
        u = np.array([[0, 1, 2, 3, 1]])
        s = rng.normal(size=(1, 5)).astype(np.float32)
        for g in kernels.conv1d_backward(x, w, index, u, s):
            assert g.dtype == np.float32

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
        live = np.array([[True, False, True], [True, True, False]])
        grad = rng.normal(size=(2, 3))
        np.testing.assert_array_equal(kernels.maxpool_backward(grad, live),
                                      np.where(live, grad, 0.0))

    def test_conv_pool_pools_each_instance_as_if_convolved_alone(self):
        # One convolution over a 1,272-position packed batch of 7 distinct
        # rows gives each instance the pooled values of its own positions
        # convolved alone.
        from domaingate import autodiff as ad

        lengths = [5, 300, 3, 260, 700, 4]
        starts = np.concatenate([[0], np.cumsum(lengths)])
        x0 = rng.normal(size=(7, 6))
        index = rng.integers(0, 7, size=starts[-1])
        w0 = rng.normal(size=(3, 6, 4))
        b0 = rng.normal(size=4)
        t = ad.Tape()
        pooled = ad.conv_pool(t.param(x0, "x"), t.param(w0, "w"), t.param(b0, "b"),
                              index, starts).value
        for j in range(len(lengths)):
            conv = kernels.conv1d_forward(x0, w0, b0, index[starts[j]:starts[j + 1]])
            np.testing.assert_allclose(pooled[j], np.maximum(conv.max(axis=0), 0.0),
                                       rtol=1e-12)

    def test_embedding_backward_accumulates_repeats(self):
        grad = np.ones((3, 2))
        ids = np.array([1, 1, 0])
        out = kernels.embedding_backward(grad, ids, 3)
        np.testing.assert_array_equal(out, [[1.0, 1.0], [2.0, 2.0], [0.0, 0.0]])
