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
        # t_len = 3 is one output step, the window length.
        x = rng.normal(size=(t_len, 3))
        w = rng.normal(size=(3, 3, 2))
        t_out = t_len - 2
        grad = rng.normal(size=(t_out, 2))
        want_dx = np.zeros_like(x)
        want_dw = np.zeros_like(w)
        for t in range(t_out):
            for i in range(3):
                for e in range(3):
                    for f in range(2):
                        want_dx[t + i, e] += grad[t, f] * w[i, e, f]
                        want_dw[i, e, f] += grad[t, f] * x[t + i, e]
        dx, dw, db = kernels.conv1d_backward(x, w, grad)
        np.testing.assert_allclose(dx, want_dx, rtol=1e-12)
        np.testing.assert_allclose(dw, want_dw, rtol=1e-12)
        np.testing.assert_allclose(db, grad.sum(axis=0), rtol=1e-12)

    def test_maxpool_tie_lowest_index(self):
        x = np.array([[1.0, 5.0], [1.0, 5.0], [0.0, 5.0]])
        _, idx = kernels.maxpool_forward(x)
        np.testing.assert_array_equal(idx, [0, 0])

    def test_embedding_backward_accumulates_repeats(self):
        grad = np.ones((3, 2))
        ids = np.array([1, 1, 0])
        out = kernels.embedding_backward(grad, ids, 3)
        np.testing.assert_array_equal(out, [[1.0, 1.0], [2.0, 2.0], [0.0, 0.0]])
