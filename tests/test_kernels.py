"""The encoder kernels against direct loops and hand-worked cases."""

import numpy as np

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

    def test_maxpool_tie_lowest_index(self):
        x = np.array([[1.0, 5.0], [1.0, 5.0], [0.0, 5.0]])
        _, idx = kernels.maxpool_forward(x)
        np.testing.assert_array_equal(idx, [0, 0])

    def test_embedding_backward_accumulates_repeats(self):
        grad = np.ones((3, 2))
        ids = np.array([1, 1, 0])
        out = kernels.embedding_backward(grad, ids, 3)
        np.testing.assert_array_equal(out, [[1.0, 1.0], [2.0, 2.0], [0.0, 0.0]])
