"""Tape, primitives, and backprop: worked examples, finite-difference
checks for every primitive's backward rule, and the error contracts."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domaingate import autodiff as ad
from domaingate import kernels
from domaingate.autodiff import NonFiniteError, ShapeError, Tape, backprop


def fd_gradient(fn, x, h=1e-5):
    """Central finite differences of a scalar fn over a flat array."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        step = h * max(1.0, abs(old))
        flat[i] = old + step
        up = fn(x)
        flat[i] = old - step
        down = fn(x)
        flat[i] = old
        gf[i] = (up - down) / (2 * step)
    return g


class TestExamples:
    def test_relu(self):
        t = Tape()
        out = ad.relu(t.const([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.value, [0.0, 0.0, 2.0])

    def test_elu_positivity_transform_at_zero(self):
        t = Tape()
        out = ad.elu(t.const(np.zeros(3))) + 1.0
        np.testing.assert_array_equal(out.value, np.ones(3))

    def test_square_gradient(self):
        t = Tape()
        x = t.param(np.asarray(3.0), "x")
        grads = backprop(x * x)
        assert grads["x"] == pytest.approx(6.0)

    def test_sigmoid_gradient_at_zero(self):
        t = Tape()
        x = t.param(np.asarray(0.0), "x")
        grads = backprop(ad.sigmoid(x))
        assert grads["x"] == pytest.approx(0.25)

    def test_three_layer_composite_matches_fd(self):
        rng = np.random.default_rng(0)
        w1 = rng.normal(size=(4, 5))
        w2 = rng.normal(size=(5, 3))
        x0 = rng.normal(size=4)

        def run(x):
            t = Tape()
            xv = t.param(x, "x")
            h = ad.relu(ad.matmul(xv, t.const(w1)) + t.const(np.ones(5)))
            out = ad.logsumexp(ad.matmul(ad.sigmoid(h), t.const(w2)))
            return t, xv, out

        # keep away from the relu kink
        pre = x0 @ w1 + 1.0
        assert np.abs(pre).min() > 1e-3
        _, _, out = run(x0)
        grads = backprop(out)
        fd = fd_gradient(lambda x: run(x)[2].item(), x0.copy())
        np.testing.assert_allclose(grads["x"], fd, rtol=1e-4)


UNARY_CASES = [
    ("relu", ad.relu, lambda r: r.uniform(0.01, 2.0, 6) * r.choice([-1, 1], 6)),
    ("elu", ad.elu, lambda r: r.normal(0, 1.5, 6)),
    ("sigmoid", ad.sigmoid, lambda r: r.normal(0, 2.0, 6)),
    ("exp", ad.exp, lambda r: r.normal(0, 1.0, 6)),
    ("lgamma", ad.lgamma, lambda r: r.uniform(0.2, 8.0, 6)),
    ("digamma", ad.digamma, lambda r: r.uniform(0.2, 8.0, 6)),
    ("log_softmax", ad.log_softmax, lambda r: r.normal(0, 1.0, 6)),
    ("log_softmax_rows", ad.log_softmax, lambda r: r.normal(0, 1.0, (3, 4))),
    ("gather_rows", lambda a: ad.gather(a, 2), lambda r: r.normal(0, 1.0, (3, 4))),
    ("gather_per_row", lambda a: ad.gather(a, np.array([2, 0, 3])),
     lambda r: r.normal(0, 1.0, (3, 4))),
    ("logsumexp", ad.logsumexp, lambda r: r.normal(0, 1.0, 6)),
    ("logsumexp_rows", ad.logsumexp, lambda r: r.normal(0, 1.0, (3, 4))),
    ("reduce_sum", ad.reduce_sum, lambda r: r.normal(0, 1.0, 6)),
    ("reduce_sum_rows", lambda a: ad.reduce_sum(a, axis=-1), lambda r: r.normal(0, 1.0, (3, 4))),
    ("reduce_sum_keepdims", lambda a: ad.reduce_sum(a, axis=0, keepdims=True),
     lambda r: r.normal(0, 1.0, (3, 4))),
    ("embedding_repeated", lambda a: ad.embedding(a, np.array([[2, 0], [2, 2]])),
     lambda r: r.normal(0, 1.0, (3, 4))),
    ("reshape", lambda a: ad.reshape(a, (2, 1, 6)), lambda r: r.normal(0, 1.0, (3, 4))),
    ("neg", ad.neg, lambda r: r.normal(0, 1.0, 6)),
]


class TestBackwardRulesMatchFiniteDifferences:
    @pytest.mark.parametrize("name,op,sampler", UNARY_CASES,
                             ids=[c[0] for c in UNARY_CASES])
    def test_unary(self, name, op, sampler):
        rng = np.random.default_rng(hash(name) % 2 ** 31)
        x0 = sampler(rng)
        if name == "relu":  # margin away from the kink
            assert np.abs(x0).min() >= 1e-3
        probe = rng.normal(size=op(Tape().const(x0)).value.shape)

        def scalar(x):
            t = Tape()
            return float(np.sum(op(t.param(x, "x")).value * probe))

        t = Tape()
        out = op(t.param(x0, "x"))
        loss = ad.reduce_sum(ad.mul(out, t.const(probe)))
        g = backprop(loss)["x"]
        if isinstance(g, ad.RowGrad):
            g = g.dense()
        fd = fd_gradient(scalar, x0.copy())
        np.testing.assert_allclose(g, fd, rtol=1e-4, atol=1e-8)

    # Rows @ a matrix, also of one column (a Dirichlet scale head) and
    # for one 1-d row; stacked matrices, also with r = 1 (a training gate).
    @pytest.mark.parametrize("shape_a,shape_b", [((3, 4), (4, 2)),
                                                 ((3, 4), (4, 1)),
                                                 ((4,), (4, 2)),
                                                 ((2, 1, 4), (2, 4, 5)),
                                                 ((2, 3, 4), (4, 2)),
                                                 ((2, 3, 4), (2, 4, 5))])
    def test_matmul(self, shape_a, shape_b):
        rng = np.random.default_rng(7)
        a0 = rng.normal(size=shape_a)
        b0 = rng.normal(size=shape_b)
        out_shape = (np.zeros(shape_a) @ np.zeros(shape_b)).shape
        probe = rng.normal(size=out_shape)

        def scalar_a(a):
            return float(np.sum((a @ b0) * probe))

        def scalar_b(b):
            return float(np.sum((a0 @ b) * probe))

        t = Tape()
        av, bv = t.param(a0, "a"), t.param(b0, "b")
        loss = ad.reduce_sum(ad.mul(ad.matmul(av, bv), t.const(probe)))
        grads = backprop(loss)
        np.testing.assert_allclose(grads["a"], fd_gradient(scalar_a, a0.copy()),
                                   rtol=1e-4, atol=1e-8)
        np.testing.assert_allclose(grads["b"], fd_gradient(scalar_b, b0.copy()),
                                   rtol=1e-4, atol=1e-8)

    # Rows [B,r,n] @ [n,m] run as the 2-d product of their flattened rows,
    # so a row's bits do not depend on its leading shape: training's
    # [B,1,H] head rows give the bits that [B,H] rows give.
    @pytest.mark.parametrize("shape_a,m", [((12, 1, 48), 300), ((4, 1, 384), 300),
                                           ((12, 3, 48), 300), ((4, 3, 384), 300)])
    def test_matmul_rows_equal_the_flat_product_bitwise(self, shape_a, m):
        rng = np.random.default_rng(9)
        a0, b0 = rng.normal(size=shape_a), rng.normal(size=(shape_a[-1], m))
        probe = rng.normal(size=shape_a[:-1] + (m,))

        def run(a, p):
            t = Tape()
            out = ad.matmul(t.param(a, "a"), t.param(b0, "b"))
            grads = backprop(ad.reduce_sum(ad.mul(out, t.const(p))))
            return out.value.reshape(probe.shape), grads["a"].reshape(shape_a), grads["b"]

        rows = run(a0, probe)
        flat = run(a0.reshape(-1, shape_a[-1]), probe.reshape(-1, m))
        for got, want in zip(rows, flat):
            np.testing.assert_array_equal(got, want)

    def test_binary_elementwise_and_scalar_broadcast(self):
        rng = np.random.default_rng(8)
        for op, ref in [(ad.add, np.add), (ad.sub, np.subtract),
                        (ad.mul, np.multiply), (ad.div, np.divide)]:
            a0 = rng.uniform(0.5, 2.0, 5)
            b0 = rng.uniform(0.5, 2.0, 5)
            s0 = np.asarray(1.7)
            probe = rng.normal(size=5)
            for x0, y0 in [(a0, b0), (a0, s0)]:
                def scalar_x(x):
                    return float(np.sum(ref(x, y0) * probe))

                def scalar_y(y):
                    return float(np.sum(ref(x0, y) * probe))

                t = Tape()
                xv, yv = t.param(x0, "x"), t.param(y0, "y")
                loss = ad.reduce_sum(ad.mul(op(xv, yv), t.const(probe)))
                grads = backprop(loss)
                np.testing.assert_allclose(
                    grads["x"], fd_gradient(scalar_x, x0.copy()),
                    rtol=1e-4, atol=1e-8)
                np.testing.assert_allclose(
                    grads["y"], fd_gradient(scalar_y, np.array(y0)),
                    rtol=1e-4, atol=1e-8)

    def test_add_broadcasts_vector_over_rows(self):
        rng = np.random.default_rng(11)
        x0 = rng.normal(size=(3, 5))
        b0 = rng.normal(size=5)
        probe = rng.normal(size=(3, 5))
        for rows_first in (True, False):
            t = Tape()
            xv, bv = t.param(x0, "x"), t.param(b0, "b")
            out = ad.add(xv, bv) if rows_first else ad.add(bv, xv)
            np.testing.assert_array_equal(out.value, x0 + b0)
            grads = backprop(ad.reduce_sum(ad.mul(out, t.const(probe))))
            np.testing.assert_allclose(
                grads["x"], fd_gradient(lambda x: float(np.sum((x + b0) * probe)),
                                        x0.copy()), rtol=1e-4, atol=1e-8)
            np.testing.assert_allclose(
                grads["b"], fd_gradient(lambda b: float(np.sum((x0 + b) * probe)),
                                        b0.copy()), rtol=1e-4, atol=1e-8)

    def test_add_broadcasts_rows_against_a_column(self):
        rng = np.random.default_rng(14)
        x0 = rng.normal(size=(3, 4))
        c0 = rng.normal(size=(3, 1))
        probe = rng.normal(size=(3, 4))
        t = Tape()
        out = ad.mul(t.param(c0, "c"), t.param(x0, "x"))
        grads = backprop(ad.reduce_sum(ad.mul(out, t.const(probe))))
        np.testing.assert_allclose(
            grads["c"], fd_gradient(lambda c: float(np.sum(c * x0 * probe)), c0.copy()),
            rtol=1e-4, atol=1e-8)
        np.testing.assert_allclose(
            grads["x"], fd_gradient(lambda x: float(np.sum(c0 * x * probe)), x0.copy()),
            rtol=1e-4, atol=1e-8)

    def test_conv1d_and_maxpool(self):
        # The fused conv -> per-instance max-pool -> relu over a ragged
        # batch: an instance exactly one window long, a longer one, and a
        # third. Filter 0 is negative in every window of instances 0 and 2
        # (output 0, no gradient), while the second instance's large rows
        # make a window that crosses from instance 0 into it positive: it
        # would win instance 0's filter 0 if it were pooled. The direct
        # reference convolves each instance alone.
        rng = np.random.default_rng(9)
        lengths = [3, 7, 5]
        starts = np.concatenate([[0], np.cumsum(lengths)])
        x0 = rng.normal(size=(starts[-1], 3))
        w0 = rng.normal(size=(3, 3, 4))
        b0 = rng.normal(size=4)
        b0[0] = -40.0
        w0[:, :, 0] = np.abs(w0[:, :, 0])
        x0[3:10] = 8.0 * np.abs(x0[3:10])
        probe = rng.normal(size=(3, 4))
        crossing = np.einsum("we,we->", x0[2:5], w0[:, :, 0]) + b0[0]
        assert crossing > 0.0

        def forward(x, w, b):
            out = []
            for j in range(3):
                seg = x[starts[j]:starts[j + 1]]
                win = np.lib.stride_tricks.sliding_window_view(seg, 3, axis=0)
                conv = np.einsum("tew,wef->tf", win, w) + b
                out.append(np.maximum(conv.max(axis=0), 0.0))
            return float(np.sum(np.array(out) * probe))

        t = Tape()
        xv, wv, bv = t.param(x0, "x"), t.param(w0, "w"), t.param(b0, "b")
        pooled = ad.conv_pool(xv, wv, bv, np.arange(starts[-1]), starts)
        assert pooled.value[1, 0] > 0.0
        assert pooled.value[0, 0] == pooled.value[2, 0] == 0.0
        grads = backprop(ad.reduce_sum(ad.mul(pooled, t.const(probe))))
        for name, arr in (("x", x0), ("w", w0), ("b", b0)):
            args = {"x": x0, "w": w0, "b": b0}

            def scalar(v, name=name):
                return forward(**{**args, name: v})

            np.testing.assert_allclose(grads[name], fd_gradient(scalar, arr.copy()),
                                       rtol=1e-4, atol=1e-8)
        # filter 0 of the first and last instance passes no gradient
        assert grads["b"][0] == probe[1, 0]

    def test_conv_pool_never_pools_a_window_across_instances(self):
        # The window starting at the last row of instance 0 and ending in
        # instance 1 has by far the largest pre-activation; it must never
        # win, and no gradient may reach it.
        w0 = np.ones((2, 1, 1))
        x0 = np.array([[1.0], [2.0], [50.0], [60.0], [3.0]])
        starts = np.array([0, 2, 5])
        t = Tape()
        xv = t.param(x0, "x")
        pooled = ad.conv_pool(xv, t.param(w0, "w"), t.param(np.zeros(1), "b"),
                              np.arange(5), starts)
        # instance 0 has the window (1, 2); instance 1 the windows (50, 60), (60, 3)
        np.testing.assert_array_equal(pooled.value, [[3.0], [110.0]])
        grads = backprop(ad.reduce_sum(pooled))
        np.testing.assert_array_equal(grads["x"], [[1.0], [1.0], [1.0], [1.0], [0.0]])

    def test_embedding_gather_concat_take_row(self):
        rng = np.random.default_rng(10)
        table0 = rng.normal(size=(6, 3))
        ids = np.array([1, 4, 1, 0])
        probe = rng.normal(size=3)
        probe_rows = rng.normal(size=(4, 6))

        def scalar(table):
            emb = table[ids]
            pooled = emb.sum(axis=0)
            rows = np.concatenate([emb, emb[::-1]], axis=-1)
            return float(pooled @ probe + table[2] @ probe + emb[0, 1]
                         + np.sum(rows * probe_rows)
                         + np.sum(np.concatenate([emb, emb], axis=-1)[np.arange(4), [0, 5, 1, 3]]))

        t = Tape()
        tv = t.param(table0, "table")
        emb = ad.embedding(tv, ids)
        pooled = ad.reduce_sum(emb, axis=0)
        reversed_rows = ad.embedding(emb, np.array([3, 2, 1, 0]))
        rows = ad.concat([emb, reversed_rows])
        loss = ad.reduce_sum(ad.mul(pooled, t.const(probe))) \
            + ad.reduce_sum(ad.mul(ad.embedding(tv, 2), t.const(probe))) \
            + ad.gather(ad.embedding(emb, 0), 1) \
            + ad.reduce_sum(ad.mul(rows, t.const(probe_rows))) \
            + ad.reduce_sum(ad.gather(ad.concat([emb, emb]), np.array([0, 5, 1, 3])))
        grads = backprop(loss)
        np.testing.assert_allclose(grads["table"],
                                   fd_gradient(scalar, table0.copy()),
                                   rtol=1e-4, atol=1e-8)

    def test_row_gradient_densifies_to_dense_scatter(self):
        # Repeated ids sum in id order onto +0: bitwise the scatter-add over
        # the whole table, for ids of any shape.
        rng = np.random.default_rng(11)
        table0 = rng.normal(size=(7, 3))
        for ids in (np.array([5, 1, 5, 0, 1, 5]), np.array([[2, 5], [2, 5]])):
            probe = rng.normal(size=ids.shape + (3,))
            t = Tape()
            emb = ad.embedding(t.param(table0, "table"), ids)
            g = backprop(ad.reduce_sum(ad.mul(emb, t.const(probe))))["table"]
            assert isinstance(g, ad.RowGrad) and g.shape == (7, 3)
            np.testing.assert_array_equal(g.ids, np.unique(ids))
            np.testing.assert_array_equal(
                g.dense(), kernels.embedding_backward(probe.reshape(-1, 3), ids.ravel(), 7))

    @pytest.mark.parametrize("dense_use", [False, True])
    def test_table_used_twice_on_one_tape(self, dense_use):
        # A lookup plus a second lookup, or plus a dense op on the table,
        # gives a dense gradient: the dense sum of the two uses' gradients.
        rng = np.random.default_rng(12)
        table0 = rng.normal(size=(6, 3))
        ids_a, ids_b = np.array([1, 4, 1]), np.array([4, 2])
        probe = rng.normal(size=3)
        weights = rng.normal(size=(6, 3))

        def scalar(table):
            second = (np.sum(table * weights) if dense_use
                      else table[ids_b].sum(axis=0) @ probe)
            return float(table[ids_a].sum(axis=0) @ probe + second)

        def uses(t, tv):
            rows_a = ad.reduce_sum(ad.embedding(tv, ids_a), axis=0)
            first = ad.reduce_sum(ad.mul(rows_a, t.const(probe)))
            if dense_use:
                return first, ad.reduce_sum(ad.mul(tv, t.const(weights)))
            rows_b = ad.reduce_sum(ad.embedding(tv, ids_b), axis=0)
            return first, ad.reduce_sum(ad.mul(rows_b, t.const(probe)))

        t = Tape()
        first, second = uses(t, t.param(table0, "table"))
        g = backprop(first + second)["table"]
        assert isinstance(g, np.ndarray)
        alone = []
        for which in (0, 1):
            t = Tape()
            g1 = backprop(uses(t, t.param(table0, "table"))[which])["table"]
            alone.append(g1.dense() if isinstance(g1, ad.RowGrad) else g1)
        np.testing.assert_array_equal(g, alone[0] + alone[1])
        np.testing.assert_allclose(g, fd_gradient(scalar, table0.copy()),
                                   rtol=1e-4, atol=1e-8)

    def test_embedding_of_computed_table(self):
        # A row gradient reaching a non-leaf node is densified for its rule.
        rng = np.random.default_rng(13)
        table0 = rng.normal(size=(5, 2))
        ids = np.array([[2, 0], [2, 2]])
        probe = rng.normal(size=(2, 2, 2))
        t = Tape()
        tv = t.param(table0, "table")
        emb = ad.embedding(ad.mul(tv, tv), ids)
        g = backprop(ad.reduce_sum(ad.mul(emb, t.const(probe))))["table"]
        np.testing.assert_allclose(
            g, fd_gradient(lambda x: float(np.sum((x * x)[ids] * probe)), table0.copy()),
            rtol=1e-4, atol=1e-8)

    def test_dropout_backward_with_frozen_mask(self):
        x0 = np.random.default_rng(3).normal(size=8)

        def run(x, seed=123):
            t = Tape()
            xv = t.param(x, "x")
            out = ad.dropout(xv, 0.5, np.random.default_rng(seed).random(8))
            return t, xv, ad.reduce_sum(out)

        _, _, loss = run(x0)
        grads = backprop(loss)
        fd = fd_gradient(lambda x: run(x)[2].item(), x0.copy())
        np.testing.assert_allclose(grads["x"], fd, rtol=1e-4, atol=1e-10)


class TestInvariants:
    @given(st.lists(st.floats(-30, 30), min_size=2, max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_log_softmax_simplex(self, xs):
        t = Tape()
        x = np.array(xs)
        rows = ad.log_softmax(t.const(np.stack([x, x[::-1]]))).value
        for row in np.exp(rows):
            assert np.all(row >= 0.0)
            assert abs(row.sum() - 1.0) <= 1e-12
        # each row is computed exactly as the vector call computes it
        np.testing.assert_array_equal(rows[0], ad.log_softmax(t.const(x)).value)

    def test_dropout_reproducible_from_rng(self):
        t1, t2 = Tape(), Tape()
        x = np.arange(10.0)
        a = ad.dropout(t1.const(x), 0.4, np.random.default_rng(5).random(10)).value
        b = ad.dropout(t2.const(x), 0.4, np.random.default_rng(5).random(10)).value
        np.testing.assert_array_equal(a, b)
        assert 0 < np.count_nonzero(a[1:]) < 9

    def test_maxpool_tie_takes_lowest_index(self):
        # Window-1 identity filters pool the rows themselves; instance 1
        # (rows 3-5) ties in both filters, and the gradient goes to the
        # lowest tied row.
        t = Tape()
        x = t.param(np.array([[2.0, 1.0], [2.0, 3.0], [0.0, 3.0],
                              [4.0, 5.0], [4.0, 5.0], [1.0, 5.0]]), "x")
        out = ad.conv_pool(x, t.const(np.eye(2)[None]), t.const(np.zeros(2)),
                           np.arange(6), np.array([0, 3, 6]))
        np.testing.assert_array_equal(out.value, [[2.0, 3.0], [4.0, 5.0]])
        grads = backprop(ad.reduce_sum(out))
        np.testing.assert_array_equal(
            grads["x"], [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0],
                         [1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])

    def test_tape_topological_order(self):
        t = Tape()
        x = t.param(np.asarray(2.0), "x")
        y = ad.exp(x) * ad.sigmoid(x)
        for i, node in enumerate(t.nodes):
            assert all(j < i for j in node.inputs)

    def test_unused_parameter_gets_zero_gradient(self):
        t = Tape()
        x = t.param(np.asarray(2.0), "x")
        unused = t.param(np.ones(3), "unused")
        grads = backprop(x * x)
        np.testing.assert_array_equal(grads["unused"], np.zeros(3))
        assert set(grads) == {"x", "unused"}

    def test_gradient_shared_by_two_inputs_is_summed_out_of_place(self):
        # ``add`` hands one array to both a and b; b's second gradient,
        # from t1 (recorded first, so reached last), must not reach a.
        t = Tape()
        a = t.param(np.zeros(3), "a")
        b = t.param(np.zeros(3), "b")
        t1 = b * 3.0
        y = a + b
        grads = backprop(ad.reduce_sum(y) + ad.reduce_sum(t1))
        np.testing.assert_array_equal(grads["a"], np.ones(3))
        np.testing.assert_array_equal(grads["b"], np.full(3, 4.0))


class TestErrors:
    def test_shape_mismatch_names_shapes(self):
        t = Tape()
        with pytest.raises(ShapeError, match=r"\(2,\).*\(3,\)"):
            ad.add(t.const(np.zeros(2)), t.const(np.zeros(3)))
        # a vector broadcasts only along the last axis of the rows
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2,\)"):
            ad.add(t.const(np.zeros((2, 3))), t.const(np.zeros(2)))

    def test_matmul_inner_mismatch(self):
        t = Tape()
        with pytest.raises(ShapeError):
            ad.matmul(t.const(np.zeros((2, 3))), t.const(np.zeros((4, 2))))

    def test_matmul_rejects_a_vector_right_operand(self):
        t = Tape()
        for shape_a in ((3, 4), (4,)):
            with pytest.raises(ShapeError, match="rows @ a matrix"):
                ad.matmul(t.const(np.zeros(shape_a)), t.const(np.zeros(4)))

    def test_non_finite_rejected_naming_primitive(self):
        t = Tape()
        with pytest.raises(NonFiniteError, match="exp"):
            ad.exp(t.const(np.array([1000.0])))
        # a NaN or -inf maximum must not vanish behind the fused relu
        for bad in (np.nan, -np.inf):
            w = np.ones((2, 3, 2))
            w[0, 0, 1] = bad
            with pytest.raises(NonFiniteError, match="conv_pool"):
                ad.conv_pool(t.const(np.ones((4, 3))), t.param(w, "w"),
                             t.const(np.zeros(2)), np.arange(4), np.array([0, 2, 4]))

    def test_non_scalar_loss_rejected(self):
        t = Tape()
        v = t.param(np.ones(3), "v")
        with pytest.raises(ShapeError, match="scalar"):
            backprop(ad.relu(v))

    def test_conv_too_short_rejected(self):
        t = Tape()
        with pytest.raises(ShapeError, match="shorter"):
            ad.conv_pool(t.const(np.zeros((5, 3))), t.const(np.zeros((3, 3, 1))),
                         t.const(np.zeros(1)), np.arange(5), np.array([0, 3, 5]))

    @pytest.mark.parametrize("index, starts, cause", [
        (np.zeros((2, 3), dtype=int), [0, 3, 6], "must be 1-d"),
        (np.array([0, 1, 2, 3, 1, 0]), [0, 3, 6], r"out of range \[0, 3\).*max=3"),
        (np.array([0, 1, 2, -1, 1, 0]), [0, 3, 6], r"out of range \[0, 3\).*min=-1"),
        (np.array([0, 1, 2, 2, 1, 0]), [0, 3, 5], "do not cover 6 positions"),
    ])
    def test_conv_pool_index_rejected(self, index, starts, cause):
        # x holds U = 3 distinct rows; index names one per position.
        t = Tape()
        with pytest.raises(ShapeError, match=cause):
            ad.conv_pool(t.const(np.zeros((3, 2))), t.const(np.zeros((2, 2, 1))),
                         t.const(np.zeros(1)), index, np.array(starts))

    @pytest.mark.parametrize("x, w, b", [
        ((3, 5), (2, 2, 4), (4,)),   # x's width is not a multiple of w's E
        ((3, 1), (2, 2, 4), (4,)),   # nor is it at least E
        ((3, 4), (2, 2, 4), (2,)),   # b is not w's last dimension
        ((3, 4), (2, 2, 3), (3,)),   # k = 2 groups do not split 3 filters
    ])
    def test_conv_pool_group_shapes_rejected(self, x, w, b):
        t = Tape()
        with pytest.raises(ShapeError, match=re.escape(f"x {x}, w {w}, b {b}")):
            ad.conv_pool(t.const(np.zeros(x)), t.const(np.zeros(w)), t.const(np.zeros(b)),
                         np.arange(3), np.array([0, 3]))

    def test_embedding_out_of_range(self):
        t = Tape()
        with pytest.raises(ShapeError, match="out of range"):
            ad.embedding(t.const(np.zeros((4, 2))), np.array([0, 5]))

    def test_cross_tape_input_rejected(self):
        t1, t2 = Tape(), Tape()
        a = t1.const(np.ones(2))
        b = t2.const(np.ones(2))
        with pytest.raises(ValueError, match="different tape"):
            ad.add(a, b)
