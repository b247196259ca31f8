"""Tape, primitives, and backprop: worked examples, finite-difference
checks for every primitive's backward rule, and the error contracts."""

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
    ("logsumexp", ad.logsumexp, lambda r: r.normal(0, 1.0, 6)),
    ("reduce_sum", ad.reduce_sum, lambda r: r.normal(0, 1.0, 6)),
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
        grads = backprop(loss)
        fd = fd_gradient(scalar, x0.copy())
        np.testing.assert_allclose(grads["x"], fd, rtol=1e-4, atol=1e-8)

    @pytest.mark.parametrize("shape_a,shape_b", [((3, 4), (4, 2)),
                                                 ((3, 4), (4,)),
                                                 ((4,), (4, 2)),
                                                 ((4,), (4,))])
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

    def test_conv1d_and_maxpool(self):
        rng = np.random.default_rng(9)
        x0 = rng.normal(size=(7, 3))
        w0 = rng.normal(size=(3, 3, 4))
        b0 = rng.normal(size=4)

        def forward(x, w, b):
            win = np.lib.stride_tricks.sliding_window_view(x, 3, axis=0)
            conv = np.einsum("tew,wef->tf", win, w) + b
            return conv.max(axis=0).sum()

        t = Tape()
        xv, wv, bv = t.param(x0, "x"), t.param(w0, "w"), t.param(b0, "b")
        loss = ad.reduce_sum(ad.maxpool_time(ad.conv1d(xv, wv, bv)))
        grads = backprop(loss)
        np.testing.assert_allclose(
            grads["x"], fd_gradient(lambda x: forward(x, w0, b0), x0.copy()),
            rtol=1e-4, atol=1e-8)
        np.testing.assert_allclose(
            grads["w"], fd_gradient(lambda w: forward(x0, w, b0), w0.copy()),
            rtol=1e-4, atol=1e-8)
        np.testing.assert_allclose(
            grads["b"], fd_gradient(lambda b: forward(x0, w0, b), b0.copy()),
            rtol=1e-4, atol=1e-8)

    def test_embedding_gather_concat_stack_take_row(self):
        rng = np.random.default_rng(10)
        table0 = rng.normal(size=(6, 3))
        ids = np.array([1, 4, 1, 0])
        probe = rng.normal(size=3)

        def scalar(table):
            emb = table[ids]
            pooled = emb.max(axis=0)
            return float(pooled @ probe + table[2] @ probe + emb[0, 1])

        t = Tape()
        tv = t.param(table0, "table")
        emb = ad.embedding(tv, ids)
        pooled = ad.maxpool_time(emb)
        loss = ad.matmul(pooled, t.const(probe)) \
            + ad.matmul(ad.take_row(tv, 2), t.const(probe)) \
            + ad.gather(ad.take_row(emb, 0), 1)
        grads = backprop(loss)
        np.testing.assert_allclose(grads["table"],
                                   fd_gradient(scalar, table0.copy()),
                                   rtol=1e-4, atol=1e-8)

    def test_row_gradient_densifies_to_dense_scatter(self):
        # Repeated ids sum in id order onto +0: bitwise the scatter-add over
        # the whole table, and so is the sum of two row gradients.
        rng = np.random.default_rng(11)
        table0 = rng.normal(size=(7, 3))
        grads = []
        for ids in (np.array([5, 1, 5, 0, 1, 5]), np.array([2, 5, 2])):
            probe = rng.normal(size=(ids.size, 3))
            t = Tape()
            emb = ad.embedding(t.param(table0, "table"), ids)
            g = backprop(ad.reduce_sum(ad.mul(emb, t.const(probe))))["table"]
            assert isinstance(g, ad.RowGrad) and g.shape == (7, 3)
            np.testing.assert_array_equal(g.ids, np.unique(ids))
            np.testing.assert_array_equal(
                g.dense(), kernels.embedding_backward(probe, ids, 7))
            grads.append(g)
        total = grads[0] + grads[1]
        np.testing.assert_array_equal(total.ids, [0, 1, 2, 5])
        np.testing.assert_array_equal(total.dense(),
                                      grads[0].dense() + grads[1].dense())

    @pytest.mark.parametrize("dense_use", [False, True])
    def test_table_used_twice_on_one_tape(self, dense_use):
        # Two lookups of one table stay row-sparse; a lookup plus a dense
        # op on the table gives a dense gradient.
        rng = np.random.default_rng(12)
        table0 = rng.normal(size=(6, 3))
        ids_a, ids_b = np.array([1, 4, 1]), np.array([4, 2])
        probe = rng.normal(size=3)
        weights = rng.normal(size=(6, 3))

        def scalar(table):
            second = (np.sum(table * weights) if dense_use
                      else table[ids_b].max(axis=0) @ probe)
            return float(table[ids_a].max(axis=0) @ probe + second)

        t = Tape()
        tv = t.param(table0, "table")
        first = ad.matmul(ad.maxpool_time(ad.embedding(tv, ids_a)), t.const(probe))
        second = (ad.reduce_sum(ad.mul(tv, t.const(weights))) if dense_use
                  else ad.matmul(ad.maxpool_time(ad.embedding(tv, ids_b)),
                                 t.const(probe)))
        g = backprop(first + second)["table"]
        if dense_use:
            assert isinstance(g, np.ndarray)
        else:
            assert isinstance(g, ad.RowGrad)
            np.testing.assert_array_equal(g.ids, [1, 2, 4])
            g = g.dense()
        np.testing.assert_allclose(g, fd_gradient(scalar, table0.copy()),
                                   rtol=1e-4, atol=1e-8)

    def test_embedding_of_computed_table(self):
        # A row gradient reaching a non-leaf node is densified for its rule.
        rng = np.random.default_rng(13)
        table0 = rng.normal(size=(5, 2))
        ids = np.array([3, 0, 3])
        probe = rng.normal(size=(3, 2))
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
            out = ad.dropout(xv, 0.5, np.random.default_rng(seed))
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
        a = ad.dropout(t1.const(x), 0.4, np.random.default_rng(5)).value
        b = ad.dropout(t2.const(x), 0.4, np.random.default_rng(5)).value
        np.testing.assert_array_equal(a, b)

    def test_maxpool_tie_takes_lowest_index(self):
        t = Tape()
        x = t.param(np.array([[2.0, 1.0], [2.0, 3.0], [0.0, 3.0]]), "x")
        out = ad.maxpool_time(x)
        grads = backprop(ad.reduce_sum(out))
        np.testing.assert_array_equal(
            grads["x"], [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])

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

    def test_non_finite_rejected_naming_primitive(self):
        t = Tape()
        with pytest.raises(NonFiniteError, match="exp"):
            ad.exp(t.const(np.array([1000.0])))

    def test_non_scalar_loss_rejected(self):
        t = Tape()
        v = t.param(np.ones(3), "v")
        with pytest.raises(ShapeError, match="scalar"):
            backprop(ad.relu(v))

    def test_conv_too_short_rejected(self):
        t = Tape()
        with pytest.raises(ShapeError, match="shorter"):
            ad.conv1d(t.const(np.zeros((2, 3))), t.const(np.zeros((3, 3, 1))),
                      t.const(np.zeros(1)))

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
