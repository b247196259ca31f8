"""Convolutional encoder: output shape, PAD behavior, determinism, and
the embedding-gradient finite-difference check on a toy instance."""

import numpy as np
import pytest

from domaingate import autodiff as ad
from domaingate.autodiff import ParamBinder, RowGrad, Tape, backprop
from domaingate.encoder import EncoderConfig, encode, init_encoder_params

TOY = EncoderConfig(embed_dim=5, n_filters=4, windows=(2, 3))


@pytest.fixture
def params():
    return init_encoder_params(np.random.default_rng(0), 10, TOY, "enc")


def run_encode(params, ids, dropout_rng=None):
    tape = Tape()
    binder = ParamBinder(tape, params)
    return tape, encode(binder, "enc", ids, TOY, dropout_rng=dropout_rng)


class TestShapes:
    def test_output_dim_is_filters_times_windows(self, params):
        _, h = run_encode(params, [1, 2, 3, 4, 5, 6])
        assert h.value.shape == (TOY.out_dim,) == (8,)

    def test_full_scale_dims_default(self):
        cfg = EncoderConfig()
        assert cfg.embed_dim == 300
        assert cfg.windows == (3, 4, 5)
        assert cfg.out_dim == 384

    def test_output_dim_independent_of_length(self, params):
        for n in (1, 2, 5, 40):
            _, h = run_encode(params, list(np.arange(n) % 10))
            assert h.value.shape == (8,)

    def test_short_input_left_padded(self, params):
        # a single token is padded up to the largest window
        _, h = run_encode(params, [4])
        assert h.value.shape == (8,)

    def test_empty_rejected(self, params):
        with pytest.raises(ValueError):
            run_encode(params, [])


class TestValues:
    def test_all_pad_zero_embeddings_gives_zero_vector(self, params):
        p = {k: v.copy() for k, v in params.items()}
        p["enc.emb"][:] = 0.0
        for w in TOY.windows:
            p[f"enc.conv{w}.b"][:] = 0.0
        _, h = run_encode(p, [0, 0, 0, 0])
        np.testing.assert_array_equal(h.value, np.zeros(8))

    def test_trailing_pad_invariance(self, params):
        ids = [3, 7, 2, 9, 4]
        _, h1 = run_encode(params, ids)
        _, h2 = run_encode(params, ids + [0, 0, 0])
        np.testing.assert_array_equal(h1.value, h2.value)

    def test_permuting_beyond_window_reach_only_moves_maxima(self):
        # brute force on a toy vocab: the pooled value for each filter is
        # the max over window dot products, so reordering windows (by
        # permuting blocks farther apart than any window) cannot change it
        cfg = EncoderConfig(embed_dim=3, n_filters=2, windows=(2,))
        p = init_encoder_params(np.random.default_rng(5), 8, cfg, "enc")
        block1, block2 = [1, 2, 3], [4, 5, 6]
        # wrapping every block in separators makes the multiset of
        # windows identical under block permutation
        def wrap(*blocks):
            ids = [7]
            for b in blocks:
                ids.extend(b)
                ids.append(7)
            return ids

        def pooled(ids):
            tape = Tape()
            return encode(ParamBinder(tape, p), "enc", ids, cfg).value

        a = pooled(wrap(block1, block2))
        b = pooled(wrap(block2, block1))
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_inference_encode_deterministic(self, params):
        ids = [1, 5, 3, 2]
        _, h1 = run_encode(params, ids)
        _, h2 = run_encode(params, ids)
        np.testing.assert_array_equal(h1.value, h2.value)

    def test_dropout_only_with_rng(self, params):
        ids = [1, 5, 3, 2]
        _, clean = run_encode(params, ids)
        _, dropped = run_encode(params, ids,
                                dropout_rng=np.random.default_rng(0))
        assert not np.array_equal(clean.value, dropped.value)


class TestGradients:
    def test_embedding_gradient_matches_fd(self, params):
        ids = [1, 5, 3, 2, 9, 9]
        probe = np.random.default_rng(1).normal(size=TOY.out_dim)

        def loss_value(p):
            tape, h = run_encode(p, ids)
            return float(h.value @ probe)

        tape, h = run_encode(params, ids)
        loss = ad.matmul(h, tape.const(probe))
        grads = backprop(loss)

        emb = params["enc.emb"]
        assert isinstance(grads["enc.emb"], RowGrad)
        np.testing.assert_array_equal(grads["enc.emb"].ids, [1, 2, 3, 5, 9])
        g = grads["enc.emb"].dense()
        rng = np.random.default_rng(2)
        flat_idx = rng.choice(emb.size, size=20, replace=False)
        for idx in flat_idx:
            r, c = np.unravel_index(idx, emb.shape)
            h_step = 1e-5
            old = emb[r, c]
            emb[r, c] = old + h_step
            up = loss_value(params)
            emb[r, c] = old - h_step
            down = loss_value(params)
            emb[r, c] = old
            fd = (up - down) / (2 * h_step)
            assert g[r, c] == pytest.approx(fd, rel=1e-4, abs=1e-9)
