"""Convolutional encoder: output shape, PAD behavior, determinism, a
ragged batch against its instances encoded one by one, a group of
channels against its channels encoded one by one, and finite-difference
checks of the gradients over a ragged batch."""

import numpy as np
import pytest

from domaingate import autodiff as ad
from domaingate.autodiff import ParamBinder, RowGrad, Tape, backprop
from domaingate.encoder import EncoderConfig, encode, pack
from domaingate.models import Model, ModelConfig
from domaingate.text import BYTE_LEN, BYTE_VOCAB_SIZE, PAD_ID, tokenize

from conftest import to_float64

TOY = EncoderConfig(embed_dim=5, n_filters=4, windows=(2, 3))


def encoder_params(rng, vocab_size, cfg):
    """A fresh encoder's parameters under the prefix "enc": the channel
    group of a single-channel model, which ``Model.init`` draws first."""
    model = Model.init(ModelConfig("scnn", n_labels=2, n_domains=1, vocab_size=vocab_size,
                                   encoder=cfg), rng)
    return {"enc" + name[len("theta.ch"):]: arr for name, arr in model.params.items()
            if name.startswith("theta.ch.")}


@pytest.fixture
def params():
    return encoder_params(np.random.default_rng(0), 10, TOY)


def run_encode(params, ids, batch=None):
    """Encode one instance (a [1, 1, out_dim] row), or a batch of them."""
    tape = Tape()
    binder = ParamBinder(tape, params)
    return tape, encode(binder, "enc", pack(batch or [ids], TOY), TOY)


class TestShapes:
    def test_output_dim_is_filters_times_windows(self, params):
        _, h = run_encode(params, [1, 2, 3, 4, 5, 6])
        assert h.value.shape == (1, 1, TOY.out_dim) == (1, 1, 8)

    def test_full_scale_dims_default(self):
        cfg = EncoderConfig()
        assert cfg.embed_dim == 300
        assert cfg.windows == (3, 4, 5)
        assert cfg.out_dim == 384

    def test_output_dim_independent_of_length(self, params):
        for n in (1, 2, 5, 40):
            _, h = run_encode(params, list(np.arange(n) % 10))
            assert h.value.shape == (1, 1, 8)

    def test_short_input_left_padded(self, params):
        # a single token is padded up to the largest window
        _, h = run_encode(params, [4])
        assert h.value.shape == (1, 1, 8)
        _, padded = run_encode(params, [0, 0, 4])
        np.testing.assert_array_equal(h.value, padded.value)

    def test_pack_strips_trailing_pad_and_left_pads(self):
        # The positions hold the rows of the sorted distinct ids.
        seqs = [[5, 6, 0, 0], [4], [0, 0], [1, 2, 3, 0]]
        batch = pack(seqs, TOY)
        np.testing.assert_array_equal(batch.ids[batch.index],
                                      [0, 5, 6, 0, 0, 4, 0, 0, 0, 1, 2, 3])
        np.testing.assert_array_equal(batch.ids, np.unique(batch.ids))
        np.testing.assert_array_equal(batch.starts, [0, 3, 6, 9, 12])
        assert batch.size == 4
        padded = pack([s + [0] * 3 for s in seqs], TOY)
        for field in ("ids", "index", "starts"):
            np.testing.assert_array_equal(getattr(padded, field), getattr(batch, field))

    def test_empty_rejected(self, params):
        with pytest.raises(ValueError, match="batch position 1"):
            run_encode(params, None, batch=[[1, 2], []])


class TestValues:
    def test_all_pad_zero_embeddings_gives_zero_vector(self, params):
        p = {k: v.copy() for k, v in params.items()}
        p["enc.emb"][:] = 0.0
        for w in TOY.windows:
            p[f"enc.conv{w}.b"][:] = 0.0
        _, h = run_encode(p, [0, 0, 0, 0])
        np.testing.assert_array_equal(h.value, np.zeros((1, 1, 8)))

    def test_trailing_pad_invariance(self, params):
        ids = [3, 7, 2, 9, 4]
        _, h1 = run_encode(params, ids)
        _, h2 = run_encode(params, ids + [0, 0, 0])
        np.testing.assert_array_equal(h1.value, h2.value)

    def test_byte_text_encodes_as_with_the_old_padding(self):
        # Byte tokenization used to pad every text to BYTE_LEN ids.
        params = encoder_params(np.random.default_rng(0), BYTE_VOCAB_SIZE, TOY)
        ids = tokenize("a short byte text", "byte")
        padded = ids + [PAD_ID] * (BYTE_LEN - len(ids))
        short, long = pack([ids], TOY), pack([padded], TOY)
        np.testing.assert_array_equal(short.ids[short.index], long.ids[long.index])
        np.testing.assert_array_equal(run_encode(params, ids)[1].value,
                                      run_encode(params, padded)[1].value)

    def test_permuting_beyond_window_reach_only_moves_maxima(self):
        # brute force on a toy vocab: the pooled value for each filter is
        # the max over window dot products, so reordering windows (by
        # permuting blocks farther apart than any window) cannot change it
        cfg = EncoderConfig(embed_dim=3, n_filters=2, windows=(2,))
        p = encoder_params(np.random.default_rng(5), 8, cfg)
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
            return encode(ParamBinder(tape, p), "enc", pack([ids], cfg), cfg).value

        a = pooled(wrap(block1, block2))
        b = pooled(wrap(block2, block1))
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_inference_encode_deterministic(self, params):
        ids = [1, 5, 3, 2]
        _, h1 = run_encode(params, ids)
        _, h2 = run_encode(params, ids)
        np.testing.assert_array_equal(h1.value, h2.value)

    def test_batch_rows_match_instances_encoded_alone(self, params):
        # A 1-token instance, one exactly as long as the widest window, a
        # trailing-PAD one and a long one: each row of the ragged batch is
        # that instance's own encoding.
        seqs = [[4], [7, 8, 6], [3, 7, 2, 9, 4, 0, 0], list(np.arange(40) % 10)]
        _, rows = run_encode(params, None, batch=seqs)
        assert rows.value.shape == (4, 1, 8)
        for row, ids in zip(rows.value, seqs):
            np.testing.assert_allclose(row, run_encode(params, ids)[1].value[0],
                                       rtol=1e-13, atol=1e-15)


# A ragged batch: a 1-token instance (left-padded), one exactly as long
# as the widest window, and a longer one with a repeated id.
BATCH = [[1, 5, 3, 2, 9, 9], [4], [7, 8, 6]]


class TestGradients:
    # The oracles run the encoder in float64, at today's tolerances.
    @pytest.fixture
    def params(self, params):
        return to_float64(params)

    def _check_fd(self, params, name, grad, n=20, seed=2):
        probe = np.random.default_rng(1).normal(size=(len(BATCH), 1, TOY.out_dim))

        def loss_value():
            return float(np.sum(run_encode(params, None, batch=BATCH)[1].value * probe))

        arr = params[name]
        rng = np.random.default_rng(seed)
        for idx in rng.choice(arr.size, size=min(n, arr.size), replace=False):
            i = np.unravel_index(idx, arr.shape)
            h_step = 1e-5
            old = arr[i]
            arr[i] = old + h_step
            up = loss_value()
            arr[i] = old - h_step
            down = loss_value()
            arr[i] = old
            fd = (up - down) / (2 * h_step)
            assert grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-9)

    def _grads(self, params):
        probe = np.random.default_rng(1).normal(size=(len(BATCH), 1, TOY.out_dim))
        tape, h = run_encode(params, None, batch=BATCH)
        return backprop(ad.reduce_sum(ad.mul(h, tape.const(probe))))

    def test_embedding_gradient_matches_fd(self, params):
        grads = self._grads(params)
        assert isinstance(grads["enc.emb"], RowGrad)
        # PAD (0) is looked up by the left-padded instance
        np.testing.assert_array_equal(grads["enc.emb"].ids, [0, 1, 2, 3, 4, 5, 6, 7, 8, 9])
        self._check_fd(params, "enc.emb", grads["enc.emb"].dense())

    @pytest.mark.parametrize("name", ["enc.conv2.w", "enc.conv3.w", "enc.conv3.b"])
    def test_convolution_gradients_match_fd(self, params, name):
        self._check_fd(params, name, self._grads(params)[name])


class TestChannelGroup:
    def test_group_is_its_channels_encoded_alone_bitwise(self):
        # A group of k = 3 channels drawn by Model.init, given nonzero
        # biases; channel c is slice c of every parameter's last axis. Over the ragged batch (instance 1 is shorter than the
        # widest window) the group's rows, and the gradients of its table,
        # weights and biases, are the three one-channel encoders' bits.
        k, n = 3, len(BATCH)
        rng = np.random.default_rng(3)
        model = Model.init(ModelConfig("mcnn", n_labels=2, n_domains=1, vocab_size=10,
                                       k=k, encoder=TOY), rng)
        group = {"enc" + name[len("theta.ch"):]: arr for name, arr in model.params.items()
                 if name.startswith("theta.ch.")}
        for w in TOY.windows:
            group[f"enc.conv{w}.b"] = rng.normal(size=k * TOY.n_filters).astype(np.float32)
        probe = rng.normal(size=(n, k, TOY.out_dim))

        def run(params, probe):
            tape, h = run_encode(params, None, batch=BATCH)
            return h.value, backprop(ad.reduce_sum(ad.mul(h, tape.const(probe))))

        h, grads = run(group, probe)
        assert h.shape == (n, k, TOY.out_dim)
        for c in range(k):
            alone = {name: np.ascontiguousarray(
                arr[..., c * (arr.shape[-1] // k):(c + 1) * (arr.shape[-1] // k)])
                for name, arr in group.items()}
            h_c, grads_c = run(alone, probe[:, c:c + 1])
            assert h[:, c:c + 1].tobytes() == h_c.tobytes()
            for name, g in grads.items():
                g_c, part = grads_c[name], alone[name].shape[-1]
                if isinstance(g, RowGrad):
                    np.testing.assert_array_equal(g.ids, g_c.ids)
                    g, g_c = g.values, g_c.values
                assert g.dtype == g_c.dtype == np.float32, name
                assert g[..., c * part:(c + 1) * part].tobytes() == \
                    np.ascontiguousarray(g_c).tobytes(), name
