"""Adam: the in-place update, given a dense or a row gradient, reproduces
the dense update of Kingma & Ba bitwise, including the momentum a row
keeps moving by in steps where it has no gradient."""

import numpy as np
import pytest

from domaingate import optim
from domaingate.autodiff import RowGrad
from domaingate.optim import AdamState, adam_step

# Elements per update block: one row per block, blocks of 4 rows with a
# partial last block on the 6-row table, and the default (one block).
BLOCKS = [1, 16, optim._BLOCK]


def dense_adam_step(params, grads, state):
    """Reference: the dense update with full-size temporaries."""
    state.step += 1
    bc1 = 1.0 - state.beta1 ** state.step
    bc2 = 1.0 - state.beta2 ** state.step
    for name, g in grads.items():
        p = params[name]
        m = state.m.setdefault(name, np.zeros_like(p))
        v = state.v.setdefault(name, np.zeros_like(p))
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        m_hat = m / bc1
        v_hat = v / bc2
        p -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)


def assert_same_state(params, state, ref_params, ref_state):
    assert state.step == ref_state.step
    for name in ref_params:
        np.testing.assert_array_equal(params[name], ref_params[name])
        np.testing.assert_array_equal(state.m[name], ref_state.m[name])
        np.testing.assert_array_equal(state.v[name], ref_state.v[name])


@pytest.mark.parametrize("block", BLOCKS)
def test_dense_update_matches_reference_bitwise(block, monkeypatch):
    monkeypatch.setattr(optim, "_BLOCK", block)
    rng = np.random.default_rng(0)
    p0 = {"w": rng.normal(size=(7, 5)), "b": rng.normal(size=5), "s": np.array(0.3)}
    params, ref = ({n: a.copy() for n, a in p0.items()} for _ in range(2))
    state, ref_state = AdamState(lr=1e-2), AdamState(lr=1e-2)
    for _ in range(3):
        grads = {n: rng.normal(size=a.shape) for n, a in p0.items()}
        adam_step(params, grads, state)
        dense_adam_step(ref, grads, ref_state)
        assert_same_state(params, state, ref, ref_state)


@pytest.mark.parametrize("block", BLOCKS)
def test_row_gradients_match_dense_adam_bitwise(block, monkeypatch):
    monkeypatch.setattr(optim, "_BLOCK", block)
    # Row sets {a,b}, {b,c}, {}, {a}: a row absent from a step still moves
    # by its momentum, which an update of the gradient's rows alone
    # ("lazy" Adam) would skip.
    rng = np.random.default_rng(1)
    rows, width = 6, 4
    params = {"emb": rng.normal(size=(rows, width))}
    ref = {"emb": params["emb"].copy()}
    state, ref_state = AdamState(lr=1e-2), AdamState(lr=1e-2)
    moved = []
    for ids in ([1, 4], [4, 5], [], [1]):
        g = RowGrad(np.array(ids, dtype=np.int64),
                    rng.normal(size=(len(ids), width)), rows)
        before = params["emb"].copy()
        adam_step(params, {"emb": g}, state)
        dense_adam_step(ref, {"emb": g.dense()}, ref_state)
        assert_same_state(params, state, ref, ref_state)
        moved.append(np.flatnonzero(np.any(params["emb"] != before, axis=1)).tolist())
    # Every row that has had a gradient keeps moving, in the empty step
    # too; rows 0, 2 and 3 never move.
    assert moved == [[1, 4], [1, 4, 5], [1, 4, 5], [1, 4, 5]]


@pytest.mark.parametrize("first_dense", [False, True])
def test_mixed_dense_and_row_steps_keep_dense_result(first_dense):
    # Orders row, dense, row and dense, row: a dense step leaves every row
    # with moments that later row steps must keep moving.
    rng = np.random.default_rng(2)
    params = {"emb": rng.normal(size=(5, 3))}
    ref = {"emb": params["emb"].copy()}
    state, ref_state = AdamState(lr=1e-2), AdamState(lr=1e-2)
    steps = [RowGrad(np.array([2]), rng.normal(size=(1, 3)), 5),
             rng.normal(size=(5, 3)),
             RowGrad(np.array([0]), rng.normal(size=(1, 3)), 5)]
    if first_dense:
        steps = steps[1:]
    for g in steps:
        adam_step(params, {"emb": g}, state)
        dense_adam_step(ref, {"emb": g.dense() if isinstance(g, RowGrad) else g},
                        ref_state)
        assert_same_state(params, state, ref, ref_state)


def test_moments_are_created_once():
    params = {"w": np.ones((3, 2)), "emb": np.ones((4, 2))}
    state = AdamState()
    grads = {"w": np.full((3, 2), 0.5),
             "emb": RowGrad(np.array([1]), np.ones((1, 2)), 4)}
    adam_step(params, grads, state)
    first = {n: (state.m[n], state.v[n]) for n in params}
    adam_step(params, grads, state)
    for n in params:
        assert state.m[n] is first[n][0] and state.v[n] is first[n][1]
