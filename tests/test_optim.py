"""Adam: the in-place update, given a dense or a row gradient, reproduces
the dense update of Kingma & Ba bitwise, including the momentum a row
keeps moving by in steps where it has no gradient. The rows of a table
that have never had a gradient are skipped: they keep p bitwise with
zero moments, and no update is larger than a dense block. A bad
gradient raises before anything changes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domaingate import optim
from domaingate.autodiff import NonFiniteError, RowGrad
from domaingate.optim import AdamState, adam_step

# Elements per update block: one row per block, blocks of 4 rows with a
# partial last block on the 6-row table, and the default (one block).
BLOCKS = [1, 16, optim._BLOCK]


def dense_adam_step(params, grads, state):
    """Reference: the dense update with full-size temporaries."""
    state.step += 1
    bc1 = 1.0 - optim.BETA1 ** state.step
    bc2 = 1.0 - optim.BETA2 ** state.step
    for name, g in grads.items():
        p = params[name]
        m = state.m.setdefault(name, np.zeros_like(p))
        v = state.v.setdefault(name, np.zeros_like(p))
        m *= optim.BETA1
        m += (1.0 - optim.BETA1) * g
        v *= optim.BETA2
        v += (1.0 - optim.BETA2) * g * g
        m_hat = m / bc1
        v_hat = v / bc2
        p -= state.lr * m_hat / (np.sqrt(v_hat) + optim.EPS)


def assert_bitwise(a, b):
    np.testing.assert_array_equal(a, b)
    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def assert_same_state(params, state, ref_params, ref_state):
    assert state.step == ref_state.step
    for name in ref_params:
        assert_bitwise(params[name], ref_params[name])
        assert_bitwise(state.m[name], ref_state.m[name])
        assert_bitwise(state.v[name], ref_state.v[name])


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
    state = AdamState(lr=1e-4)
    grads = {"w": np.full((3, 2), 0.5),
             "emb": RowGrad(np.array([1]), np.ones((1, 2)), 4)}
    adam_step(params, grads, state)
    first = {n: (state.m[n], state.v[n]) for n in params}
    adam_step(params, grads, state)
    for n in params:
        assert state.m[n] is first[n][0] and state.v[n] is first[n][1]


def test_non_finite_step_raises_naming_parameter():
    params = {"w": np.ones((3, 2)), "emb": np.ones((4, 2))}
    grads = {"w": np.full((3, 2), 0.5),
             "emb": RowGrad(np.array([2]), np.array([[np.nan, 1.0]]), 4)}
    with pytest.raises(NonFiniteError, match="'emb'"):
        adam_step(params, grads, AdamState(lr=1e-4))


# A step's gradient for a table: dense, or a RowGrad with no rows, with
# every row, or with the given rows (taken modulo the table's rows).
STEPS = st.one_of(st.sampled_from(["dense", "empty", "all"]),
                  st.frozensets(st.integers(0, 11), min_size=1))


@pytest.mark.parametrize("block", BLOCKS)
@settings(derandomize=True, max_examples=100, deadline=None)
@given(rows=st.integers(1, 12), width=st.integers(1, 3),
       dtype=st.sampled_from([np.float64, np.float32]),
       steps=st.lists(STEPS, min_size=1, max_size=6), seed=st.integers(0, 2**32 - 1))
def test_any_step_sequence_matches_dense_adam_bitwise(block, rows, width, dtype,
                                                      steps, seed):
    rng = np.random.default_rng(seed)
    p0 = rng.standard_normal((rows, width)).astype(dtype)
    params, ref = {"emb": p0.copy()}, {"emb": p0.copy()}
    state, ref_state = AdamState(lr=1e-2), AdamState(lr=1e-2)
    had_grad = np.zeros(rows, dtype=bool)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optim, "_BLOCK", block)
        for step in steps:
            if step == "dense":
                g = dense_g = rng.standard_normal((rows, width)).astype(dtype)
                had_grad[:] = True
            else:
                ids = (np.arange(0) if step == "empty" else np.arange(rows) if step == "all"
                       else np.unique(np.fromiter(step, np.int64) % rows))
                g = RowGrad(ids, rng.standard_normal((ids.size, width)).astype(dtype), rows)
                dense_g = g.dense()
                had_grad[ids] = True
            adam_step(params, {"emb": g}, state)
            dense_adam_step(ref, {"emb": dense_g}, ref_state)
            assert_same_state(params, state, ref, ref_state)
            never = ~had_grad
            assert_bitwise(params["emb"][never], p0[never])
            assert not state.m["emb"][never].any() and not state.v["emb"][never].any()


def test_unknown_parameter_raises_before_any_change():
    params = {"a": np.ones(3), "b": np.ones((2, 2))}
    state = AdamState(lr=0.1)
    with pytest.raises(ValueError, match="'zz'"):
        adam_step(params, {"a": np.full(3, 0.5), "zz": np.ones(2)}, state)
    assert state == AdamState(lr=0.1)
    assert_bitwise(params["a"], np.ones(3))


def test_bad_shape_raises_before_any_change():
    rng = np.random.default_rng(3)
    params = {"a": rng.normal(size=3), "emb": rng.normal(size=(4, 2))}
    state = AdamState(lr=0.1)
    adam_step(params, {"a": rng.normal(size=3),
                       "emb": RowGrad(np.array([1]), rng.normal(size=(1, 2)), 4)}, state)
    before = [params["a"].copy(), params["emb"].copy(),
              state.m["a"].copy(), state.v["a"].copy(),
              state.m["emb"].copy(), state.v["emb"].copy(), state.live["emb"].copy()]
    with pytest.raises(ValueError, match="'emb'"):
        adam_step(params, {"a": np.full(3, 0.5), "emb": np.ones((5, 2))}, state)
    assert state.step == 1 and list(state.live) == ["emb"]
    after = [params["a"], params["emb"], state.m["a"], state.v["a"],
             state.m["emb"], state.v["emb"], state.live["emb"]]
    for x, y in zip(after, before):
        assert_bitwise(x, y)


def test_first_row_gradient_without_rows_takes_no_update():
    p0 = np.random.default_rng(4).normal(size=(5, 3))
    params = {"emb": p0.copy()}
    state = AdamState(lr=0.1)
    adam_step(params, {"emb": RowGrad(np.arange(0), np.zeros((0, 3)), 5)}, state)
    assert state.step == 1
    assert_bitwise(params["emb"], p0)
    assert not state.m["emb"].any() and not state.v["emb"].any()
    assert state.live["emb"].size == 0


@pytest.mark.parametrize("last", ["dense", "all rows"])
def test_updates_stay_within_blocks_and_cover_only_live_rows(last, monkeypatch):
    # A [10,4] table in blocks of 4 rows: [0,4), [4,8), [8,10).
    monkeypatch.setattr(optim, "_BLOCK", 16)
    rows, width = 10, 4
    rng = np.random.default_rng(5)
    params = {"emb": rng.normal(size=(rows, width))}
    state = AdamState(lr=1e-2)
    blocks = [(0, 4), (4, 8), (8, 10)]
    calls = []
    update = optim._update

    def recording(p, *args):
        start = (p.ctypes.data - params["emb"].ctypes.data) // params["emb"].strides[0]
        calls.append((start, start + p.shape[0]))
        update(p, *args)

    monkeypatch.setattr(optim, "_update", recording)

    def step(g):
        calls.clear()
        adam_step(params, {"emb": g}, state)
        return list(calls)

    def row_grad(ids):
        return RowGrad(np.array(ids, dtype=np.int64), rng.normal(size=(len(ids), width)),
                       rows)

    live = set()
    for ids in ([1], [2, 9], [], [3, 5], [4, 7]):
        live |= set(ids)
        slices = step(row_grad(ids))
        assert state.live["emb"].tolist() == sorted(live)
        assert all(a in live and b - 1 in live for a, b in slices)
        holding = [blk for blk in blocks if live & set(range(*blk))]
        assert [blk for blk in blocks for a, b in slices
                if blk[0] <= a and b <= blk[1]] == holding
    # Live rows {1,2,3,4,5,7,9}: the first and last blocks are trimmed.
    assert slices == [(1, 4), (4, 8), (9, 10)]
    if last == "dense":
        slices = step(rng.normal(size=(rows, width)))
    else:
        slices = step(row_grad([0, 6, 8]))
    assert slices == blocks and "emb" not in state.live
    # From then on every step takes today's blocks, a row gradient too.
    assert step(row_grad([1])) == blocks and "emb" not in state.live
