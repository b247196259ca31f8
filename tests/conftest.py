"""Shared test helpers."""

import math

import numpy as np


class FixedNoise:
    """A generator stand-in whose ``random(shape)`` returns the uniforms
    ``u`` every time, so that a gate draw replays with frozen noise. It
    raises naming the shape when it holds a different count of them."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=np.float64)

    def random(self, shape):
        if self.u.size != math.prod(shape):
            raise ValueError(f"FixedNoise holds {self.u.size} uniforms, "
                             f"asked for shape {tuple(shape)}")
        return self.u.reshape(shape)


class RecordingNoise:
    """A generator stand-in that passes ``random(shape)`` on to ``rng``
    and keeps each array it returns in ``draws``, so that a gate draw's
    noise can be replayed with ``FixedNoise``."""

    def __init__(self, rng):
        self.rng = rng
        self.draws = []

    def random(self, shape):
        u = self.rng.random(shape)
        self.draws.append(u)
        return u


def to_float64(params):
    """Cast every array of a parameter store to float64 in place and return
    the store, so that a model's (float32) encoder runs the same code in
    float64, at the precision a finite-difference oracle needs."""
    for name, arr in params.items():
        params[name] = arr.astype(np.float64)
    return params
