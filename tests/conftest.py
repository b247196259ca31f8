"""Shared test helpers."""

import numpy as np


class FixedNoise:
    """A generator stand-in whose ``random(shape)`` returns the uniforms
    ``u`` every time, so that a gate draw replays with frozen noise."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=np.float64)

    def random(self, shape):
        return self.u.reshape(shape)
