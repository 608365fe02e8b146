"""The matrix-product word path, kept as a reference.

Before word_path decomposed its letters as one stack, it took each
letter's polar parts one at a time (retract, then R(-angle) M
symmetrised, then eigh) and evaluated a batch of t as the product
prefix_k @ R(theta) @ (Q diag(w^stretch) Q^T) of three stacked matmuls.
These are those routines.  The stacked path must agree with this one up
to regrouped rounding, and refine to the same sample counts.
"""

from itertools import accumulate

import numpy as np

import chernlab.liftgroup as lg
from chernlab.errors import DomainError


def reference_polar_parts(m):
    """Angle and SPD factor of m = R(angle) @ P."""
    angle = lg.retract(m)
    p = lg.rotation(-angle) @ m
    return angle, (p + p.T) / 2.0


def _rotation_stack(c, s):
    """The matrices [[c, s], [-s, c]], stacked over the shape of c and s."""
    out = np.empty(np.shape(c) + (2, 2))
    out[..., 0, 0], out[..., 0, 1] = c, s
    out[..., 1, 0], out[..., 1, 1] = -s, c
    return out


def reference_word_path(elements):
    """word_path as three stacked matrix products per batch of t."""
    letters = [
        e for e in elements
        if e.lift != 0.0 or not np.array_equal(e.matrix, lg.IDENTITY)
    ] or [lg.COVER_IDENTITY]
    n = len(letters)
    w, q = np.linalg.eigh([reference_polar_parts(e.matrix)[1] for e in letters])
    if np.any(w <= 0.0):
        raise DomainError("polar factor is not positive definite")
    lift, logw = np.array([e.lift for e in letters]), np.log(w)
    qt = q.swapaxes(1, 2)
    prefix = np.array(list(
        accumulate((e.matrix for e in letters), np.matmul, initial=lg.IDENTITY)
    ))

    def path(t):
        t = np.asarray(t, dtype=float)
        k = np.minimum(np.floor(t * n), n - 1).astype(np.intp)
        s = t * n - k
        theta = np.minimum(2.0 * s, 1.0) * lift[k]
        stretch = np.maximum(2.0 * s - 1.0, 0.0)
        out = (
            prefix[k] @ _rotation_stack(np.cos(theta), np.sin(theta))
            @ ((q[k] * np.exp(stretch[..., None] * logw[k])[..., None, :]) @ qt[k])
        )
        out[t == 0.0] = lg.IDENTITY
        out[t == 1.0] = prefix[n]
        return out

    return path
