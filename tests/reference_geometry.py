"""The transpose-based stacked geometry kernels, kept as a reference.

Before levi_civita's Gamma and _curvature_tensor ran on flat stencil rows,
a stack of points took its stencil as the broadcast p[..., None, :] +
offsets and its index permutations as transposed views: Gamma's
c[k, i, j] = d_i g_jk + d_j g_ik - d_k g_ij from dg.transpose, the 2-D
half-inverse as g[::-1, ::-1].swapaxes times a sign over det, and the
curvature tensor's sum s from transposes of d Gamma and of the quadratic
term.  These are those routines.  The flat-row kernels keep every IEEE
operation, operand and matmul, so they must agree with these bit for bit,
and raise the same DomainError messages.
"""

import numpy as np

import chernlab.geometry as ge
from chernlab.errors import DomainError

_HALF_ADJ_SIGN = np.array([[0.5, -0.5], [-0.5, 0.5]])
_TINY, _HUGE = float(np.finfo(float).tiny), float(np.finfo(float).max)


def reference_half_inverse(gp, p):
    """g^-1 / 2 for each metric of the stack gp: the closed form adj(g)
    (0.5 / det g) for dim 2 when every det is a finite normal float, else
    0.5 inv(g) by LAPACK, which names the first singular point."""
    dim = gp.shape[-1]
    if dim == 2:
        with np.errstate(over="ignore", invalid="ignore"):
            det = gp[..., 0, 0] * gp[..., 1, 1] - gp[..., 0, 1] * gp[..., 1, 0]
        size = np.abs(det)
        if ((size >= _TINY) & (size <= _HUGE)).all():
            scale = _HALF_ADJ_SIGN / det[..., None, None]
            return gp[..., ::-1, ::-1].swapaxes(-1, -2) * scale
    try:
        return 0.5 * np.linalg.inv(gp)
    except np.linalg.LinAlgError as exc:
        flat = gp.reshape(-1, dim, dim)
        bad = np.flatnonzero(np.linalg.det(flat) == 0.0)
        first = p.reshape(-1, dim)[bad[0] if bad.size else 0]
        raise DomainError(f"metric is singular at {first.tolist()}") from exc


def reference_gamma(g, p):
    """Levi-Civita Gamma of the metric field g at the stack p, shape
    (..., dim): the symmetry check, half-inverse and Koszul algebra of the
    stacked path, on a broadcast stencil and transposed views."""
    p = np.asarray(p, dtype=float)
    dim = p.shape[-1]
    gs = ge._field(g, p[..., None, :] + ge._stencil(dim), (dim, dim))
    gp = gs[..., 0, :, :]
    gt = gp.swapaxes(-1, -2)
    if not (gp == gt).all():
        skew = np.subtract(gp, gt, out=np.zeros_like(gp), where=gp != gt)
        skew = np.abs(skew).max(axis=(-2, -1))
        size = np.abs(gp).max(axis=(-2, -1))
        if not ((skew <= 1e-12 * size) & (skew < np.inf)).all():
            raise DomainError("metric must be a symmetric matrix field")
    half_inv = reference_half_inverse(gp, p)
    # dg[..., i, j, k] = d_i g_jk
    dg = (gs[..., 1:dim + 1, :, :] - gs[..., dim + 1:, :, :]) / (2.0 * ge.H_DEFAULT)
    # c[..., k, i, j] = d_i g_jk + d_j g_ik - d_k g_ij
    t = dg.transpose(*range(dg.ndim - 3), -1, -3, -2)
    c = t + t.swapaxes(-1, -2) - dg
    flat_c = c.reshape(c.shape[:-2] + (dim * dim,))
    return (half_inv @ flat_c).reshape(c.shape)


def reference_curvature_tensor(conn, p):
    """r[..., k, l, i, j] = R^k_lij at the stack p from one Gamma call on
    the broadcast stencil, with the index sums as transposed views."""
    dim = conn.dim
    lead = p.shape[:-1]
    n = len(lead)
    gs = ge._field(conn.gamma, p[..., None, :] + ge._stencil(dim), (dim, dim, dim))
    gp = gs[..., 0, :, :, :]
    # dg[..., i, k, j, l] = d_i Gamma^k_jl
    dg = (gs[..., 1:dim + 1, :, :, :] - gs[..., dim + 1:, :, :, :]) / (2.0 * ge.H_DEFAULT)
    # q[..., k, i, j, l] = Gamma^k_im Gamma^m_jl
    q = gp.reshape(lead + (dim * dim, dim)) @ gp.reshape(lead + (dim, dim * dim))
    q = q.reshape(lead + (dim,) * 4)
    # s[..., k, l, i, j] = d_i Gamma^k_jl + Gamma^k_im Gamma^m_jl
    s = (dg.transpose(*range(n), n + 1, n + 3, n, n + 2)
         + q.transpose(*range(n), n, n + 3, n + 1, n + 2))
    return s - s.swapaxes(-1, -2)
