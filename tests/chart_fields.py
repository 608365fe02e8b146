"""Constant connections, constant vector fields and the end velocity of a
trajectory: small builders the geometry tests use and the library does not."""

import numpy as np

import chernlab.geometry as ge


def constant_connection(gamma, chart=None) -> ge.ChartConnection:
    gamma = np.asarray(gamma, dtype=float)
    dim = gamma.shape[0]
    return ge.ChartConnection(dim, lambda p: gamma, chart or ge.free_chart(dim))


def coordinate_field(i: int, dim: int):
    e = np.zeros(dim)
    e[i] = 1.0
    return lambda p: e


def constant_field(v):
    arr = np.asarray(v, dtype=float)
    return lambda p: arr


def end_velocity(traj: ge.Trajectory) -> np.ndarray:
    return np.asarray(traj.velocities[-1])
