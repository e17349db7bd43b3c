"""Seeded random-object factories and helpers shared by the test modules."""

from __future__ import annotations

import numpy as np

from qbattery.fitting import MODELS
from qbattery.model import ModelParams


def rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_params(gen: np.random.Generator) -> ModelParams:
    e2 = gen.uniform(0.1, 2.0)
    return ModelParams(
        e1=e2 + gen.uniform(0.05, 2.0),
        e2=e2,
        h=gen.uniform(0.0, 3.0),
        k=gen.uniform(0.0, 3.0),
        beta=gen.uniform(0.0, 20.0),
        delta_t=gen.uniform(0.05, 3.0),
    )


def random_density_matrix(gen: np.random.Generator, dim: int = 4) -> np.ndarray:
    a = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
    m = a @ a.conj().T
    return m / np.trace(m).real


def random_pure_state(gen: np.random.Generator, dim: int = 4) -> np.ndarray:
    v = gen.normal(size=dim) + 1j * gen.normal(size=dim)
    return v / np.linalg.norm(v)


def random_hermitian(gen: np.random.Generator, dim: int = 8) -> np.ndarray:
    a = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
    return 0.5 * (a + a.conj().T)


def haar_unitaries(gen: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """Stack of Haar-ish random unitaries via batched QR."""
    z = gen.normal(size=(count, dim, dim)) + 1j * gen.normal(size=(count, dim, dim))
    q, r = np.linalg.qr(z)
    phases = np.einsum("nii->ni", r)
    return q * (phases / np.abs(phases))[:, None, :]


def global_start(model: str, e, y) -> np.ndarray:
    """The global least-squares parameters of a fit family: its solve, the
    best over the whole rate scan."""
    return MODELS[model].solver(np.asarray(e))(np.asarray(y)[None])[0][0]
