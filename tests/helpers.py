"""Constructors that only the tests use: random elements and matrices, the dense embedding, the
identity map and model families, and the linear-algebra route of lift_fixed_point."""

import numpy as np

from cpfix.cpsemi import cp_map, make_family, mixture_family_with_data
from cpfix import fixpoint
from cpfix.fixpoint import fixed_space
from cpfix.matcore import random_complex
from cpfix.vnalg import AlgebraElement, BlockStructure, compress, element_from_coords


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    g = random_complex(rng, n, n)
    return 0.5 * (g + g.conj().T)


def random_element(structure: BlockStructure, rng: np.random.Generator) -> AlgebraElement:
    """One random_complex draw per block, in block order."""
    return AlgebraElement(structure, tuple(random_complex(rng, n, n) for n in structure.block_dims))


def embed(x: AlgebraElement) -> np.ndarray:
    """Block-diagonal matrix of size space_dim x space_dim."""
    t = x.structure.space_dim
    out = np.zeros((t, t), dtype=complex)
    for b, s in zip(x.blocks, x.structure.space_slices()):
        out[s, s] = b
    return out


def identity_map(structure: BlockStructure):
    """The identity map of a structure, one identity Kraus operator per block."""
    kraus = {(i, i): [np.eye(n, dtype=complex)] for i, n in enumerate(structure.block_dims)}
    return cp_map(structure, structure, kraus)


def identity_family(structure: BlockStructure, d: int = 1):
    return make_family([identity_map(structure) for _ in range(d)])


def mixture_family(seed, **kwargs):
    """The family of mixture_family_with_data, without its weights and phases."""
    return mixture_family_with_data(seed, **kwargs)[0]


def linear_lift(instance, y: AlgebraElement) -> AlgebraElement:
    """The element of M^alpha that compresses to y, by least squares on the fixed basis."""
    fs = fixed_space(instance.alpha)
    comp = np.column_stack([compress(instance.emb, b).coords() for b in fs.basis])
    coeff, *_ = np.linalg.lstsq(comp, y.coords(), rcond=None)
    return element_from_coords(instance.structure, fs.matrix @ coeff)


def loose_dual_kernels(monkeypatch):
    """A `fixpoint._kernels` whose W is cut at 1e-2 and whose B at FIXED_TOL, so their dimensions can differ."""
    kernels = fixpoint._kernels

    def loose(family):
        with monkeypatch.context() as m:
            m.setattr(fixpoint, "FIXED_TOL", 1e-2)
            w = kernels.__wrapped__(family)[1]
        return kernels(family)[0], w

    return loose
