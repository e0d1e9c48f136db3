"""Additive characters of F_p and Weil indices of scalars in closed form.

gamma(a) is one of +1, -1, +i, -i, and products of these are exact in complex
doubles, so every value built from it is exact and compared with `==`.
`approx_eq` is left for the float oracles: the lattice model of `schrodinger`
and the Gauss sum by direct summation, `quadform.weil_index_bruteforce`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ZeroFormClass
from .field import Fp, SquareClass


def approx_eq(x: complex, y: complex, tol: float = 1e-8, scale: float = 1.0) -> bool:
    """Approximate equality with tolerance tol * max(1, scale)."""
    return abs(x - y) <= tol * max(1.0, scale)


class AdditiveCharacter:
    """psi(x) = exp(2 pi i * scale * x / p), a nontrivial character of (F_p, +).

    Also provides the Weil index gamma(a) of the scalar quadratic form a x^2,
    normalized so |gamma(a)| = 1:

        gamma(a) = p^(-1/2) * sum_x psi((1/2) a x^2) = eps_p * legendre(scale * a / 2)

    where 1/2 is the field element (p+1)/2 and eps_p is 1 for p = 1 mod 4, i else.
    """

    __slots__ = ("field", "scale", "_roots", "_gamma_cache")

    def __init__(self, field: Fp, scale: int = 1) -> None:
        self.field = field
        scale %= field.p
        if scale == 0:
            raise ValueError("character scale must be nonzero mod p")
        self.scale = scale
        self._roots = np.exp(2j * math.pi * np.arange(field.p) / field.p)
        self._gamma_cache: dict[int, complex] = {}

    @property
    def p(self) -> int:
        return self.field.p

    def psi(self, x: int) -> complex:
        return complex(self._roots[(self.scale * x) % self.p])

    def psi_array(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=np.int64)
        return self._roots[(self.scale * xs) % self.p]

    def gamma(self, a: int) -> complex:
        a %= self.p
        if a == 0:
            raise ZeroFormClass("gamma is undefined at 0")
        g = self._gamma_cache.get(a)
        if g is None:
            sign = self.field.legendre(self.scale * self.field.half * a)
            g = self._gamma_cache[a] = complex(sign, 0) if self.p % 4 == 1 else complex(0, sign)
        return g

    def gamma_class(self, cls: SquareClass) -> complex:
        return self.gamma(cls.rep)

    def chi(self, a: int) -> complex:
        """The quadratic character as gamma(-1) * gamma(a); equals legendre(a)."""
        return self.gamma(-1) * self.gamma(a)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, AdditiveCharacter)
            and other.field == self.field
            and other.scale == self.scale
        )

    def __hash__(self) -> int:
        return hash(("AdditiveCharacter", self.p, self.scale))

    def __repr__(self) -> str:
        return f"AdditiveCharacter(p={self.p}, scale={self.scale})"
