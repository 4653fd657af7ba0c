"""Finite atomic measures with signed weights.

Used for mass distributions over positions or velocities and for the signed
jump measures collected at shock times.  Atoms at coinciding locations are
coalesced by summing weights before any comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

from .tolerances import DEFAULT_TOL, Tolerances


@dataclass(frozen=True)
class DiscreteMeasure:
    atoms: tuple[tuple[float, float], ...]  # (location, weight)

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[float, float]]) -> "DiscreteMeasure":
        return DiscreteMeasure(tuple((float(x), float(w)) for x, w in pairs))

    def coalesced(self, tol: Tolerances = DEFAULT_TOL) -> "DiscreteMeasure":
        """Merge atoms whose locations agree within tol.abs_tol (weight-averaged
        location, summed weight); drops atoms with exactly zero weight."""
        if not self.atoms:
            return self
        ordered = sorted(self.atoms)
        groups: list[list[tuple[float, float]]] = [[ordered[0]]]
        for loc, w in ordered[1:]:
            if loc - groups[-1][-1][0] <= tol.abs_tol:
                groups[-1].append((loc, w))
            else:
                groups.append([(loc, w)])
        merged = []
        for grp in groups:
            weight = math.fsum(w for _, w in grp)
            mass = math.fsum(abs(w) for _, w in grp)
            if mass == 0.0:
                continue
            loc = math.fsum(x * abs(w) for x, w in grp) / mass
            if weight != 0.0:
                merged.append((loc, weight))
        return DiscreteMeasure(tuple(merged))

    def integrate(self, f: Callable[[float], float]) -> float:
        return math.fsum(w * f(x) for x, w in self.atoms)

    def total(self) -> float:
        return math.fsum(w for _, w in self.atoms)

    def first_moment(self) -> float:
        return math.fsum(w * x for x, w in self.atoms)

    def is_probability(self, tol: float = 1e-12) -> bool:
        return all(w > 0 for _, w in self.atoms) and abs(self.total() - 1.0) <= tol

    def minus(self, other: "DiscreteMeasure", tol: Tolerances = DEFAULT_TOL) -> "DiscreteMeasure":
        """Signed difference self - other, coalesced."""
        combined = list(self.atoms) + [(x, -w) for x, w in other.atoms]
        return DiscreteMeasure(tuple(combined)).coalesced(tol)
