"""Instance documents and random admissible instance generation.

An instance is a JSON object with a `particles` array of {x, m, v, theta}
records (in increasing x) plus optional `t_end`, `seed` and `tolerances`
overrides.  Unknown keys are rejected so that fuzz reproductions round-trip
unambiguously; serialization uses repr-exact floats for the same reason.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InstanceFormatError
from .model import InitialData, validate
from .tolerances import Tolerances

_TOP_KEYS = {"particles", "t_end", "seed", "tolerances"}
_PARTICLE_KEYS = {"x", "m", "v", "theta"}
_TOL_KEYS = {"abs", "rel"}


@dataclass(frozen=True)
class Instance:
    data: InitialData
    t_end: float | None = None
    seed: int | None = None
    tolerances: Tolerances = Tolerances()


def parse_instance(text: str) -> Instance:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal longer than int() converts
        raise InstanceFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InstanceFormatError("instance document must be a JSON object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise InstanceFormatError(f"unknown top-level keys: {sorted(unknown)}")
    particles = doc.get("particles")
    if not isinstance(particles, list) or not particles:
        raise InstanceFormatError("`particles` must be a non-empty array")
    xs, ms, vs, ths = [], [], [], []
    for i, p in enumerate(particles):
        if not isinstance(p, dict):
            raise InstanceFormatError(f"particle {i} must be an object")
        unknown = set(p) - _PARTICLE_KEYS
        if unknown:
            raise InstanceFormatError(f"particle {i} has unknown keys: {sorted(unknown)}")
        missing = _PARTICLE_KEYS - set(p)
        if missing:
            raise InstanceFormatError(f"particle {i} is missing keys: {sorted(missing)}")
        for column, key in ((xs, "x"), (ms, "m"), (vs, "v"), (ths, "theta")):
            column.append(_number(p[key], f"particle {i} field '{key}'"))
    t_end = doc.get("t_end")
    if t_end is not None:
        t_end = _nonnegative(t_end, "`t_end`")
    seed = doc.get("seed")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
        raise InstanceFormatError("`seed` must be an integer")
    tol = Tolerances()
    if "tolerances" in doc:
        tdoc = doc["tolerances"]
        if not isinstance(tdoc, dict) or set(tdoc) - _TOL_KEYS:
            raise InstanceFormatError("`tolerances` must be an object with keys 'abs'/'rel'")
        tol = Tolerances(
            abs_tol=_nonnegative(tdoc.get("abs", tol.abs_tol), "tolerance 'abs'"),
            rel_tol=_nonnegative(tdoc.get("rel", tol.rel_tol), "tolerance 'rel'"),
        )
    data = validate(xs, ms, vs, ths)
    return Instance(data, t_end, seed, tol)


def _number(value, what: str) -> float:
    """A JSON number as a float.  Strings, booleans and null are not numbers,
    though Python's float() would take "0.5" and True."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InstanceFormatError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:  # an integer literal beyond binary64
        raise InstanceFormatError(f"{what} is out of range: {exc}") from exc


def _finite(value, what: str) -> float:
    out = _number(value, what)
    if not math.isfinite(out):
        raise InstanceFormatError(f"{what} must be finite, got {out}")
    return out


def _nonnegative(value, what: str) -> float:
    out = _finite(value, what)
    if out < 0.0:
        raise InstanceFormatError(f"{what} must be non-negative, got {out!r}")
    return out


def load_instance(path: str | Path) -> Instance:
    return parse_instance(Path(path).read_text())


def instance_dict(
    data: InitialData,
    t_end: float | None = None,
    seed: int | None = None,
    tolerances: Tolerances | None = None,
) -> dict:
    """The instance document as plain JSON-ready Python values."""
    doc: dict = {
        "particles": [
            {"x": float(x), "m": float(m), "v": float(v), "theta": float(th)}
            for x, m, v, th in zip(
                data.positions, data.masses, data.velocities, data.accelerations)
        ]
    }
    if t_end is not None:
        doc["t_end"] = float(t_end)
    if seed is not None:
        doc["seed"] = int(seed)
    if tolerances is not None and tolerances != Tolerances():
        doc["tolerances"] = {"abs": tolerances.abs_tol, "rel": tolerances.rel_tol}
    return doc


def instance_document(
    data: InitialData,
    t_end: float | None = None,
    seed: int | None = None,
    tolerances: Tolerances | None = None,
) -> str:
    """Canonical JSON text; floats serialize via repr so reloading is exact."""
    return json.dumps(instance_dict(data, t_end, seed, tolerances), indent=2)


def random_instance(
    rng: np.random.Generator,
    n_max: int = 12,
    n_min: int = 2,
    admissible: bool = True,
) -> InitialData:
    """Random instance: sorted-uniform positions, log-uniform masses in
    [0.1, 10], standard-normal velocities, standard-normal accelerations
    (sorted descending when admissible)."""
    n = int(rng.integers(n_min, n_max + 1))
    positions = np.sort(rng.uniform(0.0, float(n), n))
    while np.any(np.diff(positions) <= 0):  # pragma: no cover - ties measure zero
        positions = np.sort(rng.uniform(0.0, float(n), n))
    masses = 10.0 ** rng.uniform(-1.0, 1.0, n)
    velocities = rng.normal(0.0, 1.0, n)
    accelerations = rng.normal(0.0, 1.0, n)
    if admissible:
        accelerations = np.sort(accelerations)[::-1]
    return validate(positions, masses, velocities, accelerations)
