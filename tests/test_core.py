import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stickygas import (
    QuadraticPath,
    cluster_aggregates,
    quadratic_meet_times,
    simulate,
    validate,
)
from stickygas.errors import (
    EmptyInput,
    IdenticalPaths,
    IndexOutOfRange,
    LengthMismatch,
    NonFiniteValue,
    NonIncreasingPositions,
    NonPositiveMass,
    NotOneDimensional,
    PreconditionViolated,
    StickyError,
)
from stickygas.flow import _cluster_sums
from stickygas.model import interval_path, make_cluster
from stickygas.tolerances import Tolerances
from tests.conftest import lattice_instance, random_data
from tests.references import DiscreteMeasure, lemma_quadratic_dominance

finite = st.floats(min_value=-100, max_value=100, allow_nan=False)


class TestValidate:
    def test_constant_acceleration_is_admissible(self):
        d = validate([0, 1], [1, 1], [1, 0], [0, 0])
        assert d.gvp_admissible

    def test_increasing_acceleration_is_not(self):
        d = validate([0, 10], [1, 1], [0, 1], [0, 1])
        assert not d.gvp_admissible

    def test_duplicate_positions_rejected(self):
        with pytest.raises(NonIncreasingPositions):
            validate([1, 1], [1, 1], [0, 0], [0, 0])

    def test_nonpositive_mass_rejected(self):
        with pytest.raises(NonPositiveMass):
            validate([0, 1], [1, 0], [0, 0], [0, 0])

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            validate([], [], [], [])

    def test_unequal_lengths_rejected(self):
        """Used to raise EmptyInput; a StickyError, so the CLI exits 2."""
        with pytest.raises(LengthMismatch):
            validate([0, 1], [1], [0, 0], [0, 0])
        assert issubclass(LengthMismatch, StickyError)
        assert not issubclass(LengthMismatch, EmptyInput)

    @pytest.mark.parametrize("fields", [(0,), (1,), (2,), (3,), (0, 1, 2, 3)])
    def test_two_dimensional_rejected(self, fields):
        """A 2-D column with as many entries as the others used to pass, and
        the row count of the positions became the number of particles."""
        columns = [[0.0, 1.0, 2.0, 3.0], [1.0, 1.0, 1.0, 1.0], [1.0, 0.0, 0.0, -1.0],
                   [0.0, 0.0, 0.0, 0.0]]
        columns = [np.reshape(c, (2, 2)) if k in fields else c for k, c in enumerate(columns)]
        with pytest.raises(NotOneDimensional):
            validate(*columns)

    def test_zero_dimensional_rejected(self):
        """Scalars used to fail in np.diff with a bare ValueError."""
        with pytest.raises(NotOneDimensional):
            validate(0.5, 1.0, 0.0, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", range(4))
    def test_non_finite_rejected(self, field, bad):
        columns = [[0.0, 1.0, 2.0], [1.0, 1.0, 1.0], [1.0, 0.0, -1.0], [0.0, 0.0, 0.0]]
        columns[field][1] = bad
        with pytest.raises(NonFiniteValue):
            validate(*columns)


class TestClusterAggregates:
    def test_singleton_is_the_particle(self, weighted_pair):
        t = 0.37
        cluster, path = make_cluster(weighted_pair, 1, 1)
        assert cluster.mass == 3.0
        assert cluster.acceleration == -1.0
        assert path.derivative(t) == pytest.approx(0.0 + t * -1.0, rel=1e-15)
        assert path(t) == pytest.approx(2.0 + 0.5 * t * t * -1.0, rel=1e-15)

    def test_weighted_pair_at_zero(self, weighted_pair):
        # frozen from the direct-summation oracle
        assert cluster_aggregates(weighted_pair, 0, 1) == (4.0, -0.5, 0.0, 1.5)

    def test_weighted_pair_at_sqrt2(self, weighted_pair):
        vel = interval_path(weighted_pair, 0, 1).derivative(math.sqrt(2))
        # (1*sqrt2 + 3*(-sqrt2))/4 = -sqrt2/2
        assert vel == pytest.approx(-math.sqrt(2) / 2, rel=1e-15)

    def test_index_out_of_range(self, weighted_pair):
        with pytest.raises(IndexOutOfRange):
            cluster_aggregates(weighted_pair, 0, 2)

    @given(st.data())
    @settings(max_examples=200)
    def test_barycentric_split_consistency(self, data):
        n = data.draw(st.integers(2, 10))
        xs = sorted(data.draw(st.lists(
            st.floats(-50, 50), min_size=n, max_size=n, unique=True)))
        ms = data.draw(st.lists(st.floats(0.1, 10), min_size=n, max_size=n))
        vs = data.draw(st.lists(finite, min_size=n, max_size=n))
        ths = data.draw(st.lists(finite, min_size=n, max_size=n))
        t = data.draw(st.floats(0, 10))
        d = validate(xs, ms, vs, ths)
        k = data.draw(st.integers(0, n - 2))
        (c1, p1), (c2, p2), (c, p) = (
            make_cluster(d, g, r) for g, r in ((0, k), (k + 1, n - 1), (0, n - 1)))
        m1, th1, v1, x1 = c1.mass, c1.acceleration, p1.derivative(t), p1(t)
        m2, th2, v2, x2 = c2.mass, c2.acceleration, p2.derivative(t), p2(t)
        m, th, v, x = c.mass, c.acceleration, p.derivative(t), p(t)
        assert m1 + m2 == pytest.approx(m, rel=1e-13)
        for combined, whole in (((m1 * th1 + m2 * th2) / (m1 + m2), th),
                                ((m1 * v1 + m2 * v2) / (m1 + m2), v),
                                ((m1 * x1 + m2 * x2) / (m1 + m2), x)):
            assert combined == pytest.approx(whole, rel=1e-13, abs=1e-13)


def numpy_scalar_aggregates(data, g, d, t):
    """cluster_aggregates as it was written over numpy scalars at time t, kept
    as the reference for the Python-float sums at t = 0."""
    idx = range(g, d + 1)
    m, x, v, th = data.masses, data.positions, data.velocities, data.accelerations

    def running(values):
        total = 0.0
        for val in values:
            total += val
        return total

    mass = running(m[j] for j in idx)
    force = running(m[j] * th[j] for j in idx)
    momentum = running(m[j] * (v[j] + t * th[j]) for j in idx)
    moment = running(m[j] * (x[j] + t * (v[j] + 0.5 * t * th[j])) for j in idx)
    return float(mass), float(force / mass), float(momentum / mass), float(moment / mass)


def numpy_scalar_cluster_sums(data, g, r, t):
    """flow._cluster_sums as it was written over numpy scalars."""
    idx = range(g, r + 1)
    mass = math.fsum(data.masses[j] for j in idx)
    pos = math.fsum(data.masses[j] * (data.positions[j] + t * (
        data.velocities[j] + 0.5 * t * data.accelerations[j])) for j in idx) / mass
    vel = math.fsum(data.masses[j] * (data.velocities[j] + t * data.accelerations[j])
                    for j in idx) / mass
    acc = math.fsum(data.masses[j] * data.accelerations[j] for j in idx) / mass
    return pos, vel, acc


def sum_cases():
    """(data, times): random and integer-lattice instances at their event
    times and at random times, signed zeros, and sums that overflow."""
    cases = []
    for seed in range(12):
        data, rng = random_data(seed + 9100)
        cases.append((data, [*simulate(data).event_times, *rng.uniform(0.0, 5.0, 3)]))
        data = lattice_instance(seed + 9200, 9)
        cases.append((data, [*simulate(data).event_times, *rng.uniform(0.0, 5.0, 3)]))
    zeros = validate([-1.0, -0.0, 2.0], [1.0, 2.0, 0.5], [-0.0, 0.0, -0.0], [-0.0, -0.0, 0.0])
    cases.append((zeros, [0.0, -0.0, 1.5]))
    huge = validate([0.0, 1e300, 1.5e308], [1e300, 3.0, 1e10], [1e300, -1e300, 1e-300],
                    [1e10, -1e10, -1e300])
    cases.append((huge, [0.0, 1e-5, 1e10]))
    return cases


def outcome(fn, *args):
    """repr of fn(*args), or the name of the exception it raised."""
    try:
        return repr(fn(*args))
    except (OverflowError, ValueError) as exc:  # math.fsum's overflow, inf - inf
        return type(exc).__name__


class TestPythonFloatSums:
    """The per-atom sums over InitialData.atoms give the floats of the same
    sums over numpy scalars, bit for bit, without overflow warnings:
    cluster_aggregates those of the t-dependent sums at t = 0 and -0.0,
    flow._cluster_sums those at every time."""

    def test_aggregates_and_cluster_sums_are_bitwise_equal(self):
        checked = 0
        for data, times in sum_cases():
            timeline = simulate(data)
            for g, d in ((g, d) for g in range(data.n) for d in range(g, data.n)):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = outcome(cluster_aggregates, data, g, d)
                    cluster, _ = make_cluster(data, g, d)
                for t in (0.0, -0.0):
                    with np.errstate(all="ignore"):
                        assert got == outcome(numpy_scalar_aggregates, data, g, d, t), (g, d, t)
                for t in times:
                    with np.errstate(all="ignore"):
                        ref_sums = outcome(numpy_scalar_cluster_sums, data, g, d, t)
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        assert outcome(_cluster_sums, timeline, cluster, t) == ref_sums
                    checked += 1
        assert checked > 3000

    def test_atoms_are_cached_python_floats(self, weighted_pair):
        atoms = weighted_pair.atoms
        assert weighted_pair.atoms is atoms
        assert [type(v) for column in atoms for v in column] == [float] * 8
        assert atoms == (weighted_pair.positions.tolist(), weighted_pair.masses.tolist(),
                         weighted_pair.velocities.tolist(),
                         weighted_pair.accelerations.tolist())


class TestTolerances:
    @pytest.mark.parametrize("bad", [-1e-9, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["abs_tol", "rel_tol"])
    def test_negative_or_non_finite_rejected(self, field, bad):
        with pytest.raises(PreconditionViolated):
            Tolerances(**{field: bad})

    def test_zero_accepted(self):
        assert Tolerances(abs_tol=0.0, rel_tol=0.0) == Tolerances(0.0, 0.0)


class TestMeetTimes:
    def test_linear_case(self):
        roots = quadratic_meet_times(QuadraticPath(0, 1, 0), QuadraticPath(1, 0, 0), 0.0)
        assert [r.time for r in roots] == [1.0]

    def test_quadratic_case(self):
        roots = quadratic_meet_times(QuadraticPath(0, 0, 1), QuadraticPath(2, 0, -1), 0.0)
        assert [r.time for r in roots] == pytest.approx([math.sqrt(2)], rel=1e-15)

    def test_identical_paths(self):
        p = QuadraticPath(0.5, -1.0, 2.0)
        with pytest.raises(IdenticalPaths):
            quadratic_meet_times(p, p, 0.0)

    def test_tangency_reported_once(self):
        # (t-1)^2 = 0: paths t^2/2*2 ... p - q = t^2 - 2t + 1
        p = QuadraticPath(1.0, -2.0, 2.0)
        q = QuadraticPath(0.0, 0.0, 0.0)
        roots = quadratic_meet_times(p, q, 0.0)
        assert len(roots) == 1
        assert roots[0].double
        assert roots[0].time == pytest.approx(1.0)

    def test_after_filter_is_strict(self):
        roots = quadratic_meet_times(QuadraticPath(0, 1, 0), QuadraticPath(1, 0, 0), 1.0)
        assert roots == []

    @given(st.data())
    @settings(max_examples=300)
    def test_roots_are_crossings(self, data):
        coeffs = [data.draw(st.floats(-10, 10)) for _ in range(6)]
        p = QuadraticPath(*coeffs[:3])
        q = QuadraticPath(*coeffs[3:])
        try:
            roots = quadratic_meet_times(p, q, -100.0)
        except IdenticalPaths:
            return
        for r in roots:
            assert abs(p(r.time) - q(r.time)) <= 1e-9 * (1.0 + abs(p(r.time)))


class TestDominanceLemma:
    def test_parabola_beats_line(self):
        assert lemma_quadratic_dominance(
            QuadraticPath(0, 0, 2), QuadraticPath(0, 1, 0), 0.0, 1.0)

    def test_curvature_precondition(self):
        with pytest.raises(PreconditionViolated):
            lemma_quadratic_dominance(
                QuadraticPath(0, 1, 0), QuadraticPath(0, 0, 2), 0.0, 1.0)

    def test_identical_precondition(self):
        p = QuadraticPath(0, 1, 0)
        with pytest.raises(PreconditionViolated):
            lemma_quadratic_dominance(p, p, 0.0, 1.0)

    def _random_case(self, rng):
        """Q1 = Q2 + D with D'' >= 0, D(t0) <= 0 <= D(t1), D not identically 0."""
        t0 = rng.uniform(-5, 5)
        t1 = t0 + rng.uniform(0.1, 5)
        d2 = rng.uniform(0, 3) if rng.random() < 0.8 else 0.0
        g0 = -rng.uniform(0, 3)
        g1 = rng.uniform(0, 3)
        if g0 == 0.0 and g1 == 0.0 and d2 == 0.0:
            g1 = 1.0
        q2 = QuadraticPath(rng.normal(), rng.normal(), rng.normal())

        def dval(s):
            lin = g0 + (g1 - g0) * (s - t0) / (t1 - t0)
            return lin + 0.5 * d2 * (s - t0) * (s - t1)

        # recover D's coefficients from three samples
        c2 = d2
        c1 = (g1 - g0) / (t1 - t0) - 0.5 * d2 * (t0 + t1)
        c0 = dval(0.0)
        q1 = QuadraticPath(q2.c0 + c0, q2.c1 + c1, q2.c2 + c2)
        return q1, q2, t0, t1

    def test_randomized_always_true(self):
        rng = np.random.default_rng(42)
        for _ in range(10_000):
            q1, q2, t0, t1 = self._random_case(rng)
            assert lemma_quadratic_dominance(q1, q2, t0, t1)

    def test_against_dense_sampling_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            q1, q2, t0, t1 = self._random_case(rng)
            claimed = lemma_quadratic_dominance(q1, q2, t0, t1)
            grid = np.linspace(t1 + 1e-6, t1 + 100.0, 2000)
            sampled = all(q1(s) > q2(s) for s in grid)
            assert claimed == sampled or sampled  # sampling can only miss dips


class TestDiscreteMeasure:
    def test_coalesce_sums_weights(self):
        m = DiscreteMeasure.from_pairs([(1.0, 0.5), (1.0, 0.25), (2.0, 0.25)])
        assert m.coalesced().atoms == ((1.0, 0.75), (2.0, 0.25))

    def test_probability_view(self):
        m = DiscreteMeasure.from_pairs([(0.0, 0.5), (3.0, 0.5)])
        assert m.is_probability()
        assert not DiscreteMeasure.from_pairs([(0.0, -0.5), (3.0, 1.5)]).is_probability()

    def test_signed_difference(self):
        diff = DiscreteMeasure.from_pairs([(0.0, 1.0), (0.0, -0.25), (1.0, -0.75)]).coalesced()
        assert diff.atoms == ((0.0, 0.75), (1.0, -0.75))
        assert abs(diff.total()) < 1e-15


# Public library names that only the tests call, kept public on purpose.
PUBLIC_TEST_ONLY = {
    "FlowField", "threshold_crossing_measure", "initial_limits_check",
    "continuity_conditions_check", "interior_condition", "is_left_endpoint",
    "clusters_from_gvp", "classical_clusters",
}


def test_every_public_name_has_a_caller():
    """Each public top-level def or class of the library is used by other
    code in the library (a re-export in __init__ does not count) or in
    scripts/, or is listed in PUBLIC_TEST_ONLY.  Checks that only tests use
    belong in tests/references.py."""
    root = Path(__file__).resolve().parents[1]
    defined, used = {}, []  # name -> module; (module, top-level name, names used)
    sources = sorted((root / "src" / "stickygas").glob("*.py"))
    sources += sorted((root / "scripts").glob("*.py"))
    for path in sources:
        if path.name == "__init__.py":
            continue
        module = path.relative_to(root).as_posix()
        for stmt in ast.parse(path.read_text()).body:
            name = getattr(stmt, "name", None)
            if (path.parent.name == "stickygas"
                    and isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    and not name.startswith("_")):
                defined[name] = module
            names = {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(stmt)
                     if isinstance(n, (ast.Name, ast.Attribute))}
            used.append((module, name, names))
    uncalled = {name for name, module in defined.items()
                if not any(name in names for m, owner, names in used
                           if (m, owner) != (module, name))}
    assert sorted(uncalled - PUBLIC_TEST_ONLY) == []
    assert sorted(PUBLIC_TEST_ONLY - uncalled) == []


def test_every_export_resolves():
    import stickygas

    assert [name for name in stickygas.__all__ if not hasattr(stickygas, name)] == []
    assert len(set(stickygas.__all__)) == len(stickygas.__all__)
