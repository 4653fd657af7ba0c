import math

import numpy as np
import pytest

from stickygas import (
    position_space_residuals,
    simulate,
    threshold_crossing_measure,
    validate,
    velocity_space_fields,
    velocity_space_residuals,
)
from stickygas.errors import TimeOutOfRange, WindowOutOfRange
from stickygas.gas import (
    _gauss_legendre,
    _gauss_legendre_rule,
    _gauss_nodes,
    _group_velocity_atoms,
    _knot_crossings,
    congestion_onset_delay,
    continuity_conditions_check,
    force_jump_total,
    initial_limits_check,
    initial_velocity_law,
    jump_measure,
    velocity_coincidence_times,
)
from stickygas.instances import random_instance
from stickygas.measures import DiscreteMeasure
from stickygas.testfunctions import (
    TestFunction,
    bump,
    covering_test_functions,
    cubic_bspline,
    finite_difference_mismatch,
)
from stickygas.tolerances import DEFAULT_TOL, Tolerances
from tests.conftest import lattice_instance, random_data


def plateau(lo: float, hi: float, ramp: float) -> TestFunction:
    """C^1 cutoff equal to 1 on [lo, hi] with cosine ramps outside."""

    def f(x):
        x = np.asarray(x, dtype=float)
        left = 0.5 * (1 + np.cos(np.pi * np.clip((lo - x) / ramp, 0, 1)))
        right = 0.5 * (1 + np.cos(np.pi * np.clip((x - hi) / ramp, 0, 1)))
        return left * right

    def df(x, h=1e-7):
        return (f(np.asarray(x) + h) - f(np.asarray(x) - h)) / (2 * h)

    return TestFunction("plateau", f, df, (lo - ramp, hi + ramp), (lo - ramp, lo, hi, hi + ramp))


def _crossing_union(c0, c1, c2, knots, a, b):
    """Sorted distinct knot crossings in (a, b) of all the paths together."""
    found = _knot_crossings(c0, c1, c2, knots, a, b)
    return sorted(set(found[~np.isnan(found)].tolist()))


def _adaptive_integral(tl, t1, t2, make_integrand, kinks):
    """scipy.integrate.quad over the pieces the residuals integrate over."""
    from scipy.integrate import quad

    cuts = [t1] + [s for s in tl.event_times if t1 < s < t2] + [t2]
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        rows = tl.rows_at(a)
        integrand = make_integrand(rows)
        pieces = [a, *kinks(rows, a, b), b]
        for lo, hi in zip(pieces[:-1], pieces[1:]):
            total += quad(integrand, lo, hi, epsabs=1e-13, epsrel=1e-13, limit=200)[0]
    return total


def _accelerations(tl, rows):
    """The accelerations of the clusters at `rows`, read off the lives."""
    return np.array([tl.lives[r].cluster.acceleration for r in rows.tolist()])


def _adaptive_position_reference(tl, f, t1, t2):
    """(mass transport, momentum transport, source) with scalar integrands."""
    M = tl.total_mass
    c = tl.columns

    def make(kind):
        def make_integrand(rows):
            wgt, c0, c1, c2 = c.mass[rows] / M, c.c0[rows], c.c1[rows], c.c2[rows]
            theta = _accelerations(tl, rows)

            def integrand(t):
                pos = c0 + t * (c1 + 0.5 * t * c2)
                vel = c1 + t * c2
                if kind == "mass":
                    return float(wgt @ (f.prime(pos) * vel))
                if kind == "momentum":
                    return float(wgt @ (f.prime(pos) * vel * vel))
                return float(wgt @ (f(pos) * theta))

            return integrand
        return make_integrand

    def kinks(rows, a, b):
        return _crossing_union(c.c0[rows], c.c1[rows], c.c2[rows], f.knots, a, b)

    return tuple(_adaptive_integral(tl, t1, t2, make(kind), kinks)
                 for kind in ("mass", "momentum", "source"))


def _adaptive_velocity_reference(tl, f, t1, t2):
    """(flux transport, second-moment transport) with scalar integrands."""
    M = tl.total_mass
    c = tl.columns

    def make(power):
        def make_integrand(rows):
            wgt, c1, c2 = c.mass[rows] / M, c.c1[rows], c.c2[rows]
            theta = _accelerations(tl, rows)
            return lambda t: float(wgt @ (f.prime(c1 + t * c2) * theta ** power))
        return make_integrand

    def kinks(rows, a, b):
        c2 = c.c2[rows]
        return _crossing_union(c.c1[rows], c2, np.zeros_like(c2), f.knots, a, b)

    return tuple(_adaptive_integral(tl, t1, t2, make(p), kinks) for p in (1, 2))


def _position_kinks_loop(paths, knots, los, his):
    """Per-path loop over (c0, c1, c2) position paths, each inside its own
    span (lo, hi), that the vectorised knot-crossing search must reproduce
    bit for bit: one sorted list of distinct crossings per path."""
    out = []
    for (c0, c1, c2), a, b in zip(paths, los, his):
        found = []
        for knot in knots:
            if c2 != 0.0:
                disc = c1 * c1 - 2.0 * c2 * (c0 - knot)
                if disc <= 0.0:
                    continue
                sq = math.sqrt(disc)
                for r in ((-c1 - sq) / c2, (-c1 + sq) / c2):
                    if a < r < b:
                        found.append(r)
            elif c1 != 0.0:
                r = (knot - c0) / c1
                if a < r < b:
                    found.append(r)
        out.append(sorted(set(found)))
    return out


def _velocity_kinks_loop(paths, knots, los, his):
    """Per-path loop over the velocities c1 + c2 t of (c0, c1, c2) paths."""
    out = []
    for (_, c1, c2), a, b in zip(paths, los, his):
        found = []
        if c2 != 0.0:
            for knot in knots:
                r = (knot - c1) / c2
                if a < r < b:
                    found.append(r)
        out.append(sorted(set(found)))
    return out


def _left_law(tl, s):
    """Velocity law and conditional mean acceleration at the left limit at
    s, grouped like velocity_space_fields but from the rows of the left limit."""
    c, rows = tl.columns, tl.rows_at(s, left=True)
    mu, w, _ = _group_velocity_atoms(c.c1[rows] + s * c.c2[rows], c.mass[rows] / tl.total_mass,
                                     _accelerations(tl, rows), DEFAULT_TOL)
    return mu, w


def _grouped_velocity_terms(tl, f, t1, t2):
    """(lhs, jump) of both velocity-space equations from the grouped law:
    f at each velocity atom, weighted by the atom mass and, for momentum,
    the conditional mean acceleration w, summed with math.fsum."""

    def terms(mu, w):
        return mu.integrate(f), math.fsum(wt * wi * float(f(v)) for (v, wt), wi in zip(mu.atoms, w))

    fl2, fl1 = velocity_space_fields(tl, t2), velocity_space_fields(tl, t1)
    (m2, wm2), (m1, wm1) = terms(fl2.mu, fl2.w), terms(fl1.mu, fl1.w)
    j_mu = j_wmu = 0.0
    for s in tl.event_times:
        if t1 < s <= t2:
            fl = velocity_space_fields(tl, s)
            (r_mu, r_wmu), (l_mu, l_wmu) = terms(fl.mu, fl.w), terms(*_left_law(tl, s))
            j_mu += r_mu - l_mu
            j_wmu += r_wmu - l_wmu
    return (m2 - m1, j_mu), (wm2 - wm1, j_wmu)


def _group_velocity_atoms_loop(vels, wgts, gammas, tol):
    """Per-group loop the vectorised grouping must reproduce bit for bit."""
    order = np.argsort(vels, kind="stable")
    atoms, ws, avars = [], [], []
    i = 0
    n = len(order)
    while i < n:
        j = i + 1
        while j < n and vels[order[j]] - vels[order[j - 1]] <= tol.abs_tol:
            j += 1
        sel = order[i:j]
        weight = float(wgts[sel].sum())
        v = float((wgts[sel] * vels[sel]).sum() / weight)
        w = float((wgts[sel] * gammas[sel]).sum() / weight)
        a = float((wgts[sel] * (gammas[sel] - w) ** 2).sum() / weight)
        atoms.append((v, weight))
        ws.append(w)
        avars.append(a)
        i = j
    return DiscreteMeasure(tuple(atoms)), tuple(ws), tuple(avars)


def _coincidence_times_loop(tl):
    """Pairwise loop the vectorised coincidence search must reproduce."""
    t_max = tl.t_end
    if np.isinf(t_max):
        t_max = (tl.event_times[-1] + 1.0) if tl.events else 1.0
    out = set()
    for s in range(tl.n_segments):
        paths = [tl.lives[r].path for r in tl.segment_rows(s).tolist()]
        k = len(paths)
        hi = min(tl.bounds[s + 1], t_max)
        for i in range(k):
            for j in range(i + 1, k):
                dc2 = paths[i].c2 - paths[j].c2
                dc1 = paths[j].c1 - paths[i].c1
                if dc2 == 0.0:
                    continue
                tc = dc1 / dc2
                if tl.bounds[s] < tc < hi and tc > 0.0:
                    out.add(tc)
    return sorted(out)


def _window_edge_cases():
    """(timeline, t1, t2) with a window edge on a shock or at t_end: t1 on a
    shock (outside (t1, t2]) and t2 on a later one (inside); a finite t_end
    on a shock, with t2 = t_end; a finite t_end past the last shock, with
    t2 = t_end (the lives alive there end at no shock)."""
    runs = [simulate(random_data(seed + 19_000)[0]) for seed in range(10)]
    runs += [simulate(lattice_instance(seed + 19_100, 4 + seed)) for seed in range(6)]
    cases = []
    for full in runs:
        if not full.events:
            continue
        ts = sorted(set(full.event_times))
        if len(ts) >= 3:
            cases += [(full, ts[0], ts[-1]), (full, ts[1], ts[-1] + 1.0)]
        t_end = full.event_times[(len(full.events) - 1) // 2]
        tl = simulate(full.initial, t_end=t_end)
        # the shock at t_end closes a segment and opens an empty one
        assert tl.event_times[-1] == tl.bounds[-2] == tl.bounds[-1] == t_end
        cases.append((tl, 0.05 * t_end, t_end))
        tl = simulate(full.initial, t_end=full.event_times[-1] + 0.5)
        assert tl.event_times == full.event_times
        cases.append((tl, 0.05 * tl.t_end, tl.t_end))
    assert len(cases) >= 40
    return cases


class TestGaussLegendre:
    @pytest.mark.parametrize("n", [7, 8])
    def test_rule_matches_leggauss(self, n):
        nodes, weights = _gauss_legendre_rule(n)
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(n)
        assert np.abs(nodes - ref_nodes).max() <= 4 * np.finfo(float).eps
        assert np.abs(weights - ref_weights).max() <= 8 * np.finfo(float).eps

    def test_exact_for_degree_twelve(self):
        rng = np.random.default_rng(15_000)
        for _ in range(200):
            p = np.polynomial.Polynomial(rng.normal(size=int(rng.integers(1, 14))))
            lo = rng.uniform(-3.0, 3.0)
            hi = lo + rng.uniform(1e-3, 4.0)
            pieces = np.sort(np.concatenate([[lo, hi], rng.uniform(lo, hi, 3)]))
            a, b = pieces[:-1], pieces[1:]
            ((value, gap),) = _gauss_legendre(a, b, [p(_gauss_nodes(a, b))])
            antiderivative = p.integ()
            exact = antiderivative(hi) - antiderivative(lo)
            # rounding of a 15-term sum per piece, relative to the integrand's size
            scale = (hi - lo) * float(np.abs(p(np.linspace(lo, hi, 201))).max())
            assert abs(value - exact) <= 1e-13 * scale
            assert gap <= 1e-13 * scale

    def test_gap_reports_what_the_rule_misses(self):
        p = np.polynomial.Polynomial([0.0] * 16 + [1.0])  # t^16: beyond degree 15
        a, b = np.array([0.0]), np.array([1.0])
        ((value, gap),) = _gauss_legendre(a, b, [p(_gauss_nodes(a, b))])
        assert abs(value - 1.0 / 17.0) > 1e-10
        assert gap >= abs(value - 1.0 / 17.0)

    def test_integrals_in_one_call_equal_one_at_a_time(self):
        rng = np.random.default_rng(15_100)
        pieces = np.sort(rng.uniform(-2.0, 2.0, 6))
        ps = [np.polynomial.Polynomial(rng.normal(size=k)) for k in (3, 9, 17)]
        a, b = pieces[:-1], pieces[1:]
        t = _gauss_nodes(a, b)
        together = _gauss_legendre(a, b, [p(t) for p in ps])
        alone = [_gauss_legendre(a, b, [p(t)])[0] for p in ps]
        assert repr(together) == repr(alone)


def _knot_cases():
    """(paths, knots, los, his), one span (lo, hi) per path: segments of
    simulated runs and their cluster lives, random and integer coefficients,
    and the edge cases of the root formulas."""
    cases = []
    for seed in range(20):
        data, rng = random_data(seed + 15_200)
        tl = simulate(data)
        hi = 1.2 * tl.event_times[-1] if tl.events else 1.0
        cuts = [0.05 * hi, *tl.event_times, hi]
        knots = []
        for a, b in zip(cuts[:-1], cuts[1:]):
            if b <= a:
                continue
            rows = tl.rows_at(a)
            c0, c1, c2 = (col[rows] for col in (tl.columns.c0, tl.columns.c1, tl.columns.c2))
            xs = c0 + a * (c1 + 0.5 * a * c2)
            vs = c1 + a * c2
            seg_knots = [k for v in (xs, vs) for f in covering_test_functions(v) for k in f.knots]
            n = len(rows)
            cases.append((list(zip(c0, c1, c2)), seg_knots, [a] * n, [b] * n))
            knots += seg_knots
        # every life over its own span inside [0.05 hi, hi], as the weak form
        # cuts them
        c = tl.columns
        first, last, c0, c1, c2 = c.first, c.last, c.c0, c.c1, c.c2
        bounds = np.asarray(tl.bounds)
        los = np.maximum(bounds[first], cuts[0])
        his = np.minimum(bounds[last + 1], hi)
        keep = los < his
        cases.append((list(zip(c0[keep], c1[keep], c2[keep])), knots,
                      los[keep].tolist(), his[keep].tolist()))
    rng = np.random.default_rng(15_300)
    spans = np.random.default_rng(15_400)
    for _ in range(200):
        n = int(rng.integers(1, 8))
        paths = list(zip(*(rng.integers(-3, 4, (3, n)) * rng.choice([1.0, 0.5], (3, n)))))
        a = float(rng.integers(-2, 2))
        knots = rng.integers(-4, 5, 5).astype(float)
        b = a + float(rng.integers(1, 4))
        cases.append((paths, knots, [a] * n, [b] * n))
        # the same paths, each span shifted on its own
        los = a + 0.5 * spans.integers(-2, 3, n)
        cases.append((paths, knots, los.tolist(), (los + b - a).tolist()))
    cases += [
        ([(0.0, 1.0, 0.0)], [0.5, 2.0], [0.0], [1.0]),     # c2 = 0: affine root
        ([(0.3, 0.0, 0.0)], [0.3, 1.0], [0.0], [1.0]),     # c1 = c2 = 0: none
        ([(1.0, -2.0, 2.0)], [0.0], [-5.0], [5.0]),        # disc = 0: tangency, none
        ([(1.0, -2.0, 2.0)], [-1.0], [-5.0], [5.0]),       # disc < 0: none
        ([(0.0, 0.0, 2.0)], [1.0], [1.0], [3.0]),          # root t = 1 is the span start
        ([(0.0, 0.0, 2.0)], [1.0], [-3.0], [-1.0]),        # root t = -1 is the span end
        ([(0.0, 1.0, 0.0)], [2.0], [0.5], [2.0]),          # affine root at the span end
        ([(0.0, 1.0, 2.0), (5.0, 2.0, 0.0)], [], [0.0, 0.0], [1.0, 1.0]),  # no knots
        # one path, two spans: the root is inside the first only
        ([(0.0, 1.0, 0.0), (0.0, 1.0, 0.0)], [0.5], [0.0, 0.5], [1.0, 2.0]),
    ]
    return cases


def _distinct(row):
    """The crossings of one path, as the sorted distinct floats the loops give."""
    return sorted(set(row[~np.isnan(row)].tolist()))


class TestKnotCrossings:
    def test_equal_to_per_path_loops(self):
        def bits(values):
            # a set holds one zero, and which sign the loop keeps depends on
            # the order it visits roots in: + 0.0 maps -0.0 to 0.0 and leaves
            # every other float as it is
            return repr([v + 0.0 for v in values])

        found = 0
        for paths, knots, los, his in _knot_cases():
            # the loops run on Python floats, as on QuadraticPath coefficients
            paths = [tuple(map(float, path)) for path in paths]
            knots = [float(k) for k in knots]
            c0, c1, c2 = (np.array(c, dtype=float).reshape(-1) for c in zip(*paths))
            expected = _position_kinks_loop(paths, knots, los, his)
            got = _knot_crossings(c0, c1, c2, knots, los, his)
            assert [bits(_distinct(row)) for row in got] == [bits(e) for e in expected]
            # velocity c1 + c2 t as the quadratic (c1, c2, 0)
            expected_v = _velocity_kinks_loop(paths, knots, los, his)
            got_v = _knot_crossings(c1, c2, np.zeros_like(c2), knots, los, his)
            assert [bits(_distinct(row)) for row in got_v] == [bits(e) for e in expected_v]
            found += any(expected) + any(expected_v)
        assert found >= 100

    def test_edge_cases(self):
        def crossings(path, knots, a, b):
            (row,) = _knot_crossings(*(np.array([c]) for c in path), knots, a, b)
            return _distinct(row)

        assert crossings((0.0, 1.0, 0.0), [0.5, 2.0], 0.0, 1.0) == [0.5]
        assert crossings((0.3, 0.0, 0.0), [0.3], 0.0, 1.0) == []
        assert crossings((1.0, -2.0, 2.0), [0.0], -5.0, 5.0) == []
        assert crossings((1.0, -2.0, 2.0), [-1.0], -5.0, 5.0) == []
        assert crossings((0.0, 0.0, 2.0), [1.0], 1.0, 3.0) == []
        assert crossings((0.0, 0.0, 2.0), [1.0], 0.5, 3.0) == [1.0]
        assert crossings((0.0, 0.0, 2.0), [1.0], -3.0, 3.0) == [-1.0, 1.0]
        # each path keeps to its own span
        both = _knot_crossings(np.zeros(2), np.ones(2), np.zeros(2), [0.5, 1.5],
                               [0.0, 1.0], [1.0, 2.0])
        assert [_distinct(row) for row in both] == [[0.5], [1.5]]


class TestTestFunctions:
    @pytest.mark.parametrize("tf", [bump(0.3, 2.0), cubic_bspline(-1.0, 3.0)])
    def test_derivative_matches_finite_differences(self, tf):
        assert finite_difference_mismatch(tf) <= 1e-6

    @pytest.mark.parametrize("tf", [bump(1.0, 0.5), cubic_bspline(1.0, 0.5)])
    def test_vanishes_with_derivative_outside_support(self, tf):
        lo, hi = tf.support
        for x in (lo - 0.1, hi + 0.1, lo, hi):
            assert tf(x) == pytest.approx(0.0, abs=1e-15)
            assert tf.prime(x) == pytest.approx(0.0, abs=1e-15)


class TestPositionSpace:
    def test_single_free_particle(self, single):
        tl = simulate(single)
        f = bump(0.5, 3.0)
        for report in position_space_residuals(tl, f, 0.2, 1.5):
            assert report.passes
            assert report.jump == 0.0

    def test_straddling_window(self):
        d = validate([0, 1], [1, 1], [1, 0], [0.3, -0.2])
        tl = simulate(d)
        T = tl.event_times[0]
        xs = np.concatenate([tl.positions_at(0.5 * T), tl.positions_at(1.5 * T)])
        for f in covering_test_functions(xs, pad=1.0):
            mass_eq, momentum_eq = position_space_residuals(tl, f, 0.5 * T, 1.5 * T)
            assert abs(mass_eq.residual) <= 1e-8
            assert abs(momentum_eq.residual) <= 1e-8

    def test_quadrature_matches_adaptive_reference(self):
        straddling = validate([0, 1], [1, 1], [1, 0], [0.3, -0.2])
        instances = [straddling] + [random_data(seed + 14_000)[0] for seed in range(30)]
        cases = []
        for data in instances:
            tl = simulate(data)
            hi = 1.2 * tl.event_times[-1] if tl.events else 1.0
            cases.append((tl, 0.05 * hi, hi))
        for tl, t1, t2 in cases + _window_edge_cases():
            xs = np.concatenate([tl.positions_at(t1), tl.positions_at(t2)])
            for f in covering_test_functions(xs, pad=0.5 * (1.0 + float(np.ptp(xs)))):
                mass_eq, momentum_eq = position_space_residuals(tl, f, t1, t2)
                ref = _adaptive_position_reference(tl, f, t1, t2)
                got = (mass_eq.transport, momentum_eq.transport, momentum_eq.source)
                for value, expected in zip(got, ref):
                    assert abs(value - expected) <= 1e-12 * (1.0 + abs(expected))
            vs = np.concatenate([tl.velocities_at(t1), tl.velocities_at(t2),
                                 tl.velocities_at(t2, left=True)])
            for f in covering_test_functions(vs, pad=0.5 * (1.0 + float(np.ptp(vs)))):
                mass_eq, momentum_eq = velocity_space_residuals(tl, f, t1, t2)
                ref = _adaptive_velocity_reference(tl, f, t1, t2)
                for value, expected in zip((mass_eq.transport, momentum_eq.transport), ref):
                    assert abs(value - expected) <= 1e-12 * (1.0 + abs(expected))

    def test_quad_error_is_the_gauss_gap(self):
        d = validate([0, 1], [1, 1], [1, 0], [0.3, -0.2])
        tl = simulate(d)
        T = tl.event_times[0]
        for f in (bump(1.0, 2.0), cubic_bspline(1.0, 2.0)):
            for report in (*position_space_residuals(tl, f, 0.5 * T, 1.5 * T),
                           *velocity_space_residuals(tl, f, 0.5 * T, 1.5 * T)):
                assert report.quad_error <= 1e-15
        # cosine ramps are not polynomials: the 8- and 7-node rules disagree
        mass_eq, momentum_eq = position_space_residuals(tl, plateau(0.2, 0.8, 0.5),
                                                        0.5 * T, 1.5 * T)
        assert mass_eq.quad_error >= 1e-12
        assert momentum_eq.quad_error >= 1e-12

    def test_zero_acceleration_kills_source(self, head_on):
        tl = simulate(head_on)
        _, momentum_eq = position_space_residuals(tl, bump(1.0, 2.0), 0.5, 1.5)
        assert momentum_eq.source == 0.0
        assert momentum_eq.passes

    def test_window_validation(self, timeline_head_on):
        with pytest.raises(WindowOutOfRange):
            position_space_residuals(timeline_head_on, bump(), 0.0, 1.0)
        with pytest.raises(WindowOutOfRange):
            position_space_residuals(timeline_head_on, bump(), 1.0, 0.5)

    def test_non_finite_window_end_rejected(self, timeline_head_on):
        # t_end = inf admits t2 = inf in the range test alone
        assert timeline_head_on.t_end == math.inf
        for residuals in (position_space_residuals, velocity_space_residuals):
            for t2 in (math.inf, math.nan):
                with pytest.raises(WindowOutOfRange):
                    residuals(timeline_head_on, bump(), 0.5, t2)

    def test_non_finite_field_time_rejected(self, timeline_head_on):
        for t in (math.inf, -math.inf, math.nan):
            with pytest.raises(TimeOutOfRange):
                velocity_space_fields(timeline_head_on, t)


class TestVelocityFields:
    def test_designed_instance_at_coincidence(self, congestion_pair):
        tl = simulate(congestion_pair)
        fl = velocity_space_fields(tl, 1.0)
        assert fl.mu.atoms == ((1.0, 1.0),)
        assert fl.w == (0.5,)
        assert fl.a[0] == pytest.approx(0.25, abs=1e-12)

    def test_designed_instance_off_coincidence(self, congestion_pair):
        tl = simulate(congestion_pair)
        fl = velocity_space_fields(tl, 0.5)
        assert [v for v, _ in fl.mu.atoms] == pytest.approx([0.5, 1.0])
        assert fl.a == (0.0, 0.0)

    def test_variance_zero_before_onset(self, congestion_pair):
        tl = simulate(congestion_pair)
        T = tl.event_times[0]
        delta = congestion_onset_delay(congestion_pair, T)
        assert delta == pytest.approx(1.0)
        for t in np.linspace(0.01, 0.99 * delta, 25):
            assert max(velocity_space_fields(tl, float(t)).a) == 0.0

    def test_variance_nonnegative_everywhere(self):
        for seed in range(10):
            data, rng = random_data(seed + 11_000)
            tl = simulate(data)
            hi = tl.event_times[-1] + 1.0 if tl.events else 1.0
            for t in rng.uniform(1e-3, hi, 10):
                fl = velocity_space_fields(tl, float(t))
                assert all(a >= 0.0 for a in fl.a)
                assert fl.mu.is_probability()

    def test_coincidence_times_found(self, congestion_pair):
        tl = simulate(congestion_pair)
        assert velocity_coincidence_times(tl, 3.0) == pytest.approx([1.0])

    def test_coincidence_times_equal_pairwise_loop(self):
        found = 0
        for seed in range(40):
            rng = np.random.default_rng(seed + 16_000)
            if seed % 4 == 3:
                # integer lattice: equal accelerations, coincidences at shocks
                n = int(rng.integers(3, 10))
                data = validate(np.sort(rng.choice(20, n, replace=False)),
                                rng.integers(1, 4, n), rng.integers(-2, 3, n),
                                rng.integers(-2, 3, n))
            else:
                data = random_instance(rng, 12, admissible=seed % 2 == 0)
            tl = simulate(data)
            expected = _coincidence_times_loop(tl)
            got = velocity_coincidence_times(tl)
            assert repr(got) == repr(expected)
            found += bool(expected)
        assert found >= 10
        # a subnormal acceleration gap overflows the crossing time to inf
        tl = simulate(validate([0.0, 1.0], [1.0, 1.0], [1.0, 0.0], [1e-310, 0.0]))
        assert velocity_coincidence_times(tl) == _coincidence_times_loop(tl) == []

    def test_grouping_equals_per_group_loop(self):
        tol = Tolerances()
        cases = []
        for seed in range(30):
            data, rng = random_data(seed + 17_000)
            tl = simulate(data)
            times = list(rng.uniform(1e-3, tl.event_times[-1] + 1.0 if tl.events else 1.0, 5))
            times += list(tl.event_times) + velocity_coincidence_times(tl)
            for t in times:
                for rows in (tl.rows_at(t), tl.rows_at(t, left=True)):
                    c = tl.columns
                    cases.append((c.c1[rows] + t * c.c2[rows], c.mass[rows] / tl.total_mass,
                                  _accelerations(tl, rows)))
        rng = np.random.default_rng(17_500)
        for _ in range(300):
            # integer lattice: many clusters share a velocity, some chained
            # within abs_tol of each other
            n = int(rng.integers(1, 25))
            vels = rng.integers(-2, 3, n).astype(float)
            vels += rng.integers(0, 3, n) * 0.6 * tol.abs_tol
            gammas = rng.integers(-3, 4, n) * rng.choice([1.0, 0.1], n)
            wgts = rng.uniform(0.1, 10.0, n)
            cases.append((vels, wgts / wgts.sum(), gammas))
        cases.append((np.array([-0.0, 0.0, -0.0, -0.0]), np.full(4, 0.25),
                      np.array([-0.0, -0.0, 0.0, -0.0])))
        cases.append((np.array([-0.0, 1.0]), np.array([0.5, 0.5]), np.array([-0.0, -0.0])))
        cases.append((np.array([-0.0]), np.array([1.0]), np.array([-0.0])))
        # a gap of exactly abs_tol still chains
        cases.append((np.array([0.0, tol.abs_tol, 3.0]), np.array([0.25, 0.25, 0.5]),
                      np.array([1.0, -1.0, 0.0])))
        cases.append((np.array([0.3]), np.array([1.0]), np.array([-1.7])))
        largest = 0
        for vels, wgts, gammas in cases:
            got = _group_velocity_atoms(vels, wgts, gammas, tol)
            assert repr(got) == repr(_group_velocity_atoms_loop(vels, wgts, gammas, tol))
            largest = max(largest, max(
                np.bincount(np.searchsorted(np.unique(vels), vels)), default=0))
        assert largest >= 3

    def test_weighted_law_totals(self, congestion_pair):
        tl = simulate(congestion_pair)
        assert velocity_space_fields(tl, 0.5).mu.is_probability()
        fl = velocity_space_fields(tl, 1.0)
        weights = [wt for _, wt in fl.mu.atoms]
        assert sum(wt * w for wt, w in zip(weights, fl.w)) == pytest.approx(0.5)
        assert sum(wt * (w * w + a) for wt, w, a in zip(weights, fl.w, fl.a)) == (
            pytest.approx(0.25 + 0.25))


class TestVelocityResiduals:
    def test_no_shock_window(self, congestion_pair):
        tl = simulate(congestion_pair)
        for f in covering_test_functions([0.0, 1.0, 2.0], pad=1.0):
            for report in velocity_space_residuals(tl, f, 0.2, 2.0):
                assert report.jump == 0.0
                assert report.passes

    def test_straddling_window(self, weighted_pair):
        tl = simulate(weighted_pair)
        T = tl.event_times[0]
        vs = np.concatenate([tl.velocities_at(0.5 * T), tl.velocities_at(1.5 * T),
                             tl.velocities_at(T, left=True)])
        for f in covering_test_functions(vs, pad=1.0):
            mass_eq, momentum_eq = velocity_space_residuals(tl, f, 0.5 * T, 1.5 * T)
            assert abs(mass_eq.residual) <= 1e-8
            assert abs(momentum_eq.residual) <= 1e-8
            # dropping the jump term leaves exactly the jump integral behind
            assert mass_eq.residual_without_jumps == pytest.approx(mass_eq.jump, abs=1e-8)
            assert momentum_eq.residual_without_jumps == pytest.approx(
                momentum_eq.jump, abs=1e-8)

    def test_jump_term_with_separating_function(self, weighted_pair):
        tl = simulate(weighted_pair)
        T = tl.event_times[0]
        v_post = tl.velocities_at(T)[0]
        v_pre = tl.velocities_at(T, left=True)
        width = 0.4 * min(abs(v_post - v) for v in v_pre)
        f = bump(float(v_post), float(width))
        mass_eq, momentum_eq = velocity_space_residuals(tl, f, 0.5 * T, 1.5 * T)
        # all mass enters the support at the shock: jump integral is f(v_bar)=1
        assert mass_eq.jump == pytest.approx(1.0, abs=1e-12)
        assert abs(mass_eq.residual) <= 1e-8
        assert abs(mass_eq.residual_without_jumps) == pytest.approx(1.0, abs=1e-8)
        # momentum jump carries the merged mean acceleration
        assert momentum_eq.jump == pytest.approx(-0.5, abs=1e-12)
        assert abs(momentum_eq.residual) <= 1e-8


    def test_shock_at_window_edge(self, weighted_pair):
        """A shock at t1 lies outside the window (t1, t2], one at t2 inside."""
        tl = simulate(weighted_pair)
        T = tl.event_times[0]
        f = bump(0.0, 3.0)
        for report in velocity_space_residuals(tl, f, T, 2.0 * T):
            assert report.jump == 0.0
        for at_shock, past_shock in zip(velocity_space_residuals(tl, f, 0.5 * T, T),
                                        velocity_space_residuals(tl, f, 0.5 * T, 1.5 * T)):
            assert at_shock.jump == past_shock.jump != 0.0

    def test_lhs_and_jump_equal_grouped_law(self):
        """Per-cluster sums against the grouped velocity law.  Each term sums
        weights totalling 1 times |f| <= 1 and, for momentum, |Gamma|; the
        two summation orders and f at an atom's mean of equal velocities
        differ by a few ulps of that scale per endpoint and per shock side."""
        cases = []
        for seed in range(20):
            tl = simulate(random_data(seed + 18_000)[0])
            hi = 1.2 * tl.event_times[-1] if tl.events else 1.0
            cases.append((tl, 0.05 * hi, hi))
        for seed in range(20):
            # integer lattice pile-ups: exactly coincident velocities at shocks
            tl = simulate(lattice_instance(seed + 18_100, 3 + seed % 10))
            if tl.events:
                ts = tl.event_times
                cases += [(tl, 0.5 * ts[0], ts[-1]), (tl, ts[0], ts[-1] + 1.0)]
        # velocities coincide at t = 1 (acceptance criterion 8)
        tl = simulate(validate([0.0, 10.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]))
        cases += [(tl, 0.5, 1.0), (tl, 1.0, 2.0), (tl, 0.5, tl.event_times[0] + 1.0)]
        cases += _window_edge_cases()

        eps = np.finfo(float).eps
        grouped = 0
        for tl, t1, t2 in cases:
            shocks = [s for s in tl.event_times if t1 < s <= t2]
            for t in (t1, t2, *shocks):
                grouped += len(velocity_space_fields(tl, t).mu.atoms) < len(tl.rows_at(t))
            for s in shocks:
                assert abs(force_jump_total(tl, s)) <= 1e-12
            gamma = float(np.abs(tl.initial.accelerations).max())
            vs = np.concatenate([tl.velocities_at(t1), tl.velocities_at(t2),
                                 tl.velocities_at(t2, left=True)])
            for f in covering_test_functions(vs, pad=0.5 * (1.0 + float(np.ptp(vs)))):
                reports = velocity_space_residuals(tl, f, t1, t2)
                refs = _grouped_velocity_terms(tl, f, t1, t2)
                for report, (lhs, jump), scale in zip(reports, refs, (1.0, 1.0 + gamma)):
                    bound = 16 * eps * scale * (1 + len(shocks))
                    assert abs(report.lhs - lhs) <= bound
                    assert abs(report.jump - jump) <= bound
        assert grouped >= 10


def threshold_crossing_loop(tl, interval, t1, t2):
    """Per-particle reference: at each shock in (t1, t2], the mass whose
    velocity lies in the closed interval just after it less the mass just
    before it."""
    lo, hi = interval
    m = tl.initial.masses / tl.total_mass
    total = 0.0
    for s in tl.event_times:
        if t1 < s <= min(t2, tl.t_end):
            right, left = tl.velocities_at(s), tl.velocities_at(s, left=True)
            total += float(m @ (((right >= lo) & (right <= hi)).astype(float)
                                - ((left >= lo) & (left <= hi)).astype(float)))
    return total


class TestThresholdCrossing:
    def test_matches_per_particle_loop(self):
        """Windows reaching below 0 included.  Each side sums at most 3N + S
        rounded terms (S shocks in the window; a life's mass is itself a sum
        of at most N masses) whose magnitudes total at most 2 per shock."""
        eps = np.finfo(float).eps
        cases = [simulate(random_data(seed + 19_000)[0]) for seed in range(60)]
        cases += [simulate(lattice_instance(seed + 19_100, 3 + seed % 10)) for seed in range(20)]
        rng = np.random.default_rng(19_200)
        checked = 0
        for tl in cases:
            hi = 1.2 * tl.event_times[-1] if tl.events else 1.0
            v = tl.sample_velocities(np.linspace(0.0, hi, 50))
            for _ in range(5):
                t1, t2 = np.sort(rng.uniform(-0.5 * hi, hi, 2))
                interval = tuple(np.sort(rng.uniform(v.min(), v.max(), 2)))
                for window in ((t1, t2), (-1.0, hi)):
                    got = threshold_crossing_measure(tl, interval, *window)
                    want = threshold_crossing_loop(tl, interval, *window)
                    shocks = sum(window[0] < s <= window[1] for s in tl.event_times)
                    n = tl.initial.n
                    assert abs(got - want) <= 2 * (3 * n + shocks) * eps * 2 * shocks
                    checked += want != 0.0
        assert checked >= 100

    def test_no_shock_window(self, timeline_head_on):
        assert threshold_crossing_measure(timeline_head_on, (0.0, 1.0), 1.5, 2.5) == 0.0

    def test_mass_enters_target_set(self, timeline_head_on):
        # merged velocity 0.5; pre-shock velocities 1 and 0
        assert threshold_crossing_measure(
            timeline_head_on, (0.4, 0.6), 0.5, 1.5) == pytest.approx(1.0)

    def test_remaining_inside_counts_zero(self, timeline_head_on):
        assert threshold_crossing_measure(
            timeline_head_on, (-5.0, 5.0), 0.5, 1.5) == 0.0


class TestJumpMeasureInvariants:
    @pytest.mark.parametrize("seed", range(15))
    def test_mass_momentum_force_conservation(self, seed):
        data, _ = random_data(seed + 12_000)
        tl = simulate(data)
        assert len(tl.events) <= data.n - 1
        for s in tl.event_times:
            jm = jump_measure(tl, s)
            assert abs(jm.total()) <= 1e-12
            assert abs(jm.first_moment()) <= 1e-10 * (1.0 + max(
                abs(v) for v, _ in jm.atoms)) if jm.atoms else True
            assert abs(force_jump_total(tl, s)) <= 1e-12

    def test_right_continuity_in_the_weak_sense(self, weighted_pair):
        tl = simulate(weighted_pair)
        T = tl.event_times[0]
        f = bump(0.0, 3.0)
        fl = velocity_space_fields(tl, T)
        now = fl.mu.integrate(f)
        just_after = velocity_space_fields(tl, T + 1e-9).mu.integrate(f)
        before = _left_law(tl, T)[0].integrate(f)
        assert abs(just_after - now) <= 1e-6
        assert abs(before - now) > 1e-3


class TestInitialLimits:
    def test_generic_instance_converges(self, congestion_pair):
        tl = simulate(congestion_pair)
        g = bump(0.7, 2.0)  # asymmetric around the velocities {0, 1}
        (entry,) = initial_limits_check(tl, [g])
        assert entry.mass_monotone and entry.flux_monotone
        # linear convergence: two decades of t shrink the gap ~100x
        assert entry.mass_gaps[-1] <= 0.02 * entry.mass_gaps[0]
        assert entry.congestion_values == (0.0, 0.0, 0.0)
        assert not entry.noncommuting  # distinct initial velocities: a_0 = 0

    def test_noncommuting_tied_velocities(self, tied_velocity_pair):
        tl = simulate(tied_velocity_pair)
        (entry,) = initial_limits_check(tl, [bump(0.0, 2.0)])
        assert entry.congestion_initial == pytest.approx(1.0)
        assert entry.congestion_values[-1] == 0.0
        assert entry.noncommuting

    def test_total_mass_is_one(self, congestion_pair):
        tl = simulate(congestion_pair)
        g = plateau(-2.0, 3.0, 1.0)
        for t in (1e-2, 0.5, 1.0, 2.0):
            assert velocity_space_fields(tl, t).mu.integrate(g) == pytest.approx(1.0)

    def test_initial_law_groups_ties(self, tied_velocity_pair):
        mu0, w0, a0 = initial_velocity_law(tied_velocity_pair)
        assert mu0.atoms == ((0.0, 1.0),)
        assert w0 == (0.0,)
        assert a0[0] == pytest.approx(1.0)


class TestContinuityConditions:
    def test_acceleration_function_of_velocity_solves_jump_free_system(self):
        d = validate([0, 1, 3], [1, 1, 2], [2.0, 0.5, -1.0], [0.3, 0.3, 0.3])
        tl = simulate(d)
        report = continuity_conditions_check(
            tl, covering_test_functions([-2, 3], pad=1.0))
        assert report.initial_variance_zero
        assert report.congestion_vanishes_ae
        assert report.pre_shock_reports
        assert all(r.passes for r in report.pre_shock_reports)
        assert all(r.jump == 0.0 for r in report.pre_shock_reports)

    def test_designed_instance_flags_congestion_spike(self, congestion_pair):
        tl = simulate(congestion_pair)
        report = continuity_conditions_check(tl)
        assert any(
            t == pytest.approx(1.0) and v == pytest.approx(1.0) and a == pytest.approx(0.25)
            for t, v, a in report.coincidence_samples)
        assert not report.law_continuous  # the shock sits inside the window

    def test_single_particle_trivially_solves(self, single):
        tl = simulate(single)
        report = continuity_conditions_check(tl, window=(0.1, 1.0))
        assert report.law_continuous
        assert report.congestion_vanishes_ae
        for r in velocity_space_residuals(tl, bump(0.3, 2.0), 0.1, 1.0):
            assert r.passes and r.jump == 0.0
