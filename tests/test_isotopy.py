import inspect
import math
from dataclasses import astuple

import numpy as np
import pytest

from momentangle import isotopy
from momentangle.isotopy import InjectivityReport, isotopy_batch, isotopy_check

TWO_PI = 2.0 * np.pi


def one_row(angles):
    """A single angle tuple as the (1, k) array the batch map takes."""
    return np.asarray(angles, dtype=float)[None, :]


def standard_torus(k, angles):
    """The standard map that the endpoint check compares t=1 with, on (N, k) angles."""
    a = np.asarray(angles, dtype=float)
    assert a.shape[1] == k
    return isotopy._standard(np.sin(a.T), np.cos(a.T)).T


def circle(a, t):
    """The k = 1 isotopy on a flat array of angles."""
    return isotopy_batch(1, a[:, None], t)


def closed_form_point(angles):
    # iterative restatement of the nested-tube formula, scalar math module,
    # deliberately not sharing code with the vectorized recursion
    k = len(angles)
    nests = [1.0] * (k + 1)
    for i in range(k - 1, 0, -1):
        nests[i] = 1.0 + 0.5 * math.sin(angles[i]) * nests[i + 1]
    out = [math.sin(angles[0]) * nests[1], math.cos(angles[0]) * nests[1]]
    for i in range(2, k + 1):
        out.append(math.cos(angles[i - 1]) * nests[i] / 2 ** (i - 1))
    return np.array(out)


def closed_form_isotopy(angles, t):
    k = len(angles)
    sines = [math.sin(a) for a in angles]
    true_last = sines[k - 1]
    sines[k - 1] *= t
    nests = [1.0] * (k + 1)
    for i in range(k - 1, 0, -1):
        nests[i] = 1.0 + 0.5 * sines[i] * nests[i + 1]
    out = [sines[0] * nests[1], math.cos(angles[0]) * nests[1]]
    for i in range(2, k + 1):
        out.append(math.cos(angles[i - 1]) * nests[i] / 2 ** (i - 1))
    out.append(((1.0 - t) * true_last + t * abs(true_last)) / 2 ** (k - 1))
    return np.array(out)


def stepwise_tube(sins, coss, inner_sin):
    """The first k+1 coordinates on (N, k) tables as the induction states them: each
    step out halves every inner coordinate once more, so x_{i+1} is halved i - 1 times."""
    n, k = sins.shape
    out = np.empty((n, k + 1))
    out[:, k - 1] = inner_sin
    out[:, k] = coss[:, k - 1]
    for i in range(k - 2, -1, -1):
        nest = 1.0 + 0.5 * out[:, i + 1]
        out[:, i + 2 :] *= 0.5
        out[:, i] = sins[:, i] * nest
        out[:, i + 1] = coss[:, i] * nest
    return out


def bits(x):
    """The bit patterns of a float array, so that -0.0, 0.0 and each NaN differ."""
    return np.ascontiguousarray(x).view(np.uint64).tolist()


def flat_distance(a, b):
    """Flat-torus distance between the rows of two (N, k) angle arrays."""
    delta = np.abs(np.asarray(a) - np.asarray(b)) % TWO_PI
    return np.sqrt((np.minimum(delta, TWO_PI - delta) ** 2).sum(axis=1))


class TestStandardTorus:
    def test_matches_closed_form(self):
        rng = np.random.default_rng(7)
        for k in range(1, 7):
            for _ in range(50):
                angles = rng.uniform(0.0, TWO_PI, size=k)
                got = standard_torus(k, one_row(angles))[0]
                assert np.abs(got - closed_form_point(angles)).max() <= 1e-12

    def test_circle(self):
        assert np.allclose(
            standard_torus(1, one_row([np.pi / 2]))[0], [1.0, 0.0], atol=1e-12
        )
        assert np.allclose(
            standard_torus(1, one_row([0.0]))[0], [0.0, 1.0], atol=1e-12
        )

    def test_frozen_two_torus_point(self):
        got = standard_torus(2, one_row([0.0, np.pi / 2]))[0]
        assert np.allclose(got, [0.0, 1.5, 0.0], atol=1e-12)

    def test_zero_inner_angle_reduces_exactly(self):
        rng = np.random.default_rng(11)
        for k in range(2, 6):
            head = rng.uniform(0.0, TWO_PI, size=k - 1)
            pt = standard_torus(k, one_row(list(head) + [0.0]))[0]
            assert np.array_equal(pt[:k], standard_torus(k - 1, one_row(head))[0])
            assert pt[k] == 0.5 ** (k - 1)

    def test_norms_stay_below_two(self):
        rng = np.random.default_rng(5)
        for k in range(1, 6):
            a = rng.uniform(0.0, TWO_PI, size=(20000, k))
            assert np.linalg.norm(standard_torus(k, a), axis=1).max() <= 2.0

    def test_batch_matches_points(self):
        rng = np.random.default_rng(2)
        a = rng.uniform(0.0, TWO_PI, size=(20, 3))
        batch = isotopy_batch(3, a, 0.5)
        for row, angles in zip(batch, a):
            assert np.array_equal(row, isotopy_batch(3, one_row(angles), 0.5)[0])

    def test_deep_nest_halves_once_per_level(self):
        # the tail is subnormal at k = 1024, where a halving can round, so one
        # scaling by 2^-(k-1) is not the same number; this ran out of stack
        # while the nest was recursive
        k = 1024
        angles = np.random.default_rng(3).uniform(0.0, TWO_PI, size=(2, k))
        got = standard_torus(k, angles)
        for point, last_cos in zip(got, np.cos(angles)[:, -1]):
            want = last_cos
            for _ in range(k - 1):
                want *= 0.5
            assert point[-1] == want
        assert np.isfinite(isotopy_batch(k, angles, 0.5)).all()

    @pytest.mark.parametrize("k", [1, 3, 5, 6, 40, 70])
    def test_nest_rounds_as_one_halving_after_another(self, k):
        # tables reaching the subnormal range, with a zero, an infinity and a
        # NaN: where no entry of a coordinate can go subnormal its halvings
        # are one scaling, and the bits must be those of halving once per level
        rng = np.random.default_rng(k)
        n = 400
        sins = rng.uniform(-1.0, 1.0, size=(n, k))
        sins[rng.random((n, k)) < 0.01] = -1.0
        # each cosine column at its own scale, some near the subnormal range
        coss = rng.uniform(-1.0, 1.0, size=(n, k)) * 2.0 ** -rng.integers(0, 1060, size=k)
        coss[5, rng.integers(k)] = 0.0
        coss[6, rng.integers(k)] = -0.0
        coss[7, rng.integers(k)] = np.inf
        coss[8, rng.integers(k)] = np.nan
        coss[9, rng.integers(k)] = 2.0**-1074
        for t, point_map in [(None, isotopy._standard), (0.5, isotopy._deformed(0.5))]:
            inner = sins[:, -1] if t is None else sins[:, -1] * t
            want = stepwise_tube(sins, coss, inner)
            got = point_map(sins.T, coss.T)[: k + 1].T
            assert bits(got) == bits(want)

    def test_maps_return_rows(self):
        # the points come back C-ordered, as before the maps worked on
        # columns, so a row reduction over them rounds as it did
        a = np.random.default_rng(1).uniform(0.0, TWO_PI, size=(50, 9))
        assert isotopy_batch(9, a, 0.5).flags.c_contiguous

    def test_shape_and_range_errors(self):
        with pytest.raises(ValueError, match=">= 1"):
            isotopy_batch(0, np.zeros((1, 1)), 0.5)
        with pytest.raises(ValueError, match="2 angles"):
            isotopy_batch(2, np.zeros((4, 3)), 0.5)


class TestIsotopy:
    def test_matches_closed_form(self):
        rng = np.random.default_rng(13)
        for k in range(1, 6):
            for t in (0.0, 0.25, 0.5, 1.0):
                angles = rng.uniform(0.0, TWO_PI, size=k)
                got = isotopy_batch(k, one_row(angles), t)[0]
                assert np.abs(got - closed_form_isotopy(angles, t)).max() <= 1e-12

    def test_frozen_deformed_point(self):
        got = isotopy_batch(2, one_row([0.0, np.pi / 2]), 1.0)[0]
        assert np.allclose(got, [0.0, 1.5, 0.0, 0.5], atol=1e-12)

    def test_end_stage_restricts_to_standard_exactly(self):
        rng = np.random.default_rng(17)
        for k in range(1, 5):
            a = rng.uniform(0.0, TWO_PI, size=(300, k))
            deformed = isotopy_batch(k, a, 1.0)
            assert np.array_equal(deformed[:, : k + 1], standard_torus(k, a))
            assert (deformed[:, k + 1] >= 0.0).all()

    def test_start_stage_splits_off_round_circle(self):
        rng = np.random.default_rng(19)
        for k in range(1, 5):
            a = rng.uniform(0.0, TWO_PI, size=(300, k))
            flat = isotopy_batch(k, a, 0.0)
            radius = np.hypot(flat[:, k], flat[:, k + 1])
            assert np.abs(radius - 0.5 ** (k - 1)).max() <= 1e-12
            # the base coordinates no longer see the innermost angle
            b = a.copy()
            b[:, k - 1] = rng.uniform(0.0, TWO_PI, size=300)
            assert np.array_equal(isotopy_batch(k, b, 0.0)[:, :k], flat[:, :k])

    def test_lipschitz_ratio_bounded(self):
        rng = np.random.default_rng(23)
        for k in range(1, 5):
            a = rng.uniform(0.0, TWO_PI, size=(20000, k))
            b = (a + rng.uniform(-1e-4, 1e-4, size=a.shape)) % TWO_PI
            gap = flat_distance(a, b)
            images = [(standard_torus(k, a), standard_torus(k, b))]
            images += [(isotopy_batch(k, a, t), isotopy_batch(k, b, t)) for t in (0.0, 0.5, 1.0)]
            for image_a, image_b in images:
                stretch = np.linalg.norm(image_a - image_b, axis=1) / gap
                assert stretch.max() <= 2.0 + 1e-9

    def test_parameter_range(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            isotopy_batch(2, one_row([0.0, 0.0]), 1.5)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            isotopy_batch(2, one_row([0.0, 0.0]), -0.1)


class TestCircleIsotopy:
    def test_start_stage_is_vertical_circle(self):
        for alpha in [0.0, 0.7, np.pi, 4.5]:
            got = circle(np.array([alpha]), 0.0)[0]
            assert np.array_equal(
                got, [0.0, np.cos(alpha), np.sin(alpha) + 0.0]
            )

    def test_frozen_end_stage_points(self):
        a = np.array([np.pi / 2, 3 * np.pi / 2, 0.0])
        expected = [[1.0, 0.0, 1.0], [-1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]
        assert np.allclose(circle(a, 1.0), expected, atol=1e-12)

    def test_end_stage_formula_exact(self):
        rng = np.random.default_rng(29)
        a = rng.uniform(0.0, TWO_PI, size=500)
        s, c = np.sin(a), np.cos(a)
        assert np.array_equal(circle(a, 1.0), np.stack([s, c, np.abs(s)], axis=1))

    def test_second_coordinate_never_moves(self):
        rng = np.random.default_rng(31)
        a = rng.uniform(0.0, TWO_PI, size=400)
        for t in (0.0, 0.3, 1.0):
            assert np.array_equal(circle(a, t)[:, 1], np.cos(a))

    def test_agrees_with_general_isotopy_at_k_one(self):
        # F1(cos a, sin a, t) = (t sin a, cos a, (1-t) sin a + t |sin a|), bit for bit
        rng = np.random.default_rng(37)
        a = rng.uniform(0.0, TWO_PI, size=300)
        s, c = np.sin(a), np.cos(a)
        for t in (0.0, 0.25, 0.4, 0.5, 1.0):
            closed_form = np.stack([t * s, c, (1.0 - t) * s + t * np.abs(s)], axis=1)
            assert np.array_equal(circle(a, t), closed_form)

    def test_parameter_range(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            circle(np.array([0.0]), 2.0)


def probe_oracle(point_map, k, samples, seed, label, delta_in=1e-2, delta_out=1e-6):
    """One map's report from its own draws, the way each probe drew them
    before the probes shared one sample: angle maps, no sine tables."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.0, TWO_PI, size=(samples, k))
    b = rng.uniform(0.0, TWO_PI, size=(samples, k))
    far = flat_distance(a, b) > delta_in
    image_dist = np.linalg.norm(point_map(a) - point_map(b), axis=1)
    violations = int(np.count_nonzero(far & (image_dist < delta_out)))
    min_sep = float(image_dist[far].min()) if far.any() else float("inf")
    return InjectivityReport(label, k, samples, seed, delta_in, delta_out, violations, min_sep)


def oracle_standard(a):
    """The standard torus on (N, k) angles, as the induction states it."""
    sins, coss = np.sin(a), np.cos(a)
    return stepwise_tube(sins, coss, sins[:, -1])


def oracle_isotopy(k, t):
    """F(., t) on (N, k) angles: the tube of t * sin ak and the extra coordinate."""

    def point_map(a):
        sins, coss = np.sin(a), np.cos(a)
        s = sins[:, -1]
        extra = ((1.0 - t) * s + t * np.abs(s)) / 2 ** (k - 1)
        return np.column_stack([stepwise_tube(sins, coss, s * t), extra])

    return point_map


def oracle_f1(t):
    """F1(cos a, sin a, t) = (t sin a, cos a, (1-t) sin a + t |sin a|) on (N, 1) angles."""

    def point_map(a):
        s, c = np.sin(a[:, 0]), np.cos(a[:, 0])
        return np.stack([t * s, c, (1.0 - t) * s + t * np.abs(s)], axis=1)

    return point_map


def endpoint_oracle(k, samples, seed, deformed=oracle_isotopy, tolerance=1e-12):
    """The endpoint deviations from angle arrays, one call per map."""
    rng = np.random.default_rng(seed)
    angles = rng.uniform(0.0, TWO_PI, size=(samples, k))
    at_one = deformed(k, 1.0)(angles)
    standard = np.abs(at_one[:, : k + 1] - oracle_standard(angles)).max()
    at_zero = deformed(k, 0.0)(angles)
    radius = np.abs(np.linalg.norm(at_zero[:, k:], axis=1) - 0.5 ** (k - 1)).max()
    perturbed = angles.copy()
    perturbed[:, k - 1] = rng.uniform(0.0, TWO_PI, size=samples)
    base = np.abs(deformed(k, 0.0)(perturbed)[:, :k] - at_zero[:, :k]).max()
    return (k, samples, seed, tolerance, float(standard), float(radius), float(base))


def cli_maps(k):
    """The labelled maps isotopy-check probes, as angle maps."""
    maps = [("standard", oracle_standard)]
    maps += [(f"isotopy t={t}", oracle_isotopy(k, t)) for t in (0.0, 0.5, 1.0)]
    if k == 1:
        maps += [(f"f1 t={t}", oracle_f1(t)) for t in (0.0, 1.0)]
    return maps


def batch_maps(k):
    """The labelled maps isotopy-check probes, as calls of the public row map."""
    maps = [("standard", lambda a: isotopy_batch(k, a, 1.0)[:, : k + 1])]
    maps += [(f"isotopy t={t}", lambda a, t=t: isotopy_batch(k, a, t)) for t in (0.0, 0.5, 1.0)]
    if k == 1:
        maps += [(f"f1 t={t}", lambda a, t=t: isotopy_batch(1, a, t)) for t in (0.0, 1.0)]
    return maps


def batch_deformed(k, t):
    return lambda a: isotopy_batch(k, a, t)


class TestSharedSample:
    @pytest.mark.parametrize("samples", [2, 3, 1000])
    @pytest.mark.parametrize("seed", [0, 7, 42])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 9])
    def test_probe_matches_one_draw_per_map(self, k, seed, samples):
        # the check's column maps and isotopy_batch, the row map the demo
        # prints, are one map: a fresh draw through isotopy_batch for every
        # map gives the check's probe reports and their JSON exactly
        _, got = isotopy_check(k, samples, seed)
        want = [probe_oracle(f, k, samples, seed, label) for label, f in batch_maps(k)]
        assert got == want
        assert [r.to_json_dict() for r in got] == [r.to_json_dict() for r in want]

    @pytest.mark.parametrize("samples", [2, 3, 5, 1000])
    @pytest.mark.parametrize("seed", [0, 7, 42])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 9])
    def test_endpoints_match_one_batch_per_map(self, k, seed, samples):
        # the endpoint figures read off the probe's tables equal one
        # isotopy_batch call per stage on the endpoint draw
        endpoints, _ = isotopy_check(k, samples, seed)
        assert astuple(endpoints) == endpoint_oracle(k, samples, seed, batch_deformed)

    @pytest.mark.parametrize("samples", [2, 3, 5, 1000])
    @pytest.mark.parametrize("seed", [0, 7, 42])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 9])
    def test_one_check_matches_a_draw_and_a_batch_per_map(self, k, seed, samples):
        # isotopy_check evaluates each map once per table and reads the
        # endpoints off the probe's evaluations; the oracles draw afresh for
        # every map and evaluate the angle batches on their own.  k = 5, 6, 7
        # and 9 give maps of 7 to 11 coordinates and flat-torus distances of 5
        # to 9, both sides of numpy's 8-entry pairwise rule
        endpoints, probes = isotopy_check(k, samples, seed)
        # dataclass equality compares every field, min_separation exactly
        assert probes == [probe_oracle(f, k, samples, seed, label) for label, f in cli_maps(k)]
        assert astuple(endpoints) == endpoint_oracle(k, samples, seed)

    @pytest.mark.parametrize("k", [1, 2, 3, 9])
    def test_the_base_check_retakes_the_oracles_fresh_angles(self, monkeypatch, k):
        # the base coordinates of a sound t=0 map ignore the innermost angle,
        # so the retaken angles leave no trace in the report; a map that leaks
        # the angle into them shows that the one-draw check retakes the angles
        # the oracle draws afresh after the first sample
        deformed = isotopy._deformed

        def leaky(t):
            point_map = deformed(t)

            def leak(sins, coss):
                points = point_map(sins, coss)
                points[0] += sins[-1]
                return points

            return leak

        def leaky_oracle(k, t):
            point_map = oracle_isotopy(k, t)

            def leak(a):
                points = point_map(a)
                points[:, 0] += np.sin(a[:, -1])
                return points

            return leak

        monkeypatch.setattr(isotopy, "_deformed", leaky)
        endpoints, _ = isotopy_check(k, 1000, 42)
        assert astuple(endpoints) == endpoint_oracle(k, 1000, 42, leaky_oracle)
        assert endpoints.max_base_deviation > 1.0

    def test_flat_distance_rounds_as_a_row_sum(self):
        # column by column below 8 angles, numpy's pairwise row sum from 8 on
        rng = np.random.default_rng(43)
        for k in range(1, 13):
            a = rng.uniform(-40.0, 40.0, size=(500, k))
            b = rng.uniform(-40.0, 40.0, size=(500, k))
            got = isotopy._flat_distance(np.ascontiguousarray((a - b).T))
            assert bits(got) == bits(flat_distance(a, b))

    def test_f1_is_the_k_one_isotopy_bit_for_bit(self):
        a = np.random.default_rng(41).uniform(0.0, TWO_PI, size=(100_000, 1))
        s, c = np.sin(a.T), np.cos(a.T)
        for t in (0.0, 0.25, 0.5, 1.0):
            assert np.array_equal(isotopy._f1(t)(s, c).T, isotopy_batch(1, a, t))

    def test_parameter_range(self):
        for make in (isotopy._deformed, isotopy._f1):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                make(1.5)


class TestProbes:
    def test_flat_distance_wraps(self):
        delta = np.array([[0.1 - (TWO_PI - 0.1)], [0.0]])
        assert isotopy._flat_distance(delta)[0] == pytest.approx(0.2)

    def test_standard_maps_probe_clean(self):
        for k in range(1, 5):
            report = isotopy_check(k, 500, 42)[1][0]
            assert report.label == "standard"
            assert report.k == k
            assert report.passed
            assert report.violations == 0
            assert 0.0 < report.min_separation < np.inf

    def test_deformed_maps_probe_clean(self):
        for k in (1, 2):
            _, probes = isotopy_check(k, 500, 42)
            assert [r.label for r in probes][:4] == [
                "standard", "isotopy t=0.0", "isotopy t=0.5", "isotopy t=1.0"]
            assert all(r.passed for r in probes)

    def test_probe_deterministic(self):
        assert isotopy_check(2, 300, 9) == isotopy_check(2, 300, 9)

    def test_probe_flags_a_genuinely_noninjective_map(self, monkeypatch):
        # collapse everything to a point: every far pair violates
        def squash(t):
            return lambda sins, coss: np.zeros((len(sins) + 2, sins.shape[1]))

        monkeypatch.setattr(isotopy, "_deformed", squash)
        endpoints, reports = isotopy_check(1, 200, 3)
        # t=1 no longer restricts to the standard torus either
        assert not endpoints.passed
        assert endpoints.max_standard_deviation > 0.5
        probes = {report.label: report for report in reports}
        assert probes["standard"].passed
        for t in (0.0, 0.5, 1.0):
            report = probes[f"isotopy t={t}"]
            assert not report.passed
            assert report.violations > 0
            assert report.min_separation == 0.0

    def test_probe_sample_floor(self):
        with pytest.raises(ValueError, match="at least 2"):
            isotopy_check(1, 1, 0)

    def test_dimension_range(self):
        for k, match in ((0, ">= 1"), (1025, "<= 1024")):
            with pytest.raises(ValueError, match=match):
                isotopy_check(k, 2, 0)

    def test_report_json(self):
        report = InjectivityReport("x", 1, 10, 0, 1e-2, 1e-6, 0, float("inf"))
        payload = report.to_json_dict()
        assert payload["min_separation"] is None
        assert payload["passed"] is True
        finite = InjectivityReport("x", 1, 10, 0, 1e-2, 1e-6, 2, 0.25)
        assert finite.to_json_dict()["min_separation"] == 0.25
        assert finite.to_json_dict()["passed"] is False


class TestEndpointChecks:
    def test_all_small_dimensions_pass(self):
        for k in range(1, 5):
            report, _ = isotopy_check(k, 2000, 42)
            assert report.passed
            assert report.max_standard_deviation <= 1e-12
            assert report.max_radius_deviation <= 1e-12
            assert report.max_base_deviation <= 1e-12

    def test_report_json(self):
        payload = isotopy_check(1, 50, 7)[0].to_json_dict()
        assert payload["k"] == 1
        assert payload["samples"] == 50
        assert payload["passed"] is True
        assert set(payload) == {
            "k", "samples", "seed", "tolerance", "max_standard_deviation",
            "max_radius_deviation", "max_base_deviation", "passed",
        }


def test_module_defines_four_public_names():
    public = {
        name for name, value in vars(isotopy).items()
        if not name.startswith("_") and not inspect.ismodule(value)
        and getattr(value, "__module__", isotopy.__name__) == isotopy.__name__
    }
    assert public == {"EndpointReport", "InjectivityReport", "isotopy_batch", "isotopy_check"}
