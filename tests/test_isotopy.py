import math

import numpy as np
import pytest

from momentangle.isotopy import (
    EndpointReport,
    InjectivityReport,
    circle_distance,
    endpoint_checks,
    injectivity_probe,
    isotopy_batch,
    isotopy_map,
    standard_map,
    standard_torus_batch,
)

TWO_PI = 2.0 * np.pi


def one_row(angles):
    """A single angle tuple as the (1, k) array the batch functions take."""
    return np.asarray(angles, dtype=float)[None, :]


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


class TestStandardTorus:
    def test_matches_closed_form(self):
        rng = np.random.default_rng(7)
        for k in range(1, 7):
            for _ in range(50):
                angles = rng.uniform(0.0, TWO_PI, size=k)
                got = standard_torus_batch(k, one_row(angles))[0]
                assert np.abs(got - closed_form_point(angles)).max() <= 1e-12

    def test_circle(self):
        assert np.allclose(
            standard_torus_batch(1, one_row([np.pi / 2]))[0], [1.0, 0.0], atol=1e-12
        )
        assert np.allclose(
            standard_torus_batch(1, one_row([0.0]))[0], [0.0, 1.0], atol=1e-12
        )

    def test_frozen_two_torus_point(self):
        got = standard_torus_batch(2, one_row([0.0, np.pi / 2]))[0]
        assert np.allclose(got, [0.0, 1.5, 0.0], atol=1e-12)

    def test_zero_inner_angle_reduces_exactly(self):
        rng = np.random.default_rng(11)
        for k in range(2, 6):
            head = rng.uniform(0.0, TWO_PI, size=k - 1)
            pt = standard_torus_batch(k, one_row(list(head) + [0.0]))[0]
            assert np.array_equal(pt[:k], standard_torus_batch(k - 1, one_row(head))[0])
            assert pt[k] == 0.5 ** (k - 1)

    def test_norms_stay_below_two(self):
        rng = np.random.default_rng(5)
        for k in range(1, 6):
            a = rng.uniform(0.0, TWO_PI, size=(20000, k))
            assert np.linalg.norm(standard_torus_batch(k, a), axis=1).max() <= 2.0

    def test_batch_matches_points(self):
        rng = np.random.default_rng(2)
        a = rng.uniform(0.0, TWO_PI, size=(20, 3))
        batch = standard_torus_batch(3, a)
        for row, angles in zip(batch, a):
            assert np.array_equal(row, standard_torus_batch(3, one_row(angles))[0])

    def test_shape_and_range_errors(self):
        with pytest.raises(ValueError, match=">= 1"):
            standard_torus_batch(0, np.zeros((1, 1)))
        with pytest.raises(ValueError, match="2 angles"):
            standard_torus_batch(2, np.zeros((4, 3)))


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
            assert np.array_equal(deformed[:, : k + 1], standard_torus_batch(k, a))
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
            gap = circle_distance(a, b)
            for mapper in [standard_map(k), isotopy_map(k, 0.0), isotopy_map(k, 0.5), isotopy_map(k, 1.0)]:
                stretch = np.linalg.norm(mapper(a) - mapper(b), axis=1) / gap
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


class TestProbes:
    def test_circle_distance_wraps(self):
        a = np.array([[0.1, 0.0]])
        b = np.array([[TWO_PI - 0.1, 0.0]])
        assert circle_distance(a, b)[0] == pytest.approx(0.2)

    def test_standard_maps_probe_clean(self):
        for k in range(1, 5):
            report = injectivity_probe(standard_map(k), k, 500, 42, label=f"standard-{k}")
            assert report.passed
            assert report.violations == 0
            assert 0.0 < report.min_separation < np.inf

    def test_deformed_maps_probe_clean(self):
        for t in (0.0, 0.5, 1.0):
            assert injectivity_probe(isotopy_map(2, t), 2, 500, 42).passed
        for t in (0.0, 1.0):
            assert injectivity_probe(isotopy_map(1, t), 1, 500, 42).passed

    def test_probe_deterministic(self):
        one = injectivity_probe(standard_map(2), 2, 300, 9)
        two = injectivity_probe(standard_map(2), 2, 300, 9)
        assert one == two

    def test_probe_flags_a_genuinely_noninjective_map(self):
        # collapse everything to a point: every far pair violates
        squash = lambda angles: np.zeros((angles.shape[0], 2))
        report = injectivity_probe(squash, 1, 200, 3)
        assert not report.passed
        assert report.violations > 0
        assert report.min_separation == 0.0

    def test_probe_sample_floor(self):
        with pytest.raises(ValueError, match="at least 2"):
            injectivity_probe(standard_map(1), 1, 1, 0)

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
            report = endpoint_checks(k, 2000, 42)
            assert report.passed
            assert report.max_standard_deviation <= 1e-12
            assert report.max_radius_deviation <= 1e-12
            assert report.max_base_deviation <= 1e-12

    def test_sample_floor(self):
        with pytest.raises(ValueError, match="at least 1"):
            endpoint_checks(2, 0, 0)

    def test_report_json(self):
        payload = endpoint_checks(1, 50, 7).to_json_dict()
        assert payload["k"] == 1
        assert payload["samples"] == 50
        assert payload["passed"] is True
        assert set(payload) == {
            "k", "samples", "seed", "tolerance", "max_standard_deviation",
            "max_radius_deviation", "max_base_deviation", "passed",
        }
