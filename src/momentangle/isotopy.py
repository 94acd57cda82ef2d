"""Numeric checks for the nested torus embedding and its flattening isotopy.

The standard k-torus in R^{k+1} is built inductively: T^1 is the unit
circle (sin a1, cos a1), and T^k rides on T^{k-1} as a tube of half scale.
In coordinates

    x_1 = sin a1 * (1 + 1/2 sin a2 * (1 + ... (1 + 1/2 sin ak)))
    x_2 = cos a1 * (1 + 1/2 sin a2 * (1 + ... (1 + 1/2 sin ak)))
    x_{i+1} = (1/2^{i-1}) cos a_i * (remaining nest),   2 <= i <= k
    x_{k+1} = (1/2^{k-1}) cos a_k.

The code runs the induction innermost circle first: a point y of the torus
of the last angles gives the next torus out its nest 1 + y[0]/2.

The isotopy F: T^k x [0,1] -> R^{k+2} replaces sin ak by t*sin ak inside
every nest and appends

    x_{k+2} = (1/2^{k-1}) * ((1-t) sin ak + t |sin ak|).

At t=1 the first k+1 coordinates recover the standard torus and the extra
coordinate is nonnegative; at t=0 the last two coordinates trace a round
circle of radius 1/2^{k-1} while the first k no longer see ak at all.  The
one-dimensional instance has the closed form

    F1(cos a, sin a, t) = (t sin a, cos a, (1-t) sin a + t |sin a|),

which ``f1_map`` evaluates as written.  The maps read angles only through
their sine and cosine tables: a check draws once per seed, takes each sine
once and evaluates every map on the same tables.  Everything is double
precision; identities are sampled with seeded RNG and checked to 1e-12, and
injectivity is probed pairwise, not proved.
"""

from __future__ import annotations

import sys
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

TWO_PI = 2.0 * np.pi
_DELTA_IN, _DELTA_OUT, _TOLERANCE = 1e-2, 1e-6, 1e-12  # see injectivity_probe, EndpointReport

TableMap = Callable[[np.ndarray, np.ndarray], np.ndarray]  # (N, k) sines, cosines -> points


def _check_dimension(k: int) -> None:
    if k < 1:
        raise ValueError(f"torus dimension must be >= 1, got {k}")
    if k - 1 >= sys.float_info.max_exp:
        raise ValueError(f"torus dimension must be <= {sys.float_info.max_exp}, "
                         f"got {k}: the scale 2^(k-1) is past double range")


def _check_parameter(t: float) -> None:
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"deformation parameter must lie in [0, 1], got {t}")


def _tables(angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return np.sin(angles), np.cos(angles)


def _nested_tube(sins, coss, inner_sin: np.ndarray, extra: int = 0) -> np.ndarray:
    """Torus points of the (N, k) tables, innermost circle (``inner_sin``, last cosine), in
    k+1 of k+1+``extra`` columns; each step out halves the inner coordinates once more."""
    n, k = sins.shape
    out = np.empty((n, k + 1 + extra))
    out[:, k - 1] = inner_sin
    out[:, k] = coss[:, k - 1]
    for i in range(k - 2, -1, -1):
        nest = 1.0 + 0.5 * out[:, i + 1]
        out[:, i + 2 : k + 1] *= 0.5
        out[:, i] = sins[:, i] * nest
        out[:, i + 1] = coss[:, i] * nest
    return out


def standard_map(sins: np.ndarray, coss: np.ndarray) -> np.ndarray:
    """Standard torus points from (N, k) sine and cosine tables; (N, k+1)."""
    return _nested_tube(sins, coss, sins[:, -1])


def isotopy_map(t: float) -> TableMap:
    """F(., t) on (N, k) sine and cosine tables; points are (N, k+2)."""
    _check_parameter(t)

    def deformed(sins: np.ndarray, coss: np.ndarray) -> np.ndarray:
        k = sins.shape[1]
        inner = sins[:, k - 1]
        out = _nested_tube(sins, coss, inner * t, extra=1)
        out[:, k + 1] = ((1.0 - t) * inner + t * np.abs(inner)) / 2 ** (k - 1)
        return out

    return deformed


def f1_map(t: float) -> TableMap:
    """The closed form F1(., t) on (N, 1) sine and cosine tables; (N, 3)."""
    _check_parameter(t)

    def f1(sins: np.ndarray, coss: np.ndarray) -> np.ndarray:
        s, c = sins[:, 0], coss[:, 0]
        return np.stack([t * s, c, (1.0 - t) * s + t * np.abs(s)], axis=1)

    return f1


def _angle_grid(k: int, angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    _check_dimension(k)
    a = np.atleast_2d(np.asarray(angles, dtype=float))
    if a.shape[1] != k:
        raise ValueError(f"expected {k} angles per point, got shape {a.shape}")
    return _tables(a)


def standard_torus_batch(k: int, angles: np.ndarray) -> np.ndarray:
    """Standard torus points for an (N, k) array of angles; returns (N, k+1)."""
    return standard_map(*_angle_grid(k, angles))


def isotopy_batch(k: int, angles: np.ndarray, t: float) -> np.ndarray:
    """Deformed torus points for an (N, k) array of angles; returns (N, k+2)."""
    return isotopy_map(t)(*_angle_grid(k, angles))


# -- probe harness ---------------------------------------------------------


def circle_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Flat-torus distance between angle tuples, rows of (N, k) arrays."""
    delta = np.abs(np.asarray(a) - np.asarray(b)) % TWO_PI
    delta = np.minimum(delta, TWO_PI - delta)
    return np.sqrt((delta**2).sum(axis=1))


@dataclass(frozen=True)
class InjectivityReport:
    """Outcome of a sampled injectivity probe (evidence, not proof)."""

    label: str
    k: int
    samples: int
    seed: int
    delta_in: float
    delta_out: float
    violations: int
    min_separation: float

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def to_json_dict(self) -> dict:
        separation = None if np.isinf(self.min_separation) else self.min_separation
        return {**asdict(self), "min_separation": separation, "passed": self.passed}


def injectivity_probe(
    maps: Sequence[tuple[str, TableMap]], k: int, samples: int, seed: int
) -> list[InjectivityReport]:
    """Sample angle pairs once and probe each labelled map on them, in order.

    A pair violates injectivity evidence when its flat-torus angle distance
    exceeds ``_DELTA_IN`` while the image distance falls below ``_DELTA_OUT``.
    """
    _check_dimension(k)
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.0, TWO_PI, size=(samples, k))
    b = rng.uniform(0.0, TWO_PI, size=(samples, k))
    far = circle_distance(a, b) > _DELTA_IN
    tables_a = _tables(a)
    del a  # so that no more than five (N, k) arrays are live at once
    tables_b = _tables(b)
    del b
    reports = []
    for label, point_map in maps:
        image_dist = np.linalg.norm(point_map(*tables_a) - point_map(*tables_b), axis=1)
        violations = int(np.count_nonzero(far & (image_dist < _DELTA_OUT)))
        min_sep = float(image_dist[far].min()) if far.any() else float("inf")
        reports.append(InjectivityReport(label, k, samples, seed, _DELTA_IN, _DELTA_OUT,
                                         violations, min_sep))
    return reports


@dataclass(frozen=True)
class EndpointReport:
    """Sampled deviations of the two isotopy endpoint identities.

    ``max_standard_deviation``: worst |F(a,1)[:k+1] - T(a)| over the sample.
    ``max_radius_deviation``: worst | |F(a,0)[k:]| - 1/2^{k-1} |.
    ``max_base_deviation``: worst change of the first k coordinates of
    F(.,0) when only the innermost angle is perturbed.
    """

    k: int
    samples: int
    seed: int
    tolerance: float
    max_standard_deviation: float
    max_radius_deviation: float
    max_base_deviation: float

    @property
    def passed(self) -> bool:
        deviations = (self.max_standard_deviation, self.max_radius_deviation,
                      self.max_base_deviation)
        return all(d <= self.tolerance for d in deviations)

    def to_json_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


def endpoint_checks(k: int, samples: int, seed: int) -> EndpointReport:
    """Check both endpoint identities of the isotopy on seeded random charts.

    At t=1 the deformation restricted to its first k+1 coordinates must
    reproduce the standard torus.  At t=0 the final two coordinates must lie
    on the round circle of radius 1/2^{k-1} while the first k coordinates
    ignore the innermost angle, which is drawn afresh after the charts; only
    its column of the sine and cosine tables is retaken.
    """
    _check_dimension(k)
    if samples < 1:
        raise ValueError(f"need at least 1 sample, got {samples}")
    rng = np.random.default_rng(seed)
    sins, coss = _tables(rng.uniform(0.0, TWO_PI, size=(samples, k)))

    at_one = isotopy_map(1.0)(sins, coss)
    dev_standard = np.abs(at_one[:, : k + 1] - standard_map(sins, coss)).max()

    at_zero = isotopy_map(0.0)(sins, coss)
    radius = np.linalg.norm(at_zero[:, k:], axis=1)
    dev_radius = np.abs(radius - 0.5 ** (k - 1)).max()

    sins[:, k - 1], coss[:, k - 1] = _tables(rng.uniform(0.0, TWO_PI, size=samples))
    dev_base = np.abs(isotopy_map(0.0)(sins, coss)[:, :k] - at_zero[:, :k]).max()

    return EndpointReport(k, samples, seed, _TOLERANCE, float(dev_standard), float(dev_radius),
                          float(dev_base))
