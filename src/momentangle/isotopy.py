"""Numeric checks for the nested torus embedding and its flattening isotopy.

The standard k-torus in R^{k+1} is built inductively: T^1 is the unit
circle (sin a1, cos a1), and T^k rides on T^{k-1} as a tube of half scale.
In coordinates

    x_1 = sin a1 * (1 + 1/2 sin a2 * (1 + ... (1 + 1/2 sin ak)))
    x_2 = cos a1 * (1 + 1/2 sin a2 * (1 + ... (1 + 1/2 sin ak)))
    x_{i+1} = (1/2^{i-1}) cos a_i * (remaining nest),   2 <= i <= k
    x_{k+1} = (1/2^{k-1}) cos a_k.

The code keeps the induction explicit: a point of T^k is assembled from a
point of the (k-1)-torus of the last k-1 angles, whose first coordinate is
exactly the nest the outer circle gets scaled by.

The isotopy F: T^k x [0,1] -> R^{k+2} replaces sin ak by t*sin ak inside
every nest and appends

    x_{k+2} = (1/2^{k-1}) * ((1-t) sin ak + t |sin ak|).

At t=1 the first k+1 coordinates recover the standard torus and the extra
coordinate is nonnegative; at t=0 the last two coordinates trace a round
circle of radius 1/2^{k-1} while the first k no longer see ak at all.  The
one-dimensional instance has the closed form

    F1(cos a, sin a, t) = (t sin a, cos a, (1-t) sin a + t |sin a|).

Everything is double precision; identities are sampled with seeded RNG and
checked to 1e-12, and injectivity is probed pairwise, not proved.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

TWO_PI = 2.0 * np.pi


def _nested_tube(sins: np.ndarray, coss: np.ndarray) -> np.ndarray:
    """Torus points from per-angle sines/cosines, shape (N, k) -> (N, k+1).

    Recursive on k: the tail angles give a (k-1)-torus point y, the nest for
    the leading circle is 1 + y[0]/2, and the tail coordinates come along at
    half scale.
    """
    n, k = sins.shape
    if k == 1:
        return np.stack([sins[:, 0], coss[:, 0]], axis=1)
    y = _nested_tube(sins[:, 1:], coss[:, 1:])
    nest = 1.0 + 0.5 * y[:, 0]
    out = np.empty((n, k + 1))
    out[:, 0] = sins[:, 0] * nest
    out[:, 1] = coss[:, 0] * nest
    out[:, 2:] = 0.5 * y[:, 1:]
    return out


def _angle_grid(k: int, angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if k < 1:
        raise ValueError(f"torus dimension must be >= 1, got {k}")
    a = np.atleast_2d(np.asarray(angles, dtype=float))
    if a.shape[1] != k:
        raise ValueError(f"expected {k} angles per point, got shape {a.shape}")
    return np.sin(a), np.cos(a)


def standard_torus_batch(k: int, angles: np.ndarray) -> np.ndarray:
    """Standard torus points for an (N, k) array of angles; returns (N, k+1)."""
    sins, coss = _angle_grid(k, angles)
    return _nested_tube(sins, coss)


def isotopy_batch(k: int, angles: np.ndarray, t: float) -> np.ndarray:
    """Deformed torus points for an (N, k) array of angles; returns (N, k+2)."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"deformation parameter must lie in [0, 1], got {t}")
    sins, coss = _angle_grid(k, angles)
    flattened = sins.copy()
    flattened[:, k - 1] *= t  # innermost sine is the one the isotopy scales
    body = _nested_tube(flattened, coss)
    last = ((1.0 - t) * sins[:, k - 1] + t * np.abs(sins[:, k - 1])) / 2 ** (k - 1)
    return np.concatenate([body, last[:, None]], axis=1)


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
        return {
            **asdict(self),
            "min_separation": (
                None if np.isinf(self.min_separation) else self.min_separation
            ),
            "passed": self.passed,
        }


def injectivity_probe(
    point_map: Callable[[np.ndarray], np.ndarray],
    k: int,
    samples: int,
    seed: int,
    *,
    delta_in: float = 1e-2,
    delta_out: float = 1e-6,
    label: str = "map",
) -> InjectivityReport:
    """Sample angle pairs and flag far-apart angles with nearly equal images.

    A pair violates injectivity evidence when its flat-torus angle distance
    exceeds ``delta_in`` while the image distance falls below ``delta_out``.
    """
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.0, TWO_PI, size=(samples, k))
    b = rng.uniform(0.0, TWO_PI, size=(samples, k))
    angle_dist = circle_distance(a, b)
    image_dist = np.linalg.norm(point_map(a) - point_map(b), axis=1)
    far = angle_dist > delta_in
    violations = int(np.count_nonzero(far & (image_dist < delta_out)))
    min_sep = float(image_dist[far].min()) if far.any() else float("inf")
    return InjectivityReport(
        label, k, samples, seed, delta_in, delta_out, violations, min_sep
    )


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
        return (
            self.max_standard_deviation <= self.tolerance
            and self.max_radius_deviation <= self.tolerance
            and self.max_base_deviation <= self.tolerance
        )

    def to_json_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


def endpoint_checks(
    k: int, samples: int, seed: int, *, tolerance: float = 1e-12
) -> EndpointReport:
    """Check both endpoint identities of the isotopy on seeded random charts.

    At t=1 the deformation restricted to its first k+1 coordinates must
    reproduce the standard torus.  At t=0 the final two coordinates must lie
    on the round circle of radius 1/2^{k-1} while the first k coordinates
    ignore the innermost angle entirely.
    """
    if samples < 1:
        raise ValueError(f"need at least 1 sample, got {samples}")
    rng = np.random.default_rng(seed)
    angles = rng.uniform(0.0, TWO_PI, size=(samples, k))

    at_one = isotopy_batch(k, angles, 1.0)
    dev_standard = np.abs(at_one[:, : k + 1] - standard_torus_batch(k, angles)).max()

    at_zero = isotopy_batch(k, angles, 0.0)
    radius = np.linalg.norm(at_zero[:, k:], axis=1)
    dev_radius = np.abs(radius - 0.5 ** (k - 1)).max()

    perturbed = angles.copy()
    perturbed[:, k - 1] = rng.uniform(0.0, TWO_PI, size=samples)
    dev_base = np.abs(
        isotopy_batch(k, perturbed, 0.0)[:, :k] - at_zero[:, :k]
    ).max()

    return EndpointReport(
        k,
        samples,
        seed,
        tolerance,
        float(dev_standard),
        float(dev_radius),
        float(dev_base),
    )


def standard_map(k: int) -> Callable[[np.ndarray], np.ndarray]:
    return lambda angles: standard_torus_batch(k, angles)


def isotopy_map(k: int, t: float) -> Callable[[np.ndarray], np.ndarray]:
    return lambda angles: isotopy_batch(k, angles, t)
