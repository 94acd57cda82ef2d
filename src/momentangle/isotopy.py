"""Numeric checks for the nested torus embedding and its flattening isotopy.

The standard k-torus in R^{k+1} is built inductively: T^1 is the unit
circle (sin a1, cos a1), and T^k rides on T^{k-1} as a tube of half scale.
In coordinates

    x_1 = sin a1 * (1 + 1/2 sin a2 * (1 + ... (1 + 1/2 sin ak)))
    x_2 = cos a1 * (1 + 1/2 sin a2 * (1 + ... (1 + 1/2 sin ak)))
    x_{i+1} = (1/2^{i-1}) cos a_i * (remaining nest),   2 <= i <= k
    x_{k+1} = (1/2^{k-1}) cos a_k.

The code runs the induction innermost circle first: a point y of the torus
of the last angles gives the next torus out its nest 1 + y[0]/2, and each
step out halves the inner coordinates once more.  x_{i+1} is halved i - 1
times in a row, and a halving rounds only when its result is subnormal, so
the halvings that keep all of a coordinate's values normal are folded into
one scaling and only the rest are taken one at a time: the nest is linear
in k and rounds as the step-by-step induction does.

The isotopy F: T^k x [0,1] -> R^{k+2} replaces sin ak by t*sin ak inside
every nest and appends

    x_{k+2} = (1/2^{k-1}) * ((1-t) sin ak + t |sin ak|).

At t=1 the first k+1 coordinates recover the standard torus and the extra
coordinate is nonnegative; at t=0 the last two coordinates trace a round
circle of radius 1/2^{k-1} while the first k no longer see ak at all.  The
one-dimensional instance has the closed form

    F1(cos a, sin a, t) = (t sin a, cos a, (1-t) sin a + t |sin a|),

which ``isotopy_check`` probes as written beside the general map at k = 1.

The maps read angles only through their sine and cosine tables, and work on
column buffers: a (k, N) table holds one angle per row, a (columns, N) point
buffer one coordinate per row, so every step reads and writes contiguous
memory.  ``isotopy_batch`` is the one row map: it takes the (N, k) angles of
one point per row and returns the (N, k+2) points.  A distance sums each
point's squared entries the way numpy sums the rows of the C-ordered
(N, columns) array: in sequence below 8 entries, which column-by-column
addition repeats bit for bit, and pairwise from 8 on, which only numpy's
own reduction over such an array repeats.

``isotopy_check`` draws once per seed: the far mask and both samples' tables
come from one generator, each sine and cosine is taken once, and every map
is evaluated once per table.  The endpoint deviations are read off the
evaluations of the standard map and of t=1 and t=0 on the first table, each
folded in as soon as its map is evaluated; only t=0 is evaluated once more,
with the innermost column retaken.  Those fresh angles are the draws that
follow the first sample, which are the second sample's leading values, so
their sines and cosines are read off its tables.
Everything is double precision; identities are sampled with seeded RNG and
checked to 1e-12, and injectivity is probed pairwise, not proved.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

_TWO_PI = 2.0 * np.pi
_DELTA_IN, _DELTA_OUT, _TOLERANCE = 1e-2, 1e-6, 1e-12  # see isotopy_check, EndpointReport
_BLOCK = 1 << 16  # entries per C-ordered block that _row_sums copies for numpy to sum

_ColumnMap = Callable[[np.ndarray, np.ndarray], np.ndarray]  # (k, N) tables -> (columns, N)


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


def _flip(a: np.ndarray) -> np.ndarray:
    """The C-ordered transpose: (N, k) rows to a (k, N) column buffer, and back."""
    return np.ascontiguousarray(a.T)


def _row_sums(columns: np.ndarray) -> np.ndarray:
    """Each point's sum over a (columns, N) buffer, rounded as numpy rounds the row sums of
    the C-ordered (N, columns) array.

    numpy adds up a row of fewer than 8 entries in sequence, as adding column
    after column does here; longer rows it sums pairwise, so those go to
    numpy's own reduction, copied to C order about ``_BLOCK`` entries at a time.
    """
    width, n = columns.shape
    if width < 8:
        total = columns[0].copy()
        for column in columns[1:]:
            total += column
        return total
    total = np.empty(n)
    step = max(1, _BLOCK // width)
    for start in range(0, n, step):
        block = _flip(columns[:, start : start + step])
        np.add.reduce(block, axis=1, out=total[start : start + step])
    return total


def _halve(column: np.ndarray, times: int, scratch: np.ndarray) -> None:
    """Halve ``column`` in place ``times`` times over, bit for bit as one halving after another.

    A halving is exact while its result is normal, so the halvings that keep
    the smallest magnitude at or above 2^-1022 are one scaling; only the rest
    can round, and they are taken one at a time.  A zero or NaN entry makes
    the check give up and every halving is taken.  ``scratch`` is overwritten.
    """
    if times > 1:
        smallest = np.abs(column, out=scratch).min(initial=math.inf)
        if 0.0 < smallest < math.inf:
            exact = min(times, max(0, math.frexp(smallest)[1] + 1021))
            column *= math.ldexp(1.0, -exact)
            times -= exact
    for _ in range(times):
        column *= 0.5


def _nested_tube(sins, coss, inner_sin: np.ndarray, extra: int = 0) -> np.ndarray:
    """Torus points of the (k, N) tables, innermost circle (``inner_sin``, last cosine), in
    k+1 of k+1+``extra`` rows; x_{j+1} is halved j - 1 times, once per step out."""
    k, n = sins.shape
    out = np.empty((k + 1 + extra, n))
    inner, nest = np.array(inner_sin), np.empty(n)
    out[k] = coss[k - 1]
    _halve(out[k], k - 1, nest)
    for i in range(k - 2, -1, -1):
        np.multiply(inner, 0.5, out=nest)
        nest += 1.0
        np.multiply(coss[i], nest, out=out[i + 1])
        np.multiply(sins[i], nest, out=inner)
        _halve(out[i + 1], i, nest)
    out[0] = inner
    return out


def _standard(sins: np.ndarray, coss: np.ndarray) -> np.ndarray:
    return _nested_tube(sins, coss, sins[-1])


def _deformed(t: float) -> _ColumnMap:
    _check_parameter(t)

    def deformed(sins: np.ndarray, coss: np.ndarray) -> np.ndarray:
        k = len(sins)
        inner = sins[k - 1]
        out = _nested_tube(sins, coss, inner * t, extra=1)
        out[k + 1] = ((1.0 - t) * inner + t * np.abs(inner)) / 2 ** (k - 1)
        return out

    return deformed


def _f1(t: float) -> _ColumnMap:
    _check_parameter(t)

    def f1(sins: np.ndarray, coss: np.ndarray) -> np.ndarray:
        s, c = sins[0], coss[0]
        return np.stack([t * s, c, (1.0 - t) * s + t * np.abs(s)])

    return f1


def isotopy_batch(k: int, angles: np.ndarray, t: float) -> np.ndarray:
    """Deformed torus points for an (N, k) array of angles; returns (N, k+2)."""
    _check_dimension(k)
    a = np.atleast_2d(np.asarray(angles, dtype=float))
    if a.shape[1] != k:
        raise ValueError(f"expected {k} angles per point, got shape {a.shape}")
    return _flip(_deformed(t)(*_tables(_flip(a))))


# -- probe harness ---------------------------------------------------------


def _flat_distance(delta: np.ndarray) -> np.ndarray:
    """Flat-torus lengths of the (k, N) float angle differences ``delta``, which it overwrites."""
    np.abs(delta, out=delta)
    np.fmod(delta, _TWO_PI, out=delta)  # numpy's % on nonnegative values, at a third of its cost
    np.minimum(delta, _TWO_PI - delta, out=delta)
    delta *= delta
    return np.sqrt(_row_sums(delta))


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


def _pair(k: int, samples: int, seed: int):
    """One seeded draw of angle pairs: the far mask and each side's (k, N) sine and cosine tables.

    A pair is far when its flat-torus angle distance exceeds ``_DELTA_IN``.
    """
    _check_dimension(k)
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    rng = np.random.default_rng(seed)
    a = _flip(rng.uniform(0.0, _TWO_PI, size=(samples, k)))
    b = _flip(rng.uniform(0.0, _TWO_PI, size=(samples, k)))
    far = _flat_distance(a - b) > _DELTA_IN
    tables_a = _tables(a)
    del a  # so that no more than five (k, N) arrays are live at once: b and four tables
    tables_b = _tables(b)
    del b
    return far, tables_a, tables_b


def _report(label: str, k: int, samples: int, seed: int, far: np.ndarray,
            image_dist: np.ndarray) -> InjectivityReport:
    violations = int(np.count_nonzero(far & (image_dist < _DELTA_OUT)))
    min_sep = float(image_dist[far].min()) if far.any() else float("inf")
    return InjectivityReport(label, k, samples, seed, _DELTA_IN, _DELTA_OUT, violations, min_sep)


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


def _max_deviation(x: np.ndarray, y: np.ndarray, out: np.ndarray) -> float:
    """max |x - y|, worked out in ``out``, which is x or y."""
    np.subtract(x, y, out=out)
    return float(np.abs(out, out=out).max())


def isotopy_check(k: int, samples: int, seed: int
                  ) -> tuple[EndpointReport, list[InjectivityReport]]:
    """Both endpoint identities and the injectivity probes of isotopy-check's maps, from one draw.

    The maps are the standard torus, the isotopy at t = 0, 0.5 and 1, and at
    k = 1 the closed form F1 at t = 0 and 1; the probes come in that order.
    A pair violates injectivity evidence when its flat-torus angle distance
    exceeds ``_DELTA_IN`` while its image distance falls below ``_DELTA_OUT``.
    At t=1 the first k+1 coordinates must reproduce the standard torus; at
    t=0 the last two must lie on the round circle of radius 1/2^{k-1} and
    the first k must ignore the innermost angle.  Beside the four tables no
    more than two evaluations are live at once.
    """
    far, (sins, coss), (sins_b, coss_b) = _pair(k, samples, seed)
    probes = {}

    def probe(label: str, column_map: _ColumnMap, image_a: np.ndarray) -> None:
        image_b = column_map(sins_b, coss_b)
        np.subtract(image_a, image_b, out=image_b)
        image_b *= image_b
        probes[label] = _report(label, k, samples, seed, far, np.sqrt(_row_sums(image_b)))

    maps = [("isotopy t=0.5", _deformed(0.5))]
    if k == 1:
        maps += [(f"f1 t={t}", _f1(t)) for t in (0.0, 1.0)]
    for label, column_map in maps:
        probe(label, column_map, column_map(sins, coss))

    at_one_map = _deformed(1.0)
    at_one = at_one_map(sins, coss)
    probe("isotopy t=1.0", at_one_map, at_one)
    standard = _standard(sins, coss)
    dev_standard = _max_deviation(at_one[: k + 1], standard, at_one[: k + 1])
    del at_one
    probe("standard", _standard, standard)
    del standard

    at_zero_map = _deformed(0.0)
    at_zero = at_zero_map(sins, coss)
    circle = at_zero[k:]
    dev_radius = float(np.abs(np.sqrt(_row_sums(circle * circle)) - 0.5 ** (k - 1)).max())
    probe("isotopy t=0.0", at_zero_map, at_zero)

    # the fresh innermost angles are the draws that follow the first sample:
    # the second sample's leading values, in its row order
    rows = -(-samples // k)
    sins[k - 1], coss[k - 1] = (t.T[:rows].reshape(-1)[:samples] for t in (sins_b, coss_b))
    moved = at_zero_map(sins, coss)[:k]
    dev_base = _max_deviation(moved, at_zero[:k], moved)
    endpoints = EndpointReport(k, samples, seed, _TOLERANCE, dev_standard, dev_radius, dev_base)
    order = ["standard", "isotopy t=0.0", "isotopy t=0.5", "isotopy t=1.0", "f1 t=0.0", "f1 t=1.0"]
    return endpoints, [probes[label] for label in order if label in probes]
