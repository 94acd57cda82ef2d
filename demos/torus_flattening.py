"""
Nested tori and the flattening isotopy
======================================

The k-torus embeds in R^{k+1} as a tube riding on a tube riding on a
circle, each level at half the scale of the one before.  An isotopy in
R^{k+2} flattens the innermost circle against a half-plane while the
outer levels stay put.  Everything here is double precision; identities
are sampled and reported, not proved.
"""

import numpy as np

from momentangle import (
    endpoint_checks,
    injectivity_probe,
    isotopy_batch,
    isotopy_map,
    standard_map,
    standard_torus_batch,
)

# A marked point of the 2-torus and where the deformation takes it.  The
# functions take a batch of angle tuples, one per row; here the batch is
# a single row.
angles = np.array([[np.pi / 3, np.pi / 4]])
print("angles:", np.round(angles[0], 4))
print("standard embedding in R^3: ", np.round(standard_torus_batch(2, angles)[0], 4))
for t in (0.0, 0.5, 1.0):
    print(f"deformed, t={t}:           ",
          np.round(isotopy_batch(2, angles, t)[0], 4))
print()

# The one-dimensional case has the closed form
# (t sin a, cos a, (1-t) sin a + t |sin a|): the circle tips from the
# (x1, x2) plane into the half-space x3 >= 0.
print("the circle isotopy at a quarter turn:")
for t in (0.0, 0.25, 0.5, 0.75, 1.0):
    print(f"  t={t}: {np.round(isotopy_batch(1, np.array([[np.pi / 2]]), t)[0], 4)}")
print()

# A whole batch at once: three points of the 3-torus, half deformed.
batch = np.array([[7.0, -1.0, 2.5], [0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])
print("3-torus batch at t=0.5:")
print(np.round(isotopy_batch(3, batch, 0.5), 4))
print()

# Endpoint identities: t=1 restricts to the standard torus, t=0 splits
# off a round circle of radius 1/2^{k-1}.  Deviations should sit at
# machine precision.
for k in range(1, 5):
    report = endpoint_checks(k, 5000, seed=42)
    print(f"k={k}: standard {report.max_standard_deviation:.2e}, "
          f"radius {report.max_radius_deviation:.2e}, "
          f"base {report.max_base_deviation:.2e}, "
          f"passed={report.passed}")
print()

# Injectivity probes: sample pairs of angle tuples, flag any pair that is
# far apart on the torus but lands nearly together in space.
for k in (1, 2, 3):
    for label, mapper in [
        ("standard", standard_map(k)),
        ("isotopy t=0.5", isotopy_map(k, 0.5)),
    ]:
        probe = injectivity_probe(mapper, k, 5000, seed=42, label=label)
        print(f"k={k} {label}: violations={probe.violations}, "
              f"min separation={probe.min_separation:.3e}")
