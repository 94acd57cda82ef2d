"""End-to-end acceptance checks for the whole toolkit.

Each test prints one summary line, criterion number plus PASS or FAIL, to
the real terminal (bypassing capture) and then asserts the details.  Exact
integer equalities throughout; the only tolerances are the documented
1e-12 bound for the floating-point torus checks and wall-clock budgets.
"""

import json
import time

import numpy as np
import pytest

from complexes import f_vector
from invariants import euler_characteristic, has_torsion, is_symmetric, poincare_product, ranks
from walk import faces_of
from momentangle.cli import main
from momentangle.homology import GradedGroups, _boundary_column, reduced_homology
from momentangle.isotopy import isotopy_batch, isotopy_check
from momentangle.moment_angle import betti, moment_angle_cohomology
from momentangle.polytopes import polygon, product, simplex_polytope
from momentangle.simplicial import SimplicialComplex, boundary_complex
from momentangle.surgery import (
    _boundary_product_groups,
    theorem_corpus,
    verify_all_cuts,
    verify_cut_theorem,
)


def announce(capsys, number, ok, description):
    with capsys.disabled():
        print(f"criterion {number:02d} [{'PASS' if ok else 'FAIL'}]: {description}")


def manifold_sphere(d):
    return GradedGroups({0: (1, ()), d: (1, ())})


@pytest.fixture(scope="module")
def corpus():
    return theorem_corpus()


@pytest.fixture(scope="module")
def corpus_cohomology(corpus):
    return [
        (name, p, moment_angle_cohomology(p.dual_complex())) for name, p in corpus
    ]


def test_criterion_01_triangle_cut(capsys):
    start = time.perf_counter()
    reports = verify_all_cuts(simplex_polytope(2))
    elapsed = time.perf_counter() - start
    expected = GradedGroups.from_ranks({0: 1, 3: 2, 6: 1})
    ok = (
        all(r.match for r in reports)
        and all(r.lhs == expected and r.rhs == expected for r in reports)
        and not any(has_torsion(r.lhs) for r in reports)
        and elapsed < 1.0
    )
    announce(capsys, 1, ok, "triangle cut matches with ranks 1, 2, 1 in under 1 s")
    assert len(reports) == 3
    for r in reports:
        assert r.match
        assert r.lhs == expected
        assert r.rhs == expected
        assert not has_torsion(r.lhs)
    assert elapsed < 1.0


def test_criterion_02_square_cut(capsys):
    start = time.perf_counter()
    report = verify_cut_theorem(polygon(4), 0)
    elapsed = time.perf_counter() - start
    expected = "1 + 5t^3 + 5t^4 + t^7"
    ok = (
        report.match
        and betti(report.lhs) == expected
        and betti(report.rhs) == expected
        and elapsed < 1.0
    )
    announce(capsys, 2, ok, "square cut gives 1 + 5t^3 + 5t^4 + t^7 in under 1 s")
    assert report.match
    assert betti(report.lhs) == expected
    assert betti(report.rhs) == expected
    assert elapsed < 1.0


def test_criterion_03_corpus_verification(capsys, corpus):
    start = time.perf_counter()
    failures = []
    checked = 0
    for name, p in corpus:
        for report in verify_all_cuts(p, description=name):
            checked += 1
            if not report.match:
                failures.append((name, report.vertex))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 120.0
    announce(
        capsys,
        3,
        ok,
        f"all {checked} corpus vertex cuts match, single-threaded, under 2 min",
    )
    assert failures == []
    assert checked == sum(p.vertex_count for _, p in corpus)
    assert elapsed < 120.0


def test_criterion_04_duality_and_euler(capsys, corpus_cohomology):
    bad = []
    for name, p, groups in corpus_cohomology:
        if not is_symmetric(groups, p.m + p.n) or euler_characteristic(groups) != 0:
            bad.append(name)
    announce(
        capsys, 4, not bad, "every corpus manifold is rank-symmetric with zero Euler"
    )
    assert bad == []


def test_criterion_05_boundary_product_rank_identity(capsys, corpus_cohomology):
    bad = []
    for name, p, groups in corpus_cohomology:
        d = p.m + p.n
        w = _boundary_product_groups(groups, d)
        wanted = {}
        for deg, rank in ranks(groups).items():
            wanted[deg] = wanted.get(deg, 0) + rank
            wanted[deg + 1] = wanted.get(deg + 1, 0) + rank
        wanted[1] = wanted.get(1, 0) - 1
        wanted[d] = wanted.get(d, 0) - 1
        if betti(w) != betti(GradedGroups.from_ranks(wanted)) or not is_symmetric(w, d + 1):
            bad.append(name)
    announce(
        capsys,
        5,
        not bad,
        "P_W(t) = P_Z(t)(1+t) - t - t^(m+n) with symmetry in m+n+1, whole corpus",
    )
    assert bad == []


def test_criterion_06_sphere_identities(capsys):
    sphere_side = all(
        moment_angle_cohomology(boundary_complex(m - 1))
        == manifold_sphere(2 * m - 1)
        for m in range(2, 6)
    )
    product_side = all(
        _boundary_product_groups(manifold_sphere(d), d) == manifold_sphere(d + 1)
        for d in range(2, 11)
    )
    ok = sphere_side and product_side
    announce(
        capsys, 6, ok, "simplex boundaries give odd spheres; spheres stay spheres"
    )
    assert sphere_side
    assert product_side


def test_criterion_07_product_polytope(capsys):
    prism = product(simplex_polytope(1), simplex_polytope(2))
    poly = betti(moment_angle_cohomology(prism.dual_complex()))
    expected = betti(poincare_product(GradedGroups.from_ranks({0: 1, 3: 1}), GradedGroups.from_ranks({0: 1, 5: 1})))
    ok = poly == expected
    announce(capsys, 7, ok, "prism manifold factors as (1 + t^3)(1 + t^5)")
    assert poly == expected


def test_criterion_08_homology_engine(capsys, corpus):
    rp2 = SimplicialComplex(
        6,
        [
            (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
            (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5),
        ],
    )
    h = reduced_homology(rp2)
    torsion_ok = (
        h.rank(1) == 0 and h.torsion(1) == (2,) and h.rank(2) == 0
    )

    chain_ok = True
    euler_ok = True
    for _, p in corpus:
        k = p.dual_complex()
        # the engine's own sparse boundary columns, faces as vertex bitmasks
        column = {f: _boundary_column(f) for f in faces_of(k).ext}
        for col in column.values():
            total: dict[int, int] = {}
            for row, v in col.items():
                for row2, v2 in column[row].items():
                    total[row2] = total.get(row2, 0) + v * v2
            chain_ok = chain_ok and not any(total.values())
        groups = reduced_homology(k)
        from_faces = sum(
            (-1) ** d * c for d, c in f_vector(k).items() if d >= 0
        )
        from_groups = 1 + sum(
            (-1) ** d * groups.rank(d) for d in groups.degrees() if d >= 0
        )
        euler_ok = euler_ok and from_faces == from_groups

    ok = torsion_ok and chain_ok and euler_ok
    announce(
        capsys,
        8,
        ok,
        "projective-plane torsion in degree 1; boundary-squared and Euler checks",
    )
    assert torsion_ok
    assert chain_ok
    assert euler_ok


def test_criterion_09_isotopy_formulas(capsys):
    start = time.perf_counter()
    checks = [isotopy_check(k, 10000, 42) for k in range(1, 5)]
    endpoints_ok = all(endpoints.passed for endpoints, _ in checks)

    exact_ok = True
    for alpha in (0.0, np.pi / 2, np.pi, 3 * np.pi / 2):
        s, c = np.sin(alpha), np.cos(alpha)
        exact_ok = exact_ok and np.array_equal(
            isotopy_batch(1, np.array([[alpha]]), 1.0)[0], np.array([s, c, abs(s)])
        )

    probes_ok = all(report.passed for _, probes in checks for report in probes)
    elapsed = time.perf_counter() - start

    ok = endpoints_ok and exact_ok and probes_ok and elapsed < 10.0
    announce(
        capsys,
        9,
        ok,
        "torus endpoint identities at 1e-12, exact quarter-turn values, "
        "clean probes, under 10 s",
    )
    assert endpoints_ok
    assert exact_ok
    assert probes_ok
    assert elapsed < 10.0


def test_criterion_10_worker_determinism(capsys):
    outputs = []
    for workers in (1, 2, 8):
        code = main(
            ["verify", "polygon", "5", "0", "--json", "--workers", str(workers)]
        )
        captured = capsys.readouterr()
        assert code == 0
        outputs.append(captured.out)
        payload = json.loads(captured.out)
        assert payload["all_match"] is True
    ok = outputs[0] == outputs[1] == outputs[2]
    announce(
        capsys, 10, ok, "verification output byte-identical for 1, 2, 8 workers"
    )
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]
