"""The four workloads: seeded inputs, one pass over them, and answer checks.

The seed picks only vertex relabellings (``SimplicialComplex.relabeled``)
and cut sequences at fixed (m, n); no answer depends on either, so every
seed does the same amount of work and every reference is seed-free.  The
program receives only the generated complexes or argv lists.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from typing import Callable

import momentangle
from momentangle import GradedGroups, cli
from momentangle.polytopes import cube, polygon, product, simplex_polytope
from momentangle.simplicial import SimplicialComplex, join

import reference as ref

# sha256 of the stdout of the seed code for the seed-free CLI commands
SEED_DIGESTS = {
    "verify-corpus": "80ed6690109d6ec979b4607c4a4405e7fa95ad7b65fad48166a4e510c4cde8fd",
    "isotopy-check-1": "5b8beb7715469ffc18261e8d708ebe6e0e83cfe6307aa85b50226bb6415fc25e",
    "isotopy-check-2": "30efa0a1ccc0a90575f99ddcdd909824ba7920bf5bc3428c3414db82fabd8da3",
    "isotopy-check-3": "55ad2f8759ad117649aae99997e2bb7d072fffc91e7bbf2ef54390310782a201",
}

ISOTOPY_SAMPLES = "10000"
ISOTOPY_SEED = "42"

RP2 = SimplicialComplex(
    6,
    [
        (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
        (1, 2, 3), (1, 2, 5), (2, 4, 5), (1, 3, 4), (3, 4, 5),
    ],
)


@dataclass
class Case:
    """One answer per pass: the program's input and what its output must be."""

    label: str
    payload: object  # a SimplicialComplex, or an argv list for cli.main
    kind: str  # "groups", "verify" or "digest"
    expected: object  # canonical groups, or a stdout sha256 for "digest"
    vertices: int = 0  # reports a "verify" answer must hold


def _relabeled(k: SimplicialComplex, rng: random.Random) -> SimplicialComplex:
    perm = list(range(k.vertex_count))
    rng.shuffle(perm)
    return k.relabeled(perm)


def _rng(seed: int, label: str) -> random.Random:
    return random.Random(f"{seed}:{label}")


# -- moment-angle workloads --------------------------------------------------

S3 = ref.sphere(3)


def sphere_wide(seed: int) -> list[Case]:
    k = polygon(12).dual_complex()
    return [Case("polygon-12", _relabeled(k, _rng(seed, "polygon-12")), "groups",
                 ref.polygon_closed_form(12))]


def sphere_deep(seed: int) -> list[Case]:
    cube5 = S3
    for _ in range(4):
        cube5 = ref.kunneth(cube5, S3)
    inputs = [
        ("cube-5", cube(5), cube5),
        ("simplex3xpolygon6", product(simplex_polytope(3), polygon(6)),
         ref.kunneth(ref.simplex_closed_form(3), ref.polygon_closed_form(6))),
        ("polygon5xpolygon6", product(polygon(5), polygon(6)),
         ref.kunneth(ref.polygon_closed_form(5), ref.polygon_closed_form(6))),
    ]
    return [
        Case(label, _relabeled(p.dual_complex(), _rng(seed, label)), "groups", expected)
        for label, p, expected in inputs
    ]


def torsion_join(seed: int) -> list[Case]:
    k = join(RP2, polygon(4).dual_complex())
    expected = ref.kunneth(ref.canonical(ref.RP2_6_VERTEX), ref.polygon_closed_form(4))
    return [Case("rp2-join-polygon4", _relabeled(k, _rng(seed, "rp2-join")), "groups", expected)]


# -- CLI workload ------------------------------------------------------------

# (base expression, its Z-groups, m, n, vertex count, cuts); P has m + cuts <= 9
CUT_BASES = [
    (["polygon", "5"], ref.polygon_closed_form(5), 5, 2, 5, 2),
    (["cube"], ref.kunneth(S3, ref.kunneth(S3, S3)), 6, 3, 8, 2),
    (["simplex", "4"], ref.simplex_closed_form(4), 5, 4, 5, 2),
]


def verify_suite(seed: int) -> list[Case]:
    cases = [Case("verify-corpus", ["verify-corpus", "--json"], "digest",
                  SEED_DIGESTS["verify-corpus"])]
    for base, groups, m, n, vertices, cuts in CUT_BASES:
        rng = _rng(seed, " ".join(base))
        expr = list(base)
        for i in range(cuts):
            v = rng.randrange(vertices + i * (n - 1))
            expr = ["cut-vertex", "(", *expr, ")", str(v)]
        cases.append(Case(
            f"verify {' '.join(base)} +{cuts} cuts",
            ["verify", *expr, "--all-vertices", "--json"],
            "verify",
            ref.cut_sequence_closed_form(groups, m, n, cuts + 1),
            vertices + cuts * (n - 1),
        ))
    for k in (1, 2, 3):
        label = f"isotopy-check-{k}"
        argv = ["isotopy-check", str(k), ISOTOPY_SAMPLES, ISOTOPY_SEED, "--json"]
        cases.append(Case(label, argv, "digest", SEED_DIGESTS[label]))
    return cases


def run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


# -- checks ------------------------------------------------------------------


def check(case: Case, outcome) -> bool:
    """True when the program's outcome for ``case`` is right."""
    if case.kind == "groups":
        return ref.from_json_groups(outcome.to_json_dict()) == case.expected
    code, text = outcome
    if code != 0:
        return False
    if case.kind == "digest":
        return hashlib.sha256(text.encode()).hexdigest() == case.expected
    data = json.loads(text)
    reports = data["reports"]
    return (
        data["schema"] == 1
        and data["kind"] == "verify"
        and data["all_match"] is True
        and [r["vertex"] for r in reports] == list(range(case.vertices))
        and all(
            r["match"] is True
            and ref.from_json_groups(r["lhs"]) == case.expected
            and ref.from_json_groups(r["rhs"]) == case.expected
            for r in reports
        )
    )


def _json_groups(groups: dict) -> dict:
    return {str(d): {"rank": r, "torsion": list(t)} for d, (r, t) in groups.items()}


def _verify_text(case: Case, groups: dict, all_match: bool = True) -> str:
    reports = [
        {"vertex": v, "lhs": _json_groups(groups), "rhs": _json_groups(case.expected),
         "match": all_match}
        for v in range(case.vertices)
    ]
    return json.dumps({"schema": 1, "kind": "verify", "all_match": all_match,
                       "reports": reports})


def controls(case: Case) -> list[tuple[object, bool]]:
    """Outcomes fed to ``check`` only, never to the program: (outcome, is right).

    The perturbed ones change one rank or one torsion group, the verdict, the
    exit code or one byte of output, and ``check`` must reject every one.
    """
    if case.kind == "digest":
        return [((0, ""), False), ((1, ""), False), ((0, " "), False)]
    top = max(case.expected)
    bumped = dict(case.expected)
    bumped[top] = (bumped[top][0] + 1, bumped[top][1])
    twisted = dict(case.expected)
    rank, torsion = twisted[top]
    twisted[top] = (rank, (torsion[0] * 2,) + torsion[1:] if torsion else (2,))
    if case.kind == "groups":
        return [(GradedGroups(case.expected), True), (GradedGroups(bumped), False),
                (GradedGroups(twisted), False)]
    right = _verify_text(case, case.expected)
    return [
        ((0, right), True),
        ((1, right), False),
        ((0, _verify_text(case, bumped)), False),
        ((0, _verify_text(case, twisted)), False),
        ((0, _verify_text(case, case.expected, all_match=False)), False),
    ]


# -- registry -----------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    build: Callable[[int], list[Case]]
    workers: int
    via_cli: bool = False

    def answer(self, case: Case, workers: int):
        if self.via_cli:
            return run_cli([*case.payload, "--workers", str(workers)])
        # looked up per call, so the tracer's rebinding is seen
        return momentangle.moment_angle_cohomology(case.payload, workers=workers)


WORKLOADS = {
    "sphere-wide": Workload(sphere_wide, workers=1),
    "sphere-deep": Workload(sphere_deep, workers=2),
    "torsion-join": Workload(torsion_join, workers=1),
    "verify-suite": Workload(verify_suite, workers=2, via_cli=True),
}
