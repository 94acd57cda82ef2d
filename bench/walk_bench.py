"""End-to-end times and per-route subset counts of the subset sum.

    python3 bench/walk_bench.py --parent DIR --runs 5 --out BENCH_16.json

DIR is a checkout of the commit to compare with.  Each input is run as
``python -m momentangle.cli betti <input> --workers W`` in a fresh process,
for W = 1 and 2, the runs of the two checkouts alternating, and the wall
time of the whole process and its peak resident set (the largest of the
process and of the pool workers it waited for, from ``os.wait4``) are
recorded; the entry gives the median and the quartiles of the times and
the median peak of ``--runs`` runs per checkout and worker count, and the
serial median per visited subset (2^(m-1) on a certified sphere, 2^m
otherwise, summed over the join factors).  Both checkouts must print the
same bytes and exit codes, or the script stops.

Route counts come from one serial ``moment_angle_cohomology`` call per
input and checkout, made inside ``counted`` of ``tests/walk.py``, the
trace of the engine that the tests read; the join factors, the walks
with their sphere dimensions, the homology calls and the link listings
are all read from it.  The sphere certificate's calls and listings are
recorded apart and not reported; the vertex count of each factor of
dimension 3 or more that the sphere certificate, ``_facet_sphere``, is
run on is listed under "certified", and that of each factor numbered by
``_order`` under "numbered".  A factor that is
the boundary of a simplex is summed in closed form, with no listing and
no walk: it is left out of the counts and of "visited", and its vertex
count is listed under "simplex_boundaries".  A certified sphere of
dimension 1, 2 or 3, a connected closed surface and a graph are summed
from their f-vectors and the connected sets of their 1-skeletons, with no
walk: they are left out of the counts and of "visited" too, and their
vertex counts and dimensions are listed under "summed", as [m, d] pairs,
beside the walked factors' "factor_m" and "sphere_dim"; each closed
surface found is listed under "surfaces" as [m, χ, orientable].  Each checkout counts with its own copy of this
script; where a checkout's counter refuses an input, its counts are
``null``.  A K_J settle is a graph ("graph") or an elimination
("eliminated") after a listing of K_J, and "computed" is their sum.  A
vertex's link is listed once per memo entry where the vertex keeps a
memo and once per step where it does not ("link_listings"), and those
listings that reach a graph or an elimination are counted apart
("link_graph", "link_eliminated"); the others found a cone.  The distinct links listed at vertices with a memo
are its entries, per factor ("memo_entries").  Every subset of a factor
on a certified sphere is visited or mirrored, so "visited" is 2^(m-1) or
2^m per factor, and from the root ∅ the walk takes one step per nonempty
visited subset ("steps").  The other steps reuse a groups id, add a
point or take a link's groups one degree up, and compute no homology.
The trace slows the counted sum a little; "counted_s" is its time, apart
from the CLI times.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def cut(base: list[str], cuts: int) -> list[str]:
    """``base`` cut ``cuts`` times at vertex 0."""
    return ["cut-vertex", "("] * cuts + base + [")", "0"] * cuts


def dense(cuts: int) -> list[str]:
    """cube 6 cut ``cuts`` times at vertex 0: a 5-sphere on 12 + cuts vertices."""
    return cut(["cube", "6"], cuts)


# inputs given as complex files: (what the file holds, code printing it as JSON)
FILES = {
    "rp2-4-sphere": (
        "sphere_around_rp2() of tests/test_moment_angle.py, as JSON",
        "from test_moment_angle import sphere_around_rp2; "
        "print(sphere_around_rp2().to_json())",
    ),
    # every two vertices span an edge, so no link of the walk recurs
    "cyclic-4-polytope-18": (
        "the boundary of the cyclic polytope C(18, 4), as JSON",
        "from complexes import cyclic_4_polytope_boundary; "
        "print(cyclic_4_polytope_boundary(18).to_json())",
    ),
    "cyclic-4-polytope-20": (
        "the boundary of the cyclic polytope C(20, 4), as JSON",
        "from complexes import cyclic_4_polytope_boundary; "
        "print(cyclic_4_polytope_boundary(20).to_json())",
    ),
    "polygon-12-relabelled": (
        "the polygon-12 dual relabelled as perfbench's sphere-wide input at seed 1, as JSON",
        "import random; from momentangle.polytopes import polygon; "
        "perm = list(range(12)); random.Random('1:polygon-12').shuffle(perm); "
        "print(polygon(12).dual_complex().relabeled(perm).to_json())",
    ),
}


def inputs(tmp: Path) -> dict[str, list[str]]:
    files = {}
    for name, (_, code) in FILES.items():
        files[name] = tmp / f"{name}.json"
        files[name].write_text(subprocess.run(
            [sys.executable, "-c", "import sys; sys.path[:0] = ['src', 'tests']; " + code],
            cwd=ROOT, check=True, capture_output=True, text=True,
        ).stdout)
    return {
        "polygon-12-relabelled": [str(files["polygon-12-relabelled"])],
        "polygon-18": ["polygon", "18"],
        "polygon-20": ["polygon", "20"],
        "polygon-22": ["polygon", "22"],
        "dense-sphere-17": dense(5),
        "dense-sphere-19": dense(7),
        "dense-sphere-20": dense(8),
        "dense-sphere-22": dense(10),
        "rp2-4-sphere": [str(files["rp2-4-sphere"])],
        "cyclic-4-polytope-18": [str(files["cyclic-4-polytope-18"])],
        "cyclic-4-polytope-20": [str(files["cyclic-4-polytope-20"])],
        # a 3-sphere on 13 vertices whose subsets mostly need elimination
        # in the given numbering
        "simplex-4-cut-8": cut(["simplex", "4"], 8),
        "simplex-4-cut-16": cut(["simplex", "4"], 16),
        # a 2-sphere on 22 vertices, at the cap
        "cube-3-cut-16": cut(["cube", "3"], 16),
        # joins: eleven S^0 factors; a pooled 18-vertex factor and a
        # triangle, which has no missing edge; a pentagon and two ∂Δ^3,
        # whose vertices have no missing edge and are split by the product
        # test one at a time; five ∂Δ^3 (m = 20), with nothing listed
        "cube-11": ["cube", "11"],
        "polygon-18-x-triangle": ["product", "polygon", "18", "polygon", "3"],
        "simplex-3-x-simplex-3-x-pentagon": [
            "product", "simplex", "3", "product", "simplex", "3", "polygon", "5"
        ],
        "simplex-3-power-5": ("product simplex 3 " * 4 + "simplex 3").split(),
    }


def run_cli(checkout: Path, expr: list[str], workers: int) -> tuple[float, float, bytes]:
    """Wall seconds, peak resident MB and stdout with the exit code of one ``betti``."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    argv = [sys.executable, "-m", "momentangle.cli", "betti", *expr, "--workers", str(workers)]
    start = time.perf_counter()
    with subprocess.Popen(argv, cwd=checkout, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL) as proc:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    seconds = time.perf_counter() - start
    return seconds, usage.ru_maxrss / 1024, out + f"exit {proc.returncode}\n".encode()


def summary(times: list[float], peaks: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return {"median_s": round(median, 4), "q1_s": round(q1, 4), "q3_s": round(q3, 4),
            "runs_s": [round(t, 4) for t in times],
            "peak_rss_mb": round(statistics.median(peaks), 1)}


def routes(expr: list[str]) -> dict:
    """Route counts of one serial sum, in this process's ``momentangle``."""
    sys.path.insert(0, str(ROOT / "tests"))
    from momentangle.cli import parse_expression
    from momentangle.moment_angle import _MEMO_NEIGHBOURS, moment_angle_cohomology
    from walk import counted

    k = parse_expression(expr)
    start = time.perf_counter()
    with counted() as trace:
        moment_angle_cohomology(k)
    seconds = time.perf_counter() - start
    calls, walks = trace.calls, trace.walks
    counts = {key: calls[key] for key in
              ("graph", "eliminated", "link_graph", "link_eliminated", "link_listings")}
    visited = sum(1 << (faces.vertex_count - (dim is not None)) for faces, dim in walks)
    entries: Counter = Counter()  # per walked factor, the links listed where a memo is kept
    for faces, sigma, _ in trace.listed:
        entries[faces] += (faces.ext[sigma] >> sigma.bit_length()).bit_count() <= _MEMO_NEIGHBOURS
    counts["steps"] = visited - len(walks)
    counts["counted_s"] = round(seconds, 2)
    counts["m"] = sum(factor.part.bit_count() for factor in trace.factors)
    counts["factor_m"] = [faces.vertex_count for faces, _ in walks]
    # of the factors summed unlisted, ∂Δ is the one sphere on d + 2 vertices
    counts["simplex_boundaries"] = [factor.part.bit_count() for factor in trace.factors
                                    if factor.bits is None and factor.dim == factor.part.bit_count() - 2]
    counts["numbered"] = [part.bit_count() for part in trace.numbered]
    counts["certified"] = list(trace.certified)
    counts["summed"] = [[m, dim] for m, dim in trace.summed]
    counts["surfaces"] = [list(surface) for surface in trace.surfaces]
    counts["faces"] = sum(len(faces.ext) - 1 for faces, _ in walks)
    counts["sphere_dim"] = [dim for _, dim in walks]
    counts["memo_entries"] = [entries[faces] for faces, _ in walks]
    counts["visited"] = visited
    return counts


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--routes", nargs="+", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.routes:
        print(json.dumps(routes(args.routes)))
        return
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    with tempfile.TemporaryDirectory() as tmp:
        entry = {}
        for name, expr in inputs(Path(tmp)).items():
            result = {"input": FILES[name][0] if name in FILES else " ".join(expr)}
            for workers in (1, 2):
                times = {side: [] for side in sides}
                peaks = {side: [] for side in sides}
                outputs = set()
                for _ in range(args.runs):
                    for side, checkout in sides.items():
                        seconds, peak, out = run_cli(checkout, expr, workers)
                        times[side].append(seconds)
                        peaks[side].append(peak)
                        outputs.add(out)
                if len(outputs) != 1:
                    sys.exit(f"{name}: the outputs differ at {workers} workers")
                for side in sides:
                    result[f"{side}_workers_{workers}"] = summary(times[side], peaks[side])
                print(name, workers, {s: result[f"{s}_workers_{workers}"]["median_s"]
                                      for s in sides}, flush=True)
            for side, checkout in sides.items():
                argv = [sys.executable, str(checkout / "bench" / "walk_bench.py"),
                        "--parent", ".", "--out", "-", "--routes", *expr]
                env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
                done = subprocess.run(argv, cwd=checkout, env=env,
                                      capture_output=True, text=True)
                counts = json.loads(done.stdout) if done.returncode == 0 else None
                result[f"{side}_routes"] = counts
                result[f"{side}_computed"] = counts and counts["graph"] + counts["eliminated"]
                result[f"{side}_link_computed"] = counts and (
                    counts.get("link_graph", 0) + counts.get("link_eliminated", 0)
                )
            visited = result["visited"] = result["change_routes"]["visited"]
            for side in sides:  # None where every factor is summed in closed form
                median = result[f"{side}_workers_1"]["median_s"]
                result[f"{side}_us_per_visited_subset_workers_1"] = (
                    round(median * 1e6 / visited, 2) if visited else None
                )
            entry[name] = result
    machine = {
        "cpu": next((line.split(":", 1)[1].strip() for line in
                     Path("/proc/cpuinfo").read_text().splitlines()
                     if line.startswith("model name")), platform.processor()),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    args.out.write_text(json.dumps({"machine": machine, "runs": args.runs,
                                    "inputs": entry}, indent=1) + "\n")


if __name__ == "__main__":
    main()
