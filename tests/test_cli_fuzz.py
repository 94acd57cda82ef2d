"""Hostile command lines: ``cli.main`` exits 0, 2 or 3, and no exception escapes.

Token sequences are drawn over the ``betti``/``verify``/``build``/
``verify-corpus`` vocabulary, with ``--max-subsets 10`` appended so that no
run is large.  File operands are JSON documents written to a temporary
directory: hand-written ones (valid, malformed, out of range, truncated)
and drawn complex and polytope records, whole or cut short.  Examples are
derandomized.
"""

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from momentangle.cli import main  # noqa: E402

DOCUMENTS = {
    "complex.json": '{"vertices": 4, "maximal_faces": [[0, 1], [1, 2], [2, 3], [0, 3]]}',
    "polytope.json": '{"dim": 2, "facets": 4, "vertex_facets": [[0, 1], [1, 2], [2, 3], [0, 3]]}',
    "truncated.json": '{"dim": 2, "facets": 4, "vertex_facets": [[0, 1], [1,',
    "malformed.json": '{"vertices": 3 "maximal_faces": []}',
    "vertex_range.json": '{"vertices": 2, "maximal_faces": [[0, 5]]}',
    "facet_range.json": '{"dim": 2, "facets": 3, "vertex_facets": [[0, 1], [1, 7], [0, 2]]}',
    "over_cap.json": '{"vertices": 40, "maximal_faces": [[0, 1]]}',
    "types.json": '{"dim": "2", "facets": 4.5, "vertex_facets": "none"}',
    "neither.json": '{"faces": [[0]]}',
    "array.json": "[[0, 1], [1, 2]]",
    "deep.json": "{" + '"a": [' * 5000,
}

COMMANDS = ["betti", "verify", "build", "verify-corpus"]
WORDS = [
    "simplex", "polygon", "cube", "product", "cut-vertex", "(", ")",
    "0", "1", "2", "3", "5", "-1", "40", "99999999999999999999", "x", "",
    "--all-vertices", "--json", "--csv", "--output", "--max-subsets",
]


def records(values, width):
    return st.lists(st.lists(values, max_size=width), max_size=6)


SMALL = st.integers(-1, 12)
DRAWN = st.one_of(
    st.fixed_dictionaries({"vertices": SMALL, "maximal_faces": records(SMALL, 4)}),
    st.fixed_dictionaries({"dim": st.integers(-1, 4), "facets": SMALL,
                           "vertex_facets": records(SMALL, 4)}),
)


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    path = tmp_path_factory.mktemp("documents")
    for name, text in DOCUMENTS.items():
        (path / name).write_text(text)
    return path


@st.composite
def command_lines(draw):
    """A drawn command, its tokens, and a drawn document's text ("drawn.json")."""
    document = json.dumps(draw(DRAWN))
    document = document[: draw(st.integers(1, len(document)))] if draw(st.booleans()) else document
    files = sorted(DOCUMENTS) + ["drawn.json", "missing.json"]
    token = st.sampled_from(WORDS) | st.sampled_from(files)
    argv = [draw(st.sampled_from(COMMANDS))] + draw(st.lists(token, max_size=8))
    return argv + ["--max-subsets", "10"], document


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(command_lines())
def test_main_exits_0_2_or_3_and_raises_nothing(folder, drawn):
    argv, document = drawn
    (folder / "drawn.json").write_text(document)
    cwd = os.getcwd()
    os.chdir(folder)  # file operands are relative, and so is any --output path
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main(argv)
    finally:
        os.chdir(cwd)
    assert code in (0, 2, 3), argv
