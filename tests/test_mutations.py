"""Every input the parser accepts either runs or ends in one line.

One field at a time of a closed-loop scenario (through ``simulate`` and
``plot-data``) and of a two-member collection (through
``compute-invariant``) is replaced by a value of another type, an edge value
or a value beyond the float range, and the command is run in-process.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from errdiff.cli import main

DATA = Path(__file__).resolve().parent / "data"

VALUES = (None, 0, -1, 10**400, "1/0", "abc", "1e400", [], {}, True, False, 1.5)

SCENARIO = json.loads((DATA / "closed_loop_seed1.json").read_text())
SCENARIO["horizon"] = 30

COLLECTION = {
    "mode": "perfect",
    "sets": [{"points": [["0", "0"], ["1", "0"]]}, {"polygon": [["0", "0"], ["0", "1"], ["1", "1"]]}],
}

# A coordinate of 10**400 makes a long exact chain, which is not malformed
# input; this budget keeps each run short, and a run that stops on it exits 2.
MAX_ITERS = "20"


def _fields(node, prefix=()):
    """The path of keys and indices to every value inside node."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _fields(child, prefix + (key,))


def _mutated(doc, path, value):
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


CASES = [
    (command, path, value)
    for command in ("simulate", "plot-data")
    for path in _fields(SCENARIO)
    for value in VALUES
    # The horizon is the run length, so it gets no valid value above 30: a
    # huge valid horizon asks for a long run, not malformed input.
    if not (path == ("horizon",) and value == 10**400)
] + [("compute-invariant", path, value) for path in _fields(COLLECTION) for value in VALUES]


@settings(max_examples=1000, deadline=None)
@given(st.sampled_from(CASES))
def test_runs_or_fails_with_one_line(case):
    """Exit 0; exit 2 (a budget) from compute-invariant; or exit 1 with
    exactly one ``errdiff: error:`` line, nothing on stdout and no --out."""
    command, path, value = case
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        source = Path(tmp) / "in.json"
        if command == "compute-invariant":
            source.write_text(json.dumps(_mutated(COLLECTION, path, value)))
            argv = [command, "--collection", str(source), "--max-iters", MAX_ITERS]
        else:
            source.write_text(json.dumps(_mutated(SCENARIO, path, value)))
            argv = [command, "--scenario", str(source)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv + ["--out", str(out)])
        if code == 0 or (code == 2 and command == "compute-invariant"):
            return
        assert code == 1
        (line,) = stderr.getvalue().splitlines()
        assert line.startswith("errdiff: error: ")
        assert stdout.getvalue() == ""
        assert not out.exists()
