"""Mutated shipped specs end in a documented exit code with one line at most.

Each example takes a spec from `specs/`, replaces or deletes one or two
values anywhere in its JSON tree and runs `eval`, `scan` or `mesh` on the
result in-process.  Exit 5 (an internal error) and tracebacks are outside
the contract, whatever the input.
"""

import contextlib
import copy
import io
import json
import pathlib
import tempfile
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from sepcurv.cli import main

SPECS = {
    path.name: json.loads(path.read_text(encoding="utf-8"))
    for path in sorted((pathlib.Path(__file__).parents[1] / "specs").glob("*.json"))
}
# 1e999 is written as Infinity, which Python's JSON reader accepts
POOL = [10**400, 1e999, -0.0, "", "x", True, None, [], {}, [2, 1]]
DELETE = object()


def paths(tree, prefix=()):
    """Every path to a value inside a JSON tree, parents before children."""
    if isinstance(tree, dict):
        items = tree.items()
    elif isinstance(tree, list):
        items = enumerate(tree)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from paths(value, prefix + (key,))


def replacement(old):
    """A value of the old one's kind half the time, else a pool value or
    deleting the old one.  Integers stay small (the huge one is in the pool):
    a scan writes a record per coordinate pair and point, so a family n near
    100 with the specs' 100 draws would take minutes."""
    if isinstance(old, bool) or not isinstance(old, (int, float, str)):
        like = st.sampled_from(POOL)
    elif isinstance(old, int):
        like = st.integers(-3, 16)
    elif isinstance(old, float):
        like = st.floats()
    else:
        like = st.sampled_from(["log(x)", "1/x", "x^0.5", "exp(exp(x))", "x^", "sin(", "x"])
    return st.one_of(like, like, st.sampled_from(POOL), st.just(DELETE))


def dimension(tree):
    return tree["family"]["n"] if "family" in tree else len(tree["functions"])


@st.composite
def mutated_runs(draw):
    """A mutated spec's name and tree, and a command that suits its original
    (`mesh` only for n = 3)."""
    name = draw(st.sampled_from(sorted(SPECS)))
    tree = copy.deepcopy(SPECS[name])
    commands = ["eval", "scan", "mesh"] if dimension(SPECS[name]) == 3 else ["eval", "scan"]
    command = draw(st.sampled_from(commands))
    for _ in range(draw(st.integers(1, 2))):
        where = list(paths(tree))
        if not where:
            break
        path = draw(st.sampled_from(where))
        parent = tree
        for key in path[:-1]:
            parent = parent[key]
        value = draw(replacement(parent[path[-1]]))
        if value is DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(value)   # pool lists stay unmutated
    return name, tree, command


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(run=mutated_runs())
def test_mutated_specs_keep_the_exit_contract(run):
    name, tree, command = run
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / name
        path.write_text(json.dumps(tree), encoding="utf-8")
        argv = [command, str(path)]
        if command == "eval":
            argv += ["--point", ",".join(["0.5"] * (dimension(SPECS[name]) - 1))]
        else:
            argv += ["--out", str(pathlib.Path(tmp) / ("out.obj" if command == "mesh" else "out"))]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(argv)
    err = stderr.getvalue().splitlines()
    assert code in {0, 1, 2, 3, 4}, (code, err, tree)
    assert len(err) + len(caught) <= 1, (err, [str(w.message) for w in caught], tree)
    assert not any("internal error" in line for line in err), (err, tree)
