import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ellcover
from ellcover.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gw_branch_type(capsys, graph_file, caterpillar):
    path = graph_file(caterpillar)
    code, out, _ = run(capsys, "--threads", "1", "gw", "--graph", path, "--branch", "0,0,0,0,1,1")
    assert code == 0 and out.strip() == "8"


def test_gw_degree(capsys, graph_file, caterpillar):
    path = graph_file(caterpillar)
    code, out, _ = run(capsys, "--threads", "1", "gw", "--graph", path, "--degree", "2")
    assert code == 0 and out.strip() == "32"


def test_gw_parallel_matches_sequential(capsys, graph_file, caterpillar):
    path = graph_file(caterpillar)
    _, seq, _ = run(capsys, "--threads", "1", "gw", "--graph", path, "--branch", "0,2,1,0,0,1")
    _, par, _ = run(capsys, "--threads", "2", "gw", "--graph", path, "--branch", "0,2,1,0,0,1")
    assert seq == par and seq.strip() == "256"


def test_gw_json_and_bridge_reason(capsys, graph_file, dumbbell):
    path = graph_file(dumbbell)
    code, out, _ = run(capsys, "--json", "--threads", "1", "gw", "--graph", path, "--degree", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"count": 0, "degree": 2, "reason": "bridge"}


def test_gw_requires_exactly_one_mode(capsys, graph_file, caterpillar):
    path = graph_file(caterpillar)
    code, _, err = run(capsys, "--threads", "1", "gw", "--graph", path)
    assert code == 2 and "error:" in err
    code, _, err = run(
        capsys, "--threads", "1", "gw", "--graph", path, "--branch", "0,0,0,0,1,1", "--degree", "2"
    )
    assert code == 2


def test_genfun_theta_golden(capsys, graph_file, theta):
    path = graph_file(theta)
    code, out, _ = run(capsys, "genfun", "--graph", path, "--degree", "3")
    assert code == 0
    assert out.strip() == (
        "24*q(1)^3+20*q(1)^2*q(2)+20*q(1)*q(2)^2+24*q(2)^3+20*q(1)^2*q(3)"
        "+20*q(2)^2*q(3)+20*q(1)*q(3)^2+20*q(2)*q(3)^2+24*q(3)^3"
        "+4*q(1)^2+4*q(1)*q(2)+4*q(2)^2+4*q(1)*q(3)+4*q(2)*q(3)+4*q(3)^2"
    )


def test_genfun_caterpillar_golden(capsys, graph_file, caterpillar):
    path = graph_file(caterpillar)
    code, out, _ = run(capsys, "genfun", "--graph", path, "--degree", "2")
    assert code == 0
    assert out.strip() == "8*q(1)^2+8*q(2)*q(3)+8*q(4)^2+8*q(5)*q(6)"


def test_genfun_deterministic(capsys, graph_file, theta):
    path = graph_file(theta)
    _, first, _ = run(capsys, "genfun", "--graph", path, "--degree", "3")
    _, second, _ = run(capsys, "genfun", "--graph", path, "--degree", "3")
    assert first == second


def test_igamma(capsys, graph_file, caterpillar):
    path = graph_file(caterpillar)
    code, out, _ = run(capsys, "--threads", "1", "igamma", "--graph", path, "--max-degree", "3")
    assert code == 0 and out.strip() == "32*q^4+1792*q^6"


def test_igamma_json(capsys, graph_file, caterpillar):
    path = graph_file(caterpillar)
    code, out, _ = run(
        capsys, "--json", "--threads", "2", "igamma", "--graph", path, "--max-degree", "2"
    )
    payload = json.loads(out)
    assert payload["coefficients"] == {"4": "32"}
    assert payload["truncation_order"] == 6


@pytest.mark.parametrize("oracle", ["integral", "tropical", "sym"])
def test_fg_oracles_agree(capsys, oracle):
    code, out, _ = run(
        capsys, "--threads", "1", "fg", "--genus", "2", "--max-degree", "3", "--oracle", oracle
    )
    assert code == 0 and out.strip() == "2*q^4+16*q^6"


def test_fg_sym_over_budget_exits_2(capsys, monkeypatch):
    monkeypatch.delenv("HURWITZ_WORK_BUDGET", raising=False)
    code, out, err = run(capsys, "fg", "--genus", "2", "--max-degree", "10000", "--oracle", "sym")
    assert code == 2 and out == ""
    assert err.startswith("error: BudgetExceeded: estimated work for degree 10000, genus 2 is at least ")
    assert "over the budget 100000000" in err


def test_fg_over_the_genus_bound_exits_2(capsys):
    code, out, err = run(capsys, "fg", "--genus", "7", "--max-degree", "1")
    assert code == 2 and out == ""
    assert err.strip() == (
        "error: GenusTooLarge: genus 7 exceeds the integral oracle's genus bound 6; "
        'oracle="sym" has no genus bound'
    )


@pytest.mark.parametrize("value", ["abc", "-5", "0", "1.5"])
def test_fg_sym_with_a_bad_budget_variable_exits_2(capsys, monkeypatch, value):
    monkeypatch.setenv("HURWITZ_WORK_BUDGET", value)
    code, out, err = run(capsys, "fg", "--genus", "2", "--max-degree", "3", "--oracle", "sym")
    assert code == 2 and out == ""
    assert err.strip() == f"error: ValueError: HURWITZ_WORK_BUDGET must be a positive integer, got {value!r}"


def test_import_does_not_load_dataclasses():
    # dataclasses pulls in inspect, ast and dis, which every cold CLI call
    # would pay for
    code = (
        "import json, sys; before = set(sys.modules); import ellcover.cli; "
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=str(Path(ellcover.__file__).resolve().parent.parent)),
    )
    assert proc.returncode == 0, proc.stderr
    added = json.loads(proc.stdout)
    assert "ellcover.cli" in added
    assert "dataclasses" not in added


def test_graphs_listing(capsys):
    code, out, _ = run(capsys, "graphs", "--genus", "3")
    assert code == 0
    assert "5 graph(s) of genus 3" in out
    code, out, _ = run(capsys, "--json", "graphs", "--genus", "3", "--bridgeless")
    rows = json.loads(out)
    assert len(rows) == 2
    assert all(row["bridgeless"] for row in rows)
    assert sorted(row["aut"] for row in rows) == [16, 24]


def test_graphs_genus_5_json(capsys):
    code, out, _ = run(capsys, "--json", "graphs", "--genus", "5")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 71
    assert len({json.dumps(row["edges"]) for row in rows}) == 71


def test_covers_json_lines(capsys, graph_file, caterpillar):
    path = graph_file(caterpillar)
    code, out, _ = run(
        capsys, "covers", "--graph", path, "--branch", "0,2,1,0,0,1", "--order", "1,3,4,2"
    )
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert sum(row["multiplicity"] for row in rows) == 128
    for row in rows:
        assert row["degree"] == 4
        assert row["order"] == [1, 3, 4, 2]
        assert all(
            f * w == a
            for f, w, a in zip(row["fiber_counts"], row["weights"], (0, 2, 1, 0, 0, 1))
        )


def test_qfit(capsys, graph_file, k4):
    path = graph_file(k4)
    code, out, _ = run(capsys, "--threads", "2", "qfit", "--graph", path, "--max-degree", "8")
    assert code == 0
    assert "(1/20736)*E4^3" in out
    code, out, _ = run(
        capsys, "--json", "--threads", "2", "qfit", "--graph", path, "--max-degree", "8"
    )
    payload = json.loads(out)
    assert payload["weight"] == 12
    assert payload["coefficients"]["E2^6*E4^0*E6^0"] == "-1/20736"


def test_qfit_underdetermined_is_structured_error(capsys, graph_file, k4):
    path = graph_file(k4)
    code, _, err = run(capsys, "--threads", "1", "qfit", "--graph", path, "--max-degree", "3")
    assert code == 2 and "Underdetermined" in err


def test_missing_file_error(capsys):
    code, _, err = run(capsys, "gw", "--graph", "/nonexistent.json", "--degree", "2")
    assert code == 2 and "error:" in err


def test_invalid_graph_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"vertices": 2, "edges": [[1, 2], [1, 2]]}))
    code, _, err = run(capsys, "gw", "--graph", str(path), "--degree", "1")
    assert code == 2 and "BadCardinality" in err


@pytest.mark.parametrize(
    "data, field",
    [
        ({"vertices": 2.9, "edges": [[1, 2]] * 3}, '"vertices"'),
        ({"vertices": True, "edges": [[1, 2]] * 3}, '"vertices"'),
        ({"edges": [[1, 2]] * 3}, '"vertices"'),
        ({"vertices": 2, "edges": [["a", 2], [1, 2], [1, 2]]}, '"edges"[0]'),
        ({"vertices": 2, "edges": [[1, 2], [1, 2], [1, 2.0]]}, '"edges"[2]'),
        ([1, 2], "object"),
    ],
)
def test_malformed_graph_json_exits_without_traceback(tmp_path, data, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    proc = subprocess.run(
        [sys.executable, "-m", "ellcover.cli", "igamma", "--graph", str(path), "--max-degree", "2"],
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=str(Path(ellcover.__file__).resolve().parent.parent)),
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: MalformedGraph") and field in proc.stderr


@pytest.mark.parametrize(
    "content, reason",
    [(b'{"vertices": 2, edges: []}', "not valid JSON"), (b'{"vertices": "\xff"}', "not UTF-8 text")],
    ids=["json", "utf-8"],
)
@pytest.mark.parametrize("as_json", [False, True], ids=["plain", "json"])
def test_unreadable_graph_file_names_the_file(capsys, tmp_path, content, reason, as_json):
    # before, json.load's own error reached the user without the file name
    path = tmp_path / "unreadable.json"
    path.write_bytes(content)
    flags = ["--json"] if as_json else []
    code, out, err = run(capsys, *flags, "igamma", "--graph", str(path), "--max-degree", "2")
    assert code == 2 and out == ""
    if as_json:
        payload = json.loads(err)
        assert payload["error"] == "MalformedGraph"
        message = payload["message"]
    else:
        assert err.startswith("error: MalformedGraph: ")
        message = err
    assert f"graph file {path} is {reason}" in message


@pytest.mark.parametrize(
    "data, error, detail",
    [
        ({"vertices": 2, "edges": [[1, 2], [1, 2], [1, "x"]]}, "MalformedGraph", '"edges"[2] must be a pair'),
        ({"vertices": 2, "edges": [[1, 2], [1, 2]]}, "BadCardinality", "2 vertices / 2 edges do not match"),
        ({"vertices": 4, "edges": [[1, 2]] * 3 + [[3, 4]] * 3}, "NotConnected", "not connected"),
    ],
    ids=["shape", "cardinality", "connectivity"],
)
@pytest.mark.parametrize("as_json", [False, True], ids=["plain", "json"])
def test_invalid_graph_file_names_the_file(capsys, tmp_path, data, error, detail, as_json):
    # before, only JSON and UTF-8 errors named the file
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(data))
    flags = ["--json"] if as_json else []
    code, out, err = run(capsys, *flags, "gw", "--graph", str(path), "--degree", "1")
    assert code == 2 and out == ""
    if as_json:
        payload = json.loads(err)
        assert payload["error"] == error
        message = payload["message"]
    else:
        assert err.startswith(f"error: {error}: ")
        message = err
    assert f"graph file {path}: " in message and detail in message


def test_bad_branch_length(capsys, graph_file, theta):
    path = graph_file(theta)
    code, _, err = run(capsys, "--threads", "1", "gw", "--graph", path, "--branch", "1,2")
    assert code == 2 and "error:" in err


def test_json_error_output(capsys, graph_file, theta):
    path = graph_file(theta)
    code, _, err = run(capsys, "--json", "--threads", "1", "gw", "--graph", path, "--branch", "1,2")
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "ValueError"



@pytest.mark.parametrize(
    "argv",
    [
        ["fg", "--genus", "3", "--max-degree", "-1"],
        ["igamma", "--graph", "{graph}", "--max-degree", "-2"],
        ["genfun", "--graph", "{graph}", "--degree", "-1"],
    ],
)
def test_negative_degree_exits_2_without_traceback(graph_file, k4, argv):
    path = graph_file(k4)
    proc = subprocess.run(
        [sys.executable, "-m", "ellcover.cli"] + [arg.replace("{graph}", path) for arg in argv],
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=str(Path(ellcover.__file__).resolve().parent.parent)),
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ValueError") and "must be non-negative" in proc.stderr


# genus 5 is left out of the fuzz range because enumerating its orders takes
# over a second, and so is the tropical f_g(4, 3) (about one second)
_FG_ARGS = st.tuples(
    st.sampled_from([-1, 0, 1, 2, 3, 4, 6]),
    st.integers(-2, 3),
    st.sampled_from(["integral", "tropical", "sym"]),
).filter(lambda t: t != (4, 3, "tropical"))


def test_cli_integer_flags_fuzz(theta, dumbbell, caterpillar, k4):
    # every integer a flag may take exits 0 or 2 and raises nothing
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for k, graph in enumerate((theta, dumbbell, caterpillar, k4)):
            path = Path(tmp) / f"graph{k}.json"
            path.write_text(json.dumps(graph.to_json()))
            paths.append(str(path))

        def with_graph(command, flag, low, high):
            return st.tuples(st.sampled_from(paths), st.integers(low, high)).map(
                lambda t: [command, "--graph", t[0], flag, str(t[1])]
            )

        argvs = st.one_of(
            _FG_ARGS.map(lambda t: ["fg", "--genus", str(t[0]), "--max-degree", str(t[1]), "--oracle", t[2]]),
            with_graph("igamma", "--max-degree", -3, 6),
            with_graph("gw", "--degree", -3, 4),
            with_graph("genfun", "--degree", -3, 3),
        )

        @settings(max_examples=60, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow])
        @given(argv=argvs, as_json=st.booleans())
        def check(argv, as_json):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main((["--json"] if as_json else []) + argv)
            assert code in (0, 2)
            assert (code == 0) == (err.getvalue() == "")

        check()


# JSON values of every kind, nested a little: the shapes a graph file may
# hold in place of a graph, a vertex count, an edge list or a vertex
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9) | st.floats(allow_nan=True) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=12,
)
_VERTEX = st.one_of(st.integers(-1, 7), st.booleans(), st.floats(-1, 7), st.sampled_from(["1", None, [1]]))
_GRAPH_JSON = st.one_of(
    _JSON,
    st.fixed_dictionaries(
        {"vertices": _VERTEX, "edges": st.lists(st.lists(_VERTEX, max_size=3) | _JSON, max_size=7)},
        optional={"extra": _JSON},
    ),
)
# comma-separated integer lists with junk entries mixed in; the integers stay
# small so that every well-formed branch type is cheap to count
_INT_LIST = st.lists(
    st.integers(-2, 4).map(str) | st.sampled_from(["", " ", "x", "1.5", "+1", " 2", "1e1", "0x1", "-0", "\u0663"]),
    max_size=8,
).map(",".join)


def _valid_graph_json(graph):
    """A known graph with one of: nothing changed, an extra key, one vertex
    moved out of range, one edge dropped."""
    n, edges = graph.vertex_count, [list(e) for e in graph.edges]
    return st.sampled_from(
        [
            {"vertices": n, "edges": edges},
            {"vertices": n, "edges": edges, "loops": 0},
            {"vertices": n, "edges": [[0, edges[0][1]]] + edges[1:]},
            {"vertices": n, "edges": edges[1:]},
        ]
    )


def test_cli_graph_and_list_inputs_fuzz(tmp_path, theta, dumbbell, caterpillar, k4):
    # every graph file and every --branch / --order list exits 0 or 2 with a
    # structured error, never a traceback
    graph_json = st.one_of(_GRAPH_JSON, *(_valid_graph_json(G) for G in (theta, dumbbell, caterpillar, k4)))
    contents = st.one_of(
        graph_json.map(lambda data: json.dumps(data).encode()),
        st.text(max_size=20).map(str.encode),
        st.binary(max_size=20),
    )
    commands = st.one_of(
        st.just(["igamma", "--max-degree", "1"]),
        st.just(["gw", "--degree", "1"]),
        st.just(["genfun", "--degree", "1"]),
        st.just(["qfit", "--max-degree", "2"]),
        _INT_LIST.map(lambda branch: ["gw", f"--branch={branch}"]),
        st.tuples(_INT_LIST, _INT_LIST).map(lambda t: ["covers", f"--branch={t[0]}", f"--order={t[1]}"]),
    )
    path = tmp_path / "graph.json"

    @settings(max_examples=150, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow])
    @given(content=contents, command=commands, as_json=st.booleans())
    def check(content, command, as_json):
        path.write_bytes(content)
        argv = (["--json"] if as_json else []) + command[:1] + ["--graph", str(path)] + command[1:]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2)
        assert (code == 0) == (err.getvalue() == "")
        assert "Traceback" not in err.getvalue()

    check()
