"""Runs one workload in a fresh interpreter and prints one JSON line.

Started by ``run.py`` with a scrubbed environment (``PYTHONPATH`` set to the
checkout's ``src``, ``HURWITZ_WORK_BUDGET`` unset).  Untraced, it repeats the
workload's iteration while another one still fits in ``--seconds`` and
reports, per iteration, wall and CPU seconds (this process plus every child
it waited for).  Traced, it runs iteration 0 twice untraced and once under
the tracer and reports the layer metrics of the traced pass.

An iteration is a fixed list of operations.  Each operation's output is
compared exactly with ``golden.json`` or with the benchmark's own checks;
a mismatch or an exception counts as one failed operation.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import inputs
from tracer import Tracer

import ellcover as E
from ellcover import cli

ROOT = Path(__file__).resolve().parent.parent
CORES = len(os.sched_getaffinity(0))


def load_golden(path) -> dict:
    raw = json.loads(Path(path).read_text())
    gold = {
        "fg": {int(g): {int(e): c for e, c in s.items()} for g, s in raw["fg"].items()},
        "series": {name: {int(e): c for e, c in s.items()} for name, s in raw["series"].items()},
        "fits": {
            name: {tuple(map(int, k.split(","))): Fraction(v) for k, v in fit.items()}
            for name, fit in raw["fits"].items()
        },
        "gw_caterpillar_degree4": raw["gw_caterpillar_degree4"],
    }
    gold["genus4_classes"] = sorted(
        (inputs.own_canonical(6, c["edges"]), c["aut"], c["bridgeless"]) for c in raw["genus4_classes"]
    )
    return gold


class Ops:
    """Counts operations and collects failures; an operation returns None
    when its output is right and a description of the mismatch otherwise."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def run(self, label, fn, *args):
        self.attempted += 1
        try:
            problem = fn(*args)
        except Exception as exc:
            problem = f"raised {type(exc).__name__}: {exc}"
        if problem:
            self.failures.append(f"{label}: {problem}")


def _exact(values) -> bool:
    return all(isinstance(v, (int, Fraction)) and not isinstance(v, bool) for v in values)


def _diff(got, want):
    if got != want or not _exact(got.values()):
        return f"got {got!r}, expected {want!r}"
    return None


def _truncated(coeffs: dict, max_exponent: int) -> dict:
    return {e: c for e, c in coeffs.items() if e <= max_exponent}


def check_series(series, want: dict, degree: int):
    if series.order != 2 * degree + 2:
        return f"truncation order {series.order}, expected {2 * degree + 2}"
    return _diff(dict(series.coeffs), _truncated(want, 2 * degree))


def check_fit(rep, want: dict):
    if rep.weight != 12:
        return f"weight {rep.weight}, expected 12"
    return _diff({k: c for k, c in rep.coeffs.items() if c}, want)


# -- series-deep ---------------------------------------------------------


def _series_and_fit(name, n, edges, degree, gold):
    series = E.i_gamma_series(E.FeynmanGraph.from_edges(n, edges), degree)
    return check_series(series, gold["series"][name], degree) or check_fit(E.fit(series, 3), gold["fits"][name])


def series_deep(inp, gold, ops, in_process):
    degree = inp["degree"]
    for name, (n, edges) in inp["graphs"].items():
        ops.run(f"i_gamma_series({name}, {degree}) and fit", _series_and_fit, name, n, edges, degree, gold)


# -- series-wide ---------------------------------------------------------


def series_wide(inp, gold, ops, in_process):
    g, d = inp["genus"], inp["degree"]
    ops.run(f"f_g({g}, {d})", lambda: check_series(E.f_g(g, d), gold["fg"][g], d))


# -- graph-classify ------------------------------------------------------


def _classify_pair(graph, twin, found):
    """validate, bridges, |Aut| and canonical form of a graph and its
    relabelled twin, plus is_isomorphic between them."""
    built = []
    for n, edges in (graph, twin):
        g = E.FeynmanGraph.from_edges(n, edges)
        genus = E.validate(g)
        if genus != 5:
            return f"validate gave genus {genus}, expected 5"
        got = tuple(E.bridges(g))
        want = inputs.own_bridges(n, g.edges)
        if got != want:
            return f"bridges {got}, expected {want}"
        built.append(g)
    g, t = built
    aut, aut_twin = E.automorphism_count(g), E.automorphism_count(t)
    if aut != aut_twin or aut % inputs.edge_symmetry(graph[1]):
        return f"|Aut| {aut} vs twin {aut_twin} (edge symmetry {inputs.edge_symmetry(graph[1])})"
    form, form_twin = E.canonical_form(g), E.canonical_form(t)
    if form != form_twin:
        return "canonical forms of the graph and its twin differ"
    if E.is_isomorphic(g, t) is not True:
        return "is_isomorphic(graph, twin) is not True"
    found["graph"], found["form"] = g, form
    return None


def _classify_next(this, other, types_differ):
    """is_isomorphic against the next graph agrees with the canonical-form
    verdict, and graphs whose local types differ are never isomorphic."""
    if "form" not in this or "form" not in other:
        return "missing canonical form from the pair check"
    verdict = E.is_isomorphic(this["graph"], other["graph"])
    if verdict is not (this["form"] == other["form"]):
        return f"is_isomorphic gave {verdict}, canonical forms say {this['form'] == other['form']}"
    if types_differ and verdict:
        return "graphs with different local vertex types reported isomorphic"
    return None


def _check_classes(found, gold):
    got = sorted(
        (inputs.own_canonical(g.vertex_count, g.edges), bool(not inputs.own_bridges(g.vertex_count, g.edges)))
        for g in found
    )
    want = sorted((form, bridgeless) for form, _, bridgeless in gold["genus4_classes"])
    if got != want:
        return f"{len(got)} classes ({sum(b for _, b in got)} bridgeless), expected 17 (5 bridgeless)"
    return None


def graph_classify(inp, gold, ops, in_process):
    pairs = inp["pairs"]
    found = [{} for _ in pairs]
    for i, (graph, twin) in enumerate(pairs):
        ops.run(f"classify[{i}]", _classify_pair, graph, twin, found[i])
    for i, (graph, _) in enumerate(pairs):
        j = (i + 1) % len(pairs)
        differ = inputs.local_types(*graph) != inputs.local_types(*pairs[j][0])
        ops.run(f"is_isomorphic[{i}, {j}]", _classify_next, found[i], found[j], differ)
    genus = inp["enumerate"]
    ops.run(f"enumerate_genus({genus})", lambda: _check_classes(E.enumerate_genus(genus), gold))


# -- cli-oracles ---------------------------------------------------------


def _coeff_map(payload) -> dict:
    return {int(e): Fraction(c) for e, c in payload["coefficients"].items()}


def _fit_map(payload) -> dict:
    out = {}
    for mono, c in payload["coefficients"].items():
        i, j, k = (int(part.split("^")[1]) for part in mono.split("*"))
        out[(i, j, k)] = Fraction(c)
    return out


def _check_graph_rows(rows, gold):
    for row in rows:
        n, edges = row["vertices"], [tuple(e) for e in row["edges"]]
        want = [k + 1 for k in inputs.own_bridges(n, edges)]
        if sorted(row["bridges"]) != want or row["bridgeless"] != (not want):
            return f"bridges {row['bridges']} of {edges}, expected {want}"
    got = sorted((inputs.own_canonical(r["vertices"], r["edges"]), r["aut"], r["bridgeless"]) for r in rows)
    if got != gold["genus4_classes"]:
        return f"{len(rows)} classes do not match the recorded genus-4 classes"
    return None


def cli_script(files, gold):
    """(argv, check of the parsed --json output) for every CLI call."""
    script = []
    for g, d in ((2, 5), (3, 4)):
        want = _truncated(gold["fg"][g], 2 * d)
        for oracle in ("integral", "tropical", "sym"):
            argv = ["fg", "--genus", str(g), "--max-degree", str(d), "--oracle", oracle]
            script.append((argv, lambda p, want=want: _diff(_coeff_map(p), want)))
    script.append((
        ["igamma", "--graph", files["k4"], "--max-degree", "8"],
        lambda p: _diff(_coeff_map(p), _truncated(gold["series"]["k4"], 16)),
    ))
    script.append((
        ["qfit", "--graph", files["ladder"], "--max-degree", "8"],
        lambda p: _diff(_fit_map(p), gold["fits"]["ladder"]) if p["weight"] == 12 else f"weight {p['weight']}",
    ))
    script.append((
        ["gw", "--graph", files["caterpillar"], "--degree", "4"],
        lambda p: None if p["count"] == gold["gw_caterpillar_degree4"] else f"count {p['count']}",
    ))
    script.append((["graphs", "--genus", "4"], lambda p: _check_graph_rows(p, gold)))
    return [(["--json", "--threads", str(CORES)] + argv, check) for argv, check in script]


def _cli_call(argv, check, in_process):
    if in_process:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        stdout, stderr = out.getvalue(), err.getvalue()
    else:
        proc = subprocess.run(
            [sys.executable, "-m", "ellcover.cli"] + argv,
            capture_output=True, text=True, cwd=ROOT, timeout=120,
        )
        code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
    if code != 0:
        return f"exit code {code}: {stderr.strip()[-300:]}"
    return check(json.loads(stdout))


def cli_oracles(inp, gold, ops, in_process):
    for argv, check in cli_script(inp["files"], gold):
        ops.run(" ".join(argv[3:]), _cli_call, argv, check, in_process)


def prepare_cli(inp, scratch: Path) -> dict:
    """Write the relabelled graphs as JSON files for the CLI."""
    files = {}
    for name, (n, edges) in inp["graphs"].items():
        path = scratch / f"{name}.json"
        path.write_text(json.dumps({"vertices": n, "edges": [list(e) for e in edges]}))
        files[name] = str(path)
    return dict(inp, files=files)


RUNNERS = {
    "series-deep": series_deep,
    "series-wide": series_wide,
    "graph-classify": graph_classify,
    "cli-oracles": cli_oracles,
}


# -- measurement ---------------------------------------------------------


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _iteration(workload, seed, i, gold, scratch, in_process, ops):
    """Build iteration i's inputs, then run and time it: (wall_s, cpu_s)."""
    inp = inputs.make(workload, seed, i)
    if workload == "cli-oracles":
        inp = prepare_cli(inp, scratch)
    cpu0, wall0 = _cpu_seconds(), time.perf_counter()
    RUNNERS[workload](inp, gold, ops, in_process)
    return time.perf_counter() - wall0, _cpu_seconds() - cpu0


def measure(workload, seed, seconds, gold, scratch) -> dict:
    ops = Ops()
    walls, cpus = [], []
    deadline = time.perf_counter() + seconds
    # start another iteration only if a typical one still ends in time
    while not walls or time.perf_counter() + statistics.median(walls) <= deadline:
        wall, cpu = _iteration(workload, seed, len(walls), gold, scratch, False, ops)
        walls.append(wall)
        cpus.append(cpu)
    who = resource.RUSAGE_CHILDREN if workload == "cli-oracles" else resource.RUSAGE_SELF
    return {
        "wall_s": walls,
        "cpu_s": cpus,
        "peak_rss_mib": resource.getrusage(who).ru_maxrss / 1024,
        "attempted": ops.attempted,
        "failures": ops.failures,
    }


def measure_traced(workload, seed, gold, scratch) -> dict:
    """Iteration 0 twice untraced (the first warms up), then traced; all in
    this process (the CLI via ``cli.main``), so the difference between the
    last two is the tracing overhead."""
    ops = Ops()
    for _ in range(2):
        untraced, _ = _iteration(workload, seed, 0, gold, scratch, True, ops)
    tracer = Tracer()
    with tracer:
        traced, _ = _iteration(workload, seed, 0, gold, scratch, True, ops)
    layers = tracer.metrics()
    layers.update({"trace.wall_s": traced, "trace.untraced_wall_s": untraced, "trace.overhead_s": traced - untraced})
    return {
        "layers": layers,
        "absent": sorted(tracer.absent | tracer.unknown),
        "attempted": ops.attempted,
        "failures": ops.failures,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--golden", required=True)
    parser.add_argument("--scratch", required=True, help="directory for the CLI's graph files")
    args = parser.parse_args(argv)
    gold = load_golden(args.golden)
    scratch = Path(args.scratch)
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            result = measure_traced(args.workload, args.seed, gold, scratch)
        else:
            result = measure(args.workload, args.seed, args.seconds, gold, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
