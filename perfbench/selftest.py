"""Self-tests of the benchmark itself: seeded inputs, tracing hooks, exact
output checks, the compare verdicts and process hygiene.

    python3 perfbench/selftest.py

Takes about half a minute; one test runs the cli-oracles workload once.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

TMP = ROOT / ".perfbench_tmp" / f"selftest-{os.getpid()}"


def setUpModule():
    TMP.mkdir(parents=True, exist_ok=True)


def tearDownModule():
    shutil.rmtree(TMP, ignore_errors=True)
    with contextlib.suppress(OSError):
        TMP.parent.rmdir()


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for workload in inputs.WORKLOADS:
            for seed in (1, 2):
                for i in (0, 3):
                    self.assertEqual(inputs.make(workload, seed, i), inputs.make(workload, seed, i))

    def test_seed_and_iteration_change_inputs(self):
        for workload in ("series-deep", "graph-classify", "cli-oracles"):
            self.assertNotEqual(inputs.make(workload, 1, 0), inputs.make(workload, 2, 0))
            self.assertNotEqual(inputs.make(workload, 1, 0), inputs.make(workload, 1, 1))

    def test_classify_batch_is_the_fixed_mix_of_connected_trivalent_graphs(self):
        pairs = inputs.make("graph-classify", 5, 0)["pairs"]
        largest = sorted(max(inputs.local_types(*g).values()) for g, _ in pairs)
        caps = [min(c for c, _ in inputs.CLASSIFY_MIX if x <= c) for x in largest]
        self.assertEqual(sorted(caps), sorted(c for c, k in inputs.CLASSIFY_MIX for _ in range(k)))
        for (n, edges), twin in pairs:
            self.assertTrue(inputs.is_connected(n, edges))
            self.assertEqual(sorted(v for e in edges for v in e), sorted(list(range(1, n + 1)) * 3))
            self.assertEqual(inputs.local_types(n, edges), inputs.local_types(*twin))

    def test_input_building_imports_nothing_from_ellcover(self):
        code = (
            f"import sys; sys.path.insert(0, {str(HERE)!r}); import inputs\n"
            "for w in inputs.WORKLOADS: inputs.make(w, 1, 0)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'ellcover'))"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                             env=run.scrubbed_env())
        self.assertEqual(out.stdout.strip(), "[]")


def _small_traced_work():
    import ellcover as E
    from ellcover import cli

    theta = E.FeynmanGraph.from_edges(2, [(1, 2), (1, 2), (1, 2)])
    E.fit(E.i_gamma_series(theta, 3), 2)
    k4 = E.FeynmanGraph.from_edges(*inputs.K4)
    E.f_g(3, 2)
    E.is_isomorphic(k4, E.FeynmanGraph.from_edges(*inputs.relabel(random.Random(1), inputs.K4)))
    E.count_covers_total(E.FeynmanGraph.from_edges(*inputs.CATERPILLAR), (0, 2, 1, 0, 0, 1))
    E.hurwitz_count(2, 2)
    with contextlib.suppress(E.BudgetExceeded):
        E.hurwitz_count(4, 3, budget=1)
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["--threads", "1", "graphs", "--genus", "3"])


def _bindings_of_all_targets():
    found = []
    for target in tracer.TARGETS:
        resolved = tracer._resolve(target)
        if resolved:
            owner, original = resolved
            found.extend((where, name, original) for where, name in tracer._bindings(owner, original))
    return found


class Tracing(unittest.TestCase):
    def test_every_binding_is_patched_then_restored(self):
        before = _bindings_of_all_targets()
        self.assertGreater(len(before), len(tracer.TARGETS))  # aliases were found
        with tracer.Tracer() as tr:
            patched = [vars(where)[name] is not original for where, name, original in before]
            _small_traced_work()
        self.assertTrue(all(patched))
        for where, name, original in before:
            self.assertIs(vars(where)[name], original, f"{where.__name__}.{name}")
        values = tr.metrics()
        for name in ("laurent.mul_calls", "integrals.orders_evaluated", "graphs.iso_true", "tropical.tuples",
                     "monodromy.hurwitz_calls", "quasimodular.fit_calls", "cli.commands"):
            self.assertGreater(values[name], 0, name)
        self.assertEqual(values["monodromy.budget_refusals"], 1)

    def test_missing_target_is_absent_not_fatal(self):
        gone = tracer.Target("laurent", "NoSuchClass.method", "gone.calls", "gone.s")
        with tracer.Tracer(tracer.TARGETS + (gone,)) as tr:
            _small_traced_work()
        self.assertIn("gone.calls", tr.absent)
        self.assertNotIn("gone.calls", tr.metrics())
        self.assertIn("laurent.mul_calls", tr.metrics())

    def test_counts_repeat_exactly(self):
        runs = []
        for _ in range(2):
            with tracer.Tracer() as tr:
                _small_traced_work()
            runs.append({k: v for k, v in tr.metrics().items() if not k.endswith("_s")})
        self.assertEqual(runs[0], runs[1])


class ExactChecks(unittest.TestCase):
    def test_corrupted_expected_value_counts_as_failures(self):
        gold = json.loads((HERE / "golden.json").read_text())
        gold["fg"]["2"]["10"] += 1  # F_2 at q^10, checked once per fg oracle at genus 2
        path = TMP / "corrupted.json"
        path.write_text(json.dumps(gold))
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "cli-oracles", "--seed", "1", "--seconds", "1",
             "--golden", str(path)],
            capture_output=True, text=True, cwd=ROOT, timeout=170,
        )
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 3)
        self.assertEqual(result["metrics"]["pass_ratio"]["value"], 1 - 3 / result["attempted"])


class Hygiene(unittest.TestCase):
    def test_scrubbed_environment(self):
        saved = dict(os.environ)
        try:
            os.environ.update(HURWITZ_WORK_BUDGET="5", PYTHONPATH="/elsewhere", PYTHONOPTIMIZE="1")
            env = run.scrubbed_env()
        finally:
            os.environ.clear()
            os.environ.update(saved)
        self.assertNotIn("HURWITZ_WORK_BUDGET", env)
        self.assertNotIn("PYTHONOPTIMIZE", env)
        self.assertEqual(env["PYTHONPATH"], str(ROOT / "src"))

    def test_fails_without_sources(self):
        bare = TMP / "bare"
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "series-deep", "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=60,
        )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class Verdicts(unittest.TestCase):
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]

    def verdict(self, change, bound=0.1):
        return compare.verdict(self.parent, change, "lower", bound)[1]

    def test_improved(self):
        self.assertEqual(self.verdict([x * 0.8 for x in self.parent]), "improved")

    def test_worse(self):
        self.assertEqual(self.verdict([x * 1.3 for x in self.parent]), "worse")

    def test_no_worse(self):
        self.assertEqual(self.verdict([x * 1.02 for x in self.parent]), "no worse")

    def test_unresolved_when_spread_exceeds_bound(self):
        noisy = [5.0, 15.0, 7.0, 13.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
        self.assertEqual(self.verdict(noisy), "unresolved")

    def test_higher_is_better(self):
        share, word = compare.verdict(self.parent, [x * 1.2 for x in self.parent], "higher", 0.1)
        self.assertEqual((share, word), (1.0, "improved"))


if __name__ == "__main__":
    unittest.main(verbosity=2)
