"""Every per-graph sum goes through ``integrals.orbit_sum``: it alone
validates the graph, makes the bridge decision, chooses the automorphisms
and hands the count the one search over vertex orders
(``integrals._order_search``), so a new way of summing is a change to one
function.  The search keeps one lexicographically first order per orbit of
acyclic orientations (an order enters a count only through the orientation
it induces); no orbit builder is left in the package, and no sum walks the
n! orders.  Only sums symmetric in the edges let it use the automorphisms.
``f_g`` sums over the bridgeless classes of ``graphs._classes`` (the classes
of ``enumerate_genus`` with the automorphisms their search found), which
grow from the theta graph by edge insertion alone, so it makes no bridge
test of its own and builds, searches and counts the automorphisms of no
bridged graph.  One kernel set-up, ``integrals._Kernel``, serves the order
search and the single-order pass ``integrals._eliminate`` (behind the two
single-order entry points alone); its one vertex step is the only caller of
``integrals._vertex_step``, which alone builds the rows that filter its
bundles (``integrals._row``), and it reads its edge factors only from one memo
of bundle tables, ``integrals._bundle_terms``.  The symmetric-group path
imports nothing from the package, so the cross-oracle checks compare
independent code; it lists no partition, and ``f_g`` reads the whole
``sym`` series off one pass of its recurrence.  One routine,
``graphs._canon``, runs the graph refinement search: the canonical form, the
isomorphism test, the automorphisms and enumeration all read its one search
per graph."""

import ast
from pathlib import Path

import ellcover

PACKAGE = Path(ellcover.__file__).parent


def callers(module_file, name):
    """Names of the top-level functions and classes of a module whose
    bodies (nested lambdas and functions included) call ``name``; other
    module-level calls count as ``<module>``."""
    tree = ast.parse((PACKAGE / module_file).read_text())
    found = set()
    for top in tree.body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called == name:
                    found.add(owner)
    return found


def defines(module_file, name):
    """Whether a module defines ``name`` at its top level."""
    tree = ast.parse((PACKAGE / module_file).read_text())
    return any(getattr(top, "name", None) == name for top in tree.body)


def test_order_search_is_named_only_by_orbit_sum():
    # the search is the one way to sum over orders, and orbit_sum alone hands
    # it to the counts, so it alone picks how orders are summed
    assert mentions("integrals.py", "_order_search") == {"orbit_sum"}
    for module_file in sorted(p.name for p in PACKAGE.glob("*.py")):
        if module_file != "integrals.py":
            assert "_order_search" not in (PACKAGE / module_file).read_text(), module_file
        # the orbit builders and the n!-order reference live in the tests
        for name in ("orientation_orbits", "_orientation_orbits", "order_orbits", "_first_extension"):
            assert not defines(module_file, name), (module_file, name)
        # no sum walks the n! orders: all_orders, kept for the tests, is the
        # only listing of permutations, and nothing in the package calls it
        assert callers(module_file, "all_orders") == set(), module_file
        assert callers(module_file, "permutations") == ({"all_orders"} if module_file == "integrals.py" else set())
    assert not {"order_orbits", "orientation_orbits"} & set(ellcover.__all__)


def test_graph_search_runs_only_inside_canon():
    assert callers("graphs.py", "_search") == {"_canon"}
    for module_file in sorted(p.name for p in PACKAGE.glob("*.py")):
        if module_file == "graphs.py":
            continue
        tree = ast.parse((PACKAGE / module_file).read_text())
        for node in ast.walk(tree):
            # neither imported from graphs nor reached as an attribute
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("graphs"):
                assert "_search" not in {a.name for a in node.names}, module_file
            assert not (isinstance(node, ast.Attribute) and node.attr == "_search"), module_file
        if callers(module_file, "_search"):
            # a bare call names the module's own search (tropical has one)
            assert any(getattr(top, "name", None) == "_search" for top in tree.body), module_file


def orbit_sum_symmetry(module_file):
    """Top-level function of a module -> the ``symmetric`` argument of its
    ``orbit_sum`` calls (True when left at the default)."""
    found = {}
    for top in ast.parse((PACKAGE / module_file).read_text()).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "orbit_sum":
                flags = [ast.literal_eval(kw.value) for kw in node.keywords if kw.arg == "symmetric"]
                flags += [ast.literal_eval(arg) for arg in node.args[2:]]
                found.setdefault(getattr(top, "name", "<module>"), set()).update(flags or [True])
    return found


def test_orbit_sum_uses_automorphisms_only_for_edge_symmetric_counts():
    # per-branch-type counts are not symmetric in the edges, so their sums
    # pass symmetric=False; the other callers sum over all compositions
    assert orbit_sum_symmetry("integrals.py") == {
        "gromov_witten_a": {False},
        "gromov_witten_d": {True},
        "generating_function": {False},
        "orbit_series": {True},
    }
    assert orbit_sum_symmetry("tropical.py") == {"count_covers_total": {False}}


def test_bridges_is_called_only_by_orbit_sum():
    assert callers("integrals.py", "bridges") == {"orbit_sum"}
    assert callers("tropical.py", "bridges") == set()
    # and orbit_sum alone validates a sum's graph: neither the search nor
    # the kernel validates again
    validating = callers("integrals.py", "validate") | callers("integrals.py", "check_order")
    assert "orbit_sum" in validating
    assert validating.isdisjoint({"_order_search", "_orbit_size", "_eliminate", "_Kernel"})


def mentions(module_file, name):
    """Names of the top-level functions and classes of a module whose
    bodies name ``name`` at all, called or not."""
    tree = ast.parse((PACKAGE / module_file).read_text())
    return {
        getattr(top, "name", "<module>")
        for top in tree.body
        if any(isinstance(node, ast.Name) and node.id == name for node in ast.walk(top))
    }


def test_eliminate_is_called_only_by_the_single_order_entry_points():
    # every sum over orders runs the kernel inside the search (the
    # edge-symmetric sums once, generating_function once per branch type),
    # so the single-order pass serves the two single-order entry points alone
    want = {"integral_coeff", "i_gamma_coeffs_for_order"}
    for module_file in sorted(p.name for p in PACKAGE.glob("*.py")):
        assert callers(module_file, "_eliminate") == (want if module_file == "integrals.py" else set()), module_file
    assert mentions("integrals.py", "_eliminate") == want


def test_one_vertex_step_serves_every_integral():
    # the single-order pass and the order search share one kernel set-up,
    # and its step is the only caller of the vertex step
    assert callers("integrals.py", "_Kernel") == {"_eliminate", "_order_search"}
    assert callers("integrals.py", "_vertex_step") == {"_Kernel"}
    # the filtered rows are the step's own, built by it alone
    assert callers("integrals.py", "_row") == {"_vertex_step", "_row"}
    for module_file in sorted(p.name for p in PACKAGE.glob("*.py")):
        if module_file != "integrals.py":
            assert callers(module_file, "_vertex_step") == set(), module_file
            assert callers(module_file, "_Kernel") == set(), module_file


def test_eliminate_reads_its_factors_only_from_the_bundle_memo():
    # the per-(degree sets, w_max, d_max) bundle tables are the one memo of
    # edge factor terms, and only the kernel set-up reads them
    assert callers("integrals.py", "_bundle_terms") == {"_Kernel"}
    assert callers("integrals.py", "_factor_terms") == {"_bundle_terms"}
    tree = ast.parse((PACKAGE / "integrals.py").read_text())
    memo = next(top for top in tree.body if getattr(top, "name", None) == "_bundle_terms")
    assert [ast.unparse(d).split("(")[0] for d in memo.decorator_list] == ["lru_cache"]
    for module_file in sorted(p.name for p in PACKAGE.glob("*.py")):
        if module_file != "integrals.py":
            assert callers(module_file, "_bundle_terms") == set(), module_file


def test_sym_lists_no_partition_and_makes_one_pass_per_series():
    # the partition and permutation listers are test references only, kept
    # in the tests' reference module
    for name in ("partitions", "content_sum", "transpositions", "conjugacy_class_size", "from_cycles"):
        assert not defines("monodromy.py", name), name
        assert callers("monodromy.py", name) == set(), name
    assert "f_g" in callers("integrals.py", "hurwitz_numbers")
    assert "f_g" not in callers("integrals.py", "hurwitz_count")
    assert "f_g" not in callers("integrals.py", "check_budget")


def test_the_guard_sees_calls_inside_lambdas():
    # count_covers_total calls _graded_counts only from the lambda it passes
    # to orbit_sum
    assert "count_covers_total" in callers("tropical.py", "_graded_counts")


def package_imports(module_file):
    """Modules of the package that a module imports: relative imports and
    absolute ones of ``ellcover``, at any depth of its body."""
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / module_file).read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                found.update([node.module] if node.module else [a.name for a in node.names])
            elif (node.module or "").split(".")[0] == "ellcover":
                found.add(node.module)
        elif isinstance(node, ast.Import):
            found.update(a.name for a in node.names if a.name.split(".")[0] == "ellcover")
    return found


def test_monodromy_imports_nothing_from_the_package():
    assert package_imports("monodromy.py") == set()
    # the walk sees the package imports of a module that has them, nested
    # ones included (f_g imports tropical inside its body)
    assert {"graphs", "monodromy", "tropical", "quasimodular"} <= package_imports("integrals.py")
