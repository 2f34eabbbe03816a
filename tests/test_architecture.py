"""Every per-graph sum calls the one search over vertex orders,
``integrals._order_search``, with the automorphisms that
``integrals._group`` gives: it alone validates a sum's graph, makes the
bridge decision (no automorphism at all, so no orbit, for a graph with a
bridge) and picks the automorphisms, so a new way of summing is a change to
one function.  No callback stands between a sum and either search: the
order search returns its orders or sums, and the tropical tuple search,
``tropical._search``, is a generator that yields its tuples.  Both
searches are plain recursion through one module-level function each
(``integrals._place``, ``tropical._assign``), so neither module defines a
nested function to hold a reference cycle.  The order search
keeps one lexicographically first order per orbit of acyclic orientations
(an order enters a count only through the orientation it induces); no orbit
builder is left in the package, and no sum walks the n! orders.  Only sums
symmetric in the edges use the automorphisms.  ``f_g`` sums over the
bridgeless classes of ``graphs._classes`` (the classes of
``enumerate_genus`` with the automorphisms their search found), which grow
from the theta graph by edge insertion alone, so it hands the search their
automorphisms directly: it makes no bridge test of its own and builds,
searches and counts the automorphisms of no bridged graph.  One kernel
set-up, ``integrals._Kernel``, serves the order search and the single-order
pass ``integrals._eliminate`` (behind the two single-order entry points
alone); its one vertex step is the only caller of ``integrals._vertex_step``,
which alone builds the rows that filter its bundles (``integrals._row``).
The kernel reads its set-up only from one chain of bounded memos shared by
every kernel of the process: the vertex steps (``integrals._step``), which
alone read the packed bundles (``integrals._bundle``), which alone read the
bundle tables (``integrals._bundle_terms``), the one reader of edge factor
terms.  The symmetric-group path imports nothing from
the package, so the cross-oracle checks compare independent code; it lists
no partition, and ``f_g`` reads the whole ``sym`` series off one pass of its
recurrence.  One routine, ``graphs._canon``, runs the graph refinement
search: the canonical form, the isomorphism test, the automorphisms and
enumeration all read its one search per graph.  One depth-first search,
``graphs._dfs``, gives both the bridges and the balanced flow.  Every top-level import and
every private top-level name of the package is used in it.  The value
classes are ``Frozen`` records: ``Frozen``'s one constructor binds every
record's fields, and only the four records that normalise their arguments
define a constructor of their own, which passes the clean fields on to it.
One integer rule, ``_frozen._is_int`` with its raiser ``_check_int``,
checks every integer argument and field outside the symmetric-group path;
the only other ``isinstance(..., int)`` tests are laurent's two tests for
an exact coefficient."""

import ast
import inspect
from pathlib import Path

import ellcover

PACKAGE = Path(ellcover.__file__).parent


def callers(module_file, name):
    """Names of the top-level functions and classes of a module whose
    bodies (nested lambdas and functions included) call ``name``; other
    module-level calls count as ``<module>``."""
    tree = ast.parse((PACKAGE / module_file).read_text())
    return {getattr(top, "name", "<module>") for top in tree.body if any(called_name(c) == name for c in calls_in(top))}


def called_name(call):
    """The name a call node calls: the function's name or the attribute's."""
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def calls_in(tree):
    """Every call node in ``tree``."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)]


def names_in(tree):
    """Every name node in ``tree``."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Name)]


def defines(module_file, name):
    """Whether a module defines ``name`` at its top level."""
    tree = ast.parse((PACKAGE / module_file).read_text())
    return any(getattr(top, "name", None) == name for top in tree.body)


def test_order_search_is_called_only_by_the_sums_over_orders():
    # the search is the one way to sum over orders, and each sum calls it
    # itself, so no callback stands between them
    assert mentions("integrals.py", "_order_search") == {"gromov_witten_a", "generating_function", "i_gamma_series", "f_g"}
    assert mentions("tropical.py", "_order_search") == {"count_covers_total", "tropical_series"}
    for module_file in sorted(p.name for p in PACKAGE.glob("*.py")):
        if module_file not in ("integrals.py", "tropical.py"):
            assert "_order_search" not in (PACKAGE / module_file).read_text(), module_file
        # no lambda is handed a search or calls it
        for node in ast.walk(ast.parse((PACKAGE / module_file).read_text())):
            if isinstance(node, ast.Lambda):
                assert "search" not in {a.arg for a in node.args.args}, module_file
                assert not any(called_name(call) == "_order_search" for call in calls_in(node)), module_file
        # the callback layers are gone, and the orbit builders and the
        # n!-order reference live in the tests
        for name in ("orbit_sum", "orbit_series", "_series_counts", "orientation_orbits", "_orientation_orbits",
                     "order_orbits", "_first_extension"):
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


def group_symmetry(module_file):
    """Top-level function of a module -> the ``symmetric`` argument of its
    ``_group`` calls (True when left at the default)."""
    found = {}
    for top in ast.parse((PACKAGE / module_file).read_text()).body:
        for node in calls_in(top):
            if called_name(node) == "_group":
                flags = [ast.literal_eval(kw.value) for kw in node.keywords if kw.arg == "symmetric"]
                flags += [ast.literal_eval(arg) for arg in node.args[1:]]
                found.setdefault(getattr(top, "name", "<module>"), set()).update(flags or [True])
    return found


def search_groups(module_file):
    """Top-level function of a module -> where the automorphisms of its
    ``_order_search`` calls come from: the name of the function whose call
    gives them, passed directly or through a variable that is assigned that
    call or bound by a for loop over it."""
    found = {}
    for top in ast.parse((PACKAGE / module_file).read_text()).body:
        bound = {}
        for node in ast.walk(top):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                bound.update((name.id, called_name(node.value)) for t in node.targets for name in names_in(t))
            elif isinstance(node, ast.For) and isinstance(node.iter, ast.Call):
                bound.update((name.id, called_name(node.iter)) for name in names_in(node.target))
        for node in calls_in(top):
            if called_name(node) == "_order_search":
                maps = node.args[1]
                source = called_name(maps) if isinstance(maps, ast.Call) else bound.get(getattr(maps, "id", None))
                found.setdefault(getattr(top, "name", "<module>"), set()).add(source)
    return found


def test_sums_use_automorphisms_only_for_edge_symmetric_counts():
    # per-branch-type counts are not symmetric in the edges, so their sums
    # pass symmetric=False; the other callers sum over all compositions
    assert group_symmetry("integrals.py") == {
        "gromov_witten_a": {False},
        "generating_function": {False},
        "i_gamma_series": {True},
    }
    assert group_symmetry("tropical.py") == {"count_covers_total": {False}, "tropical_series": {True}}
    # gromov_witten_d reads one coefficient of the graph series
    assert callers("integrals.py", "i_gamma_series") == {"gromov_witten_d"}
    # every search takes its automorphisms from _group, but f_g's, which
    # come with the classes that enumeration found
    assert search_groups("integrals.py") == {
        "gromov_witten_a": {"_group"},
        "generating_function": {"_group"},
        "i_gamma_series": {"_group"},
        "f_g": {"_classes"},
    }
    assert search_groups("tropical.py") == {"count_covers_total": {"_group"}, "tropical_series": {"_group"}}


def test_one_depth_first_search_gives_bridges_and_flows():
    # bridges and balanced_orientation read one search each, and the flow
    # makes no bridge test, no second search and no per-edge walk of its own
    tops = {getattr(top, "name", None): top for top in ast.parse((PACKAGE / "graphs.py").read_text()).body}
    for name in ("bridges", "balanced_orientation"):
        assert [called_name(call) for call in calls_in(tops[name])].count("_dfs") == 1, name
    assert callers("graphs.py", "_dfs") == {"bridges", "balanced_orientation"}
    called = {called_name(call) for call in calls_in(tops["balanced_orientation"])}
    assert not called & {"bridges", "has_bridge", "incident_edges", "deque"}
    # the search keeps a net count per vertex, not low points
    assert "low" not in {node.id for node in names_in(tops["_dfs"])}
    for module_file in module_files():
        assert not defines(module_file, "_dfs_orientation"), module_file


def test_bridges_is_called_only_by_group():
    # _group alone tests a sum's graph for a bridge and picks its
    # automorphisms
    for name in ("bridges", "vertex_automorphisms"):
        assert callers("integrals.py", name) == {"_group"}, name
        assert callers("tropical.py", name) == set(), name
    # and _group alone validates a sum's graph: neither the sums, nor the
    # search, nor the kernel validates again
    validating = callers("integrals.py", "validate") | callers("integrals.py", "check_order")
    assert "_group" in validating
    sums = {"gromov_witten_a", "gromov_witten_d", "generating_function", "i_gamma_series", "f_g"}
    assert validating.isdisjoint(sums | {"_order_search", "_place", "_orbit_size", "_eliminate", "_Kernel"})
    assert callers("tropical.py", "validate") == set()
    assert callers("tropical.py", "check_order").isdisjoint({"count_covers_total", "tropical_series"})


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
    # edge factor terms; the packed bundles alone read them, the step set-up
    # alone reads the packed bundles, and the kernel alone reads the steps
    assert callers("integrals.py", "_factor_terms") == {"_bundle_terms"}
    assert callers("integrals.py", "_bundle_terms") == {"_bundle"}
    assert callers("integrals.py", "_bundle") == {"_step"}
    assert callers("integrals.py", "_step") == {"_Kernel"}
    for name in ("_bundle_terms", "_bundle", "_step"):
        # each memo is bounded by a fixed size, not by an option
        (memo,) = top_level("integrals.py", name).decorator_list
        assert isinstance(memo, ast.Call) and memo.func.id == "lru_cache", name
        (size,) = memo.keywords
        assert size.arg == "maxsize" and type(size.value.value) is int, name
    for module_file in sorted(p.name for p in PACKAGE.glob("*.py")):
        if module_file != "integrals.py":
            for name in ("_bundle_terms", "_bundle", "_step"):
                assert callers(module_file, name) == set(), (module_file, name)
    # the kernel keeps references to steps, and builds no bundle of its own
    kernel = top_level("integrals.py", "_Kernel")
    assert [node.name for node in kernel.body if isinstance(node, ast.FunctionDef)] == ["__init__", "step"]
    assert "bundles" not in ast.literal_eval(next(
        node.value for node in kernel.body if isinstance(node, ast.Assign) and node.targets[0].id == "__slots__"
    ))


def test_sym_lists_no_partition_and_makes_one_pass_per_series():
    # the partition and permutation listers are test references only, kept
    # in the tests' reference module
    for name in ("partitions", "content_sum", "transpositions", "conjugacy_class_size", "from_cycles"):
        assert not defines("monodromy.py", name), name
        assert callers("monodromy.py", name) == set(), name
    assert "f_g" in callers("integrals.py", "hurwitz_numbers")
    assert "f_g" not in callers("integrals.py", "hurwitz_count")
    assert "f_g" not in callers("integrals.py", "check_budget")


def top_level(module_file, name):
    """The top-level definition of ``name`` in a module."""
    return next(top for top in ast.parse((PACKAGE / module_file).read_text()).body if getattr(top, "name", None) == name)


def test_the_guard_sees_calls_inside_lambdas():
    # MultiSeries calls reversed only from the sort key it hands sorted, a
    # lambda, and graphs._extensions pairs vertices only in its nested
    # function new_orbit
    for module_file, owner, kind, name in [("integrals.py", "MultiSeries", ast.Lambda, "reversed"),
                                           ("graphs.py", "_extensions", ast.FunctionDef, "_pair")]:
        top = top_level(module_file, owner)
        inner = [call for node in ast.walk(top) if isinstance(node, kind) for call in calls_in(node)]
        found = [call for call in calls_in(top) if called_name(call) == name]
        assert found and all(call in inner for call in found), owner
        assert owner in callers(module_file, name), owner


def test_the_tuple_search_is_a_generator():
    # its callers loop over the tuples it yields, and none hands it a
    # callback or passes it on
    from ellcover import tropical

    assert inspect.isgeneratorfunction(tropical._search)
    assert list(inspect.signature(tropical._search).parameters) == ["graph", "order", "degrees", "d_max"]
    searches = {"enumerate_tuples", "_graded_counts"}
    assert callers("tropical.py", "_search") == mentions("tropical.py", "_search") == searches


def test_tropical_defines_no_nested_function():
    # the tuple search recurses through a module-level function, so no
    # closure or lambda is left in the module to hold a reference cycle or a
    # late binding
    assert nested_functions("tropical.py", (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)) == []


def nested_functions(module_file, kinds):
    """Names of the top-level functions and classes of a module that define
    a node of ``kinds`` inside a function (a method counts as top level)."""
    found = []
    for top in ast.parse((PACKAGE / module_file).read_text()).body:
        for scope in top.body if isinstance(top, ast.ClassDef) else [top]:
            if any(node is not scope and isinstance(node, kinds) for node in ast.walk(scope)):
                found.append(getattr(top, "name", None))
    return found


def test_both_searches_recurse_through_a_module_level_function():
    # each search calls itself by its module-level name, which holds no
    # reference cycle, so neither keeps a stack of its own or defines a
    # nested function (integrals keeps two sort-key lambdas, which close
    # over nothing)
    assert callers("integrals.py", "_place") == {"_order_search", "_place"}
    assert callers("tropical.py", "_assign") == {"_search", "_assign"}
    assert nested_functions("integrals.py", (ast.FunctionDef, ast.AsyncFunctionDef)) == []
    for module_file, name in [("integrals.py", "_order_search"), ("integrals.py", "_place"),
                              ("tropical.py", "_search"), ("tropical.py", "_assign")]:
        assert not any(isinstance(node, ast.While) for node in ast.walk(top_level(module_file, name))), name


def test_options_alone_builds_the_choice_index():
    # one pass builds each edge's choices and their (weight, source) index,
    # and nothing sorts the choices: every caller passes ascending degrees
    assert callers("tropical.py", "_options") == {"_search"}
    assert callers("tropical.py", "setdefault") == {"_options"}
    assert not {"sort", "sorted"} & {called_name(call) for call in calls_in(top_level("tropical.py", "_options"))}


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


def test_every_import_and_private_name_is_used():
    # a top-level import is used in its module (or, in __init__, exported);
    # a private top-level name is used in its module outside its own
    # definition, or imported by another module of the package, whose
    # import is then checked in turn
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}

    def used(tree, name, skip=None):
        return any(
            isinstance(node, ast.Name) and node.id == name or isinstance(node, ast.Attribute) and node.attr == name
            for top in tree.body
            if top is not skip
            for node in ast.walk(top)
        )

    def imported(module, name):
        return any(
            isinstance(node, ast.ImportFrom) and node.level and node.module == module and name in {a.name for a in node.names}
            for tree in trees.values()
            for node in ast.walk(tree)
        )

    unused = []
    for module, tree in trees.items():
        exported = set(getattr(ellcover, "__all__", ())) if module == "__init__" else set()
        for top in tree.body:
            if isinstance(top, (ast.Import, ast.ImportFrom)) and getattr(top, "module", None) != "__future__":
                for alias in top.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in exported and not used(tree, name):
                        unused.append((module, name))
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                defined = [top.name]
            elif isinstance(top, (ast.Assign, ast.AnnAssign)):
                defined = [name.id for t in getattr(top, "targets", [getattr(top, "target", None)]) for name in names_in(t)]
            else:
                continue
            for name in defined:
                if name.startswith("_") and not name.startswith("__"):
                    if not used(tree, name, skip=top) and not imported(module, name):
                        unused.append((module, name))
    assert unused == []


# the records that normalise their arguments before binding them
NORMALISING = {"LaurentPoly", "QSeries", "QuasimodularRep", "MultiSeries"}


def module_files():
    return sorted(p.name for p in PACKAGE.glob("*.py"))


def test_only_frozen_binds_the_fields_of_a_record():
    for module_file in module_files():
        tree = ast.parse((PACKAGE / module_file).read_text())
        binds = [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "__setattr__" and ast.unparse(node.value) == "object"
        ]
        assert bool(binds) == (module_file == "_frozen.py"), module_file
    # the normalising constructors and laurent's unchecked one hand their
    # clean fields to Frozen's
    for module_file, name in [("laurent.py", "LaurentPoly"), ("laurent.py", "_raw"), ("quasimodular.py", "QSeries"),
                              ("quasimodular.py", "QuasimodularRep"), ("integrals.py", "MultiSeries")]:
        top = next(t for t in ast.parse((PACKAGE / module_file).read_text()).body if getattr(t, "name", None) == name)
        assert any(ast.unparse(call.func) == "Frozen.__init__" for call in calls_in(top)), name


def test_only_the_normalising_records_define_a_constructor():
    from ellcover._frozen import Frozen

    records = {
        top.name
        for module_file in module_files()
        for top in ast.parse((PACKAGE / module_file).read_text()).body
        if isinstance(top, ast.ClassDef) and "Frozen" in map(ast.unparse, top.bases)
    }
    assert len(records) == 11
    assert {cls.__name__ for cls in Frozen.__subclasses__()} == records
    assert {cls.__name__ for cls in Frozen.__subclasses__() if "__init__" in vars(cls)} == NORMALISING


def integer_tests(module_file):
    """The scope (dotted names of the enclosing classes and functions) of
    every ``isinstance`` call of a module whose class argument names
    ``int``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if (
                isinstance(child, ast.Call)
                and called_name(child) == "isinstance"
                and len(child.args) == 2
                and "int" in {name.id for name in names_in(child.args[1])}
            ):
                found.append(".".join(scope))
            visit(child, scope)

    visit(ast.parse((PACKAGE / module_file).read_text()), ())
    return found


def test_one_integer_rule_checks_every_integer_argument():
    # monodromy imports nothing from the package, so it keeps its own copy
    # of the rule; laurent's exact-coefficient tests take a Fraction too
    allowed = {"_frozen.py": ["_is_int"], "laurent.py": ["_check_coeff", "LaurentPoly.__mul__"]}
    for module_file in module_files():
        if module_file != "monodromy.py":
            assert integer_tests(module_file) == allowed.get(module_file, []), module_file
    for name in ("_is_int", "_check_int", "check_degree", "_check_order"):
        owners = {module_file for module_file in module_files() if defines(module_file, name)}
        want = {"_is_int": {"_frozen.py"}, "_check_int": {"_frozen.py", "monodromy.py"}}.get(name, set())
        assert owners == want, name
