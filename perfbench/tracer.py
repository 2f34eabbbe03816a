"""Per-layer counters and timers, attached to ``ellcover`` from outside.

``Tracer.install()`` wraps each target function and rebinds *every* name
that refers to it in the loaded ``ellcover`` modules (``integrals.bridges``
is the same object as ``graphs.bridges``) and, for methods, every alias in
the class (``LaurentPoly.__rmul__ is LaurentPoly.__mul__``).  ``restore()``
puts the originals back.  A target the library no longer has is reported as
absent rather than failing the run, so renaming an internal only blanks its
metrics.

Times are inclusive wall seconds spent inside the wrapped call (a layer's
busy time, nested layers included); counts are calls or sizes of results.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


def _support(poly):
    """Number of terms of a Laurent polynomial, or None if its layout is not
    the one this benchmark knows."""
    terms = getattr(poly, "terms", None)
    return len(terms) if isinstance(terms, dict) else None


def _on_mul(tr, args, result):
    a, b = args[0], args[1]
    sa, sb, sr = _support(a), (_support(b) if hasattr(b, "terms") else 1), _support(result)
    if None in (sa, sb, sr):
        tr.unknown.update(("laurent.mul_pairs", "laurent.mul_terms_out"))
        return
    tr.add("laurent.mul_pairs", sa * sb)
    tr.add("laurent.mul_terms_out", sr)


def _on_extract(tr, args, result):
    size = _support(result)
    if size is None:
        tr.unknown.update(("laurent.extract_support_max", "laurent.extract_support_sum"))
        return
    tr.add("laurent.extract_support_sum", size)
    tr.maximum("laurent.extract_support_max", size)


def _nonzero(name):
    def hook(tr, args, result):
        tr.add(name, 1 if result else 0)

    return hook


def _length(name):
    def hook(tr, args, result):
        tr.add(name, len(result))

    return hook


def _refusal(tr, exc):
    if type(exc).__name__ == "BudgetExceeded":
        tr.add("monodromy.budget_refusals", 1)


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``module`` under ``ellcover``, ``attr`` a dotted
    path inside it, the names of its call counter and timer, and the extra
    metrics its hooks fill."""

    module: str
    attr: str
    calls: str
    seconds: str
    extra: tuple = ()
    on_result: Callable | None = None
    on_error: Callable | None = None


TARGETS = (
    Target("laurent", "LaurentPoly.__mul__", "laurent.mul_calls", "laurent.mul_s",
           ("laurent.mul_pairs", "laurent.mul_terms_out"), _on_mul),
    Target("laurent", "LaurentPoly.__add__", "laurent.add_calls", "laurent.add_s"),
    Target("laurent", "LaurentPoly.coeff_in", "laurent.extract_calls", "laurent.extract_s",
           ("laurent.extract_support_max", "laurent.extract_support_sum"), _on_extract),
    Target("propagator", "edge_factor", "propagator.edge_factor_calls", "propagator.edge_factor_s"),
    # one vertex order evaluated, by either single-order entry point
    Target("integrals", "integral_coeff", "integrals.orders_evaluated", "integrals.order_s",
           ("integrals.orders_nonzero",), _nonzero("integrals.orders_nonzero")),
    Target("integrals", "i_gamma_coeffs_for_order", "integrals.orders_evaluated", "integrals.order_s",
           ("integrals.orders_nonzero",), _nonzero("integrals.orders_nonzero")),
    Target("integrals", "i_gamma_series", "integrals.series_calls", "integrals.series_s"),
    Target("integrals", "f_g", "integrals.fg_calls", "integrals.fg_s"),
    Target("graphs", "bridges", "graphs.bridges_calls", "graphs.bridges_s"),
    Target("graphs", "enumerate_genus", "graphs.enumerate_calls", "graphs.enumerate_s",
           ("graphs.classes",), _length("graphs.classes")),
    Target("graphs", "automorphism_count", "graphs.aut_calls", "graphs.aut_s"),
    Target("graphs", "canonical_form", "graphs.canon_calls", "graphs.canon_s"),
    Target("graphs", "is_isomorphic", "graphs.iso_calls", "graphs.iso_s",
           ("graphs.iso_true",), _nonzero("graphs.iso_true")),
    Target("graphs", "validate", "graphs.validate_calls", "graphs.validate_s"),
    Target("tropical", "count_covers", "tropical.count_calls", "tropical.count_s",
           ("tropical.count_nonzero",), _nonzero("tropical.count_nonzero")),
    Target("tropical", "enumerate_tuples", "tropical.enumerate_calls", "tropical.enumerate_s",
           ("tropical.tuples",), _length("tropical.tuples")),
    Target("monodromy", "hurwitz_count", "monodromy.hurwitz_calls", "monodromy.hurwitz_s",
           ("monodromy.budget_refusals",), None, _refusal),
    Target("quasimodular", "fit", "quasimodular.fit_calls", "quasimodular.fit_s"),
    Target("cli", "main", "cli.commands", "cli.main_s"),
)

# ratio metric -> (numerator, denominator)
RATIOS = {
    "integrals.order_yield": ("integrals.orders_nonzero", "integrals.orders_evaluated"),
    "tropical.order_yield": ("tropical.count_nonzero", "tropical.count_calls"),
}


def _resolve(target: Target):
    """(owner, original) for the target, or None if it is gone."""
    try:
        owner = importlib.import_module(f"ellcover.{target.module}")
    except ImportError:
        return None
    *path, name = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)
    if not callable(original):
        return None
    return owner, original


def _bindings(owner, original):
    """Every (namespace owner, name) bound to ``original``: aliases in a
    class, or names in any loaded ellcover module."""
    if isinstance(owner, type):
        return [(owner, n) for n, v in list(vars(owner).items()) if v is original]
    out = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is not None and (mod_name == "ellcover" or mod_name.startswith("ellcover.")):
            out.extend((mod, n) for n, v in list(vars(mod).items()) if v is original)
    return out


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.values = defaultdict(int)
        self.unknown = set()
        self.absent = set()
        self.patched = []  # (owner, name, original)

    def add(self, name, amount):
        self.values[name] += amount

    def maximum(self, name, value):
        self.values[name] = max(self.values[name], value)

    def _wrap(self, target: Target, original):
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                self.add(target.seconds, clock() - start)
                self.add(target.calls, 1)
                if target.on_error:
                    target.on_error(self, exc)
                raise
            self.add(target.seconds, clock() - start)
            self.add(target.calls, 1)
            if target.on_result and result is not NotImplemented:
                target.on_result(self, args, result)
            return result

        return wrapper

    def install(self):
        present = set()
        for target in self.targets:
            found = _resolve(target)
            names = (target.calls, target.seconds) + target.extra
            if found is None:
                self.absent.update(names)
                continue
            present.update(names)
            owner, original = found
            wrapper = self._wrap(target, original)
            for where, name in _bindings(owner, original):
                self.patched.append((where, name, original))
                setattr(where, name, wrapper)
            for name in names:
                self.values[name] += 0
        # a metric fed by two targets is absent only if both are
        self.absent -= present

    def restore(self):
        while self.patched:
            where, name, original = self.patched.pop()
            setattr(where, name, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    def metrics(self) -> dict:
        """Metric name -> value; absent and unknown metrics are left out."""
        out = {k: v for k, v in self.values.items() if k not in self.absent | self.unknown}
        for name, (num, den) in RATIOS.items():
            if num in out and den in out:
                out[name] = out[num] / out[den] if out[den] else 0.0
        return out
