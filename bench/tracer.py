"""Run-time tracing of ratmaps layers, installed from outside the library.

``Tracer.install`` replaces each public function named in ``LAYERS`` with a
wrapper: the module attribute, every ``from ... import`` binding of it in
other ratmaps modules, and class attributes for methods.  ``uninstall``
puts the originals back; the bindings are found at the first install, so
installing again is cheap.  A name that no longer exists is listed in
``absent`` instead of failing, so the benchmark survives refactors.

A wrapped call opens a span only when it crosses into another group; a call
within the group that is already innermost (recursion, ``elaborate`` calling
itself, ``__pow__`` calling ``__mul__``) runs unwrapped.  Each span records
its group, start, end and parent.  Self time is the span's duration minus
the durations of its child spans, accumulated per group as spans close.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter_ns

# group -> names, as "module:attr" or "module:Class.method"
LAYERS = {
    "polyring.gcd": [
        "polyring:gcd_many",
        "polyring:is_primitive",
        "polyring:poly_lcm",
    ],
    "polyring.ratfunc": ["polyring:RatFunc.__init__"],
    "polyring.mul": ["polyring:Poly.__mul__", "polyring:Poly.__pow__"],
    "polyring.divexact": ["polyring:Poly.divexact"],
    "polyring.compose": [
        "polyring:compose_poly",
        "polyring:compose_poly_ratfunc",
        "polyring:subst",
        "polyring:eval_univar_at_ratio",
    ],
    "linalg.bareiss": ["linalg:poly_matrix_rank", "linalg:ratfunc_matrix_rank"],
    "linalg.echelon": [
        "linalg:field_rank",
        "linalg:field_solve",
        "linalg:field_nullspace",
        "linalg:independent_subset",
    ],
    "fields.roots": ["fields:roots_in_K"],
    "homog.compose": [
        "homog:compose_homog_at",
        "homog:homogenize",
        "homog:degree_formula",
    ],
    "subfield.gcd_subst": ["subfield:gcd_subst_homog", "subfield:gcd_subst_uni"],
    "subfield.trdeg": ["subfield:trdeg_rank", "subfield:trdeg_bounded_dependence"],
    "subfield.generators": [
        "subfield:mobius_equiv",
        "subfield:unit_combination",
        "subfield:enother_chain",
        "subfield:member_Kp",
        "subfield:member_Kpq",
        "subfield:luroth_generator_1var",
        "subfield:hmgrk2_verify",
    ],
    "integrality.decide": [
        "integrality:integral_over_Kg",
        "integrality:integral_over_KG",
        "integrality:regenerate_integral",
        "integrality:pqtrans",
        "integrality:valuation",
    ],
    "gordan_noether.trace_identity": [
        "gordan_noether:qt_condition",
        "gordan_noether:classical_gn_condition",
    ],
    "gordan_noether.core_check": ["gordan_noether:bivariate_core_check"],
    "gordan_noether.classify": [
        "gordan_noether:gn_classify",
        "gordan_noether:translation_invariance",
        "gordan_noether:nilpotent_jacobian",
        "gordan_noether:constant_span_bound",
    ],
    "expressions.parse": ["expressions:parse"],
    "expressions.elaborate": [
        "expressions:elaborate",
        "expressions:elaborate_poly",
        "expressions:elaborate_map",
        "expressions:elaborate_poly_tuple",
    ],
    "cli.parser": ["cli:build_parser"],
    "cli.main": ["cli:main"],
}

# the benchmark's own code around each instance: the root of every span tree
HARNESS = "bench.harness"
GROUPS = [HARNESS] + list(LAYERS)

# extra per-group figures, gathered from arguments and results after the
# span closes (their cost is charged to trace.hook_ms, not to any group)
EXTRAS = {
    "polyring.gcd": ("unit_share", "max_terms", "max_coeff_bits"),
    "linalg.bareiss": ("max_cells",),
    "linalg.echelon": ("max_cells",),
    "fields.roots": ("max_p",),
}

SPAN_CAP = 500_000


def _coeff_bits(c) -> int:
    if hasattr(c, "numerator"):
        return max(abs(c.numerator).bit_length(), c.denominator.bit_length())
    return int(getattr(c, "v", 0)).bit_length()


def _polys_in(args):
    for a in args:
        if isinstance(a, (list, tuple)):
            yield from (p for p in a if hasattr(p, "terms"))
        elif hasattr(a, "terms"):
            yield a


def _cells(rows) -> int:
    return len(rows) * (len(rows[0]) if rows else 0)


class Tracer:
    def __init__(self, layers=None):
        self.layers = LAYERS if layers is None else layers
        self.gid = {g: i for i, g in enumerate(GROUPS)}
        n = len(GROUPS)
        self.calls = [0] * n
        self.self_ns = [0] * n
        self.errors = [0] * n
        self.hook_ns = 0
        self.gcd_results = 0
        self.gcd_units = 0
        self.max = {}
        # open spans: group id, child time so far, index in the span record
        self._groups = [-1]
        self._child = [0]
        self._index = [-1]
        self.spans = array("q")  # group, start, end, parent; four per span
        self.spans_dropped = 0
        self.absent = []
        self._patches = None  # (owner, attr, original, wrapped), found once

    # -- installation ----------------------------------------------------

    def install(self):
        if self._patches is None:
            self._patches = self._find()
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, original, _ in reversed(self._patches or ()):
            setattr(owner, attr, original)

    def _find(self):
        """Wrap every name in the layers; list the missing ones in absent."""
        patches = []
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "ratmaps" or name.startswith("ratmaps.")
        }
        for group, names in self.layers.items():
            gid = self.gid[group]
            for spec in names:
                mod_name, attr = spec.split(":")
                mod = modules.get(f"ratmaps.{mod_name}")
                owner, _, name = attr.rpartition(".")
                target = getattr(mod, owner, None) if owner else mod
                original = getattr(target, name, None) if target is not None else None
                if original is None:
                    self.absent.append(spec)
                    continue
                wrapped = self._wrap(original, gid, group)
                if owner:
                    # a method: patch the class attribute itself
                    patches.append((target, name, original, wrapped))
                    continue
                for other in modules.values():
                    for key, value in list(vars(other).items()):
                        if value is original:
                            patches.append((other, key, original, wrapped))
        return patches

    # -- spans -------------------------------------------------------------

    def _wrap(self, fn, gid, group):
        hook = self._hook_for(group)
        groups = self._groups

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if groups[-1] == gid:
                return fn(*args, **kwargs)
            result = self._enter(gid, fn, args, kwargs)
            if hook is not None:
                t = perf_counter_ns()
                hook(args, result)
                spent = perf_counter_ns() - t
                self.hook_ns += spent
                self._child[-1] += spent
            return result

        return wrapper

    def run(self, group: str, fn, *args, **kwargs):
        """Call fn inside a span of the given group (used for the harness root)."""
        return self._enter(self.gid[group], fn, args, kwargs)

    def _enter(self, gid, fn, args, kwargs):
        parent = self._index[-1]
        index = -1
        if len(self.spans) < 4 * SPAN_CAP:
            index = len(self.spans) // 4
            self.spans.extend((gid, 0, 0, parent))
        else:
            self.spans_dropped += 1
        self._groups.append(gid)
        self._child.append(0)
        self._index.append(index)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.errors[gid] += 1
            raise
        finally:
            end = perf_counter_ns()
            self._groups.pop()
            child = self._child.pop()
            self._index.pop()
            duration = end - start
            self.self_ns[gid] += duration - child
            self.calls[gid] += 1
            self._child[-1] += duration
            if index >= 0:
                self.spans[4 * index + 1] = start
                self.spans[4 * index + 2] = end

    # -- extras -------------------------------------------------------------

    def _bump(self, key, value):
        if value > self.max.get(key, 0):
            self.max[key] = value

    def _hook_for(self, group):
        if group == "polyring.gcd":

            def hook(args, result):
                for p in _polys_in(args):
                    self._bump("polyring.gcd.max_terms", len(p.terms))
                    bits = max((_coeff_bits(c) for c in p.terms.values()), default=0)
                    self._bump("polyring.gcd.max_coeff_bits", bits)
                if isinstance(result, bool):  # is_primitive: True means a unit gcd
                    self.gcd_results += 1
                    self.gcd_units += result
                elif hasattr(result, "is_one") and len(args) == 1:  # gcd_many
                    self.gcd_results += 1
                    self.gcd_units += result.is_one()

            return hook
        if group in ("linalg.bareiss", "linalg.echelon"):
            key = f"{group}.max_cells"

            def hook(args, result):
                self._bump(key, _cells(args[0]))

            return hook
        if group == "fields.roots":

            def hook(args, result):
                self._bump("fields.roots.max_p", args[0].ring.field.characteristic)

            return hook
        return None

    # -- results --------------------------------------------------------------

    def self_times_from_spans(self) -> list:
        """Self time per group recomputed from the recorded spans alone."""
        n = len(self.spans) // 4
        out = [0] * len(GROUPS)
        child = [0] * n
        for i in range(n):
            parent = self.spans[4 * i + 3]
            if parent >= 0:
                child[parent] += self.spans[4 * i + 2] - self.spans[4 * i + 1]
        for i in range(n):
            gid = self.spans[4 * i]
            out[gid] += self.spans[4 * i + 2] - self.spans[4 * i + 1] - child[i]
        return out
