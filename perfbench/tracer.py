"""Spans around the package's public callables, installed from outside.

:meth:`Tracer.install` rebinds each traced callable in every
``measure_balancer`` module namespace that holds it (so ``cli.classify``,
``balancing.classify`` and ``sphere.classify`` are traced as well as
``stability.classify``), wraps the constructors of ``ProjectivePoint`` and
``AtomicMeasure`` and ``AtomicMeasure.from_json`` on the classes, and
counts ``numpy.linalg`` calls by the innermost open span.
:meth:`Tracer.uninstall` puts every original back.  ``canonical_json`` is
rebound only where it is imported, so its recursion inside ``util`` is one
span.

A span records name, start, end, parent and op id.  Spans stay in memory
until :meth:`Tracer.dump`; self time is a span's duration minus its child
spans, summed per name.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np

_PREFIX = "measure_balancer"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.calls = {}  # name -> [calls, self seconds, inclusive seconds]
        self.counts = {}
        self.op_id = None
        self._stack = []  # [span index, child seconds]
        self._undo = []

    # -- spans ------------------------------------------------------------

    def _push(self, name):
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op_id])
        self._stack.append([len(self.spans) - 1, 0.0])

    def _pop(self):
        idx, child = self._stack.pop()
        span = self.spans[idx]
        span[2] = end = time.perf_counter()
        dur = end - span[1]
        agg = self.calls.setdefault(span[0], [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += dur - child
        agg[2] += dur
        if self._stack:
            self._stack[-1][1] += dur
        return span

    def count(self, name, by=1):
        self.counts[name] = self.counts.get(name, 0) + by

    def innermost(self):
        return self.spans[self._stack[-1][0]][0] if self._stack else ""

    def run_op(self, op_id, fn, *args):
        """Call fn(*args) as op ``op_id`` inside a ``cli`` span."""
        self.op_id = op_id
        self._push("cli")
        try:
            return fn(*args)
        finally:
            self._pop()
            self.op_id = None

    def wrap(self, name, fn, on_exit=None):
        """fn inside a span; ``name`` may be a function of the call's args."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            self._push(label)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:  # recorded, then re-raised
                exc = err
                raise
            finally:
                self._pop()
                if on_exit is not None:
                    on_exit(self, label, args, kwargs, result, exc)

        return traced

    # -- installation -----------------------------------------------------

    def _setattr(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def rebind(self, home, attr, name, on_exit=None, in_home=True, only_home=False):
        """Replace ``home.attr`` wherever a package module imported it."""
        orig = getattr(home, attr)
        traced = self.wrap(name, orig, on_exit)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == _PREFIX or mod_name.startswith(_PREFIX + ".")):
                continue
            if (mod is home and not in_home) or (mod is not home and only_home):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._setattr(mod, key, traced)

    def wrap_method(self, cls, attr, name, on_exit=None):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._setattr(cls, attr, classmethod(self.wrap(name, raw.__func__, on_exit)))
        else:
            self._setattr(cls, attr, self.wrap(name, raw, on_exit))

    def count_numpy(self, attr, counter, span_test):
        """Count numpy.linalg.<attr> calls made while span_test(innermost)."""
        orig = getattr(np.linalg, attr)

        @functools.wraps(orig)
        def counted(*args, **kwargs):
            if span_test(self.innermost()):
                self.count(counter)
            return orig(*args, **kwargs)

        self._setattr(np.linalg, attr, counted)

    def install(self):
        from measure_balancer import balancing, geometry, measures, sphere, stability, util, weights

        self.rebind(util, "canonical_json", "util.canonical_json", in_home=False)
        self.wrap_method(measures.AtomicMeasure, "from_json", "measures.from_json")
        self.wrap_method(measures.AtomicMeasure, "__init__", "measures.AtomicMeasure", _count_atoms)
        self.rebind(measures, "pushforward", "measures.pushforward")
        self.wrap_method(geometry.ProjectivePoint, "__init__", "geometry.ProjectivePoint")
        self.rebind(geometry, "herm_exp", "geometry.herm_exp")
        self.rebind(stability, "classify", "stability.classify")
        self.rebind(stability, "candidate_subspaces", "stability.candidate_subspaces", _count_candidates)
        self.rebind(stability, "polystable_decompose", "stability.polystable_decompose")
        self.rebind(weights, "maximal_weight", "weights.maximal_weight")
        self.rebind(weights, "lambda_via_flow", "weights.lambda_via_flow")
        self.rebind(balancing, "balance", _balance_span, _count_balance)
        self.rebind(balancing, "solve_target", "balancing.solve_target", _count_balance)
        self.rebind(balancing, "torus_solve", "balancing.torus_solve", _count_torus)
        self.rebind(balancing, "linprog", "balancing.linprog", only_home=True)
        self.rebind(sphere, "hersch_balance", "sphere.hersch_balance")
        self.rebind(sphere, "to_projective", "sphere.to_projective")
        self.count_numpy("svd", "stability.svd_calls", lambda s: s.startswith("stability."))
        # torus_solve computes one Newton direction with linalg.solve per iteration
        self.count_numpy("solve", "balancing.torus_solve.iterations", "balancing.torus_solve".__eq__)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def dump(self, path):
        """Write every span as one JSON line: name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def _balance_span(args, kwargs):
    """balance spans split by method; a target solve is named as such."""
    if kwargs.get("target_rho", args[1] if len(args) > 1 else None) is not None:
        return "balancing.balance_target"
    method = kwargs.get("method", args[2] if len(args) > 2 else "fixed-point")
    fixed = method.replace("_", "-").lower() in ("fixed-point", "fixedpoint")
    return "balancing.fixed_point" if fixed else "balancing.descent"


def _count_atoms(tracer, label, args, kwargs, result, exc):
    if exc is None:
        points = args[1] if len(args) > 1 else kwargs["points"]
        tracer.count("measures.atoms_in", len(points))
        tracer.count("measures.atoms_merged", len(points) - args[0].atom_count)


def _count_candidates(tracer, label, args, kwargs, result, exc):
    if exc is None:
        tracer.count("stability.candidates", len(result))


def _count_balance(tracer, label, args, kwargs, result, exc):
    if exc is not None or label == "balancing.balance_target":
        return
    tracer.count(label + ".iterations", result.iterations)
    if result.verdict == "diverged":
        tracer.count("balancing.diverged")
    elif result.verdict == "max-iterations":
        tracer.count("balancing.max_iterations")


def _count_torus(tracer, label, args, kwargs, result, exc):
    if type(exc).__name__ == "MaxIterations":
        tracer.count("balancing.max_iterations")
