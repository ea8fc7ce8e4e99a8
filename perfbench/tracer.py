"""Span tracer that wraps the package's public functions from outside.

Nothing under ``src/`` knows about tracing: ``Tracer.install`` rebinds each
listed function in every ``carnotcurv`` module that holds it (and each
listed method on its class) to a wrapper that opens a span, calls the
original and closes the span.  Spans carry a name, start, end, parent span
id and item id; they are kept in memory and written out once, at exit.

Self time is a span's duration minus the time its child spans cover, and it
is accumulated online per (phase, span name) for every call, so the
aggregates stay exact even after the in-memory span log reaches its cap.
Counters (RK4 steps, quotient terms, fit points) are taken in post-call
hooks at the same boundaries; the hooks' own time is charged to no layer.
"""
from __future__ import annotations

import inspect
import sys
import time
from array import array

# keeps the span log a few tens of MB at most; aggregates are not capped
SPAN_CAP = 200_000

PHASES = ("setup", "warmup", "loop", "check")


def _integrate_post(tracer, sig, args, kwargs, traj):
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    if not a["richardson"]:
        # a Richardson call does no steps itself: its two passes re-enter
        # through this wrapper and are counted there
        steps = max(1, int(round(abs(a["T"]) / a["step"])))
        tracer.count("hamiltonian.rk4_steps", steps)
        if a["with_variational"]:
            tracer.count("hamiltonian.var_steps", steps)
    tracer.count_max("hamiltonian.h_drift_max", traj.conservation_drift())


def _exact_div_post(tracer, sig, args, kwargs, quotient):
    if quotient is not None:
        tracer.count("symfields.exact_div.quotient_terms", len(quotient.terms))


def _sflat_post(tracer, sig, args, kwargs, fit):
    used = len(fit.used_ts)
    tracer.count("oracle.fit_points_used", used)
    tracer.count("oracle.fit_points_attempted", used + fit.dropped)


def targets():
    """(owner, attribute, span name, post hook) for every traced entry point.

    Several functions may share a span name when they are one operation to
    a caller (for instance the two canonical-coordinate conversions).
    """
    from carnotcurv import (cli, curvature, elliptic, frames, groups,
                            hamiltonian, oracle, regularity, symfields)
    Poly, Rat, HFrame = symfields.Poly, symfields.Rat, frames.HFrame
    return [
        (Poly, "exact_div", "symfields.exact_div", _exact_div_post),
        (Poly, "__mul__", "symfields.poly_mul", None),
        (Poly, "__rmul__", "symfields.poly_mul", None),
        (Rat, "eval", "symfields.rat_eval", None),
        (symfields.RatVecField, "bracket", "symfields.field_bracket", None),
        (HFrame, "bracket", "frames.bracket", None),
        (HFrame, "sigma", "frames.sigma", None),
        (HFrame, "to_canonical_field", "frames.to_canonical", None),
        (HFrame, "to_canonical_at", "frames.to_canonical", None),
        (HFrame, "basis_at", "frames.basis_at", None),
        (frames, "verify_bracket_identities", "frames.verify_identities", None),
        (groups, "fiber_transform", "groups.fiber_transform", None),
        (groups, "build_group", "groups.build_group", None),
        (groups.Covector, "from_h", "groups.from_h", None),
        (hamiltonian, "integrate_flow", "hamiltonian.integrate_flow",
         _integrate_post),
        (hamiltonian.CompiledFlow, "__init__", "hamiltonian.compile", None),
        (hamiltonian.Trajectory, "export_csv", "hamiltonian.export_csv", None),
        (oracle, "r11_exact", "oracle.r11_exact", None),
        (oracle, "canonical_E_top", "oracle.frame_checks", None),
        (oracle, "frame_darboux_check", "oracle.frame_checks", None),
        (oracle, "aij_coefficients", "oracle.frame_checks", None),
        (oracle, "higher_diagonal_invariants", "oracle.higher_diagonal", None),
        (oracle, "sflat_fit", "oracle.sflat_fit", _sflat_post),
        (oracle, "cost_hessian_probe", "oracle.cost_probe", None),
        (oracle, "random_rational_unit_covector", "oracle.random_covector",
         None),
        (oracle, "random_unit_covector", "oracle.random_covector", None),
        (regularity, "rank_oracle_matches", "regularity.rank_oracle", None),
        (regularity, "equiregularity_loss_times", "regularity.loss_times",
         None),
        (elliptic, "classify_pendulum", "elliptic.chart", None),
        (elliptic, "elliptic_coords", "elliptic.chart", None),
        (elliptic, "pendulum_closed_form", "elliptic.closed_form", None),
        (elliptic, "pole_zero_times", "elliptic.closed_form", None),
        (curvature, "r11", "curvature.r11", None),
        (cli, "main", "cli.main", None),
    ]


class Tracer:
    """In-memory spans and per-(phase, name) aggregates for one process."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.phase = "setup"
        self.item_id = -1
        # open spans: [child seconds, span id]; the root collects top-level time
        self._stack = [[0.0, -1]]
        self._next_id = 0
        self.stats = {p: [] for p in PHASES}      # name id -> [calls, self_s]
        self.counters = {p: {} for p in PHASES}
        self.errors = {p: {} for p in PHASES}     # (name, class) -> count
        self.hook_s = {p: 0.0 for p in PHASES}
        self.dropped_spans = 0
        self._log = {"id": array("q"), "name": array("i"),
                     "parent": array("q"), "item": array("q"),
                     "start": array("d"), "end": array("d")}
        self._undo = []

    # -- names, phases and counters --------------------------------------
    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            for p in PHASES:
                self.stats[p].append([0, 0.0])
        return nid

    def set_phase(self, phase):
        if phase not in PHASES:
            raise ValueError(f"unknown phase {phase!r}")
        self.phase = phase

    def count(self, key, n=1):
        c = self.counters[self.phase]
        c[key] = c.get(key, 0) + n

    def count_max(self, key, value):
        c = self.counters[self.phase]
        c[key] = max(c.get(key, value), value)

    # -- spans -------------------------------------------------------------
    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called name (used for the benchmark's items)."""
        return self._wrap(name, fn, None)(*args, **kwargs)

    def _open(self):
        sid = self._next_id
        self._next_id += 1
        frame = [0.0, sid]
        self._stack.append(frame)
        return frame

    def _close(self, nid, frame, start, end, exc_name):
        stack = self._stack
        stack.pop()
        dur = end - start
        parent = stack[-1]
        parent[0] += dur
        s = self.stats[self.phase][nid]
        s[0] += 1
        s[1] += dur - frame[0]
        if exc_name is not None:
            e = self.errors[self.phase]
            key = (self.names[nid], exc_name)
            e[key] = e.get(key, 0) + 1
        log = self._log
        if len(log["id"]) < SPAN_CAP:
            log["id"].append(frame[1])
            log["name"].append(nid)
            log["parent"].append(parent[1])
            log["item"].append(self.item_id)
            log["start"].append(start)
            log["end"].append(end)
        else:
            self.dropped_spans += 1

    def _wrap(self, name, fn, post):
        nid = self.name_id(name)
        perf = time.perf_counter
        sig = inspect.signature(fn) if post is not None else None
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer._open()
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(nid, frame, start, perf(), type(exc).__name__)
                raise
            tracer._close(nid, frame, start, perf(), None)
            if post is not None:
                h0 = perf()
                post(tracer, sig, args, kwargs, result)
                spent = perf() - h0
                tracer.hook_s[tracer.phase] += spent
                # hook time belongs to no layer: hide it from the parent span
                tracer._stack[-1][0] += spent
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- installation --------------------------------------------------------
    def install(self):
        """Rebind every target; module functions in every module holding them."""
        wrapped = {}
        for owner, attr, name, post in targets():
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__, post))
                else:
                    new = wrapped.get(id(raw))
                    if new is None:
                        new = wrapped[id(raw)] = self._wrap(name, raw, post)
                self._undo.append((owner, attr, raw))
                setattr(owner, attr, new)
                continue
            orig = getattr(owner, attr)
            new = self._wrap(name, orig, post)
            for modname, mod in list(sys.modules.items()):
                if modname != "carnotcurv" and not modname.startswith("carnotcurv."):
                    continue
                if mod.__dict__.get(attr) is orig:
                    self._undo.append((mod, attr, orig))
                    setattr(mod, attr, new)

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo = []

    # -- reporting -------------------------------------------------------------
    def table(self, phases):
        """{name: {"calls", "self_s"}} summed over the given phases."""
        out = {}
        for nid, name in enumerate(self.names):
            calls = sum(self.stats[p][nid][0] for p in phases)
            self_s = sum(self.stats[p][nid][1] for p in phases)
            out[name] = {"calls": calls, "self_s": self_s}
        return out

    def counter(self, key, phases, agg=sum):
        vals = [self.counters[p][key] for p in phases if key in self.counters[p]]
        return agg(vals) if vals else 0

    def error_counts(self, phases):
        out = {}
        for p in phases:
            for key, n in self.errors[p].items():
                out[key] = out.get(key, 0) + n
        return out

    def write_spans(self, path):
        """Write the span log as CSV: id,name,parent,item,start,end."""
        log = self._log
        with open(path, "w") as fh:
            fh.write("id,name,parent,item,start,end\n")
            for i in range(len(log["id"])):
                fh.write(f"{log['id'][i]},{self.names[log['name'][i]]},"
                         f"{log['parent'][i]},{log['item'][i]},"
                         f"{log['start'][i]!r},{log['end'][i]!r}\n")
