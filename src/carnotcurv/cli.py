"""Command-line front end.

Subcommands: geodesic | classify | curvature | verify | sweep.
Exit codes: 0 ok, 2 usage (also a covector that does not parse or has the
wrong length, refused before the model is built, a --T/--step horizon that
is not finite or needs more than hamiltonian.MAX_STEPS steps, a curvature
or sweep value that is not a finite float, a group whose exact polynomials
pass the kernel's degree limit, and an --out path that cannot be written,
refused before any work), 3 integrator, 4 not-ample-equiregular, 5
singular-covector, 6 verification-failed (a check failed, or a numerical
oracle could not decide: RankUnstable, IllConditioned, ShootingDiverged,
StepUnbalanced, LemmaConditionFailed, and LossTimeMismatch, where
classify's loss-time scan and the elliptic closed form disagree, as on a
separatrix the float flow leaves), 141 stdout closed (its reader went away
before the output ended, as `| head` does; the rest is dropped without a
message, and 141 is what a shell reports for a writer that SIGPIPE ends).

Covectors are given in h-coordinates at the origin (where the frame is the
coordinate basis).  Tokens parse as exact rationals when possible ("1",
"2/3", "0.5"); exact inputs keep exact arithmetic through the reports, with
rationals emitted as decimal strings next to parallel float fields.  The
parsed configuration is echoed verbatim in every report header, so a given
config and seed reproduce byte-identical output.
"""
from __future__ import annotations

import argparse
import contextlib
import errno
import itertools
import json
import math
import os
import sys
from fractions import Fraction

from .errors import (CarnotError, DegreeOverflow, IllConditioned,
                     LemmaConditionFailed, LossTimeMismatch, NotAmple,
                     NotAmpleEquiregular, NotUnitSpeed, RankUnstable,
                     ShootingDiverged, SingularCovector, StepTooLarge,
                     StepUnbalanced, UnsupportedGroup, WrongStratum)
from .groups import Covector, build_group, parse_group_spec
from .hamiltonian import integrate_flow, step_count
from . import curvature as curvature_mod
from . import elliptic
from . import oracle
from . import regularity
from .tolerances import DRIFT_TOL, STRATUM_TOL

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INTEGRATOR = 3
EXIT_NOT_AMPLE = 4
EXIT_SINGULAR = 5
EXIT_VERIFY = 6
EXIT_PIPE = 141

_VERIFY_GROUPS = ("goursat:3", "goursat:4", "goursat:5", "goursat:6", "cartan")


class UsageError(CarnotError):
    pass


def _parse_covector(text):
    vals = []
    exact = True
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            raise UsageError(f"empty covector component in {text!r}")
        try:
            vals.append(Fraction(tok))
        except (ValueError, ZeroDivisionError):     # "1/0" and "0/0" too
            try:
                vals.append(float(tok))
                exact = False
            except ValueError:
                raise UsageError(f"cannot parse covector component {tok!r}") from None
        # nan, inf and rationals beyond the float range would only surface
        # later as NaN rows or an overflow inside the float routes
        if not abs(vals[-1]) <= sys.float_info.max:
            raise UsageError(f"covector component {tok!r} is not a finite float")
    if not exact:
        vals = [float(v) for v in vals]
    return vals


def _config(args):
    """The parsed arguments as each report echoes them: every option by its
    command-line name, those without a value left out."""
    return {k.replace("_", "-"): v for k, v in vars(args).items()
            if v is not None and k not in ("command", "func")}


@contextlib.contextmanager
def _output(out):
    """The --out file, or stdout; an unwritable path is a usage error."""
    if not out:
        yield sys.stdout
        return
    try:
        with open(out, "w") as fh:
            yield fh
    except OSError as exc:
        raise UsageError(f"cannot write {out}: {exc.strerror}") from None


def _check_out(out):
    """Refuse an --out path that open(out, "w") would refuse, before any
    work is done; no file is created or truncated here."""
    parent = os.path.dirname(out) or "."
    if os.path.isdir(out):
        err = errno.EISDIR
    elif not os.path.isdir(parent):
        err = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    elif not os.access(out if os.path.exists(out) else parent, os.W_OK):
        err = errno.EACCES
    else:
        return
    raise UsageError(f"cannot write {out}: {os.strerror(err)}")


def _emit(text, out):
    with _output(out) as fh:
        fh.write(text)


def _model_and_covector(args):
    """The group model and the --covector at its origin; a covector that
    does not parse or has the wrong length is refused before the model is
    built."""
    kind, dim = parse_group_spec(args.group)
    if not args.covector:
        raise UsageError("--covector is required")
    vals = _parse_covector(args.covector)
    if len(vals) != dim:
        spec = f"goursat:{dim}" if kind == "goursat" else "cartan"
        raise UsageError(
            f"covector needs {dim} components for {spec}, got {len(vals)}")
    model = build_group(args.group)
    return model, Covector.from_h(model, vals)


def cmd_geodesic(args):
    step_count(args.T, args.step)   # a bad horizon fails before any work
    model, cov = _model_and_covector(args)
    cfg = _config(args)
    traj = integrate_flow(model, cov.as_float(), args.T, step=args.step,
                          drift_bound=args.tol_drift)
    if args.format == "json":
        payload = {"config": cfg, "t": traj.ts.tolist(),
                   "x": traj.ys[:, :model.dim].tolist(),
                   "h": traj.h_series().tolist(),
                   "H_drift": traj.conservation_drift()}
        _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    else:
        # the rows go out as they are formatted, not as one string
        with _output(args.out) as fh:
            fh.write("# config: " + json.dumps(cfg, sort_keys=True) + "\n")
            traj.export_csv(fh)
    return EXIT_OK


def cmd_classify(args):
    step_count(args.T, args.step)
    model, cov = _model_and_covector(args)
    cfg = _config(args)
    report = regularity.growth_report(model, cov, T=args.T, step=args.step)
    payload = report.to_dict()
    payload["config"] = cfg
    if model.has_pendulum:
        try:
            chart = elliptic.classify_pendulum(model, cov.as_float(),
                                               tol=args.tol_class)
            payload["stratum"] = chart.stratum_label
            payload["pendulum_energy"] = chart.E
            payload["boundary_uncertain"] = chart.boundary_uncertain
        except NotUnitSpeed:
            pass
    if report.loss_times:
        gaps = [b - a for a, b in zip(report.loss_times, report.loss_times[1:])]
        payload["loss_time_spacing"] = gaps
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    return EXIT_OK


def cmd_curvature(args):
    model, cov = _model_and_covector(args)
    cfg = _config(args)
    report = curvature_mod.curvature_operator(model, cov)
    # an exact R11 beyond the float range would end in an OverflowError
    try:
        payload = report.to_dict()
        finite = all(math.isfinite(payload[k])
                     for k in ("r11_float", "bound_float")
                     if payload[k] is not None)
    except OverflowError:
        finite = False
    if not finite:
        raise UsageError(f"R11 or its bound at covector {args.covector} is "
                         "beyond the float range")
    payload["config"] = cfg
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    return EXIT_OK


def cmd_verify(args):
    if args.count < 0:
        raise UsageError(f"--count must be >= 0, got {args.count}")
    groups = [args.group] if args.group else list(_VERIFY_GROUPS)
    cfg = _config(args)
    rows = []
    for spec in groups:
        model = build_group(spec)
        if args.suite in ("exact", "all"):
            rows += oracle.run_exact_suite(model, count=args.count,
                                           seed=args.seed)
        if args.suite in ("fit", "all"):
            rows += oracle.run_fit_suite(model, count=5, seed=args.seed)
        if args.suite == "slow":
            if model.dim <= 4:
                rows += oracle.run_slow_suite(model, seed=args.seed)
            elif args.group:
                raise UsageError(f"slow suite is defined for goursat:3 and "
                                 f"goursat:4, not {spec}")
            else:
                print(f"note: slow suite is defined for goursat:3 and "
                      f"goursat:4; skipping {spec}", file=sys.stderr)
    ok = all(r.passed for r in rows)
    lines = [f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: expected "
             f"{r.expected}, got {r.actual}" for r in rows]
    lines.append(f"{'OK' if ok else 'FAILED'}: "
                 f"{sum(r.passed for r in rows)}/{len(rows)} checks passed")
    payload = {"config": cfg, "checks": [r.to_dict() for r in rows],
               "all_passed": ok}
    if args.out:
        _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK if ok else EXIT_VERIFY


def _parse_grid(text, names):
    axes = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            key, rng = part.split("=")
            lo, hi, cnt = rng.split(":")
            lo, hi, cnt = float(lo), float(hi), int(cnt)
        except ValueError:
            raise UsageError(f"malformed grid axis {part!r}; "
                             "expected name=lo:hi:count") from None
        if key not in names:
            raise UsageError(f"unknown grid axis {key!r}; expected {names}")
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise UsageError(f"grid axis {key!r} needs finite bounds, "
                             f"got {lo}:{hi}")
        if cnt < 1:
            raise UsageError(f"grid axis {key!r} needs count >= 1")
        axes[key] = [lo + (hi - lo) * i / max(cnt - 1, 1) for i in range(cnt)]
    missing = [nm for nm in names if nm not in axes]
    if missing:
        raise UsageError(f"grid is missing axes {missing}")
    return [axes[nm] for nm in names]


def cmd_sweep(args):
    model = build_group(args.group)
    if not model.has_pendulum:
        raise UsageError("sweep charts are defined for goursat:4 and cartan")
    names = model.chart_axes
    if not args.grid:
        raise UsageError("--grid is required for sweep")
    axes = _parse_grid(args.grid, names)
    cfg = _config(args)

    n = model.dim
    header = list(names) + [f"h{i+1}" for i in range(n)] + \
        ["stratum", "growth", "r11", "E", "slack"]
    out_rows = []

    def refuse(chart_pt, what):
        # no rows are written: the table is emitted only after every point
        point = ", ".join(f"{k}={v:.17g}" for k, v in zip(names, chart_pt))
        raise UsageError(f"sweep point {point} gives non-finite {what}")

    for chart_pt in itertools.product(*axes):
        h = model.h_from_chart(*chart_pt)
        if not all(map(math.isfinite, h)):
            refuse(chart_pt, f"h = {h}")
        cov = Covector.from_h(model, h)
        chart = elliptic.classify_pendulum(model, cov, tol=args.tol_class)
        entry = regularity.growth_vector_closed_form(model, cov)
        growth = "(" + " ".join(map(str, entry.growth)) + ")"
        E = model.energy(h)
        values = [E]
        try:
            r = curvature_mod.r11(model, cov)
            slack = curvature_mod.bound_slack(model, cov)
            values += [r, slack]
            r_s, slack_s = f"{r:.17g}", f"{slack:.17g}"
        except SingularCovector:
            r_s, slack_s = "singular", "singular"
        if not all(map(math.isfinite, values)):
            refuse(chart_pt, f"values (E = {E:.17g}, r11 = {r_s}, "
                             f"slack = {slack_s})")
        out_rows.append(list(chart_pt) + [f"{v:.17g}" for v in h]
                        + [chart.stratum_label, growth, r_s,
                           f"{E:.17g}", slack_s])

    if args.format == "json":
        payload = {"config": cfg,
                   "rows": [dict(zip(header, r)) for r in out_rows]}
        _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    else:
        buf = ["# config: " + json.dumps(cfg, sort_keys=True)]
        buf.append(",".join(header))
        for r in out_rows:
            buf.append(",".join(f"{v:.17g}" if isinstance(v, float) else str(v)
                                for v in r))
        _emit("\n".join(buf) + "\n", args.out)
    return EXIT_OK


def build_parser():
    p = argparse.ArgumentParser(
        prog="carnotcurv",
        description="Curvature invariants, geodesics, and regularity of "
                    "rank-two Carnot groups (Goursat family and Cartan group).")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, covector=True):
        sp.add_argument("--group", required=True,
                        help="group spec: goursat:<n> (n >= 3) or cartan")
        if covector:
            sp.add_argument("--covector",
                            help="comma-separated h-coordinates at the origin")
        sp.add_argument("--out", help="output path (default stdout)")
        sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("geodesic", help="integrate the normal flow, emit CSV")
    common(sp)
    sp.add_argument("--T", type=float, default=1.0)
    sp.add_argument("--step", type=float, default=1e-3)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--tol-drift", type=float, default=DRIFT_TOL,
                    help="conserved-quantity drift bound")
    sp.set_defaults(func=cmd_geodesic)

    sp = sub.add_parser("classify", help="stratum, growth vector, loss times")
    common(sp)
    sp.add_argument("--T", type=float, default=10.0)
    sp.add_argument("--step", type=float, default=1e-3)
    sp.add_argument("--format", choices=("json",), default="json")
    sp.add_argument("--tol-class", type=float, default=STRATUM_TOL,
                    help="stratum boundary tolerance")
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("curvature", help="curvature invariants report")
    common(sp)
    sp.add_argument("--format", choices=("json",), default="json")
    sp.set_defaults(func=cmd_curvature)

    sp = sub.add_parser("verify", help="run oracle verification suites")
    sp.add_argument("--group", help="restrict to one group (default: all)")
    sp.add_argument("--suite", choices=("exact", "fit", "all", "slow"),
                    default="all")
    sp.add_argument("--count", type=int, default=50,
                    help="number of random covectors for the exact suite")
    sp.add_argument("--out", help="write the JSON report here")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("sweep", help="tabulate invariants over a chart grid")
    common(sp, covector=False)
    sp.add_argument("--grid", help="axes, e.g. theta=-3:3:7,c=0.5:2:4,alpha=-1:1:5")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--tol-class", type=float, default=STRATUM_TOL)
    sp.set_defaults(func=cmd_sweep)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if args.out:
            _check_out(args.out)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the exit flush of what is left would fail again: it goes nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except (UsageError, UnsupportedGroup, NotUnitSpeed, WrongStratum,
            DegreeOverflow, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except StepTooLarge as exc:
        print(f"integrator error: {exc}", file=sys.stderr)
        return EXIT_INTEGRATOR
    except (NotAmpleEquiregular, NotAmple) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_AMPLE
    except SingularCovector as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except (RankUnstable, IllConditioned, ShootingDiverged, StepUnbalanced,
            LemmaConditionFailed, LossTimeMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
