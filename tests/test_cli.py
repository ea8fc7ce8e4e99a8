"""Command-line surface: subcommands, exit codes, determinism."""
import contextlib
import hashlib
import io
import json
import math
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carnotcurv import cli
from carnotcurv import hamiltonian
from carnotcurv import oracle
from carnotcurv import regularity
from carnotcurv.errors import IllConditioned
from carnotcurv.groups import build_group


def run(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()

# The SHA-256 digests below pin the exact stdout bytes these commands printed
# before the per-group facts moved onto GroupModel; a refactor must keep them.


class TestGeodesic:
    def test_straight_line_csv(self, capsys):
        code, out, _ = run(capsys, "geodesic", "--group", "goursat:3",
                           "--covector", "1,0,0", "--T", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# config: ")
        assert lines[1] == "t,x,y0,y1,h1,h2,h3,H"
        last = lines[-1].split(",")
        assert abs(float(last[1]) - 1.0) < 1e-12   # x(T) = T
        assert float(last[4]) == 1.0               # h1 constant

    def test_cartan_energy_column_constant(self, capsys, tmp_path):
        out_path = tmp_path / "traj.csv"
        code, _, _ = run(capsys, "geodesic", "--group", "cartan",
                         "--covector", "1,0,1,0,0", "--T", "10",
                         "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[1].endswith(",E")
        evals = [float(r.split(",")[-1]) for r in lines[2:]]
        assert max(abs(e - evals[0]) for e in evals) < 1e-9

    def test_unsupported_group_exit_2(self, capsys):
        code, _, err = run(capsys, "geodesic", "--group", "goursat:2",
                           "--covector", "1,0", "--T", "1")
        assert code == 2
        assert "unsupported group" in err

    def test_integrator_exit_3(self, capsys):
        code, _, err = run(capsys, "geodesic", "--group", "goursat:4",
                           "--covector", "0,1,1,1", "--T", "5",
                           "--step", "0.25", "--tol-drift", "1e-12")
        assert code == 3

    def test_bad_covector_exit_2(self, capsys):
        code, _, _ = run(capsys, "geodesic", "--group", "goursat:3",
                         "--covector", "1,0", "--T", "1")
        assert code == 2
        code, _, _ = run(capsys, "geodesic", "--group", "goursat:3",
                         "--covector", "1,zz,0", "--T", "1")
        assert code == 2

    @pytest.mark.parametrize("covector, want", [("nan,1,0,0", 2),
                                                ("inf,1,0,0", 2),
                                                ("1e400,1,0,0", 2),
                                                ("1e200,1,0,0", 3)])
    def test_non_finite_covector_writes_no_rows(self, capsys, covector, want):
        # NaN input was once integrated and printed as NaN rows with exit 0;
        # 1e200 overflows H, and a NaN drift must still trip the bound.  The
        # overflow once also printed four numpy RuntimeWarnings first.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "geodesic", "--group", "goursat:4",
                                 f"--covector={covector}")
        assert code == want
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(("error:", "integrator error:"))
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize("command", ["geodesic", "classify"])
    @pytest.mark.parametrize("horizon", [("--T", "inf"), ("--T", "nan"),
                                         ("--step", "1e-300")],
                             ids=["T-inf", "T-nan", "step-1e-300"])
    def test_unbounded_horizon_exit_2(self, capsys, monkeypatch, command,
                                      horizon):
        # --T inf once ended in an OverflowError traceback, --T nan in a bare
        # "cannot convert float NaN to integer", and --step 1e-300 looped
        # with growing memory; the horizon is now refused before any work
        def no_model(spec):
            raise AssertionError("the horizon must be checked first")

        monkeypatch.setattr(cli, "build_group", no_model)
        code, out, err = run(capsys, command, "--group", "goursat:4",
                             "--covector", "1,0,0,0", *horizon)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")

    def test_deterministic_output(self, capsys):
        args = ("geodesic", "--group", "goursat:4", "--covector",
                "0,1,1,0.5", "--T", "0.5")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2
        assert sha256(out1) == ("b07275debf2df62b4b0dc26c41416e570b1a31f8"
                                "8d542b5240054ec6c75f8416")

    # recorded before the one-pass writer: the E column (cartan), no E
    # column (goursat:6), a backward run and the JSON layout
    @pytest.mark.parametrize("args, digest", [
        (("--group", "cartan", "--covector", "1,0,1,0.3,0.2", "--T", "0.5"),
         "c92b5ee1d63db272fa64022f64e79e885da3c6a9ea43cef72bacbb9abcfdd6ea"),
        (("--group", "goursat:6", "--covector", "0.6,0.8,1,0.5,0.3,0.2",
          "--T", "0.5"),
         "fddef5eef60657ad2fe2f911cce792cefe18b2bb9af700dd531453135e80af75"),
        (("--group", "goursat:4", "--covector", "0,1,1,0.5", "--T=-0.5"),
         "05fbd21413c51f7bb606e53ad3a96c46e35db55a1150a5aac9b2efbcbb20c7cc"),
        (("--group", "goursat:4", "--covector", "0,1,1,0.5", "--T", "0.5",
          "--format", "json"),
         "11b3d6d720f5efd31b9cdae13809f64e32cdfe7c634247bbf7378f240bc6ebed"),
    ], ids=["cartan-csv", "goursat6-csv", "goursat4-backward", "goursat4-json"])
    def test_pinned_output(self, capsys, args, digest):
        code, out, _ = run(capsys, "geodesic", *args)
        assert code == 0
        assert sha256(out) == digest

    def test_streamed_out_file_matches_stdout(self, capsys, tmp_path):
        # the CSV goes to --out chunk by chunk; only the echoed config differs
        args = ("geodesic", "--group", "cartan", "--covector", "1,0,1,0.3,0.2",
                "--T", "0.5")
        _, out, _ = run(capsys, *args)
        path = tmp_path / "g.csv"
        code, stdout, _ = run(capsys, *args, "--out", str(path))
        assert code == 0 and stdout == ""
        text = path.read_text()
        assert text.splitlines()[1:] == out.splitlines()[1:]
        assert text.endswith("\n")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_each_sample_evaluated_once(self, capsys, monkeypatch, fmt):
        # the drift check, the CSV columns, E and H_drift share one h and
        # one H series, each one call over the stored samples; the writer
        # once evaluated each of them twice, and each call was one sample
        cf = hamiltonian.compiled_flow(build_group("goursat:4"))
        calls = {"h_of": 0, "H_of": 0}

        def counted(name):
            f = getattr(cf, name)

            def wrapper(y):
                calls[name] += 1
                return f(y)
            return wrapper

        for name in calls:
            monkeypatch.setattr(cf, name, counted(name))
        code, out, _ = run(capsys, "geodesic", "--group", "goursat:4",
                           "--covector", "0,1,1,0.5", "--T", "0.1",
                           "--format", fmt)
        assert code == 0
        samples = 101    # 100 steps
        if fmt == "csv":
            assert len(out.splitlines()) == samples + 2
        else:
            assert len(json.loads(out)["t"]) == samples
        # each series is one block call over all samples
        assert calls == {"h_of": 1, "H_of": 1}

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "geodesic", "--group", "goursat:3",
                           "--covector", "1,0,0", "--T", "0.01",
                           "--format", "json")
        assert code == 0
        d = json.loads(out)
        assert d["config"]["format"] == "json"
        assert len(d["t"]) == len(d["h"]) == len(d["x"])
        assert d["H_drift"] < 1e-12


@pytest.mark.parametrize("command", [
    ("geodesic", "--group", "goursat:3", "--covector", "1,0,0", "--T", "0.01"),
    ("classify", "--group", "goursat:4", "--covector", "0,1,0,0", "--T", "1"),
    ("verify", "--group", "goursat:3", "--suite", "exact", "--count", "1")],
    ids=["geodesic", "classify", "verify"])
@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_unwritable_out_exit_2(capsys, tmp_path, command, where):
    # once a FileNotFoundError or IsADirectoryError traceback with exit 1
    path = tmp_path / "missing" / "x.out" if where == "missing-dir" else tmp_path
    code, out, err = run(capsys, *command, "--out", str(path))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: cannot write {path}: ")


@pytest.mark.parametrize("command", [
    ("geodesic", "--group", "cartan", "--covector", "1,0,1,0.3,0.2",
     "--T", "100"),
    ("classify", "--group", "goursat:4", "--covector", "0.6,0.8,1,0",
     "--T", "100")], ids=["geodesic", "classify"])
def test_unwritable_out_refused_before_the_flow(capsys, monkeypatch,
                                                tmp_path, command):
    # the path was once tried only after the whole run (2.9 s for this
    # geodesic); now no flow is integrated
    def no_flow(*args, **kwargs):
        raise AssertionError("integrate_flow called")

    monkeypatch.setattr(cli, "integrate_flow", no_flow)
    monkeypatch.setattr(regularity, "integrate_flow", no_flow)
    path = tmp_path / "missing" / "x.out"
    code, out, err = run(capsys, *command, "--out", str(path))
    assert code == 2 and out == ""
    assert err == f"error: cannot write {path}: No such file or directory\n"


def test_unwritable_out_without_permission(capsys, monkeypatch, tmp_path):
    # as root every path is writable, so the access test is simulated
    monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
    path = tmp_path / "x.csv"
    code, _, err = run(capsys, "geodesic", "--group", "goursat:3",
                       "--covector", "1,0,0", "--out", str(path))
    assert code == 2
    assert err == f"error: cannot write {path}: Permission denied\n"
    assert not path.exists()


def test_out_file_untouched_when_the_run_fails(capsys, tmp_path):
    # the check creates and truncates nothing; a drift exit 3 leaves the
    # old file as it was
    path = tmp_path / "g.csv"
    path.write_text("previous run\n")
    code, _, err = run(capsys, "geodesic", "--group", "goursat:5",
                       "--covector", "1,0,1,0.3,0.1", "--T", "1",
                       "--step", "0.5", "--out", str(path))
    assert code == 3 and err.startswith("integrator error: ")
    assert path.read_text() == "previous run\n"


class TestClassify:
    def test_separatrix_cross_check_exit_6(self, capsys):
        # C5 separatrix: the float flow leaves the unstable orbit after
        # about 11 time units, so the scan finds a loss the closed form does
        # not have; this once ended in a RuntimeError traceback (exit 1)
        code, out, err = run(capsys, "classify", "--group", "goursat:4",
                             "--covector=-1,0,2,2", "--T", "20")
        assert code == 6 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: loss-time cross-check failed: ")

    def test_engel_c7_abnormal(self, capsys):
        code, out, _ = run(capsys, "classify", "--group", "goursat:4",
                           "--covector", "0,1,0,0", "--T", "5")
        assert code == 0
        d = json.loads(out)
        assert d["stratum"] == "C7"
        assert d["abnormal"] is True
        assert d["loss_times"] is None

    def test_cartan_growth_and_no_loss(self, capsys):
        code, out, _ = run(capsys, "classify", "--group", "cartan",
                           "--covector", "1,0,1,0,0", "--T", "10")
        d = json.loads(out)
        assert code == 0
        assert d["growth_vector"] == [2, 3, 4, 5]
        assert d["loss_times"] == []

    def test_engel_c1_periodic_losses(self, capsys):
        # h for chart (theta, c, alpha) = (0.3, 0.8, 1.0) in C1; the leading
        # minus needs the --covector=... form (argparse flag parsing)
        import math
        h = f"{-math.sin(0.3)!r},{math.cos(0.3)!r},0.8,1"
        code, out, _ = run(capsys, "classify", "--group", "goursat:4",
                           f"--covector={h}", "--T", "12")
        d = json.loads(out)
        assert code == 0
        assert d["stratum"] == "C1+"
        assert len(d["loss_times"]) >= 2
        gaps = d["loss_time_spacing"]
        assert max(gaps) - min(gaps) < 1e-8
        assert sha256(out) == ("253b3c605f72ebc2cde27376cde53235fde7d428"
                               "fe285d3eb0531db490e6047f")

    def test_pole_near_zero_at_start(self, capsys):
        # |h3| = 1e-9 is a zero for the closed form (a loss at t = 0); the
        # integration scan once used 1e-12 there and the cross-check raised
        code, out, _ = run(capsys, "classify", "--group", "cartan",
                           "--covector", "1,0,1e-9,0.3,0.2", "--T", "3")
        assert code == 0
        assert json.loads(out)["loss_times"] == [0.0]

    @pytest.mark.parametrize("group, covector, T, nzeros", [
        ("cartan", "1,0,2e-9,0.3,0.2", "3", 0),
        ("cartan", "1,0,0,1,0", "6", 2),
        ("goursat:4", "0,1,1,0", "3.14159265358", 2),
        ("goursat:4", "5e-9,-1,0.5,0.3", "2", 0)])
    def test_pole_near_zero_cross_check(self, capsys, group, covector, T,
                                        nzeros):
        # the C1 and C2 charts once took cn^2 = 1 - sn^2 by cancellation,
        # and the closed form ignored the scan's end rule (a pole within 1e-9
        # at t = 0 or T is a zero there); each raised the cross-check
        # RuntimeError
        code, out, _ = run(capsys, "classify", "--group", group,
                           "--covector", covector, "--T", T)
        assert code == 0
        assert len(json.loads(out)["loss_times"]) == nzeros

    def test_off_unit_speed_horizon_uses_scan(self, capsys):
        # 1e-9 < |2H - 1|: the pendulum cross-check once raised NotUnitSpeed
        # (exit 2) although the report names no stratum off unit speed
        code, out, err = run(capsys, "classify", "--group", "goursat:4",
                             "--covector", "0.6,0.8000001,1,0", "--T", "2")
        assert code == 0 and err == ""
        d = json.loads(out)
        assert d["stratum"] is None
        # h3 = 1, h4 = 0: the pole h1 turns at unit rate, zero at atan2(h1, h2)
        (t0,) = d["loss_times"]
        assert abs(t0 - math.atan2(0.6, 0.8000001)) < 1e-6

    def test_config_echo(self, capsys):
        code, out, _ = run(capsys, "classify", "--group", "cartan",
                           "--covector", "1,0,1,0,0", "--T", "2")
        d = json.loads(out)
        assert d["config"]["group"] == "cartan"
        assert d["config"]["covector"] == "1,0,1,0,0"


class TestCurvature:
    def test_engel_r11(self, capsys):
        code, out, _ = run(capsys, "curvature", "--group", "goursat:4",
                           "--covector", "1,0,1,0")
        d = json.loads(out)
        assert code == 0
        assert d["r11"] == "-4"

    def test_heisenberg_matrix(self, capsys):
        code, out, _ = run(capsys, "curvature", "--group", "goursat:3",
                           "--covector", "1,0,2")
        d = json.loads(out)
        assert code == 0
        assert d["R"] == [["8/5", "0"], ["0", "0"]]

    def test_pole_exit_5(self, capsys):
        code, _, err = run(capsys, "curvature", "--group", "cartan",
                           "--covector", "1,0,0,1,0")
        assert code == 5

    def test_abnormal_pole_exit_5(self, capsys):
        code, _, _ = run(capsys, "curvature", "--group", "goursat:4",
                         "--covector", "0,1,0,1")
        assert code == 5

    def test_not_unit_speed_exit_4(self, capsys):
        code, _, _ = run(capsys, "curvature", "--group", "goursat:3",
                         "--covector", "2,0,1")
        assert code == 4

    @pytest.mark.parametrize("group, covector", [
        ("goursat:3", "0.6,0.8,1e200"), ("goursat:4", "0.6,0.8,1e200,0"),
        ("cartan", "0.6,0.8,1e200,0,0")])
    def test_r11_beyond_float_range_exit_2(self, capsys, group, covector):
        # R11 is exact here but once overflowed float() in the report
        code, out, err = run(capsys, "curvature", "--group", group,
                             "--covector", covector)
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            f"error: R11 or its bound at covector {covector} is beyond the "
            "float range"]

    def test_group_past_degree_limit_exit_2(self, capsys):
        # goursat:258's frame has an x^256 term, past the packed-monomial cap
        code, out, err = run(capsys, "curvature", "--group", "goursat:258",
                             "--covector", "1,0,0")
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            "error: total degree above 255 does not fit a packed monomial"]

    @pytest.mark.parametrize("covector", ["1/0,0,1", "0/0,0,1"])
    def test_zero_denominator_exit_2(self, capsys, covector):
        # Fraction's ZeroDivisionError once escaped as a traceback (exit 1)
        code, out, err = run(capsys, "curvature", "--group", "goursat:3",
                             "--covector", covector)
        assert (code, out) == (2, "")
        tok = covector.split(",")[0]
        assert err.splitlines() == [
            f"error: cannot parse covector component {tok!r}"]

    def test_exact_2h_beyond_float_range_exit_4(self, capsys):
        # 2H = 1e400 exactly; its message once overflowed float()
        code, out, err = run(capsys, "curvature", "--group", "goursat:4",
                             "--covector=1e200,0,1,0")
        assert (code, out) == (4, "")
        assert err.splitlines() == [
            "error: curvature is defined for unit-speed covectors; 2H = inf"]


# covector components the curvature fuzz draws from: valid exact and float
# values, a zero denominator, values at and past the float range, non-finite
# and empty tokens
COVECTOR_TOKENS = (st.sampled_from(
    ["0", "1", "-1", "2", "1/2", "3/5", "4/5", "0.6", "-0.8", "1/0", "0/0",
     "1e308", "-1e308", "1e-400", "nan", "inf", "-inf", ""])
    | st.integers(10 ** 399, 10 ** 400 - 1).map(str))


@settings(max_examples=150, deadline=None)
@given(group=st.sampled_from(["goursat:3", "goursat:4", "cartan"]),
       tokens=st.lists(COVECTOR_TOKENS, max_size=7))
@example(group="goursat:3", tokens=["1/0", "0", "1"])
@example(group="goursat:4", tokens=["1e200", "0", "1", "0"])
def test_curvature_covector_fuzz(group, tokens):
    # any covector text: a documented exit code and at most one line on
    # stderr; an exception escaping main fails the test
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["curvature", "--group", group,
                         "--covector=" + ",".join(tokens)])
    assert code in (0, 2, 4, 5), (code, err.getvalue())
    assert len(err.getvalue().splitlines()) <= 1, err.getvalue()


@pytest.mark.parametrize("command", ["geodesic", "classify", "curvature"])
@pytest.mark.parametrize("group, message", [
    ("goursat:30", "covector needs 30 components for goursat:30, got 1"),
    ("goursat:999999",
     "total degree above 255 does not fit a packed monomial")],
    ids=["wrong-length", "past-degree-limit"])
def test_bad_input_refused_before_the_build(capsys, monkeypatch, command,
                                            group, message):
    # building goursat:30 takes seconds, and goursat:999999 once allocated
    # its frame table before the degree limit stopped it
    def no_build(spec):
        raise AssertionError(f"build_group({spec!r}) was called")

    monkeypatch.setattr(cli, "build_group", no_build)
    code, out, err = run(capsys, command, "--group", group, "--covector", "1")
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"error: {message}"]


class TestVerify:
    def test_exact_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "exact", "--group",
                           "goursat:5", "--seed", "7", "--count", "50")
        assert code == 0
        assert "50/50" in out
        assert out.strip().splitlines()[-1].startswith("OK")

    def test_deterministic_given_seed(self, capsys, tmp_path):
        # identical config (including the output path) => identical bytes
        f = tmp_path / "report.json"
        args = ("verify", "--suite", "exact", "--group", "goursat:3",
                "--seed", "5", "--count", "10", "--out", str(f))
        code, out, _ = run(capsys, *args)
        assert code == 0
        first = f.read_bytes()
        code, _, _ = run(capsys, *args)
        assert code == 0
        assert f.read_bytes() == first
        assert sha256(out) == ("3c5cbbe8eacf1d0ae3b1168cb32920e77bee142c"
                               "dccecc04f311c41e68f2c01d")

    @pytest.mark.parametrize("group, digest", [
        ("goursat:5", "c0f941cc22746b24a5a32c9c3eb2718d"
                      "012163f80648a4f496449b7f03d7377d"),
        ("cartan", "e7e76f5fe7c1a186acc98ccf6566df66"
                   "871e438523ea7d836e55101a8d1767a1")])
    def test_exact_rows_pinned(self, capsys, group, digest):
        # the Darboux rows, and on goursat:5 the a_ij row, as printed before
        # route 1 derived its functions of h once per model
        code, out, _ = run(capsys, "verify", "--suite", "exact", "--group",
                           group, "--count", "3")
        assert code == 0
        assert sha256(out) == digest

    def test_negative_count_exit_2(self, capsys):
        # once ran no check and failed as "expected -3/-3, got 0/-3"
        code, out, err = run(capsys, "verify", "--suite", "exact",
                             "--group", "goursat:3", "--count", "-3")
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: --count must be >= 0, got -3"]

    def test_slow_suite_without_checks_exit_2(self, capsys):
        # once printed "OK: 0/0 checks passed" and exited 0
        code, out, err = run(capsys, "verify", "--suite", "slow",
                             "--group", "cartan")
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            "error: slow suite is defined for goursat:3 and goursat:4, "
            "not cartan"]

    def test_failure_exit_6(self, capsys, monkeypatch):
        bad = oracle.CheckRow("forced", "exact", 1, 0, False)
        monkeypatch.setattr(oracle, "run_exact_suite",
                            lambda *a, **k: [bad])
        code, out, _ = run(capsys, "verify", "--suite", "exact",
                           "--group", "goursat:3")
        assert code == 6
        assert "FAILED" in out

    def test_undecided_oracle_exit_6(self, capsys, monkeypatch):
        def raise_ill(*a, **k):
            raise IllConditioned("8/14 graph-map solves exceeded cond 1e+12")
        monkeypatch.setattr(oracle, "run_fit_suite", raise_ill)
        code, out, err = run(capsys, "verify", "--suite", "fit",
                             "--group", "goursat:3")
        assert code == 6
        assert out == ""
        assert err.splitlines() == [
            "error: 8/14 graph-map solves exceeded cond 1e+12"]


class TestSweep:
    def test_engel_slack_nonnegative(self, capsys):
        code, out, _ = run(capsys, "sweep", "--group", "goursat:4", "--grid",
                           "theta=0.4:2.8:4,c=0.5:1.5:3,alpha=-1:1:3")
        assert code == 0
        lines = out.splitlines()
        header = lines[1].split(",")
        si = header.index("slack")
        rows = [r.split(",") for r in lines[2:]]
        assert len(rows) == 4 * 3 * 3
        for r in rows:
            if r[si] != "singular":
                assert float(r[si]) >= -1e-12

    def test_pole_rows_marked_singular(self, capsys):
        # theta = 0 makes h1 = 0: the pole row must be marked, not numeric
        code, out, _ = run(capsys, "sweep", "--group", "goursat:4", "--grid",
                           "theta=0:1:2,c=1:1:1,alpha=1:1:1")
        assert code == 0
        rows = [r.split(",") for r in out.splitlines()[2:]]
        r11_col = out.splitlines()[1].split(",").index("r11")
        assert rows[0][r11_col] == "singular"
        assert rows[1][r11_col] != "singular"

    def test_cartan_slack_formula(self, capsys):
        import math
        code, out, _ = run(capsys, "sweep", "--group", "cartan", "--grid",
                           "theta=0.3:0.3:1,c=0.9:0.9:1,alpha=0.7:0.7:1,beta=-0.2:-0.2:1")
        assert code == 0
        row = out.splitlines()[2].split(",")
        header = out.splitlines()[1].split(",")
        slack = float(row[header.index("slack")])
        want = 8 * (0.7 ** 2 / 0.9 ** 2) * math.sin(0.3 + 0.2) ** 2
        assert abs(slack - want) < 1e-12

    def test_json_rows(self, capsys):
        code, out, _ = run(capsys, "sweep", "--group", "goursat:4", "--grid",
                           "theta=0.4:0.4:1,c=1:1:1,alpha=1:1:1",
                           "--format", "json")
        assert code == 0
        d = json.loads(out)
        assert len(d["rows"]) == 1
        assert d["rows"][0]["stratum"].startswith("C")

    def test_malformed_grid_exit_2(self, capsys):
        code, _, _ = run(capsys, "sweep", "--group", "goursat:4",
                         "--grid", "bogus")
        assert code == 2
        code, _, _ = run(capsys, "sweep", "--group", "goursat:4",
                         "--grid", "theta=0:1:2")
        assert code == 2

    def test_non_finite_grid_bound_exit_2(self, capsys):
        # once failed later, as "classification needs h1^2+h2^2 = 1"
        code, out, err = run(capsys, "sweep", "--group", "goursat:4", "--grid",
                             "theta=0:1:2,c=inf:1:1,alpha=1:1:1")
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            "error: grid axis 'c' needs finite bounds, got inf:1.0"]

    def test_non_finite_point_writes_no_rows(self, capsys):
        # c = 1e300 overflows E and r11; the row was printed with exit 0
        code, out, err = run(capsys, "sweep", "--group", "cartan", "--grid",
                             "theta=0:1:1,c=1e300:1e300:1,alpha=1:1:1,"
                             "beta=0:0:1")
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            "error: sweep point theta=0, c=1.0000000000000001e+300, alpha=1, "
            "beta=0 gives non-finite values (E = inf, r11 = inf, slack = 0)"]

    def test_slack_does_not_cancel_at_large_energy(self, capsys):
        # bound - R11 lost every digit to the 4E = -5.4e299 it cancels; the
        # closed form 6 h3^2 (h1^2 + h2^2)/h1^2 keeps them
        code, out, _ = run(capsys, "sweep", "--group", "goursat:4", "--grid",
                           "theta=0:1:2,c=1:1:1,alpha=1e300:1e300:1")
        assert code == 0
        lines = out.splitlines()
        si = lines[1].split(",").index("slack")
        row = lines[3].split(",")
        assert row[0] == "1"
        assert float(row[si]) == 8.473697564624352

    def test_deterministic(self, capsys):
        # pinned when the slack column became the closed form of
        # bound - R11: only slack digits in the last place moved
        for group, grid, digest in (
                ("goursat:4", "theta=0.4:2.8:3,c=0.5:1.5:2,alpha=-1:1:3",
                 "7d15b94d94a40290393ad158ab62625b"
                 "739afcb799598e05c7c799b422c095f0"),
                ("cartan", "theta=-3:3:4,c=0:1.5:3,alpha=0:1.2:3,beta=-1:1:2",
                 "2ce5d6c9859ccb36fc1a2262c799cf6c"
                 "fd46564d65cc416188ae0c1c74cec264")):
            args = ("sweep", "--group", group, "--grid", grid)
            _, out1, _ = run(capsys, *args)
            _, out2, _ = run(capsys, *args)
            assert out1 == out2
            assert sha256(out1) == digest


class TestUsage:
    def test_missing_subcommand(self, capsys):
        assert cli.main([]) == 2

    def test_unknown_flag(self, capsys):
        assert cli.main(["geodesic", "--bogus"]) == 2
