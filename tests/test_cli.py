"""Command-line surface: subcommands, exit codes, determinism."""
import hashlib
import json
import math
import warnings

import pytest

from carnotcurv import cli
from carnotcurv import oracle
from carnotcurv.errors import IllConditioned


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

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "geodesic", "--group", "goursat:3",
                           "--covector", "1,0,0", "--T", "0.01",
                           "--format", "json")
        assert code == 0
        d = json.loads(out)
        assert d["config"]["format"] == "json"
        assert len(d["t"]) == len(d["h"]) == len(d["x"])
        assert d["H_drift"] < 1e-12


class TestClassify:
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
            "beta=0 gives non-finite values (E = inf, r11 = inf, slack = nan)"]

    def test_deterministic(self, capsys):
        for group, grid, digest in (
                ("goursat:4", "theta=0.4:2.8:3,c=0.5:1.5:2,alpha=-1:1:3",
                 "ebee943833fdb6e5b7d886156894f8a5"
                 "069f19281874505c51937216d02a681f"),
                ("cartan", "theta=-3:3:4,c=0:1.5:3,alpha=0:1.2:3,beta=-1:1:2",
                 "9ae4e146a4e28a8f2b761c3e2fb8901b"
                 "c9e06c3e6bcbc72dbbcc806f35d71ba3")):
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
