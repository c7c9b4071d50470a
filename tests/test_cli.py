"""Command-line surface: exit codes, CSV output, config handling and
reproducibility."""

import argparse
import csv
import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from gcipw import thermal
from gcipw.cli import main, modular_order, parse_rat, parse_tau
from gcipw.exact import QSeries, lambert_series


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


class TestParsing:
    def test_rational(self):
        assert parse_rat("3/4") == F(3, 4)
        assert parse_rat("-2") == F(-2)

    def test_tau(self):
        assert parse_tau("1.1i") == 1.1j
        assert parse_tau("0.3+1.2i") == 0.3 + 1.2j
        with pytest.raises(Exception):
            parse_tau("0.3-1.2i")

    @pytest.mark.parametrize("text", ["1+nani", "infi", "nan", "inf+1i", "nan+1i"])
    def test_non_finite_tau(self, text):
        with pytest.raises(argparse.ArgumentTypeError, match="finite"):
            parse_tau(text)

    @pytest.mark.parametrize("text", ["1+nani", "infi"])
    @pytest.mark.parametrize("kind", ["modular", "kms"])
    def test_non_finite_tau_is_a_usage_error(self, kind, text, tmp_path, capsys):
        assert main(["thermal", kind, "--tau", text]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        last_line = captured.err.strip().splitlines()[-1]
        assert last_line.endswith(f"tau must be finite with Im tau > 0: {text!r}")
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"tau_points": [text]}))
        assert main(["thermal", kind, "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"bad config: tau must be finite with Im tau > 0: {text!r}\n"


class TestDecompose:
    def test_a0_direction(self, capsys):
        code, out = run(
            ["decompose", "--a0", "1", "--max-twist", "1", "--max-spin", "3"], capsys
        )
        assert code == 0
        rows = list(csv.reader(out.strip().splitlines()))
        assert rows[0][:3] == ["kappa", "ell", "B_exact"]
        assert rows[1][:3] == ["1", "0", "2/1"]

    def test_zero_params(self, capsys):
        code, out = run(["decompose", "--max-twist", "2", "--max-spin", "2"], capsys)
        assert code == 0
        rows = list(csv.reader(out.strip().splitlines()))[1:]
        assert all(r[2] == "0/1" for r in rows)

    def test_c_direction_twist4(self, capsys):
        code, out = run(
            ["decompose", "--c", "1", "--max-twist", "2", "--max-spin", "1"], capsys
        )
        assert code == 0
        rows = {(r[0], r[1]): r[2] for r in list(csv.reader(out.strip().splitlines()))[1:]}
        assert rows[("2", "0")] == "1/1"


    def test_B_above_twist_eight(self, capsys):
        # the B^2 tail enters at kappa = 4 and decomposes at every higher twist
        code, out = run(["decompose", "--B", "1", "--max-twist", "5", "--max-spin", "2"], capsys)
        assert code == 0
        rows = {(r[0], r[1]): r[2] for r in list(csv.reader(out.strip().splitlines()))[1:]}
        assert rows[("4", "0")] == "2/1" and rows[("1", "0")] == "0/1"


class TestPositivity:
    def test_boundary_flips(self, capsys):
        code, out = run(
            [
                "positivity",
                "--a1",
                "1",
                "--axis",
                "b",
                "--lo",
                "-4",
                "--hi",
                "1",
                "--steps",
                "15",
            ],
            capsys,
        )
        assert code == 0
        rows = list(csv.reader(out.strip().splitlines()))[1:]
        verdicts = {F(r[3]): r[6] == "True" for r in rows}
        assert verdicts[F(-4)] is False
        assert verdicts[F(-3)] is True
        assert verdicts[F(0)] is True
        assert verdicts[F(1, 3)] is True
        assert verdicts[F(1)] is False

    def test_trivial_point(self, capsys):
        code, out = run(
            ["positivity", "--axis", "b", "--lo", "-1", "--hi", "0", "--steps", "1"],
            capsys,
        )
        rows = list(csv.reader(out.strip().splitlines()))[1:]
        # P4 = b st(Q1 - 2 Q2) is zero only at b = 0
        assert [(r[3], r[6], r[7]) for r in rows] == [
            ("-1/1", "False", "False"),
            ("0/1", "True", "True"),
        ]

    def test_negative_a0_rejected(self, capsys):
        code, out = run(
            ["positivity", "--a0", "-1", "--axis", "b", "--lo", "0", "--hi", "0", "--steps", "1"],
            capsys,
        )
        rows = list(csv.reader(out.strip().splitlines()))[1:]
        assert rows[0][6] == "False"
        assert rows[0][8] == "a0 >= 0"

    def test_malformed_grid(self, capsys):
        code, _ = run(
            ["positivity", "--axis", "b", "--lo", "1", "--hi", "0", "--steps", "4"],
            capsys,
        )
        assert code == 2


class TestOracle:
    def test_small_run(self, capsys):
        code, out = run(["oracle", "--seed", "99"], capsys)
        assert code == 0
        assert "c2=-2" in out and "c3=1" in out and "c4=-1/2" in out

    def test_injected_failure(self, monkeypatch, capsys):
        from gcipw import freefield

        v1 = freefield.v1_weyl_4pt
        monkeypatch.setattr(freefield, "v1_weyl_4pt", lambda cfg: -v1(cfg))
        code, out = run(["oracle", "--seed", "99"], capsys)
        assert code == 1
        assert "c05_appendix_oracle: FAIL" in out

    def test_kernel_error_fails_the_check(self, monkeypatch, capsys):
        # an exception inside a check body is that check's failure, reported
        # on its result line, not an input error or a traceback
        from gcipw import freefield
        from gcipw.kinematics import DegenerateConfiguration

        def degenerate(cfg):
            raise DegenerateConfiguration("coincident points on a pole pair")

        monkeypatch.setattr(freefield, "v1_weyl_4pt", degenerate)
        code, out = run(["oracle", "--seed", "99"], capsys)
        assert code == 1
        assert "c05_appendix_oracle: FAIL" in out
        assert "DegenerateConfiguration: coincident points on a pole pair" in out
        # the innermost raising frame locates the fault on the same line
        line = degenerate.__code__.co_firstlineno + 1
        fail = next(l for l in out.splitlines() if l.startswith("c05_appendix_oracle: FAIL"))
        assert fail.endswith(f"(at test_cli.py:{line} in degenerate)")
        assert "c06_sixpoint_oracle: PASS" in out

    def test_json_equals_the_checks(self, tmp_path, capsys):
        from gcipw import verify

        path = tmp_path / "oracle.json"
        code, _ = run(["oracle", "--seed", "7", "--json", str(path)], capsys)
        summary = json.loads(path.read_text())
        assert code == 0
        assert sorted(summary) == ["c05_appendix_oracle", "c06_sixpoint_oracle"]
        for name, got in summary.items():
            want = verify.CHECKS[name](7)
            assert (got["passed"], got["detail"]) == (want["passed"], want["detail"])


class TestThermal:
    def test_scalar6_energy(self, capsys):
        code, out = run(["thermal", "energy", "--model", "scalar6", "--order", "10"], capsys)
        assert code == 0
        rows = list(csv.reader(out.strip().splitlines()))[1:]
        table = {(r[0], r[1]): (r[2], r[3], r[4]) for r in rows}
        assert table[("0", "2")][:2] == ("-31", "60480")
        assert table[("4", "2")][2] != ""  # flagged n=2 coefficient

    def test_weyl_energy(self, capsys):
        code, out = run(["thermal", "energy", "--model", "weyl", "--order", "10"], capsys)
        rows = list(csv.reader(out.strip().splitlines()))[1:]
        table = {(r[0], r[1]): (r[2], r[3]) for r in rows}
        assert table[("0", "2")] == ("17", "960")
        assert table[("3", "2")] == ("6", "1")

    def test_modular(self, capsys):
        code, out = run(["thermal", "modular", "--k", "2", "--tau", "1.1i"], capsys)
        assert code == 0
        rows = list(csv.reader(out.strip().splitlines()))[1:]
        assert float(rows[0][2]) < 1e-10

    def test_kms(self, capsys):
        code, out = run(["thermal", "kms", "--tau", "1.5i"], capsys)
        assert code == 0

    def test_modular_builds_one_series(self, tmp_path, capsys, monkeypatch):
        # the order search and every check share one G4, cut from its window
        builds = []

        def counting(const, terms, sign, max_exp):
            builds.append(max_exp)
            return lambert_series(const, terms, sign, max_exp)

        monkeypatch.setattr(thermal, "lambert_series", counting)
        monkeypatch.setattr(thermal, "_SERIES", {})
        path = tmp_path / "taus.json"
        path.write_text(json.dumps({"tau_points": ["1.5i", "1i", "0.3+1.2i", "-0.4+2i"]}))
        code, out = run(["thermal", "modular", "--config", str(path)], capsys)
        assert code == 0
        assert len(out.strip().splitlines()) == 5
        assert builds == [400]  # G4 to q^200

    def test_modular_sums_each_point_once(self, capsys, monkeypatch):
        # the order search reads only tail bounds; the series is summed at
        # tau, -1/tau and tau + 1 by the check alone, even where the search
        # doubles the order (10+1i needs 800)
        calls = []
        eval_ = QSeries.eval

        def counting(series, tau):
            calls.append(tau)
            return eval_(series, tau)

        monkeypatch.setattr(QSeries, "eval", counting)
        for tau in ("1.5i", "10+1i"):
            calls.clear()
            code, _ = run(["thermal", "modular", "--tau", tau], capsys)
            t = parse_tau(tau)
            assert code == 0
            assert calls == [t, -1 / t, t + 1]

    def test_unknown_model(self, capsys):
        code, _ = run(["thermal", "energy", "--model", "maxwell"], capsys)
        assert code == 2


class TestBoundary:
    @pytest.mark.parametrize(
        "args",
        [
            ["thermal", "energy", "--order", "0"],
            # no translate window up to the ceiling meets the tolerance
            ["thermal", "kms", "--tau", "0.0001i"],
            ["decompose", "--max-twist", "0"],
            ["decompose", "--max-spin", "-1"],
            ["positivity", "--steps", "0"],
            # PWParams rejects a negative 2-point normalization
            ["decompose", "--B", "-1"],
            ["positivity", "--B", "-1", "--steps", "1"],
            # no truncation up to the ceiling meets the tolerance
            ["thermal", "modular", "--tau", "0.0001i"],
            # a flag for the swept --axis parameter (b by default)
            ["positivity", "--b=-1/3", "--steps", "1"],
            ["positivity", "--axis", "a1", "--a1", "2", "--steps", "1"],
            # the float q = exp(2 pi i tau) rounds to 1, so 1 - q^n = 0
            ["thermal", "kms", "--tau", "1e-300i"],
            # a G_2k coefficient past the float range: the tail bound is inf
            # (at order 12800 for G_80, at once for G_400)
            ["thermal", "modular", "--k", "40", "--tau", "0.01i"],
            ["thermal", "modular", "--k", "200", "--tau", "1i"],
        ],
        ids=" ".join,
    )
    def test_out_of_range_is_a_usage_error(self, args, capsys):
        code = main(args)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1

    @pytest.mark.parametrize("k, tau", [(200, 1j), (2, 1e-300j)])
    def test_an_infinite_tail_bound_stops_the_order_search(self, k, tau, monkeypatch):
        # a longer series cannot lower it, so no order past the first is built
        monkeypatch.setattr(thermal, "_SERIES", {})
        with pytest.raises(ValueError, match="not finite at order 200"):
            modular_order(k, tau, 1e-10)
        assert [s.max_exp for s in thermal._SERIES.values()] == [400]

    def test_negative_rational_parameter(self, capsys):
        code, out = run(
            ["positivity", "--axis", "a0", "--b", "-1/3", "--lo", "0", "--hi", "1", "--steps", "1"],
            capsys,
        )
        assert code == 0
        rows = list(csv.reader(out.strip().splitlines()))[1:]
        assert [(r[0], r[3]) for r in rows] == [("0/1", "-1/3"), ("1/1", "-1/3")]

    def test_negative_rational_bound(self, capsys):
        code, out = run(["positivity", "--lo", "-1/2", "--hi", "0", "--steps", "2"], capsys)
        assert code == 0
        rows = list(csv.reader(out.strip().splitlines()))[1:]
        assert [r[3] for r in rows] == ["-1/2", "-1/4", "0/1"]

    def test_modular_default_window_is_order_200(self, capsys):
        # inside the window the truncation stays at max(order, 200)
        code, out = run(["thermal", "modular", "--tau", "1.1i"], capsys)
        r = thermal.modular_check_G(2, 1.1j, 200)
        assert code == 0
        assert out.splitlines() == ["k,tau,residual,tolerance", f"2,1.1j,{r:.3e},1e-10"]

    def test_kms_window_grows_for_small_im_tau(self, capsys):
        # the edge term of window 8 at Im tau = 0.05 is far above 1e-10
        code, out = run(["thermal", "kms", "--tau", "0.05i"], capsys)
        assert code == 0
        rows = list(csv.reader(out.strip().splitlines()))[1:]
        assert float(rows[0][1]) < 1e-10

    def test_modular_window_grows_for_small_im_minus_inverse_tau(self, capsys):
        # -1/tau has Im 1/101: order 200 leaves a tail bound near 1e3
        code, out = run(["thermal", "modular", "--tau", "10+1i"], capsys)
        assert code == 0
        rows = list(csv.reader(out.strip().splitlines()))[1:]
        assert float(rows[0][2]) < 1e-10


class TestInputErrors:
    """An input the computation cannot take ends in one stderr line and exit
    code 2, never a traceback."""

    def expect_one_line(self, args, name, capsys):
        code = main(args)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and name in lines[0]

    def test_inconsistent_expansion(self, monkeypatch, capsys):
        from gcipw import partialwave
        from gcipw.exact import MPoly

        # t^-3 P4 = a0 is not in the family: its g_1/u = 1 leaves an odd
        # power.  The fake reaches only a fresh build of the unit towers,
        # and the towers built from it must not outlive the test.
        partialwave._unit_tower.cache_clear()
        monkeypatch.setattr(partialwave, "P4_numerator", lambda p: MPoly(2, {(0, 3): p.num[0]}))
        args = ["decompose", "--a0", "1", "--max-twist", "1", "--max-spin", "2"]
        try:
            self.expect_one_line(args, "InconsistentExpansion", capsys)
        finally:
            partialwave._unit_tower.cache_clear()


class TestOutputErrors:
    """An output path that cannot be written ends in one stderr line and
    exit code 2, never a traceback."""

    @pytest.mark.parametrize(
        "args",
        [
            ["oracle", "--seed", "7", "--json", "{file}/x.json"],
            ["decompose", "--max-twist", "1", "--max-spin", "0", "--csv-dir", "{file}"],
            ["verify-all", "--json", "{file}/x.json"],
        ],
    )
    def test_unwritable_path(self, args, tmp_path, capsys):
        blocker = tmp_path / "file"  # a regular file where a directory should be
        blocker.write_text("")
        code = main([a.format(file=blocker) for a in args])
        out, err = capsys.readouterr()
        assert code == 2
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("output error: ")
        # the path is tried before any check or table is computed
        assert out == ""


class TestFlags:
    @pytest.mark.parametrize(
        "args",
        [
            ["oracle", "--B", "5"],
            ["oracle", "--tau", "2i"],
            ["oracle", "--max-twist", "9"],
            ["verify-all", "--tau", "2i"],
            ["verify-all", "--csv-dir", "out"],
            ["decompose", "--seed", "3"],
            ["decompose", "--tau", "2i"],
            ["decompose", "--json", "out.json"],
            ["positivity", "--order", "5"],
            ["positivity", "--max-twist", "4"],
            ["positivity", "--max-spin", "5"],
            ["thermal", "energy", "--a0", "5"],
            ["thermal", "energy", "--seed", "3"],
            ["thermal", "energy", "--tau", "2i"],
            ["thermal", "energy", "--k", "3"],
            ["thermal", "modular", "--model", "weyl"],
            ["thermal", "modular", "--order", "5"],
            ["thermal", "kms", "--order", "5"],
            ["thermal", "kms", "--k", "3"],
        ],
        ids=" ".join,
    )
    def test_a_flag_the_command_does_not_read_is_a_usage_error(self, args, capsys):
        code = main(args)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err


class TestVerifyAll:
    @pytest.fixture
    def numeric_checks(self, monkeypatch):
        from gcipw import verify

        ids = ("c10_modular_numerics", "c11_gibbs", "c12_kernel")
        monkeypatch.setattr(verify, "CHECKS", {k: verify.CHECKS[k] for k in ids})

    def test_numeric_override_judges_residuals(self, numeric_checks, tmp_path, capsys):
        # every residual of c10-c12 is far below 1e-14; c11's KMS bound
        # (1e-13) is not a residual and must not be judged
        path = tmp_path / "tol.json"
        path.write_text(json.dumps({"tolerances": {"numeric": 1e-14}}))
        code, out = run(["verify-all", "--config", str(path)], capsys)
        assert code == 0, out
        assert out.count(": PASS") == 3
        path.write_text(json.dumps({"tolerances": {"numeric": 1e-20}}))
        code, out = run(["verify-all", "--config", str(path)], capsys)
        assert code == 1
        assert "c11_gibbs: FAIL" in out and "tolerance override" in out


class TestConfigAndOutput:
    def test_json_config(self, tmp_path, capsys):
        cfg = {
            "params": {"a0": "1", "c": "1/2"},
            "max_twist": 2,
            "max_spin": 2,
            "seed": 7,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        code, out = run(["decompose", "--config", str(path)], capsys)
        assert code == 0
        rows = {(r[0], r[1]): r[2] for r in list(csv.reader(out.strip().splitlines()))[1:]}
        assert rows[("1", "0")] == "2/1"
        assert rows[("2", "0")] == "1/2"

    def test_bad_config(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _ = run(["decompose", "--config", str(path)], capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "doc",
        [
            {"max_spins": 2},
            {"params": {"a3": "1"}},
            {"tolerances": {"modulus": 1e-3}},
            {"tau_points": ["1-1i"]},
            ["max_spin", 2],
            {"params": {"a0": "1/0"}},
            {"series_order": 1e400},
            {"max_spin": 2.7},
            {"max_spin": True},
            {"tolerances": {"kms": True}},
            {"tolerances": {"kms": "nan"}},
            {"tolerances": {"kms": float("nan")}},
            {"tolerances": {"modular": float("inf")}},
            {"tolerances": {"numeric": -1}},
            {"tolerances": {"modular": 0}},
        ],
        ids=json.dumps,
    )
    def test_unknown_or_malformed_key(self, doc, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code = main(["decompose", "--config", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("bad config:")
        assert len(captured.err.strip().splitlines()) == 1

    def test_shared_document(self, tmp_path, capsys):
        # each subcommand reads its keys of one document and ignores the rest
        path = tmp_path / "shared.json"
        doc = {"params": {"a0": "1"}, "max_twist": 1, "max_spin": 0, "tau_points": ["2i"]}
        path.write_text(json.dumps(doc))
        code, out = run(["decompose", "--config", str(path)], capsys)
        assert code == 0
        assert out.splitlines()[1].startswith("1,0,2/1,")
        code, out = run(["thermal", "modular", "--config", str(path)], capsys)
        assert code == 0
        assert out.splitlines()[1].startswith("2,2j,")

    def test_flag_overrides_config(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"params": {"a0": "1"}}))
        code, out = run(
            ["decompose", "--config", str(path), "--a0", "2", "--max-twist", "1", "--max-spin", "1"],
            capsys,
        )
        rows = {(r[0], r[1]): r[2] for r in list(csv.reader(out.strip().splitlines()))[1:]}
        assert rows[("1", "0")] == "4/1"

    def test_csv_determinism(self, tmp_path, capsys):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            code, _ = run(
                [
                    "decompose", "--a1", "1", "--max-twist", "2", "--max-spin", "3",
                    "--csv-dir", str(d),
                ],
                capsys,
            )
            assert code == 0
        f1 = (d1 / "structure_constants.csv").read_bytes()
        f2 = (d2 / "structure_constants.csv").read_bytes()
        assert f1 == f2
