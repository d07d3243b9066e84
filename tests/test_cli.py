import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lcsampler
from helpers import adaptive_quadrature
from lcsampler import UsageError, prepare_envelope, run_chain
from lcsampler.cli import build_parser, main
from lcsampler.targets import resolve_multivariate_target, resolve_target


def run_cli(args):
    return main(args)


class TestBenchQueries:
    def test_csv_header_and_gaussian_sweep(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = run_cli(
            [
                "bench-queries",
                "--target",
                "gaussian",
                "--kappa",
                "1e3",
                "--kappa",
                "1e6",
                "--kappa",
                "1e9",
                "--kappa",
                "1e12",
                "--trials",
                "200",
                "--seed",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "kappa,envelope_queries,mean_trials,acceptance_rate,throughput"
        queries = [int(line.split(",")[1]) for line in lines[1:]]
        assert queries == sorted(queries)  # nondecreasing in kappa
        assert queries[-1] - queries[0] <= 3
        budgets = {1e3: 9, 1e6: 11, 1e9: 11, 1e12: 13}
        for line in lines[1:]:
            kappa, q = float(line.split(",")[0]), int(line.split(",")[1])
            assert q <= budgets[kappa]

    def test_kappa_one_needs_few_queries(self, tmp_path):
        out = tmp_path / "bench1.csv"
        assert run_cli(["bench-queries", "--kappa", "1", "--trials", "50", "--out", str(out)]) == 0
        row = out.read_text().strip().splitlines()[1]
        assert int(row.split(",")[1]) <= 5

    def test_zero_trials_is_config_error(self, tmp_path):
        # a mean trial count over zero draws is undefined
        out = tmp_path / "bench0.csv"
        assert run_cli(["bench-queries", "--kappa", "1e3", "--trials", "0", "--out", str(out)]) == 4
        assert not out.exists()

    def test_deterministic_apart_from_throughput(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            assert (
                run_cli(
                    [
                        "bench-queries",
                        "--target",
                        "skewed",
                        "--kappa",
                        "1e3",
                        "--kappa",
                        "1e6",
                        "--trials",
                        "300",
                        "--seed",
                        "7",
                        "--out",
                        str(p),
                    ]
                )
                == 0
            )

        def stable_columns(path):
            return [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]

        assert stable_columns(paths[0]) == stable_columns(paths[1])


class TestSampleCommand:
    def test_exact_mode_writes_samples_and_sidecar(self, tmp_path):
        out = tmp_path / "samples.txt"
        code = run_cli(
            [
                "sample",
                "--target",
                "gaussian",
                "--kappa",
                "1",
                "--trials",
                "10000",
                "--seed",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        values = [float(line) for line in out.read_text().splitlines()]
        assert len(values) == 10000
        meta = json.loads((tmp_path / "samples.txt.meta.json").read_text())
        # acceptance sqrt(2 pi) / Z_q with the closed-form kappa = 1 mass
        # Z_q = 2 + 2 e^(-1/2) sqrt(pi/2) e^(1/8) erfc(1/(2 sqrt 2))
        assert meta["acceptance_rate"] == pytest.approx(0.8183348608090128, rel=1e-12)
        se = math.sqrt((1 - 0.818) / 0.818**2 / 10000)
        assert meta["mean_trials"] == pytest.approx(1.2219936457447156, abs=3 * se)
        assert meta["failures"] == 0
        # one query per trial, plus the envelope construction
        total_trials = round(meta["mean_trials"] * 10000)
        assert meta["total_queries"] == meta["envelope_queries"] + total_trials

    def test_capped_mode_failure_rate(self, tmp_path):
        out = tmp_path / "capped.txt"
        code = run_cli(
            [
                "sample",
                "--target",
                "hard:1",
                "--kappa",
                "1e3",
                "--epsilon",
                "0.01",
                "--trials",
                "5000",
                "--seed",
                "5",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        failures = sum(1 for line in lines if line == "FAILURE")
        assert failures / 5000 <= 0.01 + 3 * math.sqrt(0.01 * 0.99 / 5000)

    def test_zero_trials_gives_empty_file_and_valid_sidecar(self, tmp_path):
        out = tmp_path / "empty.txt"
        assert run_cli(["sample", "--kappa", "1", "--trials", "0", "--out", str(out)]) == 0
        assert out.read_text() == ""
        meta = json.loads((tmp_path / "empty.txt.meta.json").read_text())
        assert meta["samples"] == 0 and meta["mean_trials"] is None

    def test_acceptance_rate_is_right_at_kappa_1e160(self, tmp_path):
        # the target's mass once read inf - inf there and wrote NaN, which is not JSON
        out = tmp_path / "huge.txt"
        assert run_cli(["sample", "--target", "hard:1", "--kappa", "1e160", "--trials", "3",
                        "--out", str(out)]) == 0
        text = (tmp_path / "huge.txt.meta.json").read_text()
        meta = json.loads(text, parse_constant=lambda name: pytest.fail(f"sidecar holds {name}"))
        potential, oracle = resolve_target("hard:1", 1e160)
        _, env = prepare_envelope(oracle)
        bps = potential.breakpoints
        span = float(bps[-1]) + 12.0
        mass = adaptive_quadrature(lambda x: math.exp(-potential.evaluate(x)[0]), -span, span,
                                   tol=1e-12, breakpoints=bps).value
        assert meta["acceptance_rate"] == pytest.approx(mass / env.mass_total, rel=1e-12)

    def test_same_seed_reproduces_byte_for_byte(self, tmp_path):
        texts = []
        for name in ("r1.txt", "r2.txt"):
            out = tmp_path / name
            run_cli(
                ["sample", "--kappa", "4", "--trials", "500", "--seed", "11", "--out", str(out)]
            )
            texts.append(out.read_text() + (tmp_path / (name + ".meta.json")).read_text())
        assert texts[0] == texts[1]

    @pytest.mark.parametrize("target", ["gaussian", "skewed", "hard:2"])
    def test_envelope_queries_are_the_construction_queries(self, tmp_path, target):
        # read once the envelope is built, not derived from the trial count
        out = tmp_path / "samples.txt"
        assert run_cli(["sample", "--target", target, "--kappa", "1e6", "--trials", "200",
                        "--seed", "6", "--out", str(out)]) == 0
        meta = json.loads((tmp_path / "samples.txt.meta.json").read_text())
        assert run_cli(["envelope-inspect", "--target", target, "--kappa", "1e6",
                        "--out", str(tmp_path / "env.json")]) == 0
        doc = json.loads((tmp_path / "env.json").read_text())
        assert meta["envelope_queries"] == doc["construction_queries"]


class TestEnvelopeInspect:
    def test_json_fields(self, tmp_path):
        out = tmp_path / "env.json"
        code = run_cli(
            ["envelope-inspect", "--target", "gaussian", "--kappa", "1", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["x_minus"] == -1.0 and doc["x_plus"] == 1.0
        assert doc["plateau_height"] == 1.0
        assert doc["rows"] == [[[-1.0, 0.5, 0.5]], [[1.0, 0.5, 0.5]]]
        assert doc["acceptance_rate"] == pytest.approx(0.8183348608090128, rel=1e-12)
        assert len(doc["masses"]) == 3
        assert doc["construction_queries"] <= 5


class TestHardFamilyVerify:
    def test_report_fields_and_exit(self, tmp_path):
        out = tmp_path / "verify.json"
        code = run_cli(
            ["hardfamily-verify", "--kappa", "1e3", "--trials", "4000", "--seed", "2", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["m"] == 6
        assert doc["lemma1_max_dev"] <= 1e-9
        assert doc["lemma2_min_mass"] >= 1.0 / 32.0
        assert doc["degeneracy_max"] <= 5
        assert doc["identification_rate"] >= 1.0 / 32.0 - 3 * math.sqrt(0.25 / 4000)

    def test_small_kappa_is_config_error(self, tmp_path):
        assert run_cli(["hardfamily-verify", "--kappa", "1.5"]) == 4

    @pytest.mark.parametrize("kappa", ["1e11", "1e12"])
    def test_large_kappa_agrees_exactly_outside_the_bands(self, tmp_path, kappa):
        # the lemma-1 grid samples the open exterior of each disagreement band
        out = tmp_path / "verify.json"
        args = ["hardfamily-verify", "--kappa", kappa, "--trials", "2000", "--seed", "4", "--out", str(out)]
        assert run_cli(args) == 0
        assert json.loads(out.read_text())["lemma1_max_dev"] == 0.0

    def test_zero_trials_is_config_error(self, tmp_path):
        # an identification rate over zero trials is undefined
        out = tmp_path / "verify.json"
        assert run_cli(["hardfamily-verify", "--kappa", "1e3", "--trials", "0", "--out", str(out)]) == 4
        assert not out.exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["sample", "--target", "hard:1", "--kappa", "8e307", "--trials", "1"],
            ["hardfamily-verify", "--kappa", "1e308"],
        ],
        ids=["sample-8e307", "verify-1e308"],
    )
    def test_kappa_beyond_the_family_range_is_config_error(self, tmp_path, capsys, args):
        # from about 3.24e307 on the family's m would pass 511 and 4^m the
        # float range, so the command names kappa and exits 4, not a traceback
        out = tmp_path / "out"
        assert run_cli([*args, "--out", str(out)]) == 4
        assert f"kappa = {float(args[args.index('--kappa') + 1]):g}" in capsys.readouterr().err
        assert not out.exists()


class TestHitAndRunCommand:
    def test_csv_rows(self, tmp_path):
        out = tmp_path / "chain.csv"
        code = run_cli(
            [
                "hitandrun",
                "--kappa",
                "100",
                "--dimension",
                "3",
                "--trials",
                "50",
                "--seed",
                "9",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "step,queries,x_norm"
        assert len(lines) == 51
        first = lines[1].split(",")
        assert int(first[0]) == 1 and int(first[1]) > 0 and float(first[2]) >= 0.0

    def test_zero_trials_runs_no_steps(self, tmp_path, capsys):
        out = tmp_path / "chain.csv"
        args = ["hitandrun", "--kappa", "4", "--dimension", "2", "--trials", "0", "--out", str(out)]
        assert run_cli(args) == 0
        assert out.read_text() == "step,queries,x_norm\n"
        summary = json.loads(capsys.readouterr().err)
        assert summary["steps"] == 0
        assert summary["first_step_queries"] == 0
        assert summary["mean_queries_per_step"] == 0.0
        assert summary["total_queries"] == 0
        assert summary["step_paths"] == {"search_first": 0, "tangent_accepted": 0, "tangent_fell_back": 0}

    def test_summary_reports_the_first_step_apart(self, tmp_path, capsys):
        # only the first step queries its start point; every later step
        # starts from its predecessor's accepted trial.  The first step is
        # the one a one-step chain at the same seed takes
        out = tmp_path / "chain.json"
        args = ["hitandrun", "--kappa", "1e6", "--dimension", "10", "--seed", "9",
                "--format", "json", "--out", str(out)]
        assert run_cli([*args, "--trials", "200"]) == 0
        rows = json.loads(out.read_text())
        summary = json.loads(capsys.readouterr().err)
        assert summary["first_step_queries"] == rows[0]["queries"]
        assert summary["total_queries"] == sum(row["queries"] for row in rows)
        later = [row["queries"] for row in rows[1:]]
        assert summary["first_step_queries"] > sum(later) / len(later)
        assert run_cli([*args, "--trials", "1"]) == 0
        one_step = json.loads(capsys.readouterr().err)
        assert one_step["total_queries"] == summary["first_step_queries"]
        assert one_step["step_paths"] == {"search_first": 1, "tangent_accepted": 0, "tangent_fell_back": 0}

    def test_summary_counts_each_path(self, tmp_path, capsys):
        # the chain's first step searches first and later ones try the
        # tangent first.  On a line of curvature 1 the tangent Gaussian is the
        # line's own law, so on the isotropic target every later step that
        # tries it is accepted; the lines of the quadratic [1, 30] reject it
        # often, so there some steps fall back.  The totals match a chain run alone
        out = tmp_path / "chain.csv"
        assert run_cli(["hitandrun", "--kappa", "1e6", "--dimension", "10", "--seed", "9",
                        "--trials", "400", "--out", str(out)]) == 0
        paths = json.loads(capsys.readouterr().err)["step_paths"]
        oracle = resolve_multivariate_target("gaussian", 1e6, 10)
        chain = run_chain(oracle, np.zeros(10), 400, np.random.default_rng(9))
        assert paths == chain.path_totals
        assert sum(paths.values()) == 400 and paths["search_first"] >= 1
        assert paths["tangent_accepted"] > 0.95 * 399
        doc = json.dumps({"type": "diagonal", "curvatures": [1, 30], "beta": 1000})
        assert run_cli(["hitandrun", "--target", doc, "--seed", "9", "--trials", "400", "--out", str(out)]) == 0
        paths = json.loads(capsys.readouterr().err)["step_paths"]
        chain = run_chain(resolve_multivariate_target(doc, None), np.zeros(2), 400, np.random.default_rng(9))
        assert paths == chain.path_totals
        assert sum(paths.values()) == 400 and paths["search_first"] >= 1 and paths["tangent_fell_back"] >= 1

    DIAGONAL = {"type": "diagonal", "curvatures": [1, 4]}

    @pytest.mark.parametrize(
        "doc, flags, code, dimension, kappa",
        [
            pytest.param(DIAGONAL, [], 0, 2, 4.0, id="diagonal-largest-curvature"),
            pytest.param(DIAGONAL, ["--kappa", "100"], 0, 2, 100.0, id="diagonal-kappa-flag"),
            pytest.param({**DIAGONAL, "beta": 100}, [], 0, 2, 100.0, id="diagonal-beta"),
            pytest.param({**DIAGONAL, "beta": 100}, ["--kappa", "8"], 0, 2, 8.0, id="diagonal-kappa-over-beta"),
            pytest.param(DIAGONAL, ["--kappa", "2"], 3, None, None, id="diagonal-kappa-below-curvature"),
            pytest.param({**DIAGONAL, "beta": 0.5}, [], 4, None, None, id="diagonal-beta-below-one"),
            pytest.param(DIAGONAL, ["--kappa", "nan"], 4, None, None, id="diagonal-kappa-nan"),
            pytest.param(DIAGONAL, ["--dimension", "7"], 4, None, None, id="diagonal-dimension-7"),
            pytest.param(DIAGONAL, ["--dimension", "2"], 4, None, None, id="diagonal-dimension-2"),
            pytest.param("gaussian", [], 0, 10, 1.0, id="builtin-default"),
            pytest.param("gaussian", ["--dimension", "7", "--kappa", "9"], 0, 7, 9.0, id="builtin-flags"),
            pytest.param({"type": "gaussian"}, [], 0, 10, 1.0, id="gaussian-default"),
            pytest.param({"type": "gaussian", "dimension": 3}, [], 0, 3, 1.0, id="gaussian-dimension"),
            pytest.param({"type": "gaussian", "dimension": 3.0}, [], 0, 3, 1.0, id="gaussian-dimension-float"),
            pytest.param(
                {"type": "gaussian", "dimension": 3, "beta": 5}, ["--dimension", "7"], 0, 7, 5.0,
                id="gaussian-dimension-flag",
            ),
        ],
    )
    def test_kappa_and_dimension_of_the_target(self, capsys, doc, flags, code, dimension, kappa):
        target = doc if isinstance(doc, str) else json.dumps(doc)
        assert run_cli(["hitandrun", "--target", target, *flags, "--trials", "5"]) == code
        if code == 0:
            summary = json.loads(capsys.readouterr().err)
            assert (summary["dimension"], summary["kappa"]) == (dimension, kappa)


class TestErrorPaths:
    def test_unknown_target_is_config_error(self):
        assert run_cli(["sample", "--target", "nonsense", "--kappa", "4"]) == 4

    def test_class_violation_exit_code(self, tmp_path):
        doc = {"type": "piecewise", "alpha": 1.0, "beta": 4.0, "breakpoints": [], "curvatures": [1e-9]}
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(doc))
        assert run_cli(["envelope-inspect", "--target", str(path), "--kappa", "4"]) == 3

    @pytest.mark.parametrize("flags", [["--epsilon", "2"], ["--epsilon", "0.1", "--rho-floor", "1.5"]])
    def test_cap_parameters_are_checked_before_the_first_draw(self, flags):
        assert run_cli(["sample", *flags, "--trials", "0"]) == 4

    @pytest.mark.parametrize("flags", [["--epsilon", "1e-320"], ["--epsilon", "0.01", "--rho-floor", "1e-17"]])
    def test_extreme_cap_parameters_run(self, flags, tmp_path):
        # 1/epsilon overflows and 1 - rho rounds to 1; both lie in (0, 1)
        assert run_cli(["sample", *flags, "--trials", "1", "--out", str(tmp_path / "draws.txt")]) == 0

    def test_rho_floor_is_checked_without_epsilon(self, tmp_path, capsys):
        assert run_cli(["sample", "--rho-floor", "7", "--trials", "3"]) == 4
        assert "--rho-floor" in capsys.readouterr().err
        out = tmp_path / "draws.txt"
        assert run_cli(["sample", "--rho-floor", "0.5", "--trials", "3", "--out", str(out)]) == 0
        meta = json.loads((tmp_path / "draws.txt.meta.json").read_text())
        assert (meta["epsilon"], meta["rho_floor"]) == (None, 0.5)

    @pytest.mark.parametrize("kappa, code", [("1e31", 0), ("3e31", 4), ("1e40", 4)])
    def test_skewed_bands_below_float_resolution_are_config_error(self, kappa, code, capsys):
        assert run_cli(["envelope-inspect", "--target", "skewed", "--kappa", kappa]) == code
        if code:
            message = f"skewed target cannot resolve its 1/sqrt(kappa) bands at kappa {float(kappa):g}"
            assert message in capsys.readouterr().err

    def test_negative_trials_rejected(self):
        assert run_cli(["sample", "--kappa", "4", "--trials", "-1"]) == 4

    def test_multiple_kappas_rejected_for_single_kappa_commands(self):
        assert run_cli(["sample", "--kappa", "4", "--kappa", "9"]) == 4

    @pytest.mark.parametrize("dimension", ["0", "-1"])
    def test_nonpositive_dimension_is_config_error(self, dimension):
        assert run_cli(["hitandrun", "--dimension", dimension, "--trials", "1"]) == 4

    @pytest.mark.parametrize(
        "target", ["gaussian", json.dumps({"type": "gaussian", "dimension": 2**62})]
    )
    def test_oversized_dimension_is_config_error(self, target, capsys):
        # NumPy refuses 2^62 doubles before allocating anything
        args = ["hitandrun", "--target", target, "--dimension", str(2**62), "--trials", "1"]
        assert run_cli(args) == 4
        assert f"dimension {2**62} is too large" in capsys.readouterr().err

    def test_chain_too_long_to_record_is_config_error(self, tmp_path, capsys):
        # NumPy refuses the (2^62 + 1) x 2 positions before any step runs
        out = tmp_path / "chain.csv"
        args = ["hitandrun", "--dimension", "2", "--trials", str(2**62), "--out", str(out)]
        assert run_cli(args) == 4
        assert f"a chain of {2**62} steps is too long to record" in capsys.readouterr().err
        assert not out.exists()

    def test_curvature_below_alpha_is_class_violation(self):
        doc = {"type": "piecewise", "beta": 4, "breakpoints": [1.5], "curvatures": [1.0, 0.2]}
        assert run_cli(["sample", "--target", json.dumps(doc), "--kappa", "4", "--trials", "10"]) == 3

    def test_curvature_above_beta_is_class_violation(self):
        doc = {"type": "piecewise", "beta": 4, "breakpoints": [0.5], "curvatures": [1.0, 50.0]}
        assert run_cli(["sample", "--target", json.dumps(doc), "--trials", "10"]) == 3

    def test_in_class_diagonal_at_kappa_1e12_runs(self, tmp_path):
        # the certificate search's secant point rounds onto an end of a
        # bracket far wider than 1/kappa on one of these lines; the search
        # bisects there rather than report a class violation
        doc = {"type": "diagonal", "curvatures": [1, 1e6, 1e12]}
        out = tmp_path / "chain.csv"
        args = ["hitandrun", "--target", json.dumps(doc), "--trials", "30", "--seed", "1", "--out", str(out)]
        assert run_cli(args) == 0
        assert len(out.read_text().splitlines()) == 31

    def test_in_class_diagonal_past_double_precision_runs(self, tmp_path):
        # The stiff coordinate stays within about 1/sqrt(c) of 0, so a line's
        # minimizer lies about 1e-16 from the chain's point, where one ulp is
        # 1e-32 to 1e-31 and moves W' by c times that.  Where that ulp moves
        # W' by more than 2B = 4 the certificate search can close on two
        # adjacent doubles with both slopes above B and a rise the class
        # allows; it then takes the flatter end as the certificate.  At seed
        # 1 over 300 steps each of these once stalled there with exit 4
        # (7e31 on W' from -2.75 to 2.75 across 1e-31 at lam = -4.77e-16)
        out = tmp_path / "chain.csv"
        for curvature in (7e31, 1.1e32, 1.3e32, 1.4e32, 2e32):
            doc = {"type": "diagonal", "curvatures": [1, curvature]}
            args = ["hitandrun", "--target", json.dumps(doc), "--trials", "300", "--seed", "1"]
            assert run_cli([*args, "--out", str(out)]) == 0
            assert len(out.read_text().splitlines()) == 301

    def test_in_class_diagonal_far_past_double_precision_is_config_error(self, capsys):
        # at 1e40 an ulp near the minimizer moves W' by about 1e4: the search
        # closes on adjacent doubles whose flatter end is far steeper than
        # 2B, so the line needs more than double precision, not a plateau
        # e^(g^2/2) that overflows or never accepts
        doc = {"type": "diagonal", "curvatures": [1, 1e40]}
        args = ["hitandrun", "--target", json.dumps(doc), "--trials", "50", "--seed", "1"]
        assert run_cli(args) == 4
        assert "kappa = 1e+40 needs more than double precision" in capsys.readouterr().err

    @pytest.mark.parametrize("curvature, code", [(1e30, 0), (1e300, 4)])
    def test_in_class_diagonal_whose_far_probe_overflows_is_config_error(self, curvature, code, capsys):
        # at curvature 1e300 the second step's slope at its start is about
        # 1.5e149, so its bracket's far probe lies where kappa * W'^2 and
        # the target's x' D x overflow a float: the search stops before that
        # query, with no overflow warning; at 1e30 the chain runs
        doc = {"type": "diagonal", "curvatures": [1, curvature]}
        args = ["hitandrun", "--target", json.dumps(doc), "--trials", "30", "--seed", "1"]
        assert run_cli(args) == code
        err = capsys.readouterr().err
        assert "Warning" not in err
        if code:
            assert "kappa = 1e+300 needs more than double precision" in err

    @pytest.mark.parametrize("curvatures", [[0.5, 2.0], [1.0, -1.0]])
    def test_diagonal_curvature_below_one_is_class_violation(self, curvatures):
        doc = {"type": "diagonal", "curvatures": curvatures}
        assert run_cli(["hitandrun", "--target", json.dumps(doc), "--trials", "1"]) == 3

    @pytest.mark.parametrize(
        "command, doc",
        [
            ("envelope-inspect", {"type": "piecewise", "curvatures": 5}),
            ("envelope-inspect", {"type": "gaussian", "beta": "x"}),
            ("hitandrun", {"type": "diagonal", "curvatures": "ab"}),
            ("hitandrun", {"type": "gaussian", "dimension": "x"}),
            # a breakpoint is a number, not a list
            ("envelope-inspect", {"type": "piecewise", "breakpoints": [[1, 2]], "curvatures": [1, 1]}),
            # a string is not read character by character as a list
            ("envelope-inspect", {"type": "piecewise", "breakpoints": "12", "curvatures": [1, 1, 1]}),
            ("envelope-inspect", {"type": "piecewise", "curvatures": "1"}),
            ("hitandrun", {"type": "diagonal", "curvatures": "123"}),
            ("hitandrun", {"type": "diagonal", "curvatures": 5}),
            # a dimension is an integer, not a float, a string or a bool
            ("hitandrun", {"type": "gaussian", "dimension": 2.5}),
            ("hitandrun", {"type": "gaussian", "dimension": "3"}),
            ("hitandrun", {"type": "gaussian", "dimension": True}),
            # a bool is not a number
            ("envelope-inspect", {"type": "gaussian", "beta": True}),
            ("envelope-inspect", {"type": "gaussian", "alpha": True}),
            ("envelope-inspect", {"type": "gaussian", "offset": False}),
            ("envelope-inspect", {"type": "piecewise", "breakpoints": [True], "curvatures": [1, 1]}),
            ("hitandrun", {"type": "diagonal", "curvatures": [1, True]}),
        ],
    )
    def test_mistyped_document_field_is_config_error(self, command, doc, capsys):
        trials = ["--trials", "1"] if command == "hitandrun" else []
        assert run_cli([command, "--target", json.dumps(doc), *trials]) == 4
        field = next(name for name, value in doc.items() if name != "type")
        assert repr(field) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flags",
        [
            *(
                (command, ["--kappa", value])
                for command in ("envelope-inspect", "sample", "bench-queries", "hardfamily-verify", "hitandrun")
                for value in ("nan", "inf")
            ),
            ("sample", ["--target", "skewed", "--kappa", "nan"]),
            ("sample", ["--target", "hard:1", "--kappa", "inf"]),
            ("envelope-inspect", ["--target", json.dumps({"type": "gaussian", "beta": math.inf})]),
            ("envelope-inspect", ["--target", json.dumps({"type": "gaussian", "beta": 4, "offset": math.nan})]),
            ("hitandrun", ["--target", json.dumps({"type": "diagonal", "curvatures": [1.0, math.inf]})]),
            # with kappa given, a non-finite curvature is refused before the class check
            *(
                ("hitandrun", ["--target", json.dumps({"type": "diagonal", "curvatures": [c, 2.0], **beta}), *kappa])
                for c in (math.nan, math.inf)
                for beta, kappa in (({}, ["--kappa", "3"]), ({"beta": 3}, []))
            ),
        ],
    )
    def test_non_finite_kappa_or_offset_is_config_error(self, command, flags):
        trials = [] if command == "envelope-inspect" else ["--trials", "1"]
        assert run_cli([command, *flags, *trials]) == 4

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"breakpoints": [math.inf], "curvatures": [1, 1]}, "every breakpoint must be finite"),
            ({"breakpoints": [math.nan], "curvatures": [1, 1]}, "every breakpoint must be finite"),
            ({"breakpoints": [1.0], "curvatures": [1, math.inf]}, "every curvature must be finite"),
            ({"breakpoints": [1.0], "curvatures": [1, math.nan]}, "every curvature must be finite"),
            ({"breakpoints": [-1e308, 1e308], "curvatures": [1, 1, 1]}, "segment 0: "),
            ({"breakpoints": [10**400], "curvatures": [1, 1]}, "int too large to convert to float"),
            # both walks overflow; the lowest segment is named
            (
                {"breakpoints": [-1e308, -1e307, 1e308], "curvatures": [1, 1, 1, 1]},
                "segment 0: the potential at its anchor x = -1e+308 overflows",
            ),
            # an even document overflows only at its outer anchors; the lowest is named
            (
                {"breakpoints": [-1e308, -1.0, 1.0, 1e308], "curvatures": [1, 1, 1, 1, 1]},
                "segment 0: the potential at its anchor x = -1e+308 overflows",
            ),
        ],
    )
    def test_non_finite_or_overflowing_piecewise_document_is_config_error(self, doc, message, capsys):
        # json.dumps writes inf and nan as Infinity and NaN, which json.loads reads back
        target = json.dumps({"type": "piecewise", **doc})
        assert run_cli(["envelope-inspect", "--kappa", "10", "--target", target]) == 4
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, doc",
        [
            ("hitandrun", {"type": "gaussian", "alpha": 3, "beta": 6}),
            ("hitandrun", {"type": "gaussian", "alpha": 2, "beta": 8}),
            ("hitandrun", {"type": "diagonal", "alpha": 2, "curvatures": [2.0, 4.0]}),
            ("sample", {"type": "gaussian", "alpha": 2, "beta": 8}),
            ("sample", {"type": "piecewise", "alpha": 0.5, "beta": 4, "curvatures": [1.0]}),
        ],
    )
    def test_alpha_other_than_one_is_config_error(self, command, doc):
        assert run_cli([command, "--target", json.dumps(doc), "--trials", "1"]) == 4

    def test_alpha_other_than_one_is_rejected_at_load(self):
        with pytest.raises(UsageError, match="alpha must be 1"):
            resolve_target(json.dumps({"type": "gaussian", "alpha": 2, "beta": 8}), None)

    def test_kappa_below_one_for_a_document_is_config_error(self):
        target = json.dumps({"type": "gaussian"})
        assert run_cli(["envelope-inspect", "--kappa", "0.5", "--target", target]) == 4

    @pytest.mark.parametrize(
        "doc",
        [
            # the rounded target escaped the envelope: exit 3 for an in-class target
            {"type": "gaussian", "beta": 1e6, "offset": 1e15},
            # W rounded to steps of 2^-6: exit 0 with draws off by up to 0.8% pointwise
            {
                "type": "piecewise",
                "beta": 1e6,
                "breakpoints": [-0.752, -0.751, -0.75, 1.0, 1.001, 1.002, 1.003],
                "curvatures": [1e6, 1, 1e6, 1, 1e6, 1, 1e6, 1],
                "offset": 1e14,
            },
        ],
    )
    def test_offset_of_two_to_the_24_or_more_is_config_error(self, doc, tmp_path, capsys):
        args = ["sample", "--trials", "20000", "--seed", "3", "--target", json.dumps(doc)]
        assert run_cli([*args, "--out", str(tmp_path / "draws.txt")]) == 4
        assert f"got {doc['offset']:g}" in capsys.readouterr().err


class TestParser:
    FLAGS = {
        "sample": "--target --kappa --epsilon --rho-floor --trials --seed --out",
        "envelope-inspect": "--target --kappa --out",
        "bench-queries": "--target --kappa --trials --seed --format --out",
        "hardfamily-verify": "--kappa --trials --seed --out",
        "hitandrun": "--target --kappa --dimension --trials --seed --format --out",
    }
    # a command line each subcommand runs with exit 0
    VALID = {
        "sample": ["--trials", "1"],
        "envelope-inspect": [],
        "bench-queries": ["--kappa", "4", "--trials", "1"],
        "hardfamily-verify": ["--kappa", "16", "--trials", "100"],
        "hitandrun": ["--dimension", "2", "--trials", "1"],
    }

    def test_each_subcommand_takes_only_the_flags_it_reads(self):
        (commands,) = (a.choices for a in build_parser()._actions if a.dest == "command")
        taken = {
            name: " ".join(o for a in p._actions for o in a.option_strings if o not in ("-h", "--help"))
            for name, p in commands.items()
        }
        assert taken == self.FLAGS
        assert sum(len(flags.split()) for flags in taken.values()) == 27

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("sample", "--format", "json"),
            ("envelope-inspect", "--epsilon", "0.1"),
            ("envelope-inspect", "--trials", "5"),
            ("envelope-inspect", "--seed", "1"),
            ("envelope-inspect", "--format", "json"),
            ("bench-queries", "--epsilon", "0.1"),
            ("hardfamily-verify", "--target", "gaussian"),
            ("hardfamily-verify", "--epsilon", "0.1"),
            ("hardfamily-verify", "--format", "json"),
            ("hitandrun", "--epsilon", "0.1"),
        ],
    )
    def test_removed_flag_is_config_error(self, tmp_path, command, flag, value):
        # the same command line without the removed flag runs
        assert run_cli([command, *self.VALID[command], "--out", str(tmp_path / "ok")]) == 0
        out = tmp_path / "rejected"
        assert run_cli([command, *self.VALID[command], flag, value, "--out", str(out)]) == 4
        assert not out.exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["sample", "--trials", "abc"],
            ["bench-queries", "--format", "xml"],
            ["envelope-inspect", "--bogus", "1"],
            [],
        ],
        ids=["bad_int", "bad_choice", "unknown_flag", "no_subcommand"],
    )
    def test_rejected_command_line_is_config_error(self, args):
        assert run_cli(args) == 4

    @pytest.mark.parametrize("command", ["sample", "bench-queries", "hardfamily-verify", "hitandrun"])
    def test_negative_seed_is_config_error(self, tmp_path, command, capsys):
        # NumPy's seeding takes nonnegative integers only
        out = tmp_path / "rejected"
        assert run_cli([command, *self.VALID[command], "--seed", "-1", "--out", str(out)]) == 4
        assert "argument --seed: invalid nonnegative_int value: '-1'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args", [["--help"], ["hitandrun", "--help"]])
    def test_help_exits_zero(self, args, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli(args)
        assert info.value.code == 0
        assert "usage: lcsampler" in capsys.readouterr().out

    def test_process_exit_code(self):
        env = {**os.environ, "PYTHONPATH": str(Path(lcsampler.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "lcsampler.cli", "sample", "--trials", "abc"],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 4
        assert "invalid int value: 'abc'" in proc.stderr


class TestKappaFromTarget:
    def inspect(self, tmp_path, *args):
        out = tmp_path / "env.json"
        assert run_cli(["envelope-inspect", *args, "--out", str(out)]) == 0
        return json.loads(out.read_text())

    def test_json_beta_reaches_the_envelope(self, tmp_path):
        doc = json.dumps({"type": "gaussian", "beta": 1e6})
        from_json = self.inspect(tmp_path, "--target", doc)
        builtin = self.inspect(tmp_path, "--target", "gaussian", "--kappa", "1e6")
        assert from_json == builtin
        assert from_json["x_plus"] == 1.024
        assert from_json["construction_queries"] == 5

    def test_kappa_flag_replaces_json_beta(self, tmp_path):
        doc = json.dumps({"type": "gaussian", "beta": 4.0})
        overridden = self.inspect(tmp_path, "--target", doc, "--kappa", "1e6")
        assert overridden == self.inspect(tmp_path, "--target", "gaussian", "--kappa", "1e6")
        for flags, kappa in ((["--kappa", "1e6"], 1e6), ([], 4.0)):
            out = tmp_path / "samples.txt"
            assert run_cli(["sample", "--target", doc, *flags, "--trials", "5", "--out", str(out)]) == 0
            meta = json.loads((tmp_path / "samples.txt.meta.json").read_text())
            _, oracle = resolve_target(doc, kappa if flags else None)
            assert meta["kappa"] == oracle.kappa == kappa
