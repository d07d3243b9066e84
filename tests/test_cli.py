import json
import math

import numpy as np
import pytest

from lcsampler.cli import main
from lcsampler.targets import resolve_target


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
        se = math.sqrt((1 - 0.668) / 0.668**2 / 10000)
        assert meta["mean_trials"] == pytest.approx(1.497122230243602, abs=3 * se)
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

    def test_same_seed_reproduces_byte_for_byte(self, tmp_path):
        texts = []
        for name in ("r1.txt", "r2.txt"):
            out = tmp_path / name
            run_cli(
                ["sample", "--kappa", "4", "--trials", "500", "--seed", "11", "--out", str(out)]
            )
            texts.append(out.read_text() + (tmp_path / (name + ".meta.json")).read_text())
        assert texts[0] == texts[1]


class TestEnvelopeInspect:
    def test_json_fields(self, tmp_path):
        out = tmp_path / "env.json"
        code = run_cli(
            ["envelope-inspect", "--target", "gaussian", "--kappa", "1", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["x_minus"] == -1.0 and doc["x_plus"] == 1.0
        assert doc["plateau_height"] == 1.0 and doc["tail_offset"] == 0.0
        assert doc["drifts"] == [0.5, 0.5]
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


class TestErrorPaths:
    def test_unknown_target_is_config_error(self):
        assert run_cli(["sample", "--target", "nonsense", "--kappa", "4"]) == 4

    def test_class_violation_exit_code(self, tmp_path):
        doc = {"type": "piecewise", "alpha": 1.0, "beta": 4.0, "breakpoints": [], "curvatures": [1e-9]}
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(doc))
        assert run_cli(["envelope-inspect", "--target", str(path), "--kappa", "4"]) == 3

    def test_negative_trials_rejected(self):
        assert run_cli(["sample", "--kappa", "4", "--trials", "-1"]) == 4

    def test_multiple_kappas_rejected_for_single_kappa_commands(self):
        assert run_cli(["sample", "--kappa", "4", "--kappa", "9"]) == 4

    @pytest.mark.parametrize("dimension", ["0", "-1"])
    def test_nonpositive_dimension_is_config_error(self, dimension):
        assert run_cli(["hitandrun", "--dimension", dimension, "--trials", "1"]) == 4

    def test_curvature_below_alpha_is_class_violation(self):
        doc = {"type": "piecewise", "beta": 4, "breakpoints": [1.5], "curvatures": [1.0, 0.2]}
        assert run_cli(["sample", "--target", json.dumps(doc), "--kappa", "4", "--trials", "10"]) == 3

    def test_curvature_above_beta_is_class_violation(self):
        doc = {"type": "piecewise", "beta": 4, "breakpoints": [0.5], "curvatures": [1.0, 50.0]}
        assert run_cli(["sample", "--target", json.dumps(doc), "--trials", "10"]) == 3

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
        ],
    )
    def test_mistyped_document_field_is_config_error(self, command, doc):
        assert run_cli([command, "--target", json.dumps(doc), "--trials", "1"]) == 4


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
