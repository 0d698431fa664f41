import json
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

from invopt import objectives, simengine
from invopt.catalog import load_catalog
from invopt.cli import _build_parser, emit_histogram, main
from invopt.errors import DomainError
from invopt.simengine import (
    ContinuousReview,
    PeriodicReview,
    SimConfig,
    demand_model,
    simulate_once,
)

from conftest import count_engine_calls

REFERENCES = json.loads(
    (Path(__file__).parents[1] / "perfbench" / "references.json").read_text(encoding="utf-8")
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def pq_params_file(tmp_path):
    path = tmp_path / "pq.json"
    path.write_text(json.dumps({
        "PrA": {"review_period": 30, "order_up_to": 2071},
        "PrB": {"review_period": 30, "order_up_to": 18424},
        "PrC": {"review_period": 30, "order_up_to": 4154},
        "PrD": {"review_period": 30, "order_up_to": 1305},
    }))
    return str(path)


@pytest.fixture()
def rq_params_file(tmp_path):
    path = tmp_path / "rq.json"
    path.write_text(json.dumps({
        "PrA": {"reorder_point": 870, "order_quantity": 1440},
        "PrB": {"reorder_point": 2790, "order_quantity": 22270},
        "PrC": {"reorder_point": 2580, "order_quantity": 2570},
        "PrD": {"reorder_point": 1130, "order_quantity": 1200},
    }))
    return str(path)


class TestEmitHistogram:
    def test_single_sample_single_bin(self):
        text = emit_histogram([3.5], 1)
        assert text.splitlines()[1] == "3.5,3.5,1"

    def test_uniform_integers_even_bins(self):
        text = emit_histogram(list(range(100)), 10)
        counts = [int(line.split(",")[2]) for line in text.splitlines()[1:]]
        assert counts == [10] * 10

    def test_counts_conserved(self):
        rng = np.random.default_rng(42)
        samples = rng.normal(size=997)
        text = emit_histogram(samples, 13)
        counts = [int(line.split(",")[2]) for line in text.splitlines()[1:]]
        assert sum(counts) == 997
        assert len(counts) == 13

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            emit_histogram([], 5)

    def test_bad_bins_rejected(self):
        with pytest.raises(DomainError):
            emit_histogram([1.0], 0)


class TestParsing:
    def test_no_arguments_usage_exit_2(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 2
        assert "usage" in err

    def test_unknown_flag_config_prefix(self, capsys, table1_path):
        code, _, err = run_cli(capsys, "--catalog", table1_path, "eoq", "--bogus")
        assert code == 2
        assert any(line.startswith("config:") for line in err.splitlines())

    def test_missing_catalog_io_error(self, capsys):
        code, _, err = run_cli(capsys, "--catalog", "/nonexistent.csv", "eoq")
        assert code == 2
        assert err.startswith("io:")

    def test_validation_error_prefix(self, capsys, tmp_path, table1_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(Path(table1_path).read_text().replace("0.76", "1.9"))
        code, _, err = run_cli(capsys, "--catalog", str(bad), "eoq")
        assert code == 2
        assert err.startswith("validate:")

    @pytest.mark.parametrize("column, raw", [("lead_time", "inf"), ("lead_time", "nan"),
                                             ("annual_demand", "inf"), ("selling_price", "inf")])
    def test_non_finite_catalog_cell_exits_2(self, capsys, tmp_path, table1_path, column, raw):
        lines = Path(table1_path).read_text().splitlines()
        cells = lines[1].split(",")
        cells[lines[0].split(",").index(column)] = raw
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n")
        code, out, err = run_cli(capsys, "--catalog", str(bad), "eoq")
        assert code == 2
        assert out == ""
        assert err.startswith("io:") and f"line 2: column '{column}'" in err


class TestEoqCommand:
    def test_report_values(self, capsys, table1_path):
        code, out, _ = run_cli(capsys, "--catalog", table1_path, "eoq", "--legacy-z")
        assert code == 0
        rows = {line.split(",")[0]: line.split(",")[1:]
                for line in out.splitlines() if not line.startswith("#")}
        assert rows["metric"] == ["PrA", "PrB", "PrC", "PrD"]
        assert [int(v) for v in rows["eoq"]] == [1693, 5337, 2277, 1252]
        costs = [float(v) for v in rows["total_annual_cost"]]
        for got, expected in zip(costs, [33_864, 106_786, 45_532, 25_033]):
            assert got == pytest.approx(expected, rel=0.003)
        assert int(rows["safety_stock"][0]) == 185

    def test_manifest_embedded(self, capsys, table1_path):
        _, out, _ = run_cli(capsys, "--catalog", table1_path, "eoq")
        assert "# manifest subcommand=eoq" in out
        assert "# manifest rng=philox4x64" in out

    def test_byte_identical_reruns(self, capsys, table1_path):
        _, first, _ = run_cli(capsys, "--catalog", table1_path, "eoq")
        _, second, _ = run_cli(capsys, "--catalog", table1_path, "eoq")
        assert first == second

    @pytest.mark.parametrize("value", ["-5", "-0.5", "nan", "inf", "-inf"])
    def test_bad_review_time_rejected(self, capsys, table1_path, value):
        code, out, err = run_cli(capsys, "--catalog", table1_path, "eoq",
                                 f"--review-time={value}")
        assert code == 2
        assert out == ""
        assert err.startswith("validate:") and "review_time" in err


class TestRiskCommand:
    def test_report_shape(self, capsys, table1_path):
        code, out, _ = run_cli(capsys, "--catalog", table1_path, "risk")
        assert code == 0
        data_lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert data_lines[0].startswith("product,hcr,service_level,spr_rank")
        cells = {l.split(",")[0]: l.split(",") for l in data_lines[1:]}
        assert cells["PrB"][1] == "7.00"      # hcr at unit rate
        assert cells["PrD"][3] == "1"          # riskiest supplier rank

    @pytest.mark.parametrize("flag", ["--holding-cost-rate", "--backorder-cost"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_costs_rejected(self, capsys, table1_path, flag, value):
        code, out, err = run_cli(capsys, "--catalog", table1_path, "risk", f"{flag}={value}")
        assert code == 2
        assert out == ""
        assert err.startswith("validate:") and "must be finite" in err


class TestSimulateCommand:
    def test_deterministic_and_writes_artifacts(self, capsys, tmp_path, table1_path,
                                                pq_params_file):
        traj = tmp_path / "traj.csv"
        hist = tmp_path / "hist.csv"
        args = ["--catalog", table1_path, "--seed", "7", "simulate",
                "--policy", "pq", "--params", pq_params_file,
                "--replications", "20", "--emit-trajectory", str(traj),
                "--emit-histogram", str(hist)]
        code, first, _ = run_cli(capsys, *args)
        assert code == 0
        code, second, _ = run_cli(capsys, *args)
        assert first == second
        assert traj.exists() and hist.exists()
        traj_lines = [l for l in traj.read_text().splitlines() if not l.startswith("#")]
        assert traj_lines[0].startswith("product,day,demand")
        assert len(traj_lines) == 1 + 4 * 365
        hist_lines = [l for l in hist.read_text().splitlines() if not l.startswith("#")]
        assert any(l.startswith("profit:PrA") for l in hist_lines)
        assert any(l.startswith("lost_orders:PrD") for l in hist_lines)

    def test_missing_product_params(self, capsys, tmp_path, table1_path):
        partial = tmp_path / "partial.json"
        partial.write_text(json.dumps({"PrA": {"order_up_to": 2000}}))
        code, _, err = run_cli(capsys, "--catalog", table1_path, "simulate",
                               "--policy", "pq", "--params", str(partial),
                               "--replications", "2")
        assert code == 2
        assert err.startswith("config:")

    def test_non_numeric_params(self, capsys, tmp_path, table1_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"PrA": {"order_up_to": "lots"}}))
        code, _, err = run_cli(capsys, "--catalog", table1_path, "simulate",
                               "--policy", "pq", "--params", str(bad),
                               "--replications", "2")
        assert code == 2
        assert err.startswith("config:")

    def test_rows_independent_of_artifacts(self, capsys, tmp_path, table1_path,
                                           rq_params_file):
        base = ["--catalog", table1_path, "--seed", "3", "simulate", "--policy", "rq",
                "--params", rq_params_file, "--replications", "32"]
        code, plain, _ = run_cli(capsys, *base)
        assert code == 0
        code, full, _ = run_cli(capsys, *base, "--emit-histogram", str(tmp_path / "h.csv"),
                                "--emit-trajectory", str(tmp_path / "t.csv"))
        assert code == 0
        assert plain == full

    @pytest.mark.parametrize("extra, products", [
        ((), 4),
        (("--emit-histogram", "HIST"), 4),
        (("--emit-histogram", "HIST", "--emit-trajectory", "TRAJ"), 4),
    ])
    def test_one_batch_for_all_products(self, capsys, monkeypatch, tmp_path, table1_path,
                                        pq_params_file, extra, products):
        calls = count_engine_calls(monkeypatch, simengine)
        paths = {"HIST": str(tmp_path / "h.csv"), "TRAJ": str(tmp_path / "t.csv")}
        code, _, _ = run_cli(capsys, "--catalog", table1_path, "simulate", "--policy", "pq",
                             "--params", pq_params_file, "--replications", "16",
                             *(paths.get(a, a) for a in extra))
        assert code == 0
        assert calls == [products * 16]

    @pytest.mark.parametrize("flag", ["--emit-histogram", "--emit-trajectory"])
    def test_unwritable_side_file_leaves_no_output(self, capsys, monkeypatch, tmp_path,
                                                   table1_path, pq_params_file, flag):
        calls = count_engine_calls(monkeypatch, simengine)
        out_dir = tmp_path / "out"
        for where in ((), ("--out-dir", str(out_dir))):
            code, out, err = run_cli(capsys, "--catalog", table1_path, *where, "simulate",
                                     "--policy", "pq", "--params", pq_params_file,
                                     "--replications", "4",
                                     flag, str(tmp_path / "missing-dir" / "h.csv"))
            assert code == 2
            assert out == "" and err.startswith("io:") and "missing-dir" in err
        assert list(out_dir.iterdir()) == []
        assert calls == []

    @pytest.mark.parametrize("outputs", [
        ("--emit-trajectory", "{d}/x.csv", "--emit-histogram", "{d}/x.csv"),
        ("--emit-histogram", "{d}/x.csv", "--emit-trajectory", "{d}/../out/./x.csv"),
        ("--out-dir", "{d}", "--emit-histogram", "{d}/simulate.csv"),
        ("--out-dir", "{d}", "--emit-trajectory", "{d}/../out/simulate.csv"),
    ])
    def test_two_outputs_to_one_file_rejected(self, capsys, monkeypatch, tmp_path, table1_path,
                                              pq_params_file, outputs):
        calls = count_engine_calls(monkeypatch, simengine)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        code, out, err = run_cli(capsys, "--catalog", table1_path, "simulate", "--policy", "pq",
                                 "--params", pq_params_file, "--replications", "4",
                                 *(a.format(d=out_dir) for a in outputs))
        assert code == 2
        assert out == "" and err.startswith("config:") and "both write" in err
        assert list(out_dir.iterdir()) == []
        assert calls == []

    @pytest.mark.parametrize("flag", ["--emit-histogram", "--emit-trajectory", "--out-dir"])
    def test_empty_output_path_rejected(self, capsys, monkeypatch, table1_path,
                                        pq_params_file, flag):
        calls = count_engine_calls(monkeypatch, simengine)
        code, out, err = run_cli(capsys, "--catalog", table1_path, "simulate", "--policy", "pq",
                                 "--params", pq_params_file, "--replications", "4", flag, "")
        assert code == 2
        assert out == "" and err.startswith("config:") and flag in err
        assert calls == []

    @pytest.mark.parametrize("bins", ["0", "-3"])
    @pytest.mark.parametrize("extra", [(), ("--emit-histogram", "HIST")])
    def test_bad_bins_rejected_before_simulating(self, capsys, monkeypatch, tmp_path,
                                                 table1_path, pq_params_file, bins, extra):
        calls = count_engine_calls(monkeypatch, simengine)
        hist = tmp_path / "h.csv"
        code, out, err = run_cli(capsys, "--catalog", table1_path, "simulate", "--policy", "pq",
                                 "--params", pq_params_file, "--replications", "4",
                                 "--bins", bins, *(str(hist) if a == "HIST" else a for a in extra))
        assert code == 2
        assert out == "" and not hist.exists()
        assert err.startswith("config:") and "--bins" in err
        assert calls == []

    @pytest.mark.parametrize("policy", ["pq", "rq"])
    def test_trajectory_is_replication_zero(self, capsys, tmp_path, table1_path,
                                            pq_params_file, rq_params_file, policy):
        params_file = pq_params_file if policy == "pq" else rq_params_file
        traj = tmp_path / "traj.csv"
        code, _, _ = run_cli(capsys, "--catalog", table1_path, "--seed", "5", "simulate",
                             "--policy", policy, "--params", params_file, "--horizon", "60",
                             "--replications", "3", "--emit-trajectory", str(traj))
        assert code == 0
        lines = [l for l in traj.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "product,day,demand,sold,unmet,on_hand_end,on_order,order_placed,receipt"
        kind = PeriodicReview if policy == "pq" else ContinuousReview
        raw = json.loads(Path(params_file).read_text())
        cfg = SimConfig(horizon=60, replications=3, seed=5)
        expected = [
            f"{product.name}," + ",".join(map(str, astuple(rec)))
            for product in load_catalog(table1_path)
            for rec in simulate_once(product, demand_model(product),
                                     kind(**raw[product.name]), cfg).records
        ]
        assert lines[1:] == expected

    def test_params_for_product_not_in_catalog_rejected(self, capsys, tmp_path, table1_path,
                                                        rq_params_file):
        extra = tmp_path / "extra.json"
        extra.write_text(json.dumps({**json.loads(Path(rq_params_file).read_text()),
                                     "PrAA": {"reorder_point": 870, "order_quantity": 1440}}))
        code, out, err = run_cli(capsys, "--catalog", table1_path, "simulate",
                                 "--policy", "rq", "--params", str(extra),
                                 "--replications", "2")
        assert code == 2
        assert out == ""
        assert err.startswith("config:") and "'PrAA'" in err and str(extra) in err

    @pytest.mark.parametrize("policy, misread", [("pq", "review_periode"), ("rq", "review_period")])
    def test_unread_params_field_rejected(self, capsys, tmp_path, table1_path, pq_params_file,
                                          rq_params_file, policy, misread):
        raw = json.loads(Path(pq_params_file if policy == "pq" else rq_params_file).read_text())
        if policy == "pq":  # a misspelt period, so the parent ran the 30-day default
            del raw["PrA"]["review_period"]
        raw["PrA"][misread] = 7
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        code, out, err = run_cli(capsys, "--catalog", table1_path, "simulate",
                                 "--policy", policy, "--params", str(bad),
                                 "--replications", "2")
        assert code == 2
        assert out == ""
        assert err.startswith("config:") and misread in err and "PrA" in err

    @pytest.mark.parametrize("value", [812.9, True, "870"])
    def test_non_integral_params_rejected(self, capsys, tmp_path, table1_path, value):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"PrA": {"reorder_point": value, "order_quantity": 1440}}))
        code, out, err = run_cli(capsys, "--catalog", table1_path, "simulate",
                                 "--policy", "rq", "--params", str(bad),
                                 "--replications", "2")
        assert code == 2
        assert out == ""
        assert err.startswith(f"config: {bad}: product 'PrA': ")

    @pytest.mark.parametrize("content", [[1, 2], "PrA", {"PrA": 5}, {"PrA": [870, 1440]}])
    def test_non_object_params_rejected(self, capsys, tmp_path, table1_path, content):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(content))
        for policy in ("pq", "rq"):
            code, out, err = run_cli(capsys, "--catalog", table1_path, "simulate",
                                     "--policy", policy, "--params", str(bad),
                                     "--replications", "2")
            assert code == 2
            assert out == ""
            assert err.startswith("config:") and "JSON object" in err

    def test_params_above_cap_rejected(self, capsys, tmp_path, table1_path):
        huge = tmp_path / "huge.json"
        huge.write_text(json.dumps({"PrA": {"reorder_point": 2**62, "order_quantity": 2**62}}))
        code, _, err = run_cli(capsys, "--catalog", table1_path, "simulate",
                               "--policy", "rq", "--params", str(huge),
                               "--replications", "2")
        assert code == 2
        assert err.startswith("config:") and "PrA" in err and "2**40" in err


class TestSweepCommand:
    def test_sweep_report(self, capsys, table1_path):
        code, out, _ = run_cli(capsys, "--catalog", table1_path, "sweep",
                               "--product", "PrA", "--oup-range", "1800:2400",
                               "--step", "300", "--replications", "10")
        assert code == 0
        data = [l for l in out.splitlines() if not l.startswith("#")]
        assert data[0].startswith("order_up_to,")
        assert [int(l.split(",")[0]) for l in data[1:]] == [1800, 2100, 2400]

    def test_bad_range_spec(self, capsys, table1_path):
        code, _, err = run_cli(capsys, "--catalog", table1_path, "sweep",
                               "--product", "PrA", "--oup-range", "oops")
        assert code == 2
        assert err.startswith("config:")

    def test_unknown_product(self, capsys, table1_path):
        code, _, err = run_cli(capsys, "--catalog", table1_path, "sweep",
                               "--product", "PrZ", "--oup-range", "100:200")
        assert code == 2
        assert err.startswith("config:")


class TestCompareCommand:
    def test_totals_and_relative_difference(self, capsys, table1_path,
                                            pq_params_file, rq_params_file):
        code, out, _ = run_cli(capsys, "--catalog", table1_path, "compare",
                               "--pq-params", pq_params_file,
                               "--rq-params", rq_params_file,
                               "--replications", "50")
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith("TOTAL")]
        assert len(lines) == 3
        total_pq = float(lines[0].split(",")[2])
        total_rq = float(lines[1].split(",")[2])
        rel = float(lines[2].split(",")[2])
        assert rel == pytest.approx((total_rq - total_pq) / total_pq, abs=1e-3)

    def test_non_object_params_rejected(self, capsys, tmp_path, table1_path, rq_params_file):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([1, 2]))
        code, out, err = run_cli(capsys, "--catalog", table1_path, "compare",
                                 "--pq-params", str(bad), "--rq-params", rq_params_file,
                                 "--replications", "2")
        assert code == 2
        assert out == ""
        assert err.startswith("config:") and "JSON object" in err

    @pytest.mark.parametrize("edit", ["extra", "missing"])
    def test_params_catalog_mismatch_names_file(self, capsys, monkeypatch, tmp_path,
                                                table1_path, pq_params_file, rq_params_file,
                                                edit):
        calls = count_engine_calls(monkeypatch, simengine)
        raw = json.loads(Path(rq_params_file).read_text())
        if edit == "extra":
            raw["PrAA"] = {"reorder_point": 870, "order_quantity": 1440}
        else:
            del raw["PrD"]
        bad = tmp_path / "bad-rq.json"
        bad.write_text(json.dumps(raw))
        code, out, err = run_cli(capsys, "--catalog", table1_path, "compare",
                                 "--pq-params", pq_params_file, "--rq-params", str(bad),
                                 "--replications", "2")
        assert code == 2
        assert out == ""
        assert err.startswith(f"config: {bad}: ")
        assert ("'PrAA'" if edit == "extra" else "'PrD'") in err
        assert calls == []


class TestOptimizeCommand:
    def test_history_csv(self, capsys, table1_path):
        code, out, _ = run_cli(capsys, "--catalog", table1_path, "--seed", "2",
                               "optimize", "--objective", "oup-per-product",
                               "--budget", "6", "--initial-design", "5",
                               "--replications", "4", "--horizon", "60")
        assert code == 0
        data = [l for l in out.splitlines() if not l.startswith("#")]
        assert data[0] == "iteration,x_PrA,x_PrB,x_PrC,x_PrD,y,incumbent"
        assert len(data) == 1 + 6
        incumbents = [float(l.split(",")[-1]) for l in data[1:]]
        assert incumbents == sorted(incumbents)
        assert "# manifest best_value=" in out

    def test_proposals_clear_floor_at_collapse_seed(self, capsys, table1_path):
        # at this seed a fit warm-started from the previous one used to pin every
        # length scale at its lower bound, and EI proposed near the box edge
        code, out, _ = run_cli(capsys, "--catalog", table1_path, "--seed", "1646087339",
                               "optimize", "--objective", "rq", "--budget", "24",
                               "--replications", "25")
        assert code == 0
        rows = [l.split(",") for l in out.splitlines() if not l.startswith("#")][1:]
        assert [int(r[0]) for r in rows] == list(range(24))
        proposed = max(float(r[-2]) for r in rows if int(r[0]) >= 12)
        floor = (REFERENCES["optimize_proposal_floor_fraction"]
                 * REFERENCES["optimize_reference_optimum"])
        assert proposed >= floor

    def test_conditioning_file(self, capsys, tmp_path, table1_path):
        cond = tmp_path / "cond.json"
        cond.write_text(json.dumps({
            "alpha": 1.0,
            "centers": [[2000, 18000, 4000, 1300]],
            "widths": [2000.0],
            "weights": [1.0],
        }))
        code, out, _ = run_cli(capsys, "--catalog", table1_path, "--seed", "2",
                               "optimize", "--objective", "oup-per-product",
                               "--budget", "5", "--initial-design", "4",
                               "--replications", "2", "--horizon", "40",
                               "--conditioning", str(cond))
        assert code == 0

    def test_bounds_above_cap_rejected(self, capsys, tmp_path, table1_path):
        bounds = tmp_path / "bounds.json"
        bounds.write_text(json.dumps([[1, 1e20], [1, 5000], [1, 5000], [1, 5000]]))
        code, out, err = run_cli(capsys, "--catalog", table1_path, "optimize",
                                 "--bounds", str(bounds), "--budget", "5",
                                 "--initial-design", "4", "--replications", "2")
        assert code == 2
        assert out == ""
        assert err.startswith("config:")

    def test_bad_bounds_count(self, capsys, tmp_path, table1_path):
        bounds = tmp_path / "bounds.json"
        bounds.write_text(json.dumps([[0, 100]]))
        code, _, err = run_cli(capsys, "--catalog", table1_path, "optimize",
                               "--bounds", str(bounds), "--budget", "5",
                               "--initial-design", "4", "--replications", "2")
        assert code == 2
        assert err.startswith("config:")


class TestOptimizeInputs:
    @pytest.mark.parametrize("flag", ["--bounds", "--conditioning"])
    def test_empty_file_argument_rejected(self, capsys, monkeypatch, table1_path, flag):
        calls = count_engine_calls(monkeypatch, objectives)
        code, out, err = run_cli(capsys, "--catalog", table1_path, "optimize", flag, "",
                                 "--budget", "5", "--initial-design", "4", "--replications", "2")
        assert code == 2
        assert out == "" and err.startswith("io:")
        assert calls == []

    @pytest.mark.parametrize("content", [
        [1, 5000], [[1, 2, 3]], [["a", 5000]], {"lo": 1},
        [["1", 3000], [1, 30000], [1, 6000], [1, 3000]],
        [[1, 3000], [1, 30000], [True, 6000], [1, 3000]],
        [[1, 3000], [1, 30000], [1, 6000], [1, 10**400]],
    ])
    def test_malformed_bounds_rejected(self, capsys, monkeypatch, tmp_path, table1_path,
                                       content):
        calls = count_engine_calls(monkeypatch, objectives)
        bounds = tmp_path / "bounds.json"
        bounds.write_text(json.dumps(content))
        code, out, err = run_cli(capsys, "--catalog", table1_path, "optimize",
                                 "--bounds", str(bounds), "--budget", "5",
                                 "--initial-design", "4", "--replications", "2")
        assert code == 2
        assert out == ""
        assert err.startswith(f"config: {bounds}: ") and "[lo, hi]" in err
        assert calls == []

    @pytest.mark.parametrize("content, message", [
        ({"centers": []}, "missing field 'alpha'"),
        ([1.0], "config:"),
        ({"alpha": "high"}, "config:"),
        ({"alpha": 1.0, "centers": [[1, 2, 3, 4]], "widths": [1.0]}, "equal length"),
        ({"alpha": 1.0, "centers": [[1, 2]], "widths": [1.0], "weights": [1.0]},
         "center 0 has 2 coordinates for 4 products"),
        ({"alpha": 1.0, "centers": [[1, 2, 3, 4], [1, 2, 3, 4, 5]], "widths": [1.0, 1.0],
          "weights": [1.0, 1.0]}, "center 1 has 5 coordinates"),
        ("alpha", "expected a JSON object"),
        (None, "expected a JSON object"),
        ({"alpha": 1.0, "centres": [[2000, 18000, 4000, 1300]], "width": [2000.0],
          "weight": [1.0]}, "unknown field(s) centres, weight, width; "
                            "a conditioning file reads alpha, centers, widths, weights"),
        ({"alpha": "1.0"}, "'1.0' is not a number"),
        ({"alpha": True}, "True is not a number"),
        ({"alpha": 1.0, "centers": [["2000", 18000, 4000, 1300]], "widths": [2000.0],
          "weights": [1.0]}, "'2000' is not a number"),
        ({"alpha": 1.0, "centers": [[2000, 18000, 4000, 1300]], "widths": [True],
          "weights": [1.0]}, "True is not a number"),
        ({"alpha": 1.0, "centers": [[2000, 18000, 4000, 1300]], "widths": [2000.0],
          "weights": ["1"]}, "'1' is not a number"),
        ({"alpha": 10**400}, "too large"),
    ])
    def test_malformed_conditioning_rejected(self, capsys, tmp_path, table1_path,
                                             content, message):
        cond = tmp_path / "cond.json"
        cond.write_text(json.dumps(content))
        code, out, err = run_cli(capsys, "--catalog", table1_path, "optimize",
                                 "--conditioning", str(cond), "--budget", "5",
                                 "--initial-design", "4", "--replications", "2")
        assert code == 2
        assert out == ""
        assert err.startswith(f"config: {cond}: ") and message in err

    @pytest.mark.parametrize("content", [
        '{"alpha": NaN}',
        '{"alpha": Infinity}',
        '{"alpha": 1.0, "centers": [[NaN, 1, 1, 1]], "widths": [1.0], "weights": [1.0]}',
        '{"alpha": 1.0, "centers": [[1, 1, 1, 1]], "widths": [Infinity], "weights": [1.0]}',
        '{"alpha": 1.0, "centers": [[1, 1, 1, 1]], "widths": [NaN], "weights": [1.0]}',
        '{"alpha": 1.0, "centers": [[1, 1, 1, 1]], "widths": [1.0], "weights": [-Infinity]}',
    ])
    def test_non_finite_conditioning_rejected(self, capsys, monkeypatch, tmp_path,
                                              table1_path, content):
        calls = count_engine_calls(monkeypatch, objectives)
        cond = tmp_path / "cond.json"
        cond.write_text(content)
        code, out, err = run_cli(capsys, "--catalog", table1_path, "optimize",
                                 "--conditioning", str(cond), "--budget", "5",
                                 "--initial-design", "4", "--replications", "2")
        assert code == 2
        assert out == ""
        assert err.startswith("config:") and "finite" in err
        assert calls == []


class TestSensitivityCommand:
    def test_resim_rows(self, capsys, table1_path, rq_params_file):
        code, out, _ = run_cli(capsys, "--catalog", table1_path, "sensitivity",
                               "--policy", "rq", "--params", rq_params_file,
                               "--replications", "4", "--horizon", "60")
        assert code == 0
        data = [l for l in out.splitlines() if not l.startswith("#")]
        # two variables x two deltas x four products
        assert len(data) == 1 + 2 * 2 * 4

    def test_resim_one_engine_call_per_variable(self, capsys, monkeypatch, table1_path,
                                                rq_params_file):
        calls = count_engine_calls(monkeypatch, simengine)
        code, _, _ = run_cli(capsys, "--catalog", table1_path, "sensitivity",
                             "--policy", "rq", "--params", rq_params_file,
                             "--deltas", "0.1,-0.05,0.2", "--replications", "3",
                             "--horizon", "30")
        assert code == 0
        assert calls == [2 * 3 * 4 * 3]  # variables x deltas x products x replications

    def test_resim_fits_each_demand_model_once(self, capsys, monkeypatch, table1_path,
                                                rq_params_file):
        fitted = []
        fit = simengine.demand_model

        def counted(product):
            fitted.append(product.name)
            return fit(product)

        monkeypatch.setattr(simengine, "demand_model", counted)
        code, _, _ = run_cli(capsys, "--catalog", table1_path, "sensitivity",
                             "--policy", "rq", "--params", rq_params_file,
                             "--replications", "3", "--horizon", "30")
        assert code == 0
        assert fitted == ["PrA", "PrB", "PrC", "PrD"]

    def test_bad_deltas(self, capsys, table1_path, pq_params_file):
        for deltas in ("ten-percent", "nan", "inf", "0.1,-inf"):
            code, out, err = run_cli(capsys, "--catalog", table1_path, "sensitivity",
                                     "--policy", "pq", "--params", pq_params_file,
                                     "--deltas", deltas, "--replications", "2", "--horizon", "30")
            assert code == 2, deltas
            assert out == ""
            assert err.startswith("config:")

    def test_empty_variable_list_rejected(self, capsys, table1_path, pq_params_file):
        for variables in (",", " , ,", "", " "):
            code, out, err = run_cli(capsys, "--catalog", table1_path, "sensitivity",
                                     "--policy", "pq", "--params", pq_params_file,
                                     "--variables", variables, "--replications", "2",
                                     "--horizon", "30")
            assert code == 2, variables
            assert out == ""
            assert err.startswith("config:") and "names no variable" in err

    @pytest.mark.parametrize("policy, variable", [("pq", "reorder_point"),
                                                  ("pq", "order_quantity"), ("rq", "oup")])
    def test_variable_the_policy_lacks_rejected(self, capsys, monkeypatch, table1_path,
                                                pq_params_file, rq_params_file, policy,
                                                variable):
        calls = count_engine_calls(monkeypatch, simengine)
        params = pq_params_file if policy == "pq" else rq_params_file
        code, out, err = run_cli(capsys, "--catalog", table1_path, "sensitivity",
                                 "--policy", policy, "--params", params,
                                 "--variables", variable, "--replications", "2",
                                 "--horizon", "30")
        assert code == 2, (policy, variable)
        assert out == ""
        assert err.startswith("config:") and "policy does not have" in err
        assert calls == []

    @pytest.mark.parametrize("variable", ["expected_profit", "selling_price", "safety_stock",
                                          "profit_std", "lost_orders"])
    def test_output_variable_rejected(self, capsys, table1_path, rq_params_file, variable):
        code, out, err = run_cli(capsys, "--catalog", table1_path, "sensitivity",
                                 "--policy", "rq", "--params", rq_params_file,
                                 "--variables", variable, "--replications", "2",
                                 "--horizon", "30")
        assert code == 2
        assert out == ""
        assert err.startswith("config:") and "unknown sensitivity variable" in err

    def test_mode_flag_rejected(self, capsys, table1_path, rq_params_file):
        for mode in ("linear", "resim"):
            code, out, err = run_cli(capsys, "--catalog", table1_path, "sensitivity",
                                     "--mode", mode, "--policy", "rq",
                                     "--params", rq_params_file, "--replications", "2")
            assert code == 2
            assert out == ""
            assert "unrecognized arguments: --mode" in err

    @pytest.mark.parametrize("policy", ["pq", "rq"])
    def test_zero_delta_equals_simulate(self, capsys, table1_path, pq_params_file,
                                        rq_params_file, policy):
        params = pq_params_file if policy == "pq" else rq_params_file
        run = ["--catalog", table1_path, "--seed", "11"]
        tail = ["--policy", policy, "--params", params, "--replications", "300"]
        reports = []
        for command in (["simulate"], ["sensitivity", "--deltas", "0"]):
            code, out, _ = run_cli(capsys, *run, *command, *tail)
            assert code == 0
            header, *rows = [line for line in out.splitlines() if not line.startswith("#")]
            reports.append([dict(zip(header.split(","), row.split(","))) for row in rows])
        simulated, perturbed = reports
        cells = {row["product"]: (row["mean_profit"], row["profit_std"],
                                  row["lost_order_fraction"]) for row in simulated}
        assert len(perturbed) == len(cells) * (1 if policy == "pq" else 2)
        for row in perturbed:
            assert (row["profit"], row["profit_std"], row["lost_orders"]) == \
                cells[row["product"]], row

    @pytest.mark.parametrize("policy, expected", [("pq", "oup"),
                                                  ("rq", "reorder_point,order_quantity")])
    def test_default_variables_are_the_policy_fields(self, capsys, table1_path,
                                                     pq_params_file, rq_params_file,
                                                     policy, expected):
        params = pq_params_file if policy == "pq" else rq_params_file
        code, out, _ = run_cli(capsys, "--catalog", table1_path, "sensitivity",
                               "--policy", policy, "--params", params,
                               "--replications", "2", "--horizon", "30")
        assert code == 0
        assert f"# manifest variables={expected}" in out.splitlines()


def test_numerical_failure_maps_to_exit_3(capsys, monkeypatch, table1_path):
    from invopt import cli as cli_module
    from invopt.errors import NumericalError

    def explode(args, catalog):
        raise NumericalError("factorization failed")

    monkeypatch.setitem(cli_module._COMMANDS, "eoq", explode)
    code, _, err = run_cli(capsys, "--catalog", table1_path, "eoq")
    assert code == 3
    assert err.startswith("numerical:")


def test_out_dir_writes_files(capsys, tmp_path, table1_path):
    out_dir = tmp_path / "reports"
    code, out, err = run_cli(capsys, "--catalog", table1_path,
                             "--out-dir", str(out_dir), "eoq")
    assert code == 0
    assert out == ""  # report went to the file, not stdout
    assert (out_dir / "eoq.csv").exists()
    assert "eoq.csv" in err


@pytest.mark.parametrize("argv", [
    ["simulate", "--policy", "pq", "--params", "PQ", "--replications", "2"],
    ["sweep", "--product", "PrA", "--oup-range", "1800:2100", "--replications", "2"],
    ["compare", "--pq-params", "PQ", "--rq-params", "RQ", "--replications", "2"],
    ["sensitivity", "--policy", "rq", "--params", "RQ",
     "--replications", "2"],
    ["optimize", "--budget", "5", "--initial-design", "4", "--replications", "2"],
])
def test_negative_seed_rejected(capsys, table1_path, pq_params_file, rq_params_file, argv):
    files = {"PQ": pq_params_file, "RQ": rq_params_file}
    code, out, err = run_cli(capsys, "--catalog", table1_path, "--seed", "-1",
                             *(files.get(a, a) for a in argv), "--horizon", "30")
    assert code == 2
    assert out == ""
    assert err.startswith("config:") and "seed -1" in err


OUTPUT_LOCATIONS = {"out_dir", "emit_trajectory", "emit_histogram"}


@pytest.fixture()
def input_files(tmp_path, pq_params_file, rq_params_file):
    bounds = tmp_path / "bounds.json"
    bounds.write_text(json.dumps([[1, 3000], [1, 30000], [1, 6000], [1, 3000]]))
    cond = tmp_path / "cond.json"
    cond.write_text(json.dumps({"alpha": 1.0, "centers": [[2000, 18000, 4000, 1300]],
                                "widths": [2000.0], "weights": [1.0]}))
    return {"PQ": pq_params_file, "RQ": rq_params_file, "BOUNDS": str(bounds),
            "COND": str(cond), "HIST": str(tmp_path / "h.csv"),
            "TRAJ": str(tmp_path / "t.csv")}


@pytest.mark.parametrize("argv", [
    ["eoq", "--service-level", "0.9", "--legacy-z"],
    ["risk", "--backorder-cost", "2.5"],
    ["simulate", "--policy", "rq", "--params", "RQ", "--replications", "3", "--horizon", "30",
     "--bins", "5", "--emit-histogram", "HIST", "--emit-trajectory", "TRAJ"],
    ["sweep", "--product", "PrA", "--oup-range", "1800:2100", "--step", "300",
     "--replications", "2", "--horizon", "30"],
    ["compare", "--pq-params", "PQ", "--rq-params", "RQ", "--replications", "2",
     "--horizon", "30"],
    ["optimize", "--bounds", "BOUNDS", "--conditioning", "COND", "--acquisition", "pi",
     "--budget", "5", "--initial-design", "4", "--replications", "2", "--horizon", "30"],
    ["sensitivity", "--policy", "pq", "--params", "PQ",
     "--variables", "oup", "--replications", "2", "--horizon", "30"],
])
def test_manifest_records_every_argument(capsys, tmp_path, table1_path, input_files, argv):
    argv = ["--catalog", table1_path, "--seed", "4", "--out-dir", str(tmp_path / "out"),
            *(input_files.get(a, a) for a in argv)]
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    args = vars(_build_parser().parse_args(argv))
    report = (tmp_path / "out" / f"{args['subcommand']}.csv").read_text().splitlines()
    manifest = [line for line in report if line.startswith("# manifest ")]
    for key, value in args.items():
        if value is not None and key not in OUTPUT_LOCATIONS:
            assert f"# manifest {key}={value}" in manifest, key
    recorded = {line[len("# manifest "):].split("=", 1)[0] for line in manifest}
    assert not recorded & OUTPUT_LOCATIONS


def test_report_bytes_independent_of_output_locations(capsys, tmp_path, table1_path,
                                                      rq_params_file):
    reports = []
    for name in ("a", "b"):
        where = tmp_path / name
        code, out, _ = run_cli(capsys, "--catalog", table1_path, "--seed", "9",
                               "--out-dir", str(where), "simulate", "--policy", "rq",
                               "--params", rq_params_file, "--replications", "4",
                               "--horizon", "30", "--bins", "4",
                               "--emit-histogram", str(where / "h.csv"),
                               "--emit-trajectory", str(where / "t.csv"))
        assert code == 0 and out == ""
        reports.append({f: (where / f).read_bytes() for f in ("simulate.csv", "h.csv", "t.csv")})
    assert reports[0] == reports[1]
