import csv
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from thermoqec import cli
from thermoqec.cli import main
from thermoqec.compiler import build_measurement_free_round
from thermoqec.config import ConfigError, ExperimentConfig, load_config
from thermoqec.dynamics import NoiseParams, evolve_master_equation
from thermoqec.metrics import RoundMetrics
from thermoqec.qstate import StateVector

REPO = Path(__file__).resolve().parents[1]
CONFIG_DIR = REPO / "configs"

GOOD = """\
[experiment]
protocol = measured
gamma_h = 1e-3
Gamma_c = 3.0
n_c = 0.01
rounds = 2
n_traj = 20
master_seed = 7
oracle = false
out = results/test
"""


def write(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestConfig:
    def test_load_valid(self, tmp_path):
        cfg = load_config(write(tmp_path, GOOD))
        assert cfg.protocol == "measured"
        assert cfg.gamma_h == 1e-3
        assert cfg.rounds == 2
        assert cfg.oracle is False

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(write(tmp_path, GOOD + "gamma_typo = 3\n"))

    def test_n_sub_is_not_a_key(self, tmp_path):
        # the kernel's substep count is fixed at dynamics.DEFAULT_N_SUB
        with pytest.raises(ConfigError, match="unknown key 'n_sub'"):
            load_config(write(tmp_path, GOOD + "n_sub = 20\n"))

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="section"):
            load_config(write(tmp_path, GOOD + "[extra]\nx = 1\n"))

    def test_bad_number_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="gamma_h"):
            load_config(write(tmp_path, GOOD.replace("gamma_h = 1e-3", "gamma_h = fast")))

    @pytest.mark.parametrize(
        "line, bad_line, message",
        [
            ("rounds = 2", "rounds = two", "rounds must be an integer, got 'two'"),
            ("n_c = 0.01", "n_c = cold", "n_c must be a number, got 'cold'"),
            ("oracle = false", "oracle = maybe", "oracle must be a boolean, got 'maybe'"),
        ],
        ids=["int", "float", "bool"],
    )
    def test_bad_value_message(self, tmp_path, line, bad_line, message):
        with pytest.raises(ConfigError) as err:
            load_config(write(tmp_path, GOOD.replace(line, bad_line)))
        assert str(err.value) == message

    def test_bad_protocol_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="protocol"):
            load_config(write(tmp_path, GOOD.replace("measured", "teleported")))

    def test_negative_rate_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, GOOD.replace("gamma_h = 1e-3", "gamma_h = -1")))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.cfg")

    def test_overrides(self, tmp_path):
        cfg = load_config(write(tmp_path, GOOD), {"master_seed": 99, "n_traj": 5})
        assert cfg.master_seed == 99 and cfg.n_traj == 5

    def test_defaults_validated(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(rounds=0)
        with pytest.raises(ConfigError):
            ExperimentConfig(store="everything")

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_rejected(self, seed):
        with pytest.raises(ConfigError, match="master_seed"):
            ExperimentConfig(master_seed=seed)

    def test_auto_store_policy(self):
        assert ExperimentConfig(rounds=5).resolved_store(16) == "full"
        assert ExperimentConfig(rounds=500).resolved_store(16) == "reduced"
        assert ExperimentConfig(rounds=5000).resolved_store(16) == "scalar"


class TestCliRun:
    def test_run_writes_csv_and_summary(self, tmp_path, capsys):
        cfg = write(tmp_path, GOOD)
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 0
        csv_path = tmp_path / "out" / "metrics.csv"
        assert csv_path.exists() and (tmp_path / "out" / "summary.txt").exists()
        with open(csv_path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "round", "step", "time", "f2_data", "f2_ancilla",
            "s_total", "s_data", "s_anc", "n_traj",
        ]
        assert len(rows) == 1 + 2 * 16
        assert "rate-model comparison" in capsys.readouterr().out

    def test_byte_identical_rerun(self, tmp_path):
        cfg = write(tmp_path, GOOD)
        main(["run", "--config", str(cfg), "--out", str(tmp_path / "a")])
        main(["run", "--config", str(cfg), "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "metrics.csv").read_bytes() == (
            tmp_path / "b" / "metrics.csv"
        ).read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write(tmp_path, GOOD)
        main(["run", "--config", str(cfg), "--out", str(tmp_path / "a")])
        main(["run", "--config", str(cfg), "--seed", "8", "--out", str(tmp_path / "c")])
        assert (tmp_path / "a" / "metrics.csv").read_bytes() != (
            tmp_path / "c" / "metrics.csv"
        ).read_bytes()

    def test_seed_aliasing_past_64_bits_exit_2(self, tmp_path, capsys):
        # 5 + 2**64 would otherwise key the same streams as seed 5
        cfg = write(tmp_path, GOOD.replace("rounds = 2", "rounds = 1"))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--seed", str(5 + 2**64), "--out", str(out)]) == 2
        assert "master_seed" in capsys.readouterr().err
        assert not out.exists()

    def test_metrics_header_has_one_column_per_field(self, tmp_path):
        cfg = write(tmp_path, GOOD.replace("rounds = 2", "rounds = 1"))
        assert main(["run", "--config", str(cfg), "--traj", "3", "--out", str(tmp_path / "out")]) == 0
        header, rows = _read_table(tmp_path / "out" / "metrics.csv")
        # the column names shorten three field names
        names = {"round": "round_index", "step": "step_index", "s_anc": "s_ancilla"}
        assert [names.get(h, h) for h in header] == list(RoundMetrics._fields)
        assert all(len(row) == len(header) for row in rows)
        assert [row[0:2] for row in rows] == [[0.0, float(s)] for s in range(16)]
        assert {row[-1] for row in rows} == {3.0}

    def test_oracle_report(self, tmp_path, capsys):
        text = GOOD.replace("n_traj = 20", "n_traj = 10").replace("rounds = 2", "rounds = 1")
        cfg = write(tmp_path, text)
        code = main(["run", "--config", str(cfg), "--oracle", "--out", str(tmp_path / "o")])
        assert code == 0
        assert "trace distance" in (tmp_path / "o" / "summary.txt").read_text()

    def test_oracle_f2_gap_without_total_matrices(self, tmp_path):
        # a reduced store has no total matrices: the oracle still runs, and
        # the run is compared with it on the round-end data fidelity only
        text = GOOD.replace("measured", "measurement_free").replace("n_traj = 20", "n_traj = 4")
        cfg = write(tmp_path, text + "store = reduced\n")
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--oracle", "--out", str(out)]) == 0
        summary = (out / "summary.txt").read_text().splitlines()
        assert not any(line.startswith("trajectory-vs-oracle trace distance") for line in summary)
        assert "trace distances skipped: they need store = full (this run: store = reduced)" in summary
        (line,) = [line for line in summary if line.startswith("trajectory-vs-oracle largest round-end")]
        with open(out / "metrics.csv") as fh:
            rows = list(csv.DictReader(fh))
        ends = np.array([float(r["f2_data"]) for r in rows if r["step"] == "67"])
        schedule = build_measurement_free_round()
        oracle = evolve_master_equation(
            StateVector.basis(5, 0).projector(), schedule, NoiseParams(1e-3, 3.0, 0.01), rounds=2
        )
        want = np.max(np.abs(ends - oracle.f2_series()[:, -1, 0]))
        assert len(ends) == 2 and want > 0
        assert float(line.rsplit("=", 1)[1]) == pytest.approx(want, abs=1e-11)

    def test_non_unique_chain_fixed_point_is_reported(self, tmp_path, capsys):
        # no heating and a zero-temperature cold bath: the weight-class chain
        # keeps both codewords, so it has no one steady state to predict
        text = GOOD.replace("gamma_h = 1e-3", "gamma_h = 0").replace("n_c = 0.01", "n_c = 0")
        cfg = write(tmp_path, text.replace("rounds = 2", "rounds = 3").replace("n_traj = 20", "n_traj = 4"))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        capsys.readouterr()
        summary = (tmp_path / "o" / "summary.txt").read_text().splitlines()
        assert (
            "  predicted steady weight-0 = not unique "
            "(eigenvalue 1 of the class chain has multiplicity 2: no unique fixed point)"
        ) in summary
        assert "  chain after 3 rounds = 1" in summary
        assert "final-round data fidelity = 1" in summary

    def test_invalid_config_exit_2(self, tmp_path):
        cfg = write(tmp_path, GOOD + "bogus = 1\n")
        assert main(["run", "--config", str(cfg)]) == 2

    def test_cooling_off_rejected(self, tmp_path, capsys):
        # Gamma_c = 0 is the way to switch the cold coupling off
        cfg = write(tmp_path, GOOD + "cooling = off\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "cooling must be one of ('window', 'always'), got 'off'" in capsys.readouterr().err

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 2

    @pytest.mark.parametrize("key", ["gamma_h", "Gamma_c", "n_c"])
    def test_infinite_rate_exit_2(self, tmp_path, capsys, key):
        # a config error naming the key, not a runtime failure or the substep guard
        line = next(x for x in GOOD.splitlines() if x.startswith(f"{key} ="))
        cfg = write(tmp_path, GOOD.replace(line, f"{key} = inf"))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"configuration error: {key} must be a finite non-negative number, got inf" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, protocol",
        [("run", "measured"), ("run", "measurement_free"), ("compare", "measured")],
        ids=["run-measured", "run-mf", "compare"],
    )
    def test_substep_too_coarse_exit_2(self, tmp_path, capsys, command, protocol):
        # n_qubits * gamma_h >= n_sub: 6 (or 5) qubits at gamma_h = 4 against the 20 substeps
        text = GOOD.replace("measured", protocol).replace("gamma_h = 1e-3", "gamma_h = 4.0")
        cfg = write(tmp_path, text)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        n = 6 if protocol == "measured" else 5
        expect = "gamma_h = 4 too large for the trajectory kernel: need n_qubits * gamma_h < 20"
        assert f"configuration error: {expect} ({n} qubits)" in capsys.readouterr().err
        assert not out.exists()  # rejected before any simulation

    def test_substep_just_fine_enough_runs(self, tmp_path):
        # 5 qubits at gamma_h = 3.99 against the 20 substeps
        text = GOOD.replace("measured", "measurement_free").replace("gamma_h = 1e-3", "gamma_h = 3.99")
        cfg = write(tmp_path, text.replace("n_traj = 20", "n_traj = 2"))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0


class TestCliVerifyGates:
    def test_passes_by_default(self, capsys):
        assert main(["verify-gates"]) == 0
        out = capsys.readouterr().out
        assert "measured round steps: 16" in out
        assert "measurement-free round steps: 68" in out
        assert "all gate verifications passed" in out

    def test_fault_injection_fails(self, capsys):
        assert main(["verify-gates", "--fault-injection"]) == 1
        assert "FAIL" in capsys.readouterr().out


class TestCliRateModel:
    def test_chain_report(self, tmp_path, capsys):
        code = main([
            "rate-model", "chain", "--alpha", "1e-3", "--rounds", "3000",
            "--out", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "delta0" in out and (tmp_path / "chain.csv").exists()

    def test_chain_first_order_line_uses_ancilla_fidelity(self, tmp_path, capsys):
        code = main([
            "rate-model", "chain", "--F-a", "0.9", "--alpha", "1e-3",
            "--out", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        line = next(s for s in out if "first-round weight-0" in s)
        # F_a * (1 - 3*alpha - beta) + beta = 0.9 * (1 - 0.004) + 0.001 with beta = alpha
        assert float(line.split("=")[1]) == pytest.approx(0.8974, abs=1e-12)

    @pytest.mark.parametrize(
        "argv",
        [
            ["--F-a", "0", "--alpha", "1e-3"], ["--alpha", "0.1"], ["--F-a", "0.7", "--alpha", "1e-3"],
            ["--alpha", "0.5"],
        ],
        ids=["F_a0", "alpha0.1", "F_a0.7", "alpha0.5"],
    )
    def test_chain_reports_the_eigenvalue_decay_constant(self, tmp_path, capsys, argv):
        # slow eigenvalue -0.994 (an oscillating tail), a -0.28 mode beside
        # 0.82 (a non-monotone tail), a 0.91 mode, and at alpha = beta = 0.5
        # two modes of the same magnitude 0.0625: none has a tail a
        # one-exponential fit takes, and none needs one
        assert main(["rate-model", "chain", *argv, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "eigenvalue delta0 = " in out and "steady state: chain fixed point = " in out
        assert (tmp_path / "chain.csv").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["--alpha", "0"], ["--alpha", "0", "--beta", "1"], ["--alpha", "1"],
            ["--alpha", "1", "--beta", "1", "--F-a", "0"],
        ],
        ids=["alpha0", "alpha0-beta1", "alpha1", "F_a0-alpha1-beta1"],
    )
    def test_chain_without_a_unique_fixed_point(self, tmp_path, capsys, argv):
        # no errors: codewords 0 and 7 both absorb; alpha = 1, or beta = 1
        # with alpha = 0: P0 flips between 0 and 1 every round; F_a = 0 with
        # alpha = beta = 1: the pristine start settles at P0 = 1/4, another
        # start elsewhere. Eigenvalue 1 is double and nothing decays.
        assert main(["rate-model", "chain", *argv, "--out", str(tmp_path)]) == 0
        assert (tmp_path / "chain.csv").exists()
        out = capsys.readouterr().out.splitlines()
        assert out[2] == "steady state: not unique (eigenvalue 1 of the class chain has multiplicity 2: no unique fixed point)"
        assert not any("symmetric-ratio" in s for s in out)
        assert "eigenvalue delta0 = 1" in out

    def test_chain_with_few_rounds(self, tmp_path, capsys):
        # --rounds sets only the table's length: the eigenvalue constants
        # need no iterates, so three rounds print what four thousand do
        argv = ["rate-model", "chain", "--alpha", "1e-3"]
        assert main([*argv, "--rounds", "4000", "--out", str(tmp_path / "long")]) == 0
        long_out = capsys.readouterr().out.splitlines()[1:]
        assert main([*argv, "--rounds", "3", "--out", str(tmp_path / "short")]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == long_out
        assert "eigenvalue delta0 = 1.00004147696" in long_out
        with open(tmp_path / "short" / "chain.csv", newline="") as fh:
            assert [r["round"] for r in csv.DictReader(fh)] == ["0", "1", "2", "3"]

    @pytest.mark.parametrize(
        "argv, marked",
        [
            (
                ["--alpha", "1"],
                {
                    "first-round weight-0 (first-order) = -2": "-2 lies outside [0, 1]",
                    "              matched second-order series = 11": "11 lies outside [0, 1]",
                },
            ),
            (
                ["--F-a", "0", "--alpha", "1e-3"],
                {
                    "              matched second-order series = 0.498512": "it assumes F_a = 1, not 0",
                    "series delta0 = 1 + 42*alpha^2 = 1.000042": "it assumes F_a = 1, not 0",
                },
            ),
            (
                ["--alpha", "1e-3", "--beta", "2e-3"],
                {
                    "              matched second-order series = 0.498512": "it assumes beta = alpha, not 0.002",
                    "series delta0 = 1 + 42*alpha^2 = 1.000042": "it assumes beta = alpha, not 0.002",
                },
            ),
        ],
        ids=["alpha1", "F_a0", "beta2alpha"],
    )
    def test_chain_marks_series_that_do_not_apply(self, tmp_path, capsys, argv, marked):
        # a series probability outside [0, 1], or a series that assumes
        # F_a = 1 and beta = alpha on a chain without them, ends its line
        # with the reason; every other line is unmarked
        assert main(["rate-model", "chain", *argv, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out.splitlines()
        for value, reason in marked.items():
            assert f"{value} (series does not apply: {reason})" in out
        assert sum("series does not apply" in line for line in out) == len(marked)

    def test_chain_series_within_their_range_are_unmarked(self, tmp_path, capsys):
        assert main(["rate-model", "chain", "--alpha", "1e-3", "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            "first-round weight-0 (first-order) = 0.997",
            "steady state: chain fixed point = 0.498500011973",
            "              symmetric-ratio closed form = 0.498500011979",
            "              matched second-order series = 0.498512",
            "eigenvalue delta0 = 1.00004147696",
            "series delta0 = 1 + 42*alpha^2 = 1.000042",
            "(delta0 - 1)/alpha^2 = 41.476962382",
        ]

    def test_chain_with_ancilla_errors_only(self, tmp_path, capsys):
        # alpha = 0 but F_a < 1: the chain still decays
        code = main(["rate-model", "chain", "--alpha", "0", "--F-a", "0.9", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "eigenvalue delta0 = " in out and "(delta0 - 1)/alpha^2" not in out
        delta = float(next(s for s in out.splitlines() if s.startswith("eigenvalue delta0")).split("=")[1])
        assert delta > 1

    def test_cooling_curve(self, tmp_path):
        code = main([
            "rate-model", "cooling", "--n-c", "0", "--Gamma-c", "2", "--t-max", "2",
            "--initial", "7", "--out", str(tmp_path),
        ])
        assert code == 0
        with open(tmp_path / "cooling.csv") as fh:
            rows = list(csv.reader(fh))
        header = ["t"] + [f"P{i}" for i in range(8)]
        assert rows[0] == header + [f"P{i}_closed" for i in range(8)]  # zero occupancy adds closed forms
        # the closed form (independent bit decays) agrees with the exact map
        for row in rows[1:]:
            assert [float(v) for v in row[1:9]] == pytest.approx([float(v) for v in row[9:]], abs=1e-12)

    @pytest.mark.parametrize(
        "argv",
        [
            ["cooling", "--t-max", "-1", "--n-c", "0.01"],
            ["cooling", "--Gamma-c", "-3"],
            ["cooling", "--n-c", "-0.5"],
            ["steady-fidelity", "--n-c-values", "0", "-0.1"],
            ["slow-cooling", "--steps", "0"],
            ["chain", "--alpha", "-0.1"],
            ["chain", "--alpha", "1e-3", "--F-a", "1.5"],
            ["chain", "--alpha", "1e-3", "--rounds", "-5"],
            # each option in range alone, the combination not
            ["slow-cooling", "--gamma-h", "0.02"],  # alpha = 6 * 16 * 0.02 = 1.92
            ["slow-cooling", "--Gamma-c", "0"],  # x = 1: no cooling
        ],
        ids=[
            "t-max", "Gamma-c", "n-c", "n-c-values", "steps", "alpha", "F-a", "rounds",
            "slow-cooling-alpha", "slow-cooling-x",
        ],
    )
    def test_out_of_range_option_exit_2(self, tmp_path, capsys, argv):
        out = [] if argv[0] == "slow-cooling" else ["--out", str(tmp_path)]  # slow-cooling writes no table
        assert main(["rate-model", *argv, *out]) == 2
        assert "configuration error: --" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())  # rejected before writing a table

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["cooling", "--n-c", "inf"], "--n-c must be finite and lie in [0.0, inf), got inf"),
            (["chain", "--alpha", "1e-3", "--rounds", "0"], "--rounds must be finite and lie in [1, inf), got 0"),
            (["chain", "--alpha", "nan"], "--alpha must lie in [0.0, 1.0], got nan"),
        ],
        ids=["n-c-inf", "rounds-0", "alpha-nan"],
    )
    def test_range_message_names_the_bound(self, tmp_path, capsys, argv, message):
        # an unbounded range is half-open: infinity itself is rejected
        assert main(["rate-model", *argv, "--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err

    def test_steady_fidelity_table(self, tmp_path, capsys):
        code = main(["rate-model", "steady-fidelity", "--n-c-values", "0", "0.01",
                     "--out", str(tmp_path)])
        assert code == 0
        assert "0.970875" in capsys.readouterr().out

    def test_slow_cooling_report(self, capsys):
        code = main(["rate-model", "slow-cooling", "--gamma-h", "1e-3", "--Gamma-c", "0.1", "--n-c", "0.01"])
        assert code == 0
        assert "steady ancilla fidelity" in capsys.readouterr().out


class TestCliCompare:
    def test_compare_writes_table(self, tmp_path, capsys):
        cfg = write(tmp_path, GOOD)
        code = main(["compare", "--config", str(cfg), "--traj", "30",
                     "--out", str(tmp_path / "cmp")])
        assert code == 0
        with open(tmp_path / "cmp" / "compare.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["round", "f2_data_traj", "f2_data_chain"]
        assert len(rows) == 3

    def test_chain_model_range_checked_before_simulating(self, tmp_path, capsys, monkeypatch):
        # 16 * gamma_h = 1.12 puts the chain's beta outside [0, 1]
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before checking the chain model's range")

        monkeypatch.setattr(cli, "run_ensemble", no_simulation)
        cfg = write(tmp_path, GOOD.replace("gamma_h = 1e-3", "gamma_h = 0.07"))
        out = tmp_path / "cmp"
        assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 2
        assert "too large for the round-chain model" in capsys.readouterr().err
        assert not out.exists()


def _csv_writer_table(path: Path, header, rows) -> None:
    """The table as csv.writer writes it, with `_fmt` on every float."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([cli._fmt(v) if isinstance(v, float) else v for v in row])


def test_tables_match_csv_writer_bytes(tmp_path, monkeypatch):
    """Every table the CLI writes, and a row of special values, has the
    bytes of the csv.writer + `_fmt` path."""
    written = []
    write_table = cli._write_table

    def checked(path, header, rows):
        rows = [tuple(r) for r in rows]
        write_table(path, header, iter(rows))
        _csv_writer_table(tmp_path / "expect.csv", header, rows)
        assert path.read_bytes() == (tmp_path / "expect.csv").read_bytes(), path.name
        written.append(path.name)

    monkeypatch.setattr(cli, "_write_table", checked)
    cfg = write(tmp_path, GOOD.replace("rounds = 2", "rounds = 1"))
    out = str(tmp_path / "out")
    assert main(["run", "--config", str(cfg), "--out", out]) == 0
    assert main(["compare", "--config", str(cfg), "--oracle", "--traj", "5", "--out", out]) == 0
    assert main(["rate-model", "cooling", "--n-c", "0", "--t-max", "2", "--out", out]) == 0
    assert main(["rate-model", "steady-fidelity", "--n-c-values", "0", "0.01", "--out", out]) == 0
    assert main(["rate-model", "chain", "--alpha", "1e-3", "--rounds", "50", "--out", out]) == 0
    assert written == ["metrics.csv", "compare.csv", "cooling.csv", "steady_fidelity.csv", "chain.csv"]
    special = [
        (1, math.nan, math.inf, -math.inf, -0.0, 0.1, 1 / 3),
        (10**13, np.float64(-0.0), np.float64(math.nan), np.int64(-7), 1e-300, 123456789012345.0, True),
    ]
    checked(tmp_path / "special.csv", list("abcdefg"), special)


def _read_table(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(v) for v in row] for row in rows[1:]]


def test_committed_rate_model_tables_are_current(tmp_path, monkeypatch, capsys):
    """scripts/run_rate_models.py, run afresh, reproduces every committed
    table under results/rate_models/: same header, values within 1e-12."""
    spec = importlib.util.spec_from_file_location("run_rate_models", REPO / "scripts" / "run_rate_models.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.chdir(tmp_path)
    assert script.run() == 0
    committed = REPO / "results" / "rate_models"
    tables = sorted(p.relative_to(committed) for p in committed.rglob("*.csv"))
    assert tables == sorted(p.relative_to(script.OUT) for p in script.OUT.rglob("*.csv"))
    for rel in tables:
        header, want = _read_table(committed / rel)
        got_header, got = _read_table(script.OUT / rel)
        assert got_header == header, rel
        assert len(got) == len(want), rel
        assert np.abs(np.array(got) - np.array(want)).max() <= 1e-12, rel


def test_exact_values_round_map_command(capsys):
    """scripts/exact_values.py round-map 5a runs through its command-line
    entry and prints the exact map's fixed point."""
    spec = importlib.util.spec_from_file_location("exact_values", REPO / "scripts" / "exact_values.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["round-map", "5a"]) == 0
    assert "fixed point: round-end data P(000) 0.5980, P(111) 0.2874" in capsys.readouterr().out


@pytest.mark.parametrize("cfg_path", sorted(CONFIG_DIR.glob("*.cfg")), ids=lambda p: p.stem)
def test_shipped_configs_smoke(cfg_path, tmp_path):
    """Every figure-reproduction config parses and runs at reduced size."""
    cfg = load_config(cfg_path)
    assert cfg.n_traj >= 100  # full runs are production scale
    reduced = load_config(cfg_path, {"n_traj": 2, "out": str(tmp_path)})
    from thermoqec.cli import cmd_run

    # cut rounds for the smoke run only
    object.__setattr__(reduced, "rounds", min(reduced.rounds, 3))
    assert cmd_run(reduced) == 0
    assert (tmp_path / "metrics.csv").exists()
