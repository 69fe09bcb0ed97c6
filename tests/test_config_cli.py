import csv
from pathlib import Path

import pytest

from thermoqec.cli import main
from thermoqec.config import ConfigError, ExperimentConfig, load_config

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

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="section"):
            load_config(write(tmp_path, GOOD + "[extra]\nx = 1\n"))

    def test_bad_number_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="gamma_h"):
            load_config(write(tmp_path, GOOD.replace("gamma_h = 1e-3", "gamma_h = fast")))

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

    def test_oracle_report(self, tmp_path, capsys):
        text = GOOD.replace("n_traj = 20", "n_traj = 10").replace("rounds = 2", "rounds = 1")
        cfg = write(tmp_path, text)
        code = main(["run", "--config", str(cfg), "--oracle", "--out", str(tmp_path / "o")])
        assert code == 0
        assert "trace distance" in (tmp_path / "o" / "summary.txt").read_text()

    def test_invalid_config_exit_2(self, tmp_path):
        cfg = write(tmp_path, GOOD + "bogus = 1\n")
        assert main(["run", "--config", str(cfg)]) == 2

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 2


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
            "rate-model", "chain", "--F-a", "0.9", "--alpha", "1e-3", "--skip", "40",
            "--out", str(tmp_path),
        ])
        assert code == 0
        line = next(s for s in capsys.readouterr().out.splitlines() if "first-round weight-0" in s)
        # F_a * (1 - 3*alpha - beta) + beta = 0.9 * (1 - 0.004) + 0.001 with beta = alpha
        assert float(line.split("=")[1]) == pytest.approx(0.8974, abs=1e-12)

    def test_cooling_curve(self, tmp_path):
        code = main([
            "rate-model", "cooling", "--n-c", "0", "--Gamma-c", "2", "--t-max", "2",
            "--initial", "7", "--out", str(tmp_path),
        ])
        assert code == 0
        with open(tmp_path / "cooling.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:2] == ["t", "P0"]
        assert "P0_closed" in rows[0]  # zero-occupancy run carries closed forms

    def test_steady_fidelity_table(self, tmp_path, capsys):
        code = main(["rate-model", "steady-fidelity", "--n-c-values", "0", "0.01",
                     "--out", str(tmp_path)])
        assert code == 0
        assert "0.970875" in capsys.readouterr().out

    def test_slow_cooling_report(self, tmp_path, capsys):
        code = main(["rate-model", "slow-cooling", "--gamma-h", "1e-3", "--Gamma-c", "0.1",
                     "--n-c", "0.01", "--out", str(tmp_path)])
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
