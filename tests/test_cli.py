import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import optomech_bistab
from optomech_bistab import __version__, harness
from optomech_bistab.cli import main


CONFIG = """
cavity_length_m = 1e-3
finesse = 1.07e4
wavelength_m = 810e-9
power_W = 0.057
mass_kg = 5e-12
mech_freq = 1e7
mech_damping = 100
temperature_K = 0.4
bare_detuning = 2.62e7
freq_convention = cyclic
kappa_override = 1.4e7
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "params.cfg"
    path.write_text(CONFIG)
    return path


def test_optima_output(capsys):
    assert main(["optima"]) == 0
    out = capsys.readouterr().out
    assert "kappa/omega_m" in out
    assert "1.400000" in out
    assert "0.851469" in out  # entanglement Delta_opt for kappa = 1.4
    assert "entanglement max E_N" in out


def test_steady_writes_csv(tmp_path, config_file, capsys):
    code = main(["steady", "--config", str(config_file),
                 "--out", str(tmp_path / "out")])
    assert code == 0
    csv = (tmp_path / "out" / "steady.csv").read_text()
    lines = csv.splitlines()
    assert lines[0].startswith(f"# optomech-bistab v{__version__} ")
    header = next(l for l in lines if not l.startswith("#"))
    assert header == ("P_in_W,branch,q_s,photons,Delta_over_wm,"
                      "G_over_wm,eta,stable")
    out = capsys.readouterr().out
    assert "lower" in out and "middle" in out and "upper" in out


def test_sweep_command(tmp_path, config_file):
    code = main(["sweep", "--config", str(config_file),
                 "--out", str(tmp_path / "out"), "--grid", "5",
                 "--axis1", "eta=0.1:0.9",
                 "--axis2", "effective_detuning=0.5:2.0:3"])
    assert code == 0
    lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    data = [l for l in lines if not l.startswith("#")]
    assert data[0].startswith("Delta_target_over_wm,eta_target,")
    assert len(data) - 1 == 15  # 5 eta x 3 detuning synthetic points


def test_sweep_rejects_unknown_axis(tmp_path, config_file, capsys):
    code = main(["sweep", "--config", str(config_file),
                 "--out", str(tmp_path / "out"),
                 "--axis1", "volume=1:2:3"])
    assert code == 2
    assert "unknown name" in capsys.readouterr().err


def test_sweep_rejects_bad_grid_syntax(tmp_path, config_file, capsys):
    code = main(["sweep", "--config", str(config_file),
                 "--out", str(tmp_path / "out"),
                 "--axis1", "eta=0.1:0.9:3:4"])
    assert code == 2


def test_sweep_reports_rate_values_in_omega_m(tmp_path, config_file, capsys):
    code = main(["sweep", "--config", str(config_file),
                 "--out", str(tmp_path / "out"),
                 "--axis1", "effective_detuning=-1:1:3",
                 "--axis2", "eta=0.1:0.5:3"])
    assert code == 2
    assert "effective_detuning: value -1.0 omega_m out of range" \
        in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["figure", "fig2"],
    ["figure", "fig5a"],
    ["sweep", "--axis1", "power=0.01:0.02"],
])
def test_grid_zero_is_rejected(tmp_path, config_file, capsys, command):
    code = main(command + ["--config", str(config_file),
                           "--out", str(tmp_path / "out"), "--grid", "0"])
    assert code == 2
    assert "grid: need at least one point, got 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [
    ["steady", "--grid", "5"],
    ["steady", "--branch", "upper"],
    ["steady", "--validity-threshold", "0.5"],
    ["figure", "fig5a", "--branch", "upper"],
    ["optima", "--out", "out"],
    ["optima", "--grid", "5"],
    ["optima", "--branch", "upper"],
    ["optima", "--validity-threshold", "0.5"],
], ids=" ".join)
def test_flags_a_command_does_not_read_are_rejected(command):
    with pytest.raises(SystemExit) as err:
        main(command)
    assert err.value.code == 2


def test_figure_command_runs(tmp_path, config_file):
    code = main(["figure", "fig2", "--config", str(config_file),
                 "--out", str(tmp_path / "out"), "--grid", "40"])
    assert code == 0
    assert (tmp_path / "out" / "fig2.csv").exists()


def test_reproduce_figures_script_writes_every_panel(tmp_path):
    src = Path(optomech_bistab.__file__).resolve().parents[1]
    script = Path(__file__).resolve().parents[1] / "scripts" \
        / "reproduce_figures.py"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, str(script), "--grid", "3",
                          "--out", str(tmp_path)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        sorted(f"{fig_id}.csv" for fig_id in harness.FIGURE_IDS)


def test_figure_rejects_unknown_id(tmp_path, config_file):
    with pytest.raises(SystemExit) as err:
        main(["figure", "fig17", "--config", str(config_file),
              "--out", str(tmp_path / "out")])
    assert err.value.code == 2


def test_missing_config_file(tmp_path, capsys):
    code = main(["steady", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert "cannot read" in capsys.readouterr().err


def test_malformed_config(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("finesse = -3\n")
    code = main(["steady", "--config", str(bad),
                 "--out", str(tmp_path / "out")])
    assert code == 2


def test_numerical_failure_exit_code(monkeypatch, capsys):
    from optomech_bistab import cli
    from optomech_bistab.errors import UnstableSystemError

    def boom(args):
        raise UnstableSystemError(complex(0.1, 1.0))

    monkeypatch.setitem(cli._COMMANDS, "optima", boom)
    assert main(["optima"]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_validity_threshold_flag(tmp_path, config_file):
    # a permissive threshold flips the validity flag on marginal points
    args = ["sweep", "--config", str(config_file),
            "--axis1", "eta=0.001:0.001:1", "--grid", "1"]
    strict = tmp_path / "strict"
    loose = tmp_path / "loose"
    assert main(args + ["--out", str(strict),
                        "--validity-threshold", "1e-9"]) == 0
    assert main(args + ["--out", str(loose),
                        "--validity-threshold", "1e9"]) == 0

    def flag(path):
        lines = [l for l in (path / "sweep.csv").read_text().splitlines()
                 if not l.startswith("#")]
        header = lines[0].split(",")
        return lines[1].split(",")[header.index("validity_ok")]

    assert flag(strict) == "0"
    assert flag(loose) == "1"


# row statuses of a sweep, less the error:<exception> rows of a per-row
# exception the harness did not expect
STATUSES = {harness.STATUS_OK, harness.STATUS_UNSTABLE, harness.STATUS_MARGINAL,
            harness.STATUS_CONDITIONING, harness.STATUS_DEGENERATE}

# edge inputs that must end in exit 0 with CSV rows (each with one of
# STATUSES where the CSV has a status column), never in a traceback; each
# config edit replaces one line of CONFIG
EDGE_PROBES = [
    ("power_W = 0", ["sweep", "--axis1", "bare_detuning=0.5:4:5"]),
    ("temperature_K = 0", ["sweep", "--axis1", "power=0.01:0.1:5"]),
    ("bare_detuning = -2.62e7", ["sweep", "--axis1", "power=0.01:0.1:5"]),
    (None, ["sweep", "--axis1", "power=0:1e6:20"]),
    (None, ["figure", "fig2", "--grid", "1"]),
    (None, ["figure", "fig2", "--grid", "2"]),
    (None, ["figure", "fig3a", "--grid", "1"]),
    (None, ["figure", "fig3a", "--grid", "2"]),
    (None, ["figure", "fig5a", "--grid", "1"]),
    (None, ["figure", "fig5a", "--grid", "2"]),
    (None, ["sweep", "--axis1", "eta=-5:1", "--axis2", "effective_detuning=1:1:1"]),
    (None, ["sweep", "--axis1", "eta=1e-9:1e-3",
            "--axis2", "effective_detuning=1:1:1"]),
    (None, ["sweep", "--axis1", "coupling=0:50",
            "--axis2", "effective_detuning=1:1:1"]),
]


@pytest.mark.parametrize("edit,command", EDGE_PROBES,
                         ids=[" ".join(filter(None, [e, *c])) for e, c in EDGE_PROBES])
def test_edge_inputs_end_in_status_rows(tmp_path, edit, command):
    config = CONFIG
    if edit is not None:
        key = edit.split(" = ")[0]
        config = re.sub(rf"^{key} = .*$", edit, CONFIG, flags=re.M)
        assert config != CONFIG
    path = tmp_path / "edge.cfg"
    path.write_text(config)
    out = tmp_path / "out"
    assert main(command + ["--config", str(path), "--out", str(out)]) == 0
    (csv,) = out.glob("*.csv")
    lines = [l for l in csv.read_text().splitlines() if not l.startswith("#")]
    header, rows = lines[0].split(","), [l.split(",") for l in lines[1:]]
    assert rows
    if "status" in header:
        assert {r[header.index("status")] for r in rows} <= STATUSES
