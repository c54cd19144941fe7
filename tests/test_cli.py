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
    assert capsys.readouterr().out.splitlines() == [
        " lower: q_s=5.525973e+04 photons=2.576973e+09 Delta=1.4350 wm  "
        "eta=0.1539 stable=True",
        "middle: q_s=8.044402e+04 photons=3.751413e+09 Delta=0.8950 wm  "
        "eta=-0.1183 stable=False",
        " upper: q_s=1.086575e+05 photons=5.067118e+09 Delta=0.2900 wm  "
        "eta=0.3389 stable=True",
        f"wrote {tmp_path / 'out' / 'steady.csv'}",
    ]


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
    ["sweep", "--axis1", "power=0.01:0.02", "--validity-threshold", "0.5"],
    ["figure", "fig2", "--validity-threshold", "0.5"],
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
    # exp(hbar*omega_m/kB*T) overflows, or kB*T underflows to 0
    ("temperature_K = 1e-7", ["steady"]),
    ("temperature_K = 1e-7", ["figure", "fig4"]),
    ("temperature_K = 1e-310", ["steady"]),
    (None, ["sweep", "--axis1", "temperature=1e-9:1:3"]),
    (None, ["sweep", "--axis1", "temperature=1e-320:1:3"]),
]


def _probe_ids(probes):
    return [" ".join(filter(None, [e, *c])) for e, c, *_ in probes]


def _run_probe(tmp_path, edit, command):
    """Exit code of ``command`` run on CONFIG with one line replaced by
    ``edit``, and the CSV rows it wrote: (header, rows), or None."""
    config = CONFIG
    if edit is not None:
        key = edit.split(" = ")[0]
        config = re.sub(rf"^{key} = .*$", edit, CONFIG, flags=re.M)
        assert config != CONFIG
    path = tmp_path / "edge.cfg"
    path.write_text(config)
    out = tmp_path / "out"
    # optima writes no file and takes no --out
    code = main(command + ["--config", str(path)]
                + ([] if command[0] == "optima" else ["--out", str(out)]))
    csvs = list(out.glob("*.csv"))
    if not csvs:
        return code, None
    (csv,) = csvs
    lines = [l for l in csv.read_text().splitlines() if not l.startswith("#")]
    return code, (lines[0].split(","), [l.split(",") for l in lines[1:]])


@pytest.mark.parametrize("edit,command", EDGE_PROBES, ids=_probe_ids(EDGE_PROBES))
def test_edge_inputs_end_in_status_rows(tmp_path, edit, command):
    code, (header, rows) = _run_probe(tmp_path, edit, command)
    assert code == 0
    assert rows
    if "status" in header:
        assert {r[header.index("status")] for r in rows} <= STATUSES


# inputs that overflow a double on the way to a steady state (a square,
# the coupling backed out of eta, the photon energy, the cubic's
# coefficients and its closed-form roots): each must end in exit 2 with an
# error naming an input, never in a traceback or a warning
OVERFLOW_PROBES = [
    (None, ["sweep", "--axis1", "eta=-1e300", "--axis2", "effective_detuning=1"],
     "eta"),
    (None, ["sweep", "--axis1", "eta=0.5", "--axis2",
            "effective_detuning=1e-320"], "effective_detuning"),
    (None, ["sweep", "--axis1", "eta=0.5", "--axis2",
            "effective_detuning=1e300"], "effective_detuning"),
    (None, ["sweep", "--axis1", "eta=1", "--axis2", "effective_detuning=1e143"],
     "effective_detuning"),
    (None, ["sweep", "--axis1", "bare_detuning=1e150:1e151:3"], "delta0"),
    ("bare_detuning = 1e160", ["steady"], "delta0"),
    ("bare_detuning = 1e160", ["figure", "fig2"], "delta0"),
    ("bare_detuning = 1e160", ["figure", "fig4"], "delta0"),
    ("bare_detuning = 1e160", ["figure", "fig5a"], "delta0"),
    ("kappa_override = 1e200", ["steady"], "kappa"),
    ("kappa_override = 1e200", ["figure", "fig2"], "kappa"),
    ("mech_freq = 1e150", ["steady"], "omega_m"),
    ("mech_freq = 1e150", ["sweep", "--axis1", "power=0.01:0.1:5"], "omega_m"),
    ("mech_freq = 1e150", ["figure", "fig2"], "omega_m"),
    ("mech_freq = 1e150", ["figure", "fig4"], "omega_m"),
    ("mech_freq = 1e150", ["figure", "fig5a"], "omega_m"),
    ("cavity_length_m = 1e300", ["steady"], "cavity_length"),
    ("cavity_length_m = 1e300", ["sweep", "--axis1", "power=0.01:0.1:5"],
     "cavity_length"),
    ("cavity_length_m = 1e300", ["figure", "fig2"], "cavity_length"),
    ("cavity_length_m = 1e300", ["figure", "fig4"], "cavity_length"),
    ("cavity_length_m = 1e300", ["figure", "fig5a"], "cavity_length"),
    ("cavity_length_m = 1e-300", ["steady"], "cavity_length"),
    ("cavity_length_m = 1e-300", ["figure", "fig2"], "cavity_length"),
    *(("wavelength_m = 1e300", command, "wavelength") for command in (
        ["steady"], ["optima"], ["figure", "fig2"], ["figure", "fig4"],
        ["figure", "fig5a"], ["sweep", "--axis1", "power=0.01:0.1:5"])),
    ("wavelength_m = 1e-300", ["steady"], "wavelength"),
    ("wavelength_m = 1e-300", ["figure", "fig2"], "wavelength"),
    ("power_W = 1e300", ["steady"], "power"),
    # a finite drive whose term of the closed-form roots overflows
    ("power_W = 1e273", ["steady"], "power"),
    (None, ["sweep", "--axis1", "power=1e200:1e300:3"], "power"),
]


@pytest.mark.parametrize("edit,command,name", OVERFLOW_PROBES,
                         ids=_probe_ids(OVERFLOW_PROBES))
def test_overflowing_inputs_exit_2(tmp_path, capsys, edit, command, name):
    code, _ = _run_probe(tmp_path, edit, command)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and name in err
    assert "Warning" not in err


def test_overflowing_covariance_is_never_ok(tmp_path):
    # kB*T = 1.4e277 J: the determinants of the covariance overflow
    code, (header, rows) = _run_probe(
        tmp_path, None, ["sweep", "--axis1", "temperature=1e300"])
    assert code == 0
    assert rows
    assert {r[header.index("status")] for r in rows} == \
        {"error:PhysicalityError"}
