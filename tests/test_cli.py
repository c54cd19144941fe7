import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import optomech_bistab
from optomech_bistab import __version__, dynamics, harness
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

# CONFIG without the override: kappa derived from the finesse and the length
CONFIG_DERIVED_KAPPA = CONFIG.replace("kappa_override = 1.4e7\n", "")


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


def test_a_sweep_above_the_norm_bound_keeps_the_eigenvalue_tests(tmp_path, monkeypatch):
    # from Delta = 1.7e8 omega_m on, ||A||_F is above the norm bound of the
    # spectrum-free solve, and the mechanical eigenvalue pair sums to
    # gamma_m = 1e-5 omega_m, below 1e-12 of the spectral radius: the
    # solve's eigenvalue tests make those 24 rows conditioning, which the
    # packed solve alone would call ok
    def run(out):
        assert main(["sweep", "--axis1", "coupling=0:1:4",
                     "--axis2", "effective_detuning=1e3:1e9:7",
                     "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        rows = [l.split(",") for l in lines if not l.startswith("#")]
        return [r[rows[0].index("status")] for r in rows[1:]]

    assert run(tmp_path / "a") == ["ok"] * 4 + ["conditioning"] * 24
    monkeypatch.setattr(dynamics, "_SPECTRUM_FREE_NORM", math.inf)
    assert run(tmp_path / "b") == ["ok"] * 28


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


@pytest.mark.parametrize("bare_detuning", ["0", "-2.62e7"])
def test_eta_sweep_at_a_non_positive_bare_detuning_names_it(tmp_path, capsys,
                                                             bare_detuning):
    # without an effective_detuning axis the eta sweep runs at the bare one
    config = tmp_path / "params.cfg"
    config.write_text(CONFIG.replace("bare_detuning = 2.62e7",
                                     f"bare_detuning = {bare_detuning}"))
    code = main(["sweep", "--config", str(config), "--out", str(tmp_path / "out"),
                 "--axis1", "eta=0.5"])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: bare_detuning: must be positive for an eta sweep " \
                  "without an effective_detuning axis\n"


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


# row statuses of a sweep, less the sixth, STATUS_UNPHYSICAL, of an
# unphysical covariance
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
    # hbar*omega_m/kB*T underflows to 0: nbar is inf, as where it is subnormal
    ("mech_freq = 1e-15; temperature_K = 1e308", ["steady"]),
]


def _probe_ids(probes):
    return [" ".join(filter(None, [e, *c])) for e, c, *_ in probes]


def _run_probe(tmp_path, edit, command, base=CONFIG):
    """Exit code of ``command`` run on ``base`` with each line of ``edit``
    ("key = value", joined by "; ") replacing its key's line, and the CSV
    rows it wrote: (header, rows), or None."""
    config = base
    for line in edit.split("; ") if edit is not None else ():
        key = line.split(" = ")[0]
        edited = re.sub(rf"^{key} = .*$", line, config, flags=re.M)
        assert edited != config
        config = edited
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
    # G^2 (and eta) overflow; from about 1e150 omega_m the photon number too
    (None, ["sweep", "--axis1", "coupling=1e147", "--axis2",
            "effective_detuning=1"], "coupling"),
    (None, ["sweep", "--axis1", "coupling=1e200", "--axis2",
            "effective_detuning=1"], "coupling"),
    (None, ["sweep", "--axis1", "bare_detuning=1e150:1e151:3"], "delta0"),
    ("bare_detuning = 1e160", ["steady"], "delta0"),
    ("bare_detuning = 1e160", ["figure", "fig2"], "delta0"),
    ("bare_detuning = 1e160", ["figure", "fig4"], "delta0"),
    ("bare_detuning = 1e160", ["figure", "fig5a"], "delta0"),
    ("kappa_override = 1e200", ["steady"], "kappa"),
    ("kappa_override = 1e200", ["figure", "fig2"], "kappa"),
    # kappa^2 overflows and so does the drive E it gives: named by its inputs
    ("kappa_override = 1e300", ["steady"], "power, kappa_override"),
    ("kappa_override = 1e300", ["sweep", "--axis1", "power=0.01:0.1:5"],
     "power, kappa_override"),
    # G0 underflows to 0: not a decoupled cavity
    ("mass_kg = 1e300", ["steady"], "cavity_length, mass, omega_m"),
    ("mass_kg = 1e300", ["figure", "fig5a"], "cavity_length, mass, omega_m"),
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
    # omega_c/cavity_length overflows on a bare_detuning grid, and kappa^2
    # keeps the config's own derive from naming the infinite G0
    ("cavity_length_m = 2.2e-308; mech_damping = 1e247; kappa_override = 1.4e170",
     ["sweep", "--grid", "3", "--axis1", "power=0.01:0.1",
      "--axis2", "bare_detuning=0.5:4"], "G0"),
]


@pytest.mark.parametrize("edit,command,name", OVERFLOW_PROBES,
                         ids=_probe_ids(OVERFLOW_PROBES))
def test_overflowing_inputs_exit_2(tmp_path, capsys, edit, command, name):
    code, _ = _run_probe(tmp_path, edit, command)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and name in err
    assert "Warning" not in err


# inputs whose derived mass*omega_m or decay rate kappa is 0 in double
# precision: each must end in exit 2 naming the inputs, never in a
# traceback. All but the first derive kappa from the finesse and the length
DERIVED_ZERO_PROBES = [
    ("mech_freq = 5e-324", ["steady"], "mass, omega_m", CONFIG),
    # 2*finesse*cavity_length underflows to 0
    ("finesse = 5e-324", ["figure", "fig6", "--grid", "3"],
     "cavity_length, finesse", CONFIG_DERIVED_KAPPA),
    # 2*finesse*cavity_length overflows, and kappa = pi*c/inf is 0
    ("finesse = 1e308", ["figure", "fig4", "--grid", "5"],
     "cavity_length, finesse", CONFIG_DERIVED_KAPPA),
    ("cavity_length_m = 1e308", ["figure", "fig2", "--grid", "7"],
     "cavity_length, finesse", CONFIG_DERIVED_KAPPA),
]


@pytest.mark.parametrize("edit,command,name,base", DERIVED_ZERO_PROBES,
                         ids=_probe_ids(DERIVED_ZERO_PROBES))
def test_a_derived_zero_exits_2(tmp_path, capsys, edit, command, name, base):
    code, _ = _run_probe(tmp_path, edit, command, base)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {name}: out of range")
    assert "Warning" not in err


def test_overflowing_covariance_is_never_ok(tmp_path):
    # kB*T = 1.4e277 J: the determinants of the covariance overflow
    code, (header, rows) = _run_probe(
        tmp_path, None, ["sweep", "--axis1", "temperature=1e300"])
    assert code == 0
    assert rows
    assert {r[header.index("status")] for r in rows} == \
        {"error:PhysicalityError"}


# --- the CLI's edges, fuzzed ---------------------------------------------------

# key -> value of every line of CONFIG
_CONFIG_VALUES = dict(re.findall(r"^(\w+) = (\S+)$", CONFIG, flags=re.M))

# values a config key is set to besides its own moved by up to 40 decades
# or negated
_EDGE_VALUES = (0.0, -0.0, 5e-324, 1e308, math.inf, math.nan)

# every subcommand, at small grids
_FUZZED_COMMANDS = [
    ["steady"], ["optima"],
    *(["figure", fig, "--grid", "3"] for fig in harness.FIGURE_IDS),
    *(["sweep", "--grid", "3", *axes] for axes in (
        ["--axis1", "power=0.01:0.1"],
        ["--branch", "all", "--axis1", "power=0.01:0.1"],
        ["--axis1", "temperature=0.1:10"],
        ["--axis1", "power=0.01:0.1", "--axis2", "bare_detuning=0.5:4"],
        ["--axis1", "eta=0.1:1", "--axis2", "effective_detuning=0.5:3"],
        ["--axis1", "coupling=0.1:1", "--axis2", "effective_detuning=0.5:3"])),
]


@st.composite
def _config_edits(draw) -> dict:
    """One to three numeric config keys, each set to an edge value or to
    its CONFIG value moved by up to 40 decades or negated."""
    keys = draw(st.lists(st.sampled_from(sorted(
        k for k in _CONFIG_VALUES if k != "freq_convention")),
        min_size=1, max_size=3, unique=True))
    edits = {}
    for key in keys:
        value = float(_CONFIG_VALUES[key])
        edits[key] = draw(st.sampled_from(_EDGE_VALUES) | st.just(-value)
                          | st.integers(-40, 40).map(lambda d: value * 10.0 ** d))
    return edits


@settings(max_examples=250, deadline=None, derandomize=True)
@given(edits=_config_edits(), derived_kappa=st.booleans(),
       command=st.sampled_from(_FUZZED_COMMANDS))
# the configs that once ended in a traceback: DERIVED_ZERO_PROBES, the hot
# bath of EDGE_PROBES and rates whose squares underflow in max_entanglement
@example(edits={"mech_freq": 5e-324}, derived_kappa=False, command=["steady"])
@example(edits={"finesse": 5e-324}, derived_kappa=True,
         command=["figure", "fig6", "--grid", "3"])
@example(edits={"finesse": 1e308}, derived_kappa=True,
         command=["figure", "fig4", "--grid", "5"])
@example(edits={"cavity_length_m": 1e308}, derived_kappa=True,
         command=["figure", "fig2", "--grid", "7"])
@example(edits={"wavelength_m": 8.1e15, "mech_freq": 1e-15, "temperature_K": 1e308},
         derived_kappa=True, command=["figure", "fig3b", "--grid", "3"])
@example(edits={"mech_freq": 1e-170, "kappa_override": 1e-170},
         derived_kappa=False, command=["optima"])
def test_no_config_ends_in_a_traceback(edits, derived_kappa, command):
    # derived_kappa drops kappa_override, so that kappa comes from the
    # finesse and the length
    values = {**_CONFIG_VALUES, **{key: repr(v) for key, v in edits.items()}}
    if derived_kappa:
        del values["kappa_override"]
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        config = Path(tmp) / "edge.cfg"
        config.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        code = main(command + ["--config", str(config)]
                    + ([] if command[0] == "optima" else ["--out", tmp]))
        assert code in (0, 2)
        for csv in Path(tmp).glob("*.csv"):
            lines = [l for l in csv.read_text().splitlines() if not l.startswith("#")]
            header = lines[0].split(",")
            if "status" in header:
                assert {l.split(",")[header.index("status")] for l in lines[1:]} \
                    <= STATUSES | {harness.STATUS_UNPHYSICAL}
