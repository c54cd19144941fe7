"""Command-line interface.

Commands: steady, sweep, figure <id>, optima. Exit codes: 0 on success,
2 on validation/usage errors. A failed working point is a CSV status row;
any other exception is a defect and ends in a traceback.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__, harness, quantum
from .errors import ValidationError
from .params import default_params, derive_model, load_config

EXIT_OK = 0
EXIT_VALIDATION = 2


def _parse_axis(text: str, n_default: int,
                omega_m: float) -> harness.AxisSpec:
    """Parse NAME=LO:HI[:N] into an axis; NAME=VALUE gives a single point.

    LO:HI without N takes ``n_default`` points. Detunings and the coupling
    are given in units of omega_m and scaled here; power in W,
    temperature in K, eta dimensionless.
    """
    if "=" not in text:
        raise ValidationError(f"axis: expected NAME=LO:HI[:N], got {text!r}")
    name, _, grid = text.partition("=")
    name = name.strip()
    parts = grid.split(":")
    if len(parts) > 3:
        raise ValidationError(f"axis {name}: bad grid {grid!r}")
    try:
        bounds = [float(x) for x in parts[:2]]
        n = int(parts[2]) if len(parts) > 2 else n_default
    except ValueError as exc:
        raise ValidationError(f"axis {name}: bad grid {grid!r}") from exc
    values = tuple(bounds) if len(bounds) == 1 else \
        harness.linear_grid(*bounds, n)
    if name in harness.RATE_AXES:
        values = tuple(v * omega_m for v in values)
    return harness.AxisSpec(name, values)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="optomech-bistab",
        description="Bistable-regime optomechanics: steady states, covariance "
                    "dynamics, cooling and entanglement data files.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_steady = sub.add_parser("steady", help="steady states at the config power")
    p_sweep = sub.add_parser("sweep", help="custom 1-D or 2-D parameter sweep")
    p_fig = sub.add_parser("figure", help="emit the data behind one figure panel")
    p_opt = sub.add_parser("optima", help="closed-form cooling/entanglement optima")

    # each subcommand takes exactly the flags its handler reads
    for p in (p_steady, p_sweep, p_fig, p_opt):
        p.add_argument("--config", type=Path, default=None,
                       help="parameter file (key = value); built-in defaults if omitted")
    for p in (p_steady, p_sweep, p_fig):
        p.add_argument("--out", type=Path, default=Path("out"),
                       help="output directory for CSV files")
    for p in (p_sweep, p_fig):
        p.add_argument("--grid", type=int, default=None,
                       help="points per sweep axis (figure/sweep defaults if omitted)")
    p_sweep.add_argument("--branch", choices=harness.BRANCH_CHOICES,
                         default="both", help="branch selection for sweeps")
    p_sweep.add_argument("--axis1", required=True,
                         help="NAME=LO:HI[:N]; names: " + ", ".join(harness.AXIS_NAMES))
    p_sweep.add_argument("--axis2", default=None, help="optional second axis")
    p_fig.add_argument("id", choices=harness.FIGURE_IDS)

    return parser


def _load_physical(args):
    if args.config is None:
        return default_params()
    return load_config(args.config)


def _cmd_steady(args) -> int:
    result = harness.steady_table(_load_physical(args))
    path = harness.write_csv(result, args.out / "steady.csv", __version__)
    line = ("{branch:>6}: q_s={q_s:.6e} photons={photons:.6e} "
            "Delta={Delta_over_wm:.4f} wm  eta={eta:.4f} stable={stable}")
    for row in zip(*result.columns.values()):
        print(line.format_map(dict(zip(result.columns, row))))
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    physical = _load_physical(args)
    n_default = args.grid if args.grid is not None else 101
    axis1 = _parse_axis(args.axis1, n_default, physical.omega_m)
    axis2 = None
    if args.axis2 is not None:
        axis2 = _parse_axis(args.axis2, n_default, physical.omega_m)
    spec = harness.SweepSpec(base=physical, axis1=axis1, axis2=axis2,
                             branch=args.branch)
    result = harness.sweep(spec)
    path = harness.write_csv(result, args.out / "sweep.csv", __version__)
    print(f"wrote {path} ({len(result.columns['status'])} rows)")
    return EXIT_OK


def _cmd_figure(args) -> int:
    physical = _load_physical(args)
    paths = harness.figure_command(args.id, physical, args.out,
                                   grid=args.grid, version=__version__)
    for path in paths:
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_optima(args) -> int:
    physical = _load_physical(args)
    mp = derive_model(physical)
    w = mp.omega_m
    d_cool = quantum.optimal_cooling_detuning(mp.kappa, w)
    n_min = quantum.cooling_limit(mp.kappa, w)
    d_ent = quantum.optimal_entanglement_detuning(mp.kappa, w)
    e_max = quantum.max_entanglement(mp.kappa, w)
    print(f"kappa/omega_m                 = {mp.kappa / w:.6f}")
    print(f"cooling Delta_opt/omega_m     = {d_cool / w:.6f}")
    print(f"cooling minimal n_m           = {n_min:.6e}")
    print(f"entanglement Delta_opt/omega_m= {d_ent / w:.6f}")
    print(f"entanglement max E_N          = {e_max:.6f}")
    return EXIT_OK


_COMMANDS = {
    "steady": _cmd_steady,
    "sweep": _cmd_sweep,
    "figure": _cmd_figure,
    "optima": _cmd_optima,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
