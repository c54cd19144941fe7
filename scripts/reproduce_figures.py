#!/usr/bin/env python3
"""Emit the CSV data behind every figure panel in one go.

Usage:
    python scripts/reproduce_figures.py [--out DIR] [--config PATH] [--grid N]
                                        [--only FIG [FIG ...]]

With no arguments this runs the bundled default parameter set at the
default grid resolutions: about 0.8 s (0.74-0.80 s over three runs, start
to exit) on a shared 2-CPU Intel Xeon VM with Python 3.11, most of it in
fig5a (0.4 s) and fig3a (0.1 s). Panels that share a sweep (``SAME_SWEEP_AS``:
fig3b with fig3a, fig5b with fig5a) run it once; the second file is a
copy of the first. Pass --grid 41 or so for a quick smoke run, and --only
with figure ids (fig2 ... fig6) to emit just those panels.
"""

import argparse
import shutil
import time
from pathlib import Path

from optomech_bistab import __version__, figure_command, load_config
from optomech_bistab.harness import FIGURE_IDS, SAME_SWEEP_AS
from optomech_bistab.params import default_params


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("out"))
    parser.add_argument("--config", type=Path, default=None)
    parser.add_argument("--grid", type=int, default=None)
    parser.add_argument("--only", nargs="*", choices=FIGURE_IDS, default=None)
    args = parser.parse_args()

    physical = load_config(args.config) if args.config else default_params()
    targets = args.only or FIGURE_IDS
    written = {}  # sweep -> CSV of the first panel that ran it
    for fig_id in targets:
        start = time.time()
        sweep_id = SAME_SWEEP_AS.get(fig_id, fig_id)
        if sweep_id in written:
            paths = [shutil.copyfile(written[sweep_id],
                                     args.out / f"{fig_id}.csv")]
        else:
            paths = figure_command(fig_id, physical, args.out, grid=args.grid,
                                   version=__version__)
            written[sweep_id] = paths[0]
        names = ", ".join(p.name for p in paths)
        print(f"{fig_id}: {names} ({time.time() - start:.1f} s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
