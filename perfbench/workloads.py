"""The three workloads: the units of one pass, its row accounting and its gate.

A pass is a list of units (figure panels), each timed on its own so that
a run can take every unit's fastest time. Each unit calls
``figure_command`` (without ``threads``) and writes its CSV to the run's
scratch directory.
"""

from __future__ import annotations

import functools
import hashlib
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import optomech_bistab as ob
from optomech_bistab import PhysicalParams

import gate
import inputs

# fixed CSV header so that every pass writes byte-identical files
VERSION = "bench"
TIMESTAMP = "1970-01-01T00:00:00Z"


@dataclass
class PassResult:
    rows: int          # CSV rows emitted
    failed: int        # rows with status error:* or conditioning
    ok_rows: int       # rows with status ok
    bytes: int = 0     # CSV bytes written
    digest: str = ""   # hash of everything the pass produced
    statuses: dict[str, int] = field(default_factory=dict)


class FigureWorkload:
    """One or more ``figure`` panels on a square grid."""

    def __init__(self, figures: tuple[str, ...], grid: int,
                 physical: PhysicalParams, checker):
        self.figures = figures
        self.grid = grid
        self.physical = physical
        self._checker = checker

    def expected_rows(self) -> int:
        if self.figures == ("fig2",):
            return self.grid    # at least one steady state per power
        return len(self.figures) * self.grid ** 2

    def units(self, out_dir: Path) -> list:
        return [functools.partial(ob.figure_command, fig, self.physical, out_dir,
                                  grid=self.grid, version=VERSION,
                                  timestamp=TIMESTAMP)
                for fig in self.figures]

    def summarize(self, outputs: list[list[Path]]) -> PassResult:
        digest = hashlib.sha256()
        result = PassResult(rows=0, failed=0, ok_rows=0)
        statuses: Counter[str] = Counter()
        for path in (p for paths in outputs for p in paths):
            data = path.read_bytes()
            digest.update(data)
            result.bytes += len(data)
            lines = [line for line in data.decode().splitlines()
                     if not line.startswith("#")]
            result.rows += len(lines) - 1
            header = lines[0].split(",")
            if "status" in header:
                idx = header.index("status")
                statuses.update(line.split(",")[idx] for line in lines[1:])
        result.statuses = dict(statuses)
        result.failed = sum(c for s, c in statuses.items() if gate.is_failed(s))
        result.ok_rows = statuses["ok"]
        result.digest = digest.hexdigest()
        return result

    def check(self, outputs: list[list[Path]],
              rng: np.random.Generator) -> list[str]:
        return [problem for paths in outputs for path in paths
                for problem in self._checker(path, self.physical, self.grid, rng)]


# name -> (figure panels of one pass, grid points per axis, gate check).
# Each figure call takes well under 0.1 s: on a shared machine the fastest
# of many short calls repeats from run to run, the fastest of a few long
# ones does not (see README.md). Why each workload exists is recorded in
# BENCHMARK.json and README.md.
WORKLOADS = {
    "entanglement_surface": (("fig3a", "fig3b"), 15, gate.check_entanglement_surface),
    "bistability_map": (("fig5a", "fig5b"), 15, gate.check_bistability_map),
    "power_hysteresis": (("fig2",), 1000, gate.check_power_hysteresis),
}


def make(name: str, seed: int) -> FigureWorkload:
    """Build workload ``name`` on the inputs of ``seed``."""
    figures, grid, checker = WORKLOADS[name]
    return FigureWorkload(figures, grid, inputs.physical_params(seed), checker)
