"""Figure 10: relative performance of the optimized kernels.

Five bars per cipher, each a speedup in total cycles for a session,
normalized to the original code *with rotates* on the 4W machine:

* ``Orig/4W``  -- original code without rotate instructions on 4W
  (shows the penalty of an ISA lacking rotates; < 1.0),
* ``Opt/4W``   -- the fully optimized kernel on 4W,
* ``Opt/4W+``  -- plus SBox caches and extra rotator units,
* ``Opt/8W+``  -- double execution bandwidth,
* ``Opt/DF``   -- the optimized kernel on the dataflow machine.

The section 6 headline numbers -- mean optimized speedup versus the
rotate baseline and versus the no-rotate baseline -- fall out of the same
measurements (:func:`summary`).  Each cipher needs three functional traces
(ROT, NOROT, OPT) and six timing runs; the runner dedups and caches them,
and for a kernel without rotates the NOROT and ROT 4W runs are one.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.rows import Row, coerce_options
from repro.isa import Features
from repro.kernels import KERNEL_NAMES
from repro.runner import (
    Experiment,
    ExperimentOptions,
    Runner,
    default_runner,
)
from repro.sim import DATAFLOW, EIGHTW_PLUS, FOURW, FOURW_PLUS

DEFAULT_SESSION_BYTES = 1024

BARS = ("orig/4W", "opt/4W", "opt/4W+", "opt/8W+", "opt/DF")


@dataclass
class SpeedupRow(Row):
    cipher: str
    baseline_cycles: int            # orig-rot on 4W (the normalization)
    orig_4w: float                  # orig-norot on 4W
    opt_4w: float
    opt_4w_plus: float
    opt_8w_plus: float
    opt_dataflow: float

    def bar(self, name: str) -> float:
        return {
            "orig/4W": self.orig_4w,
            "opt/4W": self.opt_4w,
            "opt/4W+": self.opt_4w_plus,
            "opt/8W+": self.opt_8w_plus,
            "opt/DF": self.opt_dataflow,
        }[name]


def default_options(
    session_bytes: int = DEFAULT_SESSION_BYTES,
    ciphers: tuple[str, ...] = KERNEL_NAMES,
) -> list[ExperimentOptions]:
    return [
        ExperimentOptions(
            cipher=name, features=Features.ROT, session_bytes=session_bytes
        )
        for name in ciphers
    ]


def _experiments(opt: ExperimentOptions) -> list[Experiment]:
    rot = opt.with_(features=Features.ROT)
    norot = opt.with_(features=Features.NOROT)
    optimized = opt.with_(features=Features.OPT)
    return [
        Experiment(rot, FOURW),
        Experiment(norot, FOURW),
        Experiment(optimized, FOURW),
        Experiment(optimized, FOURW_PLUS),
        Experiment(optimized, EIGHTW_PLUS),
        Experiment(optimized, DATAFLOW),
    ]


def run(
    options=None,
    *,
    runner: Runner | None = None,
) -> list[SpeedupRow]:
    """Measure Figure 10 rows (``options.features`` is ignored -- the bars
    fix the feature level per experiment)."""
    runner = runner or default_runner()
    option_list = coerce_options(options, default_options)
    batches = [_experiments(opt) for opt in option_list]
    results = runner.run([exp for batch in batches for exp in batch])
    rows = []
    width = 6
    for index, opt in enumerate(option_list):
        (rot_4w, norot_4w, opt_4w, opt_4wp, opt_8wp, opt_df) = (
            result.stats.cycles
            for result in results[index * width:(index + 1) * width]
        )
        rows.append(SpeedupRow(
            cipher=opt.cipher,
            baseline_cycles=rot_4w,
            orig_4w=rot_4w / norot_4w,
            opt_4w=rot_4w / opt_4w,
            opt_4w_plus=rot_4w / opt_4wp,
            opt_8w_plus=rot_4w / opt_8wp,
            opt_dataflow=rot_4w / opt_df,
        ))
    return rows


def measure(
    *,
    cipher: str,
    session_bytes: int = DEFAULT_SESSION_BYTES,
    runner: Runner | None = None,
) -> SpeedupRow:
    return run(
        ExperimentOptions(cipher=cipher, session_bytes=session_bytes),
        runner=runner,
    )[0]


def figure10(
    session_bytes: int = DEFAULT_SESSION_BYTES,
    ciphers: tuple[str, ...] = KERNEL_NAMES,
    *,
    runner: Runner | None = None,
) -> list[SpeedupRow]:
    return run(default_options(session_bytes, ciphers), runner=runner)


@dataclass
class SpeedupSummary(Row):
    """Section 6 headline aggregates (geometric means over the suite)."""

    mean_opt_vs_rot: float     # paper: 1.59 (59% speedup)
    mean_opt_vs_norot: float   # paper: 1.74 (74% speedup)


def summary(rows: list[SpeedupRow]) -> SpeedupSummary:
    def geomean(values: list[float]) -> float:
        product = 1.0
        for value in values:
            product *= value
        return product ** (1.0 / len(values))

    vs_rot = geomean([row.opt_4w for row in rows])
    # Against the no-rotate baseline: opt speedup / norot slowdown.
    vs_norot = geomean([row.opt_4w / row.orig_4w for row in rows])
    return SpeedupSummary(mean_opt_vs_rot=vs_rot, mean_opt_vs_norot=vs_norot)


def render_figure10(rows: list[SpeedupRow]) -> str:
    lines = [
        "Figure 10: Optimized Kernel Speedups (vs orig-with-rotates on 4W)",
        f"{'Cipher':<10}" + "".join(f"{bar:>10}" for bar in BARS),
    ]
    for row in rows:
        cells = "".join(f"{row.bar(bar):>10.2f}" for bar in BARS)
        lines.append(f"{row.cipher:<10}{cells}")
    agg = summary(rows)
    lines.append(
        f"mean Opt/4W speedup vs rot baseline: "
        f"{(agg.mean_opt_vs_rot - 1) * 100:.0f}%  (paper: 59%)"
    )
    lines.append(
        f"mean Opt/4W speedup vs no-rotate baseline: "
        f"{(agg.mean_opt_vs_norot - 1) * 100:.0f}%  (paper: 74%)"
    )
    return "\n".join(lines)
