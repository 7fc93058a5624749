#!/usr/bin/env python3
"""Print the memory of each phase of ``gadmm verify`` on the benchmark's
commands.

For the first command of every workload of ``perfbench/workloads.WORKLOADS``
the script generates the command's instance and runs ``gadmm run`` in a
temporary directory, then runs ``gadmm verify`` on the trajectory it wrote
under tracemalloc.  It prints, for each phase of the verify, the traced peak
while that phase ran, above the traced level at the verify's start, in MB
and as a multiple of the record's size ``Z.nbytes`` ((K+1) x (n+p+m)
doubles).  The phases are the reading of the trajectory's lines
(``TrajectoryText``), ``load_instance``, ``load_trajectory_csv``, the
``Replay``, the ergodic pass (``_ergodic_checks``) and ``settle``; the
last line is the peak of the whole verify.  Memory of forked reader
workers and of BLAS's own buffers is not traced.

The gadmm package is imported from this checkout's ``src``.

Usage: python scripts/working_set.py [WORKLOAD ...]
"""

import contextlib
import io
import os
import sys
import tempfile
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import workloads  # noqa: E402  (perfbench is a directory of scripts, not a package)

sys.path.insert(0, workloads.SRC)
from gadmm import certificates, cli, hpe, problems, records, solver  # noqa: E402

MB = 1e6
# (label, owner, attribute) of each phase, in the order a verify runs them
PHASES = (
    ("TrajectoryText", records.TrajectoryText, "__init__"),
    ("load_instance", problems, "load_instance"),
    ("load_trajectory_csv", solver, "load_trajectory_csv"),
    ("Replay", hpe.Replay, "__init__"),
    ("_ergodic_checks", certificates, "_ergodic_checks"),
    ("settle", hpe, "settle"),
)


class PhasePeaks:
    """Wraps each phase so that it records the traced peak while it ran,
    and keeps the peak of everything traced since :meth:`start`."""

    def __init__(self):
        self.peaks, self.overall, self.record_bytes, self._base = {}, 0, None, 0
        self._saved = []

    def _fold(self) -> int:
        """The peak since the last reset, folded into the overall peak."""
        peak = tracemalloc.get_traced_memory()[1] - self._base
        self.overall = max(self.overall, peak)
        return peak

    def _wrap(self, label, original):
        def phase(*args, **kwargs):
            self._fold()
            tracemalloc.reset_peak()
            try:
                out = original(*args, **kwargs)
            finally:
                self.peaks[label] = max(self.peaks.get(label, 0), self._fold())
                tracemalloc.reset_peak()
            if label == "load_trajectory_csv":
                self.record_bytes = out.Z.nbytes
            return out

        return phase

    @contextlib.contextmanager
    def installed(self):
        for label, owner, attr in PHASES:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(label, original))
        try:
            yield self
        finally:
            while self._saved:
                setattr(*self._saved.pop())

    @contextlib.contextmanager
    def traced(self):
        tracemalloc.start()
        try:
            self._base = tracemalloc.get_traced_memory()[0]
            yield
            self._fold()
        finally:
            tracemalloc.stop()


def _quiet(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def measure(name) -> str:
    """The table of the first command of workload ``name``."""
    workload = workloads.WORKLOADS[name]
    cmd = workload.commands[0]
    with tempfile.TemporaryDirectory() as tmp:
        for inst in workload.instances:
            if inst.name == cmd.instance and _quiet(workloads.generate_argv(inst, tmp)) != 0:
                raise RuntimeError(f"gadmm generate failed for {inst}")
        inst_path = os.path.join(tmp, cmd.instance + ".json")
        out = os.path.join(tmp, "run")
        if _quiet(workloads.run_argv(cmd, inst_path, out)) != 0:
            raise RuntimeError(f"gadmm run failed for {cmd}")
        traj = os.path.join(out, "trajectory.csv")
        argv = workloads.verify_argv(cmd, inst_path, traj, os.path.join(out, "verify.json"))
        probe = PhasePeaks()
        with probe.installed(), probe.traced():
            code = _quiet(argv)
    record = probe.record_bytes
    lines = [
        f"{name}: {cmd.instance} alpha={cmd.alpha!r} max_iter={cmd.max_iter}, "
        f"verify exit {code}, Z.nbytes = {record / MB:.3f} MB",
        f"  {'phase':<20} {'peak MB':>9} {'x Z':>7}",
    ]
    rows = [(label, probe.peaks.get(label, 0)) for label, _, _ in PHASES]
    for label, peak in rows + [("verify", probe.overall)]:
        lines.append(f"  {label:<20} {peak / MB:9.3f} {peak / record:7.2f}")
    return "\n".join(lines)


def main(argv) -> int:
    names = argv or list(workloads.WORKLOADS)
    unknown = [name for name in names if name not in workloads.WORKLOADS]
    if unknown:
        print(f"unknown workload {', '.join(unknown)}", file=sys.stderr)
        return 2
    print("\n\n".join(measure(name) for name in names))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
