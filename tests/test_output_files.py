"""Every output file is written through ``records.atomic_open``: a write
that is interrupted leaves the old file, or no file, at the path."""

import json

import pytest

from gadmm import cli, problems, records, solver

from conftest import run_full


class Interrupted(BaseException):
    """Stands in for a KeyboardInterrupt or a kill during a write."""


class InterruptingFile:
    """A text file whose ``after``-th write raises :class:`Interrupted`."""

    def __init__(self, fh, after):
        self._fh, self._left = fh, after

    def write(self, text):
        self._left -= 1
        if self._left == 0:
            raise Interrupted
        return self._fh.write(text)

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._fh.__exit__(*exc)


def interrupt_writes(monkeypatch, after):
    """Make the ``after``-th write of each file ``atomic_open`` opens raise."""

    def opener(*args, **kwargs):
        return InterruptingFile(open(*args, **kwargs), after)

    monkeypatch.setattr(records, "open", opener, raising=False)


@pytest.fixture(scope="module")
def outputs():
    """One writer per kind of output file, each taking the target path."""
    inst = problems.generate_qp(7, 4, 3, 2)
    traj = run_full(inst, alpha=1.5, iters=40)
    return {
        "instance": lambda path: problems.save_instance(inst, path),
        "trajectory": lambda path: solver.save_trajectory_csv(traj, path),
        "json": lambda path: records.write_json(path, {"iterations": 40, "checks": [{}]}),
    }


WRITERS = ["instance", "trajectory", "json"]
# The write each test interrupts: a trajectory's third (its header and
# rows 0 and 1 are one write each), or a JSON file's first, its whole text.
INTERRUPTED_WRITE = {"instance": 1, "trajectory": 3, "json": 1}


@pytest.mark.parametrize("writer", WRITERS)
@pytest.mark.parametrize("old", [b"old contents\n", None], ids=["old-file", "no-file"])
def test_interrupted_write_leaves_the_old_file(tmp_path, monkeypatch, outputs, writer, old):
    path = tmp_path / "out.file"
    if old is not None:
        path.write_bytes(old)
    interrupt_writes(monkeypatch, after=INTERRUPTED_WRITE[writer])
    with pytest.raises(Interrupted):
        outputs[writer](path)
    assert (path.read_bytes() if path.exists() else None) == old
    assert sorted(p.name for p in tmp_path.iterdir()) == (["out.file"] if old else [])


@pytest.mark.parametrize("writer", WRITERS)
def test_completed_write_replaces_the_file(tmp_path, outputs, writer):
    path = tmp_path / "out.file"
    path.write_bytes(b"old contents\n")
    outputs[writer](path)
    assert path.read_bytes() != b"old contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.file"]


def test_interrupted_rerun_keeps_the_run_that_verifies(tmp_path, monkeypatch, capsys):
    """A rerun into the same directory that is interrupted while it writes
    trajectory rows leaves the first run's trajectory and summary, which
    still verify with the first run's flags."""
    inst_path = tmp_path / "qp.json"
    problems.save_instance(problems.generate_qp(1, 4, 3, 2), inst_path)
    out = tmp_path / "out"
    base = ["--instance", str(inst_path), "--max-iter", "60", "--stop-tol", "0"]
    assert cli.main(["run", *base, "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    interrupt_writes(monkeypatch, after=20)
    with pytest.raises(Interrupted):
        cli.main(["run", *base, "--alpha", "1.5", "--out", str(out)])
    monkeypatch.undo()
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert json.loads(before["summary.json"])["alpha"] == 1.0
    traj_path = str(out / "trajectory.csv")
    capsys.readouterr()
    assert cli.main(["verify", *base, "--trajectory", traj_path]) == 0
