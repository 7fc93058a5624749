"""Separable problem instances, generators, ground truth, instance I/O,
the atomic writer that every output file of the package goes through,
and the forked workers that format large files and parse large
trajectories on every usable CPU.

An instance is the tuple (f, g, A, B, b) for

    min f(x) + g(y)   subject to   A x + B y = b,

with f, g convex block functions from :mod:`gadmm.oracles`, plus an
optional first-order-optimal reference point (x*, y*, gamma*) solving

    0 in df(x) - A' gamma,   0 in dg(y) - B' gamma,   A x + B y - b = 0.

Generators produce instances whose reference point is computed by an
independent route (a direct saddle-system solve for quadratic blocks, a
proximal-gradient fixed point for the consensus l1 split), never by the
ADMM engine itself.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import threading
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import linalg, oracles
from .errors import ConfigError, IterationLimitError

# A stored reference point must pass the first-order optimality check at
# this gap for the instance to be accepted.
SOLUTION_GAP_TOL = 1e-6

# Full-row-rank requirement on [A B] for generated instances: smallest
# eigenvalue of [A B][A B]' must exceed this within _RANK_TRIES draws.
_ROW_RANK_TOL, _RANK_TRIES = 1e-6, 50
# The proximal-gradient reference stops at a move of at most _ISTA_TOL.
_ISTA_TOL, _ISTA_MAX_ITER = 1e-10, 1_000_000


@dataclass(frozen=True)
class KktPoint:
    """A candidate first-order point (x, y, gamma)."""

    x: np.ndarray
    y: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        for name in ("x", "y", "gamma"):
            v = linalg.as_vector(getattr(self, name), name=name).copy()
            v.setflags(write=False)
            object.__setattr__(self, name, v)


@dataclass(frozen=True)
class SeparableInstance:
    f: oracles.ConvexFunction
    g: oracles.ConvexFunction
    A: np.ndarray
    B: np.ndarray
    b: np.ndarray
    solution: Optional[KktPoint] = None

    def __post_init__(self):
        A = linalg.as_matrix(self.A, name="A").copy()
        B = linalg.as_matrix(self.B, rows=A.shape[0], name="B").copy()
        b = linalg.as_vector(self.b, dim=A.shape[0], name="b").copy()
        for arr in (A, B, b):
            arr.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "b", b)
        if self.f.dim is not None and self.f.dim != A.shape[1]:
            raise ValueError(f"f has dimension {self.f.dim}, A has {A.shape[1]} columns")
        if self.g.dim is not None and self.g.dim != B.shape[1]:
            raise ValueError(f"g has dimension {self.g.dim}, B has {B.shape[1]} columns")
        if self.solution is not None:
            sol = self.solution
            linalg.as_vector(sol.x, dim=self.n, name="solution.x")
            linalg.as_vector(sol.y, dim=self.p, name="solution.y")
            linalg.as_vector(sol.gamma, dim=self.m, name="solution.gamma")
            with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
                gap = kkt_gap(self, sol)
            if not gap <= SOLUTION_GAP_TOL:
                raise ValueError(
                    f"stored solution fails the optimality check (gap {gap:.3e})"
                )

    @property
    def n(self) -> int:
        return self.A.shape[1]

    @property
    def p(self) -> int:
        return self.B.shape[1]

    @property
    def m(self) -> int:
        return self.A.shape[0]


def kkt_gap(inst: SeparableInstance, point: KktPoint) -> float:
    """Worst violation of the three first-order conditions at a point.

    Returns max of the two conjugate gaps (of A'gamma at x for f, of
    B'gamma at y for g) and the constraint residual norm; zero exactly at
    a first-order-optimal point (up to conjugate tolerances).
    """
    x = linalg.as_vector(point.x, dim=inst.n, name="x")
    y = linalg.as_vector(point.y, dim=inst.p, name="y")
    gamma = linalg.as_vector(point.gamma, dim=inst.m, name="gamma")
    return float(kkt_gaps(inst, x, y, gamma))


def kkt_gaps(inst: SeparableInstance, X, Y, G):
    """:func:`kkt_gap` at one point, or at each row of stacked points
    (rows x_i, y_i, gamma_i).  A stack goes through one matrix product per
    operator, so its rows can differ from the one-point calls by rounding."""
    gap_f = oracles.fenchel_gap(inst.f, G @ inst.A, X)
    gap_g = oracles.fenchel_gap(inst.g, G @ inst.B, Y)
    return np.maximum(np.maximum(gap_f, gap_g), constraint_residual(inst, X, Y))


def constraint_residual(inst: SeparableInstance, X, Y):
    """||A x + B y - b|| at one point, or at each row of stacked points:
    the residual term of :func:`kkt_gaps`, computed by the same code."""
    resid = X @ inst.A.T + Y @ inst.B.T - inst.b
    return np.sqrt(np.vecdot(resid, resid))


# ---------------------------------------------------------------------------
# generators


def _random_strongly_convex_quadratic(rng, dim) -> oracles.Quadratic:
    G = rng.standard_normal((dim, dim))
    P = G @ G.T / dim + np.eye(dim)
    q = rng.standard_normal(dim)
    return oracles.Quadratic(P, q, 0.0)


def generate_qp(seed, n, p, m) -> SeparableInstance:
    """Random strictly convex quadratic instance with full-row-rank [A B].

    Strict convexity plus the rank condition make the multiplier unique,
    which the certificate checks need for a meaningful reference distance.
    Deterministic in the seed; b is built from a random feasible pair.
    """
    if m > n + p:
        raise ConfigError(f"m={m} must be at most n+p={n + p}")
    rng = np.random.default_rng(seed)
    f = _random_strongly_convex_quadratic(rng, n)
    g = _random_strongly_convex_quadratic(rng, p)
    for _ in range(_RANK_TRIES):
        A = rng.standard_normal((m, n))
        B = rng.standard_normal((m, p))
        ab = np.hstack([A, B])
        if float(np.min(np.linalg.eigvalsh(ab @ ab.T))) > _ROW_RANK_TOL:
            break
    else:
        raise ConfigError("could not draw a full-row-rank [A B] within the resampling cap")
    xbar = rng.standard_normal(n)
    ybar = rng.standard_normal(p)
    b = A @ xbar + B @ ybar
    inst = SeparableInstance(f, g, A, B, b)
    return replace(inst, solution=solve_ground_truth(inst))


def generate_lasso(seed, n, m_data, mu) -> SeparableInstance:
    """Consensus split of a lasso problem:

        f(x) = (1/2)||C x - d||^2,  g(y) = mu ||y||_1,  x - y = 0,

    encoded as A = I, B = -I, b = 0.  The reference point comes from a
    proximal-gradient fixed point, independent of the ADMM engine.
    """
    if not 0 < mu < math.inf:
        raise ConfigError(f"mu must be positive and finite, got {mu}")
    rng = np.random.default_rng(seed)
    C = rng.standard_normal((m_data, n))
    d = rng.standard_normal(m_data)
    f = oracles.Quadratic(C.T @ C, -C.T @ d, 0.5 * float(d @ d))
    g = oracles.L1(mu)
    inst = SeparableInstance(f, g, np.eye(n), -np.eye(n), np.zeros(n))
    return replace(inst, solution=solve_ground_truth(inst))


# ---------------------------------------------------------------------------
# ground truth


def _quadratic_parts(F, dim):
    if isinstance(F, oracles.Quadratic):
        return F.P, F.q
    if isinstance(F, oracles.Zero):
        return np.zeros((dim, dim)), np.zeros(dim)
    return None


def _is_consensus_l1(inst) -> bool:
    if not isinstance(inst.f, oracles.Quadratic) or not isinstance(inst.g, oracles.L1):
        return False
    if inst.n != inst.p or inst.m != inst.n:
        return False
    eye = np.eye(inst.n)
    return (
        np.allclose(inst.A, eye, rtol=0.0, atol=1e-12)
        and np.allclose(inst.B, -eye, rtol=0.0, atol=1e-12)
        and np.allclose(inst.b, 0.0, rtol=0.0, atol=1e-12)
    )


def _kkt_linear_solve(inst, pf, qf, pg, qg) -> KktPoint:
    n, p, m = inst.n, inst.p, inst.m
    K = np.zeros((n + p + m, n + p + m))
    K[:n, :n] = pf
    K[:n, n + p :] = -inst.A.T
    K[n : n + p, n : n + p] = pg
    K[n : n + p, n + p :] = -inst.B.T
    K[n + p :, :n] = inst.A
    K[n + p :, n : n + p] = inst.B
    rhs = np.concatenate([-qf, -qg, inst.b])
    z = None
    try:
        z = np.linalg.solve(K, rhs)
    except np.linalg.LinAlgError:
        pass
    if z is None or not np.linalg.norm(K @ z - rhs) <= 1e-8 * (1.0 + np.linalg.norm(rhs)):
        # Singular saddle system: accept a least-squares point only if it
        # actually solves the system (consistent but rank-deficient, e.g.
        # feasibility-only instances); otherwise the multiplier is not
        # pinned down and the instance is rejected.
        z, *_ = np.linalg.lstsq(K, rhs, rcond=None)
        if not np.linalg.norm(K @ z - rhs) <= 1e-8 * (1.0 + np.linalg.norm(rhs)):
            raise ConfigError("singular saddle system: non-unique multiplier")
    return KktPoint(z[:n], z[n : n + p], z[n + p :])


def ista_reference(P, q, mu) -> np.ndarray:
    """Proximal-gradient fixed point of (1/2)x'Px + q'x + mu||x||_1.

    Runs with step 1/L (L the largest eigenvalue of P) until the iterate
    moves by at most ``_ISTA_TOL``; used as the reference oracle for
    consensus l1 instances.
    """
    P = linalg.as_matrix(P, name="P")
    q = linalg.as_vector(q, dim=P.shape[0], name="q")
    lip = math.sqrt(linalg.spectral_norm_sq(P))
    t = 1.0 / lip if lip > 0 else 1.0
    x = np.zeros(q.shape[0])
    for _ in range(_ISTA_MAX_ITER):
        xn = oracles.soft_threshold(x - t * (P @ x + q), t * mu)
        if float(np.linalg.norm(xn - x)) <= _ISTA_TOL:
            return xn
        x = xn
    raise IterationLimitError("proximal-gradient reference run did not reach tolerance")


def solve_ground_truth(inst: SeparableInstance) -> KktPoint:
    """Reference first-order point for quadratic or consensus-l1 instances.

    Quadratic blocks go through a direct solve of the saddle system; the
    consensus l1 split goes through the proximal-gradient fixed point,
    with the multiplier recovered from the smooth block's gradient.
    """
    parts_f = _quadratic_parts(inst.f, inst.n)
    parts_g = _quadratic_parts(inst.g, inst.p)
    if parts_f is not None and parts_g is not None:
        point = _kkt_linear_solve(inst, *parts_f, *parts_g)
    elif _is_consensus_l1(inst):
        x = ista_reference(inst.f.P, inst.f.q, inst.g.mu)
        # A = I, so the multiplier is the smooth gradient; clip it into the
        # dual-feasible box so -gamma lands inside dom g* despite the last
        # ~1e-10 of fixed-point error (the f-block gap this introduces is
        # quadratic in the clip distance, far below the acceptance gap).
        gamma = np.clip(inst.f.grad(x), -inst.g.mu, inst.g.mu)
        point = KktPoint(x, x.copy(), gamma)
    else:
        raise ConfigError(
            "ground truth is available only for quadratic blocks or a consensus l1 split"
        )
    gap = kkt_gap(inst, point)
    if not gap <= SOLUTION_GAP_TOL:
        raise ConfigError(f"reference point failed the optimality check (gap {gap:.3e})")
    return point


# ---------------------------------------------------------------------------
# instance files (JSON)


def _fun_to_json(F):
    if isinstance(F, oracles.Quadratic):
        return {
            "variant": "quadratic",
            "P": F.P.ravel().tolist(),
            "q": F.q.tolist(),
            "c": float(F.c),
        }
    if isinstance(F, oracles.L1):
        return {"variant": "l1", "mu": float(F.mu)}
    if isinstance(F, oracles.Zero):
        return {"variant": "zero"}
    raise ValueError(f"unsupported function type {type(F).__name__}")


def _require(obj, key, path):
    if not isinstance(obj, dict):
        raise ValueError(f"instance file: field '{path}' must be an object")
    if key not in obj:
        raise ValueError(f"instance file: missing field '{key}'" + (f" in '{path}'" if path else ""))
    return obj[key]


# The JSON numbers.  A bool is not one, though Python makes it an int.
_REAL_TYPES = {int, float}


def _reals(raw, count, path):
    if not isinstance(raw, list) or len(raw) != count:
        got = len(raw) if isinstance(raw, list) else type(raw).__name__
        raise ValueError(f"instance file: field '{path}' must be a list of {count} reals, got {got}")
    if not set(map(type, raw)) <= _REAL_TYPES:
        raise ValueError(f"instance file: field '{path}' holds a non-numeric entry")
    try:
        return np.asarray(raw, dtype=float)
    except OverflowError as exc:
        raise ValueError(f"instance file: field '{path}' holds an out-of-range entry") from exc


def _real(raw, path) -> float:
    try:
        value = float(raw) if type(raw) in _REAL_TYPES else math.nan
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"instance file: field '{path}' must be a finite real")
    return value


def _fun_from_json(obj, dim, path):
    variant = _require(obj, "variant", path)
    if variant == "quadratic":
        P = _reals(_require(obj, "P", path), dim * dim, f"{path}.P").reshape(dim, dim)
        q = _reals(_require(obj, "q", path), dim, f"{path}.q")
        c = _real(obj.get("c", 0.0), f"{path}.c")
        try:
            return oracles.Quadratic(P, q, c)
        except ValueError as exc:
            raise ValueError(f"instance file: field '{path}': {exc}") from exc
    if variant == "l1":
        mu = _real(_require(obj, "mu", path), f"{path}.mu")
        try:
            return oracles.L1(mu)
        except ValueError as exc:
            raise ValueError(f"instance file: field '{path}.mu': {exc}") from exc
    if variant == "zero":
        return oracles.Zero()
    raise ValueError(f"instance file: field '{path}.variant' must be one of quadratic/l1/zero")


def instance_to_dict(inst: SeparableInstance) -> dict:
    doc = {
        "n": inst.n,
        "p": inst.p,
        "m": inst.m,
        "A": inst.A.ravel().tolist(),
        "B": inst.B.ravel().tolist(),
        "b": inst.b.tolist(),
        "f": _fun_to_json(inst.f),
        "g": _fun_to_json(inst.g),
    }
    if inst.solution is not None:
        doc["solution"] = {
            "x": inst.solution.x.tolist(),
            "y": inst.solution.y.tolist(),
            "gamma": inst.solution.gamma.tolist(),
        }
    return doc


def instance_from_dict(doc: dict) -> SeparableInstance:
    dims = {}
    for key in ("n", "p", "m"):
        raw = _require(doc, key, "")
        if type(raw) is not int or raw <= 0:
            raise ValueError(f"instance file: field '{key}' must be a positive integer")
        dims[key] = raw
    n, p, m = dims["n"], dims["p"], dims["m"]
    A = _reals(_require(doc, "A", ""), m * n, "A").reshape(m, n)
    B = _reals(_require(doc, "B", ""), m * p, "B").reshape(m, p)
    b = _reals(_require(doc, "b", ""), m, "b")
    f = _fun_from_json(_require(doc, "f", ""), n, "f")
    g = _fun_from_json(_require(doc, "g", ""), p, "g")
    solution = None
    if "solution" in doc and doc["solution"] is not None:
        sol = doc["solution"]
        solution = KktPoint(
            _reals(_require(sol, "x", "solution"), n, "solution.x"),
            _reals(_require(sol, "y", "solution"), p, "solution.y"),
            _reals(_require(sol, "gamma", "solution"), m, "solution.gamma"),
        )
    try:
        return SeparableInstance(f, g, A, B, b, solution)
    except ValueError as exc:
        raise ValueError(f"instance file: {exc}") from exc


# ---------------------------------------------------------------------------
# output files


@contextlib.contextmanager
def atomic_open(path, newline=None):
    """Open ``path`` for writing UTF-8 text through a temporary sibling that
    replaces it when the ``with`` body ends, so a write that fails or is
    interrupted leaves the old file, or no file, at ``path``."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


# The writers of trajectory CSVs and instance files, and the trajectory
# reader of gadmm verify, split a text of c cells into
# min(usable CPUs, c // CELLS_PER_WORKER) contiguous ranges and fork a
# worker for each range after the first.  A fork plus its waitpid costs
# about 3 ms in a 64 MB process.  Formatting a cell costs about 0.75 us, so
# a writer's range formats in at least 15 ms, several times what starting
# its worker costs.  Parsing a cell costs about 0.32 us, and a reader's
# worker gets at least 1/parts of the cells, so its range parses in at
# least 6.4 ms, about twice the fork's cost.
CELLS_PER_WORKER = 20_000
# Bytes a writer reads from a worker's pipe at a time.
_PIPE_CHUNK = 1 << 16


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker_count(cells: int) -> int:
    """Workers for a text of ``cells`` cells: none without ``os.fork``, or
    while another Python thread runs, since a forked child holds a copy of
    only the thread that forked it."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 0
    return max(0, min(_usable_cpus(), cells // CELLS_PER_WORKER) - 1)


class _RowsWorker:
    """A forked process that turns units start..stop-1 of a text into bytes
    with ``produce(start, stop)`` and writes them to a pipe: formatted text
    for a writer (:func:`write_in_parts`, whose units are trajectory rows
    or instance numbers), parsed trajectory rows for the reader.

    The child produces its whole range before it writes, so it never waits
    on this process while this process does its own share.  It closes the
    read ends of ``siblings``, the workers forked before it, so that a read
    end this process closes has no other holder.  Fork and pipe failures
    raise :class:`OSError` with nothing left open.
    """

    def __init__(self, produce, start, stop, siblings):
        self.start, self.stop, self.pid = start, stop, None
        self.fd, w = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(w)
            self.close()
            raise
        if self.pid == 0:
            code = 1
            try:
                os.close(self.fd)
                for sibling in siblings:
                    os.close(sibling.fd)
                data = produce(start, stop)
                with os.fdopen(w, "wb") as out:
                    out.write(data)
                code = 0
            finally:
                os._exit(code)
        os.close(w)

    def copy_into(self, out, lines) -> bool:
        """Copy the worker's bytes to the binary file ``out`` in chunks and
        reap the worker.  True when it exited 0 after writing exactly
        ``lines`` newlines; otherwise ``out`` is cut back to where it was."""
        mark, got = out.tell(), 0
        while chunk := os.read(self.fd, _PIPE_CHUNK):
            out.write(chunk)
            got += chunk.count(b"\n")
        if self.close() == 0 and got == lines:
            return True
        out.seek(mark)
        out.truncate()
        return False

    def read_into(self, rows) -> bool:
        """Fill the array ``rows`` with the worker's bytes, read straight
        into its memory, and reap the worker.  True when it exited 0 after
        sending exactly ``rows.nbytes`` bytes."""
        view, got = memoryview(rows.view(np.uint8)), 0
        while got < rows.nbytes and (n := os.readv(self.fd, [view[got:]])):
            got += n
        whole = got == rows.nbytes and not os.read(self.fd, 1)
        return self.close() == 0 and whole

    def close(self):
        """Close the read end, then reap the worker and return its wait
        status (None if already reaped).  The close comes first, so a worker
        blocked on a full pipe fails its write instead of waiting."""
        if self.fd is not None:
            os.close(self.fd)
            self.fd = None
        if self.pid:
            status = os.waitpid(self.pid, 0)[1]
            self.pid = None
            return status
        return None


def write_in_parts(path, units, cells, write, lines, head="", tail="", newline=None) -> None:
    """Write ``head``, the text of ``units`` units, then ``tail`` to
    ``path`` through :func:`atomic_open`, formatted on every usable CPU with
    the same bytes as in one process.

    ``write(emit, start, stop)`` passes the text of units start..stop-1 to
    ``emit`` in pieces, and ``lines(start, stop)`` is the number of
    newlines in it.  The units are split into 1 + ``_worker_count(cells)``
    contiguous ranges; this process formats the first, and each other one
    is formatted by a forked :class:`_RowsWorker` whose bytes are copied in
    order.  A range is formatted here when its worker cannot be forked (nor
    can any after it), exits non-zero or sends the wrong number of
    newlines.  Every worker is reaped before this returns or raises.
    """
    parts = 1 + _worker_count(cells)
    bounds = [units * i // parts for i in range(parts + 1)]

    def produce(start, stop):
        pieces = []
        write(pieces.append, start, stop)
        return "".join(pieces).encode()

    workers = []
    try:
        # fork before the file is opened, so that no worker holds it
        for start, stop in zip(bounds[1:-1], bounds[2:]):
            try:
                workers.append(_RowsWorker(produce, start, stop, workers))
            except OSError:
                break  # this process formats the ranges left
        done = workers[-1].stop if workers else bounds[1]
        with atomic_open(path, newline=newline) as fh:
            fh.write(head)
            write(fh.write, 0, bounds[1])
            for worker in workers:
                fh.flush()
                if not worker.copy_into(fh.buffer, lines(worker.start, worker.stop)):
                    write(fh.write, worker.start, worker.stop)
            write(fh.write, done, units)
            fh.write(tail)
    finally:
        for worker in workers:
            worker.close()


# Stands in for each number list in the skeleton that json lays out; no
# key or string value of an instance document holds it.
_LIST_MARK = "\0"


def _skeleton(node, lists):
    """``node`` with each non-empty list replaced by ``[_LIST_MARK]``, and
    the lists appended to ``lists`` in the order json writes them."""
    if isinstance(node, dict):
        return {key: _skeleton(value, lists) for key, value in node.items()}
    if isinstance(node, list) and node:
        lists.append(node)
        return [_LIST_MARK]
    return node


def save_instance(inst: SeparableInstance, path) -> None:
    """Write ``inst`` as the bytes of ``json.dump(instance_to_dict(inst),
    fh, indent=1)`` and a newline, refusing a non-finite number with
    :class:`ValueError` as ``allow_nan=False`` does.

    json's encoder runs in Python when it indents, so only the skeleton
    (keys, scalars, nesting) goes through :func:`json.dumps`.  The numbers
    of each list are written here with ``float.__repr__``, as json writes
    them: the shortest decimal that round-trips each double, so
    load(save(inst)) reproduces every number.  They are the units of
    :func:`write_in_parts`, in document order, so a large instance is
    formatted on every usable CPU.
    """
    lists = []
    skeleton = json.dumps(_skeleton(instance_to_dict(inst), lists), indent=1, allow_nan=False)
    # leads[j] precedes list j's numbers and ends in "[\n" and the list's
    # indent, which also follows the "," between two of its numbers
    *leads, tail = skeleton.split(json.dumps(_LIST_MARK))
    seps = [",\n" + lead.rpartition("\n")[2] for lead in leads]
    firsts = list(itertools.accumulate(map(len, lists), initial=0))

    def write(emit, start, stop):
        for first, cells, lead, sep in zip(firsts, lists, leads, seps):
            lo, hi = max(start, first), min(stop, first + len(cells))
            if lo < hi:
                text = sep.join(map(float.__repr__, cells[lo - first : hi - first]))
                if "n" in text:  # inf or nan; a finite repr has no "n"
                    raise ValueError("Out of range float values are not JSON compliant")
                emit(lead if lo == first else sep)
                emit(text)

    def lines(start, stop):
        # a separator holds one newline, a lead its own count
        extra = (lead.count("\n") - 1 for first, lead in zip(firsts, leads) if start <= first < stop)
        return stop - start + sum(extra)

    write_in_parts(path, firsts[-1], firsts[-1], write, lines, tail=tail + "\n")


def load_instance(path) -> SeparableInstance:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"instance file: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ValueError("instance file: top level must be an object")
    return instance_from_dict(doc)
