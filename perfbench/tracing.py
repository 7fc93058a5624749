"""In-memory tracing of calls into the gadmm layers.

The tracer replaces module attributes (and a few methods) of the gadmm
package with timing wrappers while it is installed.  The package calls
its own layers through module attributes (``linalg.as_vector``,
``hpe.metric_for``, ...), so every such call, from any module, passes
through a wrapper.  Nothing under ``src/`` is modified.

Each wrapped call counts toward its name's call count and busy time, and
toward its layer's self time: the call's duration minus the part covered
by wrapped calls nested in it.  Calls that are not marked hot also keep
a span (id, parent id, operation id, name, start, end); hot functions run
per iteration or per vector, so they keep counts and busy time only.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

# (module, attribute, hot).  A dotted attribute names a method of a class.
# Besides the functions the metrics read, the list holds every function one
# layer calls in another, so that self time lands in the layer doing the work.
TARGETS = (
    ("linalg", "as_vector", True),
    ("linalg", "as_matrix", True),
    ("linalg", "seminorm_sq", True),
    ("linalg", "is_psd", False),
    ("linalg", "spectral_norm_sq", False),
    ("linalg", "SpdFactor.__init__", False),
    ("linalg", "SpdFactor.solve", True),
    ("oracles", "fenchel_gap", True),
    ("problems", "generate_qp", False),
    ("problems", "generate_lasso", False),
    ("problems", "solve_ground_truth", False),
    ("problems", "save_instance", False),
    ("problems", "load_instance", False),
    ("problems", "kkt_gap", True),
    ("solver", "run", False),
    ("solver", "_Engine.__init__", False),
    ("solver", "save_trajectory_csv", False),
    ("solver", "load_trajectory_csv", False),
    ("hpe", "build_metric", False),
    ("hpe", "metric_for", False),
    ("hpe", "initial_distance_sq", False),
    ("hpe", "eta_sequence", False),
    ("hpe", "inclusion_residuals", True),
    ("hpe", "certify_hpe", False),
    ("hpe", "check_delta_inequalities", False),
    ("hpe", "check_rho_bound", False),
    ("hpe", "check_rho_contractive_bound", False),
    ("hpe", "check_fejer", False),
    ("hpe", "extragradient_gaps_sq", False),
    ("certificates", "full_verification", False),
    ("certificates", "pointwise_certificate", False),
    ("certificates", "_ergodic_checks", False),
)

LAYERS = ("cli", "problems", "solver", "hpe", "certificates", "linalg", "oracles")


class OpStats:
    """Counts and times of one operation, keyed by ``(command, name)``.

    ``command`` is the name of the outermost open span (``cli.run`` or
    ``cli.verify``), or ``None`` outside a command.
    """

    def __init__(self):
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)  # by layer
        self.self_by_name = defaultdict(float)
        self.durations = defaultdict(list)  # (parent name, name) -> [seconds]

    def total_calls(self, name, command=None) -> int:
        return sum(v for (c, n), v in self.calls.items() if n == name and command in (None, c))

    def total_busy(self, name, command=None) -> float:
        return sum(v for (c, n), v in self.busy.items() if n == name and command in (None, c))


class Tracer:
    def __init__(self, modules: dict):
        self._modules = modules
        self._saved = []
        self._stack = []  # frames: [span id, name, layer, start, child seconds]
        self._next_id = 0
        self.op_id = None
        self.spans = []
        self.stats = OpStats()

    def begin_op(self, op_id) -> None:
        self.op_id = op_id
        self.stats = OpStats()

    def install(self) -> None:
        for module, attr, hot in TARGETS:
            owner = self._modules[module]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf]
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(f"{module}.{attr}", module, original, hot))

    def uninstall(self) -> None:
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextlib.contextmanager
    def span(self, name, layer):
        frame = self._enter(name, layer)
        try:
            yield
        finally:
            self._exit(frame, hot=False)

    def _wrap(self, name, layer, fn, hot):
        enter, exit_ = self._enter, self._exit

        def traced(*args, **kwargs):
            frame = enter(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(frame, hot)

        return traced

    def _enter(self, name, layer):
        self._next_id += 1
        frame = [self._next_id, name, layer, 0.0, 0.0]
        self._stack.append(frame)
        frame[3] = time.perf_counter()
        return frame

    def _exit(self, frame, hot):
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        span_id, name, layer, start, child = frame
        dur = end - start
        command = stack[0][1] if stack else (name if not hot else None)
        stats = self.stats
        key = (command, name)
        stats.calls[key] += 1
        if not any(f[1] == name for f in stack):
            stats.busy[key] += dur
        stats.self_time[layer] += dur - child
        stats.self_by_name[name] += dur - child
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[4] += dur
        if not hot:
            stats.durations[(parent[1] if parent else None, name)].append(dur)
            self.spans.append((span_id, parent[0] if parent else None, self.op_id, name, start, end))

    def write_spans(self, path) -> None:
        keys = ("id", "parent", "op", "name", "start", "end")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span)), allow_nan=False))
                fh.write("\n")
