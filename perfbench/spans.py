"""In-memory span recorder that instruments flowplug from the outside.

Spans are recorded by replacing module attributes (and a few class methods)
with timing wrappers, at every place a caller looks the name up: a function
imported with ``from .x import f`` is rebound in each importing module, so
``flowplug.training.backward`` and ``flowplug.evaluation.backward`` both get
wrapped and each span keeps a link to the span that was open when it began.
Nothing inside ``src/`` is edited; ``uninstall`` puts every original back.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    parent: int  # index into Tracer.spans, -1 for a root span
    start: float
    end: float = 0.0
    rows: int = 0  # rows handled, for the flow layer
    tape_nodes: int = 0  # tape nodes recorded while this was the innermost span
    result: object = None  # kept only where a metric needs it (edit results)

    @property
    def duration(self) -> float:
        return self.end - self.start


# (defining module, attribute, span name); every module-level binding of the
# same function object in any loaded flowplug module gets wrapped
FUNCTION_TARGETS = [
    ("flowplug.numerics.autodiff", "backward", "numerics.backward"),
    ("flowplug.losses", "batch_loss_graph", "losses.batch_loss_graph"),
    ("flowplug.training", "train", "training.train"),
    ("flowplug.training", "make_batches", "training.make_batches"),
    ("flowplug.training", "dataset_mean_loss", "training.dataset_mean_loss"),
    ("flowplug.training", "save_checkpoint", "training.save_checkpoint"),
    ("flowplug.training", "load_checkpoint", "training.load_checkpoint"),
    ("flowplug.flow", "codes_to_latents", "flow.forward"),
    ("flowplug.flow", "latents_to_codes", "flow.inverse"),
    ("flowplug.editing", "edit_attribute", "editing.edit_attribute"),
    ("flowplug.editing", "minimal_edit_batch", "editing.minimal_edit_batch"),
    ("flowplug.evaluation", "train_probe", "evaluation.train_probe"),
    ("flowplug.evaluation", "evaluate_dataset", "evaluation.evaluate_dataset"),
    ("flowplug.evaluation", "run_evaluation", "evaluation.run_evaluation"),
    ("flowplug.evaluation", "edit_sweep", "evaluation.edit_sweep"),
    ("flowplug.evaluation", "identity_drift", "evaluation.identity_drift"),
    ("flowplug.evaluation", "save_report", "evaluation.save_report"),
    ("flowplug.synthetic", "generate_dataset", "synthetic.generate_dataset"),
    ("flowplug.synthetic", "save_dataset", "synthetic.save_dataset"),
    ("flowplug.synthetic", "save_ground_truth", "synthetic.save_ground_truth"),
    ("flowplug.synthetic", "load_dataset", "synthetic.load_dataset"),
    ("flowplug.synthetic", "backbone_invert", "synthetic.backbone_invert"),
]

# (module, class, method, span name)
METHOD_TARGETS = [
    ("flowplug.numerics.mlp", "Mlp", "forward", "numerics.mlp_forward"),
    ("flowplug.numerics.adam", "AdamOptimizer", "step", "numerics.adam_step"),
    ("flowplug.numerics.adam", "AdamOptimizer", "zero_grad", "numerics.zero_grad"),
    ("flowplug.evaluation", "ProbeModel", "std_scores", "evaluation.probe_score"),
]

# tape operations: counted (not timed) when they record a node
TAPE_OPS = [
    "add", "sub", "mul", "neg", "matmul", "exp", "log", "tanh",
    "leaky_relu", "asum", "take_cols", "concat_cols",
]

# span names whose first positional argument's row count is recorded
_ROW_SPANS = {"flow.forward", "flow.inverse"}
# span names whose return value is kept for later metrics
_KEEP_RESULT = {"editing.minimal_edit_batch"}


def _lookup(mod_name: str, attr: str):
    value = getattr(sys.modules.get(mod_name), attr, None)
    if not callable(value):
        raise RuntimeError(f"trace target {mod_name}.{attr} is missing")
    return value


class Tracer:
    """Records spans while installed; single-threaded by design."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _enter(self, name: str, rows: int = 0) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name=name, parent=parent, start=time.perf_counter(), rows=rows))
        idx = len(self.spans) - 1
        self._open.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._open.pop()

    def _timed(self, fn, name: str):
        rows_arg = name in _ROW_SPANS
        keep = name in _KEEP_RESULT

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rows = 0
            if rows_arg and len(args) > 1:
                rows = int(getattr(args[1], "shape", (0,))[0])
            idx = self._enter(name, rows)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if keep:
                self.spans[idx].result = out
            return out

        return wrapper

    def _counting_nodes(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if self._open and getattr(out, "requires_grad", False):
                self.spans[self._open[-1]].tape_nodes += 1
            return out

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself; recorded only while the
        tracer is installed, like the wrappers' spans."""
        if not self.installed:
            yield None
            return
        idx = self._enter(name)
        try:
            yield self.spans[idx]
        finally:
            self._exit(idx)

    # -- installation ----------------------------------------------------

    @property
    def installed(self) -> bool:
        return bool(self._undo)

    def _rebind_everywhere(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if not (mod_name == "flowplug" or mod_name.startswith("flowplug.")) or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        """Wrap every target. A target that is missing raises before anything
        is wrapped, so a renamed function fails the traced run instead of
        reading as zero."""
        if self.installed:
            raise RuntimeError("tracer already installed")
        functions = [(_lookup(mod_name, attr), name) for mod_name, attr, name in FUNCTION_TARGETS]
        methods = [(_lookup(mod_name, cls_name), attr, name) for mod_name, cls_name, attr, name in METHOD_TARGETS]
        for cls, attr, _ in methods:
            if not callable(vars(cls).get(attr)):
                raise RuntimeError(f"trace target {cls.__qualname__}.{attr} is missing")
        ops = [_lookup("flowplug.numerics.autodiff", op) for op in TAPE_OPS]
        for original, name in functions:
            self._rebind_everywhere(original, self._timed(original, name))
        for cls, attr, name in methods:
            original = vars(cls)[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self._timed(original, name))
        for original in ops:
            self._rebind_everywhere(original, self._counting_nodes(original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


# ---------------------------------------------------------------------------
# arithmetic over recorded spans


def children_of(spans: list[Span]) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in spans]
    for i, sp in enumerate(spans):
        if sp.parent >= 0:
            kids[sp.parent].append(i)
    return kids


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its direct
    children cover (overlapping children are merged, not double-counted)."""
    kids = children_of(spans)
    out = []
    for i, sp in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        for lo, hi in sorted((max(spans[k].start, sp.start), min(spans[k].end, sp.end)) for k in kids[i]):
            if hi <= lo:
                continue
            if cur_end is None or lo > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = lo, hi
            else:
                cur_end = max(cur_end, hi)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append(sp.duration - covered)
    return out


def ancestors(spans: list[Span], idx: int):
    p = spans[idx].parent
    while p >= 0:
        yield p
        p = spans[p].parent


def charged_module(spans: list[Span], idx: int) -> str:
    """Module a span's self time is charged to: its own, except that a
    numerics span is charged to the nearest caller outside numerics (so a
    backward under train_probe counts for evaluation, not training)."""
    module = spans[idx].name.split(".", 1)[0]
    if module != "numerics":
        return module
    for a in ancestors(spans, idx):
        caller = spans[a].name.split(".", 1)[0]
        if caller != "numerics":
            return caller
    return module


def subtree_tape_nodes(spans: list[Span], kids: list[list[int]], idx: int) -> int:
    total = 0
    stack = [idx]
    while stack:
        i = stack.pop()
        total += spans[i].tape_nodes
        stack.extend(kids[i])
    return total
