"""Outside-in tracing: wrappers around the program's module attributes.

The program looks these attributes up at call time (``ahmsa.model.
channel_attention``, ``ahmsa.train.forward``, ...), so replacing them on the
module routes every call through a wrapper that records a span (name, start,
end, parent span, unit id, attributes) or bumps a counter.  Wrappers are
installed only around traced units and removed afterwards; untraced units run
the program untouched.  Spans stay in memory until ``write_jsonl``.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import Counter
from dataclasses import dataclass
from time import perf_counter


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int  # -1 at the top
    unit: object  # sample, step or fold id current when the span opened
    attrs: dict

    @property
    def dur(self) -> float:
        return self.end - self.start


def _grid_side(args) -> dict:
    return {"side": int(args[0].shape[2])}


def _frame_side(args) -> dict:
    return {"side": int(args[0].shape[0])}


def _batch(args) -> dict:
    return {"batch": int(args[0].shape[0])}


def _conv_flops(args, out) -> int:
    kernel = args[1].shape  # [C_out, C_in, kh, kw]
    return 2 * out.size * kernel[1] * kernel[2] * kernel[3]


def _matmul_flops(args, out) -> int:
    return 2 * out.size * args[0].shape[-1]


class Tracer:
    """Records spans and counters from wrappers it installs on the program."""

    def __init__(self, ahmsa):
        self.ahmsa = ahmsa
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.unit: object = None
        self.zero_grad_shares: list[float] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []
        self._step: dict | None = None
        self._pgm_reads = 0

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _spanned(self, name: str, original, attrs_of=None):
        def wrapper(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1][0] if stack else -1
            unit = self.unit
            attrs = attrs_of(args) if attrs_of else {}
            stack.append((sid, name))
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.spans.append(Span(sid, name, start, end, parent, unit, attrs))
        return wrapper

    def _counted(self, name: str, original, flops_of=None):
        def wrapper(*args, **kwargs):
            out = original(*args, **kwargs)
            self.counts[name] += 1
            if flops_of is not None:
                self.counts["flops"] += flops_of(args, out)
            return out
        return wrapper

    # -- training steps ------------------------------------------------------
    # A step is not one function: it opens at a forward call made outside
    # ``evaluate`` and closes when ``zero_grads`` returns.

    def _train_forward(self, original):
        spanned = self._spanned("model.forward", original, _batch)

        def wrapper(*args, **kwargs):
            evaluating = any(n == "train.evaluate" for _, n in self._stack())
            if self._step is None and not evaluating:
                self.unit = ("step", next(self._ids))
                self._step = {"start": perf_counter(), "batch": int(args[0].shape[0]),
                              "counts": Counter(self.counts), "unit": self.unit}
            return spanned(*args, **kwargs)
        return wrapper

    def _zero_grads(self, original):
        spanned = self._spanned("tensor.zero_grads", original)

        def wrapper(*args, **kwargs):
            try:
                return spanned(*args, **kwargs)
            finally:
                step, self._step = self._step, None
                if step is not None:
                    delta = Counter(self.counts)
                    delta.subtract(step["counts"])
                    self.spans.append(Span(
                        next(self._ids), "train.step", step["start"], perf_counter(),
                        -1, step["unit"], {"batch": step["batch"], **delta}))
        return wrapper

    def _adam_step(self, original):
        spanned = self._spanned("tensor.adam", original)

        def wrapper(params, *args, **kwargs):
            # share of parameter elements whose whole gradient is exactly zero
            total = zero = 0
            for tensor in params.values():
                total += tensor.data.size
                if not tensor.grad.any():
                    zero += tensor.data.size
            self.zero_grad_shares.append(zero / total)
            return spanned(params, *args, **kwargs)
        return wrapper

    def _read_pgm(self, original):
        spanned = self._spanned("optflow.read_pgm", original)

        def wrapper(*args, **kwargs):
            # extract-flow reads the onset, then the apex frame of each sample
            if self._pgm_reads % 2 == 0:
                self.unit = ("sample", next(self._ids))
            self._pgm_reads += 1
            return spanned(*args, **kwargs)
        return wrapper

    def _fold(self, original):
        spanned = self._spanned("train.train_fold", original)

        def wrapper(*args, **kwargs):
            self.unit = ("fold", next(self._ids))
            return spanned(*args, **kwargs)
        return wrapper

    # -- installation --------------------------------------------------------

    def _plan(self):
        """(module, attribute, wrapper factory) for every traced boundary."""
        a = self.ahmsa
        cli, model, optflow, tensor, train = a.cli, a.model, a.optflow, a.tensor, a.train

        def span(name, attrs_of=None):
            return lambda original: self._spanned(name, original, attrs_of)

        def count(name, flops_of=None):
            return lambda original: self._counted(name, original, flops_of)

        return [
            # cli: subcommands and the helpers they call by module-global name
            (cli, "cmd_extract_flow", span("cli.extract")),
            (cli, "cmd_loso", span("cli.loso")),
            (cli, "load_manifest", span("data.load_manifest")),
            (cli, "load_feature_maps", span("cli.load_maps")),
            (cli, "_write_report_files", span("cli.write_report")),
            (cli, "run_loso", span("train.run_loso")),
            (cli, "read_pgm", self._read_pgm),
            (cli, "write_flow_map", span("optflow.write_flow")),
            (cli, "extract_feature_map", span("optflow.extract")),
            # optflow internals called from extract_feature_map
            (optflow, "tvl1_flow", span("optflow.tvl1", _frame_side)),
            (optflow, "optical_strain", span("optflow.strain")),
            (optflow, "compose_regions", span("optflow.compose")),
            # train loop
            (train, "train_fold", self._fold),
            (train, "evaluate", span("train.evaluate")),
            (train, "forward", self._train_forward),
            (train, "cross_entropy", span("tensor.cross_entropy")),
            (train, "adam_step", self._adam_step),
            (train, "zero_grads", self._zero_grads),
            (tensor.Tensor, "backward", span("tensor.backward")),
            # model stages, keyed by the grid side of their input
            (model, "patch_embed", span("model.patch_embed")),
            (model, "msa_block", span("model.block", _grid_side)),
            (model, "layer_norm", span("model.norm", _grid_side)),
            (model, "channel_attention", span("model.ca", _grid_side)),
            (model, "spatial_attention", span("model.sa", _grid_side)),
            (model, "feed_forward", span("model.ff", _grid_side)),
            (model, "downsample", span("model.transition", _grid_side)),
            # op counters: no spans, so stage self times stay whole
            (model, "conv2d", count("conv2d", _conv_flops)),
            (model, "matmul", count("matmul", _matmul_flops)),
            (tensor, "_make", count("tape_ops")),
        ]

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, factory in self._plan():
            if not hasattr(owner, attr):
                continue  # boundary gone from the program: its metrics read 0
            original = owner.__dict__.get(attr, getattr(owner, attr))
            self._saved.append((owner, attr, original))
            setattr(owner, attr, factory(original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self._step = None

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps({"id": s.sid, "name": s.name, "start": s.start,
                                    "end": s.end, "parent": s.parent,
                                    "unit": repr(s.unit), "attrs": s.attrs}) + "\n")
