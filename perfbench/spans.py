"""Outside-in tracing of spklab for the benchmark's traced run.

A traced child process (``traced_cli.py``) wraps the public functions
named in one of the ``MODES`` at the module attribute their callers look
up. In the "spans" mode it keeps one span per call (name, detail, start,
end, parent) in memory; in the "counts" mode it only counts calls. It
writes them out when the command ends. The benchmark turns the traces of
both modes into per-layer self times and counts with ``layer_metrics``.

A target that a later change merges or renames is reported as absent: its
metrics are left out with a warning, never crashed on or reported as zero.
"""

import importlib
import inspect
import logging
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

# Loss kinds whose evaluate_loss self time is reported separately: the
# roster `spklab compare` runs by default.
LOSS_KINDS = ("ce", "coco", "aam", "center", "contrastive", "triplet_sigmoid")


def _tuples_formed(result) -> int:
    return len(result.positives) + len(result.negatives) + len(result.triplets)


@dataclass(frozen=True)
class Target:
    """One wrapped function and the per-layer metrics it yields.

    ``span=False`` counts calls without timing them, for functions called
    too often for a per-call span to be cheap; such targets are installed
    in a separate count-only run, so that their counters add nothing to
    the self times of the span run. ``label`` names the metrics when they
    belong to another layer than the module the name is looked up in.

    The optional metrics are named here too:
    ``<name>.<value>.self_s`` for each value in ``details`` of the argument
    ``detail_arg``; ``<ok_prefix>_ok_ratio`` and ``<ok_prefix>_tried`` for
    a search over the distinct entries of the argument ``tried_arg``; and
    ``result_metric``, the sum of ``result_size`` over the returned values.
    """

    module: str
    function: str
    metrics: tuple[str, ...] = ("calls", "self_s")
    span: bool = True
    label: str | None = None
    detail_arg: str | None = None
    details: tuple[str, ...] = ()
    tried_arg: str | None = None
    ok_prefix: str | None = None
    result_metric: str | None = None
    result_size: Callable | None = None

    @property
    def name(self) -> str:
        return self.label or f"{self.module}.{self.function}"


TARGETS = (
    Target("dataset", "load_dataset", ("self_s",)),
    Target("sampling", "balanced_batch"),
    Target("sampling", "form_tuples", result_metric="sampling.tuples_formed",
           result_size=_tuples_formed),
    Target("encoder", "forward"),
    Target("encoder", "backward", ("self_s",)),
    Target("encoder", "sgd_step", ("calls",), span=False),
    Target("losses", "evaluate_loss", detail_arg="kind", details=LOSS_KINDS),
    Target("training", "train"),
    Target("training", "grid_search", ("self_s",), tried_arg="grid",
           ok_prefix="training.grid_candidates"),
    Target("training", "dev_eer"),
    Target("training", "embed_files"),
    Target("training", "save_checkpoint", ("self_s",)),
    Target("training", "load_checkpoint", ("self_s",)),
    Target("scoring", "score_trials"),
    Target("scoring", "eer"),
    Target("scoring", "eer_bootstrap_ci", ("self_s",)),
    Target("scoring", "cohort_stats"),
    Target("scoring", "snorm_trials"),
    Target("scoring", "tune_cohort_size", ("self_s",), tried_arg="candidates",
           ok_prefix="scoring.cohort_candidates"),
    # scoring imports cosine_similarity by name, so it is wrapped there.
    Target("scoring", "cosine_similarity", ("calls",), span=False,
           label="embedding.cosine_similarity"),
    Target("experiment", "run_experiment", ("self_s",)),
)

# The traced run's two child runs: one with spans, one with counters only.
MODES = {
    "spans": tuple(t for t in TARGETS if t.span),
    "counts": tuple(t for t in TARGETS if not t.span),
}


# --- child side: wrapping and recording ---------------------------------------


class DisqualifiedCounter(logging.Handler):
    """Counts the "disqualified" warnings each spklab function logs."""

    def __init__(self, counts: Counter):
        super().__init__(logging.WARNING)
        self.counts = counts

    def emit(self, record: logging.LogRecord) -> None:
        if "disqualified" in record.getMessage():
            module = record.name.rpartition(".")[2]
            self.counts[f"{module}.{record.funcName}.disqualified"] += 1


class Recorder:
    """In-memory spans and counters of one traced process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, detail, start, end, parent]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.handler = DisqualifiedCounter(self.counts)

    def install(self, targets) -> None:
        """Wrap every target that exists; list the others as absent."""
        for target in targets:
            try:
                module = importlib.import_module(f"spklab.{target.module}")
            except ImportError:
                module = None
            fn = getattr(module, target.function, None)
            if not callable(fn):
                self.absent.append(target.name)
                continue
            setattr(module, target.function, self.wrap(target, fn))
        if any(t.ok_prefix for t in targets):
            logging.getLogger("spklab").addHandler(self.handler)

    def wrap(self, target: Target, fn):
        name = target.name
        counts = self.counts
        if not target.span:
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        signature = inspect.signature(fn)

        def argument(arg, args, kwargs):
            try:
                return signature.bind(*args, **kwargs).arguments.get(arg)
            except TypeError:
                return None

        spans, stack, clock = self.spans, self.stack, self.clock

        def traced(*args, **kwargs):
            detail = None
            if target.detail_arg:
                detail = argument(target.detail_arg, args, kwargs)
            if target.tried_arg:
                tried = argument(target.tried_arg, args, kwargs)
                if tried is not None:
                    counts[f"{name}.tried"] += len(set(tried))
            index = len(spans)
            spans.append([name, detail, clock(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][3] = clock()
            if target.result_metric:
                counts[target.result_metric] += target.result_size(result)
            return result

        return traced

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts), "absent": self.absent}


# --- benchmark side: self times and per-layer metrics ---------------------------


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the part of its interval
    covered by its child spans (the union of their intervals, clipped).

    ``spans`` holds (name, detail, start, end, parent) rows, where parent
    is the index of the enclosing span or -1.
    """
    children: list[list[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span[4] >= 0:
            children[span[4]].append(index)
    out = []
    for index, (_, _, start, end, _) in enumerate(spans):
        intervals = sorted(
            (max(spans[c][2], start), min(spans[c][3], end)) for c in children[index]
        )
        covered, cursor = 0.0, start
        for lo, hi in intervals:
            if hi > cursor:
                covered += hi - max(lo, cursor)
                cursor = hi
        out.append((end - start) - covered)
    return out


def layer_metrics(traces, targets=TARGETS) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Per-layer metrics, as (value, unit), summed over the traces of
    several commands.

    Returns the metrics and the names of absent targets; metrics that
    depend on an absent target are left out.
    """
    calls: Counter = Counter()
    self_s: Counter = Counter()
    counts: Counter = Counter()
    absent: set[str] = set()
    for trace in traces:
        absent.update(trace["absent"])
        counts.update(trace["counts"])
        for span, own in zip(trace["spans"], self_times(trace["spans"])):
            calls[span[0]] += 1
            self_s[span[0]] += own
            if span[1] is not None:
                self_s[f"{span[0]}.{span[1]}"] += own

    metrics: dict[str, tuple[float, str]] = {}
    for target in targets:
        name = target.name
        if name in absent:
            continue
        if "calls" in target.metrics:
            metrics[f"{name}.calls"] = (calls[name] if target.span else counts[name], "count")
        if "self_s" in target.metrics:
            metrics[f"{name}.self_s"] = (float(self_s[name]), "s")
        for value in target.details:
            metrics[f"{name}.{value}.self_s"] = (float(self_s[f"{name}.{value}"]), "s")
        if target.result_metric:
            metrics[target.result_metric] = (counts[target.result_metric], "count")
        if target.ok_prefix:
            tried = counts[f"{name}.tried"]
            ok = tried - counts[f"{name}.disqualified"]
            # With nothing tried nothing was wasted; the base says so.
            metrics[f"{target.ok_prefix}_ok_ratio"] = (ok / tried if tried else 1.0, "ratio")
            metrics[f"{target.ok_prefix}_tried"] = (tried, "count")
    return metrics, sorted(absent)
