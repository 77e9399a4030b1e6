"""Span tracer installed around randlab entry points from outside the library.

The library carries no tracing code.  :func:`install` replaces each entry
point named in :data:`ENTRY_POINTS` with a wrapper that records a span
(name, start, end, parent span, request id) in flat arrays, and
:func:`restore` puts every original back.  Methods are patched on their
class; module functions are patched in every ``randlab.*`` module that holds
them, including the ``from .x import y`` aliases, so internal calls are seen.

``WindowPerm.__call__`` is deliberately left alone: it runs about 10**7
times per run and a span per call would swamp both the trace and the time.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from dataclasses import dataclass

MODULES = ("cli", "dyadic", "groups", "spaces", "stepfn", "tilde", "synthesis")


@dataclass(frozen=True)
class EntryPoint:
    module: str      # randlab submodule that defines it
    qualname: str    # "func" or "Class.method"
    raises: bool     # its own body raises or asserts, so `.failed` is kept

    @property
    def name(self) -> str:
        return f"{self.module}.{self.qualname}"


def _eps(module, raising, plain):
    return [EntryPoint(module, q, True) for q in raising] + [
        EntryPoint(module, q, False) for q in plain
    ]


ENTRY_POINTS = (
    _eps(
        "dyadic",
        ["DyadicMPT.refine", "DyadicMPT.__post_init__", "rokhlin_tower",
         "TowerData.validate", "periodic_approximation", "mpt_conjugate_match"],
        ["DyadicMPT.__mul__", "DyadicMPT.inverse", "DyadicMPT.__pow__",
         "DyadicMPT.cycles", "DyadicMPT.image", "delta_u", "delta_w"],
    )
    + _eps(
        "groups",
        ["WindowPerm.__init__", "match_partial"],
        ["WindowPerm.__mul__", "WindowPerm.inverse", "WindowPerm.__pow__",
         "WindowPerm.cycles"],
    )
    + _eps("stepfn", ["StepFn.refine"], ["dhat", "l0_mul"])
    + _eps(
        "tilde",
        ["lu_exact_discrete", "lu_bounds", "lu_estimate"],
        ["TildeElement.__mul__", "TildeElement.inverse", "TildeElement.conj",
         "tilde_act", "pointwise_metric", "ProductNbhd.contains"],
    )
    + _eps("spaces", ["SpaceIsometry.__mul__"], [])
    + _eps(
        "synthesis",
        ["synthesize_conjugator", "synthesize_conjugator_metric",
         "conjugate_into_neighborhood", "nearest_of_cycle_type"],
        ["approx_conjugate_constant"],
    )
    + _eps("cli", [], ["emit"])
)

REQUEST = "request"
NOOP_REFINES = "dyadic.DyadicMPT.refine.noop_calls"
HEIGHTS_TRIED = "dyadic.mpt_conjugate_match.heights_tried"
CERTIFICATES = "synthesis.certificates"


class Tracer:
    """Spans kept in memory as parallel arrays until the run ends."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("l")
        self.parent = array("l")
        self.request = array("l")
        self.start = array("d")
        self.end = array("d")
        self.failed: dict[str, int] = {}
        self.counts = {NOOP_REFINES: 0, CERTIFICATES: 0}
        self._stack: list[int] = []
        self._request_id = -1

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.end)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self._request_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, *args):
        """Run ``fn(*args)`` inside a root span that starts a new request."""
        self._request_id += 1
        i = self._open(self._name_id(name))
        try:
            return fn(*args)
        finally:
            self._close(i)

    def wrap(self, name: str, fn, before=None, after=None):
        """Wrapper recording one span per call; exceptions pass unchanged."""
        nid = self._name_id(name)
        self.failed.setdefault(name, 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            i = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.failed[name] += 1
                raise
            finally:
                self._close(i)
            if after is not None:
                after(result)
            return result

        return traced

    # -- reading the trace -------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the time its child spans cover."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        return [d - c for d, c in zip(dur, child)]

    def summary(self) -> dict[str, dict]:
        """Per span name: calls and summed self time."""
        out = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        for nid, own in zip(self.name_of, self.self_times()):
            row = out[self.names[nid]]
            row["calls"] += 1
            row["self_s"] += own
        return out

    def heights_tried(self) -> int:
        """Height attempts of ``mpt_conjugate_match``: each attempt is one
        pair of ``periodic_approximation`` spans directly under it."""
        pa = self._ids.get("dyadic.periodic_approximation")
        match = self._ids.get("dyadic.mpt_conjugate_match")
        pairs = sum(
            1
            for nid, p in zip(self.name_of, self.parent)
            if nid == pa and p >= 0 and self.name_of[p] == match
        )
        return pairs // 2


def randlab_modules():
    return [
        m for name, m in sys.modules.items()
        if m is not None and (name == "randlab" or name.startswith("randlab."))
    ]


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Patch every entry point; returns the (owner, attr, original) list
    that :func:`restore` needs."""
    patches: list[tuple[object, str, object]] = []
    modules = randlab_modules()
    try:
        for ep in ENTRY_POINTS:
            mod = sys.modules[f"randlab.{ep.module}"]
            before = after = None
            if ep.name == "dyadic.DyadicMPT.refine":
                before = _count_noop_refine(tracer)
            elif ep.qualname in ("synthesize_conjugator", "synthesize_conjugator_metric"):
                after = _count_certificates(tracer)
            if "." in ep.qualname:
                cls_name, attr = ep.qualname.split(".")
                owner = getattr(mod, cls_name)
                original = vars(owner)[attr]
                setattr(owner, attr, tracer.wrap(ep.name, original, before, after))
                patches.append((owner, attr, original))
                continue
            original = getattr(mod, ep.qualname)
            wrapper = tracer.wrap(ep.name, original, before, after)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        patches.append((m, attr, original))
    except BaseException:
        restore(patches)
        raise
    return patches


def restore(patches) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


def _count_noop_refine(tracer: Tracer):
    def before(args, kwargs):
        level = args[1] if len(args) > 1 else kwargs["level"]
        if level == args[0].level:
            tracer.counts[NOOP_REFINES] += 1

    return before


def _count_certificates(tracer: Tracer):
    def after(result):
        tracer.counts[CERTIFICATES] += sum(1 for row in result.certificates if row[-1])

    return after


def layer_metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for ep in ENTRY_POINTS:
        specs.append((f"{ep.name}.calls", "count", "lower"))
        specs.append((f"{ep.name}.self_s", "s", "lower"))
        if ep.raises:
            specs.append((f"{ep.name}.failed", "count", "lower"))
    for module in MODULES:
        specs.append((f"{module}.self_s", "s", "lower"))
    specs += [
        (f"{REQUEST}.self_s", "s", "lower"),
        (NOOP_REFINES, "count", "lower"),
        (HEIGHTS_TRIED, "count", "lower"),
        (CERTIFICATES, "count", "higher"),
        ("trace.untraced_requests_per_s", "1/s", "higher"),
        ("trace.traced_requests_per_s", "1/s", "higher"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    return specs


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer values from a finished trace (overhead figures excluded)."""
    summary = tracer.summary()
    values: dict[str, float] = {}
    module_self = dict.fromkeys(MODULES, 0.0)
    for ep in ENTRY_POINTS:
        row = summary.get(ep.name, {"calls": 0, "self_s": 0.0})
        values[f"{ep.name}.calls"] = row["calls"]
        values[f"{ep.name}.self_s"] = row["self_s"]
        if ep.raises:
            values[f"{ep.name}.failed"] = tracer.failed.get(ep.name, 0)
        module_self[ep.module] += row["self_s"]
    for module, total in module_self.items():
        values[f"{module}.self_s"] = total
    values[f"{REQUEST}.self_s"] = summary.get(REQUEST, {"self_s": 0.0})["self_s"]
    values[NOOP_REFINES] = tracer.counts[NOOP_REFINES]
    values[HEIGHTS_TRIED] = tracer.heights_tried()
    values[CERTIFICATES] = tracer.counts[CERTIFICATES]
    return values
