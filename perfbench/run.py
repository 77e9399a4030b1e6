"""randlab benchmark runner: one workload, one closed-loop caller.

Usage, from the repository root::

    python3 perfbench/run.py --workload synthesize --seed 1 --seconds 24 --trace 0

Set-up (importing randlab from ``src`` and building the seeded request
pool) is repeated ``SETUP_REPEATS`` times and its median reported, so work
moved into set-up shows.

With ``--trace 0`` the runner issues requests one after another, in whole
passes over the pool, until the summed request time reaches ``--seconds``.
Each input's latency is the fastest of its repeats in the run: on a shared
2-vCPU virtual machine other tenants slowed whole stretches of a run by up
to 2x, and the minimum over repeats is what stayed steady from run to run.  Throughput and the latency
percentiles are taken over those per-input latencies.

With ``--trace 1`` it makes two untraced and two traced passes over the pool,
alternating, so every count is exact for the seed, and reports the
per-layer metrics and the tracing overhead.

Every request is checked; the exact outputs of the first pass are digested
and compared with ``design.json`` when the seed is one recorded there.  The
last line of standard output is one JSON object; the exit code is 0 only
when every request passed and every known digest matched.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import tracer as tr
from workloads import BUILDERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 9


def import_randlab() -> SimpleNamespace:
    """Fresh import of every randlab module from this checkout's ``src``."""
    src = str(ROOT / "src")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    for name in [n for n in sys.modules if n == "randlab" or n.startswith("randlab.")]:
        del sys.modules[name]
    mods = {m: importlib.import_module(f"randlab.{m}") for m in tr.MODULES + ("corpus",)}
    package = sys.modules["randlab"]
    if Path(package.__file__).resolve().parent != ROOT / "src" / "randlab":
        raise ImportError(f"randlab imported from {package.__file__}, not from src/")
    return SimpleNamespace(**mods)


def setup(workload: str, seed: int):
    """Import plus pool generation, repeated; returns (pool, median seconds)."""
    times = []
    for _ in range(SETUP_REPEATS):
        pool = None  # let the previous repeat's pool go before timing
        start = time.perf_counter()
        rl = import_randlab()
        pool = BUILDERS[workload](rl, random.Random(seed))
        times.append(time.perf_counter() - start)
    return pool, statistics.median(times)


class Ledger:
    """Outcome of every request: latency, failures, exact-output digests."""

    def __init__(self, pool):
        self.pool = pool
        self.latencies: list[float] = []
        self.item_latencies: list[list[float]] = [[] for _ in pool]
        self.failed = 0
        self.item_digests: list[str | None] = [None] * len(pool)

    def run(self, slot: int, call=None) -> None:
        item = self.pool[slot]
        start = time.perf_counter()
        try:
            result = call(item.call) if call else item.call()
        except Exception:
            self._record(slot, time.perf_counter() - start)
            self._fail(item, traceback.format_exc())
            return
        self._record(slot, time.perf_counter() - start)
        try:
            ok = bool(item.check(result))
            digest = hashlib.sha256(item.exact(result).encode()).hexdigest()
        except Exception:
            self._fail(item, traceback.format_exc())
            return
        if not ok:
            self._fail(item, "output check failed\n")
            return
        if self.item_digests[slot] is None:
            self.item_digests[slot] = digest
        elif self.item_digests[slot] != digest:
            self._fail(item, "same input gave a different exact output\n")

    def _record(self, slot: int, seconds: float) -> None:
        self.latencies.append(seconds)
        self.item_latencies[slot].append(seconds)

    def best_latencies(self) -> list[float]:
        """Fastest repeat of every input."""
        return [min(v) for v in self.item_latencies]

    def _fail(self, item, detail: str) -> None:
        if self.failed == 0:
            sys.stderr.write(f"request {item.kind} failed:\n{detail}")
        self.failed += 1

    def pool_digest(self) -> str | None:
        if any(d is None for d in self.item_digests):
            return None
        return hashlib.sha256("\n".join(self.item_digests).encode()).hexdigest()


def expected_digest(workload: str, seed: int) -> str | None:
    design = json.loads((HERE / "design.json").read_text())
    return design["digests"].get(workload, {}).get(str(seed))


def measure(pool, seconds: float) -> Ledger:
    """Whole passes over the pool until the summed request time reaches
    ``seconds``; whole passes keep the size mix of every run the same."""
    ledger = Ledger(pool)
    while sum(ledger.latencies) < seconds:
        one_pass(ledger)
    return ledger


def one_pass(ledger: Ledger, call=None) -> None:
    for slot in range(len(ledger.pool)):
        ledger.run(slot, call)


def traced_run(pool):
    """Untraced and traced passes, alternating twice; returns (ledger, metrics).

    Counts and self times cover both traced passes.  The overhead compares
    the fastest untraced and the fastest traced repeat of every input.
    """
    ledger = Ledger(pool)
    tracer = tr.Tracer()
    for _ in range(2):
        one_pass(ledger)
        patches = tr.install(tracer)
        try:
            one_pass(ledger, lambda fn: tracer.span(tr.REQUEST, fn))
        finally:
            tr.restore(patches)
    untraced = len(pool) / sum(min(v[0::2]) for v in ledger.item_latencies)
    traced = len(pool) / sum(min(v[1::2]) for v in ledger.item_latencies)
    metrics = tr.layer_metrics(tracer)
    metrics["trace.untraced_requests_per_s"] = untraced
    metrics["trace.traced_requests_per_s"] = traced
    metrics["trace.overhead_ratio"] = untraced / traced
    return ledger, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(BUILDERS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        pool, setup_s = setup(args.workload, args.seed)
    except ImportError as exc:
        print(f"cannot import randlab from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        ledger, layer = traced_run(pool)
        specs = tr.layer_metric_specs()
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit, _ in specs}
        width = max(len(name) for name, _, _ in specs)
        for name, unit, _ in specs:
            print(f"{name:<{width}}  {layer[name]:>14.6g} {unit}")
    else:
        ledger = measure(pool, args.seconds)
        best = ledger.best_latencies()
        attempted = len(ledger.latencies)
        metrics = {
            "requests_per_s": {"value": len(best) / sum(best), "unit": "1/s"},
            "request_p50_s": {"value": statistics.median(best), "unit": "s"},
            "request_p90_s": {"value": statistics.quantiles(best, n=10)[-1], "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
            "success_ratio": {
                "value": (attempted - ledger.failed) / attempted,
                "unit": "ratio",
            },
            "setup_s": {"value": setup_s, "unit": "s"},
        }

    attempted = len(ledger.latencies)
    digest = ledger.pool_digest()
    expected = expected_digest(args.workload, args.seed)
    digest_ok = expected is None or digest == expected
    print(f"workload {args.workload} seed {args.seed}: {attempted} requests over a "
          f"pool of {len(pool)}, failed {ledger.failed} "
          f"(failed_ratio {ledger.failed / attempted:.6g})")
    print(f"digest {digest} ({'no recorded digest' if expected is None else 'recorded ' + expected})")
    if not digest_ok:
        print("digest mismatch: an exact output changed", file=sys.stderr)
    correct = ledger.failed == 0 and digest_ok
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
