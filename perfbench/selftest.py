"""Self-tests of the benchmark's tracer and runner.

Run from the repository root with ``python3 perfbench/selftest.py``.  The
file name keeps it out of the default pytest collection, so the tier-1 test
run does not pick it up.
"""

from __future__ import annotations

import json
import random
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer as tr  # noqa: E402
from workloads import BUILDERS  # noqa: E402


def small_pool(rl):
    """A few requests that reach both value kinds, both CLI reports and
    synthesis."""
    metrics = BUILDERS["metrics"](rl, random.Random(5))
    density = BUILDERS["density"](rl, random.Random(5))
    synthesize = BUILDERS["synthesize"](rl, random.Random(5))
    return metrics[:4] + density[:3] + synthesize[:1]


def patchable_state():
    """Identity of every randlab module attribute and patched class member."""
    state = {}
    for module in tr.randlab_modules():
        for attr, value in vars(module).items():
            state[(module.__name__, attr)] = value
            if isinstance(value, type):
                for member, inner in vars(value).items():
                    state[(module.__name__, attr, member)] = inner
    return state


class TracerTest(unittest.TestCase):
    def setUp(self):
        self.rl = run.import_randlab()

    def test_wrapper_reraises_unchanged_and_counts_failures(self):
        tracer = tr.Tracer()
        patches = tr.install(tracer)
        try:
            groups = self.rl.groups
            sigma = groups.cycle_pack({2: 1})
            with self.assertRaises(sys.modules["randlab.errors"].InsufficientCycles):
                groups.match_partial(sigma, 1, {0: 1, 1: 2, 2: 0})
            self.assertEqual(tracer.failed["groups.match_partial"], 1)
            self.assertEqual(len(tracer.start), len(tracer.end))
        finally:
            tr.restore(patches)
        raised = ValueError("sentinel")

        def boom():
            raise raised

        with self.assertRaises(ValueError) as ctx:
            tr.Tracer().wrap("x.boom", boom)()
        self.assertIs(ctx.exception, raised)

    def test_self_times_sum_to_request_span(self):
        pool = small_pool(self.rl)
        tracer = tr.Tracer()
        patches = tr.install(tracer)
        try:
            for item in pool:
                tracer.span(tr.REQUEST, item.call)
        finally:
            tr.restore(patches)
        own = tracer.self_times()
        totals: dict[int, float] = {}
        for req, value in zip(tracer.request, own):
            totals[req] = totals.get(req, 0.0) + value
        roots = [i for i, p in enumerate(tracer.parent) if p < 0]
        self.assertEqual(len(roots), len(totals))
        for i in roots:
            duration = tracer.end[i] - tracer.start[i]
            self.assertAlmostEqual(totals[tracer.request[i]], duration, delta=1e-9 + 1e-9 * duration)
        self.assertGreater(len(own), len(roots))

    def test_digests_agree_with_tracing_on_and_off(self):
        pool = small_pool(self.rl)
        ledger, metrics = run.traced_run(pool)
        self.assertEqual(len(ledger.latencies), 4 * len(pool))
        # a traced repeat whose exact output differs counts as failed
        self.assertEqual(ledger.failed, 0)
        self.assertIsNotNone(ledger.pool_digest())
        self.assertGreater(metrics["tilde.lu_bounds.calls"], 0)
        self.assertGreater(metrics["synthesis.conjugate_into_neighborhood.calls"], 0)

    def test_every_original_is_restored(self):
        before = patchable_state()
        run.traced_run(small_pool(self.rl))
        after = patchable_state()
        self.assertEqual(before.keys(), after.keys())
        changed = [key for key in before if before[key] is not after[key]]
        self.assertEqual(changed, [])

    def test_benchmark_json_lists_every_layer_metric(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
        self.assertEqual(listed, tr.layer_metric_specs())


if __name__ == "__main__":
    unittest.main()
