"""Output pins for the conjugation builders.

Each scenario below is rebuilt from its seed, and the SHA-256 of its full
text output is compared with a digest recorded before the builders were
refactored onto shared steps.  A failure here means an output changed,
not merely a verdict.
"""

import hashlib
import random
from fractions import Fraction as F

from randlab.corpus import rand_aperiodic_mpt, rand_full_cycle, rand_mpt
from randlab.dyadic import format_mpt
from randlab.stepfn import StepFn
from randlab.suites import neighborhood_case
from randlab.synthesis import MetricSynthesisTask, synthesize_conjugator_metric
from randlab.tilde import TildeElement, format_tilde


def _text(x) -> str:
    if isinstance(x, TildeElement):
        return format_tilde(x)
    if isinstance(x, (tuple, list)):
        return "(" + ",".join(_text(v) for v in x) + ")"
    return str(x)


def _digest(*parts) -> str:
    return hashlib.sha256("\n".join(_text(p) for p in parts).encode()).hexdigest()


# -- synthesize_conjugator_metric: the first tasks of criterion 07 ---------------

METRIC_PINS = [
    "4c5f51933549f7793a3a8a63a8502d157533d3db938c612f2a06698e73f1c88f",
    "3b3166e1166d811cf8d4dca1ad4a5fb62aeb536d20b7e11b50a547205167f171",
    "1befb8ed422e1fc7f7559e5c15dc4fc4a4588c7fb31f25efbae923d559a510d0",
]


def test_metric_synthesis_pinned():
    # the draws of suite_metric_synthesis at its default seed
    rng = random.Random(7)
    for digest in METRIC_PINS:
        sigma = rand_full_cycle(rng, 8)
        s = rand_aperiodic_mpt(rng, 9, 8)
        h = StepFn(3, tuple(rand_mpt(rng, 8) for _ in range(8)))
        task = MetricSynthesisTask(
            sigma=sigma, s=s, h=h, eps_g=F(1, 8), eps=F(1, 4), height=8
        )
        out = synthesize_conjugator_metric(task)
        g_text = " | ".join(format_mpt(v) for v in out.g.values)
        assert _digest(out.g.level, g_text, out.certificates, out.agreement) == digest


# -- conjugate_into_neighborhood: the first cases of criterion 08 ----------------

NEIGHBORHOOD_PINS = [
    "304b441c25bfc5a2c3f8b4cfbbe074fdb78e930a9bfc3b35d5ef215ca2b49395",
    "cb05070a3697b4d7af80df4e2e5c53f9b91976cfebd663f86b87efd3902100b9",
    "0124de58db81a2769baadf267aa16edca0646d23e738b912747a9b609f060e0b",
]


def test_neighborhood_conjugation_pinned():
    # the draws of suite_density at its default seed
    rng = random.Random(8)
    for digest in NEIGHBORHOOD_PINS:
        out = neighborhood_case(rng).out
        assert _digest(
            out.conjugator,
            out.conjugated,
            out.member,
            out.fiber_residuals,
            out.aut_residuals,
        ) == digest
