"""Output pins for the conjugation builders.

Each scenario below is rebuilt from its seed, and the SHA-256 of its full
text output is compared with a digest recorded before the builders were
refactored onto shared steps.  A failure here means an output changed,
not merely a verdict.
"""

import hashlib
import random
import runpy
from fractions import Fraction as F
from pathlib import Path

import pytest

from randlab.corpus import (
    rand_aperiodic_mpt,
    rand_cycle_type,
    rand_full_cycle,
    rand_mpt,
    rand_window_perm,
)
from randlab.dyadic import DyadicSet, format_mpt
from randlab.groups import cycle_pack, from_cycles
from randlab.stepfn import StepFn
from randlab.suites import neighborhood_case
from randlab.synthesis import (
    MetricSynthesisTask,
    diagonal_experiment,
    synthesize_conjugator_metric,
)
from randlab.tilde import ProductNbhd, TildeElement, format_tilde

ROOT = Path(__file__).resolve().parents[1]


def translated(p, offset):
    """Copy of ``p`` moved up by ``offset``: ``n + offset -> p(n) + offset``."""
    return from_cycles([[x + offset for x in c] for c in p.cycles()])


def _text(x) -> str:
    if isinstance(x, TildeElement):
        return format_tilde(x)
    if isinstance(x, (tuple, list)):
        return "(" + ",".join(_text(v) for v in x) + ")"
    return str(x)


def _digest(*parts) -> str:
    return hashlib.sha256("\n".join(_text(p) for p in parts).encode()).hexdigest()


def _diagonal_digest(report) -> str:
    return _digest(report.conjugator, report.per_coordinate, report.note)


# -- diagonal_experiment ---------------------------------------------------------

def _diagonal_demo04():
    scope = runpy.run_path(str(ROOT / "demos" / "04_conjugator_synthesis.py"))
    return scope["report"]


def _diagonal_single():
    rng = random.Random(47)
    g = cycle_pack({16 * j: 1 for j in range(1, 4)})
    t_gen = rand_cycle_type(rng, 7, [16] * 8)
    t_c = rand_cycle_type(rng, 7, [16] * 8)
    target = ProductNbhd(
        center_f=StepFn.constant(g, 0),
        center_t=t_c,
        value_conditions=((0, F(1, 8)),),
        set_conditions=((DyadicSet(1, frozenset({1})), F(1, 8)),),
    )
    return diagonal_experiment([TildeElement(StepFn.constant(g, 0), t_gen)], [target])


def _diagonal_centered():
    rng = random.Random(53)
    t = rand_cycle_type(rng, 6, [16] * 4)
    sources = [
        TildeElement(StepFn.constant(g, 0), t)
        for g in (cycle_pack({8: 1}), translated(cycle_pack({8: 1}), 50))
    ]
    targets = [
        ProductNbhd(
            center_f=s.f,
            center_t=t,
            value_conditions=((0, F(1, 4)),),
            set_conditions=((DyadicSet(1, frozenset({0})), F(1, 4)),),
        )
        for s in sources
    ]
    return diagonal_experiment(sources, targets)


def _diagonal_disjoint():
    rng = random.Random(59)
    t_shared = rand_cycle_type(rng, 7, [16] * 8)
    t_center = rand_cycle_type(rng, 7, [16] * 8)

    def coordinate(offset):
        g = translated(cycle_pack({16 * j: 1 for j in range(1, 5)}), offset)
        conjs = [translated(rand_window_perm(rng, 6), offset) for _ in range(4)]
        target = ProductNbhd(
            center_f=StepFn(2, tuple(g.conj(c) for c in conjs)),
            center_t=t_center,
            value_conditions=((offset, F(1, 16)), (offset + 1, F(1, 16))),
            set_conditions=((DyadicSet(1, frozenset({0})), F(1, 8)),),
        )
        return TildeElement(StepFn.constant(g, 0), t_shared), target

    (s1, t1), (s2, t2) = coordinate(0), coordinate(250)
    return diagonal_experiment([s1, s2], [t1, t2])


DIAGONAL_PINS = [
    ("demo04", _diagonal_demo04,
     "c0b9c053cdf6afe022ca656443013239a4536808b06989ae5af3d4322327babf"),
    ("single", _diagonal_single,
     "eb967619569019f478836538c4366e98bedc855c71fedcc1ced044a1a1ea6db7"),
    ("centered", _diagonal_centered,
     "66052e4d89ef83322971c34479b54e1ff0225665a7e9d070ec3665f16de1e496"),
    ("disjoint", _diagonal_disjoint,
     "23a5d759bde03823ea8c9a9930c606a39918a76ec3cc95202643b84647ad0931"),
]


@pytest.mark.parametrize("build,digest", [p[1:] for p in DIAGONAL_PINS],
                         ids=[p[0] for p in DIAGONAL_PINS])
def test_diagonal_report_pinned(build, digest):
    assert _diagonal_digest(build()) == digest


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
