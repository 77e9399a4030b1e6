"""The four benchmark workloads: seeded request pools and their checks.

A pool is a fixed list of requests built from the workload seed with
``randlab.corpus`` before timing starts.  The size mix of each pool is part
of the workload's definition and does not depend on the seed; the seed
draws the content.  That keeps the cost mix the same for every seed, so
run-to-run spread comes from the machine rather than from the draw.

Every request is one call into a public entry point.  ``check`` applies the
pass condition of the matching CLI command or acceptance suite, and
``exact`` renders the exact output (``p/q`` rationals, report text without
its runtime column) that the run digests.
"""

from __future__ import annotations

import csv
import io
import random
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable

F = Fraction


@dataclass
class Request:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], bool]
    exact: Callable[[object], str]


def q(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# synthesize: the CLI subcommand, one task per request
# ---------------------------------------------------------------------------

def strip_runtime(text: str) -> str:
    """Report text without its ``runtime_s`` column.

    The column is found by name: with ``emit_certificates`` the certificate
    fields come after it, so it is not the last one.
    """
    rows = list(csv.reader(io.StringIO(text)))
    col = rows[0].index("runtime_s")
    return "\n".join(",".join(r[:col] + r[col + 1:]) for r in rows)


def _check_synthesize(result) -> bool:
    status, text = result
    rows = list(csv.DictReader(io.StringIO(text)))
    summaries = [r for r in rows if r["kind"] == "summary"]
    certs = [r for r in rows if r["kind"] != "summary"]
    return (
        status == 0
        and len(summaries) == 1
        and all(r["pass"] == "true" for r in rows)
        and F(summaries[0]["agreement"]) >= F(summaries[0]["agreement_bound"])
        and int(summaries[0]["certificates"]) == len(certs) > 0
    )


def build_synthesize(rl: SimpleNamespace, rng: random.Random) -> list[Request]:
    designs = [
        (level, height, k)
        for level in (8, 8, 9)
        for height in (8, 8, 16)
        for k in (4, 6, 8)
    ]
    pool = []
    for level, height, k in designs:
        cfg = {
            "count": "1",
            "level": str(level),
            "height": str(height),
            "k": str(k),
            "window": "8",
            "emit_certificates": "true",
            "seed": str(rng.randrange(2 ** 32)),
        }
        pool.append(
            Request(
                kind=f"synthesize-L{level}-h{height}",
                call=lambda cfg=cfg: rl.cli.run_command("synthesize", cfg),
                check=_check_synthesize,
                exact=lambda result: strip_runtime(result[1]),
            )
        )
    return pool


# ---------------------------------------------------------------------------
# metric-synthesis: interval-map base group, level-8 fiber values
# ---------------------------------------------------------------------------

EPS_G = F(1, 8)


def _exact_metric_synthesis(out) -> str:
    rows = [
        f"{kind} {base} {pos} {q(dev)} {ok}"
        for kind, base, pos, dev, ok in out.certificates
    ]
    return "\n".join([f"agreement {q(out.agreement)}"] + rows)


def build_metric_synthesis(rl: SimpleNamespace, rng: random.Random) -> list[Request]:
    corpus = rl.corpus
    pool = []
    for level in [6, 6, 7] * 8:
        sigma = corpus.rand_full_cycle(rng, 8)
        s = corpus.rand_aperiodic_mpt(rng, level, 8)
        h = rl.stepfn.StepFn(3, tuple(corpus.rand_mpt(rng, 8) for _ in range(8)))
        task = rl.synthesis.MetricSynthesisTask(
            sigma=sigma, s=s, h=h, eps_g=EPS_G, eps=F(1, 4), height=8
        )
        pool.append(
            Request(
                kind=f"metric-synthesis-L{level}",
                call=lambda task=task: rl.synthesis.synthesize_conjugator_metric(task),
                check=lambda out: out.all_ok() and out.max_deviation() <= EPS_G,
                exact=_exact_metric_synthesis,
            )
        )
    return pool


# ---------------------------------------------------------------------------
# metrics: CLI distance table on one pair, alternating with sandwich bounds
# ---------------------------------------------------------------------------

def _check_metrics_report(result) -> bool:
    status, text = result
    rows = list(csv.DictReader(io.StringIO(text)))
    if status != 0 or len(rows) != 1:
        return False
    r = rows[0]
    lower, est, exact, upper = (
        F(r[key]) for key in ("lu_lower", "lu_estimate", "lu_exact", "lu_upper")
    )
    return r["pass"] == "true" and lower <= est <= exact <= upper


def _exact_sandwich(result) -> str:
    est, bounds = result
    return " ".join(
        q(x)
        for x in (est.value, est.lower, est.upper, bounds.lower, bounds.upper,
                  bounds.alt_lower, bounds.moving_measure,
                  bounds.fixed_fiber_integral, bounds.anchor_distance)
    )


def build_metrics(rl: SimpleNamespace, rng: random.Random) -> list[Request]:
    corpus, tilde = rl.corpus, rl.tilde
    space = corpus.equilateral_space(3)
    group = rl.spaces.isometry_group(space)
    # CLI pairs at levels 6, 6, 7 as in criterion 03; sandwich pairs at
    # 6, 7 and 9, so the two kinds overlap in cost and neither the median
    # nor p90 sits on the border between two size classes
    pool = []
    for cli_level, sw_level in zip([6, 6, 7] * 4, [6, 7, 9] * 4):
        a = corpus.rand_tilde_perm(rng, cli_level, 8)
        b = corpus.rand_tilde_perm(rng, cli_level, 8)
        cfg = {
            "a": tilde.format_tilde(a),
            "b": tilde.format_tilde(b),
            "seed": str(rng.randrange(2 ** 32)),
        }
        pool.append(
            Request(
                kind=f"metrics-cli-L{cli_level}",
                call=lambda cfg=cfg: rl.cli.run_command("metrics", cfg),
                check=_check_metrics_report,
                exact=lambda result: strip_runtime(result[1]),
            )
        )
        x = tilde.TildeElement(
            corpus.rand_step_isometry(rng, sw_level, group),
            corpus.rand_mpt(rng, sw_level),
        )
        y = tilde.TildeElement(
            corpus.rand_step_isometry(rng, sw_level, group),
            corpus.rand_mpt(rng, sw_level),
        )
        est_seed = rng.randrange(2 ** 32)

        def sandwich(x=x, y=y, est_seed=est_seed):
            return (
                rl.tilde.lu_estimate(x, y, budget=4, seed=est_seed),
                rl.tilde.lu_bounds(x, y),
            )

        pool.append(
            Request(
                kind=f"metrics-sandwich-L{sw_level}",
                call=sandwich,
                check=lambda r: r[1].lower <= r[0].value <= r[1].upper,
                exact=_exact_sandwich,
            )
        )
    return pool


# ---------------------------------------------------------------------------
# density: neighborhood conjugation and constant-fiber conjugation
# ---------------------------------------------------------------------------

EPS_DENSITY = F(1, 16)


def _exact_conjugator(c) -> str:
    """The conjugator's interval map and fiber images, exactly."""
    fiber = ";".join(",".join(map(str, v.images)) for v in c.f.values)
    return f"{c.t.level} {c.t.perm} {c.f.level} {fiber}"


def _exact_neighborhood(out) -> str:
    residuals = " ".join(q(r) for r in out.fiber_residuals + out.aut_residuals)
    return f"{residuals} {out.member} {_exact_conjugator(out.conjugator)}"


def build_density(rl: SimpleNamespace, rng: random.Random) -> list[Request]:
    corpus, eps = rl.corpus, EPS_DENSITY
    g_base = rl.groups.cycle_pack({32 * j: 1 for j in range(1, 6)})  # window 480
    # two neighborhood requests per constant-fiber request, as in criterion
    # 08; constant fibers alternate equal and differing cycle types
    kinds = ["nbhd", "nbhd", "const-equal-L9", "nbhd", "nbhd", "const-differ-L9",
             "nbhd", "nbhd", "const-equal-L10", "nbhd", "nbhd", "const-differ-L9"] * 2
    pool = []
    for kind in kinds:
        if kind == "nbhd":
            t_gen = corpus.rand_cycle_type(rng, 7, [32] * 4)
            t_c = corpus.rand_cycle_type(rng, 7, [32] * 4)
            conjs = [corpus.rand_window_perm(rng, 6) for _ in range(4)]
            marked = rl.dyadic.DyadicSet(2, frozenset(rng.sample(range(4), 2)))
            target = rl.tilde.ProductNbhd(
                center_f=rl.stepfn.StepFn(2, tuple(g_base.conj(c) for c in conjs)),
                center_t=t_c,
                value_conditions=((0, eps), (1, eps)),
                set_conditions=((marked, eps),),
            )
            pool.append(
                Request(
                    kind=kind,
                    call=lambda t=t_gen, target=target: (
                        rl.synthesis.conjugate_into_neighborhood(g_base, t, target)
                    ),
                    check=lambda out: out.member,
                    exact=_exact_neighborhood,
                )
            )
            continue
        level = int(kind.rsplit("L", 1)[1])
        h = corpus.rand_window_perm(rng, 6)
        t = corpus.rand_full_cycle(rng, level)
        if kind.startswith("const-equal"):
            s = corpus.rand_full_cycle(rng, level)
        else:
            s = corpus.rand_cycle_type(rng, level, [2 ** (level - 1)] * 2)
        pool.append(
            Request(
                kind=kind,
                call=lambda h=h, t=t, s=s: (
                    rl.synthesis.approx_conjugate_constant(h, t, s, eps)
                ),
                check=lambda out: out.certified and out.lu_value < eps,
                exact=lambda out: (
                    f"{q(out.lu_value)} {out.certified} {_exact_conjugator(out.conjugator)}"
                ),
            )
        )
    return pool


BUILDERS = {
    "synthesize": build_synthesize,
    "metric-synthesis": build_metric_synthesis,
    "metrics": build_metrics,
    "density": build_density,
}
