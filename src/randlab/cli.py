"""Config-driven experiment runner.

Batch interface over the library: each subcommand reads a flat key-value
config file, runs a deterministic experiment, and emits report rows as CSV
or JSON lines.  Rationals are serialized exactly as ``p/q`` strings, never
as floats; identical configs produce byte-identical reports apart from the
trailing runtime column.

Subcommands: ``metrics``, ``tower``, ``synthesize``, ``density``,
``verify``, ``power``.  Flags: ``--config <path>``, ``--seed <u64>``,
``--out <path>``, ``--format csv|jsonl``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import random
import sys
import time
from fractions import Fraction

from .corpus import (
    rand_aperiodic_mpt,
    rand_cycle_type,
    rand_full_cycle,
    rand_pl,
    rand_step_perm,
    rand_tilde_perm,
    rand_window_perm,
)
from .dyadic import (
    DyadicMPT,
    DyadicSet,
    delta_u,
    delta_u_prime,
    delta_w,
    parse_mpt,
    periodic_approximation,
    rokhlin_tower,
)
from .errors import ConfigError, RandlabError
from .groups import (
    cycle_pack,
    orbitals_and_signs,
    parse_cycles,
    perm_dp,
    perm_du,
    power_cycle_type,
)
from .stepfn import StepFn, dhat
from .suites import run_all
from .synthesis import (
    SynthesisTask,
    approx_conjugate_constant,
    conjugate_into_neighborhood,
    synthesize_conjugator,
)
from .tilde import (
    ProductNbhd,
    TildeElement,
    lu_bounds,
    lu_estimate,
    lu_exact_discrete,
    parse_tilde,
    pointwise_metric,
)

F = Fraction


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------

def parse_config(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", line=lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            raise ConfigError("empty key", line=lineno)
        if key in out:
            raise ConfigError(f"duplicate key {key!r}", line=lineno)
        out[key] = value
    return out


def config_digest(command: str, cfg: dict[str, str]) -> str:
    canonical = command + "\n" + "\n".join(
        f"{k}={cfg[k]}" for k in sorted(cfg)
    )
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _frac(cfg, key, default=None) -> Fraction:
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing rational key {key!r}")
        return Fraction(default)
    try:
        return Fraction(cfg[key])
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"bad rational for {key!r}: {cfg[key]!r}") from None


def _int(cfg, key, default=None) -> int:
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing integer key {key!r}")
        return default
    try:
        return int(cfg[key])
    except ValueError:
        raise ConfigError(f"bad integer for {key!r}: {cfg[key]!r}") from None


def _need_seed(cfg) -> int:
    if "seed" not in cfg:
        raise ConfigError("sampled experiments need an explicit seed")
    return _int(cfg, "seed")


def fmt(x) -> str:
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, bool):
        return "true" if x else "false"
    return str(x)


def _mpt_level(key, value) -> int:
    """The level after the colon of ``shift:<level>`` or ``cycle:<level>``."""
    try:
        level = int(value.split(":", 1)[1])
    except ValueError:
        raise ConfigError(f"bad level for {key!r}: {value!r}") from None
    if level < 0:
        raise ConfigError(f"negative level for {key!r}: {value!r}")
    return level


def _mpt_from_config(cfg, key, rng=None) -> DyadicMPT:
    value = cfg.get(key, "")
    if value.startswith("mpt"):
        return parse_mpt(value)
    if value.startswith("shift:"):
        return DyadicMPT.shift(_mpt_level(key, value))
    if value.startswith("cycle:"):
        if rng is None:
            raise ConfigError(f"{key}: seeded cycle needs a seed")
        return rand_full_cycle(rng, _mpt_level(key, value))
    raise ConfigError(
        f"{key!r} must be 'mpt <level> <images>', 'shift:<level>' or 'cycle:<level>'"
    )


# ---------------------------------------------------------------------------
# Commands (each returns a list of ordered-dict rows)
# ---------------------------------------------------------------------------

def cmd_metrics(cfg):
    rows = []
    if "a" in cfg and "b" in cfg:
        a, b = parse_tilde(cfg["a"]), parse_tilde(cfg["b"])
        pairs = [(0, a, b)]
        rng = None
    else:
        rng = random.Random(_need_seed(cfg))
        level = _int(cfg, "level", 4)
        window = _int(cfg, "window", 6)
        count = _int(cfg, "count", 10)
        pairs = [
            (i, rand_tilde_perm(rng, level, window), rand_tilde_perm(rng, level, window))
            for i in range(count)
        ]
    budget = _int(cfg, "pointwise_budget", 24)
    est_budget = _int(cfg, "witness_budget", 8)
    est_seed = _int(cfg, "seed", 0)
    for i, a, b in pairs:
        exact = lu_exact_discrete(a, b)
        bounds = lu_bounds(a, b)
        est = lu_estimate(a, b, budget=est_budget, seed=est_seed + i)
        rows.append(
            {
                "id": i,
                "dhat_fiber": fmt(dhat(a.f, b.f, perm_dp)),
                "dhat_u_fiber": fmt(dhat(a.f, b.f, perm_du)),
                "delta_u": fmt(delta_u(a.t, b.t)),
                "delta_u_prime": fmt(delta_u_prime(a.t, b.t)),
                "delta_w": fmt(delta_w(a.t, b.t)),
                "pointwise": fmt(pointwise_metric(a, b, budget=budget)),
                "lu_exact": fmt(exact),
                "lu_lower": fmt(bounds.lower),
                "lu_upper": fmt(bounds.upper),
                "lu_estimate": fmt(est.value),
                "pass": bounds.lower <= est.value <= exact <= bounds.upper,
            }
        )
    return rows


def cmd_tower(cfg):
    rng = random.Random(_int(cfg, "seed", 0))
    t = _mpt_from_config(cfg, "mpt", rng)
    height = _int(cfg, "height")
    bound = _frac(cfg, "bound", "1")
    tower = rokhlin_tower(t, height, bound)
    pa = periodic_approximation(t, height, bound)
    ok = (
        pa.distance <= bound + F(1, height)
        and all(len(c) == height for c in pa.s0.cycles(include_fixed=True))
        and pa.exact_tower.covered().measure == 1
    )
    return [
        {
            "id": 0,
            "level": t.level,
            "height": height,
            "columns": len(tower.base.members),
            "leftover": fmt(tower.leftover.measure),
            "distance": fmt(pa.distance),
            "distance_bound": fmt(bound + F(1, height)),
            "pass": ok,
        }
    ]


def cmd_synthesize(cfg):
    rng = random.Random(_need_seed(cfg))
    count = _int(cfg, "count", 1)
    level = _int(cfg, "level", 9)
    height = _int(cfg, "height", 8)
    k = _int(cfg, "k", 4)
    window = _int(cfg, "window", 8)
    eps = _frac(cfg, "eps", F(2, height))
    emit_certs = cfg.get("emit_certificates", "false") == "true"
    rows = []
    for i in range(count):
        s = rand_aperiodic_mpt(rng, level, height)
        h = rand_step_perm(rng, 4, window)
        task = SynthesisTask(sigma=None, s=s, h=h, k=k, eps=eps, height=height)
        out = synthesize_conjugator(task)
        rows.append(
            {
                "id": i,
                "kind": "summary",
                "columns": len(out.tower.base.members),
                "agreement": fmt(out.agreement),
                "agreement_bound": fmt(1 - eps),
                "certificates": len(out.certificates),
                "pass": out.all_ok() and out.agreement >= 1 - eps,
            }
        )
        if emit_certs:
            for kind, column, pos, n, lhs, rhs, ok in out.certificates:
                rows.append(
                    {
                        "id": i,
                        "kind": kind,
                        "column": column,
                        "level": pos,
                        "n": n,
                        "lhs": lhs,
                        "rhs": rhs,
                        "pass": ok,
                    }
                )
    return rows


def cmd_density(cfg):
    rng = random.Random(_need_seed(cfg))
    count = _int(cfg, "count", 10)
    eps = _frac(cfg, "eps", "1/16")
    g_base = cycle_pack({32 * j: 1 for j in range(1, 6)})
    rows = []
    for i in range(count):
        t_gen = rand_cycle_type(rng, 8, [32] * 8)
        t_c = rand_cycle_type(rng, 8, [32] * 8)
        conjs = [rand_window_perm(rng, 6) for _ in range(4)]
        target = ProductNbhd(
            center_f=StepFn(2, tuple(g_base.conj(c) for c in conjs)),
            center_t=t_c,
            value_conditions=((0, eps), (1, eps)),
            set_conditions=((DyadicSet(2, frozenset({0, 2})), eps),),
        )
        out = conjugate_into_neighborhood(g_base, t_gen, target)
        rows.append(
            {
                "id": i,
                "experiment": "neighborhood",
                "value": fmt(max(out.fiber_residuals + out.aut_residuals)),
                "bound": fmt(eps),
                "pass": out.member,
            }
        )
        h = rand_window_perm(rng, 6)
        t, s = rand_full_cycle(rng, 9), rand_full_cycle(rng, 9)
        const = approx_conjugate_constant(h, t, s, eps)
        rows.append(
            {
                "id": i,
                "experiment": "constant-fiber",
                "value": fmt(const.lu_value),
                "bound": fmt(eps),
                "pass": const.certified,
            }
        )
    return rows


def cmd_verify(cfg):
    scale = float(_frac(cfg, "scale", "1"))
    seed_base = _int(cfg, "seed", 0)
    rows = []
    for res in run_all(seed_base=seed_base, scale=scale):
        rows.append(
            {
                "id": res.suite_id,
                "description": res.description,
                "checks": res.checks,
                "failures": res.failures,
                "budget_s": fmt(Fraction(res.budget_seconds).limit_denominator()),
                "pass": res.passed,
            }
        )
    return rows


def cmd_power(cfg):
    rows = []
    if "perm" in cfg:
        p = parse_cycles(cfg["perm"])
        n = _int(cfg, "n", 2)
        rule = power_cycle_type(p, n, window=p.window)
        direct = (p ** n).cycle_census(window=p.window)
        rows.append(
            {
                "id": 0,
                "experiment": "cycle-power-rule",
                "detail": ";".join(f"{k}:{v}" for k, v in sorted(rule.items()) if v),
                "pass": rule == direct,
            }
        )
        return rows
    rng = random.Random(_need_seed(cfg))
    count = _int(cfg, "count", 20)
    max_n = _int(cfg, "max_n", 12)
    for i in range(count):
        p = rand_window_perm(rng, rng.randrange(2, 33))
        ok = all(
            power_cycle_type(p, n, window=p.window)
            == (p ** n).cycle_census(window=p.window)
            for n in range(1, max_n + 1)
        )
        rows.append({"id": i, "experiment": "cycle-power-rule", "detail": "", "pass": ok})
    for i in range(count):
        g = rand_pl(rng)
        base = orbitals_and_signs(g)
        ok = all(orbitals_and_signs(g ** n) == base for n in range(2, 6))
        rows.append(
            {"id": count + i, "experiment": "orbital-invariance", "detail": "", "pass": ok}
        )
    return rows


COMMANDS = {
    "metrics": cmd_metrics,
    "tower": cmd_tower,
    "synthesize": cmd_synthesize,
    "density": cmd_density,
    "verify": cmd_verify,
    "power": cmd_power,
}


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

def emit(rows, command, digest, fmt_name, stream, runtime):
    decorated = []
    for row in rows:
        full = {"experiment_id": f"{command}-{row.get('id', 0)}", "digest": digest}
        full.update({k: v for k, v in row.items() if k != "id"})
        full["pass"] = "true" if row.get("pass", False) else "false"
        full["runtime_s"] = f"{runtime:.3f}"
        decorated.append(full)
    if fmt_name == "jsonl":
        for row in decorated:
            stream.write(json.dumps(row, sort_keys=False) + "\n")
    else:
        # columns in order of first appearance, the runtime column last
        keys = list(dict.fromkeys(k for row in decorated for k in row))
        keys.sort(key=lambda k: k == "runtime_s")
        writer = csv.DictWriter(stream, fieldnames=keys, restval="")
        writer.writeheader()
        writer.writerows(decorated)


def run_command(command: str, cfg: dict[str, str], seed=None, fmt_name="csv", out=None):
    """Execute one subcommand; returns (exit_status, report_text).

    A seed override is folded into the effective config first, so the
    report digest always reflects the inputs that actually ran.
    """
    if seed is not None:
        cfg = dict(cfg, seed=str(seed))
    start = time.perf_counter()
    rows = COMMANDS[command](cfg)
    runtime = time.perf_counter() - start
    digest = config_digest(command, cfg)
    buffer = io.StringIO()
    emit(rows, command, digest, fmt_name, buffer, runtime)
    text = buffer.getvalue()
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    # an empty report proves nothing, so it fails
    status = 0 if rows and all(r.get("pass", False) for r in rows) else 1
    return status, text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="randlab",
        description="exact experiments over randomization isometry groups",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="flat key=value file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    args = parser.parse_args(argv)
    try:
        with open(args.config) as fh:
            cfg = parse_config(fh.read())
        status, text = run_command(
            args.command, cfg, seed=args.seed, fmt_name=args.format, out=args.out
        )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (RandlabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.out:
        sys.stdout.write(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
